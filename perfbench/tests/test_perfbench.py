"""Tests of the benchmark itself: layer map, checks, reduced-size smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import hostclock  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, LayerMap, module_layer, repro_modules  # noqa: E402
from repro.metrics.efficiency import run_lower_bound_ps  # noqa: E402

#: small enough for a quick run, large enough for every topology builder
SMOKE_PORTS = 32
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_repro_module_maps_to_a_layer() -> None:
    modules = repro_modules(SRC)
    assert "repro.sim.fastpath" in modules
    for module in modules:
        assert module_layer(module) in LAYERS, module


def test_unknown_module_has_no_layer() -> None:
    with pytest.raises(KeyError):
        module_layer("elsewhere.module")


def test_entry_points_agree_with_the_program() -> None:
    # run.py and sweep.py must parse their arguments before repro is importable
    import run
    import sweep
    from repro.experiments.common import DEFAULT_SEED

    assert run.WORKLOADS == sweep.WORKLOADS == workloads.WORKLOADS
    assert run.DEFAULT_SEED == DEFAULT_SEED


def _small_cell(workload: str, scheme: str) -> workloads.Cell:
    return next(c for c in workloads.cells(workload, SMOKE_PORTS) if c.scheme == scheme)


def test_layer_self_times_sum_to_profiled_total() -> None:
    profiler = cProfile.Profile()
    cell = _small_cell("crossbar", "dynamic-tdm")
    outcome = harness.run_cell(cell, seed=3, profiler=profiler)
    assert outcome.ok, outcome.problems
    stats = pstats.Stats(profiler)
    self_s = LayerMap(SRC).self_times(stats)
    assert set(self_s) == set(LAYERS)
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, rel=1e-9)
    assert self_s["sim"] > 0 and self_s["networks.tdm"] > 0


def test_host_clock_rescales_a_span_to_reference_speed() -> None:
    clock = hostclock.HostClock()
    # a host at half the reference speed, and one stretched tick the trim drops
    clock.ticks = [(t / 10, 2 * hostclock.CAL_REF_S) for t in range(20)]
    clock.ticks[3] = (0.3, 50 * hostclock.CAL_REF_S)
    busy = sum(dt for t, dt in clock.ticks if t < 1.0)
    assert clock.speed(0.0, 1.0) == pytest.approx(0.5)
    assert clock.normalised_s(0.0, 1.0) == pytest.approx((1.0 - busy) * 0.5)
    # a span too short to hold a tick borrows the ticks nearest to it
    assert clock.speed(1.51, 1.52) == pytest.approx(0.5)

    cell = harness.CellOutcome("c", start=0.0, end=1.0, wall_s=1.0, raw_wall_s=1.0, run_s=0.8)
    scaled = harness.normalise(cell, clock)
    assert scaled.wall_s == pytest.approx((1.0 - busy) * 0.5)
    assert scaled.run_s == pytest.approx(0.8 * scaled.wall_s)
    assert (scaled.raw_wall_s, scaled.host_scale) == (1.0, pytest.approx(0.5))


def test_host_clock_ticks_only_while_active() -> None:
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(tick_s=0.01) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    ticks = len(clock.ticks)
    assert ticks >= 5
    time.sleep(0.05)
    assert len(clock.ticks) == ticks
    assert signal.getsignal(signal.SIGALRM) == previous


def test_checks_reject_a_lost_message() -> None:
    cell = _small_cell("crossbar", "preload")
    phases = workloads.generate(cell, seed=3)
    network = workloads.build(cell, phases, seed=3)
    result = network.run(phases, pattern_name=cell.pattern)
    bound = run_lower_bound_ps(phases, network.params)
    assert harness.check(cell, phases, result, bound) == []
    result.records.pop()
    assert harness.check(cell, phases, result, bound)
    result.makespan_ps = bound - 1
    assert any("lower bound" in p for p in harness.check(cell, phases, result, bound))


def test_bakeoff_fast_path_matches_event_path() -> None:
    fast_cells = [c for c in workloads.cells("bakeoff", SMOKE_PORTS) if c.fast]
    assert {c.scheme for c in fast_cells} == workloads.FAST_SCHEMES
    for cell in fast_cells:
        results = []
        for variant in (cell, dataclasses.replace(cell, fast=False)):
            phases = workloads.generate(variant, seed=5)
            network = workloads.build(variant, phases, seed=5)
            results.append(network.run(phases, pattern_name=variant.pattern))
            if variant.fast:
                assert network._fastpath is not None, "fast cell fell back"
        fast, event = results
        assert fast.makespan_ps == event.makespan_ps, cell.label
        assert fast.records == event.records, cell.label
        assert fast.counters == event.counters, cell.label


def test_seed_changes_traffic_digest() -> None:
    for workload in workloads.WORKLOADS:
        cells = workloads.cells(workload, SMOKE_PORTS)

        def digest(seed: int) -> str:
            return harness.traffic_digest([workloads.generate(c, seed) for c in cells])

        assert digest(1) == digest(1), workload
        assert digest(1) != digest(2), workload


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(trace: int) -> None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "all"]
    cmd += ["--ports", str(SMOKE_PORTS), "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    text = "\n".join(lines[:-1])
    for workload in workloads.WORKLOADS:
        names = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert names == {m["name"] for m in declared}, workload
        for m in declared:
            got = result["metrics"][f"{workload}.{m['name']}"]
            assert got["unit"] == m["unit"], m["name"]
            assert f" {m['name']} " in text and f" {m['unit']} " in text
        assert f"{workload:>9} fail_ratio" in text


def test_run_refuses_a_tree_without_the_program(tmp_path: Path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "crossbar", "--seed", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
