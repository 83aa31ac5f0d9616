"""Timed passes over a workload's cells, their correctness checks and metrics.

A *pass* runs every cell of a workload once, in order.  Each cell is
generated, built, run, bounded and checked; the four public calls it
makes into the program are timed separately (the boundary timings), and
the cell's simulated outputs feed the pass digest.  A traced pass runs
the same cells under :mod:`cProfile`, enabled around each cell only.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import json
import pstats
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.metrics.efficiency import run_lower_bound_ps
from repro.networks.base import RunResult
from repro.traffic.base import TrafficPhase

from hostclock import HostClock
from layers import LAYERS, LayerMap, canonical_counts, find_function, shares
from workloads import Cell, build, generate


@dataclass(slots=True)
class CellOutcome:
    """What one cell did: timings, simulated outputs, counts, problems."""

    label: str
    #: perf_counter() at the cell's start and end
    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0
    #: before normalise(): the measured wall_s, and the host's speed then
    raw_wall_s: float = 0.0
    host_scale: float = 1.0
    gen_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    bound_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: simulated outputs (compared across passes, hashed into the digest)
    outputs: dict[str, Any] = field(default_factory=dict)
    #: per-layer counts (see layers.COUNTER_ALIASES) plus kernel counters
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def check(cell: Cell, phases: list[TrafficPhase], result: RunResult, bound: int) -> list[str]:
    """Correctness of one cell's result against its own workload."""
    injected = sum(p.total_bytes for p in phases)
    messages = sum(len(p.messages) for p in phases)
    problems = []
    if cell.faulted:
        dropped = sum(d.size for d in result.drops)
        if result.delivered_bytes + dropped != injected:
            problems.append(
                f"delivered {result.delivered_bytes} B + dropped {dropped} B "
                f"!= injected {injected} B"
            )
        if len(result.records) + len(result.drops) != messages:
            problems.append("a message neither delivered nor dropped")
    else:
        if result.delivered_fraction != 1.0 or len(result.records) != messages:
            problems.append(
                f"delivered {len(result.records)}/{messages} messages "
                f"({len(result.drops)} dropped)"
            )
        if result.delivered_bytes != injected:
            problems.append(f"delivered {result.delivered_bytes} B != injected {injected} B")
        if result.makespan_ps < bound:
            problems.append(f"makespan {result.makespan_ps} ps < lower bound {bound} ps")
    return problems


def _outputs(cell: Cell, result: RunResult, bound: int) -> dict[str, Any]:
    c = result.counters
    est = c.get("est_latency_count", 0)
    opps = c.get("slot_opportunities", 0)
    return {
        "cell": cell.label,
        "makespan_ps": result.makespan_ps,
        "bound_ps": bound,
        "efficiency": bound / result.makespan_ps if result.makespan_ps else 0.0,
        "delivered": len(result.records),
        "dropped": len(result.drops),
        "est_mean_ns": c["est_latency_sum_ps"] / est / 1000 if est else None,
        "slot_utilization": c.get("slot_transfers", 0) / opps if opps else None,
    }


def _counts(cell: Cell, network: Any, result: RunResult) -> dict[str, int]:
    counts = canonical_counts(result.counters)
    perf = network.sim.perf_counters()
    counts["sim.heap_high_water"] = int(perf["heap_high_water"])
    counts["sim.events_cancelled"] = int(perf["events_cancelled"])
    counts["sim.events_scheduled"] = int(perf["events_scheduled"])
    # FastPath.stats() is the fast path's documented diagnostics side
    # channel; only TdmNetwork carries one, and only when the run was eligible
    fastpath = getattr(network, "_fastpath", None)
    stats = fastpath.stats() if fastpath is not None else {}
    counts["sim.fastpath.windows_opened"] = stats.get("windows_opened", 0)
    counts["sim.fastpath.quiet_slot_ticks"] = stats.get("quiet_slot_ticks", 0)
    counts["sim.fastpath.slot_ticks"] = (
        result.counters.get("tdm_advances", 0) + result.counters.get("tdm_idle_ticks", 0)
        if fastpath is not None
        else 0
    )
    counts["sim.fastpath.fallbacks"] = int(cell.fast and fastpath is None)
    return counts


def run_cell(cell: Cell, seed: int, profiler: cProfile.Profile | None = None) -> CellOutcome:
    """Generate, build, run, bound and check one cell; never raises."""
    out = CellOutcome(cell.label)
    clock = time.perf_counter
    if profiler is not None:
        profiler.enable()
    t0 = clock()
    try:
        phases = generate(cell, seed)
        t1 = clock()
        network = build(cell, phases, seed)
        t2 = clock()
        result = network.run(phases, pattern_name=cell.pattern)
        t3 = clock()
        bound = run_lower_bound_ps(phases, network.params)
        t4 = clock()
        out.problems = check(cell, phases, result, bound)
    except Exception as exc:  # a failing cell is counted, and the pass goes on
        traceback.print_exc(file=sys.stderr)
        out.problems = [f"raised {type(exc).__name__}: {exc}"]
        return out
    finally:
        out.start, out.end = t0, clock()
        out.wall_s = out.raw_wall_s = out.end - t0
        if profiler is not None:
            profiler.disable()
    out.gen_s, out.build_s, out.run_s, out.bound_s = t1 - t0, t2 - t1, t3 - t2, t4 - t3
    out.outputs = _outputs(cell, result, bound)
    out.counts = _counts(cell, network, result)
    return out


@dataclass(slots=True)
class PassOutcome:
    """One pass over the cells of a workload; the window's last may be partial."""

    cells: list[CellOutcome]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.cells)

    def count(self, name: str) -> int:
        return sum(c.counts.get(name, 0) for c in self.cells)

    def digest(self) -> str:
        """Hash of every cell's simulated outputs (not of any host time)."""
        blob = json.dumps([c.outputs for c in self.cells], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_pass(
    cells: Sequence[Cell], seed: int, profiler: cProfile.Profile | None = None
) -> PassOutcome:
    """Run every cell once; garbage from one cell is collected before the next.

    The collection sits between cells and outside their timers, so each
    cell starts from the same heap and ``peak_rss_mb`` is the largest
    single cell's footprint, not an accident of collector timing.
    """
    outcomes = []
    for cell in cells:
        outcomes.append(run_cell(cell, seed, profiler))
        gc.collect()
    return PassOutcome(outcomes)


def run_window(cells: Sequence[Cell], seed: int, seconds: float) -> list[PassOutcome]:
    """Passes over the cells, in the order given, while the window lasts.

    The first pass always runs whole, however long it takes.  After it a
    cell runs only if its median time so far still fits in the window; the
    pass in progress ends at the first cell that does not, so the last pass
    may cover only the first cells.
    """
    passes: list[PassOutcome] = []
    start = time.perf_counter()
    while True:
        current = PassOutcome([])
        for cell in cells:
            if passes:
                expected = statistics.median(cell_samples(passes, cell.label, "wall_s"))
                if time.perf_counter() - start + expected > seconds:
                    return passes + [current] if current.cells else passes
            current.cells.append(run_cell(cell, seed))
            gc.collect()
        passes.append(current)


def cell_samples(passes: Sequence[PassOutcome], label: str, timing: str) -> list[float]:
    """One timing of the cell ``label`` in every pass that ran it."""
    return [getattr(c, timing) for p in passes for c in p.cells if c.label == label]


def cell_medians(passes: Sequence[PassOutcome], labels: Sequence[str], timing: str) -> list[float]:
    """Each cell's median of one timing over the passes that ran it, in ``labels`` order."""
    return [statistics.median(cell_samples(passes, label, timing)) for label in labels]


_TIMINGS = ("wall_s", "gen_s", "build_s", "run_s", "bound_s")


def normalise(cell: CellOutcome, clock: HostClock) -> CellOutcome:
    """The cell's timings at the reference host speed (see :mod:`hostclock`)."""
    if not clock.ticks or cell.wall_s <= 0:
        return cell
    factor = clock.normalised_s(cell.start, cell.end) / cell.wall_s
    scale = clock.speed(cell.start, cell.end)
    timings = {k: getattr(cell, k) * factor for k in _TIMINGS}
    return dataclasses.replace(cell, raw_wall_s=cell.wall_s, host_scale=scale, **timings)


def passes_to_json(passes: Sequence[PassOutcome]) -> list[list[dict[str, Any]]]:
    return [[dataclasses.asdict(c) for c in p.cells] for p in passes]


def passes_from_json(data: list[list[dict[str, Any]]]) -> list[PassOutcome]:
    return [PassOutcome([CellOutcome(**c) for c in cells]) for cells in data]


def traffic_digest(all_phases: Sequence[list[TrafficPhase]]) -> str:
    """Hash of the generated workload: every message of every cell."""
    h = hashlib.sha256()
    for phases in all_phases:
        for phase in phases:
            h.update(phase.name.encode())
            for m in phase.messages:
                h.update(b"%d,%d,%d,%d;" % (m.src, m.dst, m.size, m.inject_ps))
    return h.hexdigest()[:16]


# -- metrics ---------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_counts(p: PassOutcome) -> dict[str, tuple[float, str]]:
    """The deterministic per-layer counts of one pass, with units."""
    est, blocked = p.count("sched.establishes"), p.count("sched.blocked")
    transfers, opps = p.count("fabric.slot_transfers"), p.count("fabric.slot_opportunities")
    scheduled = p.count("sim.events_scheduled")
    ticks = p.count("sim.fastpath.slot_ticks")
    high_water = max((c.counts.get("sim.heap_high_water", 0) for c in p.cells), default=0)
    return {
        "sim.events": (p.count("sim.events"), "count"),
        "sim.heap_high_water": (high_water, "count"),
        "sim.cancelled_ratio": (
            p.count("sim.events_cancelled") / scheduled if scheduled else 0.0,
            "ratio",
        ),
        "sched.passes": (p.count("sched.passes"), "count"),
        "sched.establishes": (est, "count"),
        "sched.blocked": (blocked, "count"),
        "sched.grant_ratio": (est / (est + blocked) if est + blocked else 0.0, "ratio"),
        "fabric.reconfigurations": (p.count("fabric.reconfigurations"), "count"),
        "fabric.slot_utilization": (transfers / opps if opps else 0.0, "ratio"),
        "networks.islip.matches": (p.count("networks.islip.matches"), "count"),
        "networks.islip.slots": (p.count("networks.islip.slots"), "count"),
        "networks.multiswitch.naks": (p.count("networks.multiswitch.naks"), "count"),
        "networks.multiswitch.coordinated": (
            p.count("networks.multiswitch.coordinated"),
            "count",
        ),
        "networks.lifecycle.recoveries": (p.count("networks.lifecycle.recoveries"), "count"),
        "faults.dropped": (p.count("faults.dropped"), "count"),
        "sim.fastpath.windows_opened": (p.count("sim.fastpath.windows_opened"), "count"),
        "sim.fastpath.quiet_slot_share": (
            p.count("sim.fastpath.quiet_slot_ticks") / ticks if ticks else 0.0,
            "ratio",
        ),
        "sim.fastpath.fallbacks": (p.count("sim.fastpath.fallbacks"), "count"),
    }


def boundary_timings(p: PassOutcome) -> dict[str, tuple[float, str]]:
    """Host seconds inside each public call the benchmark makes, per pass."""
    return {
        "traffic.gen_s": (sum(c.gen_s for c in p.cells), "s"),
        "networks.build_s": (sum(c.build_s for c in p.cells), "s"),
        "networks.run_s": (sum(c.run_s for c in p.cells), "s"),
        "metrics.bound_s": (sum(c.bound_s for c in p.cells), "s"),
    }


def profile_metrics(
    profiler: cProfile.Profile, layer_map: LayerMap
) -> dict[str, tuple[float, str]]:
    """Self-time per layer, and the NIC constructor's call count and cost."""
    stats = pstats.Stats(profiler)
    self_s = layer_map.self_times(stats)
    share = shares(self_s)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.self_share"] = (share[layer], "ratio")
    calls, cum = find_function(stats, "repro/nic/nic.py", "__init__")
    out["nic.constructed"] = (calls, "count")
    out["nic.construct_s"] = (cum, "s")
    return out
