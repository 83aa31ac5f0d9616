"""Golden digests of the slotted TDM schemes' complete observable output.

Each digest covers one run at a fixed workload seed: every delivered
record's ``(src, dst, size, inject_ps, start_ps, done_ps, seq)`` in
delivery order, the makespan, the sorted counters, every drop record, the
recovery latencies and, for traced runs, the whole trace stream.  The
constants were recorded from the per-scheme hand-written slot-transfer
loops, so the shared slot-drain kernel (and any later rewrite of it) must
reproduce their behaviour bit for bit — on the event path and the fast
path alike, which share one digest.
"""

from __future__ import annotations

import hashlib
from typing import Any

import pytest

from repro.experiments.figure4 import figure4_patterns
from repro.experiments.scaleout import (
    ScaleoutCell,
    _trunk_fault_plan,
    scaleout_phases,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.networks.base import RunResult
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.predict import TimeoutPredictor
from repro.predict.markov import MarkovPrefetcher
from repro.sim.clock import us
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

SEED = 20050404
SIZE = 256  # 3.2 slots of payload: every message is drained in pieces

#: (scheme, ports, pattern) -> digest; the fast and event paths share it
GRID: dict[tuple[str, int, str], str] = {
    ("dynamic-tdm", 16, "scatter"): (
        "159ee69b0684f0f540b1c2926154f15a2137e4c5d8872e92b5613c77958a6806"
    ),
    ("dynamic-tdm", 16, "random-mesh"): (
        "6442170c4d1541a10e34a43d7ad3c1d0ec215016f09e3a9a9d3e2cdc6e15dbda"
    ),
    ("dynamic-tdm", 16, "two-phase"): (
        "f42aa4d45ec2747352d0c52be39963c8806593b5a2216851cf25a021e9248c59"
    ),
    ("dynamic-tdm", 64, "scatter"): (
        "55cc2e9d62a59ce8d0d646fa5a73997ee86b7e5cc7a6bb977dcd6df877ccccdb"
    ),
    ("dynamic-tdm", 64, "random-mesh"): (
        "9e2f62f2b8283e6bf0998cd9fe40c28b77086e468c837dc6770d3e887ade17d0"
    ),
    ("dynamic-tdm", 64, "two-phase"): (
        "f86065e4af85fedbc717e69faae5e533e72f543e307bae07107bccb7e7aa3034"
    ),
    ("preload", 16, "scatter"): (
        "46b4be1a68d0d395e0cea496ebdeab37896b9b99e10a80a0784fa76df8d124ed"
    ),
    ("preload", 16, "random-mesh"): (
        "c80f493272a395b53cc1eeefe149785926c9c3da8a9c7aba01297672ccc4ed75"
    ),
    ("preload", 16, "two-phase"): (
        "3d136c268e07c804a51bb641af790b229480bab7f1f2f3006ff07a15c7ebda9e"
    ),
    ("preload", 64, "scatter"): (
        "f37178acc80771e86ffb8702d8ef22986c6066c7978be377111cb9b1d2a57204"
    ),
    ("preload", 64, "random-mesh"): (
        "13d26b1faff5d45b2d24742cc3809502bb66c1225bbb6e48e691102866472be4"
    ),
    ("preload", 64, "two-phase"): (
        "03d2be86f9b60e06c6d7b7416ca28e38dfd11d6b762b05f9298866ccaaa255b1"
    ),
    ("hybrid", 16, "scatter"): (
        "4f2e25bc10667ce7569fc5e9c70a659d79c4d1afd138ba6e36c998df22152590"
    ),
    ("hybrid", 16, "random-mesh"): (
        "8fe065844ba9d7f8b5fb82cdabf8f7cb6fa5521ab14ca32b60fb857acd1fe051"
    ),
    ("hybrid", 16, "two-phase"): (
        "b1c9bfbb7470413d0abe574570c29f00c7628aea2bdec5f236c2259a45c608ab"
    ),
    ("hybrid", 64, "scatter"): (
        "6bcb2a4056e8effc2bd2c1cf732138f2ce558ea2dbcc284603f5735abd16d4e6"
    ),
    ("hybrid", 64, "random-mesh"): (
        "ae53929ff1b12a9674bd5049182a2d685ba81210f175e573114785092c0a7e5e"
    ),
    ("hybrid", 64, "two-phase"): (
        "307e3d3483726d90cad0f801084b1610a19dc3a9bc6fb47c0850f0b282d56d77"
    ),
}

#: named single runs exercising the transfer's optional per-pair hooks
EXTRA: dict[str, str] = {
    "predicted-event": "47550ff0f377c8037f25975ac4132a86e119612dbd240779a28e197835d8660e",
    "predicted-fast": "47550ff0f377c8037f25975ac4132a86e119612dbd240779a28e197835d8660e",
    "multislot-event": "6ad43fefed925651dbbe060303b1a159e52d061ab324a22bad456c20d3d67f93",
    "multislot-fast": "6ad43fefed925651dbbe060303b1a159e52d061ab324a22bad456c20d3d67f93",
    "traced-dynamic-tdm": "433cede6800d3bcda24ef171ffce178d64c937d278134a3623387f1c3ac7176c",
    "traced-hybrid": "9ba5c17a3db5cb4871832caf3b408cc35a583cf0a25a2c44d451a4a9a7ba6f21",
    "faulted-dynamic-tdm": "84b26c338eb3262d8770db90038c838f89e9d9c05b4b155c7a891d499a0a9c64",
    "faulted-preload": "53061e4aeefbfddcc8547561f86513dd466b133999bb196bfa49378b075ca1ff",
    "mesh-tdm-healthy": "6abb356b57c496563de60635a274a0f667e4fb57a3d464b9b1cc7b57ff6a8aaf",
    "mesh-tdm-faulted": "3c8f8179527170894a61d617ebed6b113cff02afa8bec943d8db00ea41b1b5bf",
    "fattree-tdm-healthy": "1e612063015b0ffbbc3142e81a6f0df610bc31acee23f1c1a77749b2e533c25b",
    "fattree-tdm-faulted": "945992b7d683d2362861603558e811f309fd866ab2a6227d0d792dadc43e4854",
}


def _digest(result: RunResult, tracer: Tracer | None = None) -> str:
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            repr(
                (r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq)
            ).encode()
        )
    h.update(repr(result.makespan_ps).encode())
    h.update(repr(sorted(result.counters.items())).encode())
    h.update(repr([repr(d) for d in result.drops]).encode())
    h.update(repr(result.recovery_ps).encode())
    if tracer is not None:
        assert tracer.dropped == 0, "trace ring wrapped: raise its capacity"
        for ev in tracer.events():
            h.update(repr((ev.time_ps, ev.kind, sorted(ev.payload.items()))).encode())
    return h.hexdigest()


def _run_tdm(
    scheme: str,
    n_ports: int,
    pattern: str,
    *,
    fast: bool,
    size: int = SIZE,
    k_preload: int | None = None,
    tracer: Tracer | None = None,
    faults: FaultInjector | None = None,
    options: dict[str, Any] | None = None,
) -> str:
    params = PAPER_PARAMS.with_overrides(n_ports=n_ports)
    phases = figure4_patterns(params)[pattern](size).phases(RngStreams(SEED))
    net = build_network(
        RunSpec(
            scheme=scheme,
            params=params,
            k_preload=k_preload,
            tracer=tracer,
            faults=faults,
            fast=fast,
            options=options or {},
        )
    )
    return _digest(net.run(phases, pattern_name=pattern), tracer)


def grid_digest(scheme: str, n_ports: int, pattern: str, fast: bool) -> str:
    k_preload = 2 if scheme == "hybrid" else None
    return _run_tdm(scheme, n_ports, pattern, fast=fast, k_preload=k_preload)


def _predicted(fast: bool) -> str:
    return _run_tdm(
        "dynamic-tdm",
        16,
        "random-mesh",
        fast=fast,
        options={
            "predictor": TimeoutPredictor(timeout_ps=us(1)),
            "prefetcher": MarkovPrefetcher(16, hold_ps=us(1)),
        },
    )


def _multislot(fast: bool) -> str:
    return _run_tdm(
        "dynamic-tdm",
        16,
        "two-phase",
        fast=fast,
        size=1024,
        options={"multislot_threshold_bytes": 512},
    )


def _traced(scheme: str) -> str:
    return _run_tdm(
        scheme,
        16,
        "random-mesh",
        fast=False,
        k_preload=2 if scheme == "hybrid" else None,
        tracer=Tracer(capacity=1 << 20),
    )


#: link outages dominate, so the transfer's link-down mask is exercised
_LINK_HEAVY = {
    FaultKind.LINK_TRANSIENT: 4.0,
    FaultKind.LINK_FAIL: 1.0,
    FaultKind.REQ_DROP: 1.0,
}


def _faulted(scheme: str) -> str:
    schedule = FaultSchedule.generate(
        seed=SEED,
        rate_per_us=2.0,
        horizon_ps=us(6),
        n_ports=16,
        k=4,
        weights=_LINK_HEAVY,
    )
    return _run_tdm(
        scheme, 16, "random-mesh", fast=True, faults=FaultInjector(schedule)
    )


def _scaleout(scheme: str, faulted: bool) -> str:
    cell = ScaleoutCell(
        scheme=scheme,
        n_endpoints=64,
        messages_per_endpoint=4,
        size_bytes=SIZE,
        params=PAPER_PARAMS,
        k=4,
        faulted=faulted,
        seed=SEED,
    )
    params = PAPER_PARAMS.with_overrides(n_ports=64)
    phases = scaleout_phases(cell)
    options: dict[str, Any] = {}
    faults = None
    if faulted:
        probe = build_network(RunSpec(scheme=scheme, params=params))
        horizon_ps = max(m.inject_ps for m in phases[0].messages)
        options["trunk_faults"] = _trunk_fault_plan(
            cell, probe.topology.n_links, horizon_ps
        )
        faults = FaultInjector(FaultSchedule(events=()))
    tracer = Tracer(capacity=1 << 20) if not faulted else None
    net = build_network(
        RunSpec(scheme=scheme, params=params, faults=faults, tracer=tracer, options=options)
    )
    return _digest(net.run(phases, pattern_name="scaleout"), tracer)


EXTRA_RUNS = {
    "predicted-event": lambda: _predicted(False),
    "predicted-fast": lambda: _predicted(True),
    "multislot-event": lambda: _multislot(False),
    "multislot-fast": lambda: _multislot(True),
    "traced-dynamic-tdm": lambda: _traced("dynamic-tdm"),
    "traced-hybrid": lambda: _traced("hybrid"),
    "faulted-dynamic-tdm": lambda: _faulted("dynamic-tdm"),
    "faulted-preload": lambda: _faulted("preload"),
    "mesh-tdm-healthy": lambda: _scaleout("mesh-tdm", False),
    "mesh-tdm-faulted": lambda: _scaleout("mesh-tdm", True),
    "fattree-tdm-healthy": lambda: _scaleout("fattree-tdm", False),
    "fattree-tdm-faulted": lambda: _scaleout("fattree-tdm", True),
}


@pytest.mark.parametrize("fast", [False, True], ids=["event", "fast"])
@pytest.mark.parametrize(("scheme", "n_ports", "pattern"), sorted(GRID))
def test_tdm_output_matches_golden(scheme: str, n_ports: int, pattern: str, fast: bool):
    assert grid_digest(scheme, n_ports, pattern, fast) == GRID[
        (scheme, n_ports, pattern)
    ]


@pytest.mark.parametrize("name", sorted(EXTRA_RUNS))
def test_hooked_run_matches_golden(name: str):
    assert EXTRA_RUNS[name]() == EXTRA[name]


def test_golden_tables_cover_the_grid():
    assert set(GRID) == {
        (s, n, p)
        for s in ("dynamic-tdm", "preload", "hybrid")
        for n in (16, 64)
        for p in ("scatter", "random-mesh", "two-phase")
    }
    assert set(EXTRA) == set(EXTRA_RUNS)
