"""The benchmark's workloads: fixed lists of simulation cells.

Each workload is a list of :class:`Cell` values run back to back in one
process: a closed loop, one cell at a time, no result cache, no process
pool.  Every :class:`~repro.networks.registry.RunSpec` pins ``fast``,
``strict``, ``k``, ``injection_window`` and ``max_wall_s``, so the
``REPRO_FAST``/``REPRO_STRICT`` environment variables cannot switch the
engine under the benchmark.

* ``crossbar`` -- the paper's Figure-4 schemes x {random-mesh, two-phase}
  x {64 B, 1024 B} on the 128-port crossbar, event path.
* ``bakeoff`` -- islip and the three TDM entrants x {scatter, two-phase}
  x 1024 B, TDM entrants on the fast path (as ``repro --fast compare``).
* ``scaleout`` -- mesh-tdm and fattree-tdm at 1024 endpoints, healthy and
  faulted (the ``repro scaleout`` cells).

The program only ever sees the generated phases; the seed stays here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.figure4 import figure4_patterns
from repro.experiments.scaleout import (
    ScaleoutCell,
    _trunk_fault_plan,  # the sweep's own seeded fault campaign, reused as-is
    scaleout_phases,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.networks.base import BaseNetwork
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS, SystemParams
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase

WORKLOADS: tuple[str, ...] = ("crossbar", "bakeoff", "scaleout")

#: the paper's multiplexing degree and per-NIC injection window (Figure 4)
K = 4
INJECTION_WINDOW = 4
#: figure-4 pattern knobs (the sweep's defaults)
MESH_ROUNDS = 4
NN_ROUNDS = 16
#: generous per-cell watchdog: a cell that trips it counts as failed
MAX_WALL_S = 120.0

CROSSBAR_PORTS = 128
CROSSBAR_SCHEMES = ("wormhole", "circuit", "dynamic-tdm", "preload")
CROSSBAR_PATTERNS = ("random-mesh", "two-phase")
CROSSBAR_SIZES = (64, 1024)

BAKEOFF_PORTS = 128
BAKEOFF_SCHEMES = ("islip", "dynamic-tdm", "preload", "solstice-tdm")
BAKEOFF_PATTERNS = ("scatter", "two-phase")
BAKEOFF_SIZE = 1024
#: the entrants that run on the slot-synchronous fast path
FAST_SCHEMES = frozenset({"dynamic-tdm", "preload", "solstice-tdm"})

SCALEOUT_ENDPOINTS = 1024
SCALEOUT_SCHEMES = ("mesh-tdm", "fattree-tdm")
SCALEOUT_MESSAGES = 4
SCALEOUT_SIZE = 256


@dataclass(slots=True, frozen=True)
class Cell:
    """One simulation: scheme x traffic x plant size (x fault campaign)."""

    scheme: str
    pattern: str
    size_bytes: int
    n_ports: int
    fast: bool
    faulted: bool = False

    @property
    def label(self) -> str:
        tail = "/faulted" if self.faulted else ""
        return f"{self.scheme}/{self.pattern}/{self.size_bytes}{tail}"

    @property
    def params(self) -> SystemParams:
        return PAPER_PARAMS.with_overrides(n_ports=self.n_ports)


def cells(workload: str, ports: int | None = None) -> list[Cell]:
    """The workload's cells; ``ports`` shrinks the plant (tests, smoke runs)."""
    if workload == "crossbar":
        n = ports or CROSSBAR_PORTS
        return [
            Cell(scheme, pattern, size, n, fast=False)
            for scheme in CROSSBAR_SCHEMES
            for pattern in CROSSBAR_PATTERNS
            for size in CROSSBAR_SIZES
        ]
    if workload == "bakeoff":
        n = ports or BAKEOFF_PORTS
        return [
            Cell(scheme, pattern, BAKEOFF_SIZE, n, fast=scheme in FAST_SCHEMES)
            for pattern in BAKEOFF_PATTERNS
            for scheme in BAKEOFF_SCHEMES
        ]
    if workload == "scaleout":
        n = ports or SCALEOUT_ENDPOINTS
        return [
            Cell(scheme, "scaleout", SCALEOUT_SIZE, n, fast=False, faulted=faulted)
            for scheme in SCALEOUT_SCHEMES
            for faulted in (False, True)
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _scaleout_cell(cell: Cell, seed: int) -> ScaleoutCell:
    return ScaleoutCell(
        scheme=cell.scheme,
        n_endpoints=cell.n_ports,
        messages_per_endpoint=SCALEOUT_MESSAGES,
        size_bytes=cell.size_bytes,
        params=PAPER_PARAMS,
        k=K,
        faulted=cell.faulted,
        seed=seed,
    )


def generate(cell: Cell, seed: int) -> list[TrafficPhase]:
    """The cell's traffic: every scheme faces the same phases for a seed."""
    if cell.pattern == "scaleout":
        return scaleout_phases(_scaleout_cell(cell, seed))
    make = figure4_patterns(cell.params, MESH_ROUNDS, NN_ROUNDS)[cell.pattern]
    return make(cell.size_bytes).phases(RngStreams(seed))


def _spec(cell: Cell, **extra: object) -> RunSpec:
    return RunSpec(
        scheme=cell.scheme,
        params=cell.params,
        k=K,
        injection_window=INJECTION_WINDOW,
        fast=cell.fast,
        strict=False,
        max_wall_s=MAX_WALL_S,
        **extra,  # type: ignore[arg-type]
    )


def build(cell: Cell, phases: list[TrafficPhase], seed: int) -> BaseNetwork:
    """The cell's network, as ``run_scaleout_cell``/``run_compare_cell`` build it.

    A faulted scale-out cell first builds a probe instance to learn the
    topology's trunk count, exactly as the sweep does, then plans its
    seeded per-hop fault campaign over the injection window.
    """
    if not cell.faulted:
        return build_network(_spec(cell))
    probe = build_network(_spec(cell))
    horizon_ps = max(phase.messages[-1].inject_ps for phase in phases)
    plan = _trunk_fault_plan(
        _scaleout_cell(cell, seed), probe.topology.n_links, horizon_ps  # type: ignore[attr-defined]
    )
    return build_network(
        _spec(
            cell,
            faults=FaultInjector(FaultSchedule(events=())),
            options={"trunk_faults": plan},
        )
    )
