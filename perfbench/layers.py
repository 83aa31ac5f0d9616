"""The benchmark's one layer map, and self-time attribution over it.

Two tables live here and nowhere else:

* :data:`MODULE_LAYERS` maps every ``repro.*`` module (by longest dotted
  prefix) to the layer its self-time is charged to.  Every module under
  ``src/repro`` must match an entry; there is no silent default, so a new
  module fails the layer-map test until someone decides where it belongs.
* :data:`COUNTER_ALIASES` maps each per-layer count to the
  ``RunResult.counters`` keys the schemes report it under.  Schemes spell
  some counters differently (``passes``/``sl_passes``, ...); a rename that
  unifies them edits one row here.

Functions outside ``repro`` are charged to ``numpy`` (numpy's Python
files and its C entry points), ``builtins`` (every other C function:
``len``, ``list.append``, ``heapq``, ...) or ``other`` (the rest of the
standard library and the benchmark's own code).
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Mapping

#: the layers, in report order
LAYERS: tuple[str, ...] = (
    "sim",
    "sim.fastpath",
    "sched",
    "fabric",
    "nic",
    "networks.tdm",
    "networks.multiswitch",
    "networks.islip",
    "networks.circuit",
    "networks.wormhole",
    "networks.base",
    "networks.lifecycle",
    "topo",
    "traffic",
    "compiled",
    "faults",
    "metrics",
    "numpy",
    "builtins",
    "other",
)

#: dotted-prefix -> layer.  The longest matching prefix wins.
MODULE_LAYERS: dict[str, str] = {
    "repro.sim": "sim",
    "repro.sim.fastpath": "sim.fastpath",
    "repro.sched": "sched",
    # predictors decide when the scheduler releases a cached connection
    "repro.predict": "sched",
    "repro.fabric": "fabric",
    "repro.nic": "nic",
    # package init, registry, ideal bound and the analytic multi-hop model
    # are the scheme-independent scaffolding the schemes share
    "repro.networks": "networks.base",
    "repro.networks.base": "networks.base",
    "repro.networks.tdm": "networks.tdm",
    "repro.networks.multiswitch": "networks.multiswitch",
    "repro.networks.islip": "networks.islip",
    "repro.networks.circuit": "networks.circuit",
    "repro.networks.wormhole": "networks.wormhole",
    "repro.networks.lifecycle": "networks.lifecycle",
    "repro.topo": "topo",
    "repro.traffic": "traffic",
    "repro.compiled": "compiled",
    "repro.faults": "faults",
    "repro.metrics": "metrics",
    # not exercised by any workload, or shared value types and glue
    "repro": "other",
    "repro.__main__": "other",
    "repro.cli": "other",
    "repro.errors": "other",
    "repro.params": "other",
    "repro.types": "other",
    "repro.exec": "other",
    "repro.experiments": "other",
    "repro.hw": "other",
    "repro.obs": "other",
    "repro.service": "other",
}

#: per-layer count -> the RunResult.counters keys it is reported under
COUNTER_ALIASES: dict[str, tuple[str, ...]] = {
    "sim.events": ("events",),
    "sched.passes": ("passes", "sl_passes"),
    "sched.establishes": ("establishes", "sl_establishes"),
    "sched.blocked": ("blocked", "sl_blocked"),
    "fabric.reconfigurations": ("fabric_reconfigurations", "reconfigurations"),
    "fabric.slot_transfers": ("slot_transfers",),
    "fabric.slot_opportunities": ("slot_opportunities",),
    "networks.islip.matches": ("islip_matches",),
    "networks.islip.slots": ("islip_slots",),
    "networks.multiswitch.naks": ("circuit_naks",),
    "networks.multiswitch.coordinated": ("circuits_coordinated",),
    "networks.lifecycle.recoveries": ("fault_recoveries",),
    "faults.dropped": ("messages_dropped",),
}


def module_layer(module: str) -> str:
    """The layer of a ``repro.*`` module; KeyError if no entry covers it."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise KeyError(f"no layer for module {module!r}")


def canonical_counts(counters: Mapping[str, int]) -> dict[str, int]:
    """Per-layer counts from one run's counters (first alias present wins)."""
    out: dict[str, int] = {}
    for name, keys in COUNTER_ALIASES.items():
        out[name] = next((int(counters[k]) for k in keys if k in counters), 0)
    return out


def _dotted(rel: Path) -> str:
    """``repro/nic/nic.py`` -> ``repro.nic.nic``; an ``__init__`` is its package."""
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src: Path) -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    return [_dotted(p.relative_to(src)) for p in sorted((src / "repro").rglob("*.py"))]


class LayerMap:
    """Charges cProfile entries to layers, given where ``repro`` lives."""

    def __init__(self, src: Path) -> None:
        self._src = str(src.resolve()) + "/"
        self._cache: dict[str, str] = {}

    def file_layer(self, filename: str, funcname: str) -> str:
        """The layer of one profiled function (file ``~``: a C function)."""
        if filename == "~":
            return "numpy" if "numpy" in funcname else "builtins"
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._classify(filename)
            self._cache[filename] = layer
        return layer

    def _classify(self, filename: str) -> str:
        if filename.startswith(self._src):
            return module_layer(_dotted(Path(filename[len(self._src):])))
        if "/numpy/" in filename:
            return "numpy"
        return "other"

    def self_times(self, stats: pstats.Stats) -> dict[str, float]:
        """Self seconds per layer; the values sum to ``stats.total_tt``."""
        out = dict.fromkeys(LAYERS, 0.0)
        raw = stats.stats  # type: ignore[attr-defined]
        for (filename, _line, funcname), (_cc, _nc, tt, _ct, _callers) in raw.items():
            out[self.file_layer(filename, funcname)] += tt
        return out


def find_function(
    stats: pstats.Stats, file_suffix: str, funcname: str
) -> tuple[int, float]:
    """(ncalls, cumulative seconds) of every profiled function so named."""
    calls, cum = 0, 0.0
    raw = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in raw.items():
        if name == funcname and filename.endswith(file_suffix):
            calls += nc
            cum += ct
    return calls, cum


def shares(self_s: Mapping[str, float]) -> dict[str, float]:
    """Each layer's fraction of the summed self-time."""
    total = sum(self_s.values())
    return {k: (v / total if total > 0 else 0.0) for k, v in self_s.items()}

