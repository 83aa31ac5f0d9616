"""iSLIP — the iterative VOQ crossbar scheduler ("The Tiny Tera").

The literature baseline the bake-off measures the paper's predictive TDM
schemes against: a slotted packet switch whose configuration is recomputed
*every slot* by N iterations of round-robin grant/accept matching over the
per-input virtual output queues.

One slot of the matcher:

* **request** — input ``u`` requests every output with a non-empty VOQ;
* **grant** — each unmatched output grants the first requesting unmatched
  input at or after its grant pointer ``g[v]``;
* **accept** — each input accepts the first granting output at or after
  its accept pointer ``a[u]``; both pointers advance to one past the
  accepted port **only when the accept happened in the first iteration**.

That pointer rule is the whole trick: under sustained load the pointers
*desynchronise* until every output's pointer sits on a different input, at
which point one iteration finds a full match every slot — the classic
100 %-throughput-under-uniform result (pinned by the tests).  Further
iterations only fill holes left by conflicts and never move pointers, so
the desynchronised fixed point is stable.

The network reuses the paper's physical constants — slot length, per-slot
payload, pipe latency — so a bake-off row differs from ``dynamic-tdm``
only in the scheduling discipline, never in the plant.  Unlike the TDM
scheduler there are no request/grant wires or SL passes to amortise: the
matcher is modelled as the Tiny Tera's dedicated hardware, recomputing
within the slot it schedules.  What iSLIP gives up is exactly what the
paper's schemes exploit — no configuration is ever reused, so nothing is
predictive and nothing is preloadable.

A simulated slot costs a few whole-matrix operations, not a Python loop
per port: requests are read from one ``(n, n)`` byte matrix whose rows are
the NICs' own VOQ counters (:class:`~repro.nic.QueueMatrix`), each
grant/accept round of :func:`islip_match` is a pair of boolean ``argmax``
picks, and the matching drains through the slot-drain kernel every
slotted scheme shares (:meth:`~repro.nic.QueueMatrix.drain`), with the
ledger charged once per slot.  The result is pinned bit for bit against
the original per-output scalar matcher by golden digests and a
differential property test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..fabric.crossbar import Crossbar
from ..fabric.timing import FabricTiming
from ..params import SystemParams
from ..sim.engine import Priority
from ..sim.trace import Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from ..types import MessageRecord
from .base import BaseNetwork

__all__ = ["IslipNetwork", "islip_match"]

_NO_PORTS = np.zeros(0, dtype=np.int64)


@lru_cache(maxsize=8)
def _at_or_after(n: int) -> np.ndarray:
    """``mask[p, c]`` is True where column ``c >= p`` (read-only)."""
    idx = np.arange(n)
    mask: np.ndarray = idx[None, :] >= idx[:, None]
    mask.flags.writeable = False
    return mask


def _round_robin_pick(cand: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per row ``r``: the first True column at or cyclically after ``ptr[r]``.

    Row ``r`` of ``[cand & (column >= ptr[r]) | cand]`` holds the
    at-or-after candidates, then every candidate again; its first True is
    the round-robin pick, wrapping to the first candidate when none lies at
    or after the pointer.  One boolean ``argmax`` along contiguous rows
    finds it for all rows at once.  Every row must hold a candidate.
    """
    n = cand.shape[1]
    both = np.empty((cand.shape[0], 2 * n), dtype=bool)
    np.logical_and(cand, _at_or_after(n)[ptr], out=both[:, :n])
    both[:, n:] = cand
    picks: np.ndarray = both.argmax(axis=1) % n
    return picks


def islip_match(
    requests: np.ndarray,
    grant_ptr: np.ndarray,
    accept_ptr: np.ndarray,
    iterations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``iterations`` iSLIP grant/accept rounds over a request matrix.

    ``requests[u, v]`` is True where input ``u`` holds traffic for output
    ``v``.  Returns the matching as parallel ``(inputs, outputs)`` arrays,
    iteration by iteration and in ascending input order within each; the
    pointer vectors are advanced in place on first-iteration accepts.

    Each round is a handful of whole-matrix operations: the grant phase
    picks along the rows of the transposed request matrix (one row per
    output), the accept phase along the rows of the grant matrix (one row
    per input).
    """
    n = requests.shape[0]
    req_t = requests.T.copy()  # [output, input]; unmatched ports only
    us_parts: list[np.ndarray] = []
    vs_parts: list[np.ndarray] = []
    for it in range(iterations):
        # grant: every requested output picks among its requesters
        outs = np.flatnonzero(req_t.any(axis=1))
        if not len(outs):
            break
        grants = np.zeros((n, n), dtype=bool)  # [input, output]
        grants[_round_robin_pick(req_t[outs], grant_ptr[outs]), outs] = True
        # accept: every granted input picks among its granting outputs
        ins = np.flatnonzero(grants.any(axis=1))
        outs = _round_robin_pick(grants[ins], accept_ptr[ins])
        us_parts.append(ins)
        vs_parts.append(outs)
        if it == 0:
            # pointers move only on first-iteration accepts — the rule
            # that makes the round-robins desynchronise
            grant_ptr[outs] = (ins + 1) % n
            accept_ptr[ins] = (outs + 1) % n
        req_t[outs] = False
        req_t[:, ins] = False
    if not us_parts:
        return _NO_PORTS, _NO_PORTS
    return np.concatenate(us_parts), np.concatenate(vs_parts)


class IslipNetwork(BaseNetwork):
    """Slotted crossbar packet switch under iterative iSLIP matching."""

    scheme = "islip"

    def __init__(
        self,
        params: SystemParams,
        iterations: int = 2,
        tracer: Tracer | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            params, tracer, strict=strict, max_wall_s=max_wall_s, topology=topology
        )
        if not self.topology.is_single_switch:
            raise ConfigurationError(
                f"IslipNetwork models one crossbar; topology "
                f"{self.topology.name!r} has {self.topology.n_switches} switches"
            )
        if iterations < 1:
            raise ConfigurationError("iSLIP needs at least one iteration")
        self.iterations = iterations
        # per-run state
        self.crossbar: Crossbar | None = None
        self._path_ps = 0
        self._grant_ptr: np.ndarray = np.zeros(params.n_ports, dtype=np.int64)
        self._accept_ptr: np.ndarray = np.zeros(params.n_ports, dtype=np.int64)
        self._phase_gen = 0
        self.islip_slots = 0
        self.islip_matches = 0
        #: per-slot match sizes of the current run (test hook: the
        #: desynchronisation fixed point shows as a steady-state plateau)
        self.slot_match_counts: list[int] = []

    def _reset_scheme_state(self) -> None:
        n = self.params.n_ports
        self.crossbar = Crossbar(self.params, FabricTiming.lvds(self.params))
        self._path_ps = self.crossbar.path_latency_ps()
        self._grant_ptr = np.zeros(n, dtype=np.int64)
        self._accept_ptr = np.zeros(n, dtype=np.int64)
        self._phase_gen = 0
        self.islip_slots = 0
        self.islip_matches = 0
        self.slot_match_counts = []

    def _execute_phase(self, phase: TrafficPhase) -> None:
        self._phase_gen += 1
        self.sim.schedule(
            self.params.slot_ps, self._slot_tick, self._phase_gen,
            priority=Priority.FABRIC,
        )
        self._run_event_loop()

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        out["islip_slots"] = self.islip_slots
        out["islip_matches"] = self.islip_matches
        assert self.crossbar is not None
        out["reconfigurations"] = self.crossbar.reconfigurations
        return out

    # -- the slot loop ------------------------------------------------------------

    def _slot_tick(self, gen: int) -> None:
        if gen != self._phase_gen:
            return  # stale tick armed by a previous phase
        self.islip_slots += 1
        us, vs = islip_match(
            self.queue_matrix.pending > 0,
            self._grant_ptr,
            self._accept_ptr,
            self.iterations,
        )
        self.slot_match_counts.append(len(us))
        self.islip_matches += len(us)
        if len(us):
            # the matcher writes a fresh configuration every slot — the
            # reconfiguration count *is* iSLIP's cost profile
            assert self.crossbar is not None
            self.crossbar.active.assign(us, vs)
            self.crossbar.reconfigurations += 1
            moved, done = self.queue_matrix.drain(
                us, vs, self.params.slot_bytes, self.sim.now, self.params.byte_ps
            )
            for finished in done.values():
                for dm in finished:
                    self._deliver_drained(dm, self._path_ps)
            self.ledger.send_many(us, vs, moved)
        if self._phase_remaining > 0:
            self.sim.schedule(
                self.params.slot_ps, self._slot_tick, gen, priority=Priority.FABRIC
            )

    def _deliver(self, record: MessageRecord) -> None:
        super()._deliver(record)
        if self.phase_done:
            self.sim.stop()
