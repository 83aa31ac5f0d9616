"""The network interface card model.

Each processor in the paper's system is fronted by a NIC with an input
buffer and an output buffer of N logical queues (see
:class:`~repro.nic.queues.VirtualOutputQueues`).  The NIC

* raises its N-bit request signal ``R_u`` towards the scheduler whenever a
  logical queue is non-empty,
* transmits from queue ``v`` whenever the grant signal ``G_{u,v}`` is up
  (during TDM slots or over a held circuit), and
* receives data into its input buffer with a single-cycle (10 ns) delay.

The NIC itself is passive bookkeeping; the network models move the data.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..params import SystemParams
from ..sim.trace import NULL_TRACER, Tracer
from ..types import Message, MessageRecord
from .queues import DrainedMessage, VirtualOutputQueues

__all__ = ["Nic", "QueueMatrix", "build_nics"]


class Nic:
    """One network interface: output VOQs plus receive-side accounting."""

    __slots__ = (
        "params",
        "port",
        "voqs",
        "bytes_received",
        "records",
        "tracer",
        "clock",
    )

    def __init__(
        self,
        params: SystemParams,
        port: int,
        tracer: Tracer | None = None,
        clock: Callable[[], int] | None = None,
        bytes_pending: np.ndarray | None = None,
    ) -> None:
        self.params = params
        self.port = port
        self.voqs = VirtualOutputQueues(params.n_ports, port, bytes_pending)
        self.bytes_received = 0
        #: completed deliveries *into* this NIC
        self.records: list[MessageRecord] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: simulation-time source for instrumentation timestamps
        self.clock = clock if clock is not None else (lambda: 0)

    def enqueue(self, msg: Message) -> None:
        self.voqs.enqueue(msg)
        if self.tracer.enabled:
            self.tracer.record(
                self.clock(),
                "nic-enqueue",
                port=self.port,
                dst=msg.dst,
                size=msg.size,
                depth=int(self.voqs.bytes_pending[msg.dst]),
            )

    def request_vector(self) -> np.ndarray:
        return self.voqs.request_vector()

    def receive(self, record: MessageRecord) -> None:
        """Account a completed delivery (last byte arrived)."""
        self.bytes_received += record.size
        self.records.append(record)
        if self.tracer.enabled:
            self.tracer.record(
                record.done_ps, "nic-rx", port=self.port, src=record.src, bytes=record.size
            )

    @property
    def idle(self) -> bool:
        """True when nothing is queued for transmission."""
        return self.voqs.is_empty


class QueueMatrix:
    """Every NIC's pending-byte vector as a row view of one ``(n, n)`` matrix,
    and the slot drain every slotted scheme shares.

    Row ``nic.port`` of :attr:`pending` *is* that NIC's
    ``voqs.bytes_pending``: every enqueue, drain and purge lands in the
    matrix, and every write to the matrix is queue state.  Slot-synchronous
    code then gathers all pending bytes with one fancy index instead of
    stacking ``n`` vectors.

    :func:`build_nics` allocates the matrix first and builds each NIC on
    its row, then passes the matrix here as ``pending``, so no per-NIC
    vector is ever allocated.  Without ``pending`` a fresh matrix is
    allocated and the bytes already pending are copied in, so a rebind (a
    new matrix for a new run or phase) loses nothing.
    """

    __slots__ = ("pending", "_voqs")

    def __init__(self, nics: Sequence[Nic], pending: np.ndarray | None = None) -> None:
        self._voqs = [nic.voqs for nic in sorted(nics, key=lambda nic: nic.port)]
        if pending is not None:
            for voqs in self._voqs:
                if voqs.bytes_pending.base is not pending:
                    raise ConfigurationError(
                        f"NIC {voqs.src}'s byte vector is not a row of the matrix"
                    )
            self.pending = pending
            return
        self.pending = np.zeros((len(nics), len(nics)), dtype=np.int64)
        for voqs in self._voqs:
            row = self.pending[voqs.src]
            row[:] = voqs.bytes_pending
            voqs.bytes_pending = row

    def drain(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        max_bytes: int | np.ndarray,
        start_ps: int | np.ndarray,
        byte_ps: int = 0,
    ) -> tuple[np.ndarray, dict[int, list[DrainedMessage]]]:
        """Drain each pair ``(us[i], vs[i])`` by up to ``max_bytes`` from ``start_ps``.

        A TDM slot: every connection moves up to ``max_bytes`` out of its
        VOQ.  ``max_bytes`` (positive) and ``start_ps`` are one value for
        all pairs or one per pair; every pair must have bytes pending and
        no pair may repeat.  Each pair gets exactly what
        :meth:`~repro.nic.queues.VirtualOutputQueues.drain` would give it,
        but the common mid-message case (an injected head that outlives
        the budget) is an inlined partial drain whose byte counters are
        settled for all pairs in one store.

        Returns the bytes moved per pair (int64; 0 where the head is not
        yet injected) and the messages completed, keyed by pair index in
        pair order.  Draining a whole slot before the caller handles any
        pair is exact because each crossbar input carries at most one
        connection per slot: the ``us`` are distinct, so nothing the caller
        does for pair ``i`` (feeding NIC ``us[i]`` included) can touch a
        later pair's queue.
        """
        n = len(us)
        caps = max_bytes.tolist() if isinstance(max_bytes, np.ndarray) else [max_bytes] * n
        starts = start_ps.tolist() if isinstance(start_ps, np.ndarray) else [start_ps] * n
        moved = np.array(caps, dtype=np.int64)
        # pairs VirtualOutputQueues.drain served settle their own counters
        drained: list[int] = []
        drained_bytes: list[int] = []
        done: dict[int, list[DrainedMessage]] = {}
        pairs = zip(us.tolist(), vs.tolist(), caps, starts)
        for i, (u, v, cap, t) in enumerate(pairs):
            voqs = self._voqs[u]
            head = voqs._queues[v][0]
            if head.inject_ps <= t and head.remaining > cap:
                if head.remaining == head.size and id(head) not in voqs._starts:
                    voqs._starts[id(head)] = t
                head.remaining -= cap
                continue
            got, finished = voqs.drain(v, cap, t, byte_ps)
            drained.append(i)
            drained_bytes.append(got)
            if finished:
                done[i] = finished
        moved[drained] = 0
        self.pending[us, vs] -= moved
        moved[drained] = drained_bytes
        return moved, done


def build_nics(
    params: SystemParams,
    tracer: Tracer | None = None,
    clock: Callable[[], int] | None = None,
) -> tuple[list[Nic], QueueMatrix]:
    """One NIC per port, each keeping its VOQ byte counts in its row of
    one freshly allocated :class:`QueueMatrix`."""
    n = params.n_ports
    pending = np.zeros((n, n), dtype=np.int64)
    nics = [Nic(params, p, tracer, clock, pending[p]) for p in range(n)]
    return nics, QueueMatrix(nics, pending)
