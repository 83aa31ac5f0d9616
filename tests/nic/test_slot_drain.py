"""The shared slot drain against a loop of per-queue drains.

:meth:`QueueMatrix.drain` must leave every queue exactly as one
:meth:`VirtualOutputQueues.drain` call per pair would: the same bytes moved,
the same completed messages with the same first- and last-byte times, the
same remainders and byte counters.  Each case builds two identical NIC sets
from one message list and drives one through each implementation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.nic import Nic, QueueMatrix
from repro.params import PAPER_PARAMS
from repro.types import Message

N = 4
BYTE_PS = 1250


def _nics(msgs: list[tuple[int, int, int, int]]) -> list[Nic]:
    params = PAPER_PARAMS.with_overrides(n_ports=N)
    nics = [Nic(params, port=p) for p in range(N)]
    for seq, (u, v, size, inject_ps) in enumerate(msgs):
        nics[u].enqueue(Message(src=u, dst=v, size=size, inject_ps=inject_ps, seq=seq))
    return nics


def _state(nics: list[Nic]) -> list:
    """Every queued message's (seq, remaining, first-byte time) plus the
    byte counters."""
    return [
        [
            (v, [(m.seq, m.remaining, nic.voqs._starts.get(id(m))) for m in q])
            for v, q in sorted(nic.voqs._queues.items())
        ]
        + [nic.voqs.bytes_pending.tolist(), len(nic.voqs._starts)]
        for nic in nics
    ]


def _done(drained) -> list[tuple[int, int, int]]:
    return [(d.message.seq, d.start_ps, d.finish_ps) for d in drained]


def _drain_both(nics, twin, qm, pairs, max_bytes, start_ps):
    """One slot through the kernel on ``nics`` and per queue on ``twin``."""
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    moved, done = qm.drain(us, vs, max_bytes, start_ps, BYTE_PS)
    caps = np.broadcast_to(max_bytes, len(pairs)).tolist()
    starts = np.broadcast_to(start_ps, len(pairs)).tolist()
    for i, (u, v) in enumerate(pairs):
        want_moved, want_done = twin[u].voqs.drain(v, caps[i], starts[i], BYTE_PS)
        assert moved[i] == want_moved
        assert _done(done.get(i, [])) == _done(want_done)
    assert moved.dtype == np.int64
    assert list(done) == sorted(done)  # pair order
    assert _state(nics) == _state(twin)
    for nic in nics:
        nic.voqs.check_invariants()
    return moved, done


def _check_slot(msgs, pairs, max_bytes, start_ps):
    """Drain ``pairs`` both ways on twin NIC sets; return the kernel's result."""
    nics = _nics(msgs)
    qm = QueueMatrix(nics)
    moved, done = _drain_both(nics, _nics(msgs), qm, pairs, max_bytes, start_ps)
    return nics, qm, moved, done


class TestSlotDrain:
    def test_partial_drains(self):
        msgs = [(0, 1, 500, 0), (1, 2, 300, 0), (2, 0, 81, 0)]
        _, _, moved, done = _check_slot(msgs, [(0, 1), (1, 2), (2, 0)], 80, 1000)
        assert moved.tolist() == [80, 80, 80]
        assert done == {}

    def test_completion_mid_slot(self):
        msgs = [(0, 1, 30, 0), (1, 3, 200, 0)]
        _, _, moved, done = _check_slot(msgs, [(0, 1), (1, 3)], 80, 1000)
        assert moved.tolist() == [30, 80]
        assert _done(done[0]) == [(0, 1000, 1000 + 30 * BYTE_PS)]
        assert 1 not in done

    def test_head_not_yet_injected_moves_nothing(self):
        msgs = [(0, 1, 200, 5000), (2, 3, 200, 0)]
        nics, _, moved, done = _check_slot(msgs, [(0, 1), (2, 3)], 80, 1000)
        assert moved.tolist() == [0, 80]
        assert done == {}
        assert nics[0].voqs.bytes_pending[1] == 200

    def test_head_injected_mid_window_is_not_drained(self):
        # available only after 10 bytes of the window would have streamed
        msgs = [(0, 1, 200, 1000 + 10 * BYTE_PS)]
        _, _, moved, _ = _check_slot(msgs, [(0, 1)], 80, 1000)
        assert moved.tolist() == [0]

    def test_several_messages_complete_in_one_slot(self):
        msgs = [(3, 0, 20, 0), (3, 0, 25, 0), (3, 0, 30, 0), (3, 0, 40, 0)]
        nics, _, moved, done = _check_slot(msgs, [(3, 0)], 80, 1000)
        assert moved.tolist() == [80]
        assert [seq for seq, _, _ in _done(done[0])] == [0, 1, 2]
        assert nics[3].voqs.head(0).remaining == 35

    def test_first_byte_time_is_set_once(self):
        nics = _nics([(1, 2, 200, 0)])
        qm = QueueMatrix(nics)
        us, vs = np.array([1]), np.array([2])
        for start in (1000, 2000):  # two mid-message slots
            moved, done = qm.drain(us, vs, 80, start, BYTE_PS)
            assert moved.tolist() == [80] and done == {}
        moved, done = qm.drain(us, vs, 80, 3000, BYTE_PS)
        assert moved.tolist() == [40]
        assert _done(done[0]) == [(0, 1000, 3000 + 40 * BYTE_PS)]
        assert nics[1].voqs._starts == {}

    def test_per_pair_budgets_and_starts(self):
        msgs = [(0, 1, 500, 0), (2, 3, 500, 0)]
        _, _, moved, _ = _check_slot(
            msgs, [(0, 1), (2, 3)], np.array([160, 240]), np.array([1000, 3000])
        )
        assert moved.tolist() == [160, 240]

    def test_empty_slot(self):
        nics = _nics([(0, 1, 64, 0)])
        qm = QueueMatrix(nics)
        none = np.zeros(0, dtype=np.int64)
        moved, done = qm.drain(none, none, 80, 1000, BYTE_PS)
        assert len(moved) == 0 and done == {}
        assert qm.pending[0, 1] == 64


_pairs = st.permutations(range(N)).map(
    lambda perm: [(u, v) for u, v in enumerate(perm) if u != v]
)


@settings(max_examples=200, deadline=None)
@given(
    queues=st.lists(
        st.tuples(
            st.integers(0, N - 1),
            st.integers(0, N - 2),
            st.integers(1, 300),
            st.integers(0, 4000),
        ),
        max_size=16,
    ),
    pairs=_pairs,
    max_bytes=st.integers(1, 400),
    start_ps=st.integers(0, 4000),
)
def test_property_matches_per_queue_drains(queues, pairs, max_bytes, start_ps):
    msgs = [(u, v + (v >= u), size, t) for u, v, size, t in queues]
    nics = _nics(msgs)
    twin = _nics(msgs)
    qm = QueueMatrix(nics)
    for slot in range(4):  # consecutive slots: partial heads carry over
        # the kernel's contract: every pair it is handed has bytes pending
        live = [(u, v) for u, v in pairs if qm.pending[u, v] > 0]
        _drain_both(nics, twin, qm, live, max_bytes, start_ps + slot * 100 * BYTE_PS)
