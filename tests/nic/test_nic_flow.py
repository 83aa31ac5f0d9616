"""Unit tests for the NIC model and the flow ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvariantError
from repro.nic.flow import FlowLedger
from repro.nic.nic import Nic, QueueMatrix
from repro.params import PAPER_PARAMS
from repro.types import Message, MessageRecord


@pytest.fixture
def nic():
    return Nic(PAPER_PARAMS.with_overrides(n_ports=8), port=2)


class TestNic:
    def test_enqueue_and_request(self, nic):
        nic.enqueue(Message(src=2, dst=5, size=64))
        assert nic.request_vector()[5]
        assert not nic.idle

    def test_receive_accounting(self, nic):
        rec = MessageRecord(
            src=0, dst=2, size=64, inject_ps=0, start_ps=10, done_ps=20, seq=0
        )
        nic.receive(rec)
        assert nic.bytes_received == 64
        assert nic.records == [rec]


class TestQueueMatrix:
    def _nics(self, n=4):
        params = PAPER_PARAMS.with_overrides(n_ports=n)
        return [Nic(params, port=p) for p in range(n)]

    def test_nic_mutations_show_in_matrix(self):
        nics = self._nics()
        q = QueueMatrix(nics).pending
        assert q.shape == (4, 4) and q.dtype == np.int64
        nics[1].enqueue(Message(src=1, dst=3, size=100))
        nics[2].enqueue(Message(src=2, dst=0, size=50))
        assert q[1, 3] == 100 and q[2, 0] == 50 and q.sum() == 150
        nics[1].voqs.drain(3, 30, 0, 1250)
        assert q[1, 3] == 70
        nics[2].voqs.purge(0)
        assert q[2, 0] == 0 and q.sum() == 70

    def test_matrix_writes_show_in_nics(self):
        nics = self._nics()
        q = QueueMatrix(nics).pending
        nics[0].enqueue(Message(src=0, dst=2, size=80))
        q[0, 2] -= 80  # a bulk settlement of a drain done elsewhere
        assert nics[0].voqs.bytes_pending[2] == 0
        assert not nics[0].request_vector().any()

    def test_rebind_keeps_pending_bytes(self):
        nics = self._nics()
        first = QueueMatrix(nics).pending
        nics[3].enqueue(Message(src=3, dst=1, size=64))
        second = QueueMatrix(nics).pending  # e.g. the next run or phase
        assert second is not first
        assert second[3, 1] == 64
        nics[3].enqueue(Message(src=3, dst=1, size=16))
        assert second[3, 1] == 80
        assert first[3, 1] == 64  # the old matrix is detached
        nics[3].voqs.check_invariants()


class TestFlowLedger:
    def test_happy_path(self):
        led = FlowLedger(4)
        led.offer(0, 1, 100)
        led.send(0, 1, 60)
        led.send(0, 1, 40)
        led.deliver(0, 1, 100)
        led.assert_conserved()
        assert led.total_delivered == 100
        assert led.in_flight == 0

    def test_send_exceeding_offer(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        with pytest.raises(InvariantError):
            led.send(0, 1, 11)

    def test_send_many_accumulates(self):
        led = FlowLedger(4)
        led.offer(0, 1, 100)
        led.offer(2, 3, 50)
        led.send_many(np.array([0, 2]), np.array([1, 3]), np.array([60, 50]))
        led.send_many(np.array([0]), np.array([1]), np.array([40]))
        assert led.sent[0, 1] == 100 and led.sent[2, 3] == 50
        assert led.sent.sum() == 150

    def test_send_many_raises_where_send_raises(self):
        """Batching cannot weaken the conservation check: the batch fails
        with the same error, on the same first pair, as call-by-call send."""
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 0])
        n_bytes = np.array([10, 25, 30, 40])

        def ledger():
            led = FlowLedger(4)
            for u, v in zip(src, dst):
                led.offer(int(u), int(v), 20)
            return led

        seq = ledger()
        with pytest.raises(InvariantError) as one_by_one:
            for u, v, b in zip(src, dst, n_bytes):
                seq.send(int(u), int(v), int(b))
        with pytest.raises(InvariantError) as batched:
            ledger().send_many(src, dst, n_bytes)
        assert str(batched.value) == str(one_by_one.value)
        assert str(batched.value).startswith("(1->2) sent 25")

    def test_send_many_counts_dropped_bytes(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        led.drop(0, 1, 5)
        with pytest.raises(InvariantError, match="dropped 5"):
            led.send_many(np.array([0]), np.array([1]), np.array([6]))

    def test_send_many_repeated_pair_never_loses_bytes(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        with pytest.raises(InvariantError):
            led.send_many(np.array([0, 0]), np.array([1, 1]), np.array([6, 6]))

    def test_deliver_exceeding_send(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        led.send(0, 1, 10)
        with pytest.raises(InvariantError):
            led.deliver(0, 1, 11)

    def test_unsent_bytes_detected(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        with pytest.raises(InvariantError):
            led.assert_conserved()

    def test_in_flight_detected(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        led.send(0, 1, 10)
        assert led.in_flight == 10
        with pytest.raises(InvariantError):
            led.assert_conserved()
