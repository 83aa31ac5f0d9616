"""VOQ memory scales with traffic, not with ports squared.

The only dense per-(source, destination) state a NIC set holds is the
``(n, n)`` int64 byte matrix; a FIFO exists only where a message was ever
queued, and every NIC's byte vector is its matrix row from construction on.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nic.nic import Nic, QueueMatrix, build_nics
from repro.params import PAPER_PARAMS
from repro.types import Message

N = 2048


class TestBuildNics:
    def test_no_fifos_and_rows_are_the_matrix(self):
        nics, matrix = build_nics(PAPER_PARAMS.with_overrides(n_ports=N))
        assert sum(len(nic.voqs._queues) for nic in nics) == 0
        assert matrix.pending.shape == (N, N)
        for nic in nics:
            row = nic.voqs.bytes_pending
            assert np.shares_memory(row, matrix.pending[nic.port])

    def test_peak_is_the_matrix(self):
        params = PAPER_PARAMS.with_overrides(n_ports=N)
        tracemalloc.start()
        try:
            nics, matrix = build_nics(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * matrix.pending.nbytes
        assert len(nics) == N

    def test_fifos_follow_traffic(self):
        nics, matrix = build_nics(PAPER_PARAMS.with_overrides(n_ports=8))
        nics[3].enqueue(Message(src=3, dst=5, size=64))
        nics[3].enqueue(Message(src=3, dst=5, size=32))
        nics[6].enqueue(Message(src=6, dst=0, size=16))
        assert sorted(nics[3].voqs._queues) == [5]
        assert sorted(nics[6].voqs._queues) == [0]
        assert matrix.pending[3, 5] == 96 and matrix.pending.sum() == 112


class TestOwnedRows:
    def test_row_must_belong_to_the_matrix(self):
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        nics = [Nic(params, port=p) for p in range(4)]
        pending = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="NIC 0"):
            QueueMatrix(nics, pending)

    def test_rebind_of_owned_rows_keeps_pending_bytes(self):
        nics, first = build_nics(PAPER_PARAMS.with_overrides(n_ports=4))
        nics[2].enqueue(Message(src=2, dst=1, size=40))
        second = QueueMatrix(nics)
        assert second.pending is not first.pending
        assert second.pending[2, 1] == 40
        assert np.shares_memory(nics[2].voqs.bytes_pending, second.pending)
