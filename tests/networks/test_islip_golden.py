"""Golden digests of the iSLIP network's complete observable output.

Each digest covers, for one (ports, pattern, iterations) cell at a fixed
workload seed: every delivered record's ``(src, dst, size, inject_ps,
start_ps, done_ps, seq)`` in delivery order, the per-slot match sizes, the
final grant/accept pointers and the sorted counters.  The constants were
recorded from the original per-output scalar matcher, so any rewrite of the
slot loop must reproduce that implementation's behaviour bit for bit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figure4 import figure4_patterns
from repro.networks.islip import IslipNetwork
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams

SEED = 20050404
SIZE = 256  # 3.2 slots of payload: every message is drained in pieces

GOLDEN: dict[tuple[int, str, int], str] = {
    (16, "scatter", 1): "06d4539b2437047a7b4c70c8016575f208d8b06d3797e68de32fb717090b61ad",
    (16, "scatter", 2): "06d4539b2437047a7b4c70c8016575f208d8b06d3797e68de32fb717090b61ad",
    (16, "scatter", 4): "06d4539b2437047a7b4c70c8016575f208d8b06d3797e68de32fb717090b61ad",
    (16, "random-mesh", 1): "9c0f105fb87692069e5dc83ef926549db0f03fd3b0fa5a50241dc996c8760922",
    (16, "random-mesh", 2): "9c480cae4e0915803298f00fe8dd191a3e56f4aee263271d749217c0f2b87e2f",
    (16, "random-mesh", 4): "9af4fceacd0952ed52cb8a0cf6e915c9e271229b80964df1f891e05cd4cbbd3d",
    (16, "two-phase", 1): "5c8c5106219ce5d23a77af6104de8f05ac5881d30c10341903330e393886000e",
    (16, "two-phase", 2): "896cfef84f154ca14d86d66f4de69eca27614e81ecd875b283c05d73727d5130",
    (16, "two-phase", 4): "0c77a84711af062b831cbab0a3d26777526008ea780e3d30f39dede8e51aba9a",
    (64, "scatter", 1): "4dcc1c0e1c95932bdb41fb881060ca960c4307c1023620c9ef79b1dbae9364a8",
    (64, "scatter", 2): "4dcc1c0e1c95932bdb41fb881060ca960c4307c1023620c9ef79b1dbae9364a8",
    (64, "scatter", 4): "4dcc1c0e1c95932bdb41fb881060ca960c4307c1023620c9ef79b1dbae9364a8",
    (64, "random-mesh", 1): "409ace0290f7258f533879212a601a763bd05857a34612ae009df4a3ab3e8f26",
    (64, "random-mesh", 2): "8eb8a79d3001645fe5131103db99ab00c26a8c49352b3062ba5cac7cc1225758",
    (64, "random-mesh", 4): "47ea0b0b07045a3dd58db81d5aad055033d8990e04eb6776144909ea80d1f259",
    (64, "two-phase", 1): "9338c125f919a0b386df77fa2514d1c941f44304b1ddb0f6399ab07b12a25452",
    (64, "two-phase", 2): "29c710e4e5dfa004bf36e3e5f506197930154be7eb327104740191b1da82a423",
    (64, "two-phase", 4): "33f8edddcb7d165f6452d32ef32098ef7f32ecf4d2169d5ac6394036e30dc212",
}


def islip_digest(n_ports: int, pattern: str, iterations: int) -> str:
    """sha256 over one islip run's records, match sizes, pointers, counters."""
    params = PAPER_PARAMS.with_overrides(n_ports=n_ports)
    phases = figure4_patterns(params)[pattern](SIZE).phases(RngStreams(SEED))
    net = build_network(
        RunSpec(scheme="islip", params=params, options={"iterations": iterations})
    )
    assert isinstance(net, IslipNetwork)
    result = net.run(phases, pattern_name=pattern)
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            repr(
                (r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq)
            ).encode()
        )
    h.update(repr(net.slot_match_counts).encode())
    h.update(repr(net._grant_ptr.tolist()).encode())
    h.update(repr(net._accept_ptr.tolist()).encode())
    h.update(repr(sorted(result.counters.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize(("n_ports", "pattern", "iterations"), sorted(GOLDEN))
def test_islip_output_matches_golden(n_ports: int, pattern: str, iterations: int):
    assert islip_digest(n_ports, pattern, iterations) == GOLDEN[
        (n_ports, pattern, iterations)
    ]


def test_golden_table_covers_the_grid():
    assert set(GOLDEN) == {
        (n, p, it)
        for n in (16, 64)
        for p in ("scatter", "random-mesh", "two-phase")
        for it in (1, 2, 4)
    }
