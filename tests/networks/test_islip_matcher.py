"""Differential tests: the vectorised iSLIP matcher against the scalar loop.

``scalar_islip_match`` is the original per-output implementation of the
grant/accept rounds, kept here as the reference oracle.  The vectorised
:func:`~repro.networks.islip.islip_match` must return the same ordered
matching and leave the same pointers behind, for any request matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks.islip import islip_match


def _rr_pick(candidates: np.ndarray, pointer: int) -> int:
    """First index in ``candidates`` at or (cyclically) after ``pointer``."""
    at_or_after = candidates[candidates >= pointer]
    return int(at_or_after[0]) if len(at_or_after) else int(candidates[0])


def scalar_islip_match(
    requests: np.ndarray,
    grant_ptr: np.ndarray,
    accept_ptr: np.ndarray,
    iterations: int,
) -> list[tuple[int, int]]:
    """The reference: one Python iteration per free output and granted input."""
    n = requests.shape[0]
    in_free = np.ones(n, dtype=bool)
    out_free = np.ones(n, dtype=bool)
    matching: list[tuple[int, int]] = []
    for it in range(iterations):
        grants: dict[int, list[int]] = {}  # input -> granting outputs
        for v in np.nonzero(out_free)[0]:
            col = requests[:, v] & in_free
            if not col.any():
                continue
            u = _rr_pick(np.nonzero(col)[0], int(grant_ptr[v]))
            grants.setdefault(u, []).append(int(v))
        if not grants:
            break
        for u, outs in sorted(grants.items()):
            v = _rr_pick(np.asarray(outs, dtype=np.int64), int(accept_ptr[u]))
            in_free[u] = False
            out_free[v] = False
            matching.append((u, v))
            if it == 0:
                grant_ptr[v] = (u + 1) % n
                accept_ptr[u] = (v + 1) % n
    return matching


@st.composite
def matcher_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=70))
    kind = draw(st.sampled_from(["random", "empty", "full", "sparse-lines"]))
    if kind == "empty":
        requests = np.zeros((n, n), dtype=bool)
    elif kind == "full":
        requests = np.ones((n, n), dtype=bool)
    else:
        # a seeded numpy draw keeps 70x70 matrices cheap for Hypothesis
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
        requests = rng.random((n, n)) < density
        if kind == "sparse-lines":
            # blank out whole rows and columns: idle inputs, unwanted outputs
            rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
            cols = draw(st.lists(st.integers(0, n - 1), max_size=n))
            requests[rows, :] = False
            requests[:, cols] = False
    ptr = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    grant_ptr = np.array(draw(ptr), dtype=np.int64)
    accept_ptr = np.array(draw(ptr), dtype=np.int64)
    iterations = draw(st.integers(min_value=1, max_value=4))
    return requests, grant_ptr, accept_ptr, iterations


@settings(max_examples=300, deadline=None)
@given(matcher_inputs())
def test_vectorised_matcher_equals_scalar_oracle(case):
    requests, grant_ptr, accept_ptr, iterations = case
    g_ref, a_ref = grant_ptr.copy(), accept_ptr.copy()
    expected = scalar_islip_match(requests.copy(), g_ref, a_ref, iterations)
    req_in = requests.copy()
    us, vs = islip_match(requests, grant_ptr, accept_ptr, iterations)
    assert list(zip(us.tolist(), vs.tolist())) == expected
    assert grant_ptr.tolist() == g_ref.tolist()
    assert accept_ptr.tolist() == a_ref.tolist()
    assert np.array_equal(requests, req_in)  # the caller's matrix is untouched
    # a partial permutation over requested cells
    assert len(set(us.tolist())) == len(us)
    assert len(set(vs.tolist())) == len(vs)
    assert bool(requests[us, vs].all())


def test_full_requests_one_iteration_from_zero_pointers():
    """All outputs grant input 0 at first; it accepts output 0 alone."""
    n = 5
    g = np.zeros(n, dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)
    us, vs = islip_match(np.ones((n, n), dtype=bool), g, a, 1)
    assert list(zip(us.tolist(), vs.tolist())) == [(0, 0)]
    assert g.tolist() == [1, 0, 0, 0, 0]
    assert a.tolist() == [1, 0, 0, 0, 0]


def test_pointers_wrap_to_first_candidate():
    """No requester at or after the grant pointer: wrap to the lowest one."""
    requests = np.zeros((4, 4), dtype=bool)
    requests[1, 2] = True
    g = np.array([0, 0, 3, 0], dtype=np.int64)
    a = np.array([0, 3, 0, 0], dtype=np.int64)
    us, vs = islip_match(requests, g, a, 2)
    assert list(zip(us.tolist(), vs.tolist())) == [(1, 2)]
    assert g[2] == 2 and a[1] == 3


def test_empty_requests_match_nothing():
    n = 3
    g = np.arange(n, dtype=np.int64)
    a = np.arange(n, dtype=np.int64)
    us, vs = islip_match(np.zeros((n, n), dtype=bool), g, a, 4)
    assert len(us) == len(vs) == 0
    assert g.tolist() == a.tolist() == [0, 1, 2]
