"""Cached route distances against an uncached BFS reference.

:meth:`Topology.route` caches BFS distances per target switch and per
healthy-mask contents.  The reference below recomputes every route from
the link list alone, so a stale or mis-keyed cache entry shows as a
different path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topo import Topology, fat_tree, full_mesh, line

_SPREAD_MIX = 2654435761

#: shared across examples, so cache entries from earlier masks stay live
TOPOLOGIES = {
    "full_mesh": full_mesh(32, n_switches=8, links_per_pair=2),
    "fat_tree": fat_tree(32, leaf_size=4),
    "line": line(5),
}


def _reference_route(
    topo: Topology, src: int, dst: int, healthy: np.ndarray | None
) -> tuple[int, ...] | None:
    """BFS shortest path with route()'s tie-break, rebuilt from the links."""
    adjacent: dict[int, set[int]] = {s: set() for s in range(topo.n_switches)}
    for link in topo.links:
        if healthy is None or healthy[link.index]:
            adjacent[link.a].add(link.b)
            adjacent[link.b].add(link.a)
    a, b = topo.endpoint_switch[src], topo.endpoint_switch[dst]
    if a == b:
        return (a,)
    dist = {b: 0}
    frontier = [b]
    while frontier:
        nxt_frontier = []
        for here in frontier:
            for nxt in sorted(adjacent[here]):
                if nxt not in dist:
                    dist[nxt] = dist[here] + 1
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    if a not in dist:
        return None
    path = [a]
    while path[-1] != b:
        here = path[-1]
        closer = sorted(n for n in adjacent[here] if dist.get(n) == dist[here] - 1)
        path.append(closer[(src * _SPREAD_MIX + dst) % len(closer)])
    return tuple(path)


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[name]
    dead = draw(st.lists(st.booleans(), min_size=topo.n_links, max_size=topo.n_links))
    endpoint = st.integers(0, topo.n_endpoints - 1)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), min_size=1, max_size=12))
    return topo, ~np.array(dead, dtype=bool), pairs


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_cached_route_matches_uncached_bfs(case):
    topo, healthy, pairs = case
    for src, dst in pairs:
        for mask in (healthy, None, healthy.copy()):
            assert topo.route(src, dst, mask) == _reference_route(topo, src, dst, mask)


def test_equal_masks_share_one_entry():
    topo = full_mesh(16, n_switches=4, links_per_pair=1)
    first = np.ones(topo.n_links, dtype=bool)
    first[0] = False
    second = first.copy()
    assert second is not first
    dist = topo._distances_to(3, first)
    entries = len(topo._dist_cache)
    assert topo._distances_to(3, second) is dist
    assert topo._distances_to(3, np.array(second, dtype=np.int8)) is dist
    assert len(topo._dist_cache) == entries


def test_routes_avoid_a_trunk_once_it_dies():
    topo = full_mesh(16, n_switches=4, links_per_pair=1)
    src, dst = 0, 15  # switch 0 -> switch 3, one direct trunk
    assert topo.route(src, dst) == (0, 3)
    (direct,) = topo.trunk_links(0, 3)
    healthy = np.ones(topo.n_links, dtype=bool)
    assert topo.route(src, dst, healthy) == (0, 3)  # cached under "all healthy"
    healthy[direct] = False
    detour = topo.route(src, dst, healthy)
    assert detour is not None and len(detour) == 3  # 0 -> another switch -> 3
    assert topo.route(src, dst) == (0, 3)  # the unmasked entry is untouched
    assert topo.route(src, dst, np.zeros(topo.n_links, dtype=bool)) is None
