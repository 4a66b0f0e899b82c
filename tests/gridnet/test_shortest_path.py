"""Routing: the heap Dijkstra of ``topology.shortest_path`` against networkx.

networkx is a test-only dependency; it serves here as the reference
implementation.  Weights are multiples of 1/4 so every path cost is an
exact float sum and costs compare with ``==``.
"""

import networkx as nx
from hypothesis import example, given, settings, strategies as st

from repro.gridnet import Network
from repro.gridnet.topology import shortest_path
from repro.simulation import Simulation

_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.0, 3.75])


@st.composite
def routing_cases(draw):
    """(node count, edges, src, dst, extra); ``n`` names an unknown node."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _WEIGHTS),
        max_size=14))
    src = draw(st.integers(0, n))
    dst = draw(st.integers(0, n))
    extra = draw(st.sampled_from([0.0, 0.0, 0.25, 1.5]))
    return n, edges, src, dst, extra


def _build(n, edges):
    """The same graph as an adjacency dict and as a networkx Graph."""
    adjacency = {i: {} for i in range(n)}
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for a, b, weight in edges:
        adjacency[a][b] = adjacency[b][a] = weight
        graph.add_edge(a, b, weight=weight)
    return adjacency, graph


def _cost(adjacency, path, extra):
    total = 0.0
    for a, b in zip(path, path[1:]):
        total = total + (adjacency[a][b] + extra)
    return total


@settings(max_examples=300, deadline=None)
@given(routing_cases())
# Two equal-cost routes 0-1-3 and 0-2-3: only the cost is compared.
@example((4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
          0, 3, 0.0))
# A relay beats the direct edge without forwarding cost, not with it.
@example((3, [(0, 2, 2.0), (0, 1, 0.5), (1, 2, 0.5)], 0, 2, 0.0))
@example((3, [(0, 2, 2.0), (0, 1, 0.5), (1, 2, 0.5)], 0, 2, 1.5))
# Node 2 is disconnected; node 3 does not exist.
@example((3, [(0, 1, 1.0)], 0, 2, 0.0))
@example((3, [(0, 1, 1.0)], 3, 3, 0.0))
def test_shortest_path_matches_networkx(case):
    n, edges, src, dst, extra = case
    adjacency, graph = _build(n, edges)
    ours = shortest_path(adjacency, src, dst, extra=extra)
    try:
        reference = nx.shortest_path(
            graph, src, dst,
            weight=lambda a, b, data: data["weight"] + extra)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        reference = None
    assert (ours is None) == (reference is None)
    if ours is None:
        return
    assert ours[0] == src and ours[-1] == dst
    assert all(b in adjacency[a] for a, b in zip(ours, ours[1:]))
    best = _cost(adjacency, reference, extra)
    assert _cost(adjacency, ours, extra) == best
    if src != dst:
        optimal = [path for path in nx.all_simple_paths(graph, src, dst)
                   if _cost(adjacency, path, extra) == best]
        if len(optimal) == 1:
            assert ours == reference == optimal[0]


def test_ties_go_to_the_first_path_reached():
    """Equal-cost routes: the neighbour linked first wins."""
    for first, second in (("b", "c"), ("c", "b")):
        net = Network(Simulation())
        for host in ("a", "d"):
            net.add_host(host)
        for router in (first, second):
            net.add_router(router)
            net.add_link("a", router, latency=0.001, bandwidth=1e6)
        for router in (first, second):
            net.add_link(router, "d", latency=0.001, bandwidth=1e6)
        assert net.route("a", "d") == ["a", first, "d"]


def test_unknown_endpoints_have_no_route():
    adjacency = {"a": {"b": 1.0}, "b": {"a": 1.0}}
    assert shortest_path(adjacency, "a", "ghost") is None
    assert shortest_path(adjacency, "ghost", "a") is None
    assert shortest_path(adjacency, "a", "a") == ["a"]
