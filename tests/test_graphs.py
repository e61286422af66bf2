from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatkit.errors import DuplicateEdge, EmptyEdgeSet, LoopEdge, VertexOutOfRange
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    is_connected,
    is_isomorphism,
    is_regular,
    line_graph,
    odd_closed_walk,
    relabel,
)
from hatkit.autgroup import is_isomorphic
from hatkit.census import generalized_petersen

from conftest import cycle_graph, path_graph


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [p for p, b in zip(pairs, mask) if b])


def components(g):
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        out.append(sorted(comp))
    return out


def test_from_edge_list_path():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.degrees() == (1, 2, 1)
    assert g.edges == ((0, 1), (1, 2))


def test_from_edge_list_k4(k4):
    assert is_regular(k4, 3)
    assert k4.m == 6


def test_from_edge_list_errors():
    with pytest.raises(LoopEdge):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        from_edge_list(3, [(0, 1), (1, 0)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(2, [(0, 2)])


def test_graph_equality_and_hash(k4):
    again = from_edge_list(4, list(combinations(range(4), 2)))
    assert k4 == again and hash(k4) == hash(again)
    assert k4 != from_edge_list(4, [(0, 1)])


def test_predicates_k4(k4):
    assert is_connected(k4)
    assert is_regular(k4, 3)
    assert is_bipartite(k4) is None
    assert girth(k4) == 3


def test_predicates_k33(k33):
    parts = is_bipartite(k33)
    assert parts is not None
    assert sorted(map(len, parts)) == [3, 3]
    assert girth(k33) == 4


def test_petersen_girth_oracle(petersen):
    # independent oracle: no 3- or 4-cycles by enumeration, and the outer
    # rim is a 5-cycle
    for trio in combinations(range(10), 3):
        assert not all(petersen.has_edge(a, b) for a, b in combinations(trio, 2))
    for quad in combinations(range(10), 4):
        a, b, c, d = quad
        orders = [(a, b, c, d), (a, b, d, c), (a, c, b, d)]
        for cyc in orders:
            edges = list(zip(cyc, cyc[1:] + cyc[:1]))
            assert not all(petersen.has_edge(u, v) for u, v in edges)
    rim = [0, 1, 2, 3, 4]
    assert all(petersen.has_edge(u, v) for u, v in zip(rim, rim[1:] + rim[:1]))
    assert girth(petersen) == 5


def test_girth_forest_none():
    assert girth(path_graph(5)) is None
    assert girth(from_edge_list(3, [])) is None


def test_line_graph_cycle():
    lg, labels = line_graph(cycle_graph(5))
    assert lg.n == 5 and is_regular(lg, 2) and is_connected(lg)
    assert len(labels) == 5


def test_line_graph_k4_is_octahedron(k4):
    lg, _ = line_graph(k4)
    assert lg.n == 6 and is_regular(lg, 4) and girth(lg) == 3
    octahedron = from_edge_list(
        6, [(a, b) for a, b in combinations(range(6), 2)
            if {a, b} not in ({0, 1}, {2, 3}, {4, 5})])
    assert is_isomorphic(lg, octahedron) is not None


def test_line_graph_petersen(petersen):
    lg, labels = line_graph(petersen)
    assert lg.n == 15 and is_regular(lg, 4)
    assert labels == petersen.edges


def test_line_graph_empty():
    with pytest.raises(EmptyEdgeSet):
        line_graph(from_edge_list(3, []))


@settings(max_examples=60)
@given(graphs())
def test_line_graph_degree_law(g):
    if not g.edges:
        return
    lg, labels = line_graph(g)
    for i, (u, v) in enumerate(labels):
        assert lg.degree(i) == g.degree(u) + g.degree(v) - 2
    assert lg.n == g.m
    assert lg.m == sum(d * (d - 1) // 2 for d in g.degrees())


def test_bipartite_double_c5():
    double = bipartite_double(cycle_graph(5))
    assert double.n == 10 and is_regular(double, 2) and is_connected(double)


def test_bipartite_double_k33_disconnects(k33):
    double = bipartite_double(k33)
    comps = components(double)
    assert len(comps) == 2
    for comp in comps:
        sub_edges = [(comp.index(u), comp.index(v)) for u, v in double.edges
                     if u in comp and v in comp]
        assert is_isomorphic(from_edge_list(6, sub_edges), k33) is not None


def test_bipartite_double_k4_is_cube(k4):
    double = bipartite_double(k4)
    assert double.n == 8 and is_regular(double, 3) and is_connected(double)
    assert is_bipartite(double) is not None
    assert is_isomorphic(double, generalized_petersen(4, 1)) is not None


@settings(max_examples=60)
@given(graphs())
def test_bipartite_double_properties(g):
    double = bipartite_double(g)
    assert is_bipartite(double) is not None
    disconnected = len(components(double)) > 1 or double.n == 0
    if g.n:
        assert disconnected == (is_bipartite(g) is not None or not is_connected(g))


@settings(max_examples=60)
@given(graphs())
def test_odd_closed_walk_witness(g):
    walk = odd_closed_walk(g)
    if is_bipartite(g) is not None:
        assert walk is None
    else:
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1
        assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


def test_is_isomorphism(petersen):
    perm = tuple((3 * v + 1) % 10 for v in range(10))
    image = relabel(petersen, perm)
    assert is_isomorphism(perm, petersen, image)
    assert not is_isomorphism(tuple(range(10)), petersen, image)
    # not a bijection, wrong length, or a graph with fewer edges
    assert not is_isomorphism((0,) * 10, petersen, petersen)
    assert not is_isomorphism(tuple(range(9)), petersen, petersen)
    assert not is_isomorphism(tuple(range(10)), petersen, cycle_graph(10))
    # an edge-preserving bijection onto a graph with more edges
    c5 = cycle_graph(5)
    k5 = from_edge_list(5, combinations(range(5), 2))
    assert not is_isomorphism(tuple(range(5)), c5, k5)


def test_relabel_checks_bijection(k4):
    with pytest.raises(ValueError):
        relabel(k4, (0, 0, 1, 2))
    assert relabel(k4, (3, 2, 1, 0)) == k4
