import random
from collections import deque
from itertools import combinations
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatkit.errors import (DuplicateEdge, EmptyEdgeSet, LoopEdge,
                           NotPermutation, StructureViolation,
                           VertexOutOfRange, check_fault)
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    is_connected,
    isomorphism_fault,
    line_graph,
    parts_or_odd_walk,
    relabel,
    valence,
)
from hatkit.autgroup import automorphism_group, is_isomorphic
from hatkit.perms import orbits
from hatkit.census import (builtin_entries, generalized_petersen, lcf_graph,
                           pgl2_graph)

from conftest import STRESS_GRAPHS, cycle_graph, path_graph, random_regular


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
    assert valence(k4) == 3
    assert k4.m == 6


def test_from_edge_list_errors():
    """A loop and a pair listed twice, in either order, are rejected by
    Graph itself; a vertex outside 0..n-1, negative ones included, by
    from_edge_list before it indexes the adjacency."""
    with pytest.raises(LoopEdge):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        from_edge_list(3, [(0, 1), (1, 0)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(2, [(0, 2)])
    for n, edges, error in [
            (3, [(0, 1), (1, 2), (2, 2)], LoopEdge),
            (3, [(2, 1), (0, 2), (1, 2)], DuplicateEdge),
            (3, [(0, 1), (0, 1)], DuplicateEdge),
            (3, [(-1, 0)], VertexOutOfRange),
            (3, [(1, -3)], VertexOutOfRange),
            (0, [(0, 0)], VertexOutOfRange)]:
        with pytest.raises(error):
            from_edge_list(n, edges)


def test_graph_equality_and_hash(k4):
    again = from_edge_list(4, list(combinations(range(4), 2)))
    assert k4 == again and hash(k4) == hash(again)
    assert k4 != from_edge_list(4, [(0, 1)])


def test_predicates_k4(k4):
    assert is_connected(k4)
    assert valence(k4) == 3
    assert is_bipartite(k4) is None
    assert girth(k4) == 3


@pytest.mark.parametrize("g, k", [
    (from_edge_list(0, []), None),          # no vertices, no valence
    (from_edge_list(1, []), 0),
    (from_edge_list(2, [(0, 1)]), 1),
    (path_graph(3), None),                  # degrees 1, 2, 1
    (cycle_graph(5), 2),
])
def test_valence(g, k):
    """The common degree, or None when the degrees differ or there are no
    vertices: the order-0 graph is cubic nowhere."""
    assert valence(g) == k


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


def edge_removal_girth(g):
    """Shortest cycle as min over edges uv of 1 + dist(u, v) with uv
    removed, one BFS per edge; None for a forest."""
    best = None
    for u, v in g.edges:
        dist = [-1] * g.n
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            if best is not None and dist[x] + 1 >= best:
                continue
            for y in g.adj[x]:
                if (x, y) == (u, v) or (x, y) == (v, u):
                    continue
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist[v] != -1 and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def test_girth_matches_edge_removal_reference():
    """girth (one BFS per vertex) agrees with the one-BFS-per-edge
    reference on seeded random graphs of order 0 to 14, among them
    forests and graphs of several components."""
    rng = random.Random(3)
    cases = [from_edge_list(0, []), from_edge_list(1, []), path_graph(6),
             from_edge_list(7, [(0, 1), (0, 2), (2, 3), (4, 5), (5, 6)])]
    for _ in range(600):
        n = rng.randint(0, 14)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        cases.append(from_edge_list(n, [e for e in combinations(range(n), 2)
                                        if rng.random() < density]))
        # a random forest: each vertex joins an earlier one or starts a tree
        cases.append(from_edge_list(n, [(rng.randrange(v), v)
                                        for v in range(1, n)
                                        if rng.random() < 0.7]))
    assert sum(len(components(g)) > 1 for g in cases) > 100
    assert sum(edge_removal_girth(g) is None for g in cases) > 100
    for g in cases:
        assert girth(g) == edge_removal_girth(g), g.edges


def test_girth_from_orbit_roots():
    """girth from the least vertex of each Aut(g) orbit equals girth from
    every vertex on the builtin and stress graphs, a seeded relabeling of
    each, and seeded random graphs with several orbits."""
    rng = random.Random(4)
    cases = [e.graph() for e in builtin_entries()]
    cases += [build() for build in STRESS_GRAPHS]
    cases += [relabel(g, tuple(rng.sample(range(g.n), g.n))) for g in cases]
    for _ in range(150):
        n = rng.randint(0, 12)
        density = rng.choice((0.15, 0.3, 0.5))
        cases.append(from_edge_list(n, [e for e in combinations(range(n), 2)
                                        if rng.random() < density]))
    several = 0
    for g in cases:
        roots = [orbit[0] for orbit in orbits(
            range(g.n), automorphism_group(g).generators, getitem)]
        several += 1 < len(roots) < g.n
        assert girth(g, roots=roots) == girth(g), g.edges
    assert several > 50


def test_girth_stops_at_first_triangle():
    """girth stops at the first triangle it meets, as a simple graph has
    no shorter cycle: from root 0 on graphs where vertex 0 lies on a
    triangle (a line graph of a cubic graph has one at every vertex),
    and after every root on triangle-free graphs."""
    taken = []

    def roots(g):
        for r in range(g.n):
            taken.append(r)
            yield r

    for g in (line_graph(generalized_petersen(5, 2))[0],
              line_graph(lcf_graph([5, -5], 7))[0],
              from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])):
        taken.clear()
        assert girth(g, roots=roots(g)) == 3 and taken == [0]
    for g, expected in ((generalized_petersen(5, 2), 5), (cycle_graph(9), 9),
                        (from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0),
                                            (3, 4), (4, 5), (5, 3)]), 3)):
        taken.clear()
        assert girth(g, roots=roots(g)) == expected
        assert taken == list(range(g.n if expected > 3 else 4))


def test_line_graph_cycle():
    lg, labels = line_graph(cycle_graph(5))
    assert lg.n == 5 and valence(lg) == 2 and is_connected(lg)
    assert len(labels) == 5


def test_line_graph_k4_is_octahedron(k4):
    lg, _ = line_graph(k4)
    assert lg.n == 6 and valence(lg) == 4 and girth(lg) == 3
    octahedron = from_edge_list(
        6, [(a, b) for a, b in combinations(range(6), 2)
            if {a, b} not in ({0, 1}, {2, 3}, {4, 5})])
    assert is_isomorphic(lg, octahedron) is not None


def test_line_graph_petersen(petersen):
    lg, labels = line_graph(petersen)
    assert lg.n == 15 and valence(lg) == 4
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


def reference_line_graph(g):
    """line_graph as it was built through a pair set, a sort and
    from_edge_list: the reference for its graph and edge labels."""
    edges = g.edges
    if not edges:
        raise EmptyEdgeSet("line graph needs at least one edge")
    index = {e: i for i, e in enumerate(edges)}
    out = set()
    for v in range(g.n):
        incident = [index[(min(v, w), max(v, w))] for w in g.adj[v]]
        for a, b in combinations(incident, 2):
            out.add((min(a, b), max(a, b)))
    return from_edge_list(len(edges), sorted(out)), edges


def reference_bipartite_double(g):
    """bipartite_double as it was built through from_edge_list."""
    n = g.n
    out = []
    for u, v in g.edges:
        out.append((u, v + n))
        out.append((v, u + n))
    return from_edge_list(2 * n, out)


def derived_graph_inputs():
    """The builtin, stress and PGL(2, 7 | 11) graphs, and seeded random
    cubic and 4-regular graphs (not necessarily connected)."""
    graphs = [e.graph() for e in builtin_entries()]
    graphs += [build() for build in STRESS_GRAPHS]
    graphs += [pgl2_graph(p) for p in (7, 11)]
    rng = random.Random(29)
    graphs += [random_regular(rng, rng.randrange(10, 81, 2), k)
               for k in (3, 4) for _ in range(4)]
    return graphs


def test_line_graph_and_double_match_references():
    """line_graph and bipartite_double build rows, not edge lists, and
    give the references' graphs and edge labels."""
    for g in derived_graph_inputs():
        assert line_graph(g) == reference_line_graph(g)
        assert bipartite_double(g) == reference_bipartite_double(g)


@settings(max_examples=80)
@given(graphs())
def test_derived_graphs_match_references_on_small_graphs(g):
    """The same on every small graph, with isolated vertices, and the
    same EmptyEdgeSet on an edgeless one."""
    assert bipartite_double(g) == reference_bipartite_double(g)
    if g.m:
        assert line_graph(g) == reference_line_graph(g)
        return
    for build in (line_graph, reference_line_graph):
        with pytest.raises(EmptyEdgeSet):
            build(g)


def test_from_edge_list_reads_any_pair():
    """Any 2-iterable is a pair; anything else raises as unpacking does."""
    assert from_edge_list(3, [[0, 1], iter((2, 1)), range(0, 3, 2)]) == \
        from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 1, 2)])
    with pytest.raises(TypeError):
        from_edge_list(3, [5])


def test_bipartite_double_c5():
    double = bipartite_double(cycle_graph(5))
    assert double.n == 10 and valence(double) == 2 and is_connected(double)


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
    assert double.n == 8 and valence(double) == 3 and is_connected(double)
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
@example(from_edge_list(4, [(0, 1), (1, 2), (1, 3), (2, 3)]))  # a stem
def test_odd_closed_walk_witness(g):
    """The walk is an odd cycle: the two BFS tree paths from the clash
    edge's ends, cut at their last common vertex, and that edge.  One
    two-colouring gives the parts or the walk."""
    parts, walk = parts_or_odd_walk(g)
    assert parts == is_bipartite(g)
    if is_bipartite(g) is not None:
        assert walk is None
    else:
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1
        assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))
        assert len(set(walk)) == len(walk) - 1


def test_check_isomorphism_petersen(petersen):
    """errors.check_fault with graphs.isomorphism_fault passes an
    isomorphism and raises StructureViolation for anything else."""
    perm = tuple((3 * v + 1) % 10 for v in range(10))
    image = relabel(petersen, perm)
    check_fault("iso", isomorphism_fault(perm, petersen, image))
    with pytest.raises(StructureViolation):
        check_fault("iso", isomorphism_fault(tuple(range(10)), petersen,
                                             image))
    # not a bijection, wrong length, or a graph with fewer edges
    with pytest.raises(StructureViolation):
        check_fault("iso", isomorphism_fault((0,) * 10, petersen, petersen))
    with pytest.raises(StructureViolation):
        check_fault("iso", isomorphism_fault(tuple(range(9)), petersen,
                                             petersen))
    with pytest.raises(StructureViolation):
        check_fault("iso", isomorphism_fault(tuple(range(10)), petersen,
                                             cycle_graph(10)))
    # an edge-preserving bijection onto a graph with more edges
    c5 = cycle_graph(5)
    k5 = from_edge_list(5, combinations(range(5), 2))
    with pytest.raises(StructureViolation):
        check_fault("iso", isomorphism_fault(tuple(range(5)), c5, k5))


def test_relabel_checks_bijection(k4):
    """A relabeling that is no bijection is NotPermutation, a ValueError,
    naming the repeated or out-of-range image, or both lengths."""
    for perm, witness in [
            ((0, 0, 1, 2), "image 0 of 1 repeats the image of 0"),
            ((0, 1, 2, 4), "image 4 of 3 lies outside 0..3"),
            ((0, 1, -1, 2), "image -1 of 2 lies outside 0..3"),
            ((0, 1, 2), "relabeling has 3 images for 4 vertices"),
            ((0, 1, 2, 3, 4), "relabeling has 5 images for 4 vertices")]:
        with pytest.raises(ValueError) as info:
            relabel(k4, perm)
        assert isinstance(info.value, NotPermutation)
        assert str(info.value).endswith(witness)
    assert relabel(k4, (3, 2, 1, 0)) == k4


@pytest.mark.parametrize("p,h,witness", [
    ((1, 2, 3, 4, 0), "c5", None),
    ((0, 1, 2, 3), "c5", "4 images between graphs of (order, size) (5, 5) "
                         "and (5, 5)"),
    ((0, 1, 2, 3, 4), "p5", "5 images between graphs of (order, size) "
                            "(5, 5) and (5, 4)"),
    ((0, 1, 2, 3, -1), "c5", "vertex 4 maps to -1, outside 0..4"),
    ((0, 1, 2, 3, 1), "c5", "vertices 1 and 4 both map to 1"),
    ((0, 2, 1, 3, 4), "c5", "edge (0, 1) maps to the non-edge (0, 2)"),
])
def test_check_isomorphism_witnesses(p, h, witness):
    """check_fault with isomorphism_fault passes an isomorphism and
    otherwise names the check with the witness: the orders and sizes, a
    vertex mapped outside the target or onto another's image, or an edge
    mapped to a non-edge."""
    g = cycle_graph(5)
    h = {"c5": g, "p5": path_graph(5)}[h]
    if witness is None:
        check_fault("name", isomorphism_fault(p, g, h))
        return
    with pytest.raises(StructureViolation) as info:
        check_fault("name", isomorphism_fault(p, g, h))
    assert str(info.value) == f"name: {witness}"
