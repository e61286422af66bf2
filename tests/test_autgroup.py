import random
from itertools import combinations, permutations

import pytest

from hatkit.errors import NotAutomorphisms, TooLarge
from hatkit.graphs import Graph, bipartite_double, from_edge_list, line_graph, relabel
from hatkit.perms import schreier_sims, from_cycles
from hatkit import autgroup
from hatkit.autgroup import (
    arc_orbits,
    automorphism_group,
    canonical_form,
    is_isomorphic,
    refine,
    transitivity_report,
    unit_partition,
)
from hatkit.dartgraph import dart_graph, dart_reversal, lift_automorphisms

from conftest import cycle_graph, path_graph


def brute_force_aut_order(g):
    """Count adjacency-preserving permutations by full enumeration."""
    count = 0
    for p in permutations(range(g.n)):
        if all(p[v] in g.nbrs[p[u]] for u, v in g.edges):
            count += 1
    return count


def random_graph(rng, n, p=0.5):
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return from_edge_list(n, edges)


def test_refine_regular_unit():
    c5 = cycle_graph(5)
    assert refine(c5, unit_partition(c5)) == (tuple(range(5)),)


def test_refine_path_splits():
    p3 = path_graph(3)
    assert refine(p3, unit_partition(p3)) == ((0, 2), (1,))


def test_refine_petersen_individualized(petersen):
    refined = refine(petersen, ((0,), tuple(range(1, 10))))
    assert refined == ((0,), (1, 4, 5), (2, 3, 6, 7, 8, 9))


def test_refine_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        once = refine(g, unit_partition(g))
        assert refine(g, once) == once


def test_refine_validates_partition(k4):
    with pytest.raises(ValueError):
        refine(k4, ((0, 1), (1, 2, 3)))


@pytest.mark.parametrize("build,order", [
    (lambda: from_edge_list(4, [(a, b) for a, b in combinations(range(4), 2)]), 24),
    (lambda: cycle_graph(5), 10),
    (lambda: path_graph(3), 2),
    (lambda: from_edge_list(1, []), 1),
    (lambda: from_edge_list(0, []), 1),
])
def test_automorphism_orders_known(build, order):
    assert automorphism_group(build()).order == order


def test_automorphism_group_petersen(petersen):
    group = automorphism_group(petersen)
    assert group.order == 120
    for gen in group.generators:
        assert all(gen[v] in petersen.nbrs[gen[u]] for u, v in petersen.edges)


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_canonical_form_stability():
    # certificate soundness over 200 relabeled pairs
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        images = list(range(g.n))
        rng.shuffle(images)
        h = relabel(g, tuple(images))
        assert canonical_form(g)[1] == canonical_form(h)[1]
        mapping = is_isomorphic(g, h)
        assert mapping is not None
        assert all(mapping[v] in h.nbrs[mapping[u]] for u, v in g.edges)
        assert len({mapping[u] for u in range(g.n)}) == g.n


def test_canonical_relabeled_graph_matches_certificate(k4):
    canon, cert = canonical_form(k4)
    from hatkit.graph6 import write_graph6
    assert cert == write_graph6(canon).encode("ascii")


def test_canonical_form_idempotent():
    # a canonically relabeled graph is its own canonical form
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        canon, cert = canonical_form(g)
        canon2, cert2 = canonical_form(canon)
        assert cert2 == cert and canon2 == canon


def test_not_isomorphic_cases():
    p3 = path_graph(3)
    k3 = cycle_graph(3)
    assert is_isomorphic(p3, k3) is None
    c6 = cycle_graph(6)
    two_triangles = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_isomorphic(c6, two_triangles) is None
    assert canonical_form(c6)[1] != canonical_form(two_triangles)[1]


def test_dart_k4_not_double_of_line_graph(k4):
    dart, _, _ = dart_graph(k4)
    double = bipartite_double(line_graph(k4)[0])
    assert dart.n == double.n == 12
    assert is_isomorphic(dart, double) is None


def test_too_large():
    g = Graph(10_001, [[] for _ in range(10_001)])
    with pytest.raises(TooLarge):
        automorphism_group(g)


def test_oracle_equivalence_regular_graphs():
    # regular graphs keep the unit partition equitable, exercising the
    # search rather than the refinement
    rng = random.Random(77)
    built = 0
    while built < 25:
        n = rng.choice((4, 6, 8))
        k = rng.choice((2, 3))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = set()
        # union of k random perfect matchings / 2-factors, keep if simple k-regular
        for _ in range(k):
            rng.shuffle(perm)
            for i in range(0, n - 1, 2):
                a, b = perm[i], perm[i + 1]
                edges.add((min(a, b), max(a, b)))
        g = from_edge_list(n, sorted(edges))
        if len({d for d in g.degrees()}) != 1:
            continue
        built += 1
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_unique_srg_9_4_1_2():
    # the 3x3 rook graph and the Paley graph of GF(9) are both strongly
    # regular with parameters (9,4,1,2); that graph is unique, so the two
    # constructions must agree up to isomorphism, with |Aut| = 72
    rook = from_edge_list(9, [(3 * r + c, 3 * r + c2)
                              for r in range(3)
                              for c in range(3) for c2 in range(c + 1, 3)]
                          + [(3 * r + c, 3 * r2 + c)
                             for c in range(3)
                             for r in range(3) for r2 in range(r + 1, 3)])
    # GF(9) = Z3[x]/(x^2 + 1): element (a, b) is a + bx
    def mul(p, q):
        (a, b), (c, d) = p, q
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    elements = [(a, b) for a in range(3) for b in range(3)]
    squares = {mul(e, e) for e in elements if e != (0, 0)}
    idx = {e: i for i, e in enumerate(elements)}
    paley = from_edge_list(9, [
        (idx[p], idx[q]) for p in elements for q in elements
        if idx[p] < idx[q]
        and ((p[0] - q[0]) % 3, (p[1] - q[1]) % 3) in squares])
    group = automorphism_group(rook)
    assert group.order == 72
    assert is_isomorphic(rook, paley) is not None


def test_transitivity_petersen(petersen):
    group = automorphism_group(petersen)
    report = transitivity_report(group, petersen)
    assert report.vertex_transitive and report.edge_transitive
    assert report.arc_transitive and report.two_arc_transitive
    assert not report.half_arc_transitive
    assert report.arc_orbit_count == 1


def test_transitivity_trivial_group(k4):
    trivial = schreier_sims([], degree=4)
    report = transitivity_report(trivial, k4)
    assert not any([report.vertex_transitive, report.edge_transitive,
                    report.arc_transitive, report.two_arc_transitive,
                    report.half_arc_transitive])
    assert report.arc_orbit_count == 12


def test_transitivity_lifted_dart_k4(k4):
    group = automorphism_group(k4)
    dart, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(k4, group, labeling)
    report = transitivity_report(lifted, dart)
    assert report.vertex_transitive and report.edge_transitive
    assert not report.arc_transitive
    assert report.half_arc_transitive
    assert report.arc_orbit_count == 2


def test_transitivity_implications_random():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        report = transitivity_report(automorphism_group(g), g)
        if report.two_arc_transitive:
            assert report.arc_transitive
        if report.arc_transitive:
            assert report.edge_transitive
        assert report.half_arc_transitive == (
            report.vertex_transitive and report.edge_transitive
            and not report.arc_transitive)


def test_transitivity_rejects_non_automorphisms(k4):
    p3_group = schreier_sims([from_cycles(4, [(0, 1)])])
    bad = schreier_sims([from_cycles(4, [(0, 1, 2, 3)])])
    g = path_graph(4)
    with pytest.raises(NotAutomorphisms):
        transitivity_report(bad, g)
    del p3_group


def test_arc_orbits_cases(k4, k33):
    at = automorphism_group(k4)
    assert len(arc_orbits(at.generators, k4)) == 1
    trivial = schreier_sims([], degree=4)
    assert len(arc_orbits(trivial.generators, k4)) == 12
    group = automorphism_group(k33)
    dart, _, labeling = dart_graph(k33)
    lifted = lift_automorphisms(k33, group, labeling)
    orbits = arc_orbits(lifted.generators, dart)
    assert len(orbits) == 2
    assert sorted(map(len, orbits)) == [36, 36]
    assert {(b, a) for a, b in orbits[0]} == set(orbits[1])


def test_arc_orbits_rejects_non_automorphisms(k33):
    dart, _, labeling = dart_graph(k33)
    tau = dart_reversal(labeling)
    assert len(arc_orbits([tau], dart)) == 36
    bad = from_cycles(dart.n, [(0, 1)])
    with pytest.raises(NotAutomorphisms):
        arc_orbits([tau, bad], dart)
    with pytest.raises(NotAutomorphisms):
        arc_orbits([tau[:-1]], dart)


def test_chain_built_only_for_automorphism_group(monkeypatch, petersen):
    """Isomorphism tests and canonical forms read the search alone; the
    Aut(g) chain is built on the first automorphism_group call only."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schreier_sims(*args, **kwargs)

    monkeypatch.setattr(autgroup, "schreier_sims", counted)
    autgroup._analysis.cache_clear()
    p = tuple((3 * v + 1) % petersen.n for v in range(petersen.n))
    relabeled = relabel(petersen, p)
    assert relabeled != petersen
    assert is_isomorphic(petersen, relabeled) is not None
    canonical_form(petersen)
    assert calls == []
    assert automorphism_group(petersen).order == 120
    assert automorphism_group(petersen).order == 120
    assert len(calls) == 1
