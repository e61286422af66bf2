from itertools import combinations

import pytest

from hatkit.errors import (
    Not2ArcTransitive,
    NotAutomorphisms,
    NotConnected,
    NotCubic,
    OrientationInvalid,
    TooSmall,
    WrongParameters,
)
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    is_regular,
    line_graph,
)
from hatkit.perms import compose, from_cycles, schreier_sims
from hatkit.autgroup import automorphism_group, is_isomorphic, transitivity_report
from hatkit.altcycles import alt_graph, alternating_cycles, induced_orientation
from hatkit.census import builtin_entries
from hatkit.dartgraph import (
    dart_graph,
    dart_reversal,
    lift_automorphisms,
    psi_isomorphism,
    verify_dart_forward,
    wreath_graph,
)
from hatkit.covers import is_covering

from conftest import cycle_graph, run_optimized


def test_dart_counts_k4(k4):
    g, orientation, labeling = dart_graph(k4)
    assert g.n == 12 and g.m == 24
    assert is_regular(g, 4) and girth(g) == 3
    assert len(labeling.darts) == 12


def test_dart_bipartite_iff_base(k33, petersen):
    dart33, _, _ = dart_graph(k33)
    assert dart33.n == 18 and is_bipartite(dart33) is not None
    dartp, _, _ = dart_graph(petersen)
    assert dartp.n == 30 and is_bipartite(dartp) is None


def test_dart_rejects_bad_input():
    with pytest.raises(NotCubic):
        dart_graph(cycle_graph(5))
    two_k4 = from_edge_list(8, [(a, b) for a, b in combinations(range(4), 2)]
                            + [(a + 4, b + 4) for a, b in combinations(range(4), 2)])
    with pytest.raises(NotConnected):
        dart_graph(two_k4)


def test_dart_edges_are_two_arcs(petersen):
    g, orientation, labeling = dart_graph(petersen)
    assert g.m == 60  # one edge per ordered 2-arc: 10 * 3 * 2
    for t, h in orientation.arcs:
        (u, v) = labeling.darts[t]
        (v2, w) = labeling.darts[h]
        assert v == v2 and u != w


def test_dart_reversal_k4(k4):
    _, _, labeling = dart_graph(k4)
    tau = dart_reversal(labeling)
    moved = [i for i in range(12) if tau[i] != i]
    assert len(moved) == 12
    assert all(tau[tau[i]] == i for i in range(12))


def test_dart_reversal_heawood_preserves_adjacency(heawood):
    g, _, labeling = dart_graph(heawood)
    tau = dart_reversal(labeling)
    assert g.n == 42 and g.m == 84  # 3n vertices, 6n edges over n = 14
    assert all(tau[b] in g.nbrs[tau[a]] for a, b in g.edges)


def test_reversal_commutes_with_lift(k4):
    from hatkit.perms import compose
    group = automorphism_group(k4)
    _, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(k4, group, labeling)
    tau = dart_reversal(labeling)
    assert all(compose(tau, s) == compose(s, tau) for s in lifted.generators)


def test_lift_preserves_order(k4):
    group = automorphism_group(k4)
    _, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(k4, group, labeling)
    assert lifted.order == 24 and lifted.degree == 12
    trivial = schreier_sims([], degree=4)
    assert lift_automorphisms(k4, trivial, labeling).order == 1


def test_lift_rejects_non_automorphisms(k4):
    _, _, labeling = dart_graph(k4)
    not_aut = schreier_sims([from_cycles(4, [(0, 1)])])
    # transpositions are automorphisms of K4; use a path to break it
    path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotCubic):
        dart_graph(path)
    bad = schreier_sims([from_cycles(4, [(0, 2)])])
    with pytest.raises(NotAutomorphisms):
        lift_automorphisms(path, bad, labeling)
    del not_aut


def test_lifted_membership_and_orbits(k4):
    group = automorphism_group(k4)
    _, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(k4, group, labeling)
    tau = dart_reversal(labeling)
    assert not lifted.contains(tau)
    assert lifted.orbit(0) == tuple(range(12))


def test_verify_dart_forward_k4(k4):
    report = verify_dart_forward(k4, automorphism_group(k4))
    assert report.radius == 3 and report.attachment == 2 and report.ell == 3
    assert report.half_arc_transitive and report.alt_isomorphic_to_base
    assert report.natural_orientation_induced
    assert report.dart_order == 12


def test_verify_dart_forward_heawood(heawood):
    report = verify_dart_forward(heawood, automorphism_group(heawood))
    assert report.dart_order == 42
    assert report.radius == 3 and report.attachment == 2


def test_verify_dart_forward_rejects_wrong_reconstruction_under_optimize():
    """The cycle -> shared vertex map is checked by a raise, not an
    assert: a graph of alternating cycles that is not the base (the prism
    GP(5,1) in place of the Petersen graph) fails under python -O."""
    code = (
        "import sys\n"
        "from hatkit import dartgraph\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "dartgraph.alt_graph = lambda g, dec: generalized_petersen(5, 1)\n"
        "try:\n"
        "    dartgraph.verify_dart_forward(\n"
        "        petersen, automorphism_group(petersen))\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation"]


def test_verify_dart_forward_rejects_uninduced_natural_under_optimize():
    """natural_orientation_induced is checked by a raise, not an assert:
    with induced_orientation made to return the natural orientation of
    Dart(Petersen) with the darts of the outer 5-cycle reversed, and its
    reverse, the check fails under python -O and names itself."""
    code = (
        "import sys\n"
        "from hatkit import dartgraph\n"
        "from hatkit.altcycles import Orientation\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dartgraph.dart_graph(petersen)\n"
        "step = [labeling.index[(i, (i + 1) % 5)] for i in range(5)]\n"
        "flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        "dartgraph.induced_orientation = (\n"
        "    lambda group, x: (mixed, mixed.reverse()))\n"
        "try:\n"
        "    dartgraph.verify_dart_forward(\n"
        "        petersen, automorphism_group(petersen))\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__,\n"
        "          str(exc).split(':')[0])\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation",
                                   "natural_orientation_induced"]


def test_verify_dart_forward_needs_two_arc_transitivity(k33):
    # a vertex-regular cyclic subgroup of Aut(K3,3): rotate the hexagon
    # 0,3,1,4,2,5 whose consecutive vertices alternate sides
    rho = from_cycles(6, [(0, 3, 1, 4, 2, 5)])
    group = schreier_sims([rho])
    rep = transitivity_report(group, k33)
    assert rep.vertex_transitive and not rep.two_arc_transitive
    with pytest.raises(Not2ArcTransitive):
        verify_dart_forward(k33, group)


def test_psi_round_trip_pappus(pappus):
    g, natural, _ = dart_graph(pappus)
    dec = alternating_cycles(g, natural)
    psi, report = psi_isomorphism(g, natural, dec)
    assert report.bijective and report.preserves_adjacency
    assert report.orientation_compatible
    assert report.alt_order == pappus.n
    assert sorted(psi) == list(range(g.n))


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()
                                  if is_regular(e.graph(), 3)])
def test_psi_of_reversed_orientation_follows_dart_reversal(name):
    """Both induced orientations have the same alternating cycles; psi
    built from the reverse is psi after the dart reversal of the dart
    graph of the reconstruction, with an equal report."""
    base = next(e for e in builtin_entries() if e.name == name).graph()
    g, natural, _ = dart_graph(base)
    dec = alternating_cycles(g, natural)
    psi, report = psi_isomorphism(g, natural, dec)
    psi_rev, report_rev = psi_isomorphism(g, natural.reverse(), dec)
    assert report_rev == report
    _, _, rec_labeling = dart_graph(alt_graph(g, dec))
    assert psi_rev == compose(dart_reversal(rec_labeling), psi)


def test_psi_wrong_parameters(holt):
    d, _ = induced_orientation(automorphism_group(holt), holt)
    with pytest.raises(WrongParameters):
        psi_isomorphism(holt, d, alternating_cycles(holt, d))


def test_psi_rejects_orientation_of_another_graph(k4, petersen):
    g, natural, _ = dart_graph(petersen)
    _, k4_natural, _ = dart_graph(k4)
    with pytest.raises(OrientationInvalid):
        psi_isomorphism(g, k4_natural, alternating_cycles(g, natural))


def test_wreath_octahedron():
    w3 = wreath_graph(3)
    assert w3.n == 6 and w3.m == 12 and is_regular(w3, 4)
    octahedron = from_edge_list(
        6, [(a, b) for a, b in combinations(range(6), 2)
            if {a, b} not in ({0, 1}, {2, 3}, {4, 5})])
    assert is_isomorphic(w3, octahedron) is not None


def test_wreath_counts():
    w4 = wreath_graph(4)
    assert w4.n == 8 and w4.m == 16 and is_bipartite(w4) is not None
    w5 = wreath_graph(5)
    assert w5.n == 10 and girth(w5) == 4
    with pytest.raises(TooSmall):
        wreath_graph(2)


def test_dart_covers_line_graph(k4, petersen):
    for base in (k4, petersen):
        dart, _, labeling = dart_graph(base)
        line, line_edges = line_graph(base)
        index = {e: i for i, e in enumerate(line_edges)}
        fibre_map = tuple(index[(min(u, v), max(u, v))]
                          for u, v in labeling.darts)
        assert is_covering(dart, line, fibre_map)


def test_dart_not_double_cover_shortcut(k4):
    dart, _, _ = dart_graph(k4)
    double = bipartite_double(line_graph(k4)[0])
    assert is_bipartite(double) is not None
    assert is_bipartite(dart) is None
    assert is_isomorphic(dart, double) is None
