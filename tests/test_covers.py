import random

import pytest

from hatkit.errors import (
    DegenerateWreath,
    FixedPoint,
    NotAutomorphisms,
    NotCentralizing,
    NotConnected,
    NotInvariant,
    NotInvolution,
    OrbitNotIndependent,
    OrderTooSmall,
    TauInG,
    WrongParameters,
)
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    is_regular,
    line_graph,
)
from hatkit.perms import compose, from_cycles, identity, schreier_sims
from hatkit.autgroup import automorphism_group, is_isomorphic
from hatkit.altcycles import (
    alternating_cycles,
    antipodal_involution,
    induced_orientation,
)
from hatkit.dartgraph import dart_graph, lift_automorphisms, wreath_graph
from hatkit.covers import (
    cover_pipeline,
    is_covering,
    quotient_by_tau,
    split_certificate,
)

from conftest import cycle_graph, run_optimized


def dart_with_lift(base):
    group = automorphism_group(base)
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(base, group, labeling)
    return g, natural, labeling, lifted


def dart_with_cycles(base):
    """Dart graph, alternating cycles of its natural orientation (an
    induced one) and the lifted group."""
    g, natural, _, lifted = dart_with_lift(base)
    return g, alternating_cycles(g, natural), lifted


def antipodal_of(base):
    g, dec, lifted = dart_with_cycles(base)
    return g, lifted, antipodal_involution(g, dec, lifted)


def test_is_covering_examples(petersen):
    double = bipartite_double(petersen)
    fibre_map = tuple(v % petersen.n for v in range(double.n))
    assert is_covering(double, petersen, fibre_map)
    # constant maps are not coverings
    single = from_edge_list(1, [])
    assert not is_covering(petersen, single, (0,) * 10)
    # wrong-degree targets fail local bijectivity
    assert not is_covering(petersen, cycle_graph(5),
                           tuple(v % 5 for v in range(10)))


def test_quotient_dart_petersen(petersen):
    g, lifted, tau = antipodal_of(petersen)
    cover = quotient_by_tau(g, tau)
    assert cover.base.n == 15 and is_regular(cover.base, 4)
    assert girth(cover.base) == 3
    assert is_covering(g, cover.base, cover.fibre_map)
    assert is_isomorphic(cover.base, line_graph(petersen)[0]) is not None


def test_quotient_rejects_fixed_points():
    c6 = cycle_graph(6)
    reflection = from_cycles(6, [(1, 5), (2, 4)])  # fixes 0 and 3
    with pytest.raises(FixedPoint):
        quotient_by_tau(c6, reflection)


def test_quotient_rejects_non_involution():
    c6 = cycle_graph(6)
    with pytest.raises(ValueError):
        quotient_by_tau(c6, from_cycles(6, [(0, 1, 2, 3, 4, 5)]))


def test_quotient_rejects_non_automorphism():
    path4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotAutomorphisms):
        quotient_by_tau(path4, from_cycles(4, [(0, 1), (2, 3)]))


def test_quotient_rejects_dependent_orbit(k4):
    with pytest.raises(OrbitNotIndependent):
        quotient_by_tau(k4, from_cycles(4, [(0, 1), (2, 3)]))


def test_quotient_degenerate_wreath():
    w3 = wreath_graph(3)
    fibre_swap = tuple(i ^ 1 for i in range(6))
    with pytest.raises(DegenerateWreath) as info:
        quotient_by_tau(w3, fibre_swap)
    assert info.value.pair is not None
    assert info.value.orbits is not None


def test_split_certificate_dart_petersen(petersen):
    g, lifted, tau = antipodal_of(petersen)
    cover = quotient_by_tau(g, tau)
    cert = split_certificate(g, lifted, tau, cover)
    assert cert.is_split and not cert.is_sectional
    assert cert.lifted_group.order == 2 * lifted.order
    walk = cert.non_bipartite_witness
    assert walk is not None and (len(walk) - 1) % 2 == 1
    assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


def test_split_certificate_dart_k33_sectional(k33):
    g, lifted, tau = antipodal_of(k33)
    cover = quotient_by_tau(g, tau)
    cert = split_certificate(g, lifted, tau, cover)
    assert cert.is_split and cert.is_sectional
    assert cert.non_bipartite_witness is None
    assert is_isomorphic(g, bipartite_double(cover.base)) is not None


def test_split_certificate_tau_in_group():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    group = schreier_sims([rot1])
    cover = quotient_by_tau(c6, rot3)
    with pytest.raises(TauInG):
        split_certificate(c6, group, rot3, cover)


def test_split_certificate_not_centralizing():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    edge_reflection = from_cycles(6, [(0, 1), (2, 5), (3, 4)])
    group = schreier_sims([rot1])
    cover = quotient_by_tau(c6, rot3)
    with pytest.raises(NotCentralizing):
        split_certificate(c6, group, edge_reflection, cover)


def test_split_certificate_not_involution():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot2 = compose(rot1, rot1)
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    group = schreier_sims([rot2])
    cover = quotient_by_tau(c6, rot3)
    # rot1 centralizes <rot2> and lies outside it, but has order 6
    with pytest.raises(NotInvolution):
        split_certificate(c6, group, rot1, cover)


def half_turn(n):
    return tuple((i + n // 2) % n for i in range(n))


def reflection_group(n):
    """<i -> -i> on the n-cycle: centralizes the half turn, lacks it."""
    return schreier_sims([tuple(-i % n for i in range(n))])


@pytest.mark.parametrize("n, sectional", [(6, True), (10, True), (8, False)])
def test_split_certificate_sectionality_of_cycle_covers(n, sectional):
    """C6 and C10 over the half turn are the doubles of C3 and C5; C8 is
    bipartite over C4, whose double is 2C4, so it is not sectional.  The
    verdict agrees with an isomorphism search."""
    c = cycle_graph(n)
    cover = quotient_by_tau(c, half_turn(n))
    cert = split_certificate(c, reflection_group(n), half_turn(n), cover)
    oracle = is_isomorphic(c, bipartite_double(cover.base)) is not None
    assert cert.is_sectional == oracle == sectional
    assert cert.is_split and cert.non_bipartite_witness is None
    assert cert.lifted_group.order == 4


def test_split_certificate_needs_connected_total():
    two_c4 = from_edge_list(
        8, [(i + k, (i + 1) % 4 + k) for k in (0, 4) for i in range(4)])
    swap = half_turn(8)
    # i -> -i on each copy of C4
    reflect = tuple(-i % 4 + i // 4 * 4 for i in range(8))
    cover = quotient_by_tau(two_c4, swap)
    with pytest.raises(NotConnected):
        split_certificate(two_c4, schreier_sims([reflect]), swap, cover)


def test_split_certificate_tau_must_swap_each_fibre():
    """i -> 4 - i centralizes <i -> -i> on C8, lies outside it and is an
    involution, but moves the fibre {1, 5} of the half-turn cover."""
    c8 = cycle_graph(8)
    cover = quotient_by_tau(c8, half_turn(8))
    other = tuple((4 - i) % 8 for i in range(8))
    with pytest.raises(NotInvariant):
        split_certificate(c8, reflection_group(8), other, cover)


@pytest.mark.parametrize("name", ["petersen", "coxeter"])
def test_bounded_chains_match_unbounded_rebuild(request, name):
    """The lift and <lift, tau> are built under their proven order
    bounds; both answer membership exactly like a full closure."""
    g, lifted, tau = antipodal_of(request.getfixturevalue(name))
    cert = split_certificate(g, lifted, tau, quotient_by_tau(g, tau))
    rng = random.Random(5)
    gens = list(cert.lifted_group.generators)
    probes = [tau] + gens
    for _ in range(30):
        word = identity(g.n)
        for _ in range(rng.randint(1, 10)):
            word = compose(word, rng.choice(gens))
        probes.append(word)
        probes.append(compose(word, from_cycles(g.n, [(0, 1)])))
    for bounded in (lifted, cert.lifted_group):
        full = schreier_sims(bounded.generators, degree=g.n)
        assert bounded.order == full.order
        for p in probes:
            assert bounded.contains(p) == full.contains(p)
    assert not lifted.contains(tau) and cert.lifted_group.contains(tau)


def test_cover_pipeline_dodecahedron():
    from hatkit.census import generalized_petersen
    dodec = generalized_petersen(10, 2)
    g, dec, lifted = dart_with_cycles(dodec)
    report = cover_pipeline(g, dec, lifted)
    assert report.order == 60 and report.base_order == 30
    assert report.split and not report.sectional and not report.bipartite
    assert report.base_girth == 3
    data = report.to_json_dict()
    assert data["group_orders"]["G_tilde"] == str(2 * lifted.order)


def test_cover_pipeline_rejects_wrong_line_graph_under_optimize():
    """The fibre -> cycle pair map is checked by a raise, not an assert:
    with the prism GP(5,1) as the graph of alternating cycles of
    Dart(Petersen), some cycle pairs are no edge of it, and the check
    fails under python -O instead of raising KeyError."""
    code = (
        "import sys\n"
        "from hatkit import covers\n"
        "from hatkit.altcycles import alternating_cycles\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dart_graph(petersen)\n"
        "lifted = lift_automorphisms(\n"
        "    petersen, automorphism_group(petersen), labeling)\n"
        "dec = alternating_cycles(g, natural)\n"
        "covers.alt_graph = lambda g, dec: generalized_petersen(5, 1)\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation"]


def test_cover_pipeline_rejects_arc_intransitive_base_under_optimize():
    """Arc-transitivity of the projected action is checked by a raise
    that names it, not an assert: with transitivity_report made to see
    two arc orbits on the base, the check fails under python -O."""
    code = (
        "import dataclasses, sys\n"
        "from hatkit import covers\n"
        "from hatkit.altcycles import alternating_cycles\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dart_graph(petersen)\n"
        "lifted = lift_automorphisms(\n"
        "    petersen, automorphism_group(petersen), labeling)\n"
        "dec = alternating_cycles(g, natural)\n"
        "real = covers.transitivity_report\n"
        "covers.transitivity_report = lambda group, x: dataclasses.replace(\n"
        "    real(group, x), arc_transitive=False, arc_orbit_count=2)\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__,\n"
        "          str(exc).split(':')[0])\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation",
                                   "projected_arc_transitive"]


def test_cover_pipeline_order_guard(k4):
    g, dec, lifted = dart_with_cycles(k4)
    with pytest.raises(OrderTooSmall):
        cover_pipeline(g, dec, lifted)


def test_cover_pipeline_wrong_parameters(holt):
    group = automorphism_group(holt)
    d, _ = induced_orientation(group, holt)
    with pytest.raises(WrongParameters):
        cover_pipeline(holt, alternating_cycles(holt, d), group)


def test_cover_pipeline_rejects_group_moving_cycles():
    """Aut(Dart(cube)) (order 768) has generators that move alternating
    cycles of the natural orientation off the decomposition."""
    from hatkit.census import generalized_petersen
    g, dec, lifted = dart_with_cycles(generalized_petersen(4, 1))
    full = automorphism_group(g)
    assert full.order == 768 and lifted.order == 48
    with pytest.raises(NotInvariant):
        cover_pipeline(g, dec, full)


def test_cover_pipeline_bipartite_control(heawood):
    g, dec, lifted = dart_with_cycles(heawood)
    report = cover_pipeline(g, dec, lifted)
    assert report.bipartite and report.sectional and report.split
    assert report.base_order == 21
