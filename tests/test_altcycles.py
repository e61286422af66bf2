import pytest

from hatkit.errors import (
    DivisibilityRuleViolation,
    NotConnected,
    NotHalfArcTransitive,
    NotTetravalent,
    OddAttachment,
    OrientationInvalid,
    StructureViolation,
    TightlyAttached,
)
from hatkit.graphs import from_edge_list, is_connected, is_regular, line_graph
from hatkit.perms import compose, identity, schreier_sims
from hatkit.autgroup import automorphism_group, is_isomorphic
from hatkit.altcycles import (
    Orientation,
    alt_graph,
    alternating_cycles,
    antipodal_involution,
    divisibility_report,
    induced_alt_action,
    induced_orientation,
)
from hatkit.dartgraph import dart_graph, dart_reversal, lift_automorphisms, wreath_graph

from conftest import cycle_graph


def circulant_k5():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
    g = from_edge_list(5, [(min(u, v), max(u, v)) for u, v in edges])
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
    return g, arcs


def forward_wreath_orientation(r):
    """All edges directed from fibre i to fibre i+1."""
    g = wreath_graph(r)
    arcs = []
    for i in range(r):
        k = (i + 1) % r
        for j in (0, 1):
            for j2 in (0, 1):
                arcs.append((2 * i + j, 2 * k + j2))
    return g, Orientation(g, arcs)


def spiral_wreath_orientation(r):
    """Orientation of an even wreath whose alternating cycles are two
    spanning cycles: heads sit in even fibres along one Hamiltonian cycle
    and in odd fibres along the complementary one."""
    assert r % 2 == 0
    g = wreath_graph(r)
    h1 = set()
    for i in range(r - 1):
        for j in (0, 1):
            h1.add(frozenset((2 * i + j, 2 * (i + 1) + j)))
    h1.add(frozenset((2 * (r - 1), 1)))
    h1.add(frozenset((2 * (r - 1) + 1, 0)))
    arcs = []
    for u, v in g.edges:
        even_end = u if (u // 2) % 2 == 0 else v
        odd_end = v if even_end == u else u
        if frozenset((u, v)) in h1:
            arcs.append((odd_end, even_end))
        else:
            arcs.append((even_end, odd_end))
    return g, Orientation(g, arcs)


def dart_with_lift(base):
    group = automorphism_group(base)
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(base, group, labeling)
    return g, natural, labeling, lifted


def test_orientation_validation():
    g, arcs = circulant_k5()
    Orientation(g, arcs)  # in2/out2, fine
    with pytest.raises(OrientationInvalid):
        Orientation(g, arcs[:-1])
    with pytest.raises(OrientationInvalid):
        Orientation(g, arcs[:-1] + [arcs[0]])
    with pytest.raises(OrientationInvalid):
        # all edges low -> high gives vertex 0 out-degree 4
        Orientation(g, list(g.edges))


def test_orientation_reverse_and_eq():
    g, arcs = circulant_k5()
    d = Orientation(g, arcs)
    assert d.reverse().reverse() == d
    assert d.reverse() != d
    assert d.head_of(0, 1) == 1
    assert d.reverse().head_of(0, 1) == 0


def test_induced_orientation_errors(petersen, k4):
    with pytest.raises(NotTetravalent):
        induced_orientation(automorphism_group(petersen), petersen)
    lg, _ = line_graph(petersen)
    with pytest.raises(NotHalfArcTransitive):
        induced_orientation(automorphism_group(lg), lg)
    two_k5 = from_edge_list(10, [(u, v) for u, v in circulant_k5()[0].edges]
                            + [(u + 5, v + 5) for u, v in circulant_k5()[0].edges])
    with pytest.raises(NotConnected):
        induced_orientation(schreier_sims([], degree=10), two_k5)


def test_dart_k4_alternating_structure(k4):
    g, natural, labeling, lifted = dart_with_lift(k4)
    d, d_rev = induced_orientation(lifted, g)
    assert natural in (d, d_rev)
    dec = alternating_cycles(g, natural)
    assert len(dec.cycles) == 4
    assert dec.radius == 3 and dec.attachment == 2 and dec.ell == 3
    assert not dec.tightly_attached
    assert all(len(c) == 6 for c in dec.cycles)
    # every vertex on exactly two cycles, attachment sets are antipodal pairs
    assert len(dec.attachment_sets) == 6
    assert all(len(b) == 2 for b in dec.attachment_sets)


def test_dart_k33_cycles_are_vertex_stars(k33):
    g, natural, labeling, _ = dart_with_lift(k33)
    dec = alternating_cycles(g, natural)
    assert len(dec.cycles) == k33.n
    # the cycle through any edge at a dart (u,v) consists of the six darts
    # into and out of v in the base graph
    star_sets = {
        frozenset(labeling.index[d] for d in
                  [(u, v) for u in k33.adj[v]] + [(v, u) for u in k33.adj[v]])
        for v in range(k33.n)}
    assert {frozenset(c) for c in dec.cycles} == star_sets


def test_forward_wreath_radius_two():
    g, orient = forward_wreath_orientation(5)
    dec = alternating_cycles(g, orient)
    assert len(dec.cycles) == 5
    assert dec.radius == 2 and dec.attachment == 2 and dec.ell == 2
    altg = alt_graph(g, dec)
    assert is_regular(altg, 2) and is_connected(altg)
    assert is_isomorphic(altg, cycle_graph(5)) is not None


def test_spiral_wreath_tightly_attached():
    g, orient = spiral_wreath_orientation(4)
    dec = alternating_cycles(g, orient)
    assert len(dec.cycles) == 2
    assert dec.radius == 4 and dec.attachment == 8
    assert dec.tightly_attached and dec.ell == 1
    assert dec.attachment_sets == (tuple(range(8)),)
    with pytest.raises(TightlyAttached):
        alt_graph(g, dec)


def test_spiral_wreath_antipodal_is_fibre_swap():
    g, orient = spiral_wreath_orientation(4)
    dec = alternating_cycles(g, orient)
    tau = antipodal_involution(g, dec, schreier_sims([], degree=8))
    assert tau == tuple(i ^ 1 for i in range(8))


def test_circulant_walks_violate_structure():
    g, arcs = circulant_k5()
    with pytest.raises(StructureViolation):
        alternating_cycles(g, Orientation(g, arcs))


def test_unequal_cycle_lengths_violate_structure():
    # disjoint union of a forward wreath (quadrilateral cycles) and a
    # spiral wreath (two spanning 8-cycles): valid orientation, but the
    # alternating cycles have two different lengths
    ga, da = forward_wreath_orientation(3)
    gb, db = spiral_wreath_orientation(4)
    shift = ga.n
    edges = list(ga.edges) + [(u + shift, v + shift) for u, v in gb.edges]
    g = from_edge_list(ga.n + gb.n, edges)
    arcs = list(da.arcs) + [(t + shift, h + shift) for t, h in db.arcs]
    with pytest.raises(StructureViolation):
        alternating_cycles(g, Orientation(g, arcs))


def test_orientation_mismatched_graph(k4):
    g, natural, _, _ = dart_with_lift(k4)
    other = wreath_graph(6)
    with pytest.raises(OrientationInvalid):
        alternating_cycles(other, natural)


@pytest.mark.parametrize("base_name", ["k4", "petersen"])
def test_reversal_symmetry(base_name, k4, petersen):
    base = {"k4": k4, "petersen": petersen}[base_name]
    g, natural, _, _ = dart_with_lift(base)
    dec1 = alternating_cycles(g, natural)
    dec2 = alternating_cycles(g, natural.reverse())
    assert dec1.cycles == dec2.cycles
    assert dec1.attachment_sets == dec2.attachment_sets


def test_antipodal_dart_k4_is_reversal(k4):
    g, natural, labeling, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    tau = antipodal_involution(g, dec, lifted)
    assert tau == dart_reversal(labeling)


def test_antipodal_verified_heawood(heawood):
    from hatkit.perms import compose
    g, natural, labeling, lifted = dart_with_lift(heawood)
    dec = alternating_cycles(g, natural)
    tau = antipodal_involution(g, dec, lifted)
    assert all(tau[tau[v]] == v and tau[v] != v for v in range(g.n))
    assert all(tau[b] in g.nbrs[tau[a]] for a, b in g.edges)
    assert all(compose(tau, s) == compose(s, tau) for s in lifted.generators)


def test_antipodal_odd_attachment(holt):
    group = automorphism_group(holt)
    d, _ = induced_orientation(group, holt)
    dec = alternating_cycles(holt, d)
    assert dec.attachment % 2 == 1
    with pytest.raises(OddAttachment):
        antipodal_involution(holt, dec, group)


def test_holt_alternating_parameters(holt):
    group = automorphism_group(holt)
    d, _ = induced_orientation(group, holt)
    dec = alternating_cycles(holt, d)
    assert (dec.radius, dec.attachment, dec.ell) == (9, 9, 2)
    assert len(dec.cycles) == 3
    record = divisibility_report(dec, is_full_group=True, genuinely_hat=True)
    assert record.r_odd and record.a_divides_r and record.a_divides_2r
    assert record.odd_radius_rule_applicable and record.odd_radius_rule_satisfied


def test_divisibility_dart_case(k4):
    g, natural, _, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    record = divisibility_report(dec, is_full_group=False, genuinely_hat=False)
    assert record.a_divides_2r and not record.a_divides_r
    assert record.r_odd and record.a_mod_4 == 2
    assert not record.odd_radius_rule_applicable
    # lying about the hypotheses trips the hard guard: r=3 odd, a=2 does
    # not divide it
    with pytest.raises(DivisibilityRuleViolation):
        divisibility_report(dec, is_full_group=True, genuinely_hat=True)


def test_induced_alt_action_dart_k4(k4):
    g, natural, _, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    altg = alt_graph(g, dec)
    assert is_isomorphic(altg, k4) is not None
    action, arc_transitive = induced_alt_action(lifted, dec, altg)
    assert arc_transitive  # ell = 3 is odd
    assert action.order >= 12


def test_induced_alt_action_holt(holt):
    group = automorphism_group(holt)
    d, _ = induced_orientation(group, holt)
    dec = alternating_cycles(holt, d)
    altg = alt_graph(holt, dec)
    assert altg.n == 3
    action, arc_transitive = induced_alt_action(group, dec, altg)
    assert not arc_transitive  # ell = 2 is even


def _cycle_restriction_order(dec, group, index):
    """Order of the restriction to one alternating cycle of its setwise
    stabilizer, by enumerating the group (small groups only)."""
    ident = identity(group.degree)
    elements, queue = {ident}, [ident]
    while queue:
        g = queue.pop()
        for s in group.generators:
            h = compose(g, s)
            if h not in elements:
                elements.add(h)
                queue.append(h)
    cyc = dec.cycles[index]
    target = set(cyc)
    return len({tuple(p[v] for v in cyc) for p in elements
                if {p[v] for v in cyc} == target})


def test_cycle_restriction_is_dihedral(k4):
    g, natural, _, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    # setwise stabilizer of a hexagon restricts to the dihedral group of
    # order 2r = 6, generated by two-step rotations and reflections
    assert _cycle_restriction_order(dec, lifted, 0) == 6


def wreath_forward_group(r):
    """Rotation plus a single-fibre swap: a half-arc-transitive group on
    the wreath graph preserving the fibre-forward orientation."""
    rotation = tuple((2 * ((v // 2 + 1) % r)) + (v % 2) for v in range(2 * r))
    swap0 = tuple(v ^ 1 if v < 2 else v for v in range(2 * r))
    return schreier_sims([rotation, swap0])


def test_wreath_group_is_half_arc_transitive_radius_two():
    # an honest group-relative instance away from the dart case: radius 2,
    # attachment 2, quadrilateral alternating cycles
    from hatkit.autgroup import transitivity_report
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    assert group.order == r * 2 ** r
    report = transitivity_report(group, g)
    assert report.half_arc_transitive
    d, d_rev = induced_orientation(group, g)
    assert d_rev == d.reverse()
    assert forward in (d, d_rev)
    dec = alternating_cycles(g, forward)
    assert (dec.radius, dec.attachment, dec.ell) == (2, 2, 2)
    record = divisibility_report(dec, is_full_group=False, genuinely_hat=False)
    assert record.a_divides_2r and record.a_divides_r and not record.r_odd


def test_wreath_group_induced_alt_action_not_arc_transitive():
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    dec = alternating_cycles(g, forward)
    altg = alt_graph(g, dec)
    assert is_isomorphic(altg, cycle_graph(r)) is not None
    action, arc_transitive = induced_alt_action(group, dec, altg)
    assert not arc_transitive  # ell = 2 is even: the rotations never swap
    assert action.order == r  # kernel is the full group of fibre swaps


def test_wreath_group_antipodal_and_degenerate_quotient():
    from hatkit.covers import quotient_by_tau
    from hatkit.errors import DegenerateWreath
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    dec = alternating_cycles(g, forward)
    tau = antipodal_involution(g, dec, group)
    assert tau == tuple(v ^ 1 for v in range(2 * r))  # global fibre swap
    with pytest.raises(DegenerateWreath):
        quotient_by_tau(g, tau)


def test_wreath_cycle_restriction_is_klein_four():
    # at radius 2 the cycle stabilizer restricts to the Klein four-group
    # (order 4), not the full order-8 symmetry group of a quadrilateral
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    dec = alternating_cycles(g, forward)
    assert _cycle_restriction_order(dec, group, 0) == 4
