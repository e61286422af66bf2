from pathlib import Path

import pytest

from hatkit.errors import (
    AntipodeMismatch,
    DegenerateWreath,
    HatError,
    NotConnected,
    NotHalfArcTransitive,
    NotInvariant,
    NotTetravalent,
    OddAttachment,
    OrientationInvalid,
    StructureViolation,
)
from hatkit.graphs import from_edge_list, is_connected, line_graph, valence
from hatkit.perms import compose, identity, schreier_sims
from hatkit.autgroup import (automorphism_group, is_isomorphic,
                             transitivity_report)
from hatkit.altcycles import (
    AltDecomposition,
    Orientation,
    alt_graph,
    _canonical_cycle,
    alternating_cycles,
    antipodal_involution,
    cycle_images,
    divisibility_checks,
    half_arc_orientation,
    induced_alt_action,
)
from hatkit.dartgraph import dart_graph, lift_automorphisms, wreath_graph
from hatkit.covers import quotient_by_tau

from hatkit.census import (builtin_entries, complete_graph, holt_graph,
                           pgl2_graph)

from conftest import (STRESS_GRAPHS, TWO_ARC_CUBIC, alt_faults, cycle_graph,
                      lift_chain, reversed_darts, run_optimized,
                      unevenly_spaced)


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
    assert 1 in d.out_adj[0] and 0 in d.in_adj[1]
    assert 0 in d.reverse().out_adj[1] and 1 in d.reverse().in_adj[0]


@pytest.mark.parametrize("arc", [(5, 0), (-1, 0), (2, 7)])
def test_orientation_rejects_vertex_outside_graph(arc):
    """An arc with an end outside 0..n-1 is no edge: OrientationInvalid
    naming it, not an IndexError from the adjacency rows and not a count
    of directed edges after -1 wrapped round to vertex n - 1."""
    triangle = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert not triangle.has_edge(*arc) and not triangle.has_edge(*arc[::-1])
    with pytest.raises(OrientationInvalid) as info:
        Orientation(triangle, [(0, 1), (1, 2), arc])
    assert str(info.value) == f"{arc} is not an edge"


def test_induced_orientation_errors(petersen, k4):
    report = transitivity_report(automorphism_group(petersen), petersen)
    with pytest.raises(NotTetravalent):
        half_arc_orientation(petersen, report)
    lg, _ = line_graph(petersen)
    with pytest.raises(NotHalfArcTransitive):
        half_arc_orientation(lg, transitivity_report(automorphism_group(lg),
                                                     lg))
    # the order-0 graph has no valence, so it is not vacuously tetravalent
    empty = from_edge_list(0, [])
    with pytest.raises(NotTetravalent):
        half_arc_orientation(empty, transitivity_report(
            automorphism_group(empty), empty))
    two_k5 = from_edge_list(10, [(u, v) for u, v in circulant_k5()[0].edges]
                            + [(u + 5, v + 5) for u, v in circulant_k5()[0].edges])
    with pytest.raises(NotConnected):
        half_arc_orientation(two_k5, transitivity_report(
            schreier_sims([], degree=10), two_k5))


def test_dart_k4_alternating_structure(k4):
    g, natural, labeling, lifted = dart_with_lift(k4)
    d = half_arc_orientation(g, transitivity_report(lift_chain(lifted), g))
    assert natural in (d, d.reverse())
    dec = alternating_cycles(g, natural)
    assert len(dec.cycles) == 4
    assert dec.radius == 3 and dec.attachment == 2 and dec.ell == 3
    assert not dec.tightly_attached
    assert all(len(c) == 6 for c in dec.cycles)
    # every vertex on exactly two cycles, attachment sets are antipodal pairs
    assert len(attachment_sets(dec)) == 6
    assert all(len(b) == 2 for b in attachment_sets(dec))


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
    assert dec.tightly_attached     # a = r
    altg = alt_graph(dec)
    assert valence(altg) == 2 and is_connected(altg)
    assert is_isomorphic(altg, cycle_graph(5)) is not None


def test_spiral_wreath_tightly_attached():
    """The spiral wreath's tightly_attached reading.  a = 2r: two
    alternating cycles through every vertex of the wreath C_4[2K1], so the
    graph of alternating cycles is degenerate.  This is not tight
    attachment, which is a = r."""
    g, orient = spiral_wreath_orientation(4)
    dec = alternating_cycles(g, orient)
    assert len(dec.cycles) == 2
    assert dec.radius == 4 and dec.attachment == 8
    assert dec.attachment == 2 * dec.radius and dec.ell == 1
    assert not dec.tightly_attached
    assert attachment_sets(dec) == (tuple(range(8)),)
    with pytest.raises(DegenerateWreath) as info:
        alt_graph(dec)
    assert info.value.pair is None and info.value.orbits is None


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


@pytest.mark.parametrize("fault,message", [
    ("circulant", "alt_walk_simple: alternating walk 0 visits vertex 0 "
                  "twice; the orientation is not half-arc-transitively "
                  "induced"),
    ("two_wreaths", "alt_cycle_lengths_equal: cycle lengths [4, 8]"),
])
def test_alternating_cycle_violations_name_the_check(fault, message):
    """The circulant's walks and the union of two wreaths with cycles of
    different lengths fail alternating_cycles with the check's name and
    its witness."""
    if fault == "circulant":
        g, arcs = circulant_k5()
    else:
        ga, da = forward_wreath_orientation(3)
        gb, db = spiral_wreath_orientation(4)
        g = from_edge_list(ga.n + gb.n, list(ga.edges) + [
            (u + ga.n, v + ga.n) for u, v in gb.edges])
        arcs = list(da.arcs) + [(t + ga.n, h + ga.n) for t, h in db.arcs]
    with pytest.raises(StructureViolation) as info:
        alternating_cycles(g, Orientation(g, arcs))
    assert str(info.value) == message


ALT_FAULT_WITNESSES = {
    "alt_cycle_length_even": "the cycles have odd length 3",
    "alt_two_cycles_per_vertex": "vertex 0 lies on cycles [0], expected "
                                 "exactly two",
    "alt_cycles_partition_edges": "edge (0, 1) lies on no cycle",
    "alt_attachment_constant": "intersection sizes [1, 2, 3]",
    "alt_attachment_at_most_radius": "attachment 8 exceeds radius 4 with 4 "
                                     "cycles",
}


def test_alt_checks_name_their_witness_under_optimize():
    """Each alt_* check of alternating_cycles that no other test reaches
    fails on its conftest.alt_faults case with its name and witness, in
    process and under python -O.  alt_attachment_divides_2r is
    unreachable (alt_faults says why); the three that a valid Orientation
    cannot reach are reached past its checks.  These checks stand behind
    the passes by proof of dart_graph (its orientation is not validated)
    and cover_pipeline (a lift's dart_cycles)."""
    made = []
    for check, g, d in alt_faults():
        with pytest.raises(StructureViolation) as info:
            alternating_cycles(g, d)
        assert (info.value.check, info.value.witness) == (
            check, ALT_FAULT_WITNESSES[check])
        made.append(check)
    assert made == list(ALT_FAULT_WITNESSES)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from conftest import alt_faults\n"
        "from hatkit.altcycles import alternating_cycles\n"
        "from hatkit.errors import StructureViolation\n"
        "print(sys.flags.optimize)\n"
        "for check, g, d in alt_faults():\n"
        "    try:\n"
        "        alternating_cycles(g, d)\n"
        "    except StructureViolation as exc:\n"
        "        print(exc.check == check, repr(exc.witness))\n"
    )
    assert run_optimized(code) == ["1"] + " ".join(
        f"True {witness!r}" for witness in ALT_FAULT_WITNESSES.values()
    ).split()


def test_orientation_mismatched_graph(k4):
    g, natural, _, _ = dart_with_lift(k4)
    other = wreath_graph(6)
    with pytest.raises(OrientationInvalid):
        alternating_cycles(other, natural)


@pytest.mark.parametrize("base_name", [*TWO_ARC_CUBIC, "pgl2_7", "pgl2_11"])
def test_reversal_symmetry(base_name):
    """On the dart graph of every two-arc-transitive cubic builtin, stress
    and PGL(2, 7 | 11) graph, both induced orientations have the same
    alternating cycles, and their antipodal involution is the dart
    reversal.  Above 12 darts its quotient is the line graph of the base,
    as a labeled graph, with the dart (u, v) in the fibre of the edge
    {u, v}: the covering that cover:dart_covers_line_graph checks through
    the labeling."""
    if base_name.startswith("pgl2_"):
        base = pgl2_graph(int(base_name[len("pgl2_"):]))
    else:
        base = TWO_ARC_CUBIC[base_name]()
    g, natural, labeling, lifted = dart_with_lift(base)
    dec1 = alternating_cycles(g, natural)
    dec2 = alternating_cycles(g, natural.reverse())
    assert dec1.cycles == dec2.cycles
    assert attachment_sets(dec1) == attachment_sets(dec2)
    tau = antipodal_involution(g, dec1, lifted)
    assert tau == reversed_darts(labeling)
    if g.n <= 12:
        return      # K4: no quotient by tau below 13 darts
    cover = quotient_by_tau(g, tau)
    line, line_edges = line_graph(base)
    index = {e: i for i, e in enumerate(line_edges)}
    assert cover.base == line
    assert cover.fibre_map == tuple(index[min(u, v), max(u, v)]
                                    for u, v in labeling.darts)


def test_antipodal_dart_k4_is_reversal(k4):
    g, natural, labeling, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    tau = antipodal_involution(g, dec, lifted)
    assert tau == reversed_darts(labeling)


def test_antipodal_verified_heawood(heawood):
    from hatkit.perms import compose
    g, natural, labeling, lifted = dart_with_lift(heawood)
    dec = alternating_cycles(g, natural)
    tau = antipodal_involution(g, dec, lifted)
    assert all(tau[tau[v]] == v and tau[v] != v for v in range(g.n))
    assert all(tau[b] in g.nbrs[tau[a]] for a, b in g.edges)
    assert all(compose(tau, s) == compose(s, tau) for s in lifted.generators)


def test_antipode_mismatch_names_vertex_and_both_antipodes():
    """Vertex 0 sits opposite 2 on the cycle (0, 1, 2, 3) but opposite 1
    on (0, 3, 1, 2): antipodal_involution raises AntipodeMismatch naming
    the vertex and both antipodes, before it reads the group."""
    dec = AltDecomposition(cycles=((0, 1, 2, 3), (0, 3, 1, 2)), radius=2,
                           attachment=2, ell=2, cycles_at_vertex=((0, 1),) * 4)
    with pytest.raises(AntipodeMismatch) as info:
        antipodal_involution(cycle_graph(4), dec, schreier_sims([], degree=4))
    assert str(info.value) == (
        "vertex 0: antipode 2 on one cycle but 1 on the other")


def test_antipodal_odd_attachment(holt):
    group = automorphism_group(holt)
    d = half_arc_orientation(holt, transitivity_report(group, holt))
    dec = alternating_cycles(holt, d)
    assert dec.attachment % 2 == 1
    with pytest.raises(OddAttachment):
        antipodal_involution(holt, dec, group)


THEOREM = "arc_transitive_if_a_twice_odd_not_dividing_r"


def test_holt_alternating_parameters(holt):
    group = automorphism_group(holt)
    d = half_arc_orientation(holt, transitivity_report(group, holt))
    dec = alternating_cycles(holt, d)
    assert (dec.radius, dec.attachment, dec.ell) == (9, 9, 2)
    assert dec.tightly_attached     # a = r (Marušič 1998)
    assert len(dec.cycles) == 3
    # Aut(Holt) is half-arc-transitive and a = 9 divides r = 9: both
    # checks pass with no reversal and no open-question note
    passed = []
    assert divisibility_checks(dec, passed) is None
    assert passed == [("a_divides_2r", "(r, a) = (9, 9)"),
                      (THEOREM, "(r, a) = (9, 9)")]


def test_divisibility_dart_case(k4):
    """Dart(K4) has (r, a) = (3, 2), so the theorem's hypothesis holds:
    the antipodal involution's image of a natural arc proves it, and
    claiming that the lift is Aut(X), by passing no reversal, fails the
    theorem with (r, a) as witness."""
    g, natural, _, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    assert 2 * dec.radius % dec.attachment == 0
    assert dec.radius % dec.attachment and dec.attachment % 4 == 2
    tau = antipodal_involution(g, dec, lifted)
    t, h = next((t, h) for t, h in natural.arcs
                if tau[t] in natural.out_adj[tau[h]])
    passed = []
    reversal = ((t, h), (tau[t], tau[h]))
    assert divisibility_checks(dec, passed, reversal) is None
    assert passed == [
        ("a_divides_2r", "(r, a) = (3, 2)"),
        (THEOREM, f"(r, a) = (3, 2), an automorphism maps arc {(t, h)} to "
                  f"{(tau[t], tau[h])}")]
    with pytest.raises(StructureViolation) as info:
        divisibility_checks(dec, [])
    assert (info.value.check, info.value.witness) == (THEOREM,
                                                      "(r, a) = (3, 2)")


def by_keyword(r, a):
    """A decomposition with radius r and attachment a and no cycles; the
    divisibility checks read only r and a."""
    return AltDecomposition(cycles=(), radius=r, attachment=a,
                            ell=2 * r // a, cycles_at_vertex=())


def test_divisibility_checks_sweep():
    """Every (r, a) with a | 2r and r <= 40.  With a reversal both checks
    pass and no note appears.  Without one, the analysed group being
    Aut(X), the theorem fails, naming (r, a), exactly when a = 2 (mod 4)
    and a does not divide r; otherwise the note appears exactly when a
    does not divide r, and then 4 divides a.  The two equivalences the
    docstring proves hold on every pair."""
    for r in range(1, 41):
        for a in (a for a in range(1, 2 * r + 1) if 2 * r % a == 0):
            dec, witness = by_keyword(r, a), f"(r, a) = ({r}, {a})"
            assert (dec.ell % 2 == 1) == (r % a != 0)
            assert ((r % 2 == 1 and r % a != 0)
                    == (a % 4 == 2 and r % a != 0))
            passed = []
            assert divisibility_checks(dec, passed, ((0, 1), (1, 0))) is None
            assert [name for name, _ in passed] == ["a_divides_2r", THEOREM]
            passed = []
            if a % 4 == 2 and r % a:
                with pytest.raises(StructureViolation) as info:
                    divisibility_checks(dec, passed)
                assert (info.value.check, info.value.witness) == (THEOREM,
                                                                  witness)
                assert passed == [("a_divides_2r", witness)]
                continue
            note = divisibility_checks(dec, passed)
            assert passed == [("a_divides_2r", witness), (THEOREM, witness)]
            assert (note is not None) == (r % a != 0), (r, a)
            if note is not None:
                assert witness in note and a % 4 == 0


def test_induced_alt_action_dart_k4(k4):
    g, natural, _, lifted = dart_with_lift(k4)
    dec = alternating_cycles(g, natural)
    altg = alt_graph(dec)
    assert is_isomorphic(altg, k4) is not None
    action, arc_transitive = induced_alt_action(lifted, dec)
    assert arc_transitive  # ell = 3 is odd
    assert action.order >= 12


def test_induced_alt_action_holt(holt):
    group = automorphism_group(holt)
    d = half_arc_orientation(holt, transitivity_report(group, holt))
    dec = alternating_cycles(holt, d)
    altg = alt_graph(dec)
    assert altg.n == 3
    action, arc_transitive = induced_alt_action(group, dec)
    assert not arc_transitive  # ell = 2 is even


# Dart(K4) with its lifted group and alternating cycles (4 cycles, radius
# 3, attachment 2, ell 3), and decompositions made by hand on a triangle.
# replace(dec, ...) changes fields of dec but keeps its graph of
# alternating cycles, so that a wrong ell reaches the checks that read
# the graph instead of failing alt_graph_regular when the graph is built.
_FAULT_SETUP = (
    "import sys\n"
    "from hatkit import records\n"
    "def replace(dec, **changes):\n"
    "    faulty = records.replace(dec, **changes)\n"
    "    faulty.cycle_graph = dec.cycle_graph\n"
    "    return faulty\n"
    "from hatkit.altcycles import (AltDecomposition, alt_graph,\n"
    "    alternating_cycles, antipodal_involution, divisibility_checks,\n"
    "    induced_alt_action)\n"
    "from hatkit.autgroup import automorphism_group\n"
    "from hatkit.census import complete_graph\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.errors import StructureViolation\n"
    "from hatkit.graphs import from_edge_list\n"
    "from hatkit.perms import schreier_sims\n"
    "k4 = complete_graph(4)\n"
    "g, natural, labeling = dart_graph(k4)\n"
    "lifted = lift_automorphisms(k4, automorphism_group(k4), labeling)\n"
    "dec = alternating_cycles(g, natural)\n"
    "triangle = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])\n"
    "def by_hand(cycles):\n"
    "    return AltDecomposition(cycles=cycles, radius=1, attachment=2,\n"
    "        ell=1, cycles_at_vertex=())\n"
)


@pytest.mark.parametrize("fault,check,witness", [
    ("alt_graph(replace(dec, ell=4))",
     "alt_graph_regular", "cycle 0 meets 3 cycles, not 2r/a = 4"),
    ("antipodal_involution(g, replace(dec, cycles=tuple(\n"
     "    c for c in dec.cycles if 0 not in c)), lifted)",
     "antipodal_total", "vertex 0 lies on no alternating cycle"),
    ("antipodal_involution(triangle, by_hand(((0, 1, 2),)),\n"
     "                     schreier_sims([], degree=3))",
     "antipodal_involution", "the antipode of the antipode of 0 is 2"),
    ("antipodal_involution(triangle, by_hand(((0,), (1, 2))),\n"
     "                     schreier_sims([], degree=3))",
     "antipodal_fixed_point_free", "vertex 0 is its own antipode"),
    ("antipodal_involution(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),\n"
     "                     by_hand(((0, 2), (1, 3))),\n"
     "                     schreier_sims([], degree=4))",
     "antipodal_automorphism", "edge (1, 2) maps to the non-edge (3, 0)"),
    ("antipodal_involution(from_edge_list(4, [(0, 1), (2, 3)]),\n"
     "                     by_hand(((0, 1), (2, 3))),\n"
     "                     schreier_sims([(2, 1, 0, 3)]))",
     "antipodal_centralizes",
     "generator 0 of the group does not commute with the antipodal map "
     "at vertex 0"),
    ("induced_alt_action(schreier_sims([], degree=g.n), dec)",
     "alt_action_transitive", "the orbit of cycle 0 has 1 of 4 cycles"),
    ("induced_alt_action(lifted, replace(dec, ell=4))",
     "alt_action_arc_transitive_iff_ell_odd",
     "ell = 4 is even but the action on the cycles is arc-transitive"),
    ("divisibility_checks(dec, [])",
     "arc_transitive_if_a_twice_odd_not_dividing_r", "(r, a) = (3, 2)"),
])
def test_altcycles_checks_run_under_optimize(fault, check, witness):
    """Each alternating-cycle invariant is a raise, not an assert: a fault
    that breaks it fails under python -O with StructureViolation naming
    the check and giving the witness."""
    code = _FAULT_SETUP + (
        "try:\n"
        f"    {fault}\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(': ', 1)\n"
        f"    print(sys.flags.optimize, name, {witness!r} in detail)\n"
    )
    assert run_optimized(code) == ["1", check, "True"]


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
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    assert group.order == r * 2 ** r
    report = transitivity_report(group, g)
    assert report.half_arc_transitive
    d = half_arc_orientation(g, report)
    assert forward in (d, d.reverse())
    dec = alternating_cycles(g, forward)
    assert (dec.radius, dec.attachment, dec.ell) == (2, 2, 2)
    # a = 2 divides r = 2, so the theorem holds with no reversal given
    passed = []
    assert divisibility_checks(dec, passed) is None
    assert passed == [("a_divides_2r", "(r, a) = (2, 2)"),
                      (THEOREM, "(r, a) = (2, 2)")]


def test_wreath_group_induced_alt_action_not_arc_transitive():
    r = 5
    g, forward = forward_wreath_orientation(r)
    group = wreath_forward_group(r)
    dec = alternating_cycles(g, forward)
    altg = alt_graph(dec)
    assert is_isomorphic(altg, cycle_graph(r)) is not None
    action, arc_transitive = induced_alt_action(group, dec)
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


def reference_orientation(graph, arcs):
    """Orientation as it was built, arc by arc with an edge check each:
    (arcs, heads by edge, in-edges, out-edges), or OrientationInvalid
    with the same message.  The reference for the one-pass build."""
    head = {}
    for tail, hd in arcs:
        key = (min(tail, hd), max(tail, hd))
        if not graph.has_edge(tail, hd):
            raise OrientationInvalid(f"({tail}, {hd}) is not an edge")
        if key in head:
            raise OrientationInvalid(f"edge {key} directed twice")
        head[key] = hd
    if len(head) != graph.m:
        raise OrientationInvalid(f"{len(head)} of {graph.m} edges directed")
    in_edges = [[] for _ in range(graph.n)]
    out_edges = [[] for _ in range(graph.n)]
    for key, hd in head.items():
        in_edges[hd].append(key)
        out_edges[key[0] if key[1] == hd else key[1]].append(key)
    for v in range(graph.n):
        if len(in_edges[v]) != 2 or len(out_edges[v]) != 2:
            raise OrientationInvalid(
                f"vertex {v} has in-degree {len(in_edges[v])} and "
                f"out-degree {len(out_edges[v])}, expected 2 and 2")
    oriented = tuple((k[0], k[1]) if head[k] == k[1] else (k[1], k[0])
                     for k in sorted(head))
    return (oriented, head, [sorted(e) for e in in_edges],
            [sorted(e) for e in out_edges])


def reference_cycles(g, d):
    """The alternating cycles as they were walked, edge by edge through
    each vertex's in- or out-edges, in canonical form."""
    _, head, in_edges, out_edges = reference_orientation(g, d.arcs)
    assigned, cycles = set(), []
    for e0 in g.edges:
        if e0 in assigned:
            continue
        h0 = head[e0]
        seq, e, w = [], e0, h0
        while True:
            came_from = e[0] if e[1] == w else e[1]
            seq.append(came_from)
            assigned.add(e)
            pair = (in_edges[w] if head[min(w, came_from), max(w, came_from)]
                    == w else out_edges[w])
            e = pair[0] if pair[1] == e else pair[1]
            w = e[0] if e[1] == w else e[1]
            if (e, w) == (e0, h0):
                break
        cycles.append(_canonical_cycle(seq))
    return tuple(cycles)


def reference_spacing_fault(cycles, ell):
    """The alt_intersection_spacing witness as it was found, sorting the
    positions of each intersection on both its cycles; "" when each
    intersection is spaced every ell steps."""
    at_vertex = {}
    for i, cyc in enumerate(cycles):
        for v in cyc:
            at_vertex.setdefault(v, []).append(i)
    by_pair = {}
    for v in sorted(at_vertex):
        by_pair.setdefault(tuple(sorted(at_vertex[v])), []).append(v)
    positions = [{v: p for p, v in enumerate(cyc)} for cyc in cycles]
    for (i, j), verts in by_pair.items():
        for c in (i, j):
            ps = sorted(positions[c][v] for v in verts)
            gaps = [ps[k + 1] - ps[k] for k in range(len(ps) - 1)]
            gaps.append(len(cycles[c]) - ps[-1] + ps[0])
            if any(gap != ell for gap in gaps):
                return (f"alt_intersection_spacing: the intersection of "
                        f"cycles {i} and {j} is not spaced every {ell} "
                        f"steps on cycle {c}: gaps {gaps}")
    return ""


def attachment_sets(dec):
    """The vertices grouped by the pair of cycles through them
    (dec.cycles_at_vertex), each group sorted, by least vertex: the
    attachment-set block system."""
    by_pair = {}
    for v, pair in enumerate(dec.cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)
    return tuple(sorted(map(tuple, by_pair.values())))


def cycle_of_edge(dec):
    """The index of the cycle of dec through each edge, keyed by (min,
    max).  Read off the cycles, not off cycles_at_vertex: when ell = 1
    both ends of every edge lie on the same two cycles."""
    return {(min(x, y), max(x, y)): c for c, cyc in enumerate(dec.cycles)
            for x, y in zip(cyc, cyc[1:] + cyc[:1])}


def reference_cycle_images(group, dec):
    """cycle_images as it was computed, looking up the cycle of each image
    edge; None where a cycle does not map onto one cycle."""
    images, edge_cycle = [], cycle_of_edge(dec)
    for s in group.generators:
        img = []
        for cyc in dec.cycles:
            targets = {edge_cycle.get(
                (min(s[x], s[y]), max(s[x], s[y])))
                for x, y in zip(cyc, cyc[1:] + cyc[:1])}
            img.append(targets.pop() if len(targets) == 1 else None)
        images.append(tuple(img))
    return images


def half_arc_orientations():
    """(name, g, d, group): the natural orientations of the dart graphs of
    the cubic builtin graphs and of Dyck's and Foster's graphs, with the
    lift of Aut; both induced orientations of Holt's graph, with Aut; and
    the two wreath orientations, with the trivial group."""
    out = []
    bases = [(e.name, e.graph()) for e in builtin_entries()
             if valence(e.graph()) == 3]
    bases += [("dyck", STRESS_GRAPHS[1]()), ("foster", STRESS_GRAPHS[-1]())]
    for name, base in bases:
        g, natural, _, lifted = dart_with_lift(base)
        out.append((f"dart_{name}", g, natural, lifted))
    holt = holt_graph()
    group = automorphism_group(holt)
    induced = half_arc_orientation(holt, transitivity_report(group, holt))
    for i, d in enumerate((induced, induced.reverse())):
        out.append((f"holt{i}", holt, d, group))
    for name, (g, d) in (("forward", forward_wreath_orientation(5)),
                         ("spiral", spiral_wreath_orientation(4))):
        out.append((name, g, d, schreier_sims([], degree=g.n)))
    return out


def test_orientation_matches_reference():
    """The one-pass Orientation keeps the reference's arcs, heads and
    in- and out-neighbours, and fails with its message on a missing arc,
    an edge directed twice, a non-edge and a vertex of out-degree 4."""
    for _, g, d, _ in half_arc_orientations():
        for arcs in (d.arcs, d.reverse().arcs):
            oriented, head, in_edges, out_edges = reference_orientation(
                g, arcs)
            built = Orientation(g, reversed(arcs))
            assert built.arcs == oriented
            assert all(head[u, v] in built.out_adj[u + v - head[u, v]]
                       for u, v in g.edges)
            for v in range(g.n):
                assert sorted(built.in_adj[v]) == [
                    a + b - v for a, b in in_edges[v]]
                assert sorted(built.out_adj[v]) == [
                    a + b - v for a, b in out_edges[v]]
    g, arcs = circulant_k5()
    faults = [arcs[:-1], arcs[:-1] + [arcs[0]],
              arcs[:-1] + [arcs[-1][::-1], arcs[-1]], [(0, 0)] + arcs[1:],
              list(g.edges), arcs + [(0, 2)]]
    for fault in faults:
        with pytest.raises(OrientationInvalid) as reference:
            reference_orientation(g, fault)
        with pytest.raises(OrientationInvalid) as info:
            Orientation(g, fault)
        assert str(info.value) == str(reference.value)


def test_alternating_cycles_and_images_match_references():
    """The walk along in- and out-neighbours gives the reference's cycles,
    the spacing check by shifting passes where the reference's passes, and
    each generator's cycle images are the reference's."""
    for name, g, d, group in half_arc_orientations():
        dec = alternating_cycles(g, d)
        assert dec.cycles == reference_cycles(g, d), name
        assert reference_spacing_fault(dec.cycles, dec.ell) == ""
        assert cycle_images(group, dec) == reference_cycle_images(group, dec)


def test_alt_checks_fail_with_reference_witness():
    """Unevenly spaced intersections (conftest.unevenly_spaced) fail
    alt_intersection_spacing, and a transposition of two vertices of
    Dart(K4) fails cycle_images, each with the witness the reference
    gives, also under python -O."""
    g, arcs = unevenly_spaced()
    d = Orientation(g, arcs)
    with pytest.raises(StructureViolation) as info:
        alternating_cycles(g, d)
    spacing = str(info.value)
    cycles = reference_cycles(g, d)
    assert spacing == reference_spacing_fault(cycles, len(cycles[0]) // 2)
    dart, natural, _ = dart_graph(complete_graph(4))
    dec = alternating_cycles(dart, natural)
    swap = schreier_sims([(1, 0) + tuple(range(2, dart.n))])
    first = reference_cycle_images(swap, dec)[0].index(None)
    with pytest.raises(NotInvariant) as info:
        cycle_images(swap, dec)
    images = str(info.value)
    assert images == (f"generator 0 does not map alternating cycle {first} "
                      "onto an alternating cycle")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from conftest import unevenly_spaced\n"
        "from hatkit.altcycles import (Orientation, alternating_cycles,\n"
        "                              cycle_images)\n"
        "from hatkit.census import complete_graph\n"
        "from hatkit.dartgraph import dart_graph\n"
        "from hatkit.errors import NotInvariant, StructureViolation\n"
        "from hatkit.perms import schreier_sims\n"
        "print(sys.flags.optimize)\n"
        "g, arcs = unevenly_spaced()\n"
        "try:\n"
        "    alternating_cycles(g, Orientation(g, arcs))\n"
        "except StructureViolation as exc:\n"
        "    print(exc)\n"
        "dart, natural, _ = dart_graph(complete_graph(4))\n"
        "swap = schreier_sims([(1, 0) + tuple(range(2, dart.n))])\n"
        "try:\n"
        "    cycle_images(swap, alternating_cycles(dart, natural))\n"
        "except NotInvariant as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code) == ["1"] + f"{spacing} {images}".split()
