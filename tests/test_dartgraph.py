import random
from itertools import combinations

import pytest

from hatkit.errors import (
    Not2ArcTransitive,
    NotAutomorphisms,
    NotConnected,
    NotCubic,
    OrientationInvalid,
    StructureViolation,
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
from hatkit.census import builtin_entries, pgl2_graph
from hatkit import dartgraph
from hatkit.dartgraph import (
    dart_graph,
    dart_reversal,
    lift_automorphisms,
    psi_isomorphism,
    verify_dart_forward,
    wreath_graph,
)
from hatkit.covers import is_covering

from conftest import (STRESS_GRAPHS, STRESS_NAMES, cycle_graph, lift_chain,
                      run_optimized)


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
    assert lift_chain(lifted).orbit_partition() == (tuple(range(12)),)


def test_lift_faithful_check_runs_under_optimize():
    """lift_faithful is a raise, not an assert: it checks the premise of
    the proof that the lift is faithful, that every base vertex is the
    tail of a dart.  With the darts out of Petersen vertex 7 dropped from
    the labeling, the check fails under python -O, naming vertex 7."""
    code = (
        "import sys\n"
        "from hatkit import records\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "labeling = dart_graph(petersen)[2]\n"
        "labeling = records.replace(labeling, darts=tuple(\n"
        "    d for d in labeling.darts if d[0] != 7))\n"
        "try:\n"
        "    lift_automorphisms(petersen, automorphism_group(petersen),\n"
        "                       labeling)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, str(exc))\n"
    )
    assert run_optimized(code) == [
        "1", "StructureViolation", "lift_faithful:", "base", "vertex", "7",
        "is", "the", "tail", "of", "no", "dart"]


def test_lift_orientation_check_runs_under_optimize():
    """lift_preserves_natural_orientation is a raise, not an assert: with
    the darts of Petersen's outer 5-cycle reversed in the labeling's
    orientation, a lifted generator moves an arc off it, and the check
    fails under python -O with the generator and the arc."""
    code = (
        "import sys\n"
        "from hatkit import records\n"
        "from hatkit.altcycles import Orientation\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dart_graph(petersen)\n"
        "step = [labeling.index[(i, (i + 1) % 5)] for i in range(5)]\n"
        "flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        "labeling = records.replace(labeling, orientation=mixed)\n"
        "try:\n"
        "    lift_automorphisms(petersen, automorphism_group(petersen),\n"
        "                       labeling)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, type(exc).__name__, name,\n"
        "          'generator' in detail, 'natural arc' in detail)\n"
    )
    assert run_optimized(code) == [
        "1", "StructureViolation", "lift_preserves_natural_orientation",
        "True", "True"]


# Edits of Dart(Petersen)'s labeling that break one fact of dart_reversal
# each: the dart index patched on the darts (0,1), (1,0), (0,4), (4,0), or
# the darts of the outer 5-cycle reversed in the orientation.
_REVERSAL_FAULTS = {
    "reversal_fixed_point_free": "index={**i, (1, 0): i[(0, 1)]}",
    "reversal_involution": "index={**i, (1, 0): i[(4, 0)], (4, 0): i[(1, 0)]}",
    "reversal_automorphism": (
        "index={**i, (1, 0): i[(4, 0)], (4, 0): i[(1, 0)],\n"
        "       (0, 1): i[(0, 4)], (0, 4): i[(0, 1)]}"),
    "reversal_reverses_orientation": "orientation=mixed",
}


@pytest.mark.parametrize("check", _REVERSAL_FAULTS)
def test_dart_reversal_checks_run_under_optimize(check):
    """dart_reversal's four checks are raises, not asserts: a labeling
    edited to break one fact fails under python -O, naming that check
    and giving a witness."""
    code = (
        "import sys\n"
        "from hatkit import records\n"
        "from hatkit.altcycles import Orientation\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, dart_reversal\n"
        "from hatkit.errors import StructureViolation\n"
        "g, natural, labeling = dart_graph(generalized_petersen(5, 2))\n"
        "i = labeling.index\n"
        "step = [i[(k, (k + 1) % 5)] for k in range(5)]\n"
        "flip = {(step[k], step[(k + 1) % 5]) for k in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        f"labeling = records.replace(labeling, {_REVERSAL_FAULTS[check]})\n"
        "try:\n"
        "    dart_reversal(labeling)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, type(exc).__name__, name,\n"
        "          any(c.isdigit() for c in detail))\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation", check, "True"]


@pytest.mark.parametrize("field,value,check", [
    ("radius", 4, "dart_radius_3"),
    ("attachment", 1, "dart_attachment_2"),
])
def test_verify_dart_forward_parameter_checks_run_under_optimize(
        field, value, check):
    """Radius 3 and attachment 2 are checked by raises, not asserts: with
    alternating_cycles made to report another value, verify_dart_forward
    fails under python -O, naming the check with (radius, attachment)."""
    code = (
        "import sys\n"
        "from hatkit import records\n"
        "from hatkit import dartgraph\n"
        "from hatkit.autgroup import automorphism_group, transitivity_report\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "real = dartgraph.alternating_cycles\n"
        "dartgraph.alternating_cycles = lambda g, d: records.replace(\n"
        f"    real(g, d), {field}={value})\n"
        "petersen = generalized_petersen(5, 2)\n"
        "group = automorphism_group(petersen)\n"
        "report = transitivity_report(group, petersen)\n"
        "try:\n"
        "    dartgraph.verify_dart_forward(petersen, group, report)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, str(exc))\n"
    )
    radius, attachment = {"radius": (value, 2), "attachment": (3, value)}[field]
    assert run_optimized(code) == [
        "1", "StructureViolation", f"{check}:", "(radius,", "attachment)",
        "=", f"({radius},", f"{attachment})"]


def test_verify_dart_forward_k4(k4):
    group = automorphism_group(k4)
    report = verify_dart_forward(k4, group, transitivity_report(group, k4))
    assert report.radius == 3 and report.attachment == 2 and report.ell == 3
    assert [name for name, _ in report.checks] == [
        "dart_half_arc_transitive", "natural_orientation_induced",
        "dart_radius_3", "dart_attachment_2", "alt_reconstructs_base"]
    assert report.dart_order == 12


def test_verify_dart_forward_names_lift_not_half_arc_transitive(
        monkeypatch, petersen):
    """dart_half_arc_transitive is a named check: with the trivial group on
    the darts in place of the lift, verify_dart_forward fails it with the
    orders of the lift and the group as witness."""
    monkeypatch.setattr(dartgraph, "lift_automorphisms",
                        lambda base, group, labeling:
                        schreier_sims([], degree=len(labeling.darts)))
    group = automorphism_group(petersen)
    with pytest.raises(StructureViolation) as info:
        verify_dart_forward(petersen, group,
                            transitivity_report(group, petersen))
    assert info.value.check == "dart_half_arc_transitive"
    assert info.value.witness == "the lift has order 1, the group 120"


# Every dart entry: the builtin and stress cubic 2-arc-transitive graphs,
# and PGL(2, 7) and PGL(2, 11) (168 and 660 darts).
DART_ENTRIES = {e.name: e.graph for e in builtin_entries()
                if e.expected["valence"] == 3
                and e.expected["two_arc_transitive"]}
DART_ENTRIES.update(zip(STRESS_NAMES[1:], STRESS_GRAPHS[1:]))
DART_ENTRIES.update((f"pgl2_{p}", lambda p=p: pgl2_graph(p)) for p in (7, 11))


@pytest.mark.parametrize("name", DART_ENTRIES)
def test_dart_classification_matches_lift_report(name):
    """verify_dart_forward makes no transitivity report of the lift: it
    proves the lift half-arc-transitive with the natural orientation
    induced from Aut(g)'s 2-arc-transitivity, the lift's order and the
    lift keeping the natural orientation.  The reference classifies the
    lift from a chain of the lifted generators, built here: it is
    half-arc-transitive, and its two arc orbits are the natural arcs and
    their reverses."""
    g = DART_ENTRIES[name]()
    group = automorphism_group(g)
    forward = verify_dart_forward(g, group, transitivity_report(group, g))
    assert forward.checks[:2] == (("dart_half_arc_transitive", ""),
                                  ("natural_orientation_induced", ""))
    reference = transitivity_report(lift_chain(forward.lifted_group),
                                    forward.labeling.graph)
    assert reference.half_arc_transitive
    natural = frozenset(forward.labeling.orientation.arcs)
    assert {frozenset(orbit) for orbit in reference.arc_orbits} == {
        natural, frozenset((h, t) for t, h in natural)}


@pytest.mark.parametrize("name", DART_ENTRIES)
def test_lift_membership_matches_chain(name):
    """LiftedGroup.contains keeps no chain of the lift, yet agrees with a
    chain of the lifted generators built here, for the lift of Aut(g) and
    of the subgroup H that Aut(g)'s first generator generates; both have
    the order of the group they lift.  The probes: the dart reversal,
    which fails condition 1; the lifted generators and words in them;
    seeded random dart permutations that keep tails (condition 1) but
    are no lift (condition 2); lifts of words in Aut(g) broken by
    swapping the images of two darts out of one vertex (condition 2);
    and those lifts unbroken, which for H include lifts of elements
    outside H (condition 3)."""
    rng = random.Random(name)
    g = DART_ENTRIES[name]()
    aut = automorphism_group(g)
    dart, _, labeling = dart_graph(g)
    out_of = [[] for _ in range(g.n)]
    for i, (u, _) in enumerate(labeling.darts):
        out_of[u].append(i)

    def words(gens):
        for _ in range(10):
            word = gens[0]
            for _ in range(rng.randint(1, 6)):
                word = compose(word, rng.choice(gens))
            yield word

    def keeps_tails():
        sigma = rng.sample(range(g.n), g.n)
        p = [None] * dart.n
        for u in range(g.n):
            for i, j in zip(out_of[u], rng.sample(out_of[sigma[u]], 3)):
                p[i] = j
        return tuple(p)

    def broken(p):
        i, j = rng.sample(out_of[rng.randrange(g.n)], 2)
        q = list(p)
        q[i], q[j] = q[j], q[i]
        return tuple(q)

    aut_lifts = list(words(lift_automorphisms(g, aut, labeling).generators))
    subgroup = schreier_sims(aut.generators[:1], degree=g.n)
    for group in (aut, subgroup):
        lifted = lift_automorphisms(g, group, labeling)
        chain = lift_chain(lifted)
        assert lifted.order == chain.order == group.order
        reversal = dart_reversal(labeling)
        assert not lifted.contains(reversal) and not chain.contains(reversal)
        for p in list(lifted.generators) + list(words(lifted.generators)):
            assert lifted.contains(p) and chain.contains(p)
        for p in [broken(p) for p in aut_lifts]:
            assert not lifted.contains(p) and not chain.contains(p)
        for p in aut_lifts + [keeps_tails() for _ in range(10)]:
            assert lifted.contains(p) == chain.contains(p)
    assert not all(lifted.contains(p) for p in aut_lifts)


def test_verify_dart_forward_heawood(heawood):
    group = automorphism_group(heawood)
    report = verify_dart_forward(heawood, group,
                                 transitivity_report(group, heawood))
    assert report.dart_order == 42
    assert report.radius == 3 and report.attachment == 2


def test_verify_dart_forward_rejects_wrong_reconstruction_under_optimize():
    """The cycle -> shared vertex map is checked by a raise, not an
    assert: a graph of alternating cycles that is not the base (the prism
    GP(5,1) in place of the Petersen graph) fails under python -O."""
    code = (
        "import sys\n"
        "from hatkit import altcycles, dartgraph\n"
        "from hatkit.autgroup import automorphism_group, transitivity_report\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "altcycles.alt_graph = lambda dec: generalized_petersen(5, 1)\n"
        "group = automorphism_group(petersen)\n"
        "report = transitivity_report(group, petersen)\n"
        "try:\n"
        "    dartgraph.verify_dart_forward(petersen, group, report)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation"]


def test_psi_rejects_uninduced_orientation_under_optimize():
    """psi's checks are raises that name themselves, not asserts: the
    natural orientation of Dart(Petersen) with the darts of the outer
    5-cycle reversed is a 2-in/2-out orientation that no group induces,
    and with the natural decomposition psi fails under python -O with the
    dart whose intersection pair has no unique head."""
    code = (
        "import sys\n"
        "from hatkit.altcycles import Orientation, alternating_cycles\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.dartgraph import dart_graph, psi_isomorphism\n"
        "from hatkit.errors import StructureViolation\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dart_graph(petersen)\n"
        "step = [labeling.index[(i, (i + 1) % 5)] for i in range(5)]\n"
        "flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        "try:\n"
        "    psi_isomorphism(g, mixed, alternating_cycles(g, natural))\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, type(exc).__name__, name,\n"
        "          'dart' in detail)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation",
                                   "psi_unique_head", "True"]


def test_verify_dart_forward_needs_two_arc_transitivity(k33):
    # a vertex-regular cyclic subgroup of Aut(K3,3): rotate the hexagon
    # 0,3,1,4,2,5 whose consecutive vertices alternate sides
    rho = from_cycles(6, [(0, 3, 1, 4, 2, 5)])
    group = schreier_sims([rho])
    rep = transitivity_report(group, k33)
    assert rep.vertex_transitive and not rep.two_arc_transitive
    with pytest.raises(Not2ArcTransitive):
        verify_dart_forward(k33, group, rep)


def test_psi_round_trip_pappus(pappus):
    g, natural, _ = dart_graph(pappus)
    dec = alternating_cycles(g, natural)
    psi, report = psi_isomorphism(g, natural, dec)
    assert [name for name, _ in report.checks] == [
        "psi_unique_head", "psi_bijective", "psi_preserves_adjacency",
        "psi_orientation_compatible"]
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
    _, _, rec_labeling = dart_graph(alt_graph(dec))
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
