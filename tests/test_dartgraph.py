import random
from itertools import combinations
from operator import getitem
from pathlib import Path

import pytest

from hatkit.errors import (
    DegreeMismatch,
    Not2ArcTransitive,
    check,
    NotAutomorphisms,
    NotConnected,
    NotCubic,
    NotPermutation,
    StructureViolation,
    TooSmall,
    WrongParameters,
)
from hatkit.graphs import (
    bipartite_double,
    edge_map_fault,
    from_edge_list,
    girth,
    is_connected,
    is_bipartite,
    line_graph,
    valence,
)
from hatkit.perms import compose, from_cycles, identity, orbits, schreier_sims
from hatkit.autgroup import automorphism_group, is_isomorphic, transitivity_report
from hatkit.altcycles import (alt_graph, alternating_cycles,
                              antipodal_involution, half_arc_orientation)
from hatkit.census import builtin_entries, generalized_petersen, pgl2_graph
from hatkit import dartgraph
from hatkit.dartgraph import (
    dart_graph,
    lift_automorphisms,
    psi_isomorphism,
    verify_dart_forward,
    wreath_graph,
)
from hatkit.covers import covering_fault

from conftest import (STRESS_GRAPHS, STRESS_NAMES, ForgedOrientation,
                      cycle_graph, lift_chain, psi_faults, random_regular,
                      reversed_darts, run_optimized)


def test_dart_counts_k4(k4):
    g, orientation, labeling = dart_graph(k4)
    assert g.n == 12 and g.m == 24
    assert valence(g) == 4 and girth(g) == 3
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


def antipodal_dart_involution(base):
    """(dart graph, labeling, lift, tau): tau is the antipodal involution
    of the natural orientation's alternating cycles, which is the dart
    reversal."""
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(automorphism_group(base), labeling)
    tau = antipodal_involution(g, alternating_cycles(natural), lifted)
    assert tau == reversed_darts(labeling)
    return g, labeling, lifted, tau


def test_dart_reversal_k4(k4):
    _, labeling, _, tau = antipodal_dart_involution(k4)
    moved = [i for i in range(12) if tau[i] != i]
    assert len(moved) == 12
    assert all(tau[tau[i]] == i for i in range(12))
    # every natural arc maps to a reversed arc
    natural = labeling.orientation
    assert all(tau[t] in natural.out_adj[tau[h]] for t, h in natural.arcs)


def test_dart_reversal_heawood_preserves_adjacency(heawood):
    g, _, _, tau = antipodal_dart_involution(heawood)
    assert g.n == 42 and g.m == 84  # 3n vertices, 6n edges over n = 14
    assert all(tau[b] in g.nbrs[tau[a]] for a, b in g.edges)


def test_reversal_commutes_with_lift(k4):
    _, _, lifted, tau = antipodal_dart_involution(k4)
    assert all(compose(tau, s) == compose(s, tau) for s in lifted.generators)


def test_lift_preserves_order(k4):
    group = automorphism_group(k4)
    _, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(group, labeling)
    assert lifted.order == 24 and lifted.degree == 12
    trivial = schreier_sims([], degree=4)
    assert lift_automorphisms(trivial, labeling).order == 1


def test_lift_rejects_non_automorphisms():
    """Every permutation of K4's vertices is an automorphism, so the
    cube's labeling meets one that is not: (0 2) maps its edge (0, 4) to
    a non-edge."""
    _, _, labeling = dart_graph(generalized_petersen(4, 1))
    bad = schreier_sims([from_cycles(8, [(0, 2)])])
    with pytest.raises(NotAutomorphisms) as info:
        lift_automorphisms(bad, labeling)
    assert str(info.value) == ("generator 0 does not preserve adjacency: "
                               "edge (0, 4) maps to the non-edge (2, 4)")
    with pytest.raises(NotCubic):
        dart_graph(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))


def test_lifted_membership_and_orbits(k4):
    group = automorphism_group(k4)
    _, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(group, labeling)
    tau = reversed_darts(labeling)
    assert not lifted.contains(tau)
    # a dart permutation is checked as every group's argument is
    with pytest.raises(DegreeMismatch) as info:
        lifted.contains(identity(13))
    assert str(info.value) == "permutation degree 13 != group degree 12"
    with pytest.raises(NotPermutation):
        lifted.contains((1,) + identity(12)[1:])
    assert orbits(range(12), lift_chain(lifted).generators, getitem) == [
        tuple(range(12))]


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
        "    lift_automorphisms(automorphism_group(petersen),\n"
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
        "step = [3 * i + petersen.adj[i].index((i + 1) % 5)\n"
        "        for i in range(5)]\n"
        "flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        "labeling = records.replace(labeling, orientation=mixed)\n"
        "try:\n"
        "    lift_automorphisms(automorphism_group(petersen),\n"
        "                       labeling)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, type(exc).__name__, name,\n"
        "          'generator' in detail, 'natural arc' in detail)\n"
    )
    assert run_optimized(code) == [
        "1", "StructureViolation", "lift_preserves_natural_orientation",
        "True", "True"]


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
        "dartgraph.alternating_cycles = lambda d: records.replace(\n"
        f"    real(d), {field}={value})\n"
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
    labeling, _, dec, checks = verify_dart_forward(
        k4, group, transitivity_report(group, k4))
    assert dec.radius == 3 and dec.attachment == 2 and dec.ell == 3
    assert [name for name, _ in checks] == [
        "dart_half_arc_transitive", "natural_orientation_induced",
        "dart_radius_3", "dart_attachment_2", "alt_reconstructs_base"]
    assert labeling.graph.n == 12


def test_verify_dart_forward_names_lift_not_half_arc_transitive(
        monkeypatch, petersen):
    """dart_half_arc_transitive is a named check: with the trivial group on
    the darts in place of the lift, verify_dart_forward fails it with the
    orders of the lift and the group as witness."""
    monkeypatch.setattr(dartgraph, "lift_automorphisms",
                        lambda group, labeling:
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
    labeling, lifted, _, checks = verify_dart_forward(
        g, group, transitivity_report(group, g))
    assert checks[:2] == (("dart_half_arc_transitive", ""),
                          ("natural_orientation_induced", ""))
    reference = transitivity_report(lift_chain(lifted), labeling.graph)
    assert reference.half_arc_transitive
    natural = frozenset(labeling.orientation.arcs)
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

    aut_lifts = list(words(lift_automorphisms(aut, labeling).generators))
    subgroup = schreier_sims(aut.generators[:1], degree=g.n)
    for group in (aut, subgroup):
        lifted = lift_automorphisms(group, labeling)
        chain = lift_chain(lifted)
        assert lifted.order == chain.order == group.order
        reversal = reversed_darts(labeling)
        assert not lifted.contains(reversal) and not chain.contains(reversal)
        for p in list(lifted.generators) + list(words(lifted.generators)):
            assert lifted.contains(p) and chain.contains(p)
        for p in [broken(p) for p in aut_lifts]:
            assert not lifted.contains(p) and not chain.contains(p)
        for p in aut_lifts + [keeps_tails() for _ in range(10)]:
            assert lifted.contains(p) == chain.contains(p)
    assert not all(lifted.contains(p) for p in aut_lifts)


def reference_lift(base, group):
    """(darts, 2-arcs, lifted strong generators, membership test) of the
    dart stage, with each dart found in a dict from darts to positions:
    the reference for the library's dart (u, v) at 3 u + adj[u].index(v)."""
    darts = tuple((u, v) for u in range(base.n) for v in base.adj[u])
    index = {d: i for i, d in enumerate(darts)}
    two_arcs = [(i, index[v, w]) for i, (u, v) in enumerate(darts)
                for w in base.adj[v] if w != u]
    generators = tuple(tuple(index[s[u], s[v]] for u, v in darts)
                       for s in group.strong_generators)

    def contains(p):
        sigma = [None] * base.n
        for (u, _), image in zip(darts, p):
            tail = darts[image][0]
            if sigma[u] is None:
                sigma[u] = tail
            elif sigma[u] != tail:
                return False
        if any(p[i] != index.get((sigma[u], sigma[v]))
               for i, (u, v) in enumerate(darts)):
            return False
        return group.contains(tuple(sigma))

    return darts, two_arcs, generators, contains


@pytest.mark.parametrize("name", DART_ENTRIES)
def test_dart_arithmetic_matches_dict_reference(name):
    """The 2-arcs of _darts, the lifted generators and LiftedGroup.contains
    agree with reference_lift, for the lift of Aut(g) and of the subgroup
    that Aut(g)'s first generator generates.  contains is probed on the
    lifted generators, on the dart reversal, on seeded random dart
    permutations, and on seeded tail-keeping ones: the lifts of words in
    Aut(g), with and without the images of two darts out of one vertex
    swapped, and, over random vertex permutations, the darts out of each
    vertex sent in a random order."""
    rng = random.Random(name)
    g = DART_ENTRIES[name]()
    aut = automorphism_group(g)
    dart, _, labeling = dart_graph(g)
    darts, two_arcs, _, _ = reference_lift(g, aut)
    assert labeling.darts == darts
    assert dartgraph._darts(g) == (darts, two_arcs)
    assert all(darts[3 * u + g.adj[u].index(v)] == (u, v) for u, v in darts)

    def tail_keeping():
        for _ in range(10):
            sigma = identity(g.n)
            for _ in range(rng.randint(1, 6)):
                sigma = compose(sigma, rng.choice(aut.generators))
            lift = [3 * sigma[u] + g.adj[sigma[u]].index(sigma[v])
                    for u, v in darts]
            yield tuple(lift)
            i = 3 * rng.randrange(g.n)
            lift[i], lift[i + 1] = lift[i + 1], lift[i]
            yield tuple(lift)
            sigma = rng.sample(range(g.n), g.n)
            yield tuple(3 * sigma[u] + k for u in range(g.n)
                        for k in rng.sample(range(3), 3))

    probes = [reversed_darts(labeling), *tail_keeping(),
              *(tuple(rng.sample(range(dart.n), dart.n)) for _ in range(10))]
    for group in (aut, schreier_sims(aut.generators[:1], degree=g.n)):
        lifted = lift_automorphisms(group, labeling)
        _, _, generators, contains = reference_lift(g, group)
        assert lifted.generators == generators
        checked = [*generators, *probes]
        verdicts = [lifted.contains(p) for p in checked]
        assert verdicts == [contains(p) for p in checked]
        assert all(verdicts[:len(generators)]) and not all(verdicts)


def test_verify_dart_forward_heawood(heawood):
    group = automorphism_group(heawood)
    labeling, _, dec, _ = verify_dart_forward(
        heawood, group, transitivity_report(group, heawood))
    assert labeling.graph.n == 42
    assert dec.radius == 3 and dec.attachment == 2


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
        "step = [3 * i + petersen.adj[i].index((i + 1) % 5)\n"
        "        for i in range(5)]\n"
        "flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}\n"
        "mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)\n"
        "                        for t, h in natural.arcs])\n"
        "try:\n"
        "    psi_isomorphism(mixed, alternating_cycles(natural))\n"
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
    dec = alternating_cycles(natural)
    psi, checks = psi_isomorphism(natural, dec)
    assert [name for name, _ in checks] == [
        "psi_unique_head", "psi_bijective", "psi_preserves_adjacency",
        "psi_orientation_compatible"]
    assert dec.cycle_graph.n == pappus.n
    assert sorted(psi) == list(range(g.n))


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()
                                  if valence(e.graph()) == 3])
def test_psi_of_reversed_orientation_follows_dart_reversal(name):
    """Both induced orientations have the same alternating cycles; psi
    built from the reverse is psi after the dart reversal of the dart
    graph of the reconstruction, with equal checks."""
    base = next(e for e in builtin_entries() if e.name == name).graph()
    g, natural, _ = dart_graph(base)
    dec = alternating_cycles(natural)
    psi, checks = psi_isomorphism(natural, dec)
    psi_rev, checks_rev = psi_isomorphism(natural.reverse(), dec)
    assert checks_rev == checks
    _, _, rec_labeling = dart_graph(alt_graph(dec))
    assert psi_rev == compose(reversed_darts(rec_labeling), psi)


def reference_psi(g, d, dec):
    """psi_isomorphism as it was made on a second dart graph: it builds
    dart_graph(dec.cycle_graph), with its natural orientation, and checks
    psi's adjacency on that graph's edges and its orientation on that
    orientation's arcs, in their order.  The reference for psi's tuple,
    checks and witnesses.  As psi_isomorphism does, it chooses the images
    with d.in_adj and checks the arcs with d.out_adj, which agree on any
    Orientation."""
    lam = dec.cycle_graph
    dart, natural, labeling = dart_graph(lam)
    by_pair = {}
    for v, pair in enumerate(dec.cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)
    positions = [{v: p for p, v in enumerate(cyc)} for cyc in dec.cycles]

    def heads_both_on(c, v):
        cyc = dec.cycles[c]
        p = positions[c][v]
        return (cyc[(p - 1) % len(cyc)] in d.in_adj[v]
                and cyc[(p + 1) % len(cyc)] in d.in_adj[v])

    psi, fault = [], ""
    for i, (c1, c2) in enumerate(labeling.darts):
        u, w = by_pair[min(c1, c2), max(c1, c2)]
        u_heads = heads_both_on(c1, u)
        if u_heads == heads_both_on(c1, w):
            fault = (f"dart {i} = ({c1}, {c2}): {2 * u_heads} of its pair "
                     f"({u}, {w}) head both edges on cycle {c1}, not 1")
            break
        psi.append(u if u_heads else w)
    checks = []
    check(checks, "psi_unique_head", not fault, fault)
    psi = tuple(psi)
    taken = {}
    pair = next(((taken[v], i) for i, v in enumerate(psi)
                 if taken.setdefault(v, i) != i), None)
    check(checks, "psi_bijective", pair is None,
          "" if pair is None else f"darts {pair} map to the same vertex")
    fault = edge_map_fault(psi, dart, g)
    check(checks, "psi_preserves_adjacency", not fault, fault)
    arc = next((a for a in natural.arcs
                if psi[a[1]] not in d.out_adj[psi[a[0]]]), None)
    check(checks, "psi_orientation_compatible", arc is None,
          "" if arc is None else f"natural arc {arc} maps against d")
    return psi, tuple(checks)


def connected_random_cubic(seed):
    rng = random.Random(seed)
    n = 2 * rng.randrange(6, 31)
    while True:
        g = random_regular(rng, n)
        if is_connected(g):
            return g


# The dart entries, F026 (cubic and symmetric but not 2-arc-transitive)
# and seeded random connected cubic graphs: the alternating cycles of any
# dart graph's natural orientation have (r, a) = (3, 2), the cycle of base
# vertex x being the six darts at x.
PSI_BASES = dict(DART_ENTRIES, f026=STRESS_GRAPHS[0])
PSI_BASES.update((f"random{seed}", lambda seed=seed: connected_random_cubic(
    seed)) for seed in range(6))


@pytest.mark.parametrize("name", PSI_BASES)
def test_psi_matches_dart_graph_reference(name):
    """psi_isomorphism builds no dart graph of the reconstruction, yet gives
    the reference's tuple and checks, from both orientations of the
    natural pair."""
    g, natural, _ = dart_graph(PSI_BASES[name]())
    dec = alternating_cycles(natural)
    for d in (natural, natural.reverse()):
        psi, checks = psi_isomorphism(d, dec)
        assert (psi, checks) == reference_psi(g, d, dec)
        assert sorted(psi) == list(range(g.n))


def test_psi_builds_no_dart_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(dartgraph, "dart_graph",
                        lambda base: calls.append(base) or dart_graph(base))
    g, natural, _ = dart_graph(STRESS_GRAPHS[-1]())
    psi_isomorphism(natural, alternating_cycles(natural))
    assert calls == []


def test_psi_checks_fail_with_their_witness():
    """Each of psi's four checks fails, with the witness the reference
    gives, when d breaks the premise it rests on (conftest.psi_faults);
    the orientation check fails at the first natural arc of the dart graph
    of the reconstruction.  The same witnesses under python -O."""
    messages = []
    for name, g, d, dec in psi_faults():
        with pytest.raises(StructureViolation) as info:
            psi_isomorphism(d, dec)
        assert info.value.check == name
        messages.append(str(info.value))
        with pytest.raises(StructureViolation) as reference:
            reference_psi(g, d, dec)
        assert str(reference.value) == messages[-1]
    natural = dart_graph(dec.cycle_graph)[1]
    assert messages[-1] == (f"psi_orientation_compatible: natural arc "
                            f"{natural.arcs[0]} maps against d")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from conftest import psi_faults\n"
        "from hatkit.dartgraph import psi_isomorphism\n"
        "from hatkit.errors import StructureViolation\n"
        "print(sys.flags.optimize)\n"
        "for name, g, d, dec in psi_faults():\n"
        "    try:\n"
        "        psi_isomorphism(d, dec)\n"
        "    except StructureViolation as exc:\n"
        "        print(exc)\n"
    )
    assert run_optimized(code) == ["1"] + " ".join(messages).split()


@pytest.mark.parametrize("name", ["petersen", "heawood", "dyck", "foster"])
def test_psi_witnesses_match_reference_on_seeded_faults(name):
    """Seeded faults of d of each kind in conftest.psi_faults, on a few
    edges or pairs at a time: psi fails with the reference's check and
    witness, so each is the first edge or natural arc in the order of the
    dart graph of the reconstruction."""
    g, natural, _ = dart_graph(PSI_BASES[name]())
    dec = alternating_cycles(natural)
    pairs = sorted({pair for pair in dec.cycles_at_vertex})
    rng = random.Random(name)
    failed = set()
    for trial in range(40):
        kind = trial % 4
        if kind == 0:
            edges = set(rng.sample(g.edges, 2))
            d = ForgedOrientation(natural, out_adj=tuple(
                tuple(v for v in g.adj[u] if (v in natural.out_adj[u]) != (
                    (min(u, v), max(u, v)) in edges))
                for u in range(g.n)))
        else:
            chosen = rng.sample(pairs, 1 + trial % 3)
            ends = {v for v in range(g.n)
                    if dec.cycles_at_vertex[v] in chosen}
            if kind == 1:
                def is_head(v, x):
                    return (x in natural.in_adj[v]) != (v in ends)
            elif kind == 2:
                first = {min(v for v in range(g.n)
                             if dec.cycles_at_vertex[v] == p) for p in chosen}

                def is_head(v, x):
                    return v in first or (v not in ends
                                          and x in natural.in_adj[v])
            else:
                flipped = set(rng.sample(g.edges, 1 + trial % 3))

                def is_head(v, x):
                    return (x in natural.in_adj[v]) != (
                        (min(v, x), max(v, x)) in flipped)
            d = ForgedOrientation(natural, is_head=is_head)
        with pytest.raises(StructureViolation) as reference:
            reference_psi(g, d, dec)
        with pytest.raises(StructureViolation) as info:
            psi_isomorphism(d, dec)
        assert str(info.value) == str(reference.value)
        failed.add(info.value.check)
    assert failed == {"psi_unique_head", "psi_bijective",
                      "psi_preserves_adjacency", "psi_orientation_compatible"}


# The dart stage of the Petersen graph with a forged input each time:
# _darts with its first 2-arc (0, 4) dropped or listed twice, and the
# alternating cycles with the first darts of two disjoint cycles swapped.
# Each outcome is (error type, its text), recorded in `outcomes`;
# patch(module, name, value) is monkeypatch.setattr in process and setattr
# under -O.
_FORGED_DART_STAGE = (
    "from hatkit import dartgraph, records\n"
    "from hatkit.altcycles import antipodal_involution\n"
    "from hatkit.autgroup import automorphism_group, transitivity_report\n"
    "from hatkit.census import generalized_petersen\n"
    "from hatkit.covers import cover_pipeline\n"
    "from hatkit.errors import HatError\n"
    "petersen = generalized_petersen(5, 2)\n"
    "group = automorphism_group(petersen)\n"
    "report = transitivity_report(group, petersen)\n"
    "real_darts, real_cycles = dartgraph._darts, dartgraph.alternating_cycles\n"
    "def dropped(base):\n"
    "    darts, arcs = real_darts(base)\n"
    "    return darts, arcs[1:]\n"
    "def repeated(base):\n"
    "    darts, arcs = real_darts(base)\n"
    "    return darts, arcs + arcs[:1]\n"
    "def swapped(d):\n"
    "    dec = real_cycles(d)\n"
    "    cycles = [list(c) for c in dec.cycles]\n"
    "    c = next(i for i, cyc in enumerate(cycles) if not set(cyc) & set(cycles[0]))\n"
    "    cycles[0][0], cycles[c][0] = cycles[c][0], cycles[0][0]\n"
    "    return records.replace(dec, cycles=tuple(map(tuple, cycles)))\n"
    "def outcome(call):\n"
    "    try:\n"
    "        call()\n"
    "    except HatError as exc:\n"
    "        return type(exc).__name__, str(exc)\n"
    "forward = lambda: dartgraph.verify_dart_forward(petersen, group, report)\n"
    "outcomes = []\n"
    "for module, name, forged in [(dartgraph, '_darts', dropped),\n"
    "                             (dartgraph, '_darts', repeated),\n"
    "                             (dartgraph, 'alternating_cycles', swapped)]:\n"
    "    real = getattr(module, name)\n"
    "    patch(module, name, forged)\n"
    "    outcomes.append(outcome(forward))\n"
    "    patch(module, name, real)\n"
    "labeling, lifted, dec, _ = forward()\n"
    "g = labeling.graph\n"
    "tau = antipodal_involution(g, dec, lifted)\n"
    "outcomes.append(outcome(lambda: cover_pipeline(\n"
    "    g, swapped(labeling.orientation), lifted, tau)))\n"
    "outcomes.append(('dart_cycles', str(lifted.dart_cycles is dec)))\n"
)
FORGED_DART_STAGE_OUTCOMES = [
    ("StructureViolation", "lift_preserves_natural_orientation: lifted "
     "generator 1 maps natural arc (1, 13) to (0, 4)"),
    ("DuplicateEdge", "repeated neighbour 4 of 0"),
    ("StructureViolation",
     "alt_reconstructs_base: vertex 0 maps to -1, outside 0..9"),
    ("NotInvariant", "generator 0 does not map alternating cycle 0 onto an "
     "alternating cycle"),
    ("dart_cycles", "True"),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_forged_dart_stage_fails_a_named_check(monkeypatch, optimize):
    """The negative controls of the dart stage's passes by proof, in
    process and under python -O.  dart_graph does not validate its
    orientation again: a 2-arc dropped from _darts fails
    lift_preserves_natural_orientation, with the arc that a lifted
    generator maps onto the dropped (0, 4), and a 2-arc listed twice
    fails Graph's validation.  cover_pipeline does not check a lift's
    cycle action on the decomposition verify_dart_forward proved
    (lifted.dart_cycles): two darts swapped between cycles fail
    alt_reconstructs_base, whose witness is the cycle that has no common
    base vertex, and the same forged cycles given to cover_pipeline with
    the certified lift are canonicalised and fail NotInvariant."""
    if optimize:
        code = "patch = setattr\n" + _FORGED_DART_STAGE + (
            "import sys\n"
            "print(sys.flags.optimize, repr(outcomes))\n")
        printed = " ".join(run_optimized(code))
        assert printed == f"1 {FORGED_DART_STAGE_OUTCOMES!r}"
        return
    space = {"patch": monkeypatch.setattr}
    exec(_FORGED_DART_STAGE, space)
    assert space["outcomes"] == FORGED_DART_STAGE_OUTCOMES


def test_psi_wrong_parameters(holt):
    d = half_arc_orientation(
        holt, transitivity_report(automorphism_group(holt), holt))
    with pytest.raises(WrongParameters) as info:
        psi_isomorphism(d, alternating_cycles(d))
    assert str(info.value) == ("(radius, attachment) = (9, 9), "
                               "the dart correspondence needs (3, 2)")


def test_wreath_octahedron():
    w3 = wreath_graph(3)
    assert w3.n == 6 and w3.m == 12 and valence(w3) == 4
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
        assert not covering_fault(dart, line, fibre_map)


def test_dart_not_double_cover_shortcut(k4):
    dart, _, _ = dart_graph(k4)
    double = bipartite_double(line_graph(k4)[0])
    assert is_bipartite(double) is not None
    assert is_bipartite(dart) is None
    assert is_isomorphic(dart, double) is None
