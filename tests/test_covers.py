import random

import pytest

from hatkit import autgroup, covers, graphs
from hatkit.errors import (
    DegenerateWreath,
    FixedPoint,
    HatError,
    NotAutomorphisms,
    NotCentralizing,
    NotConnected,
    NotInvariant,
    NotInvolution,
    OrbitNotIndependent,
    OrbitPairNotMatching,
    OrderTooSmall,
    StructureViolation,
    TauInG,
    WrongParameters,
)
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    line_graph,
    valence,
)
from hatkit.perms import compose, from_cycles, identity, schreier_sims
from hatkit.autgroup import (automorphism_group, canonical_form,
                             is_isomorphic, transitivity_report)
from hatkit.altcycles import (
    alt_graph,
    alternating_cycles,
    antipodal_involution,
    half_arc_orientation,
)
from hatkit.census import builtin_entries, pgl2_graph
from hatkit.dartgraph import dart_graph, lift_automorphisms, wreath_graph
from hatkit.covers import (
    cover_pipeline,
    covering_fault,
    quotient_by_tau,
    split_certificate,
)

from conftest import (TWO_ARC_CUBIC, cycle_graph, dart_index, reversed_darts,
                      run_optimized)


def dart_with_lift(base):
    group = automorphism_group(base)
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(group, labeling)
    return g, natural, labeling, lifted


def dart_with_cycles(base):
    """Dart graph, alternating cycles of its natural orientation (an
    induced one) and the lifted group."""
    g, natural, _, lifted = dart_with_lift(base)
    return g, alternating_cycles(natural), lifted


def antipodal_of(base):
    g, dec, lifted = dart_with_cycles(base)
    return g, lifted, antipodal_involution(g, dec, lifted)


def chain_probes(gens, others, rng):
    """The generators, random words in them, the permutations in others
    and random permutations, all of one degree."""
    n = len(gens[0])
    probes = list(gens) + list(others)
    for _ in range(15):
        word = gens[0]
        for _ in range(rng.randint(1, 6)):
            word = compose(word, rng.choice(gens))
        images = list(range(n))
        rng.shuffle(images)
        probes += [word, tuple(images)]
    return probes


@pytest.mark.parametrize("name", TWO_ARC_CUBIC)
def test_seeded_chains_match_unseeded_chains(name, monkeypatch):
    """A chain of the lift seeded from Aut(g)'s strong generators and
    base, built here under the bound |G|, adds no base point to its seed,
    and every strong generator it adds lies in the lift.  The lift, which
    keeps no chain, has the order and the membership verdicts of a chain
    built from the plain lifted generators with no base and no bound.
    The unbounded closure of the lift and tau is the reference for
    split_certificate's proof: it has order 2 |G|, holds tau, which the
    lift does not, and is the lift together with its coset by tau."""
    rng = random.Random(name)
    base = TWO_ARC_CUBIC[name]()
    group = automorphism_group(base)
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(group, labeling)

    index = dart_index(labeling)

    def lift(s):
        return tuple(index[(s[u], s[v])] for u, v in labeling.darts)

    lift_gens = [lift(s) for s in group.generators]
    unseeded = schreier_sims(lift_gens, degree=g.n)
    dart_base = tuple(index[(b, base.adj[b][0])] for b in group.base)
    seeded = schreier_sims(lifted.generators, degree=g.n,
                           order_bound=group.order, base=dart_base)
    assert lifted.order == seeded.order == unseeded.order == group.order
    assert seeded.base == dart_base
    assert lifted.generators == tuple(
        lift(s) for s in group.strong_generators)
    assert all(map(lifted.contains, set(seeded.strong_generators)
                   - set(lifted.generators)))
    reversal = reversed_darts(labeling)
    for p in chain_probes(lift_gens, [reversal], rng):
        assert lifted.contains(p) == unseeded.contains(p)
    assert not lifted.contains(reversal)
    if g.n <= 12:
        return      # the cover stage starts above 12 darts
    built = []
    real = covers._split
    monkeypatch.setattr(covers, "_split", lambda *args: (
        built.append(real(*args)) or built[-1]))
    dec = alternating_cycles(natural)
    tau = antipodal_involution(g, dec, lifted)
    _, _, checks = cover_pipeline(g, dec, lifted, tau)
    assert len(built) == 1
    split_unseeded = schreier_sims(lift_gens + [tau], degree=g.n)
    assert split_unseeded.order == 2 * group.order
    assert dict(checks)["fibre_action_kernel_tau"].endswith(
        f"the lifted group {split_unseeded.order}")
    assert split_unseeded.contains(tau) and not lifted.contains(tau)
    for p in chain_probes(lift_gens + [tau], [reversal,
                                              compose(reversal, tau)], rng):
        assert split_unseeded.contains(p) == (
            lifted.contains(p) or lifted.contains(compose(p, tau)))


# Every cover entry: the builtin and stress cubic 2-arc-transitive graphs
# whose dart graphs have more than 12 darts, and PGL(2, 7) and PGL(2, 11)
# (168 and 660 darts).
COVER_ENTRIES = {name: make for name, make in TWO_ARC_CUBIC.items()
                 if name != "k4"}
COVER_ENTRIES.update((f"pgl2_{p}", lambda p=p: pgl2_graph(p)) for p in (7, 11))


@pytest.mark.parametrize("name", COVER_ENTRIES)
def test_fibre_action_proof_matches_closure(name):
    """cover_pipeline builds no chain of the fibre action: it proves the
    group faithful on the fibres and sweeps the arc orbits of the
    generators' fibre images on the base.  The reference induces each
    generator on the fibres as sets and closes them with no base and no
    bound: the closure has order |G|, the projected order, and its
    chain's arc orbits on the base are as many as the sweep's."""
    g, dec, lifted = dart_with_cycles(COVER_ENTRIES[name]())
    cover, _, checks = cover_pipeline(
        g, dec, lifted, antipodal_involution(g, dec, lifted))
    details = dict(checks)
    fibres = [frozenset(f) for f in cover.fibres]
    index = {f: i for i, f in enumerate(fibres)}
    induced = [tuple(index[frozenset(s[v] for v in f)] for f in fibres)
               for s in lifted.generators]
    reference = schreier_sims(induced, degree=cover.base.n)
    assert reference.order == lifted.order
    assert details["fibre_action_kernel_tau"] == (
        f"the action on the fibres has order {reference.order}, the group "
        f"{lifted.order}, the lifted group {2 * lifted.order}")
    _, chain_orbits, _ = autgroup._arc_action(reference, cover.base)
    assert len(chain_orbits) == len(autgroup.arc_orbits(induced, cover.base))
    assert details["projected_arc_transitive"] == (
        f"the projected group has {len(chain_orbits)} arc orbits on the base")


def test_cover_pipeline_stops_at_tau_in_group(petersen, monkeypatch):
    """The faithfulness proof rests on TauInG: given <lift, tau>, which
    holds tau, cover_pipeline on Dart(Petersen) raises TauInG before it
    records a check, checks the fibre images as automorphisms of the base
    or sweeps their arc orbits."""
    g, dec, lifted = dart_with_cycles(petersen)
    tau = antipodal_involution(g, dec, lifted)
    group = schreier_sims(list(lifted.generators) + [tau], degree=g.n)
    called = []
    for name in ("check", "_check_automorphisms", "arc_orbits"):
        real = getattr(covers, name)
        monkeypatch.setattr(covers, name, lambda *args, _name=name, _real=real:
                            called.append(_name) or _real(*args))
    with pytest.raises(TauInG):
        cover_pipeline(g, dec, group, tau)
    assert called == []


def test_lift_answering_tau_reaches_tau_in_g_under_optimize():
    """TauInG is a raise, not an assert: with LiftedGroup.contains patched
    to answer True for the antipodal involution tau, cover_pipeline on
    Dart(Petersen) raises TauInG under python -O."""
    code = (
        "import sys\n"
        "from hatkit import dartgraph\n"
        "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
        "from hatkit.autgroup import automorphism_group\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.covers import cover_pipeline\n"
        "from hatkit.errors import TauInG\n"
        "petersen = generalized_petersen(5, 2)\n"
        "g, natural, labeling = dartgraph.dart_graph(petersen)\n"
        "lifted = dartgraph.lift_automorphisms(\n"
        "    automorphism_group(petersen), labeling)\n"
        "dec = alternating_cycles(natural)\n"
        "tau = antipodal_involution(g, dec, lifted)\n"
        "real = dartgraph.LiftedGroup.contains\n"
        "dartgraph.LiftedGroup.contains = (\n"
        "    lambda self, p: p == tau or real(self, p))\n"
        "try:\n"
        "    cover_pipeline(g, dec, lifted, tau)\n"
        "except TauInG as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, lifted.contains(tau))\n"
    )
    assert run_optimized(code) == ["1", "TauInG", "True"]


def test_base_without_triangle_fails_girth_3_under_optimize():
    """base_girth_3 is a raise, not an assert, and its witness is the
    base's girth, computed in full when the base has no triangle.  The
    quotient of Dart(dodecahedron) is patched to return, in place of its
    base, a triangle-free orbital graph of the projected group: 4-valent
    on the same 30 fibres, arc-transitive under the same generators, of
    girth 5.  Every check before base_girth_3 passes, and it fails under
    python -O with girth 5."""
    code = (
        "import sys\n"
        "from hatkit import covers, records\n"
        "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
        "from hatkit.autgroup import arc_orbits, automorphism_group\n"
        "from hatkit.census import builtin_entries, complete_graph\n"
        "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
        "from hatkit.errors import StructureViolation\n"
        "from hatkit.graphs import from_edge_list, girth\n"
        "base = next(e for e in builtin_entries()\n"
        "            if e.name == 'dodecahedron').graph()\n"
        "g, natural, labeling = dart_graph(base)\n"
        "lifted = lift_automorphisms(automorphism_group(base), labeling)\n"
        "real = covers._quotient\n"
        "def quotient(total, tau):\n"
        "    cover = real(total, tau)\n"
        "    n = cover.base.n\n"
        "    projected = [tuple(cover.fibre_map[s[v]] for v, _ in cover.fibres)\n"
        "                 for s in lifted.generators]\n"
        "    orbital = next(\n"
        "        h for h in (from_edge_list(n, [(a, b) for a, b in o if a < b])\n"
        "                    for o in arc_orbits(projected, complete_graph(n))\n"
        "                    if len(o) == 4 * n and {(b, a) for a, b in o} == set(o))\n"
        "        if girth(h) == 5)\n"
        "    return records.replace(cover, base=orbital)\n"
        "covers._quotient = quotient\n"
        "dec = alternating_cycles(natural)\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted,\n"
        "                          antipodal_involution(g, dec, lifted))\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, str(exc))\n"
    )
    assert run_optimized(code) == [
        "1", "StructureViolation", "base_girth_3:", "the", "base", "has",
        "girth", "5"]


def test_is_covering_examples(petersen):
    """A covering projection has an empty covering_fault; a constant map
    and a map onto a graph of the wrong valence do not."""
    double = bipartite_double(petersen)
    fibre_map = tuple(v % petersen.n for v in range(double.n))
    assert not covering_fault(double, petersen, fibre_map)
    # constant maps are not coverings
    single = from_edge_list(1, [])
    assert covering_fault(petersen, single, (0,) * 10)
    # wrong-degree targets fail local bijectivity
    assert covering_fault(petersen, cycle_graph(5),
                          tuple(v % 5 for v in range(10)))


def test_covering_fault_witnesses(petersen):
    """covering_fault names one witness per kind of failure: the number
    of images, an image outside the base, a base vertex that is no image,
    and a vertex whose neighbours do not map onto its image's."""
    double = bipartite_double(petersen)
    fibre_map = tuple(v % petersen.n for v in range(double.n))
    assert covering_fault(double, petersen, fibre_map) == ""
    assert covering_fault(double, petersen, fibre_map[:-1]) == (
        "19 images for 20 vertices")
    assert covering_fault(double, petersen, fibre_map[:-1] + (10,)) == (
        "vertex 19 maps to 10, outside 0..9")
    assert covering_fault(double, petersen, (0,) * 20) == (
        "base vertex 1 is the image of no vertex")
    assert covering_fault(petersen, cycle_graph(5),
                          tuple(v % 5 for v in range(10))) == (
        "the neighbours of vertex 0 map to [0, 1, 4], not onto the "
        "neighbours [1, 4] of its image 0")


def test_covering_fault_passes_every_cubic_dart_graph():
    """Each cubic builtin's dart graph covers its line graph by the map
    sending a dart to its edge, with no fault."""
    for entry in builtin_entries():
        g = entry.graph()
        if set(g.degrees()) != {3}:
            continue
        dart, _, labeling = dart_graph(g)
        line, line_edges = line_graph(g)
        index = {e: i for i, e in enumerate(line_edges)}
        fibre_map = tuple(index[min(u, v), max(u, v)]
                          for u, v in labeling.darts)
        assert covering_fault(dart, line, fibre_map) == "", entry.name


def test_quotient_dart_petersen(petersen):
    g, lifted, tau = antipodal_of(petersen)
    cover = quotient_by_tau(g, tau)
    assert cover.base.n == 15 and valence(cover.base) == 4
    assert girth(cover.base) == 3
    assert not covering_fault(g, cover.base, cover.fibre_map)
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


def test_quotient_orbit_pair_not_matching(monkeypatch):
    """An involutory automorphism joins two orbits by an even number of
    edges, so with the automorphism check bypassed, (0 2)(1 3) on the path
    0-1-2-3 joins its two orbits by 3 edges: a typed error that is still
    a ValueError, naming both orbits and the count."""
    monkeypatch.setattr(covers, "edge_map_fault", lambda p, g, h: "")
    path4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(OrbitPairNotMatching,
                       match=r"orbits \(0, 2\) and \(1, 3\) joined by 3 edges"
                       ) as info:
        quotient_by_tau(path4, from_cycles(4, [(0, 2), (1, 3)]))
    assert isinstance(info.value, HatError)
    assert isinstance(info.value, ValueError)


# The cube Q3 and its antipodal map v -> v ^ 7, whose quotient is K4.
_CUBE_QUOTIENT = (
    "import sys\n"
    "from hatkit import covers\n"
    "from hatkit.errors import StructureViolation\n"
    "from hatkit.graphs import from_edge_list\n"
    "cube = from_edge_list(8, [(v, v ^ b) for v in range(8)\n"
    "                          for b in (1, 2, 4) if v < v ^ b])\n"
    "tau = tuple(v ^ 7 for v in range(8))\n"
)


@pytest.mark.parametrize("fault, check, witness", [
    ("real = covers.from_edge_list\n"
     "covers.from_edge_list = lambda n, edges: real(n, sorted(edges)[1:])\n",
     "quotient_covering_projection", "vertex 0 "),
    ("real = covers.CoveringMap.fibres\n"
     "covers.CoveringMap.fibres = property(\n"
     "    lambda self: [f[:1] for f in real.func(self)])\n",
     "quotient_fibres_of_size_2", "fibre (0,) "),
])
def test_quotient_checks_under_optimize(fault, check, witness):
    """The quotient's covering projection and its fibres of size 2 are
    checked by raises that name the check and a witness, not by asserts:
    with the quotient's first edge dropped, or its fibres cut to one
    vertex, quotient_by_tau fails under python -O."""
    code = _CUBE_QUOTIENT + fault + (
        "try:\n"
        "    covers.quotient_by_tau(cube, tau)\n"
        "except StructureViolation as exc:\n"
        "    check, text = str(exc).split(': ', 1)\n"
        f"    print(sys.flags.optimize, check, {witness!r} in text)\n"
    )
    assert run_optimized(code) == ["1", check, "True"]


def test_split_certificate_dart_petersen(petersen):
    g, lifted, tau = antipodal_of(petersen)
    cover = quotient_by_tau(g, tau)
    sectional, walk = split_certificate(lifted, tau, cover)
    assert not sectional
    closure = schreier_sims(list(lifted.generators) + [tau], degree=g.n)
    assert closure.order == 2 * lifted.order
    assert walk is not None and (len(walk) - 1) % 2 == 1
    assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


def test_split_certificate_dart_k33_sectional(k33, petersen, monkeypatch):
    """A total graph is two-coloured once: Dart(K3,3) is bipartite, and no
    odd closed walk is looked for; Dart(Petersen) is not, and the same
    colouring gives its odd closed walk."""
    g, lifted, tau = antipodal_of(k33)
    cover = quotient_by_tau(g, tau)
    runs = []
    real = graphs._two_color
    monkeypatch.setattr(graphs, "_two_color",
                        lambda x: runs.append(x) or real(x))
    sectional, walk = split_certificate(lifted, tau, cover)
    assert runs == [g]
    assert sectional
    assert walk is None
    assert is_isomorphic(g, bipartite_double(cover.base)) is not None
    g, lifted, tau = antipodal_of(petersen)
    cover = quotient_by_tau(g, tau)
    runs.clear()
    sectional, walk = split_certificate(lifted, tau, cover)
    assert runs == [g]
    assert not sectional
    assert walk is not None


def test_split_certificate_tau_in_group():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    group = schreier_sims([rot1])
    cover = quotient_by_tau(c6, rot3)
    with pytest.raises(TauInG):
        split_certificate(group, rot3, cover)


def test_split_certificate_not_centralizing():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    edge_reflection = from_cycles(6, [(0, 1), (2, 5), (3, 4)])
    group = schreier_sims([rot1])
    cover = quotient_by_tau(c6, rot3)
    with pytest.raises(NotCentralizing):
        split_certificate(group, edge_reflection, cover)


def test_split_certificate_not_involution():
    c6 = cycle_graph(6)
    rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot2 = compose(rot1, rot1)
    rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    group = schreier_sims([rot2])
    cover = quotient_by_tau(c6, rot3)
    # rot1 centralizes <rot2> and lies outside it, but has order 6
    with pytest.raises(NotInvolution):
        split_certificate(group, rot1, cover)


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
    group = reflection_group(n)
    verdict, walk = split_certificate(group, half_turn(n), cover)
    oracle = is_isomorphic(c, bipartite_double(cover.base)) is not None
    assert verdict == oracle == sectional
    assert walk is None
    closure = schreier_sims(list(group.generators) + [half_turn(n)])
    assert closure.order == 4


def test_split_certificate_needs_connected_total():
    two_c4 = from_edge_list(
        8, [(i + k, (i + 1) % 4 + k) for k in (0, 4) for i in range(4)])
    swap = half_turn(8)
    # i -> -i on each copy of C4
    reflect = tuple(-i % 4 + i // 4 * 4 for i in range(8))
    cover = quotient_by_tau(two_c4, swap)
    with pytest.raises(NotConnected):
        split_certificate(schreier_sims([reflect]), swap, cover)


def test_split_certificate_tau_must_swap_each_fibre():
    """i -> 4 - i centralizes <i -> -i> on C8, lies outside it and is an
    involution, but moves the fibre {1, 5} of the half-turn cover."""
    c8 = cycle_graph(8)
    cover = quotient_by_tau(c8, half_turn(8))
    other = tuple((4 - i) % 8 for i in range(8))
    with pytest.raises(NotInvariant):
        split_certificate(reflection_group(8), other, cover)


@pytest.mark.parametrize("name", ["petersen", "coxeter"])
def test_bounded_chains_match_unbounded_rebuild(request, name):
    """The lift is built under its proven order bound and answers
    membership exactly like a full closure; the full closure of the lift
    and tau has the order split_certificate proves, 2 |lift|, and holds
    tau, which the lift does not."""
    g, lifted, tau = antipodal_of(request.getfixturevalue(name))
    split_certificate(lifted, tau, quotient_by_tau(g, tau))
    rng = random.Random(5)
    gens = list(lifted.generators) + [tau]
    probes = [tau] + gens
    for _ in range(30):
        word = identity(g.n)
        for _ in range(rng.randint(1, 10)):
            word = compose(word, rng.choice(gens))
        probes.append(word)
        probes.append(compose(word, from_cycles(g.n, [(0, 1)])))
    full = schreier_sims(lifted.generators, degree=g.n)
    assert lifted.order == full.order
    for p in probes:
        assert lifted.contains(p) == full.contains(p)
    split = schreier_sims(gens, degree=g.n)
    assert split.order == 2 * lifted.order
    assert not lifted.contains(tau) and split.contains(tau)


def test_cover_pipeline_dodecahedron():
    from hatkit.census import generalized_petersen
    dodec = generalized_petersen(10, 2)
    g, dec, lifted = dart_with_cycles(dodec)
    cover, sectional, checks = cover_pipeline(
        g, dec, lifted, antipodal_involution(g, dec, lifted))
    details = dict(checks)
    assert g.n == 60 and cover.base.n == 30
    assert not sectional
    assert details["sectional_iff_bipartite"] == \
        "sectional=False, bipartite=False"
    assert details["base_girth_3"] == "the base has girth 3"
    assert details["fibre_action_kernel_tau"].endswith(
        f"the lifted group {2 * lifted.order}")


# Dart(Petersen), its alternating cycles, the lifted group and tau.
_DART_PETERSEN = (
    "import sys\n"
    "from hatkit import covers\n"
    "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
    "from hatkit.autgroup import automorphism_group\n"
    "from hatkit.census import generalized_petersen\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.errors import StructureViolation\n"
    "petersen = generalized_petersen(5, 2)\n"
    "g, natural, labeling = dart_graph(petersen)\n"
    "lifted = lift_automorphisms(automorphism_group(petersen), labeling)\n"
    "dec = alternating_cycles(natural)\n"
    "tau = antipodal_involution(g, dec, lifted)\n"
)


# Forgeries of Dart(Petersen)'s tau, t0 = tau[0] and t1 = tau[1]: one
# image short; with tau(1) = t0 repeated; with 0 and t0 fixed; with
# 0 -> t0 -> 1 -> t1 -> 0, no involution; and with the partners of 0 and 1
# exchanged, an involution but no automorphism.  `calls` pairs each public
# call with the (error type, text prefix) it must raise; the trivial group
# lets the order-4 forgery past centralizing, to NotInvolution.  Each
# call's (error type, text) is in `outcomes`.
_BAD_TAUS = _DART_PETERSEN + (
    "from hatkit.errors import HatError\n"
    "from hatkit.covers import quotient_by_tau, split_certificate\n"
    "from hatkit.perms import schreier_sims\n"
    "cover = quotient_by_tau(g, tau)\n"
    "trivial = schreier_sims([], g.n)\n"
    "t0, t1 = tau[0], tau[1]\n"
    "def forged(images):\n"
    "    out = list(tau)\n"
    "    for v, image in images.items():\n"
    "        out[v] = image\n"
    "    return tuple(out)\n"
    "short, repeated = tau[:-1], forged({1: t0})\n"
    "fixed = forged({0: 0, t0: t0})\n"
    "four_cycle = forged({0: t0, t0: 1, 1: t1, t1: 0})\n"
    "exchanged = forged({0: 1, 1: 0, t0: t1, t1: t0})\n"
    "quotient = lambda bad: lambda: quotient_by_tau(g, bad)\n"
    "split = lambda group, bad: lambda: split_certificate(group, bad, cover)\n"
    "not_central = 'tau does not centralize the supplied group: generator '\n"
    "calls = [\n"
    "    (quotient(short), 'NotAutomorphisms', 'tau has degree 29, graph has 30'),\n"
    "    (quotient(repeated), 'NotPermutation',\n"
    "     f'not a permutation: image {t0} of 1 repeats the image of 0'),\n"
    "    (quotient(fixed), 'FixedPoint', f'tau fixes {sorted([0, t0])}'),\n"
    "    (quotient(four_cycle), 'NotInvolution',\n"
    "     'tau is not an involution: tau(tau(0)) = 1'),\n"
    "    (quotient(exchanged), 'NotAutomorphisms', 'tau is not an automorphism: '),\n"
    "    (split(lifted, repeated), 'NotPermutation', 'not a permutation: '),\n"
    "    (split(lifted, four_cycle), 'NotCentralizing', not_central),\n"
    "    (split(lifted, exchanged), 'NotCentralizing', not_central),\n"
    "    (split(trivial, four_cycle), 'NotInvolution',\n"
    "     'tau is not an involution: tau(tau(0)) = 1')]\n"
    "def outcome(call):\n"
    "    try:\n"
    "        call()\n"
    "    except HatError as exc:\n"
    "        return type(exc).__name__, str(exc)\n"
    "outcomes = [outcome(call) for call, _, _ in calls]\n"
    "verdict = [got is not None and got[0] == kind and got[1].startswith(prefix)\n"
    "           for got, (_, kind, prefix) in zip(outcomes, calls)]\n"
)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_public_tau_checks_stay_for_other_callers(optimize):
    """The negative control of cover_pipeline's pass by proof: it reaches
    the quotient and the splitting through covers._quotient and
    covers._split, past the checks of tau that antipodal_involution made,
    so quotient_by_tau and split_certificate must keep them.  On
    Dart(Petersen), quotient_by_tau rejects a tau one image short
    (NotAutomorphisms), with a repeated image (NotPermutation), with a
    fixed point (FixedPoint), of order 4 (NotInvolution) and an
    involution that is no automorphism (NotAutomorphisms);
    split_certificate rejects the repeated image (NotPermutation), the
    last two against the lift (NotCentralizing), and the order-4 tau
    against the trivial group (NotInvolution), in process and under
    python -O."""
    if optimize:
        code = _BAD_TAUS + "print(sys.flags.optimize, *verdict)\n"
        assert run_optimized(code) == ["1"] + ["True"] * 9
        return
    space = {}
    exec(_BAD_TAUS, space)
    assert space["verdict"] == [True] * 9, space["outcomes"]


def test_cover_pipeline_rejects_wrong_line_graph_under_optimize():
    """The fibre -> cycle pair map is checked by a raise, not an assert:
    with the prism GP(5,1) as the graph of alternating cycles of
    Dart(Petersen), some cycle pairs are no edge of it, and the check
    fails under python -O instead of raising KeyError."""
    code = _DART_PETERSEN + (
        "from hatkit import altcycles\n"
        "altcycles.alt_graph = lambda dec: generalized_petersen(5, 1)\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted, tau)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation"]


def test_cover_pipeline_rejects_arc_intransitive_base_under_optimize():
    """Arc-transitivity of the projected action is checked by a raise
    that names it, not an assert: given a group with the lift's degree,
    order and contains but only its first generator, whose projected
    action on the base of Dart(Petersen) is arc-intransitive, the check
    fails under python -O, and its witness counts the arc orbits as
    autgroup.arc_orbits sweeps them."""
    code = _DART_PETERSEN + (
        "import types\n"
        "from hatkit.autgroup import arc_orbits\n"
        "first = types.SimpleNamespace(\n"
        "    degree=lifted.degree, order=lifted.order,\n"
        "    contains=lifted.contains, generators=lifted.generators[:1])\n"
        "cover = covers.quotient_by_tau(g, tau)\n"
        "projected = [tuple(cover.fibre_map[s[v]] for v, _ in cover.fibres)\n"
        "             for s in first.generators]\n"
        "count = len(arc_orbits(projected, cover.base))\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, first, tau)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__,\n"
        "          str(exc).split(':')[0], count > 1, exc.witness ==\n"
        "          f'the projected group has {count} arc orbits on the base')\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation",
                                   "projected_arc_transitive", "True", "True"]


@pytest.mark.parametrize("fault, check, witness", [
    ("real = covers._split\n"
     "covers._split = lambda *args: (True, real(*args)[1])\n",
     "sectional_iff_bipartite", "sectional=True, bipartite=False"),
    ("covers.girth = lambda x: 4\n",
     "base_girth_3", "girth 4"),
])
def test_cover_pipeline_checks_run_under_optimize(fault, check, witness):
    """Sectional exactly when bipartite and the base girth 3 are checked
    by raises, not asserts: with the certificate made sectional or the
    base girth read as 4, cover_pipeline on Dart(Petersen) fails under
    python -O, naming the check and giving the witness."""
    code = _DART_PETERSEN + fault + (
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted, tau)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(': ', 1)\n"
        f"    print(sys.flags.optimize, name, {witness!r} in detail)\n"
    )
    assert run_optimized(code) == ["1", check, "True"]


@pytest.mark.parametrize("walk, check", [
    ([0, 1, 2], "odd_walk_closed_odd"),
    ([0, 0, 0, 0], "odd_walk_edges"),
])
def test_split_certificate_rejects_bad_odd_walk_under_optimize(walk, check):
    """The odd closed walk witnessing a non-bipartite total graph is
    checked by raises that name the check, not by asserts: with
    parts_or_odd_walk made to return no parts and an open walk, or a
    closed one whose steps are no edges, the cover pipeline fails under
    python -O."""
    code = _DART_PETERSEN + (
        f"covers.parts_or_odd_walk = lambda total: (None, {walk!r})\n"
        "try:\n"
        "    covers.cover_pipeline(g, dec, lifted, tau)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__,\n"
        "          str(exc).split(':')[0])\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation", check]


# Forged inputs of the two isomorphism checks.  Each case defines call,
# which must fail the check, and reference, the check's witness as
# graphs.isomorphism_fault gives it against the graph built in full: the
# double of the cover's base for sectional_onto_double, the line graph of
# the graph of alternating cycles for base_is_line_graph.  patch(module,
# name, value) is monkeypatch.setattr in process and setattr under -O.
_C6 = ("c6 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])\n"
       "rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])\n")
_ONTO_DOUBLE = (
    "from hatkit import records\n"
    "from hatkit.covers import quotient_by_tau, split_certificate\n"
    "from hatkit.graphs import (bipartite_double, from_edge_list,\n"
    "                           isomorphism_fault, parts_or_odd_walk)\n"
    "from hatkit.perms import from_cycles, schreier_sims\n",
    "odd = set(parts_or_odd_walk(total)[0][1])\n"
    "phi = [b + cover.base.n * (v in odd)\n"
    "       for v, b in enumerate(cover.fibre_map)]\n"
    "reference = isomorphism_fault(phi, total, bipartite_double(cover.base))\n"
    "call = lambda: split_certificate(\n"
    "    schreier_sims([], degree=total.n), tau, cover)\n")
_LINE_GRAPH = (
    "from hatkit import altcycles, records\n"
    "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
    "from hatkit.autgroup import automorphism_group\n"
    "from hatkit.census import generalized_petersen\n"
    "from hatkit.covers import cover_pipeline, quotient_by_tau\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.graphs import from_edge_list, isomorphism_fault, line_graph\n"
    "petersen = generalized_petersen(5, 2)\n"
    "g, natural, labeling = dart_graph(petersen)\n"
    "lifted = lift_automorphisms(automorphism_group(petersen), labeling)\n"
    "dec = alternating_cycles(natural)\n"
    "tau = antipodal_involution(g, dec, lifted)\n"
    "cover = quotient_by_tau(g, tau)\n"
    "(v0, _), (v1, _) = cover.fibres[:2]\n"
    "at = list(dec.cycles_at_vertex)\n",
    "line, edges = line_graph(forged.cycle_graph)\n"
    "index = {e: i for i, e in enumerate(edges)}\n"
    "fibre_to_edge = [index.get(forged.cycles_at_vertex[v], -1)\n"
    "                 for v, _ in cover.fibres]\n"
    "reference = isomorphism_fault(fibre_to_edge, cover.base, line)\n"
    "call = lambda: cover_pipeline(g, forged, lifted, tau)\n")


@pytest.mark.parametrize("inputs, forge, check, branch", [
    # the base of C6 / <rot3> replaced by the path P3: 4 edges in the double
    (_ONTO_DOUBLE, _C6 + "tau = rot3\ntotal = c6\ncover = records.replace(\n"
     "    quotient_by_tau(c6, rot3), base=from_edge_list(3, [(0, 1), (1, 2)]))\n",
     "sectional_onto_double", "6 images between graphs of (order, size)"),
    # fibres {0, 3}, {1, 5}, {2, 4}: tau keeps the colour of 1 and 5
    (_ONTO_DOUBLE, _C6 + "tau = from_cycles(6, [(0, 3), (1, 5), (2, 4)])\n"
     "total = c6\ncover = records.replace(quotient_by_tau(c6, rot3),\n"
     "                                fibre_map=(0, 1, 2, 0, 2, 1))\n",
     "sectional_onto_double", "vertices "),
    # the base C5 of C10 / <rot5> replaced by the pentagram
    (_ONTO_DOUBLE, "total = from_edge_list(10, [(i, (i + 1) % 10)\n"
     "                                  for i in range(10)])\n"
     "tau = from_cycles(10, [(i, i + 5) for i in range(5)])\n"
     "cover = records.replace(quotient_by_tau(total, tau), base=from_edge_list(\n"
     "    5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))\n",
     "sectional_onto_double", "edge ("),
    # the graph of alternating cycles with an edge more: L has order 16
    (_LINE_GRAPH, "patch(altcycles, 'alt_graph', lambda dec: from_edge_list(\n"
     "    10, petersen.edges + ((0, 2),)))\n"
     "forged = records.replace(dec)\n",
     "base_is_line_graph", "15 images between graphs of (order, size)"),
    # the prism in place of Petersen: some cycle pairs are no edge of it
    (_LINE_GRAPH, "patch(altcycles, 'alt_graph',\n"
     "      lambda dec: generalized_petersen(5, 1))\n"
     "forged = records.replace(dec)\n",
     "base_is_line_graph", "vertex "),
    # the first two fibres both on the first fibre's cycle pair
    (_LINE_GRAPH, "at[v1] = at[v0]\n"
     "forged = records.replace(dec, cycles_at_vertex=tuple(at))\n",
     "base_is_line_graph", "vertices "),
    # the first two fibres on each other's cycle pair
    (_LINE_GRAPH, "at[v0], at[v1] = at[v1], at[v0]\n"
     "forged = records.replace(dec, cycles_at_vertex=tuple(at))\n",
     "base_is_line_graph", "edge ("),
], ids=["double-size", "double-bijection", "double-non-edge", "line-size",
        "line-outside", "line-bijection", "line-non-edge"])
@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_isomorphism_checks_fail_with_the_reference_witness(
        monkeypatch, inputs, forge, check, branch, optimize):
    """sectional_onto_double and base_is_line_graph each fail on forged
    inputs that reach the order and size, the bijectivity and the
    non-edge branch of the witness, in process and under python -O.  The
    witness is the one graphs.isomorphism_fault gives against the double
    of the base, or against the line graph of the graph of alternating
    cycles, built in full."""
    setup, tail = inputs
    code = setup + forge + tail
    if optimize:
        code = "import sys\npatch = setattr\n" + code + (
            "from hatkit.errors import StructureViolation\n"
            "try:\n"
            "    call()\n"
            "except StructureViolation as exc:\n"
            "    print(sys.flags.optimize, exc.check, exc.witness == reference,\n"
            f"          reference.startswith({branch!r}))\n")
        assert run_optimized(code) == ["1", check, "True", "True"]
        return
    space = {"patch": monkeypatch.setattr}
    exec(code, space)
    assert space["reference"].startswith(branch)
    with pytest.raises(StructureViolation) as info:
        space["call"]()
    assert (info.value.check, info.value.witness) == (check, space["reference"])


@pytest.mark.parametrize("name", ["petersen", "heawood", "dodecahedron"])
def test_cover_pipeline_base_is_line_graph_of_value(name):
    """The base is checked to be the line graph of the graph of
    alternating cycles labelled by the decomposition, and that graph is
    the cubic base itself."""
    base = next(e for e in builtin_entries() if e.name == name).graph()
    g, dec, lifted = dart_with_cycles(base)
    _, _, checks = cover_pipeline(
        g, dec, lifted, antipodal_involution(g, dec, lifted))
    assert ("base_is_line_graph", "") in checks
    lam = alt_graph(dec)
    assert canonical_form(lam)[1] == canonical_form(base)[1]


def test_cover_pipeline_order_guard(k4):
    g, dec, lifted = dart_with_cycles(k4)
    with pytest.raises(OrderTooSmall):
        cover_pipeline(g, dec, lifted, antipodal_involution(g, dec, lifted))


# cover_pipeline given the total graph of one dart stage and the cycles
# and tau of another: Dart(Petersen) has 30 darts and Dart(Heawood) 42.
# Each DegreeMismatch text is recorded in `outcomes`.
_PIPELINE_ORDER_MISMATCH = (
    "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
    "from hatkit.autgroup import automorphism_group\n"
    "from hatkit.census import generalized_petersen, lcf_graph\n"
    "from hatkit.covers import cover_pipeline\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.errors import DegreeMismatch\n"
    "def stage(base):\n"
    "    g, natural, labeling = dart_graph(base)\n"
    "    lifted = lift_automorphisms(automorphism_group(base), labeling)\n"
    "    dec = alternating_cycles(natural)\n"
    "    return g, dec, lifted, antipodal_involution(g, dec, lifted)\n"
    "g, dec, lifted, tau = stage(generalized_petersen(5, 2))\n"
    "heawood, _, _, heawood_tau = stage(lcf_graph([5, -5], 7))\n"
    "outcomes = []\n"
    "for args in [(heawood, dec, lifted, tau),\n"
    "             (g, dec, lifted, heawood_tau)]:\n"
    "    try:\n"
    "        cover_pipeline(*args)\n"
    "    except DegreeMismatch as exc:\n"
    "        outcomes.append(str(exc))\n"
)
PIPELINE_ORDER_MISMATCH_OUTCOMES = [
    "the decomposition covers 30 vertices and tau has degree 30, the graph "
    "has 42",
    "the decomposition covers 30 vertices and tau has degree 42, the graph "
    "has 30",
]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_cover_pipeline_rejects_inputs_of_other_order(optimize):
    """cover_pipeline reads total, dec and tau, so it checks that dec
    covers total.n vertices and that tau has that degree: with
    Dart(Heawood) as the total graph of Dart(Petersen)'s cycles and tau,
    and with Dart(Heawood)'s tau on Dart(Petersen), it raises
    DegreeMismatch with the three numbers, in process and under
    python -O.  Unchecked, both ended in an IndexError inside the
    quotient."""
    if optimize:
        code = "import sys\n" + _PIPELINE_ORDER_MISMATCH + (
            "print(sys.flags.optimize, repr(outcomes))\n")
        printed = " ".join(run_optimized(code))
        assert printed == f"1 {PIPELINE_ORDER_MISMATCH_OUTCOMES!r}"
        return
    space = {}
    exec(_PIPELINE_ORDER_MISMATCH, space)
    assert space["outcomes"] == PIPELINE_ORDER_MISMATCH_OUTCOMES


def test_cover_pipeline_wrong_parameters(holt):
    """Holt's attachment is odd, so it has no antipodal involution: the
    parameters are checked before tau, here the identity, is read."""
    group = automorphism_group(holt)
    d = half_arc_orientation(holt, transitivity_report(group, holt))
    with pytest.raises(WrongParameters) as info:
        cover_pipeline(holt, alternating_cycles(d), group,
                       identity(holt.n))
    assert str(info.value) == ("(radius, attachment) = (9, 9), "
                               "the cover construction needs (3, 2)")


def test_cover_pipeline_rejects_group_moving_cycles():
    """Aut(Dart(cube)) (order 768) has generators that move alternating
    cycles of the natural orientation off the decomposition."""
    from hatkit.census import generalized_petersen
    g, dec, lifted = dart_with_cycles(generalized_petersen(4, 1))
    full = automorphism_group(g)
    assert full.order == 768 and lifted.order == 48
    with pytest.raises(NotInvariant):
        cover_pipeline(g, dec, full, antipodal_involution(g, dec, lifted))


def test_cover_pipeline_bipartite_control(heawood):
    g, dec, lifted = dart_with_cycles(heawood)
    cover, sectional, checks = cover_pipeline(
        g, dec, lifted, antipodal_involution(g, dec, lifted))
    assert sectional
    assert dict(checks)["sectional_iff_bipartite"] == \
        "sectional=True, bipartite=True"
    assert cover.base.n == 21
