import random
from math import prod
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatkit import autgroup, covers, dartgraph, perms
from hatkit.altcycles import alternating_cycles, antipodal_involution
from hatkit.census import builtin_entries
from hatkit.errors import (
    DegreeMismatch,
    NotPermutation,
    OrderBoundExceeded,
    VertexOutOfRange,
)
from hatkit.perms import (
    centralizes,
    compose,
    from_cycles,
    identity,
    inverse,
    is_identity,
    schreier_sims,
)

from conftest import STRESS_GRAPHS, STRESS_NAMES, run_optimized


def closure(gens):
    """Naive breadth-first closure; the independent order oracle."""
    n = len(gens[0])
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = compose(g, s)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def test_compose_convention():
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    # left to right: 0 -> 1 under p, then 1 -> 2 under q
    assert compose(p, q)[0] == 2
    assert compose(p, identity(3)) == p


@pytest.mark.parametrize("cycle", [(0, -1), (0, 5), (3,)])
def test_from_cycles_names_point_outside_range(cycle):
    """A point outside 0..n-1 is NotPermutation, a ValueError, naming the
    point and its cycle, not a tuple with -1 in it or an IndexError."""
    with pytest.raises(ValueError) as info:
        from_cycles(3, [(1, 2), cycle])
    assert isinstance(info.value, NotPermutation)
    assert str(info.value) == (
        f"point {cycle[-1]} of cycle {cycle} lies outside 0..2")


@pytest.mark.parametrize("cycles, text", [
    ([(0, 1), (1, 2)], "point 1 lies in both cycle (0, 1) and cycle (1, 2)"),
    ([(2, 0), (1,), (0, 1)],
     "point 0 lies in both cycle (2, 0) and cycle (0, 1)"),
    ([(0, 1, 0)], "point 0 lies in both cycle (0, 1, 0) and cycle (0, 1, 0)"),
])
def test_from_cycles_names_shared_point(cycles, text):
    """Cycles that are not disjoint are NotPermutation, a ValueError,
    naming a shared point and both of its cycles."""
    with pytest.raises(ValueError) as info:
        from_cycles(3, cycles)
    assert isinstance(info.value, NotPermutation)
    assert str(info.value) == text


def test_from_cycles_empty_and_list_cycles():
    """An empty cycle moves nothing, and a cycle may be a list."""
    assert from_cycles(3, [(), [0, 1]]) == from_cycles(3, [(0, 1)]) == (1, 0, 2)


def test_inverse_three_cycle():
    p = from_cycles(3, [(0, 1, 2)])
    assert inverse(p) == from_cycles(3, [(0, 2, 1)])
    # the same cycle written from another point, and as images
    assert inverse(p) == from_cycles(3, [(1, 0, 2)]) == (2, 0, 1)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


@settings(max_examples=60)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_group_laws(p, q):
    p, q = tuple(p), tuple(q)
    assert compose(p, inverse(p)) == identity(6)
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))
    assert is_identity(compose(p, inverse(p)))


def kernel_cases():
    """Permutation pairs of degree 0, 1 and 2, and seeded random ones of
    degree up to 40."""
    rng = random.Random(5)
    cases = [((), ()), ((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 0)),
             ((1, 0), (0, 1)), ((1, 0), (1, 0))]
    for _ in range(200):
        n = rng.randint(0, 40)
        p, q = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        cases.append((tuple(p), tuple(q)))
    return cases


def test_kernel_matches_reference_loops():
    """compose, inverse and is_identity agree with plain loops."""
    for p, q in kernel_cases():
        n = len(p)
        product = [None] * n
        for i in range(n):
            product[i] = q[p[i]]
        inv = [None] * n
        for i in range(n):
            inv[p[i]] = i
        fixes_all = True
        for i in range(n):
            fixes_all = fixes_all and p[i] == i
        assert compose(p, q) == tuple(product)
        assert type(compose(p, q)) is tuple
        assert inverse(p) == tuple(inv)
        assert is_identity(p) == fixes_all
        assert is_identity(compose(p, inverse(p)))


def test_strong_generators_extend_generators():
    """The strong generating set starts with the generators, and the
    chain's orbits and order come from it alone."""
    for perms in oracle_generator_sets():
        group = schreier_sims(perms)
        strong = group.strong_generators
        assert strong[:len(group.generators)] == group.generators
        again = schreier_sims(strong, degree=group.degree, base=group.base)
        assert again.order == group.order
        assert again.base == group.base
        with pytest.raises(AttributeError):
            group.strong_generators = ()


def test_schreier_sims_s4():
    group = schreier_sims([from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    assert group.order == 24


def test_schreier_sims_cyclic():
    group = schreier_sims([from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert group.order == 5


def test_schreier_sims_trivial():
    group = schreier_sims([], degree=7)
    assert group.order == 1
    assert group.contains(identity(7))
    with pytest.raises(ValueError):
        schreier_sims([])


CYCLE_GENERATORS = [
    [[(0, 1)], [(0, 1, 2)]],                      # S3
    [[(0, 1, 2)], [(1, 2, 3)]],                   # A4
    [[(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]],     # D6
    [[(0, 1, 2, 3, 4, 5, 6)]],                    # C7
    [[(0, 1), (2, 3)], [(4, 5)]],                 # Klein-ish
]


def cycle_generators(gens):
    degree = 1 + max(x for cyc in gens for c in cyc for x in c)
    return [from_cycles(degree, cyc) for cyc in gens]


def random_generator_sets():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(3, 6)
        perms = []
        for _ in range(2):
            images = list(range(n))
            rng.shuffle(images)
            perms.append(tuple(images))
        yield perms


def oracle_generator_sets():
    """The generating sets of the two closure-oracle tests below."""
    return ([cycle_generators(gens) for gens in CYCLE_GENERATORS]
            + list(random_generator_sets()))


@pytest.mark.parametrize("gens", CYCLE_GENERATORS)
def test_order_matches_closure(gens):
    perms = cycle_generators(gens)
    group = schreier_sims(perms)
    assert group.order == len(closure(perms))


def test_order_matches_closure_random():
    for perms in random_generator_sets():
        group = schreier_sims(perms)
        assert group.order == len(closure(perms))


def test_order_bound_at_true_order_keeps_order_and_membership():
    rng = random.Random(17)
    for perms in oracle_generator_sets():
        n = len(perms[0])
        full = schreier_sims(perms)
        bounded = schreier_sims(perms, order_bound=full.order)
        assert bounded.order == full.order == len(closure(perms))
        probes = list(perms)
        for _ in range(20):
            word = identity(n)
            for _ in range(rng.randint(1, 8)):
                word = compose(word, rng.choice(perms))
            probes.append(word)
            images = list(range(n))
            rng.shuffle(images)
            probes.append(tuple(images))
        for p in probes:
            assert bounded.contains(p) == full.contains(p)


def test_order_bound_above_order_runs_full_build():
    for perms in oracle_generator_sets():
        full = schreier_sims(perms)
        bounded = schreier_sims(perms, order_bound=full.order + 1)
        assert bounded.order == full.order
        assert bounded.base == full.base
        assert bounded._strong == full._strong


def test_initial_base_keeps_order_and_membership():
    """A chain started from given base points keeps them as its first base
    points and has the order and membership of the chain built without."""
    rng = random.Random(23)
    for perms in oracle_generator_sets():
        n = len(perms[0])
        base = tuple(rng.sample(range(n), rng.randint(0, min(n, 3))))
        full = schreier_sims(perms)
        based = schreier_sims(perms, base=base)
        assert based.base[:len(base)] == base
        assert based.order == full.order == len(closure(perms))
        probes = list(perms)
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            probes += [tuple(images),
                       compose(rng.choice(perms), rng.choice(perms))]
        for p in probes:
            assert based.contains(p) == full.contains(p)


def test_initial_base_rejects_bad_points():
    gens = [from_cycles(4, [(0, 1, 2, 3)])]
    with pytest.raises(VertexOutOfRange):
        schreier_sims(gens, base=(4,))
    with pytest.raises(ValueError, match="repeats"):
        schreier_sims(gens, base=(1, 1))


def test_order_bound_exceeded():
    s4 = [from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])]
    with pytest.raises(OrderBoundExceeded) as info:
        schreier_sims(s4, order_bound=5)
    assert info.value.bound == 5 and info.value.product > 5


def test_order_bound_exceeded_under_optimize():
    """The bound is a raise, not an assert: it holds under python -O."""
    code = (
        "import sys\n"
        "from hatkit.errors import OrderBoundExceeded\n"
        "from hatkit.perms import from_cycles, schreier_sims\n"
        "try:\n"
        "    schreier_sims([from_cycles(4, [(0, 1)]),\n"
        "                   from_cycles(4, [(0, 1, 2, 3)])], order_bound=5)\n"
        "except OrderBoundExceeded as exc:\n"
        "    print(sys.flags.optimize, exc.bound)\n"
    )
    assert run_optimized(code) == ["1", "5"]


def test_membership():
    g3 = schreier_sims([from_cycles(3, [(0, 1, 2)])])
    assert g3.contains(identity(3))
    assert not g3.contains(from_cycles(3, [(0, 1)]))
    with pytest.raises(DegreeMismatch):
        g3.contains(identity(4))


@pytest.mark.parametrize("check", [
    lambda group, p: group.contains(p),
    lambda group, p: centralizes(p, group),
    lambda group, p: schreier_sims(group.generators + (p,)),
], ids=["contains", "centralizes", "schreier_sims"])
def test_permutation_argument_checked_once(check):
    """A permutation argument of a group's degree is checked one way
    everywhere: its degree first (DegreeMismatch), then check_perm
    (NotPermutation naming the image)."""
    group = schreier_sims([from_cycles(3, [(0, 1, 2)])])
    with pytest.raises(DegreeMismatch) as info:
        check(group, identity(4))
    assert str(info.value) == "permutation degree 4 != group degree 3"
    with pytest.raises(NotPermutation) as info:
        check(group, (0, 0, 1))
    assert str(info.value) == ("not a permutation: image 0 of 1 repeats "
                               "the image of 0")


def test_membership_random_products():
    rng = random.Random(99)
    gens = [from_cycles(6, [(0, 1, 2, 3, 4, 5)]), from_cycles(6, [(0, 1)])]
    group = schreier_sims(gens)
    elems = closure(gens)
    for _ in range(40):
        word = identity(6)
        for _ in range(rng.randint(0, 6)):
            word = compose(word, rng.choice(gens))
        assert group.contains(word)
    # a certified non-member, when one exists
    alt = schreier_sims([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(1, 2, 3, 4, 5)])])
    non_member = from_cycles(6, [(0, 1)])
    assert non_member not in closure(alt.generators)
    assert not alt.contains(non_member)


def test_orbit():
    trivial = schreier_sims([], degree=4)
    assert perms.orbits(range(4), trivial.generators, getitem) == [
        (0,), (1,), (2,), (3,)]


def test_orbit_sizes_divide_order():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(3, 7)
        images = list(range(n))
        rng.shuffle(images)
        group = schreier_sims([tuple(images)])
        for orbit in perms.orbits(range(group.degree), group.generators,
                                  getitem):
            assert group.order % len(orbit) == 0


def test_centralizes():
    rot = schreier_sims([from_cycles(3, [(0, 1, 2)])])
    assert centralizes(identity(3), rot)
    assert not centralizes(from_cycles(3, [(0, 1)]), rot)
    s = from_cycles(3, [(0, 1)])
    lhs = compose(s, from_cycles(3, [(0, 1, 2)]))
    rhs = compose(from_cycles(3, [(0, 1, 2)]), s)
    assert lhs != rhs  # definitional cross-check


def test_every_generator_sifts():
    gens = [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(1, 4), (2, 3)])]
    group = schreier_sims(gens)
    for gen in group.generators:
        assert group.contains(gen)


def reference_schreier_sims(generators, degree, order_bound=None, base=()):
    """The chain build with no inverse cache, kept as the reference: every
    sift step and every Schreier generator inverts its transversal
    representative afresh.  Valid input only; returns (order, base,
    strong generators, contains)."""
    gens = [tuple(g) for g in generators]
    base = list(base)
    seen = set()
    gens = [g for g in gens
            if not is_identity(g) and not (g in seen or seen.add(g))]
    strong = []
    transversals = [{} for _ in base]
    stale = [True] * len(base)

    def level_gens(i):
        return [s for s in strong if all(s[b] == b for b in base[:i])]

    def insert_gen(g):
        k = 0
        while k < len(base) and g[base[k]] == base[k]:
            k += 1
        if k == len(base):
            base.append(min(p for p in range(degree) if g[p] != p))
            transversals.append({})
            stale.append(True)
        strong.append(g)
        stale[:k + 1] = [True] * (k + 1)
        return k

    def rebuild_transversal(i):
        if not stale[i]:
            return
        t = {base[i]: identity(degree)}
        queue = [base[i]]
        gl = level_gens(i)
        for x in queue:
            for s in gl:
                y = s[x]
                if y not in t:
                    t[y] = compose(t[x], s)
                    queue.append(y)
        transversals[i] = t
        stale[i] = False

    def strip(g, start):
        for i in range(start, len(base)):
            x = g[base[i]]
            if x not in transversals[i]:
                return g, i
            g = compose(g, inverse(transversals[i][x]))
        return g, len(base)

    for g in gens:
        insert_gen(g)
    for i in range(len(base)):
        rebuild_transversal(i)
    i = len(base) - 1
    while i >= 0:
        rebuild_transversal(i)
        if (order_bound is not None
                and prod(len(t) for t in transversals) == order_bound):
            break
        stuck = None
        t = transversals[i]
        gl = level_gens(i)
        for x in sorted(t):
            for s in gl:
                us = compose(t[x], s)
                uy = t[s[x]]
                if us == uy:
                    continue
                h, _ = strip(compose(us, inverse(uy)), i + 1)
                if not is_identity(h):
                    stuck = insert_gen(h)
                    break
            if stuck is not None:
                break
        i = stuck if stuck is not None else i - 1

    def contains(p):
        return is_identity(strip(tuple(p), 0)[0])

    return (prod(len(t) for t in transversals), tuple(base), tuple(strong),
            contains)


def record_pipeline_chains(monkeypatch):
    """(arguments, chain) of every schreier_sims call that Aut(g) and the
    dart and cover stages make over the builtin and stress graphs (only
    Aut(g) builds one), with the analysis cache cleared first, and of a
    chain of each lift, which the pipeline no longer builds: it is built
    here from the lifted generators on the dart base (b, first neighbour
    of b) over Aut(g)'s base points, under the bound |Aut(g)|."""
    calls = []
    real = perms.schreier_sims

    def record(generators, degree=None, order_bound=None, base=()):
        args = ([tuple(s) for s in generators], degree, order_bound,
                tuple(base))
        group = real(*args)
        calls.append((args, group))
        return group

    for module in (autgroup, perms):
        monkeypatch.setattr(module, "schreier_sims", record)
    autgroup._analysis.cache_clear()
    graphs = [(e.name, e.graph()) for e in builtin_entries()]
    graphs += [(name, make()) for name, make in zip(STRESS_NAMES, STRESS_GRAPHS)]
    for name, g in graphs:
        group = autgroup.automorphism_group(g)
        if g.degrees()[0] != 3 or name == "f026":
            continue        # the dart chain needs a 2-arc-transitive cubic g
        dart, natural, labeling = dartgraph.dart_graph(g)
        lifted = dartgraph.lift_automorphisms(g, group, labeling)
        record(lifted.generators, dart.n, group.order,
               [labeling.index[(b, g.adj[b][0])] for b in group.base])
        if dart.n > 12:     # the cover stage starts above 12 darts
            dec = alternating_cycles(dart, natural)
            covers.cover_pipeline(
                dart, dec, lifted, antipodal_involution(dart, dec, lifted))
    autgroup._analysis.cache_clear()
    return calls


def cache_probes(gens, degree, rng):
    """The generators, random words in them and random permutations."""
    probes = list(gens)
    for _ in range(10):
        word = identity(degree)
        for _ in range(rng.randint(1, 6)):
            word = compose(word, rng.choice(gens))
        images = list(range(degree))
        rng.shuffle(images)
        probes += [word, tuple(images)]
    return probes


def random_chain_args():
    """Seeded random generating sets of degree 5 to 12, some with a base."""
    rng = random.Random(1313)
    for _ in range(30):
        n = rng.randint(5, 12)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        base = tuple(rng.sample(range(n), rng.randint(0, 2)))
        yield gens, n, None, base


def test_cached_chains_match_uncached_reference(monkeypatch):
    """Chains that invert each representative at most once have the
    order, base, strong generators and membership verdicts of the
    uncached build, on the builtin and stress Aut(g) and lift chains and
    on seeded random groups."""
    calls = record_pipeline_chains(monkeypatch)
    monkeypatch.undo()
    degrees = {args[1] for args, _ in calls}
    assert len(calls) > 3 * len(STRESS_NAMES) and max(degrees) == 270
    rng = random.Random(13)
    cases = calls + [(args, schreier_sims(*args))
                     for args in random_chain_args()]
    for args, group in cases:
        order, base, strong, contains = reference_schreier_sims(*args)
        assert (group.order, group.base, group.strong_generators) == (
            order, base, strong)
        if group.generators:
            for p in cache_probes(group.generators, group.degree, rng):
                assert group.contains(p) == contains(p)


def test_each_representative_inverted_at_most_once(monkeypatch):
    """Building a chain and sifting through it inverts no transversal
    representative twice: each inverse is computed on first use and kept
    until its level is rebuilt, which makes new representatives."""
    calls = record_pipeline_chains(monkeypatch)
    monkeypatch.undo()
    rng = random.Random(7)
    inverted = {}
    real = perms.inverse

    def counted(p):
        assert id(p) not in inverted, "representative inverted twice"
        inverted[id(p)] = p         # keeps p alive, so its id stays unique
        return real(p)

    monkeypatch.setattr(perms, "inverse", counted)
    cases = [args for args, _ in calls] + list(random_chain_args())
    for args in cases:
        group = schreier_sims(*args)
        if group.generators:
            for p in cache_probes(group.generators, group.degree, rng):
                group.contains(p)
                group.contains(p)
    assert inverted
