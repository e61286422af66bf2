import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatkit.errors import (
    DegreeMismatch,
    NotInvariant,
    OrderBoundExceeded,
    VertexOutOfRange,
)
from hatkit.perms import (
    centralizes,
    compose,
    cycle_string,
    from_cycles,
    identity,
    induced_action,
    inverse,
    is_identity,
    schreier_sims,
)

from conftest import run_optimized


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


def test_inverse_three_cycle():
    p = from_cycles(3, [(0, 1, 2)])
    assert inverse(p) == from_cycles(3, [(0, 2, 1)])
    assert cycle_string(inverse(p)) == "(0 2 1)"


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
    g = schreier_sims([from_cycles(5, [(0, 1, 2)])])
    assert g.orbit(0) == (0, 1, 2)
    assert g.orbit(3) == (3,)
    with pytest.raises(VertexOutOfRange):
        g.orbit(5)
    trivial = schreier_sims([], degree=4)
    assert trivial.orbit_partition() == ((0,), (1,), (2,), (3,))


def test_orbit_sizes_divide_order():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(3, 7)
        images = list(range(n))
        rng.shuffle(images)
        group = schreier_sims([tuple(images)])
        for orbit in group.orbit_partition():
            assert group.order % len(orbit) == 0


def test_centralizes():
    rot = schreier_sims([from_cycles(3, [(0, 1, 2)])])
    assert centralizes(identity(3), rot)
    assert not centralizes(from_cycles(3, [(0, 1)]), rot)
    s = from_cycles(3, [(0, 1)])
    lhs = compose(s, from_cycles(3, [(0, 1, 2)]))
    rhs = compose(from_cycles(3, [(0, 1, 2)]), s)
    assert lhs != rhs  # definitional cross-check


def test_induced_action_singletons():
    group = schreier_sims([from_cycles(4, [(0, 1, 2, 3)])])
    induced, faithful = induced_action(group, [{i} for i in range(4)])
    assert faithful and induced.order == group.order


def test_induced_action_kernel():
    group = schreier_sims([from_cycles(4, [(0, 1), (2, 3)])])
    induced, faithful = induced_action(group, [{0, 1}, {2, 3}])
    assert induced.order == 1 and not faithful


def test_induced_action_order_bound():
    # S3 x C2 on three blocks; the central (0 1)(2 3)(4 5) fixes every
    # block, so half the order bounds the induced group
    group = schreier_sims([from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
                           from_cycles(6, [(0, 2), (1, 3)]),
                           from_cycles(6, [(0, 1), (2, 3), (4, 5)])])
    blocks = [{0, 1}, {2, 3}, {4, 5}]
    full, faithful = induced_action(group, blocks)
    bounded, bounded_faithful = induced_action(
        group, blocks, order_bound=group.order // 2)
    assert group.order == 12
    assert bounded.order == full.order == 6
    assert not faithful and not bounded_faithful


def test_induced_action_not_invariant():
    group = schreier_sims([from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(NotInvariant):
        induced_action(group, [{0, 1}, {2, 3}])
    with pytest.raises(ValueError):
        induced_action(group, [{0, 1}, {1, 2}])


def test_every_generator_sifts():
    gens = [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(1, 4), (2, 3)])]
    group = schreier_sims(gens)
    for gen in group.generators:
        assert group.contains(gen)
