"""Permutations as image tuples and permutation groups with a BSGS.

Composition is left to right throughout the package: compose(p, q) maps
i to q[p[i]], i.e. points are acted on from the right and compose(p, q)
means "apply p, then q".
"""

from __future__ import annotations

from math import prod
from operator import itemgetter

from .errors import (
    DegreeMismatch,
    InvalidArgument,
    NotPermutation,
    OrderBoundExceeded,
    VertexOutOfRange,
)

Perm = tuple


def identity(n) -> Perm:
    return tuple(range(n))


def is_identity(p) -> bool:
    return p == tuple(range(len(p)))


def check_perm(p):
    """NotPermutation unless p is a permutation of 0..len(p) - 1, naming
    the first image that is not an int, or else the first that lies
    outside that range or repeats an earlier one.  An image such as 1.0
    compares equal to an int but indexes nothing."""
    bad = next((i for i, x in enumerate(p) if not isinstance(x, int)), None)
    if bad is not None:
        raise NotPermutation(f"not a permutation: image {p[bad]!r} of {bad} "
                             "is not an int")
    if sorted(p) != list(range(len(p))):
        first = {}
        for i, x in enumerate(p):
            if not 0 <= x < len(p):
                raise NotPermutation(f"not a permutation: image {x} of {i} "
                                     f"lies outside 0..{len(p) - 1}")
            if x in first:
                raise NotPermutation(f"not a permutation: image {x} of {i} "
                                     f"repeats the image of {first[x]}")
            first[x] = i


def _check_element(p, degree):
    """DegreeMismatch unless p has the given degree, then check_perm: the
    check of a permutation argument against a group's degree."""
    if len(p) != degree:
        raise DegreeMismatch(
            f"permutation degree {len(p)} != group degree {degree}")
    check_perm(p)


def compose(p, q) -> Perm:
    """Apply p, then q: the image of i is q[p[i]]."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    if len(p) < 2:
        # itemgetter with one index returns a scalar, with none it raises
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def inverse(p) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def from_cycles(n, cycles) -> Perm:
    """Permutation of 0..n-1 given as disjoint cycles, e.g. [(0, 1, 2)];
    an empty cycle moves nothing.  NotPermutation, a ValueError, names a
    point outside 0..n-1 and its cycle, or a point that two cycles share
    and both cycles (one cycle twice when it repeats the point)."""
    images = list(range(n))
    seen = {}
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not 0 <= a < n:
                raise NotPermutation(f"point {a} of cycle {cycle} lies "
                                     f"outside 0..{n - 1}")
            if a in seen:
                raise NotPermutation(f"point {a} lies in both cycle "
                                     f"{seen[a]} and cycle {cycle}")
            seen[a] = cycle
            images[a] = b
    return tuple(images)


class _Transversal(dict):
    """One level of a stabiliser chain: maps each point x of the basic
    orbit to a representative carrying the base point to x, and inverts
    each representative at most once, on first use.  A rebuilt level is a
    new _Transversal, so its inverses are computed afresh."""

    __slots__ = ("_inverses",)

    def __init__(self, *args):
        super().__init__(*args)
        self._inverses = {}

    def inverse(self, x):
        """inverse(self[x]), computed at most once per point."""
        inv = self._inverses.get(x)
        if inv is None:
            inv = self._inverses[x] = inverse(self[x])
        return inv


def _strip(g, base, transversals, start):
    """Strip g through the chain from level start on; returns (residue,
    level reached)."""
    for i in range(start, len(base)):
        x = g[base[i]]
        t = transversals[i]
        if x not in t:
            return g, i
        g = compose(g, t.inverse(x))
    return g, len(base)


class PermGroup:
    """Permutation group with a base and strong generating set.

    The chain is deterministic: base points are the ones given to
    schreier_sims, then the smallest point moved by the generator that
    forced them, and transversal representatives are found breadth first.
    ``order`` is the exact product of the fundamental orbit lengths.
    Built via :func:`schreier_sims`.
    """

    def __init__(self, degree, generators, base, strong, transversals):
        self.degree = degree
        self.generators = tuple(generators)
        self.base = tuple(base)
        self._strong = tuple(strong)
        self._transversals = transversals
        order = 1
        for t in transversals:
            order *= len(t)
        self.order = order

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @property
    def strong_generators(self):
        """The strong generating set of the chain: the generators first,
        then those the closure added."""
        return self._strong

    @property
    def basic_orbits(self):
        """The basic orbits of the chain, one per base point in base
        order, each sorted."""
        return tuple(tuple(sorted(t)) for t in self._transversals)

    def contains(self, p):
        _check_element(p, self.degree)
        residue, _ = _strip(tuple(p), self.base, self._transversals, 0)
        return is_identity(residue)

    def first_level(self):
        """The top of the chain of a nontrivial group, read only:
        (b, size, stabiliser generators).  b is base[0] and size the
        length of its basic orbit, which is the orbit of b under the
        group.  The stabiliser generators are the strong generators that
        fix b; they generate the stabiliser of b, also when the build
        stopped at its order bound (proof at autgroup._arc_action)."""
        if not self.base:
            raise ValueError("the trivial group has no base point")
        b = self.base[0]
        return (b, len(self._transversals[0]),
                tuple(s for s in self._strong if s[b] == b))


def schreier_sims(generators, degree=None, order_bound=None,
                  base=()) -> PermGroup:
    """Deterministic Schreier-Sims: build a PermGroup with verified BSGS.

    base, when given, lists initial base points, in order.
    InvalidArgument, a ValueError, rejects a base that repeats a point
    and an empty generating set given without degree.  The closure
    loop checks every Schreier generator of every level; a nontrivial sift
    residue becomes a new strong generator at the level it got stuck,
    extending the base when it fixes all current base points.  A level's
    transversal is rebuilt only when a strong generator joined the level
    since its last build, and a representative is inverted at most once
    per build of its level, on first use by the closure or contains.  An
    initial base on which the generators are already strong leaves the
    closure nothing to add, but without an order bound every Schreier
    generator is still sifted; Aut(g) is therefore built on the IR
    search's first path under the bound its target cells prove
    (autgroup.automorphism_group), and the closure runs only when the
    search's generators fall short of it.

    order_bound, when given, must be a proven upper bound on the order of
    the generated group.  Every basic orbit of a partial chain is the
    orbit of its base point under a subgroup of the true point
    stabiliser, so the product of the basic orbit lengths never exceeds
    the group order (Seress, Permutation Group Algorithms, 2003, ch. 4).
    The closure loop computes that product at each level it visits: once
    it equals the bound, every basic orbit is complete and the last
    stabiliser is trivial, so the partial chain is already a BSGS and the
    build stops with exact order and contains.  A product above the
    bound raises OrderBoundExceeded, with the partial chain as its group.
    A bound that is never reached costs nothing: the build runs to full
    closure.
    """
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise InvalidArgument(
                "degree is required for an empty generating set")
        degree = len(gens[0])
    for g in gens:
        _check_element(g, degree)
    base = list(base)
    for b in base:
        if not 0 <= b < degree:
            raise VertexOutOfRange(f"base point {b} outside 0..{degree - 1}")
    if len(set(base)) != len(base):
        raise InvalidArgument(f"base {base} repeats a point")

    seen = set()
    gens = [g for g in gens
            if not is_identity(g) and not (g in seen or seen.add(g))]

    strong: list[Perm] = []
    transversals: list[_Transversal] = [_Transversal() for _ in base]
    stale = [True] * len(base)     # a strong generator joined since built

    def fixes_prefix(g, k):
        return all(g[b] == b for b in base[:k])

    def level_gens(i):
        return [s for s in strong if fixes_prefix(s, i)]

    def insert_gen(g):
        """Add g as a strong generator; returns the level it lives at."""
        k = 0
        while k < len(base) and g[base[k]] == base[k]:
            k += 1
        if k == len(base):
            base.append(min(p for p in range(degree) if g[p] != p))
            transversals.append(_Transversal())
            stale.append(True)
        strong.append(g)
        stale[:k + 1] = [True] * (k + 1)
        return k

    def rebuild_transversal(i):
        if not stale[i]:
            return
        b = base[i]
        t = _Transversal({b: identity(degree)})
        queue = [b]
        gl = level_gens(i)
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for s in gl:
                y = s[x]
                if y not in t:
                    t[y] = compose(t[x], s)
                    queue.append(y)
        transversals[i] = t
        stale[i] = False

    for g in gens:
        insert_gen(g)
    for i in range(len(base)):
        rebuild_transversal(i)

    i = len(base) - 1
    while i >= 0:
        rebuild_transversal(i)
        if order_bound is not None:
            product = prod(len(t) for t in transversals)
            if product == order_bound:
                break
            if product > order_bound:
                raise OrderBoundExceeded(order_bound, product, PermGroup(
                    degree, gens, base, strong, transversals))
        stuck = None
        t = transversals[i]
        gl = level_gens(i)
        for x in sorted(t):
            ux = t[x]
            for s in gl:
                us = compose(ux, s)
                y = s[x]
                if us == t[y]:      # the Schreier generator is the identity
                    continue
                h, _ = _strip(compose(us, t.inverse(y)), base,
                              transversals, i + 1)
                if is_identity(h):
                    continue
                stuck = insert_gen(h)
                break
            if stuck is not None:
                break
        if stuck is not None:
            i = stuck
        else:
            i -= 1

    return PermGroup(degree, gens, base, strong, transversals)


def orbits(items, generators, act):
    """Orbit partition of hashable items under permutation generators.

    act(s, x) is the image of item x under generator s; points use
    operator.getitem.  Each orbit is sorted and the orbits are ordered by
    their minimum item.
    """
    seen = set()
    parts = []
    for item in sorted(items):
        if item in seen:
            continue
        orbit = {item}
        queue = [item]
        while queue:
            x = queue.pop()
            for s in generators:
                y = act(s, x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        parts.append(tuple(sorted(orbit)))
    return parts


def centralizes(p, group: PermGroup) -> bool:
    """True when the permutation p commutes with every generator of the
    group (NotPermutation when p is none)."""
    _check_element(p, group.degree)
    return all(compose(p, s) == compose(s, p) for s in group.generators)
