"""Permutations as image tuples and permutation groups with a BSGS.

Composition is left to right throughout the package: compose(p, q) maps
i to q[p[i]], i.e. points are acted on from the right and compose(p, q)
means "apply p, then q".
"""

from __future__ import annotations

from math import prod
from operator import getitem

from .errors import (
    DegreeMismatch,
    NotInvariant,
    OrderBoundExceeded,
    VertexOutOfRange,
)

Perm = tuple


def identity(n) -> Perm:
    return tuple(range(n))


def is_identity(p) -> bool:
    return all(i == x for i, x in enumerate(p))


def check_perm(p):
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p!r} is not a permutation of 0..{len(p) - 1}")


def compose(p, q) -> Perm:
    """Apply p, then q: the image of i is q[p[i]]."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def inverse(p) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def from_cycles(n, cycles) -> Perm:
    """Permutation of 0..n-1 given as disjoint cycles, e.g. [(0, 1, 2)]."""
    images = list(range(n))
    seen = set()
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
            if a in seen:
                raise ValueError("cycles are not disjoint")
            seen.add(a)
            images[a] = b
    return tuple(images)


def cycle_string(p) -> str:
    """Disjoint-cycle display, '()' for the identity."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


class PermGroup:
    """Permutation group with a base and strong generating set.

    The chain is deterministic: base points are the smallest point moved
    by the generator that forced them, and transversal representatives are
    found breadth first.  ``order`` is the exact product of the
    fundamental orbit lengths.  Built via :func:`schreier_sims`.
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

    def sift(self, p):
        """Strip p through the chain; returns (residue, level reached)."""
        g = tuple(p)
        for i, b in enumerate(self.base):
            x = g[b]
            t = self._transversals[i]
            if x not in t:
                return g, i
            g = compose(g, inverse(t[x]))
        return g, len(self.base)

    def contains(self, p):
        if len(p) != self.degree:
            raise DegreeMismatch(
                f"permutation degree {len(p)} != group degree {self.degree}")
        check_perm(p)
        residue, _ = self.sift(p)
        return is_identity(residue)

    def __contains__(self, p):
        return self.contains(p)

    def orbit(self, point):
        """Sorted orbit of a point under the group."""
        if not 0 <= point < self.degree:
            raise VertexOutOfRange(f"point {point} outside 0..{self.degree - 1}")
        return orbits([point], self.generators, getitem)[0]

    def orbit_partition(self):
        """Orbits of 0..degree-1, each sorted, ordered by minimum point."""
        return tuple(orbits(range(self.degree), self.generators, getitem))


def schreier_sims(generators, degree=None, order_bound=None) -> PermGroup:
    """Deterministic Schreier-Sims: build a PermGroup with verified BSGS.

    The closure loop checks every Schreier generator of every level; a
    nontrivial sift residue becomes a new strong generator at the level it
    got stuck, extending the base when it fixes all current base points.

    order_bound, when given, must be a proven upper bound on the order of
    the generated group.  Every basic orbit of a partial chain is the
    orbit of its base point under a subgroup of the true point
    stabiliser, so the product of the basic orbit lengths never exceeds
    the group order (Seress, Permutation Group Algorithms, 2003, ch. 4).
    The closure loop computes that product after each transversal
    rebuild: once it equals the bound, every basic orbit is complete and
    the last stabiliser is trivial, so the partial chain is already a
    BSGS and the build stops with exact order, sift and contains.  A
    product above the bound raises OrderBoundExceeded.  A bound that is
    never reached costs nothing: the build runs to full closure.
    """
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generating set")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch(f"generator degree {len(g)} != {degree}")
        check_perm(g)

    seen = set()
    gens = [g for g in gens
            if not is_identity(g) and not (g in seen or seen.add(g))]

    base: list[int] = []
    strong: list[Perm] = []
    transversals: list[dict] = []

    def fixes_prefix(g, k):
        return all(g[b] == b for b in base[:k])

    def level_gens(i):
        return [s for s in strong if fixes_prefix(s, i)]

    def insert_gen(g):
        """Add g as a strong generator; returns the level it lives at."""
        k = 0
        while k < len(base) and g[base[k]] == base[k]:
            k += 1
        new_level = k == len(base)
        if new_level:
            b = min(p for p in range(degree) if g[p] != p)
            base.append(b)
            transversals.append({})
        strong.append(g)
        if new_level:
            rebuild_transversal(k)
        return k

    def rebuild_transversal(i):
        b = base[i]
        t = {b: identity(degree)}
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

    def strip(g, start):
        for i in range(start, len(base)):
            x = g[base[i]]
            t = transversals[i]
            if x not in t:
                return g, i
            g = compose(g, inverse(t[x]))
        return g, len(base)

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
                raise OrderBoundExceeded(order_bound, product)
        stuck = None
        t = transversals[i]
        gl = level_gens(i)
        for x in sorted(t):
            ux = t[x]
            for s in gl:
                residue = compose(compose(ux, s), inverse(t[s[x]]))
                if is_identity(residue):
                    continue
                h, _ = strip(residue, i + 1)
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
    """True when p commutes with every generator of the group."""
    if len(p) != group.degree:
        raise DegreeMismatch(
            f"permutation degree {len(p)} != group degree {group.degree}")
    return all(compose(p, s) == compose(s, p) for s in group.generators)


def induced_action(group: PermGroup, blocks, order_bound=None):
    """Action of the group on a list of disjoint point sets.

    Every generator must permute the blocks (NotInvariant otherwise).
    Returns (induced PermGroup on block indices, faithful flag); the
    action is faithful exactly when the induced order equals the order of
    the group.

    order_bound is passed to schreier_sims for the induced group and must
    be proven by the caller, typically |group| / |K| for a subgroup K known
    to fix every block: the induced group is group / kernel, so reaching
    that bound certifies both the induced order and that K is the whole
    kernel.
    """
    blocks = [frozenset(b) for b in blocks]
    covered = set()
    for b in blocks:
        if covered & b:
            raise ValueError("blocks are not disjoint")
        covered |= b
    index = {b: i for i, b in enumerate(blocks)}
    induced = []
    for s in group.generators:
        images = []
        for b in blocks:
            image = frozenset(s[x] for x in b)
            if image not in index:
                raise NotInvariant(
                    f"generator {cycle_string(s)} does not permute the blocks")
            images.append(index[image])
        induced.append(tuple(images))
    quotient = schreier_sims(induced, degree=len(blocks),
                             order_bound=order_bound)
    return quotient, quotient.order == group.order
