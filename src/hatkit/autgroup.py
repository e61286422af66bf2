"""Automorphism groups, canonical forms and transitivity classification.

The engine is an individualization-refinement backtracking search.  The
refinement is the coarsest equitable refinement (every vertex of a cell
has the same number of neighbours in every cell); the target cell is the
first smallest non-singleton cell and its vertices are individualized in
increasing order.  Discovered automorphisms prune sibling branches whose
candidate lies in the orbit of an already explored candidate under the
subgroup fixing the current individualization prefix pointwise.  The
canonical certificate is the graph6 string of the relabeled graph that
minimizes the encoding over the leaves of the search tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NotAutomorphisms, TooLarge
from .graphs import Graph, is_regular, maps_edges, relabel
from .graph6 import write_graph6
from .records import JsonRecord
from .perms import (
    PermGroup,
    compose,
    identity,
    inverse,
    is_identity,
    orbits,
    schreier_sims,
)

_MAX_VERTICES = 10_000

# ColoredPartition: ordered tuple of disjoint cells covering 0..n-1.
ColoredPartition = tuple


def unit_partition(g: Graph) -> ColoredPartition:
    return (tuple(range(g.n)),) if g.n else ()


def _check_partition(g, partition):
    seen = []
    for cell in partition:
        seen.extend(cell)
    if sorted(seen) != list(range(g.n)):
        raise ValueError("cells do not partition the vertex set")


def refine(g: Graph, partition) -> ColoredPartition:
    """Coarsest equitable refinement of an ordered partition.

    Cells split by the multiset of (cell index, neighbour count) pairs of
    their vertices; split parts are ordered by ascending signature, so the
    result depends only on the isomorphism type of (g, partition).
    """
    _check_partition(g, partition)
    cells = [tuple(sorted(cell)) for cell in partition]
    while True:
        cell_id = [0] * g.n
        for i, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = i
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(Counter(cell_id[w] for w in g.adj[v]).items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return tuple(cells)


def _individualize(partition, cell_index, v):
    cell = partition[cell_index]
    rest = tuple(w for w in cell if w != v)
    return partition[:cell_index] + ((v,), rest) + partition[cell_index + 1:]


def _target_cell(partition):
    best = None
    for i, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = i
    return best


class _Search:
    """One full IR search over a graph: automorphism generators plus the
    minimum-encoding leaf."""

    def __init__(self, g):
        self.g = g
        self.aut_gens = []
        self._gen_set = set()
        self.leaves = {}          # encoding -> labeling of first leaf with it
        self.best_enc = None
        self.best_pi = None

    def run(self):
        if self.g.n == 0:
            self.best_pi = ()
            self.best_enc = write_graph6(self.g).encode("ascii")
            return self
        self._explore(refine(self.g, unit_partition(self.g)), ())
        return self

    def _explore(self, partition, prefix):
        cell_index = _target_cell(partition)
        if cell_index is None:
            self._leaf(partition)
            return
        cell = partition[cell_index]
        explored = []
        for v in cell:
            if explored and self._in_explored_orbit(v, explored, prefix):
                continue
            child = refine(self.g, _individualize(partition, cell_index, v))
            self._explore(child, prefix + (v,))
            explored.append(v)

    def _in_explored_orbit(self, v, explored, prefix):
        # Not perms.orbits: this sweep stops at the first hit and runs in
        # the inner loop of the search, where refinement already dominates.
        gens = [a for a in self.aut_gens if all(a[q] == q for q in prefix)]
        if not gens:
            return False
        seen = set(explored)
        queue = list(explored)
        while queue:
            x = queue.pop()
            for a in gens:
                y = a[x]
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    def _leaf(self, partition):
        pi = [0] * self.g.n
        for pos, cell in enumerate(partition):
            pi[cell[0]] = pos
        pi = tuple(pi)
        enc = write_graph6(relabel(self.g, pi)).encode("ascii")
        other = self.leaves.get(enc)
        if other is None:
            self.leaves[enc] = pi
        else:
            aut = compose(pi, inverse(other))
            if not is_identity(aut) and aut not in self._gen_set:
                assert maps_edges(aut, self.g, self.g), \
                    "leaf pair gave a non-automorphism"
                self._gen_set.add(aut)
                self.aut_gens.append(aut)
        if self.best_enc is None or enc < self.best_enc:
            self.best_enc = enc
            self.best_pi = pi


class _SearchResult:
    """What one IR search leaves behind: the automorphism generators, the
    canonical labeling and certificate, and the Aut(g) chain once
    automorphism_group has built it.  The leaf table is not kept."""

    __slots__ = ("generators", "labeling", "certificate", "group")

    def __init__(self, search):
        self.generators = tuple(search.aut_gens)
        self.labeling = search.best_pi
        self.certificate = search.best_enc
        self.group = None


@lru_cache(maxsize=512)
def _analysis(g: Graph) -> _SearchResult:
    if g.n > _MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the {_MAX_VERTICES} vertex bound")
    return _SearchResult(_Search(g).run())


def automorphism_group(g: Graph) -> PermGroup:
    """The full automorphism group, with exact BSGS-certified order.

    The stabiliser chain is built from the search's generators on the
    first call and kept with the search result; isomorphism tests and
    canonical forms read the search alone.
    """
    result = _analysis(g)
    if result.group is None:
        group = schreier_sims(result.generators, degree=g.n)
        for gen in group.generators:
            assert maps_edges(gen, g, g)
        result.group = group
    return result.group


def canonical_form(g: Graph):
    """(canonically relabeled graph, certificate bytes).

    Certificates of two graphs coincide exactly when the graphs are
    isomorphic; the certificate is the graph6 encoding of the relabeled
    graph.
    """
    result = _analysis(g)
    return relabel(g, result.labeling), result.certificate


def is_isomorphic(g: Graph, h: Graph):
    """A vertex bijection g -> h when one exists, else None.

    The returned tuple maps each vertex of g to a vertex of h and is
    verified to carry edges to edges bijectively.
    """
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return None
    if g == h:
        return identity(g.n)
    search_g, search_h = _analysis(g), _analysis(h)
    if search_g.certificate != search_h.certificate:
        return None
    mapping = compose(search_g.labeling, inverse(search_h.labeling))
    assert maps_edges(mapping, g, h)
    return mapping


@dataclass
class TransitivityReport(JsonRecord):
    """How a supplied group acts on a graph.

    half_arc_transitive means vertex- and edge- but not arc-transitive;
    the flags always satisfy two_arc => arc => edge.  arc_orbits is the
    orbit partition of the arcs, ordered by smallest arc.
    """

    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    two_arc_transitive: bool
    half_arc_transitive: bool
    arc_orbit_count: int
    arc_orbits: tuple = field(repr=False)


def _all_two_arcs(g):
    out = []
    for v in range(g.n):
        for u in g.adj[v]:
            for w in g.adj[v]:
                if u != w:
                    out.append((u, v, w))
    return out


def arc_orbits(generators, g: Graph):
    """Orbit partition of the 2|E| arcs under the group the generators
    generate, ordered by smallest arc.

    Orbits need generators only, so no stabiliser chain is built; each
    generator must be an automorphism of g.
    """
    for gen in generators:
        if len(gen) != g.n or not maps_edges(gen, g, g):
            raise NotAutomorphisms("generator does not preserve adjacency")
    arcs = [(u, v) for u in range(g.n) for v in g.adj[u]]
    return tuple(orbits(arcs, generators, lambda s, a: (s[a[0]], s[a[1]])))


def transitivity_report(group: PermGroup, g: Graph) -> TransitivityReport:
    """Orbit-count classification of the action of a group on a graph.

    The group must consist of automorphisms of g.  Transitivity on each
    structure means at most one orbit; two-arc-transitivity additionally
    requires arc-transitivity so the implication chain holds even on
    degenerate graphs.  For a half-arc-transitive action the two arc
    orbits are verified to be each other's reverse.
    """
    if group.degree != g.n:
        raise NotAutomorphisms(
            f"group degree {group.degree} != vertex count {g.n}")
    gens = group.generators
    arc_orbit_list = arc_orbits(gens, g)
    vertex_t = g.n <= 1 or len(group.orbit(0)) == g.n

    def act_edge(s, e):
        a, b = s[e[0]], s[e[1]]
        return (a, b) if a < b else (b, a)

    def act_two_arc(s, t):
        return (s[t[0]], s[t[1]], s[t[2]])

    edge_orbits = orbits(g.edges, gens, act_edge)
    two_arc_orbits = orbits(_all_two_arcs(g), gens, act_two_arc)

    edge_t = len(edge_orbits) <= 1
    arc_t = len(arc_orbit_list) <= 1
    two_arc_t = arc_t and len(two_arc_orbits) <= 1
    half_arc_t = vertex_t and edge_t and not arc_t

    if g.m and vertex_t and edge_t:
        k = g.degree(0)
        if k % 2 == 1 and is_regular(g, k):
            # vertex- and edge-transitive on odd valence forces arc-transitive
            assert arc_t, "odd-valence sanity check failed"
    if half_arc_t:
        first, second = arc_orbit_list
        assert {(b, a) for a, b in first} == set(second), \
            "half-arc-transitive arc orbits are not mutual reverses"

    return TransitivityReport(
        vertex_transitive=vertex_t,
        edge_transitive=edge_t,
        arc_transitive=arc_t,
        two_arc_transitive=two_arc_t,
        half_arc_transitive=half_arc_t,
        arc_orbit_count=len(arc_orbit_list),
        arc_orbits=arc_orbit_list,
    )
