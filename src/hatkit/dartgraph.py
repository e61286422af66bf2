"""Dart graphs of cubic graphs and the correspondence with alternating
cycles.

The dart graph of a cubic graph has one vertex per arc (dart) of the base
graph; darts (u,v) and (v,w) with u != w are adjacent, so edges of the
dart graph are the 2-arcs of the base.  Orienting every edge from (u,v)
to (v,w) gives the natural orientation.  For a 2-arc-transitive base the
lifted action is half-arc-transitive on the dart graph with radius 3 and
attachment number 2, the graph of alternating cycles reconstructs the
base, and an explicit orientation-compatible isomorphism goes back from
the dart graph of the reconstruction.

The alternating cycle of base vertex x with neighbours a, b, c is
(a,x), (x,b), (c,x), (x,a), (b,x), (x,c), so antipodes on it are
reversed darts: the dart reversal (u,v) -> (v,u) is the antipodal
involution of the natural orientation, and altcycles.antipodal_involution
is its one implementation.
"""

from __future__ import annotations

from .errors import (
    DegreeMismatch,
    Not2ArcTransitive,
    NotConnected,
    NotCubic,
    StructureViolation,
    TooSmall,
    check,
)
from .graphs import (Graph, from_edge_list, is_connected, isomorphism_fault,
                     non_edge_text, valence)
from .autgroup import TransitivityReport, _check_automorphisms
from .altcycles import (AltDecomposition, Orientation, _require_3_2,
                        alternating_cycles)
from .perms import PermGroup, _check_element
from .records import Record


class DartLabeling(Record):
    """Bijection between dart-graph vertices and arcs of the base graph,
    with the dart graph and its natural orientation attached."""

    base: Graph
    graph: Graph
    orientation: Orientation
    darts: tuple


def _darts(base: Graph):
    """(darts, two_arcs) of a cubic graph: its arcs in lexicographic
    order, so that dart (u, v) is darts[3 u + adj[u].index(v)], and its
    2-arcs ((u, v), (v, w)) with w != u as pairs of positions, by first
    dart."""
    darts = tuple((u, v) for u in range(base.n) for v in base.adj[u])
    two_arcs = [(i, 3 * v + k) for i, (u, v) in enumerate(darts)
                for k, w in enumerate(base.adj[v]) if w != u]
    return darts, two_arcs


def dart_graph(base: Graph):
    """(dart graph, natural orientation, labeling) of a connected cubic
    graph.  Darts are sorted lexicographically; vertex i is darts[i].

    The natural orientation is not validated again: its arcs are the
    edges the dart graph is built from, so each edge is directed once
    (Graph rejects a 2-arc listed twice, DuplicateEdge), and each dart
    (u, v) tails the two 2-arcs to (v, w), w != u, and heads the two from
    (t, u), t != v.  A 2-arc missing from _darts fails
    lift_preserves_natural_orientation in verify_dart_forward."""
    if valence(base) != 3:
        raise NotCubic("dart graphs are built from cubic graphs only")
    if not is_connected(base):
        raise NotConnected("base graph is not connected")
    darts, arcs = _darts(base)
    g = from_edge_list(len(darts), arcs)
    orientation = Orientation._unchecked(g, arcs)
    labeling = DartLabeling(
        base=base, graph=g, orientation=orientation, darts=darts)
    return g, orientation, labeling


class LiftedGroup:
    """A group G of automorphisms of a cubic base graph acting on its
    darts by g.(u, v) = (g(u), g(v)), built by lift_automorphisms.  It
    holds no stabiliser chain of its own: degree is the number of darts,
    generators are the lifts of G's strong generators, order is |G|, and
    contains decides membership with G's chain, of degree n rather than
    3n.  dart_cycles is None until verify_dart_forward proves each
    alternating cycle of its decomposition to be the six darts at one
    base vertex (alt_reconstructs_base); it is then that decomposition.
    The lift of g maps the darts at x onto those at g(x), so it maps the
    cycle of x onto the cycle of g(x): the lift permutes those cycles, and
    cover_pipeline does not check it again."""

    def __init__(self, group: PermGroup, labeling: DartLabeling, generators):
        self.degree = len(labeling.darts)
        self.generators = tuple(generators)
        self.order = group.order
        self.dart_cycles = None
        self._group = group
        self._labeling = labeling

    def contains(self, p):
        """True when the dart permutation p lies in the lift, that is when
        (1) p maps the darts out of each vertex u onto the darts out of
        one vertex sigma(u), (2) p is the lift of sigma, and (3) sigma
        lies in G.  The dart reversal fails (1) at the second dart of
        vertex 0.  Each vertex has three darts and p is a bijection, so
        sigma in (1) is a permutation."""
        _check_element(p, self.degree)
        darts = self._labeling.darts
        sigma = [None] * self._group.degree
        for (u, _), image in zip(darts, p):
            tail = darts[image][0]
            if sigma[u] is None:
                sigma[u] = tail
            elif sigma[u] != tail:
                return False
        if any(darts[image] != (sigma[u], sigma[v])
               for (u, v), image in zip(darts, p)):
            return False
        return self._group.contains(tuple(sigma))


def lift_automorphisms(group: PermGroup,
                       labeling: DartLabeling) -> LiftedGroup:
    """View automorphisms of labeling.base as dart-graph automorphisms via
    g.(u,v) = (g(u), g(v)), as a LiftedGroup of order |group|.  The
    labeling lists the darts as dart_graph does, so the image of dart
    (u, v) is darts[3 g(u) + adj[g(u)].index(g(v))].

    The lift is faithful: if the lift of g fixes every dart (u, v), then
    g fixes every tail u, and every vertex of a cubic graph is a tail.
    So the lift is a copy of the group, with its order, and no chain of
    it is built.  The premise is checked (lift_faithful, with a base
    vertex that is the tail of no dart of the labeling), and so is that
    every lifted generator keeps the natural orientation
    (lift_preserves_natural_orientation, with the generator index and
    the arc); a failure raises StructureViolation naming the check, also
    under python -O."""
    base, darts = labeling.base, labeling.darts
    if group.degree != base.n:
        raise DegreeMismatch(
            f"group degree {group.degree} != base order {base.n}")
    _check_automorphisms(group.strong_generators, base)
    tails = {u for u, _ in darts}
    bare = next((u for u in range(base.n) if u not in tails), None)
    if bare is not None:
        raise StructureViolation(f"lift_faithful: base vertex {bare} is the "
                                 "tail of no dart")
    lifted = LiftedGroup(group, labeling, (
        tuple(3 * s[u] + base.adj[s[u]].index(s[v]) for u, v in darts)
        for s in group.strong_generators))
    out_adj = labeling.orientation.out_adj
    for i, gen in enumerate(lifted.generators):
        arc = next(((t, h) for t, h in labeling.orientation.arcs
                    if gen[h] not in out_adj[gen[t]]), None)
        if arc is not None:
            raise StructureViolation(
                f"lift_preserves_natural_orientation: lifted generator {i} "
                f"maps natural arc {arc} to {(gen[arc[0]], gen[arc[1]])}")
    return lifted


def verify_dart_forward(base: Graph, group: PermGroup,
                        report: TransitivityReport):
    """Build the dart graph of a 2-arc-transitive cubic graph, lift the
    group, and certify, each check a StructureViolation naming it on
    failure: the lifted action is half-arc-transitive
    (dart_half_arc_transitive, checked as the lift having |group|
    elements, with both orders), the natural orientation is one of the
    two it induces (natural_orientation_induced, a pass by the proof
    below), the natural orientation has radius 3 and attachment 2
    (dart_radius_3 and dart_attachment_2, with (radius, attachment)),
    and the graph of alternating cycles is isomorphic to the base
    (alt_reconstructs_base, with the witness of
    graphs.isomorphism_fault).  The alternating cycle of base vertex x
    is the six darts at x, so the isomorphism maps each cycle to the
    vertex its darts share; once it passes, lifted.dart_cycles is dec
    (each cycle has six darts, all at its vertex x, so it is the six
    darts at x).

    report is transitivity_report(group, base), which the caller already
    holds; Not2ArcTransitive unless it is 2-arc-transitive.  Returns
    (labeling, lifted, dec, checks): the DartLabeling (dart graph and
    natural orientation), the LiftedGroup, the alternating cycles of the
    natural orientation, and the tuple of the (name, detail) pairs of the
    checks made, in the order they were made.

    No transitivity report of the lift is made; the facts above prove
    the classification.  The lift is generated by the lifts of the
    group's strong generators, so it is the group acting on the darts.
    It has |group| elements (dart_half_arc_transitive, and lift_faithful
    inside lift_automorphisms), so every element acts as its own lift.
    The darts are the base's arcs, and the natural arcs ((u, v), (v, w))
    with u != w are its 2-arcs.  The group is 2-arc-transitive
    (report.two_arc_transitive, else Not2ArcTransitive), and so
    arc-transitive on the cubic base, so the lift is transitive on the
    dart graph's vertices and on its edges.  Every lifted generator keeps
    the natural orientation (lift_preserves_natural_orientation), so no
    element reverses an edge: the arc orbits are the natural orientation
    and its reverse.  The action is half-arc-transitive, and the natural
    orientation is induced."""
    if not report.two_arc_transitive:
        raise Not2ArcTransitive(
            "the supplied action on the base graph is not 2-arc-transitive")
    _, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(group, labeling)
    checks = []
    faithful = lifted.order == group.order
    check(checks, "dart_half_arc_transitive", faithful, "" if faithful else
          f"the lift has order {lifted.order}, the group {group.order}")
    # the natural orientation is induced by the proof above
    checks.append(("natural_orientation_induced", ""))
    dec = alternating_cycles(natural)
    values = f"(radius, attachment) = ({dec.radius}, {dec.attachment})"
    check(checks, "dart_radius_3", dec.radius == 3, values)
    check(checks, "dart_attachment_2", dec.attachment == 2, values)
    cycle_to_vertex = [
        min(set.intersection(*(set(labeling.darts[i]) for i in cyc)),
            default=-1) for cyc in dec.cycles]
    fault = isomorphism_fault(cycle_to_vertex, dec.cycle_graph, base)
    check(checks, "alt_reconstructs_base", not fault, fault)
    lifted.dart_cycles = dec
    return labeling, lifted, dec, tuple(checks)


def psi_isomorphism(d: Orientation, dec: AltDecomposition):
    """The explicit isomorphism from the dart graph of the graph of
    alternating cycles back onto g = d.graph, for a half-arc-transitive
    action with radius 3 and attachment 2.

    d must be an orientation induced by that action and dec its
    alternating cycles, as verify_dart_forward certifies them.  The dart
    (C, C') maps to the unique vertex of the two-point intersection of C
    and C' that heads both of its edges on C in d.  Returns (mapping,
    checks); the mapping is indexed by dart-graph vertices, in the order
    of dart_graph(dec.cycle_graph), and verified to be an isomorphism
    that carries the natural orientation onto d, and checks is the tuple
    of the (name, detail) pairs of the checks made, in the order they
    were made.
    No dart graph is built: its edges, each in its natural direction,
    are the 2-arcs ((C1, C2), (C2, C3)) with C3 != C1 of the
    reconstruction, and these are checked against g and d.  A failed
    check raises StructureViolation naming it (psi_unique_head,
    psi_bijective, psi_preserves_adjacency or psi_orientation_compatible)
    with the dart, the first edge or the first natural arc of the dart
    graph that fails it, also under python -O.  Heads are read off
    d.in_adj (the images) and d.out_adj (the arcs).  With d.reverse() the
    mapping is compose(rev, mapping) for the dart reversal rev of the
    dart graph.
    """
    _require_3_2(dec, "the dart correspondence")
    g = d.graph
    # cubic by alt_graph_regular (ell = 2r/a = 3); each cycle has 6 vertices
    lam = dec.cycle_graph
    darts, two_arcs = _darts(lam)

    by_pair = {}
    for v, pair in enumerate(dec.cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)

    positions = [{v: p for p, v in enumerate(cyc)} for cyc in dec.cycles]
    in_adj, out_adj = d.in_adj, d.out_adj

    def heads_both_on(c, v):
        cyc, p = dec.cycles[c], positions[c][v]
        return cyc[p - 1] in in_adj[v] and cyc[(p + 1) % 6] in in_adj[v]

    psi, fault = [], ""
    for i, (c1, c2) in enumerate(darts):
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

    # |V(g)| / 3 cycles give |V(g)| darts, so an injective psi is bijective
    taken = {}
    pair = next(((taken[v], i) for i, v in enumerate(psi)
                 if taken.setdefault(v, i) != i), None)
    check(checks, "psi_bijective", pair is None,
          "" if pair is None else f"darts {pair} map to the same vertex")

    def first(arcs):
        # the dart graph lists its edges and natural arcs by (min, max)
        return min(arcs, key=sorted, default=None)

    edge = first((a, b) for a, b in two_arcs if psi[b] not in g.nbrs[psi[a]])
    check(checks, "psi_preserves_adjacency", edge is None,
          "" if edge is None else non_edge_text(psi, sorted(edge)))
    arc = first((a, b) for a, b in two_arcs
                if psi[b] not in out_adj[psi[a]])
    check(checks, "psi_orientation_compatible", arc is None,
          "" if arc is None else f"natural arc {arc} maps against d")
    return psi, tuple(checks)


def wreath_graph(r: int) -> Graph:
    """The wreath of an r-cycle over two vertices: vertices (i, j) with
    i mod r and j in {0, 1} stored as 2i+j, all four edges between
    consecutive fibres."""
    if r < 3:
        raise TooSmall("wreath graphs need a cycle of length at least 3")
    edges = []
    for i in range(r):
        k = (i + 1) % r
        for j in (0, 1):
            for j2 in (0, 1):
                edges.append((2 * i + j, 2 * k + j2))
    return from_edge_list(2 * r, edges)
