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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DegreeMismatch,
    Not2ArcTransitive,
    NotAutomorphisms,
    NotConnected,
    NotCubic,
    OrientationInvalid,
    StructureViolation,
    TooSmall,
    WrongParameters,
)
from .graphs import (Graph, from_edge_list, is_connected, is_isomorphism,
                     is_regular, maps_edges)
from .autgroup import transitivity_report
from .altcycles import (
    AltDecomposition,
    Orientation,
    alt_graph,
    alternating_cycles,
    induced_orientation,
)
from .perms import PermGroup, schreier_sims
from .records import GROUP_ORDER, JsonRecord


@dataclass
class DartLabeling:
    """Bijection between dart-graph vertices and arcs of the base graph,
    with the dart graph and its natural orientation attached."""

    base: Graph
    graph: Graph
    orientation: Orientation
    darts: tuple
    index: dict


def dart_graph(base: Graph):
    """(dart graph, natural orientation, labeling) of a connected cubic
    graph.  Darts are sorted lexicographically; vertex i is darts[i]."""
    if not is_regular(base, 3):
        raise NotCubic("dart graphs are built from cubic graphs only")
    if not is_connected(base):
        raise NotConnected("base graph is not connected")
    darts = tuple((u, v) for u in range(base.n) for v in base.adj[u])
    index = {d: i for i, d in enumerate(darts)}
    arcs = []
    for i, (u, v) in enumerate(darts):
        for w in base.adj[v]:
            if w != u:
                arcs.append((i, index[(v, w)]))
    g = from_edge_list(len(darts), arcs)
    orientation = Orientation(g, arcs)
    labeling = DartLabeling(
        base=base, graph=g, orientation=orientation, darts=darts, index=index)
    return g, orientation, labeling


def dart_reversal(labeling: DartLabeling):
    """The permutation exchanging each dart (u,v) with (v,u): a fixed-point
    free involutory automorphism mapping the natural orientation to its
    reverse (all verified)."""
    tau = tuple(labeling.index[(v, u)] for (u, v) in labeling.darts)
    g = labeling.graph
    assert all(tau[i] != i for i in range(g.n))
    assert all(tau[tau[i]] == i for i in range(g.n))
    assert maps_edges(tau, g, g)
    reversed_arcs = {(h, t) for t, h in labeling.orientation.arcs}
    assert all((tau[t], tau[h]) in reversed_arcs
               for t, h in labeling.orientation.arcs)
    return tau


def lift_automorphisms(base: Graph, group: PermGroup,
                       labeling: DartLabeling) -> PermGroup:
    """View base-graph automorphisms as dart-graph automorphisms via
    g.(u,v) = (g(u), g(v)).  The lift is faithful (same order) and
    preserves the natural orientation; both facts are verified.

    Once every generator is checked to be an automorphism, the lift is a
    homomorphic image of the group, so |group| bounds its order; the
    chain is built under that bound, and reaching it is the faithfulness
    certificate."""
    if group.degree != base.n:
        raise DegreeMismatch(
            f"group degree {group.degree} != base order {base.n}")
    for gen in group.generators:
        if not maps_edges(gen, base, base):
            raise NotAutomorphisms("generator does not preserve adjacency")
    lifted_gens = [
        tuple(labeling.index[(gen[u], gen[v])] for (u, v) in labeling.darts)
        for gen in group.generators
    ]
    lifted = schreier_sims(lifted_gens, degree=len(labeling.darts),
                           order_bound=group.order)
    assert lifted.order == group.order, "lift must be faithful"
    natural = set(labeling.orientation.arcs)
    for gen in lifted.generators:
        assert all((gen[t], gen[h]) in natural for t, h in natural), \
            "lifted generator must preserve the natural orientation"
    return lifted


@dataclass
class DartForwardReport(JsonRecord):
    """Everything verified when pushing a 2-arc-transitive cubic graph
    through the dart construction, with the artefacts it was verified on:
    the labeling (dart graph and natural orientation), the lifted group
    and the alternating-cycle decomposition of the natural orientation."""

    base_order: int
    dart_order: int
    group_order: int = field(metadata=GROUP_ORDER)
    lifted_order: int = field(metadata=GROUP_ORDER)
    two_arc_transitive: bool
    half_arc_transitive: bool
    radius: int
    attachment: int
    ell: int
    alt_isomorphic_to_base: bool
    natural_orientation_induced: bool
    labeling: DartLabeling = field(repr=False)
    lifted_group: PermGroup = field(repr=False)
    decomposition: AltDecomposition = field(repr=False)


def verify_dart_forward(base: Graph, group: PermGroup) -> DartForwardReport:
    """Build the dart graph of a 2-arc-transitive cubic graph, lift the
    group, and certify: the lifted action is half-arc-transitive with
    radius 3 and attachment 2, the graph of alternating cycles is
    isomorphic to the base, and the natural orientation is one of the two
    induced orientations (StructureViolation naming
    natural_orientation_induced otherwise, with a natural arc outside
    each induced orientation as witness).  The
    alternating cycle of base vertex x is the six darts at x, so the
    isomorphism maps each cycle to the vertex its darts share
    (StructureViolation if that is not an isomorphism)."""
    base_report = transitivity_report(group, base)
    if not base_report.two_arc_transitive:
        raise Not2ArcTransitive(
            "the supplied action on the base graph is not 2-arc-transitive")
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(base, group, labeling)
    # induced_orientation checks that the lifted action is half-arc-transitive
    d, d_rev = induced_orientation(lifted, g)
    if natural not in (d, d_rev):
        outside = [next((a for a in natural.arcs if a not in arcs), None)
                   for arcs in (set(d.arcs), set(d_rev.arcs))]
        raise StructureViolation(
            f"natural_orientation_induced: natural arc {outside[0]} is not "
            f"in the first induced orientation, {outside[1]} not in the "
            "second")
    dec = alternating_cycles(g, natural)
    assert dec.radius == 3, f"radius {dec.radius} != 3"
    assert dec.attachment == 2, f"attachment {dec.attachment} != 2"
    recovered = alt_graph(g, dec)
    cycle_to_vertex = [
        min(set.intersection(*(set(labeling.darts[i]) for i in cyc)),
            default=-1) for cyc in dec.cycles]
    if not is_isomorphism(cycle_to_vertex, recovered, base):
        raise StructureViolation(f"cycle -> shared vertex {cycle_to_vertex} "
                                 "is no isomorphism onto the base")
    return DartForwardReport(
        base_order=base.n,
        dart_order=g.n,
        group_order=group.order,
        lifted_order=lifted.order,
        two_arc_transitive=True,
        half_arc_transitive=True,
        radius=dec.radius,
        attachment=dec.attachment,
        ell=dec.ell,
        alt_isomorphic_to_base=True,
        natural_orientation_induced=True,
        labeling=labeling,
        lifted_group=lifted,
        decomposition=dec,
    )


@dataclass
class PsiReport(JsonRecord):
    radius: int
    attachment: int
    alt_order: int
    bijective: bool
    preserves_adjacency: bool
    orientation_compatible: bool


def psi_isomorphism(g: Graph, d: Orientation, dec: AltDecomposition):
    """The explicit isomorphism from the dart graph of the graph of
    alternating cycles back onto g, for a half-arc-transitive action with
    radius 3 and attachment 2.

    d must be an orientation of g (OrientationInvalid otherwise) induced
    by that action and dec its alternating cycles, as verify_dart_forward
    certifies them.  The dart (C, C') maps to the unique vertex of the
    two-point intersection of C and C' that heads both of its edges on C
    in d.  Returns (mapping, report); the mapping is indexed by dart-graph
    vertices and verified to be an isomorphism that carries the natural
    orientation onto d.  With d.reverse() the mapping is
    compose(rev, mapping) for the dart reversal rev of the dart graph.
    """
    if d.graph != g:
        raise OrientationInvalid("orientation belongs to a different graph")
    if dec.radius != 3 or dec.attachment != 2:
        raise WrongParameters(
            f"(radius, attachment) = ({dec.radius}, {dec.attachment}), "
            "the dart correspondence needs (3, 2)")
    lam = alt_graph(g, dec)
    dart, natural, labeling = dart_graph(lam)

    by_pair = {}
    for v, pair in enumerate(dec.cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)

    positions = [{v: p for p, v in enumerate(cyc)} for cyc in dec.cycles]

    def heads_both_on(c, v):
        cyc = dec.cycles[c]
        p = positions[c][v]
        before = cyc[(p - 1) % len(cyc)]
        after = cyc[(p + 1) % len(cyc)]
        return d.is_head(v, before) and d.is_head(v, after)

    psi = [None] * dart.n
    for i, (c1, c2) in enumerate(labeling.darts):
        pair = (c1, c2) if c1 < c2 else (c2, c1)
        u, w = by_pair[pair]
        u_heads = heads_both_on(c1, u)
        w_heads = heads_both_on(c1, w)
        assert u_heads != w_heads, \
            "exactly one intersection vertex heads both edges of the cycle"
        psi[i] = u if u_heads else w
    psi = tuple(psi)

    bijective = sorted(psi) == list(range(g.n))
    preserves = maps_edges(psi, dart, g)
    oriented = all(d.head_of(psi[t], psi[h]) == psi[h]
                   for t, h in natural.arcs)
    assert bijective and preserves and oriented, \
        "dart correspondence failed verification"
    report = PsiReport(
        radius=dec.radius,
        attachment=dec.attachment,
        alt_order=lam.n,
        bijective=bijective,
        preserves_adjacency=preserves,
        orientation_compatible=oriented,
    )
    return psi, report


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
