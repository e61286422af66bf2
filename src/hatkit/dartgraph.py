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

from .errors import (
    DegreeMismatch,
    Not2ArcTransitive,
    NotConnected,
    NotCubic,
    OrientationInvalid,
    StructureViolation,
    TooSmall,
    WrongParameters,
    check,
)
from .graphs import (Graph, check_edge_map, edge_map_fault, from_edge_list,
                     is_connected, is_regular, isomorphism_fault)
from .autgroup import TransitivityReport, _check_automorphisms
from .altcycles import AltDecomposition, Orientation, alternating_cycles
from .perms import PermGroup, check_perm
from .records import Record


class DartLabeling(Record):
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
    reverse.  Each of the four facts is checked; a failure raises
    StructureViolation naming it (reversal_fixed_point_free or
    reversal_involution with the dart, reversal_automorphism with the
    edge, reversal_reverses_orientation with the natural arc), also under
    python -O."""
    tau = tuple(labeling.index[(v, u)] for (u, v) in labeling.darts)
    g = labeling.graph
    checks = (
        ("reversal_fixed_point_free", "is fixed",
         (i for i in range(g.n) if tau[i] == i)),
        ("reversal_involution", "is not fixed by its square",
         (i for i in range(g.n) if tau[tau[i]] != i)),
    )
    for name, text, failures in checks:
        witness = next(failures, None)
        if witness is not None:
            raise StructureViolation(f"{name}: dart {witness} {text}")
    check_edge_map("reversal_automorphism", tau, g, g)
    reversed_arcs = {(h, t) for t, h in labeling.orientation.arcs}
    arc = next(((t, h) for t, h in labeling.orientation.arcs
                if (tau[t], tau[h]) not in reversed_arcs), None)
    if arc is not None:
        raise StructureViolation(f"reversal_reverses_orientation: natural "
                                 f"arc {arc} does not map to a reversed arc")
    return tau


class LiftedGroup:
    """A group G of automorphisms of a cubic base graph acting on its
    darts by g.(u, v) = (g(u), g(v)), built by lift_automorphisms.  It
    holds no stabiliser chain of its own: degree is the number of darts,
    generators (also strong_generators) are the lifts of G's strong
    generators, order is |G|, and contains decides membership with G's
    chain, of degree n rather than 3n."""

    def __init__(self, group: PermGroup, labeling: DartLabeling, generators):
        self.degree = len(labeling.darts)
        self.generators = tuple(generators)
        self.strong_generators = self.generators
        self.order = group.order
        self._group = group
        self._labeling = labeling

    def contains(self, p):
        """True when the dart permutation p lies in the lift, that is when
        (1) p maps the darts out of each vertex u onto the darts out of
        one vertex sigma(u), (2) p is the lift of sigma, and (3) sigma
        lies in G.  The dart reversal fails (1) at the second dart of
        vertex 0.  Each vertex has three darts and p is a bijection, so
        sigma in (1) is a permutation."""
        if len(p) != self.degree:
            raise DegreeMismatch(
                f"permutation degree {len(p)} != group degree {self.degree}")
        check_perm(p)
        darts, index = self._labeling.darts, self._labeling.index
        sigma = [None] * self._group.degree
        for (u, _), image in zip(darts, p):
            tail = darts[image][0]
            if sigma[u] is None:
                sigma[u] = tail
            elif sigma[u] != tail:
                return False
        if any(p[i] != index.get((sigma[u], sigma[v]))
               for i, (u, v) in enumerate(darts)):
            return False
        return self._group.contains(tuple(sigma))


def lift_automorphisms(base: Graph, group: PermGroup,
                       labeling: DartLabeling) -> LiftedGroup:
    """View base-graph automorphisms as dart-graph automorphisms via
    g.(u,v) = (g(u), g(v)), as a LiftedGroup of order |group|.

    The lift is faithful: if the lift of g fixes every dart (u, v), then
    g fixes every tail u, and every vertex of a cubic graph is a tail.
    So the lift is a copy of the group, with its order, and no chain of
    it is built.  The premise is checked (lift_faithful, with a base
    vertex that is the tail of no dart of the labeling), and so is that
    every lifted generator keeps the natural orientation
    (lift_preserves_natural_orientation, with the generator index and
    the arc); a failure raises StructureViolation naming the check, also
    under python -O."""
    if group.degree != base.n:
        raise DegreeMismatch(
            f"group degree {group.degree} != base order {base.n}")
    _check_automorphisms(group.strong_generators, base)
    tails = {u for u, _ in labeling.darts}
    bare = next((u for u in range(base.n) if u not in tails), None)
    if bare is not None:
        raise StructureViolation(f"lift_faithful: base vertex {bare} is the "
                                 "tail of no dart")
    lifted = LiftedGroup(group, labeling, (
        tuple(labeling.index[(gen[u], gen[v])] for (u, v) in labeling.darts)
        for gen in group.strong_generators))
    natural = set(labeling.orientation.arcs)
    for i, gen in enumerate(lifted.generators):
        arc = next(((t, h) for t, h in labeling.orientation.arcs
                    if (gen[t], gen[h]) not in natural), None)
        if arc is not None:
            raise StructureViolation(
                f"lift_preserves_natural_orientation: lifted generator {i} "
                f"maps natural arc {arc} to {(gen[arc[0]], gen[arc[1]])}")
    return lifted


class DartForwardReport(Record):
    """Everything verified when pushing a 2-arc-transitive cubic graph
    through the dart construction, with the artefacts it was verified on:
    the labeling (dart graph and natural orientation), the lifted group
    and the alternating-cycle decomposition of the natural orientation.
    checks holds the (name, detail) pairs of the checks
    verify_dart_forward made, in the order it made them."""

    base_order: int
    dart_order: int
    group_order: int
    lifted_order: int
    radius: int
    attachment: int
    ell: int
    checks: tuple
    labeling: DartLabeling
    lifted_group: LiftedGroup
    decomposition: AltDecomposition

    _hidden = frozenset({"checks", "labeling", "lifted_group",
                         "decomposition"})
    _as_string = frozenset({"group_order", "lifted_order"})


def verify_dart_forward(base: Graph, group: PermGroup,
                        report: TransitivityReport) -> DartForwardReport:
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
    vertex its darts share.

    report is transitivity_report(group, base), which the caller already
    holds; Not2ArcTransitive unless it is 2-arc-transitive.

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
    g, natural, labeling = dart_graph(base)
    lifted = lift_automorphisms(base, group, labeling)
    checks = []
    faithful = lifted.order == group.order
    check(checks, "dart_half_arc_transitive", faithful, "" if faithful else
          f"the lift has order {lifted.order}, the group {group.order}")
    # the natural orientation is induced by the proof above
    checks.append(("natural_orientation_induced", ""))
    dec = alternating_cycles(g, natural)
    values = f"(radius, attachment) = ({dec.radius}, {dec.attachment})"
    check(checks, "dart_radius_3", dec.radius == 3, values)
    check(checks, "dart_attachment_2", dec.attachment == 2, values)
    cycle_to_vertex = [
        min(set.intersection(*(set(labeling.darts[i]) for i in cyc)),
            default=-1) for cyc in dec.cycles]
    fault = isomorphism_fault(cycle_to_vertex, dec.cycle_graph, base)
    check(checks, "alt_reconstructs_base", not fault, fault)
    return DartForwardReport(
        base_order=base.n,
        dart_order=g.n,
        group_order=group.order,
        lifted_order=lifted.order,
        radius=dec.radius,
        attachment=dec.attachment,
        ell=dec.ell,
        checks=tuple(checks),
        labeling=labeling,
        lifted_group=lifted,
        decomposition=dec,
    )


class PsiReport(Record):
    """What psi_isomorphism certified; checks holds the (name, detail)
    pairs of its checks in the order it made them."""

    radius: int
    attachment: int
    alt_order: int
    checks: tuple

    _hidden = frozenset({"checks"})


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
    orientation onto d.  A failed check raises StructureViolation naming
    it (psi_unique_head, psi_bijective, psi_preserves_adjacency or
    psi_orientation_compatible) with the dart, edge or arc that fails it,
    also under python -O.  With d.reverse() the mapping is
    compose(rev, mapping) for the dart reversal rev of the dart graph.
    """
    if d.graph != g:
        raise OrientationInvalid("orientation belongs to a different graph")
    if dec.radius != 3 or dec.attachment != 2:
        raise WrongParameters(
            f"(radius, attachment) = ({dec.radius}, {dec.attachment}), "
            "the dart correspondence needs (3, 2)")
    lam = dec.cycle_graph
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

    psi, fault = [], ""
    for i, (c1, c2) in enumerate(labeling.darts):
        pair = (c1, c2) if c1 < c2 else (c2, c1)
        u, w = by_pair[pair]
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
    fault = edge_map_fault(psi, dart, g)
    check(checks, "psi_preserves_adjacency", not fault, fault)
    arc = next((a for a in natural.arcs
                if not d.is_head(psi[a[1]], psi[a[0]])), None)
    check(checks, "psi_orientation_compatible", arc is None,
          "" if arc is None else f"natural arc {arc} maps against d")
    report = PsiReport(
        radius=dec.radius,
        attachment=dec.attachment,
        alt_order=lam.n,
        checks=tuple(checks),
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
