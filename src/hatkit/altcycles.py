"""Alternating-cycle structure of oriented tetravalent graphs.

A half-arc-transitive action on a connected tetravalent graph splits the
arcs into two paired orbits; either orbit is an orientation in which
every vertex heads two and tails two of its edges.  Walking edges that
alternately share a head and a tail decomposes the edge set into
alternating cycles, all of one even length 2r (r is the radius); any two
intersecting cycles meet in the same number a of equally spaced vertices
(a is the attachment number, spacing ell = 2r/a), and the intersections
partition the vertices into the attachment sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AntipodeMismatch,
    DivisibilityRuleViolation,
    NotConnected,
    NotHalfArcTransitive,
    NotInvariant,
    NotTetravalent,
    OddAttachment,
    OrientationInvalid,
    StructureViolation,
    TightlyAttached,
)
from .graphs import Graph, from_edge_list, is_connected, is_regular, maps_edges
from .autgroup import transitivity_report
from .perms import PermGroup, centralizes, schreier_sims
from .records import JsonRecord


def _edge_key(u, v):
    return (u, v) if u < v else (v, u)


class Orientation:
    """One direction per edge; every vertex is the head of exactly two and
    the tail of the other two of its incident edges."""

    __slots__ = ("graph", "arcs", "_head", "_in_edges", "_out_edges")

    def __init__(self, graph: Graph, arcs):
        head = {}
        for tail, hd in arcs:
            key = _edge_key(tail, hd)
            if not graph.has_edge(tail, hd):
                raise OrientationInvalid(f"({tail}, {hd}) is not an edge")
            if key in head:
                raise OrientationInvalid(f"edge {key} directed twice")
            head[key] = hd
        if len(head) != graph.m:
            raise OrientationInvalid(
                f"{len(head)} of {graph.m} edges directed")
        in_edges = [[] for _ in range(graph.n)]
        out_edges = [[] for _ in range(graph.n)]
        for key, hd in head.items():
            tail = key[0] if key[1] == hd else key[1]
            in_edges[hd].append(key)
            out_edges[tail].append(key)
        for v in range(graph.n):
            if len(in_edges[v]) != 2 or len(out_edges[v]) != 2:
                raise OrientationInvalid(
                    f"vertex {v} has in-degree {len(in_edges[v])} and "
                    f"out-degree {len(out_edges[v])}, expected 2 and 2")
        self.graph = graph
        self._head = head
        self._in_edges = tuple(tuple(sorted(e)) for e in in_edges)
        self._out_edges = tuple(tuple(sorted(e)) for e in out_edges)
        self.arcs = tuple(
            ((k[0], k[1]) if head[k] == k[1] else (k[1], k[0]))
            for k in sorted(head))

    def head_of(self, u, v):
        return self._head[_edge_key(u, v)]

    def is_head(self, v, u):
        """True when v is the head of the edge {u, v}."""
        return self._head[_edge_key(u, v)] == v

    def in_edges(self, v):
        return self._in_edges[v]

    def out_edges(self, v):
        return self._out_edges[v]

    def reverse(self):
        return Orientation(self.graph, tuple((h, t) for t, h in self.arcs))

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.graph, self.arcs))

    def __repr__(self):
        return f"Orientation(n={self.graph.n}, m={self.graph.m})"


def induced_orientation(group: PermGroup, g: Graph):
    """The two paired orientations induced by a half-arc-transitive action.

    Returns (d, d.reverse()); d is the arc orbit containing the smallest
    arc.  Both orientations are invariant under the group.
    """
    if not is_regular(g, 4):
        raise NotTetravalent("graph is not 4-valent")
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    report = transitivity_report(group, g)
    if not report.half_arc_transitive:
        raise NotHalfArcTransitive(
            "the action is not vertex- and edge- but not arc-transitive "
            f"(flags: {report.to_json_dict()})")
    d = Orientation(g, report.arc_orbits[0])
    return d, d.reverse()


def _canonical_cycle(seq):
    """Rotate to the minimum vertex, then orient toward the smaller
    neighbour, so every cycle has one stored representative."""
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if rot[1] > rot[-1]:
        rot = rot[:1] + rot[:0:-1]
    return tuple(rot)


@dataclass
class AltDecomposition:
    """Partition of the edges into alternating cycles plus the derived
    parameters.  cycles_at_vertex[v] is the sorted pair of cycle indices
    through v; attachment_sets is the block system of pairwise cycle
    intersections."""

    cycles: tuple
    radius: int
    attachment: int
    ell: int
    attachment_sets: tuple
    cycles_at_vertex: tuple
    cycle_of_edge: dict

    @property
    def tightly_attached(self):
        return self.attachment == 2 * self.radius


def alternating_cycles(g: Graph, orientation: Orientation) -> AltDecomposition:
    """Decompose the edge set into alternating cycles and verify every
    structural invariant before returning.

    From an edge arriving at v, the walk continues along the unique other
    edge at v on which v plays the same role (head or tail).  Violations
    of the invariants (unequal lengths, a vertex repeated on a cycle,
    unequal or unevenly spaced intersections) raise StructureViolation:
    the orientation was not induced by a half-arc-transitive action.
    """
    if orientation.graph != g:
        raise OrientationInvalid("orientation belongs to a different graph")
    assigned = {}
    raw_cycles = []
    for e0 in g.edges:
        if e0 in assigned:
            continue
        h0 = orientation.head_of(*e0)
        seq = []
        e, w = e0, h0
        while True:
            came_from = e[0] if e[1] == w else e[1]
            seq.append(came_from)
            assigned.setdefault(e, len(raw_cycles))
            pair = (orientation.in_edges(w) if orientation.is_head(w, came_from)
                    else orientation.out_edges(w))
            e2 = pair[0] if pair[1] == e else pair[1]
            w2 = e2[0] if e2[1] == w else e2[1]
            e, w = e2, w2
            if (e, w) == (e0, h0):
                break
        raw_cycles.append(seq)

    cycles = []
    for seq in raw_cycles:
        if len(set(seq)) != len(seq):
            raise StructureViolation(
                "an alternating walk revisits a vertex; the orientation is "
                "not half-arc-transitively induced")
        cycles.append(_canonical_cycle(seq))
    cycles = tuple(cycles)

    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise StructureViolation(f"cycle lengths differ: {sorted(lengths)}")
    length = lengths.pop()
    if length % 2:
        raise StructureViolation(f"odd cycle length {length}")
    radius = length // 2

    at_vertex = [[] for _ in range(g.n)]
    for i, cyc in enumerate(cycles):
        for v in cyc:
            at_vertex[v].append(i)
    for v, pair in enumerate(at_vertex):
        if len(pair) != 2 or pair[0] == pair[1]:
            raise StructureViolation(
                f"vertex {v} lies on cycles {pair}, expected exactly two")
    cycles_at_vertex = tuple(tuple(sorted(pair)) for pair in at_vertex)

    # the cycle partition of the edge set, keyed by normalized edge
    cycle_of_edge = {}
    for i, cyc in enumerate(cycles):
        for a in range(len(cyc)):
            cycle_of_edge[_edge_key(cyc[a], cyc[(a + 1) % len(cyc)])] = i
    if len(cycle_of_edge) != g.m:
        raise StructureViolation("cycles do not partition the edge set")

    by_pair = {}
    for v, pair in enumerate(cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)
    sizes = {len(vs) for vs in by_pair.values()}
    if len(sizes) != 1:
        raise StructureViolation(
            f"intersection sizes differ: {sorted(sizes)}")
    attachment = sizes.pop()
    if (2 * radius) % attachment:
        raise StructureViolation(
            f"attachment {attachment} does not divide {2 * radius}")
    ell = 2 * radius // attachment
    if len(cycles) >= 3 and attachment > radius:
        raise StructureViolation(
            f"attachment {attachment} exceeds radius {radius} "
            f"with {len(cycles)} cycles")

    positions = [{v: p for p, v in enumerate(cyc)} for cyc in cycles]
    for (i, j), verts in by_pair.items():
        for c in (i, j):
            ps = sorted(positions[c][v] for v in verts)
            gaps = [ps[k + 1] - ps[k] for k in range(len(ps) - 1)]
            gaps.append(2 * radius - ps[-1] + ps[0])
            if any(gap != ell for gap in gaps):
                raise StructureViolation(
                    f"intersection of cycles {i} and {j} is not spaced "
                    f"every {ell} steps")

    attachment_sets = tuple(
        tuple(sorted(vs))
        for vs in sorted(by_pair.values(), key=min))

    return AltDecomposition(
        cycles=cycles,
        radius=radius,
        attachment=attachment,
        ell=ell,
        attachment_sets=attachment_sets,
        cycles_at_vertex=cycles_at_vertex,
        cycle_of_edge=cycle_of_edge,
    )


def alt_graph(g: Graph, dec: AltDecomposition) -> Graph:
    """The graph of alternating cycles: one vertex per cycle, adjacent when
    the cycles intersect.  Vertex i of the result is dec.cycles[i].

    Raises TightlyAttached when there are fewer than three cycles (the
    attachment number is twice the radius and the construction is
    degenerate).  The result is 2r/a-regular.
    """
    k = len(dec.cycles)
    if k < 3:
        raise TightlyAttached(
            f"only {k} alternating cycles (attachment {dec.attachment} = "
            f"2 x radius {dec.radius}); the graph of alternating cycles is "
            "degenerate")
    edges = sorted({pair for pair in dec.cycles_at_vertex})
    out = from_edge_list(k, edges)
    assert is_regular(out, dec.ell), \
        "graph of alternating cycles is not 2r/a-regular"
    return out


def antipodal_involution(g: Graph, dec: AltDecomposition, group: PermGroup):
    """The involution swapping antipodal vertices of every alternating
    cycle (attachment number must be even).

    Verified before returning: the antipode of a vertex is the same on
    both of its cycles (AntipodeMismatch otherwise), the map is a
    fixed-point-free involution, an automorphism of g, and centralizes
    the supplied group.
    """
    if dec.attachment % 2:
        raise OddAttachment(
            f"attachment number {dec.attachment} is odd; antipodes do not "
            "line up across cycles")
    images = [None] * g.n
    for cyc in dec.cycles:
        k = len(cyc)
        for p, v in enumerate(cyc):
            cand = cyc[(p + k // 2) % k]
            if images[v] is None:
                images[v] = cand
            elif images[v] != cand:
                raise AntipodeMismatch(
                    f"vertex {v}: antipode {images[v]} on one cycle but "
                    f"{cand} on the other")
    tau = tuple(images)
    assert all(x is not None for x in tau)
    assert all(tau[tau[v]] == v for v in range(g.n)), "not an involution"
    assert all(tau[v] != v for v in range(g.n)), "has a fixed point"
    if not maps_edges(tau, g, g):
        raise StructureViolation("antipodal map is not an automorphism")
    if not centralizes(tau, group):
        raise StructureViolation(
            "antipodal map does not centralize the supplied group")
    return tau


@dataclass
class DivisibilityRecord(JsonRecord):
    """Divisibility facts relating the radius and the attachment number.

    The odd-radius rule: for a graph whose full automorphism group is
    half-arc-transitive and whose radius is odd, the attachment number
    divides the radius.  odd_radius_rule_applicable records whether the
    analyzed action is the full group with odd radius; if additionally
    the graph is genuinely half-arc-transitive, a violation raises
    DivisibilityRuleViolation (it would mean an engine bug).
    """

    radius: int
    attachment: int
    a_divides_2r: bool
    a_divides_r: bool
    r_odd: bool
    a_mod_4: int
    odd_radius_rule_applicable: bool
    odd_radius_rule_satisfied: bool


def divisibility_report(dec: AltDecomposition, is_full_group: bool,
                        genuinely_hat: bool) -> DivisibilityRecord:
    """Populate a DivisibilityRecord for one analyzed instance."""
    r, a = dec.radius, dec.attachment
    applicable = is_full_group and r % 2 == 1
    satisfied = (r % a == 0) if (applicable and genuinely_hat) else True
    record = DivisibilityRecord(
        radius=r,
        attachment=a,
        a_divides_2r=(2 * r) % a == 0,
        a_divides_r=r % a == 0,
        r_odd=r % 2 == 1,
        a_mod_4=a % 4,
        odd_radius_rule_applicable=applicable,
        odd_radius_rule_satisfied=satisfied,
    )
    if not satisfied:
        raise DivisibilityRuleViolation(
            f"odd radius {r} with attachment {a} not dividing it on a "
            "genuinely half-arc-transitive instance")
    return record


def cycle_images(group: PermGroup, dec: AltDecomposition):
    """Per generator, the permutation it induces on dec's alternating
    cycles, as a tuple of cycle indices.  NotInvariant, naming the
    generator and the cycle, unless each cycle maps onto a cycle of dec.
    Costs O(|generators| |E|)."""
    k = len(dec.cycles)
    if group.degree != len(dec.cycles_at_vertex):
        raise NotInvariant("group degree differs from the vertex count")
    images = []
    for i, s in enumerate(group.generators):
        img = []
        for c, cyc in enumerate(dec.cycles):
            target = None
            for a in range(len(cyc)):
                key = _edge_key(s[cyc[a]], s[cyc[(a + 1) % len(cyc)]])
                t = dec.cycle_of_edge.get(key)
                if t is None or (target is not None and t != target):
                    raise NotInvariant(
                        f"generator {i} does not map alternating cycle {c} "
                        "onto an alternating cycle")
                target = t
            img.append(target)
        if sorted(img) != list(range(k)):
            raise NotInvariant(
                f"generator {i} does not act bijectively on the cycles")
        images.append(tuple(img))
    return images


def induced_alt_action(group: PermGroup, dec: AltDecomposition,
                       altg: Graph):
    """Action of the group on the alternating cycles.

    Returns (induced group on cycle indices, arc_transitive flag).  The
    induced action is always vertex- and edge-transitive; it is
    arc-transitive exactly when ell = 2r/a is odd (cycle-exchanging
    elements exist only then), and that equivalence is asserted.
    """
    k = len(dec.cycles)
    if altg.n != k:
        raise ValueError("graph of alternating cycles has the wrong order")
    induced = cycle_images(group, dec)
    action = schreier_sims(induced, degree=k)
    report = transitivity_report(action, altg)
    assert report.vertex_transitive and report.edge_transitive, \
        "induced action on the alternating cycles must be vertex- and " \
        "edge-transitive"
    assert report.arc_transitive == (dec.ell % 2 == 1), \
        "arc-transitivity of the induced action must match the parity of ell"
    return action, report.arc_transitive

