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

from functools import cached_property
from operator import getitem

from .errors import (
    AntipodeMismatch,
    DegenerateWreath,
    NotConnected,
    NotHalfArcTransitive,
    NotInvariant,
    NotTetravalent,
    OddAttachment,
    OrientationInvalid,
    StructureViolation,
    WrongParameters,
    check,
    check_fault,
)
from .graphs import (Graph, edge_map_fault, from_edge_list, is_connected,
                     valence)
from .autgroup import transitivity_report
from .perms import PermGroup, centralizes, orbits, schreier_sims
from .records import Record


class Orientation:
    """One direction per edge; every vertex is the head of exactly two and
    the tail of the other two of its incident edges.  in_adj[v] holds the
    tails of the two arcs into v and out_adj[v] the heads of the two arcs
    out of v; arcs lists the edges directed, in graph.edges order."""

    __slots__ = ("graph", "arcs", "in_adj", "out_adj")

    def __init__(self, graph: Graph, arcs):
        arcs = tuple(arcs)
        has_edge, directed = graph.has_edge, set()
        for tail, hd in arcs:
            if not has_edge(tail, hd):
                raise OrientationInvalid(f"({tail}, {hd}) is not an edge")
            edge = (tail, hd) if tail < hd else (hd, tail)
            if edge in directed:
                raise OrientationInvalid(f"edge {edge} directed twice")
            directed.add(edge)
        if len(directed) != graph.m:
            raise OrientationInvalid(
                f"{len(directed)} of {graph.m} edges directed")
        self._fill(graph, arcs)
        in_adj, out_adj = self.in_adj, self.out_adj
        v = next((v for v in range(graph.n)
                  if len(in_adj[v]) != 2 or len(out_adj[v]) != 2), None)
        if v is not None:
            raise OrientationInvalid(
                f"vertex {v} has in-degree {len(in_adj[v])} and "
                f"out-degree {len(out_adj[v])}, expected 2 and 2")

    @classmethod
    def _unchecked(cls, graph: Graph, arcs):
        """The orientation of graph by arcs, without __init__'s checks: for
        arcs that direct each edge of graph once and give each vertex two
        in and two out by construction, as dart_graph's 2-arcs do."""
        d = cls.__new__(cls)
        d._fill(graph, arcs)
        return d

    def _fill(self, graph, arcs):
        in_adj = [[] for _ in range(graph.n)]
        out_adj = [[] for _ in range(graph.n)]
        for tail, hd in arcs:
            in_adj[hd].append(tail)
            out_adj[tail].append(hd)
        self.graph = graph
        self.in_adj = tuple(map(tuple, in_adj))
        self.out_adj = tuple(map(tuple, out_adj))
        self.arcs = tuple((u, v) if v in out_adj[u] else (v, u)
                          for u, v in graph.edges)

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


def half_arc_orientation(g: Graph, report) -> Orientation:
    """The orientation induced by a half-arc-transitive action on g, whose
    transitivity_report on g the caller holds: the arc orbit containing
    the smallest arc.  It and its reverse, the paired orbit, are invariant
    under the action.
    """
    if valence(g) != 4:
        raise NotTetravalent("graph is not 4-valent")
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    if not report.half_arc_transitive:
        raise NotHalfArcTransitive(
            "the action is not vertex- and edge- but not arc-transitive "
            f"(flags: {report.to_json_dict()})")
    return Orientation(g, report.arc_orbits[0])


def _canonical_cycle(seq):
    """Rotate to the minimum vertex, then orient toward the smaller
    neighbour, so every cycle has one stored representative."""
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if rot[1] > rot[-1]:
        rot = rot[:1] + rot[:0:-1]
    return tuple(rot)


class AltDecomposition(Record):
    """Partition of the edges into alternating cycles plus the derived
    parameters.  cycles_at_vertex[v] is the sorted pair of cycle indices
    through v."""

    cycles: tuple
    radius: int
    attachment: int
    ell: int
    cycles_at_vertex: tuple

    @property
    def tightly_attached(self):
        """a = r, in Marušič's terms (loosely attached is a = 1,
        antipodally attached a = 2)."""
        return self.attachment == self.radius

    @cached_property
    def cycle_graph(self):
        """alt_graph of this decomposition, built on the first read and
        kept, so the stages that share a decomposition share it."""
        return alt_graph(self)


def _require_3_2(dec: AltDecomposition, construction):
    """WrongParameters unless dec has radius 3 and attachment 2, the one
    pair the dart correspondence and the cover construction take."""
    if (dec.radius, dec.attachment) != (3, 2):
        raise WrongParameters(
            f"(radius, attachment) = ({dec.radius}, {dec.attachment}), "
            f"{construction} needs (3, 2)")


def alternating_cycles(g: Graph, orientation: Orientation) -> AltDecomposition:
    """Decompose the edge set into alternating cycles and verify every
    structural invariant before returning.

    From an edge arriving at v, the walk continues along the unique other
    edge at v on which v plays the same role (head or tail).  Violations
    of the invariants (unequal lengths, a vertex repeated on a cycle,
    unequal or unevenly spaced intersections) raise StructureViolation
    naming the invariant (alt_walk_simple, alt_cycle_lengths_equal, ...)
    with its witness: the orientation was not induced by a
    half-arc-transitive action.
    """
    if orientation.graph != g:
        raise OrientationInvalid("orientation belongs to a different graph")
    # a walk meets the vertices alternately as heads and as tails, and it
    # leaves a tail along the out-arc it did not arrive by, so the walk of
    # arc (t, h) is the first to meet t as a tail
    in_adj, out_adj = orientation.in_adj, orientation.out_adj
    walked_tail = [False] * g.n
    raw_cycles = []
    for t0, h0 in orientation.arcs:
        if walked_tail[t0]:
            continue
        seq = []
        came_from, w, at_head = t0, h0, True
        while True:
            seq.append(came_from)
            pair = in_adj[w] if at_head else out_adj[w]
            walked_tail[w] |= not at_head
            came_from, w = w, pair[0] if pair[1] == came_from else pair[1]
            at_head = not at_head
            if (came_from, w) == (t0, h0):
                break
        raw_cycles.append(seq)

    cycles = []
    for i, seq in enumerate(raw_cycles):
        if len(set(seq)) != len(seq):
            twice = next(v for k, v in enumerate(seq) if v in seq[:k])
            raise StructureViolation(
                f"alt_walk_simple: alternating walk {i} visits vertex "
                f"{twice} twice; the orientation is not "
                "half-arc-transitively induced")
        cycles.append(_canonical_cycle(seq))
    cycles = tuple(cycles)

    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise StructureViolation(
            f"alt_cycle_lengths_equal: cycle lengths {sorted(lengths)}")
    length = lengths.pop()
    if length % 2:
        raise StructureViolation(
            f"alt_cycle_length_even: the cycles have odd length {length}")
    radius = length // 2

    at_vertex = [[] for _ in range(g.n)]
    for i, cyc in enumerate(cycles):
        for v in cyc:
            at_vertex[v].append(i)
    for v, pair in enumerate(at_vertex):
        if len(pair) != 2 or pair[0] == pair[1]:
            raise StructureViolation(
                f"alt_two_cycles_per_vertex: vertex {v} lies on cycles "
                f"{pair}, expected exactly two")
    cycles_at_vertex = tuple(tuple(sorted(pair)) for pair in at_vertex)

    on_cycle = {(x, y) if x < y else (y, x)
                for cyc in cycles for x, y in zip(cyc, cyc[1:] + cyc[:1])}
    edge = next((e for e in g.edges if e not in on_cycle), None)
    if edge is not None:
        raise StructureViolation(
            f"alt_cycles_partition_edges: edge {edge} lies on no cycle")

    by_pair = {}
    for v, pair in enumerate(cycles_at_vertex):
        by_pair.setdefault(pair, []).append(v)
    sizes = {len(vs) for vs in by_pair.values()}
    if len(sizes) != 1:
        raise StructureViolation(
            f"alt_attachment_constant: intersection sizes {sorted(sizes)}")
    attachment = sizes.pop()
    if (2 * radius) % attachment:
        raise StructureViolation(
            f"alt_attachment_divides_2r: attachment {attachment} does not "
            f"divide 2r = {2 * radius}")
    ell = 2 * radius // attachment
    if len(cycles) >= 3 and attachment > radius:
        raise StructureViolation(
            f"alt_attachment_at_most_radius: attachment {attachment} "
            f"exceeds radius {radius} with {len(cycles)} cycles")

    # each intersection has `attachment` vertices, so the intersections
    # with cycle c are spaced every ell steps on c exactly when the cycles
    # met along c repeat with period ell; the gaps are read on failure
    met = ([sum(cycles_at_vertex[v]) - c for v in cyc]
           for c, cyc in enumerate(cycles))
    if any(seq[ell:] + seq[:ell] != seq for seq in met):
        positions = [{v: p for p, v in enumerate(cyc)} for cyc in cycles]
        for (i, j), verts in by_pair.items():
            for c in (i, j):
                ps = sorted(positions[c][v] for v in verts)
                gaps = [ps[k + 1] - ps[k] for k in range(len(ps) - 1)]
                gaps.append(2 * radius - ps[-1] + ps[0])
                if any(gap != ell for gap in gaps):
                    raise StructureViolation(
                        f"alt_intersection_spacing: the intersection of "
                        f"cycles {i} and {j} is not spaced every {ell} "
                        f"steps on cycle {c}: gaps {gaps}")

    return AltDecomposition(
        cycles=cycles,
        radius=radius,
        attachment=attachment,
        ell=ell,
        cycles_at_vertex=cycles_at_vertex,
    )


def alt_graph(dec: AltDecomposition) -> Graph:
    """The graph of alternating cycles: one vertex per cycle, adjacent when
    the cycles intersect.  Vertex i of the result is dec.cycles[i].
    dec.cycle_graph keeps the result.

    Raises DegenerateWreath when there are fewer than three cycles (the
    attachment number is twice the radius, the graph is the wreath
    C_r[2K1] and the construction is degenerate).  The result is
    2r/a-regular (StructureViolation naming alt_graph_regular, with a
    cycle of another valence, otherwise).
    """
    k = len(dec.cycles)
    if k < 3:
        raise DegenerateWreath(
            f"only {k} alternating cycles (attachment {dec.attachment} = "
            f"2 x radius {dec.radius}); the graph of alternating cycles is "
            "degenerate")
    edges = sorted({pair for pair in dec.cycles_at_vertex})
    out = from_edge_list(k, edges)
    odd = next((c for c in range(k) if out.degree(c) != dec.ell), None)
    if odd is not None:
        raise StructureViolation(
            f"alt_graph_regular: cycle {odd} meets {out.degree(odd)} "
            f"cycles, not 2r/a = {dec.ell}")
    return out


def antipodal_involution(g: Graph, dec: AltDecomposition, group: PermGroup):
    """The involution swapping antipodal vertices of every alternating
    cycle (attachment number must be even).

    Verified before returning: the antipode of a vertex is the same on
    both of its cycles (AntipodeMismatch otherwise), every vertex has one
    and the map is a fixed-point-free involution (StructureViolation
    naming antipodal_total, antipodal_involution or
    antipodal_fixed_point_free, with the vertex, otherwise), an
    automorphism of g (StructureViolation naming antipodal_automorphism,
    with the edge and its image, otherwise), and centralizes the supplied
    group (antipodal_centralizes, with a generator and a vertex at which
    the two do not commute, otherwise).  Of the group, only its degree
    and generators are read; cover_pipeline also reads its order and
    contains, and passes a PermGroup or a dartgraph.LiftedGroup.
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
    missing = next((v for v in range(g.n) if tau[v] is None), None)
    if missing is not None:
        raise StructureViolation(f"antipodal_total: vertex {missing} lies "
                                 "on no alternating cycle")
    moved = next((v for v in range(g.n) if tau[tau[v]] != v), None)
    if moved is not None:
        raise StructureViolation(
            f"antipodal_involution: the antipode of the antipode of {moved} "
            f"is {tau[tau[moved]]}")
    fixed = next((v for v in range(g.n) if tau[v] == v), None)
    if fixed is not None:
        raise StructureViolation(f"antipodal_fixed_point_free: vertex "
                                 f"{fixed} is its own antipode")
    check_fault("antipodal_automorphism", edge_map_fault(tau, g, g))
    if not centralizes(tau, group):
        i, x = next((i, x) for i, s in enumerate(group.generators)
                    for x in range(g.n) if tau[s[x]] != s[tau[x]])
        raise StructureViolation(
            f"antipodal_centralizes: generator {i} of the group does not "
            f"commute with the antipodal map at vertex {x}")
    return tau


def divisibility_checks(dec: AltDecomposition, passed, reversal=None):
    """The paper's divisibility results for the (r, a) of dec, each a
    named check appended to passed through errors.check.

    a_divides_2r is Marušič's a | 2r.  The paper's theorem,
    arc_transitive_if_a_twice_odd_not_dividing_r: if a ≡ 2 (mod 4) and
    a ∤ r, the graph X is arc-transitive.  The caller passes reversal =
    ((u, v), (x, y)), an arc of the orientation and its image under an
    automorphism of X that reverses it, or nothing when the analysed
    group is Aut(X), which is then half-arc-transitive; with the
    hypothesis true and no reversal the check fails with (r, a) as its
    witness, also under python -O.

    Returns the open-question note, or None.  The paper asks whether
    every example with a ∤ r is arc-transitive, so a note appears exactly
    when Aut(X) is half-arc-transitive (no reversal) and a ∤ r; by the
    theorem, 4 | a then.

    Given a | 2r, two readings agree.  ell = 2r/a is odd exactly when
    a ∤ r: if a | r, ell = 2(r/a) is even, and if ell = 2m, r = am.  And
    "r odd and a ∤ r" is "a ≡ 2 (mod 4) and a ∤ r": an odd a that divides
    2r divides r, so a = 2b with b | r, and b is odd when r is;
    conversely, if b is odd and r even, the coprime 2 and b both divide
    r, so a = 2b does.
    """
    r, a = dec.radius, dec.attachment
    witness = f"(r, a) = ({r}, {a})"
    check(passed, "a_divides_2r", 2 * r % a == 0, witness)
    if reversal is not None:
        witness += (f", an automorphism maps arc {reversal[0]} to "
                    f"{reversal[1]}")
    check(passed, "arc_transitive_if_a_twice_odd_not_dividing_r",
          reversal is not None or a % 4 != 2 or r % a == 0, witness)
    if reversal is None and r % a:
        return (f"open-question candidate: (r, a) = ({r}, {a}), a does not "
                "divide r and Aut(X) is half-arc-transitive")
    return None


def cycle_images(group: PermGroup, dec: AltDecomposition):
    """Per generator, the permutation it induces on dec's alternating
    cycles, as a tuple of cycle indices.  NotInvariant, naming the
    generator and the cycle, unless each cycle maps onto a cycle of dec.
    Costs O(|generators| |E|)."""
    k = len(dec.cycles)
    if group.degree != len(dec.cycles_at_vertex):
        raise NotInvariant(f"group degree {group.degree} differs from the "
                           f"vertex count {len(dec.cycles_at_vertex)}")
    index = {cyc: c for c, cyc in enumerate(dec.cycles)}
    images = []
    for i, s in enumerate(group.generators):
        img = []
        for c, cyc in enumerate(dec.cycles):
            target = index.get(_canonical_cycle([s[v] for v in cyc]))
            if target is None:
                raise NotInvariant(
                    f"generator {i} does not map alternating cycle {c} "
                    "onto an alternating cycle")
            img.append(target)
        if sorted(img) != list(range(k)):
            raise NotInvariant(
                f"generator {i} does not act bijectively on the cycles")
        images.append(tuple(img))
    return images


def induced_alt_action(group: PermGroup, dec: AltDecomposition):
    """Action of the group on the alternating cycles.

    Returns (induced group on cycle indices, arc_transitive flag).  Two
    checks raise StructureViolation, also under python -O:
    alt_action_transitive when the induced action is not vertex- and
    edge-transitive (witness: the orbit of cycle 0 and the arc orbit
    count), and alt_action_arc_transitive_iff_ell_odd when it is
    arc-transitive but ell = 2r/a is even or the other way round
    (cycle-exchanging elements exist exactly when ell is odd).  The
    action is classified on dec.cycle_graph.
    """
    k = len(dec.cycles)
    induced = cycle_images(group, dec)
    action = schreier_sims(induced, degree=k)
    report = transitivity_report(action, dec.cycle_graph)
    if not (report.vertex_transitive and report.edge_transitive):
        raise StructureViolation(
            f"alt_action_transitive: the orbit of cycle 0 has "
            f"{len(orbits([0], action.generators, getitem)[0])} of {k} cycles "
            f"and there are {report.arc_orbit_count} arc orbits")
    if report.arc_transitive != (dec.ell % 2 == 1):
        parity = "odd" if dec.ell % 2 else "even"
        verdict = "" if report.arc_transitive else "not "
        raise StructureViolation(
            f"alt_action_arc_transitive_iff_ell_odd: ell = {dec.ell} is "
            f"{parity} but the action on the cycles is {verdict}"
            f"arc-transitive ({report.arc_orbit_count} arc orbits)")
    return action, report.arc_transitive
