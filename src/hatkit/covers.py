"""Quotients by the antipodal involution and split 2-fold cover
certificates.

Quotienting a suitable tetravalent graph by the antipodal involution tau
gives a 2-fold covering projection onto a tetravalent graph of girth 3.
Adjoining tau to the acting group G gives a lifted group of twice the
order in which G complements <tau>, so the cover is split; it is
sectional exactly when the total graph is the canonical double cover of
the base, which for these quotients happens exactly when the total graph
is bipartite.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    DegenerateWreath,
    FixedPoint,
    NotAutomorphisms,
    NotCentralizing,
    NotConnected,
    NotInvariant,
    NotInvolution,
    OrbitNotIndependent,
    OrbitPairNotMatching,
    OrderTooSmall,
    StructureViolation,
    TauInG,
    check,
    check_fault,
)
from .graphs import (
    Graph,
    _isomorphism_fault,
    edge_map_fault,
    from_edge_list,
    girth,
    is_connected,
    parts_or_odd_walk,
)
from .records import Record
from .autgroup import _check_automorphisms, arc_orbits
from .altcycles import AltDecomposition, _require_3_2, cycle_images
from .perms import PermGroup, centralizes, check_perm, orbits


class CoveringMap(Record):
    """A 2-fold covering projection with its fibre data."""

    total: Graph
    base: Graph
    fibre_map: tuple

    @cached_property
    def fibres(self):
        """The fibre of each base vertex, as a sorted tuple; built once."""
        out = [[] for _ in range(self.base.n)]
        for v, b in enumerate(self.fibre_map):
            out[b].append(v)
        return [tuple(f) for f in out]


def covering_fault(total: Graph, base: Graph, fibre_map) -> str:
    """Why fibre_map is no covering projection total -> base, as text:
    the number of images when it is not total.n, a vertex whose image
    lies outside base, a base vertex that is no image, or a vertex whose
    sorted neighbour images are not its image's neighbours; "" when
    fibre_map is a covering projection.  The last test alone makes it a
    locally bijective graph morphism: each edge vw maps to the edge from
    the image of v to that of w, and the neighbours of v map one to one
    onto those of its image."""
    if len(fibre_map) != total.n:
        return f"{len(fibre_map)} images for {total.n} vertices"
    for v, b in enumerate(fibre_map):
        if not 0 <= b < base.n:
            return f"vertex {v} maps to {b}, outside 0..{base.n - 1}"
    missing = set(range(base.n)).difference(fibre_map)
    if missing:
        return f"base vertex {min(missing)} is the image of no vertex"
    for v, nbrs in enumerate(total.adj):
        images = sorted(fibre_map[w] for w in nbrs)
        b = fibre_map[v]
        if images != list(base.adj[b]):
            return (f"the neighbours of vertex {v} map to {images}, not "
                    f"onto the neighbours {list(base.adj[b])} of its image "
                    f"{b}")
    return ""


def _check_involution(tau):
    """NotInvolution, naming a vertex v and tau(tau(v)), unless tau
    squares to the identity."""
    moved = next((v for v in range(len(tau)) if tau[tau[v]] != v), None)
    if moved is not None:
        raise NotInvolution(f"tau is not an involution: tau(tau({moved})) = "
                            f"{tau[tau[moved]]}")


def quotient_by_tau(total: Graph, tau) -> CoveringMap:
    """Quotient by a fixed-point-free involutory automorphism.

    Base vertices are the tau-orbits ordered by minimum vertex, adjacent
    when joined by an edge.  Each orbit must be independent and each
    adjacent orbit pair must induce a perfect matching (2K2); a K_{2,2}
    pair raises DegenerateWreath since the graph is then a wreath of a
    cycle over two vertices; any other count (unreachable for an
    involutory automorphism) raises OrbitPairNotMatching.  tau must have
    total's order as degree (NotAutomorphisms, with both numbers), be a
    permutation (NotPermutation, with the first image out of range or
    repeated), fix no vertex (FixedPoint), square to the identity
    (NotInvolution, with a vertex v and tau(tau(v))) and carry edges to
    edges (NotAutomorphisms, with the witness of graphs.edge_map_fault).
    The result is a verified 2-fold covering projection whose fibres are
    the tau-orbits; a failed check raises StructureViolation naming it
    (quotient_covering_projection with the witness of covering_fault,
    quotient_fibres_of_size_2 with the fibre), also under python -O.
    """
    n = total.n
    if len(tau) != n:
        raise NotAutomorphisms(f"tau has degree {len(tau)}, graph has {n}")
    check_perm(tau)
    fixed = [v for v in range(n) if tau[v] == v]
    if fixed:
        raise FixedPoint(f"tau fixes {fixed[:4]}")
    _check_involution(tau)
    fault = edge_map_fault(tau, total, total)
    if fault:
        raise NotAutomorphisms(f"tau is not an automorphism: {fault}")
    return _quotient(total, tau)


def _quotient(total: Graph, tau) -> CoveringMap:
    """quotient_by_tau past its checks of tau, for a tau that
    antipodal_involution certified a fixed-point-free involutory
    automorphism of total: cover_pipeline's path."""
    n = total.n
    orbit_of = [-1] * n
    orbits = []
    for v in range(n):
        if orbit_of[v] == -1:
            orbit_of[v] = orbit_of[tau[v]] = len(orbits)
            orbits.append((v, tau[v]))
    for v, w in orbits:
        if total.has_edge(v, w):
            raise OrbitNotIndependent(f"orbit {{{v}, {w}}} spans an edge")

    between = {}
    for u, v in total.edges:
        a, b = orbit_of[u], orbit_of[v]
        key = (a, b) if a < b else (b, a)
        between[key] = between.get(key, 0) + 1
    for (a, b), count in between.items():
        if count == 4:
            raise DegenerateWreath(
                f"orbits {orbits[a]} and {orbits[b]} induce K_{{2,2}}",
                pair=(a, b), orbits=(orbits[a], orbits[b]))
        if count != 2:
            raise OrbitPairNotMatching(
                f"orbits {orbits[a]} and {orbits[b]} joined by {count} edges")

    base = from_edge_list(len(orbits), between.keys())
    fibre_map = tuple(orbit_of)
    cover = CoveringMap(total=total, base=base, fibre_map=fibre_map)
    check_fault("quotient_covering_projection",
                covering_fault(total, base, fibre_map))
    odd = next((f for f in cover.fibres if len(f) != 2), None)
    if odd is not None:
        raise StructureViolation(
            f"quotient_fibres_of_size_2: fibre {odd} has {len(odd)} vertices")
    return cover


def split_certificate(total: Graph, group: PermGroup, tau,
                      cover: CoveringMap):
    """Certify that <group, tau> = group x <tau> splits over <tau> and
    decide sectionality.  Returns (sectional, odd_walk), odd_walk an odd
    closed walk of a non-bipartite total graph and None for a bipartite
    one, as graphs.parts_or_odd_walk gives it.

    Requires a connected total graph (NotConnected) and an involution tau
    (NotPermutation from centralizes, with the first image out of range
    or repeated) that centralizes the group (NotCentralizing, with a
    generator index and a vertex where the two do not commute;
    NotInvolution, with a vertex v and tau(tau(v))), lies outside it
    (TauInG, decided by group.contains: a PermGroup sifts tau through
    its chain, and a dartgraph.LiftedGroup rejects the dart reversal at
    once, as it sends the darts out of one vertex to darts with
    different tails) and swaps each fibre (NotInvariant).  These checks are the proof of the
    splitting: tau is not the identity, as the identity lies in the
    group; tau commutes with the group and tau^2 = 1, so <group, tau> =
    group u group tau; group and <tau> meet in the identity, so
    |<group, tau>| = 2 |group| and the group is a complement of <tau>.
    No chain of <group, tau> is built, and nothing of the splitting is
    returned: the raises are the certificate, and the order of
    <group, tau> is 2 |group| by that proof.

    The total graph is two-coloured once (graphs.parts_or_odd_walk),
    which gives its parts or, for a non-bipartite one, an odd closed
    walk, the witness that it is no bipartite double.  A bipartite one
    is sectional exactly when tau swaps its colours; then fibre(v) +
    |base| colour(v) must be an isomorphism onto the double
    (StructureViolation naming sectional_onto_double otherwise, with the
    witness graphs.isomorphism_fault gives against the double).  The
    double is read off the base's rows, not built: it has order 2 |base|
    and size 2 |E(base)|, and b + s |base| is adjacent to b' + s' |base|
    exactly when s != s' and b ~ b' in the base.  If tau keeps the
    colours, the base is bipartite and its double disconnected.  The odd
    closed walk is checked too, also under python -O: StructureViolation
    naming odd_walk_closed_odd (with the walk) unless it is closed with
    an odd number of steps, or odd_walk_edges (with the step) unless
    each step is an edge.
    """
    if not centralizes(tau, group):
        i, x = next((i, x) for i, s in enumerate(group.generators)
                    for x in range(len(tau)) if tau[s[x]] != s[tau[x]])
        raise NotCentralizing(
            f"tau does not centralize the supplied group: generator {i} "
            f"does not commute with tau at vertex {x}")
    _check_involution(tau)
    return _split(total, group, tau, cover)


def _split(total: Graph, group, tau, cover: CoveringMap):
    """split_certificate past its checks of tau, for a tau that
    antipodal_involution certified an involution centralizing the group:
    cover_pipeline's path."""
    if not is_connected(total):
        raise NotConnected("the total graph is not connected")
    if group.contains(tau):
        raise TauInG("tau lies in the supplied group; no splitting complement")
    moved = next(((v, w) for v, w in cover.fibres if tau[v] != w), None)
    if moved is not None:
        raise NotInvariant(f"tau moves the fibre {moved}")
    parts, witness = parts_or_odd_walk(total)
    if parts is None:
        if len(witness) % 2 or witness[0] != witness[-1]:
            raise StructureViolation(
                f"odd_walk_closed_odd: walk {witness} is not closed or has "
                "even length")
        step = next(((a, b) for a, b in zip(witness, witness[1:])
                     if not total.has_edge(a, b)), None)
        if step is not None:
            raise StructureViolation(
                f"odd_walk_edges: step {step} of walk {witness} is no edge")
        sectional = False
    else:
        odd = set(parts[1])
        sectional = (tau[0] in odd) != (0 in odd)
        if sectional:
            n, nbrs = cover.base.n, cover.base.nbrs
            phi = [b + n * (v in odd) for v, b in enumerate(cover.fibre_map)]
            check_fault("sectional_onto_double", _isomorphism_fault(
                phi, total, 2 * n, 2 * cover.base.m,
                lambda a, b: (a < n) == (b < n) or b % n not in nbrs[a % n]))
    return sectional, witness


def cover_pipeline(total: Graph, dec: AltDecomposition, group: PermGroup,
                   tau):
    """Run quotient -> split certificate by the antipodal involution tau
    for a half-arc-transitive action with radius 3 and attachment 2 on a
    graph of order greater than 12, then verify the cover and its base
    graph:

    - the cover is sectional exactly when total is bipartite
      (StructureViolation naming sectional_iff_bipartite otherwise),
    - the kernel of the action on the fibres is exactly <tau>
      (fibre_action_kernel_tau, with the orders of the fibre action, the
      group and the lifted group),
    - the projected group acts arc-transitively on the base
      (StructureViolation naming projected_arc_transitive otherwise, with
      the number of arc orbits): the projected generators must be
      automorphisms of the base (NotAutomorphisms, as
      autgroup.arc_orbits names it, otherwise), the orbit of the least
      arc is swept, and all arc orbits only when that orbit is short, for
      their count,
    - the base has girth 3, as alternating 6-cycles project to triangles
      (base_girth_3, with the girth; graphs.girth stops at the first
      triangle it meets, so the full girth is computed only without one),
    - the base is the line graph of the graph Lambda of alternating
      cycles: the fibre {v, tau v} maps to the edge of the two cycles
      that meet at v (base_is_line_graph, with the witness
      graphs.isomorphism_fault gives against L(Lambda)).  L(Lambda) is
      read off Lambda's edge list, not built: it has order |E(Lambda)|
      and size the sum of C(deg c, 2) over the cycles c, and two edges
      are adjacent exactly when they share an end.

    dec must be the alternating cycles of an orientation of total that
    the group induces, as verify_dart_forward certifies them; the group
    must permute them (NotInvariant otherwise, from cycle_images; a lift
    whose dart_cycles is dec permutes them by verify_dart_forward's
    proof).  tau must be antipodal_involution(total, dec, group), which
    certifies it a fixed-point-free involutory automorphism of total
    that centralizes the group; these facts are not tested again here,
    as quotient_by_tau and split_certificate test them for any other
    caller.  Of the group, only its degree, generators, order and
    contains are read, so a PermGroup and a dartgraph.LiftedGroup, which
    keeps no chain, both serve.
    Bipartite inputs run through the same pipeline and certify sectional;
    non-bipartite inputs certify non-sectional.  Returns (cover,
    sectional, checks): the CoveringMap of the quotient by tau, whether
    the cover is sectional, and the tuple of the (name, detail) pairs of
    the checks made, in the order they were made.  The cover is split,
    and <group, tau> has order 2 |group|, by split_certificate's proof:
    its core (_split) returning at all, on a tau that antipodal_involution
    certified, is the certificate.

    No chain of the fibre action is built.  The group permutes the
    fibres, as tau centralizes it, and acts on them faithfully, by the
    checks already made.  Each generator maps each alternating cycle onto
    one (cycle_images), and the cycles hold every edge, so the group acts
    by automorphisms.  Let k in the group fix every fibre {v, tau v}, and
    let S be the set of vertices k fixes.  S is a union of fibres, as
    k tau = tau k.  If v in S had a neighbour w outside S, then k w =
    tau w, so v would be adjacent to both w and tau w, which
    quotient_covering_projection rules out.  The total graph is connected
    (split_certificate), so S is empty or every vertex.  If S is empty,
    k = tau, which lies outside the group (TauInG).  So S is every vertex
    and k = 1.  As <group, tau> = group x <tau> and tau fixes every
    fibre, the kernel of <group, tau> there is <tau>, and the projected
    group has order |group|.  Its arc orbits on the base are swept from
    the generators' fibre images.  Neither the double of the base nor
    L(Lambda) is built (graphs.bipartite_double, graphs.line_graph).
    """
    if getattr(group, "dart_cycles", None) is not dec:
        cycle_images(group, dec)
    _require_3_2(dec, "the cover construction")
    if total.n <= 12:
        raise OrderTooSmall(
            f"order {total.n} <= 12; the quotient degenerates")
    cover = _quotient(total, tau)
    sectional, odd_walk = _split(total, group, tau, cover)

    checks = []
    bipartite = odd_walk is None
    agree = sectional == bipartite
    verdicts = f"sectional={sectional}, bipartite={bipartite}"
    check(checks, "sectional_iff_bipartite", agree, verdicts if agree else
          f"{verdicts}, odd closed walk {odd_walk}")

    # faithful on the fibres by the proof above
    checks.append(("fibre_action_kernel_tau",
                   f"the action on the fibres has order {group.order}, the "
                   f"group {group.order}, the lifted group {2 * group.order}"))
    fibres, base = cover.fibres, cover.base
    projected = [tuple(cover.fibre_map[s[v]] for v, _ in fibres)
                 for s in group.generators]
    _check_automorphisms(projected, base)
    n = base.n   # the arc (u, v) as u n + v, so the least arc (0, w) as w
    orbit = orbits([base.adj[0][0]], projected,
                   lambda s, x: s[x // n] * n + s[x % n])[0]
    count = (1 if len(orbit) == 2 * base.m
             else len(arc_orbits(projected, base)))
    check(checks, "projected_arc_transitive", count <= 1,
          f"the projected group has {count} arc orbits on the base")

    base_girth = girth(base)
    check(checks, "base_girth_3", base_girth == 3,
          f"the base has girth {base_girth}")

    lam = dec.cycle_graph
    ends = lam.edges
    index = {e: i for i, e in enumerate(ends)}
    fibre_to_edge = [index.get(dec.cycles_at_vertex[v], -1) for v, _ in fibres]
    fault = _isomorphism_fault(
        fibre_to_edge, base, len(ends),
        sum(d * (d - 1) // 2 for d in lam.degrees()),
        lambda i, j: (ends[i][0] not in ends[j]
                      and ends[i][1] not in ends[j]))
    check(checks, "base_is_line_graph", not fault, fault)
    return cover, sectional, tuple(checks)
