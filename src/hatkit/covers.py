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

from dataclasses import dataclass

from .errors import (
    DegenerateWreath,
    FixedPoint,
    NotAutomorphisms,
    NotCentralizing,
    NotConnected,
    NotInvariant,
    NotInvolution,
    OrbitNotIndependent,
    OrderTooSmall,
    StructureViolation,
    TauInG,
    WrongParameters,
)
from .graphs import (
    Graph,
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    is_connected,
    is_isomorphism,
    line_graph,
    maps_edges,
    odd_closed_walk,
)
from .graph6 import write_graph6
from .autgroup import canonical_form, transitivity_report
from .altcycles import (
    AltDecomposition,
    alt_graph,
    antipodal_involution,
    cycle_images,
)
from .perms import (
    PermGroup,
    centralizes,
    compose,
    induced_action,
    is_identity,
    schreier_sims,
)


@dataclass
class CoveringMap:
    """A 2-fold covering projection with its fibre data."""

    total: Graph
    base: Graph
    fibre_map: tuple

    def fibres(self):
        out = [[] for _ in range(self.base.n)]
        for v, b in enumerate(self.fibre_map):
            out[b].append(v)
        return [tuple(f) for f in out]


def is_covering(total: Graph, base: Graph, fibre_map) -> bool:
    """True when fibre_map is a surjective graph morphism that is locally
    bijective at every vertex (a covering projection)."""
    if len(fibre_map) != total.n:
        return False
    if any(not 0 <= b < base.n for b in fibre_map):
        return False
    if len(set(fibre_map)) != base.n:
        return False
    for u, v in total.edges:
        bu, bv = fibre_map[u], fibre_map[v]
        if bu == bv or not base.has_edge(bu, bv):
            return False
    for v in range(total.n):
        images = [fibre_map[w] for w in total.adj[v]]
        if len(set(images)) != len(images):
            return False
        if set(images) != set(base.adj[fibre_map[v]]):
            return False
    return True


def quotient_by_tau(total: Graph, tau) -> CoveringMap:
    """Quotient by a fixed-point-free involutory automorphism.

    Base vertices are the tau-orbits ordered by minimum vertex, adjacent
    when joined by an edge.  Each orbit must be independent and each
    adjacent orbit pair must induce a perfect matching (2K2); a K_{2,2}
    pair raises DegenerateWreath since the graph is then a wreath of a
    cycle over two vertices.  The result is a verified 2-fold covering
    projection whose fibres are the tau-orbits.
    """
    n = total.n
    if len(tau) != n:
        raise NotAutomorphisms(f"tau has degree {len(tau)}, graph has {n}")
    fixed = [v for v in range(n) if tau[v] == v]
    if fixed:
        raise FixedPoint(f"tau fixes {fixed[:4]}")
    if any(tau[tau[v]] != v for v in range(n)):
        raise NotInvolution("tau is not an involution")
    if not maps_edges(tau, total, total):
        raise NotAutomorphisms("tau is not an automorphism")

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
            raise ValueError(
                f"orbits {a} and {b} joined by {count} edges")

    base = from_edge_list(len(orbits), between.keys())
    fibre_map = tuple(orbit_of)
    cover = CoveringMap(total=total, base=base, fibre_map=fibre_map)
    assert is_covering(total, base, fibre_map), \
        "quotient failed the covering-projection check"
    assert all(len(f) == 2 for f in cover.fibres())
    return cover


@dataclass
class SplitCertificate:
    """Certificate that a lifted group splits over the covering
    transformations, with the sectionality verdict.

    is_sectional is decided by the canonical-double-cover criterion: the
    cover is sectional exactly when the total graph is isomorphic to the
    bipartite double of the base.  non_bipartite_witness holds an odd
    closed walk when the total graph is not bipartite.
    """

    lifted_group: PermGroup
    is_split: bool
    is_sectional: bool
    non_bipartite_witness: list | None


def split_certificate(total: Graph, group: PermGroup, tau,
                      cover: CoveringMap) -> SplitCertificate:
    """Certify that <group, tau> = group x <tau> splits over <tau> and
    decide sectionality.

    Requires a connected total graph (NotConnected) and an involution tau
    that centralizes the group, lies outside it and swaps each fibre
    (NotInvariant); <group, tau> is built under the bound 2 |group| and
    is_split records that it reaches it.  A non-bipartite total graph is
    no bipartite double (the odd closed walk is the witness).  A bipartite
    one is sectional exactly when tau swaps its colours; then
    fibre(v) + |base| colour(v) must be an isomorphism onto the double
    (StructureViolation otherwise).  If tau keeps the colours, the base
    is bipartite and its double disconnected.
    """
    if not is_connected(total):
        raise NotConnected("the total graph is not connected")
    if not centralizes(tau, group):
        raise NotCentralizing("tau does not centralize the supplied group")
    if not is_identity(compose(tau, tau)):
        raise NotInvolution("tau is not an involution")
    if group.contains(tau):
        raise TauInG("tau lies in the supplied group; no splitting complement")
    moved = next(((v, w) for v, w in cover.fibres() if tau[v] != w), None)
    if moved is not None:
        raise NotInvariant(f"tau moves the fibre {moved}")
    lifted = schreier_sims(list(group.generators) + [tuple(tau)],
                           degree=total.n, order_bound=2 * group.order)
    witness = odd_closed_walk(total)
    if witness is not None:
        assert len(witness) % 2 == 0 and witness[0] == witness[-1]
        assert all(total.has_edge(a, b) for a, b in zip(witness, witness[1:]))
        sectional = False
    else:
        odd = set(is_bipartite(total)[1])
        sectional = (tau[0] in odd) != (0 in odd)
        phi = [b + cover.base.n * (v in odd)
               for v, b in enumerate(cover.fibre_map)]
        if sectional and not is_isomorphism(
                phi, total, bipartite_double(cover.base)):
            raise StructureViolation(f"fibre + |base| x colour {phi} is no "
                                     "isomorphism onto the double")
    return SplitCertificate(
        lifted_group=lifted,
        is_split=lifted.order == 2 * group.order,
        is_sectional=sectional,
        non_bipartite_witness=witness,
    )


@dataclass
class CoverReport:
    """End-to-end record of one cover-pipeline run."""

    graph6: str
    order: int
    bipartite: bool
    radius: int
    attachment: int
    split: bool
    sectional: bool
    base_order: int
    base_girth: int
    base_is_line_graph_of: str
    group_order: int
    lifted_order: int
    projected_order: int

    def to_json_dict(self):
        return {
            "graph": self.graph6,
            "order": self.order,
            "bipartite": self.bipartite,
            "radius": self.radius,
            "attachment": self.attachment,
            "split": self.split,
            "sectional": self.sectional,
            "base_order": self.base_order,
            "base_girth": self.base_girth,
            "base_is_line_graph_of": self.base_is_line_graph_of,
            "group_orders": {
                "G": str(self.group_order),
                "G_tilde": str(self.lifted_order),
                "H": str(self.projected_order),
            },
        }


def cover_pipeline(total: Graph, dec: AltDecomposition,
                   group: PermGroup) -> CoverReport:
    """Run antipodal involution -> quotient -> split certificate for a
    half-arc-transitive action with radius 3 and attachment 2 on a graph
    of order greater than 12, then verify the base graph:

    - the projected group acts faithfully and arc-transitively on it
      (StructureViolation naming projected_arc_transitive otherwise),
    - it has girth 3 (alternating 6-cycles project to triangles),
    - it is the line graph of the graph of alternating cycles: the fibre
      {v, tau v} maps to the edge of the two cycles that meet at v.

    dec must be the alternating cycles of an orientation of total that
    the group induces, as verify_dart_forward certifies them; the group
    must permute them (NotInvariant otherwise).
    Bipartite inputs run through the same pipeline and certify sectional;
    non-bipartite inputs certify non-sectional.
    """
    cycle_images(group, dec)
    if dec.radius != 3 or dec.attachment != 2:
        raise WrongParameters(
            f"(radius, attachment) = ({dec.radius}, {dec.attachment}), "
            "the cover construction needs (3, 2)")
    if total.n <= 12:
        raise OrderTooSmall(
            f"order {total.n} <= 12; the quotient degenerates")
    tau = antipodal_involution(total, dec, group)
    cover = quotient_by_tau(total, tau)
    cert = split_certificate(total, group, tau, cover)

    bipartite = cert.non_bipartite_witness is None
    assert cert.is_sectional == bipartite, \
        "sectional exactly when the total graph is bipartite"

    # split_certificate checked that the fibres are tau-orbits, so tau is in
    # the kernel of the fibre action: the projected order is at most |G~|/2
    fibres = cover.fibres()
    projected, faithful = induced_action(
        cert.lifted_group, fibres,
        order_bound=cert.lifted_group.order // 2)
    # kernel of the fibre action must be exactly <tau>, so the projected
    # quotient group acts faithfully with half the lifted order
    assert not faithful and 2 * projected.order == cert.lifted_group.order, \
        "kernel of the fibre action must be exactly the covering group"
    base_report = transitivity_report(projected, cover.base)
    if not base_report.arc_transitive:
        raise StructureViolation(
            "projected_arc_transitive: the projected group has "
            f"{base_report.arc_orbit_count} arc orbits on the base")

    base_girth = girth(cover.base)
    assert base_girth == 3, f"base girth {base_girth} != 3"

    lam = alt_graph(total, dec)
    lam_line, lam_edges = line_graph(lam)
    index = {e: i for i, e in enumerate(lam_edges)}
    fibre_to_edge = [index.get(dec.cycles_at_vertex[v], -1) for v, _ in fibres]
    if not is_isomorphism(fibre_to_edge, cover.base, lam_line):
        raise StructureViolation(
            f"fibre -> cycle pair {fibre_to_edge} is no isomorphism onto "
            "the line graph of the graph of alternating cycles")

    return CoverReport(
        graph6=write_graph6(total),
        order=total.n,
        bipartite=bipartite,
        radius=dec.radius,
        attachment=dec.attachment,
        split=cert.is_split,
        sectional=cert.is_sectional,
        base_order=cover.base.n,
        base_girth=base_girth,
        base_is_line_graph_of=write_graph6(canonical_form(lam)[0]),
        group_order=group.order,
        lifted_order=cert.lifted_group.order,
        projected_order=projected.order,
    )
