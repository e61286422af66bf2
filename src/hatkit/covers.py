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
    NotInvariant,
    NotInvolution,
    OrbitNotIndependent,
    OrderTooSmall,
    TauInG,
    WrongParameters,
)
from .graphs import (
    Graph,
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    line_graph,
    maps_edges,
    odd_closed_walk,
)
from .graph6 import write_graph6
from .autgroup import canonical_form, is_isomorphic, transitivity_report
from .altcycles import (
    alt_graph,
    alternating_cycles,
    antipodal_involution,
    induced_orientation,
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
    fold: int
    ct_group: PermGroup

    def fibres(self):
        out = [[] for _ in range(self.base.n)]
        for v, b in enumerate(self.fibre_map):
            out[b].append(v)
        return [tuple(f) for f in out]

    def to_json_dict(self):
        return {
            "total_order": self.total.n,
            "base_order": self.base.n,
            "fold": self.fold,
            "fibre_map": list(self.fibre_map),
            "ct_order": str(self.ct_group.order),
        }


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
    projection with <tau> as its covering transformation group.
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
    ct = schreier_sims([tau], degree=n)
    cover = CoveringMap(total=total, base=base, fibre_map=fibre_map,
                        fold=2, ct_group=ct)
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
    complement: PermGroup
    is_split: bool
    is_sectional: bool
    non_bipartite_witness: list | None

    def to_json_dict(self):
        return {
            "lifted_order": str(self.lifted_group.order),
            "complement_order": str(self.complement.order),
            "is_split": self.is_split,
            "is_sectional": self.is_sectional,
            "non_bipartite_witness": self.non_bipartite_witness,
        }


def split_certificate(total: Graph, group: PermGroup, tau,
                      cover: CoveringMap) -> SplitCertificate:
    """Certify that <group, tau> = group x <tau> splits over <tau> and
    decide sectionality.

    Requires tau to be an involution that centralizes the group and does
    not belong to it.  The lifted group is built and its order checked to
    be exactly twice the group order, so the group is a complement of the
    covering transformations.  A centralizing involution gives
    <group, tau> = group <tau> of order at most 2 |group|, so the chain
    is built under that bound.
    """
    if not centralizes(tau, group):
        raise NotCentralizing("tau does not centralize the supplied group")
    if not is_identity(compose(tau, tau)):
        raise NotInvolution("tau is not an involution")
    if group.contains(tau):
        raise TauInG("tau lies in the supplied group; no splitting complement")
    lifted = schreier_sims(list(group.generators) + [tuple(tau)],
                           degree=total.n, order_bound=2 * group.order)
    assert lifted.order == 2 * group.order, \
        "adjoining a centralizing involution outside the group must double " \
        "the order"
    double = bipartite_double(cover.base)
    sectional = is_isomorphic(total, double) is not None
    witness = odd_closed_walk(total)
    if witness is not None:
        assert len(witness) % 2 == 0 and witness[0] == witness[-1]
        assert all(total.has_edge(a, b) for a, b in zip(witness, witness[1:]))
    return SplitCertificate(
        lifted_group=lifted,
        complement=group,
        is_split=True,
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


def cover_pipeline(total: Graph, group: PermGroup) -> CoverReport:
    """Run antipodal involution -> quotient -> split certificate for a
    half-arc-transitive action with radius 3 and attachment 2 on a graph
    of order greater than 12, then verify the base graph:

    - the projected group acts faithfully and arc-transitively on it,
    - it has girth 3 (alternating 6-cycles project to triangles),
    - it is isomorphic to the line graph of the graph of alternating
      cycles, which is cubic with a 2-arc-transitive induced action.

    Bipartite inputs run through the same pipeline and certify sectional;
    non-bipartite inputs certify non-sectional.
    """
    d, _ = induced_orientation(group, total)
    dec = alternating_cycles(total, d)
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

    bipartite = is_bipartite(total) is not None
    assert cert.is_sectional == bipartite, \
        "sectional exactly when the total graph is bipartite"

    # the fibres are tau-orbits, so tau (adjoined to the lifted group by
    # split_certificate) lies in the kernel of the fibre action and the
    # projected group has order at most half the lifted order
    fibres = cover.fibres()
    moved = next(((v, w) for v, w in fibres if tau[v] != w), None)
    if moved is not None:
        raise NotInvariant(f"tau moves the fibre {moved}")
    projected, faithful = induced_action(
        cert.lifted_group, fibres,
        order_bound=cert.lifted_group.order // 2)
    # kernel of the fibre action must be exactly <tau>, so the projected
    # quotient group acts faithfully with half the lifted order
    assert not faithful and 2 * projected.order == cert.lifted_group.order, \
        "kernel of the fibre action must be exactly the covering group"
    base_report = transitivity_report(projected, cover.base)
    assert base_report.arc_transitive, \
        "projected action must be arc-transitive on the base"

    base_girth = girth(cover.base)
    assert base_girth == 3, f"base girth {base_girth} != 3"

    lam = alt_graph(total, dec)
    lam_line, _ = line_graph(lam)
    assert is_isomorphic(cover.base, lam_line) is not None, \
        "base must be the line graph of the graph of alternating cycles"

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
