"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact (no tolerances).
"""

import random
import time
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from hatkit.census import builtin_entries, generalized_petersen
from hatkit.errors import DegenerateWreath, OddAttachment, OrderTooSmall
from hatkit.graphs import (
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    line_graph,
    valence,
)
from hatkit.graph6 import parse_graph6, write_graph6
from hatkit.perms import compose, schreier_sims
from hatkit.autgroup import (
    automorphism_group,
    canonical_form,
    is_isomorphic,
    transitivity_report,
)
from hatkit.altcycles import (
    alt_graph,
    alternating_cycles,
    antipodal_involution,
    divisibility_checks,
    half_arc_orientation,
)
from hatkit.dartgraph import (
    dart_graph,
    lift_automorphisms,
    psi_isomorphism,
    verify_dart_forward,
    wreath_graph,
)
from hatkit.covers import cover_pipeline, quotient_by_tau

REQUIRED_CUBIC = [
    "k4", "k33", "cube", "petersen", "heawood", "mobius_kantor",
    "pappus", "desargues", "dodecahedron", "nauru", "coxeter",
]


def _passline(text):
    print(f"\nACCEPTANCE {text}: PASS")


@pytest.fixture(scope="module")
def pipeline():
    """Everything criteria 1-6 share, computed once per entry."""
    t0 = time.perf_counter()
    items = {}
    for entry in builtin_entries():
        g = entry.graph()
        group = automorphism_group(g)
        report = transitivity_report(group, g)
        item = SimpleNamespace(entry=entry, graph=g, group=group,
                               report=report, dart=None)
        if valence(g) == 3 and report.two_arc_transitive:
            dart, natural, labeling = dart_graph(g)
            lifted = lift_automorphisms(group, labeling)
            forward = verify_dart_forward(g, group, report)
            dec = alternating_cycles(natural)
            item.dart = SimpleNamespace(
                graph=dart, natural=natural, labeling=labeling,
                lifted=lifted, forward=forward, dec=dec)
        if valence(g) == 4 and report.half_arc_transitive:
            d = half_arc_orientation(g, report)
            item.hat_dec = alternating_cycles(d)
        items[entry.name] = item
    return SimpleNamespace(items=items, elapsed=time.perf_counter() - t0)


def test_criterion_1_dart_correspondence(pipeline):
    """Every bundled cubic graph is certified 2-arc-transitive and its dart
    graph carries a half-arc-transitive lifted action with radius 3,
    attachment 2, whose alternating-cycle graph is the base again."""
    for name in REQUIRED_CUBIC:
        item = pipeline.items[name]
        assert item.report.two_arc_transitive, name
        assert item.dart is not None, name
        _, _, dec, checks = item.dart.forward
        made = {check for check, _ in checks}
        assert "dart_half_arc_transitive" in made, name
        assert dec.radius == 3, name
        assert dec.attachment == 2, name
        assert "alt_reconstructs_base" in made, name
        assert "natural_orientation_induced" in made, name
        recovered = alt_graph(item.dart.dec)
        assert is_isomorphic(recovered, item.graph) is not None, name
        assert canonical_form(recovered)[1] == canonical_form(item.graph)[1]
    assert pipeline.elapsed < 120, f"pipeline took {pipeline.elapsed:.1f}s"
    _passline("criterion-1 dart-correspondence (11 cubic entries, "
              f"{pipeline.elapsed:.1f}s)")


def test_criterion_2_inverse_isomorphism(pipeline):
    """The explicit map from the dart graph of the reconstruction back onto
    each dart graph is a verified orientation-compatible isomorphism."""
    for name in REQUIRED_CUBIC:
        item = pipeline.items[name]
        psi, checks = psi_isomorphism(item.dart.natural, item.dart.dec)
        made = {check for check, _ in checks}
        assert {"psi_bijective", "psi_preserves_adjacency"} <= made, name
        assert "psi_orientation_compatible" in made, name
        assert sorted(psi) == list(range(item.dart.graph.n)), name
    _passline("criterion-2 inverse-isomorphism (11 entries)")


def test_criterion_3_antipodal_involution(pipeline):
    """On every even-attachment instance the antipodal map is a fixed-point
    free involutory automorphism centralizing the acting group, with both
    antipodes of every vertex coinciding."""
    checked = 0
    for name, item in sorted(pipeline.items.items()):
        if item.dart is None:
            continue
        dec, g, lifted = item.dart.dec, item.dart.graph, item.dart.lifted
        assert dec.attachment % 2 == 0, name
        tau = antipodal_involution(g, dec, lifted)
        assert all(tau[v] != v for v in range(g.n)), name
        assert all(tau[tau[v]] == v for v in range(g.n)), name
        assert all(tau[b] in g.nbrs[tau[a]] for a, b in g.edges), name
        assert all(compose(tau, s) == compose(s, tau)
                   for s in lifted.generators), name
        # antipode coincidence, re-derived per vertex from both cycles
        for v in range(g.n):
            antipodes = set()
            for c in dec.cycles_at_vertex[v]:
                cyc = item.dart.dec.cycles[c]
                p = cyc.index(v)
                antipodes.add(cyc[(p + dec.radius) % (2 * dec.radius)])
            assert antipodes == {tau[v]}, name
        checked += 1
    holt = pipeline.items["holt"]
    assert holt.hat_dec.attachment % 2 == 1
    with pytest.raises(OddAttachment):
        antipodal_involution(holt.graph, holt.hat_dec, holt.group)
    assert checked == len(REQUIRED_CUBIC)
    _passline(f"criterion-3 antipodal-involution ({checked} even-attachment "
              "instances; odd-attachment control rejected)")


def test_criterion_4_cover_theorem(pipeline):
    """Non-bipartite dart graphs of order above 12 are non-sectional split
    2-fold covers of girth-3 line graphs; bipartite ones are sectional."""
    expectations = {
        "petersen": (30, False), "coxeter": (84, False),
        "dodecahedron": (60, False), "k33": (18, True), "heawood": (42, True),
    }
    for name, (order, sectional) in sorted(expectations.items()):
        item = pipeline.items[name]
        g, lifted = item.dart.graph, item.dart.lifted
        assert g.n == order, name
        dec = item.dart.dec
        tau = antipodal_involution(g, dec, lifted)
        pipeline_cover, found, _ = cover_pipeline(g, dec, lifted, tau)
        assert found == sectional, name
        assert (is_bipartite(g) is not None) == sectional, name
        assert girth(pipeline_cover.base) == 3, name
        assert pipeline_cover.base.n == g.n // 2, name
        # directly re-check the splitting, the sectionality criterion and
        # the line graph
        assert not lifted.contains(tau), name
        group_order = item.group.order
        assert schreier_sims(lifted.generators + (tau,), g.n).order == \
            2 * group_order, name
        projected = [tuple(pipeline_cover.fibre_map[s[v]]
                           for v, _ in pipeline_cover.fibres)
                     for s in lifted.generators]
        assert schreier_sims(projected, pipeline_cover.base.n).order == \
            group_order, name
        cover = quotient_by_tau(g, tau)
        lam = alt_graph(dec)
        assert is_isomorphic(cover.base, line_graph(lam)[0]) is not None, name
        double = bipartite_double(cover.base)
        assert (is_isomorphic(g, double) is not None) == sectional, name
    _passline("criterion-4 cover-theorem (3 non-sectional, 2 sectional)")


def test_criterion_5_boundary_cases(pipeline):
    """Dart(K4) has order exactly 12 and is rejected by the order guard;
    the order-6 wreath graph trips the K_{2,2} degeneracy detection."""
    k4_item = pipeline.items["k4"]
    assert k4_item.dart.graph.n == 12
    with pytest.raises(OrderTooSmall):
        cover_pipeline(k4_item.dart.graph, k4_item.dart.dec,
                       k4_item.dart.lifted,
                       antipodal_involution(k4_item.dart.graph,
                                            k4_item.dart.dec,
                                            k4_item.dart.lifted))
    w3 = wreath_graph(3)
    fibre_swap = tuple(i ^ 1 for i in range(6))
    with pytest.raises(DegenerateWreath):
        quotient_by_tau(w3, fibre_swap)
    _passline("criterion-5 boundary-cases (order guard + degenerate wreath)")


def test_criterion_6_divisibility(pipeline):
    """Every analyzed instance passes a | 2r and the theorem: a dart graph
    with the antipodal involution's image of a natural arc (tau is the
    dart reversal) as proof that X is arc-transitive, and the full-group
    half-arc-transitive instance with none, where odd radius and, as the
    theorem's corollary, an attachment number not divisible by 4 both
    give a | r; the order-27 entry exercises that branch.  No instance is
    an open-question candidate."""
    names = ["a_divides_2r", "arc_transitive_if_a_twice_odd_not_dividing_r"]
    analyzed = 0
    odd_radius_full_group = 0
    for name, item in sorted(pipeline.items.items()):
        if item.dart is not None:
            natural = item.dart.natural
            tau = antipodal_involution(item.dart.graph, item.dart.dec,
                                       item.dart.lifted)
            t, h = next((t, h) for t, h in natural.arcs
                        if tau[t] in natural.out_adj[tau[h]])
            passed = []
            assert divisibility_checks(item.dart.dec, passed,
                                       ((t, h), (tau[t], tau[h]))) is None
            assert [check for check, _ in passed] == names, name
            analyzed += 1
        if getattr(item, "hat_dec", None) is not None:
            dec = item.hat_dec
            passed = []
            assert divisibility_checks(dec, passed) is None, name
            assert [check for check, _ in passed] == names, name
            if dec.radius % 2:
                odd_radius_full_group += 1
                assert dec.radius % dec.attachment == 0, name
            if dec.attachment % 4:
                assert dec.radius % dec.attachment == 0, name
            analyzed += 1
    holt = pipeline.items["holt"].hat_dec
    assert holt.radius % 2 and holt.radius % holt.attachment == 0
    assert analyzed == len(REQUIRED_CUBIC) + 1
    assert odd_radius_full_group >= 1
    _passline(f"criterion-6 divisibility ({analyzed} instances, "
              f"{odd_radius_full_group} odd-radius full-group)")


def _brute_force_aut_order(g):
    count = 0
    for p in permutations(range(g.n)):
        if all(p[v] in g.nbrs[p[u]] for u, v in g.edges):
            count += 1
    return count


def test_criterion_7_engine_oracle():
    """Search-engine automorphism orders match brute force over all vertex
    permutations: 500 random graphs on up to 8 vertices, plus the
    10!-permutation check of the 120 automorphisms of the Petersen graph."""
    t0 = time.perf_counter()
    rng = random.Random(700)
    for _ in range(500):
        n = rng.randint(1, 8)
        edges = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
        g = from_edge_list(n, edges)
        assert automorphism_group(g).order == _brute_force_aut_order(g)
    petersen = generalized_petersen(5, 2)
    edges = petersen.edges
    nbrs = petersen.nbrs
    count = 0
    for p in permutations(range(10)):
        for u, v in edges:
            if p[v] not in nbrs[p[u]]:
                break
        else:
            count += 1
    assert count == 120
    assert automorphism_group(petersen).order == 120
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"oracle comparison took {elapsed:.0f}s"
    _passline(f"criterion-7 engine-oracle (500 graphs + 10! sweep, "
              f"{elapsed:.1f}s)")


def test_criterion_8_graph6_round_trip():
    """parse/write identity on every census line and 1000 random graphs."""
    for entry in builtin_entries():
        g = parse_graph6(entry.graph6)
        assert write_graph6(g) == entry.graph6
        assert parse_graph6(write_graph6(g)) == g
    rng = random.Random(800)
    for i in range(1000):
        n = rng.randint(0, 70) if i % 10 == 0 else rng.randint(0, 30)
        edges = [p for p in combinations(range(n), 2)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = from_edge_list(n, edges)
        s = write_graph6(g)
        assert parse_graph6(s) == g
        assert write_graph6(parse_graph6(s)) == s
    _passline("criterion-8 graph6-round-trip (census + 1000 random)")
