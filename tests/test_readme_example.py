"""The README quickstart, executed."""

from hatkit import (
    alternating_cycles,
    automorphism_group,
    cover_pipeline,
    dart_graph,
    lift_automorphisms,
)
from hatkit.census import generalized_petersen


def test_readme_quickstart():
    base = generalized_petersen(5, 2)
    group = automorphism_group(base)
    assert group.order == 120
    dart, natural, labeling = dart_graph(base)
    assert dart.n == 30
    lifted = lift_automorphisms(base, group, labeling)
    dec = alternating_cycles(dart, natural)
    assert (dec.radius, dec.attachment) == (3, 2)
    report = cover_pipeline(dart, dec, lifted)
    assert report.split and not report.sectional
    data = report.to_json_dict()
    assert set(data) == {"order", "bipartite", "radius", "attachment",
                         "split", "sectional", "base_order", "base_girth",
                         "group_order", "lifted_order", "projected_order"}
