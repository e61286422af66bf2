"""hatkit: alternating-cycle structure, dart graphs and split 2-fold
covers of tetravalent graphs admitting half-arc-transitive symmetry."""

__version__ = "0.1.0"

from .errors import HatError
from .graphs import (
    Graph,
    bipartite_double,
    from_edge_list,
    girth,
    is_bipartite,
    is_connected,
    is_regular,
    line_graph,
    odd_closed_walk,
    relabel,
)
from .graph6 import load_graph6_file, parse_graph6, write_graph6
from .perms import (
    PermGroup,
    centralizes,
    compose,
    from_cycles,
    identity,
    induced_action,
    inverse,
    schreier_sims,
)
from .autgroup import (
    TransitivityReport,
    arc_orbits,
    automorphism_group,
    canonical_form,
    is_isomorphic,
    refine,
    transitivity_report,
    unit_partition,
)
from .altcycles import (
    AltDecomposition,
    DivisibilityRecord,
    Orientation,
    alt_graph,
    alternating_cycles,
    antipodal_involution,
    divisibility_report,
    induced_alt_action,
    induced_orientation,
)
from .dartgraph import (
    DartLabeling,
    dart_graph,
    dart_reversal,
    lift_automorphisms,
    psi_isomorphism,
    verify_dart_forward,
    wreath_graph,
)
from .covers import (
    CoveringMap,
    SplitCertificate,
    cover_pipeline,
    is_covering,
    quotient_by_tau,
    split_certificate,
)
from .census import CensusEntry, builtin_entries, load_census

__all__ = [name for name in dir() if not name.startswith("_")]
