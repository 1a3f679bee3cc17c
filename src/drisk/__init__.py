"""drisk: distance-r independence and domination toolkit.

Exact oracles for distance-constrained independence and domination,
one fractional packing LP whose audited row duals are the cover optimum,
the pair-shattering dimension of distance balls with shallow
clique-minor extraction, profile classes and closures, weak reach
sets with a certified duality engine, a quasi-wideness splitter, and a
certificate-driven kernelization for the parameterized independence
problem, all behind a deterministic CLI.
"""

from .ballvc import (
    TwoShatterWitness,
    extract_minor_model,
    two_vc_dimension,
    validate_two_shatter,
)
from .generators import (
    BucketModelSample,
    HardnessInstance,
    PendantGraph,
    bucket_model,
    complete_graph,
    cycle_graph,
    exact_subdivision,
    gnm_random,
    grid_graph,
    hardness_reduction,
    path_graph,
    pendant_construction,
    star_graph,
    subdivision_vertex_range,
    trim_short_cycles,
)
from .graph import (
    Graph,
    GraphError,
    ball,
    distances_from,
    girth,
    induced_subgraph,
    is_distance_dominating,
    is_distance_independent,
    multi_source_distances,
    vset,
)
from .graphio import (
    read_edge_list,
    read_pairs,
    read_vertex_set,
    sidecar_path,
    write_edge_list,
    write_pairs,
    write_vertex_set,
)
from .kernel import (
    IrrelevanceCertificate,
    KernelOutcome,
    KernelPolicy,
    check_certificate,
    kernelize,
    remove_irrelevant,
)
from .oracle import (
    LpSolution,
    MinorModel,
    OracleLimitError,
    domination_number,
    find_clique_minor,
    independence_number,
    lp_domination,
    validate_minor_model,
)
from .projections import (
    ClosureResult,
    closure,
    path_closure,
    profile_classes,
)
from .simplex import LpOptimum, LpUnbounded, solve_max
from .uqw import UqwResult, find_uqw, scattered_ladder
from .wcol import (
    DualityReport,
    VertexOrder,
    dual_witness,
    duality_report,
    greedy_ball_cover,
    harmonic,
    order_heuristic,
    weak_reach_sets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
