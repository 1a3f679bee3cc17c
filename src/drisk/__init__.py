"""drisk: distance-r independence and domination toolkit.

Exact oracles and LP bounds for distance-constrained independence and
domination, ball set systems with 2-shattering and shallow clique-minor
extraction, projection profiles and closures, weak coloring orders with
a certified duality engine, a quasi-wideness splitter, and a
certificate-driven kernelization for the parameterized independence
problem, all behind a deterministic CLI.
"""

from .ballvc import (
    SetSystem,
    TwoShatterWitness,
    balls_system,
    extract_minor_model,
    restrict_system,
    two_vc_dimension,
    validate_two_shatter,
    vc_dimension,
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
    AnnotatedInstance,
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
    verify_certificate,
)
from .oracle import (
    LpSolution,
    MinorModel,
    OracleLimitError,
    domination_number,
    find_clique_minor,
    independence_number,
    lp_domination,
    lp_packing,
    validate_minor_model,
)
from .projections import (
    ClosureResult,
    ProjectionProfile,
    closure,
    mu,
    path_closure,
    profile,
    profile_classes,
    projection,
)
from .simplex import LpInfeasible, LpOptimum, LpUnbounded, solve_max, solve_min
from .uqw import UqwResult, find_uqw, scattered_ladder
from .wcol import (
    DualityReport,
    VertexOrder,
    dual_witness,
    duality_report,
    greedy_ball_cover,
    harmonic,
    order_heuristic,
    wcol_given_order,
    weak_reach_sets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
