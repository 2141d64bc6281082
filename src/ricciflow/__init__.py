"""Discrete Ricci curvature and curvature flows on measured weighted graphs."""

from .graph import (
    GraphError,
    MeasuredGraph,
    MetricAssignment,
    NumericalFailure,
    SurgeryEvent,
    apply_surgery,
    build_named_graph,
    deg_measure,
    edge_id,
    is_tree,
    load_graph,
    parse_graph_text,
    shortest_distance,
    surgery_scan,
)
from .curvature import (
    default_epsilon,
    forman_edge,
    forman_vector,
    kernel,
    lly_edge,
    lly_limit_estimate,
    lly_vector,
    wasserstein,
)
from .spectral import (
    ConvergenceReport,
    FlowMatrix,
    InverseResult,
    SpectralData,
    build_flow_matrix,
    classify_convergence,
    classify_tree_uniform,
    curvature_bounds,
    eigendecompose,
    flow_coefficients,
    inverse_curvature,
    jacobi_eigh,
)
from .flow import (
    FlowTrajectory,
    forman_flow_exact,
    lly_flow_integrate,
    normalized_trajectory,
    write_surgery_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"
