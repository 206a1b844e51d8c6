"""Hierarchical community-guided random graphs: sampling, exact cluster
verification, brute-force enumeration oracles, closed-form bounds, and a
deterministic Monte Carlo experiment harness."""

from .bounds import (
    JansonBounds,
    LogValue,
    ThresholdConstants,
    ThresholdHeights,
    binom_tail_bound,
    binom_tail_exact,
    binom_tail_simple,
    clique_count_lower_bound,
    cluster_count_guarantee,
    exact_clique_probability,
    expected_internal_edges,
    gamma_constant,
    janson_bounds,
    m_star,
    threshold_constants,
    threshold_heights,
)
from .clusters import (
    ClusterSpec,
    EventReport,
    Witness,
    classify_thick,
    edges_to_set,
    event_report,
    internal_edge_count,
    is_cluster,
    is_externally_sparse,
    is_internally_dense,
    sparse_core,
)
from .experiments import (
    ExperimentConfig,
    TrialReport,
    estimate_event_probs,
    run_threshold_sweep,
    sweep_csv,
    trend_sparse_below_mstar,
    xs_statistics,
)
from .generator import (
    Graph,
    edge_probability,
    expected_edge_count,
    read_edge_list,
    sample_graph,
    sample_graph_naive,
    write_edge_list,
)
from .oracle import (
    ClusterList,
    WorkBudgetError,
    enumerate_clusters,
    enumerate_complete_clusters,
)
from .tree import (
    TreeParams,
    VertexSet,
    enclosing_complete_set,
    height_from_set,
    pair_height,
    pairs_at_height,
    set_height,
)

__all__ = [name for name in dir() if not name.startswith("_")]
