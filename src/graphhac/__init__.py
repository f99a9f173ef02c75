"""Graph-based hierarchical agglomerative clustering.

Near-linear-time HAC on edge-weighted similarity graphs: chain- and
heap-based drivers for the triangle-based linkages (single, complete,
WPGMA), an exact average-linkage engine on the chain driver that validates
heap tops on extraction, and an epsilon-close approximate average-linkage
engine, plus a brute-force k-NN graph pipeline and ARI/NMI evaluation.
"""

from .average import approx_avg_hac, exact_avg_hac, naive_avg_hac
from .dendrogram import Dendrogram, Merge, load_dendrogram, parse_dendrogram, same_clustering
from .engine import RunAudit, chain_hac, heap_hac, merge_cost_bound, merge_cost_total
from .evaluation import ari, best_level_scores, closeness_audit, cut_dendrogram, nmi
from .graph import (
    PointSet,
    WeightedGraph,
    build_knn_graph,
    degree_log_reweight,
    load_edge_list,
    load_labels,
    load_points_csv,
    make_graph,
    parse_edge_list,
    symmetrize,
    validate_graph,
    write_edge_list,
)
from .linkage import (
    ALL_KINDS,
    AVERAGE_KINDS,
    AVG_APPROX,
    AVG_EXACT,
    COMPLETE,
    SINGLE,
    TRIANGLE_KINDS,
    WPGMA,
)
from .reference import reference_hac

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "AVERAGE_KINDS",
    "AVG_APPROX",
    "AVG_EXACT",
    "COMPLETE",
    "Dendrogram",
    "Merge",
    "PointSet",
    "RunAudit",
    "SINGLE",
    "TRIANGLE_KINDS",
    "WPGMA",
    "WeightedGraph",
    "approx_avg_hac",
    "ari",
    "best_level_scores",
    "build_knn_graph",
    "chain_hac",
    "closeness_audit",
    "cut_dendrogram",
    "degree_log_reweight",
    "exact_avg_hac",
    "heap_hac",
    "load_dendrogram",
    "load_edge_list",
    "load_labels",
    "load_points_csv",
    "make_graph",
    "merge_cost_bound",
    "merge_cost_total",
    "naive_avg_hac",
    "nmi",
    "parse_dendrogram",
    "parse_edge_list",
    "reference_hac",
    "same_clustering",
    "symmetrize",
    "validate_graph",
    "write_edge_list",
]
