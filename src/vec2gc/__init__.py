"""vec2gc: embedding clustering via similarity graphs and community detection.

The pipeline turns a set of term or document embeddings into a weighted
graph (edges between pairs whose cosine similarity clears a threshold),
recursively splits the graph with a modularity-maximizing community
detector, and reports purity statistics over the resulting cluster tree.
"""

from .embedding_io import (
    EmbeddingSet,
    FormatError,
    load_embeddings,
    load_labels,
)
from .simgraph import (
    MAX_EDGE_WEIGHT,
    SIMILARITY_CAP,
    SimilarityGraph,
    build_graph,
    induced_subgraph,
    write_edges_tsv,
)
from .community import (
    Partition,
    aggregate_graph,
    louvain,
    members_by_community,
    modularity,
)
from .hierarchy import (
    ClusterTree,
    NonCommunityBucket,
    TreeNode,
    derive_seed,
    dumps_tree,
    flat_clusters,
    leaf_clusters_from_document,
    vec2gc_cluster,
)
from .evaluation import (
    ClusterPurityRow,
    KMedoidsResult,
    PurityReport,
    cluster_purity,
    format_report_table,
    kmedoids,
    purity_report,
    report_to_json_dict,
)

__version__ = "0.5.0"

__all__ = [
    "EmbeddingSet",
    "FormatError",
    "load_embeddings",
    "load_labels",
    "SimilarityGraph",
    "SIMILARITY_CAP",
    "MAX_EDGE_WEIGHT",
    "build_graph",
    "induced_subgraph",
    "write_edges_tsv",
    "Partition",
    "aggregate_graph",
    "louvain",
    "members_by_community",
    "modularity",
    "ClusterTree",
    "NonCommunityBucket",
    "TreeNode",
    "derive_seed",
    "dumps_tree",
    "flat_clusters",
    "leaf_clusters_from_document",
    "vec2gc_cluster",
    "ClusterPurityRow",
    "KMedoidsResult",
    "PurityReport",
    "cluster_purity",
    "format_report_table",
    "kmedoids",
    "purity_report",
    "report_to_json_dict",
    "__version__",
]
