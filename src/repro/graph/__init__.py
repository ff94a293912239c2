"""Graph substrate: CSR storage, builders, generators, datasets, reorderings."""

from repro.graph.csr import CSRGraph
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    CommunityProfile,
    barabasi_albert,
    erdos_renyi,
    hub_island_graph,
)
from repro.graph.datasets import (
    DATASETS,
    Dataset,
    DatasetSpec,
    dataset_names,
    figure2_graph,
    figure7_island_graph,
    load_dataset,
)
from repro.graph.partition import (
    GraphPartition,
    GraphShard,
    PartitionError,
    PartitionStats,
    partition_graph,
)

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "CommunityProfile",
    "hub_island_graph",
    "erdos_renyi",
    "barabasi_albert",
    "DATASETS",
    "Dataset",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "figure2_graph",
    "figure7_island_graph",
    "GraphPartition",
    "GraphShard",
    "PartitionError",
    "PartitionStats",
    "partition_graph",
]
