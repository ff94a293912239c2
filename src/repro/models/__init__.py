"""GNN model substrate: configs, reference forward pass, workload counts."""

from repro.models.configs import (
    LayerSpec,
    ModelConfig,
    build_model,
    gcn_model,
    gin_model,
    graphsage_model,
)
from repro.models.reference import (
    FUNCTIONAL_RTOL,
    NormalizationSpec,
    init_weights,
    normalization_for,
    normalized_adjacency,
    reference_forward,
    reference_layer,
    relative_error,
)
from repro.models.workload import LayerWorkload, Workload, build_workload

__all__ = [
    "LayerSpec",
    "ModelConfig",
    "gcn_model",
    "graphsage_model",
    "gin_model",
    "build_model",
    "FUNCTIONAL_RTOL",
    "NormalizationSpec",
    "normalization_for",
    "normalized_adjacency",
    "init_weights",
    "reference_forward",
    "reference_layer",
    "relative_error",
    "LayerWorkload",
    "Workload",
    "build_workload",
]
