"""GNN model configurations.

The paper evaluates three model families (§4.1):

* **GCN** — 2 layers.  "algo" variant uses the original Kipf & Welling
  hidden width (16); "Hy" variant uses HyGCN's 128 hidden channels.
* **GraphSage** — 2 layers, mean aggregator; "algo" uses the original
  paper's 128 hidden units, "Hy" uses 128 as well (same by accident of
  the original configuration).
* **GIN** — 3 layers, sum aggregator with (1+eps) self weighting;
  evaluated with HyGCN's configuration (64 hidden).

A model here is a stack of :class:`LayerSpec` plus an aggregation
normalisation kind.  All three families fit the paper's Equation 1
abstraction ``X' = sigma(A_hat X W)`` with a per-family ``A_hat``; see
``repro.models.reference.NORMALIZATIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "LayerSpec",
    "ModelConfig",
    "gcn_model",
    "graphsage_model",
    "gin_model",
    "build_model",
    "MODEL_FAMILIES",
]

#: Aggregation kinds understood by the reference and the accelerator.
AGGREGATIONS = ("gcn-sym", "sage-mean", "gin-sum")


@dataclass(frozen=True)
class LayerSpec:
    """One GraphCONV layer: dims and activation."""

    in_dim: int
    out_dim: int
    activation: str = "relu"  # "relu" | "none"

    def __post_init__(self) -> None:
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ConfigError("layer dimensions must be positive")
        if self.activation not in ("relu", "none"):
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ModelConfig:
    """A full GNN: ordered layers + aggregation normalisation."""

    name: str
    aggregation: str
    layers: tuple[LayerSpec, ...]
    gin_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"unknown aggregation {self.aggregation!r}; pick from {AGGREGATIONS}"
            )
        if not self.layers:
            raise ConfigError("a model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ConfigError(
                    f"layer dims mismatch: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def num_layers(self) -> int:
        """Number of GraphCONV layers."""
        return len(self.layers)

    def layer_dims(self) -> list[tuple[int, int]]:
        """(in, out) for each layer, in order."""
        return [(layer.in_dim, layer.out_dim) for layer in self.layers]


def _stack(name: str, aggregation: str, dims: list[int], *, gin_eps: float = 0.0) -> ModelConfig:
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        activation = "relu" if i < len(dims) - 2 else "none"
        layers.append(LayerSpec(d_in, d_out, activation))
    return ModelConfig(name=name, aggregation=aggregation, layers=tuple(layers), gin_eps=gin_eps)


def gcn_model(num_features: int, num_classes: int, *, variant: str = "algo") -> ModelConfig:
    """2-layer GCN; ``variant`` is ``"algo"`` (hidden 16) or ``"hy"`` (128)."""
    hidden = {"algo": 16, "hy": 128}.get(variant)
    if hidden is None:
        raise ConfigError(f"unknown GCN variant {variant!r}")
    return _stack(f"gcn-{variant}", "gcn-sym", [num_features, hidden, num_classes])


def graphsage_model(num_features: int, num_classes: int, *, variant: str = "algo") -> ModelConfig:
    """2-layer GraphSage (mean aggregator); hidden 128 in both variants."""
    hidden = {"algo": 128, "hy": 128}.get(variant)
    if hidden is None:
        raise ConfigError(f"unknown GraphSage variant {variant!r}")
    return _stack(f"gs-{variant}", "sage-mean", [num_features, hidden, num_classes])


def gin_model(num_features: int, num_classes: int, *, hidden: int = 64, eps: float = 0.1) -> ModelConfig:
    """3-layer GIN (sum aggregator with (1+eps) self weight)."""
    return _stack(
        "gin", "gin-sum", [num_features, hidden, hidden, num_classes], gin_eps=eps
    )


MODEL_FAMILIES = {
    "gcn": gcn_model,
    "graphsage": graphsage_model,
    "gin": gin_model,
}


def build_model(family: str, num_features: int, num_classes: int, **kwargs) -> ModelConfig:
    """Build a model by family name (``gcn``/``graphsage``/``gin``)."""
    try:
        factory = MODEL_FAMILIES[family]
    except KeyError:
        raise ConfigError(
            f"unknown model family {family!r}; pick from {sorted(MODEL_FAMILIES)}"
        ) from None
    return factory(num_features, num_classes, **kwargs)
