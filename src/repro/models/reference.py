"""Reference GNN forward pass (ground truth for the simulators).

Implements Equation 1 of the paper, ``X(l+1) = sigma(A_hat X(l) W(l))``,
directly with scipy sparse algebra.  The accelerator simulators must
produce numerically identical results (up to floating-point reorder
noise) — the losslessness of islandization and redundancy removal is
*tested* against this module.

Normalisation factorisation
---------------------------
I-GCN's shared-neighbour reuse requires the contribution of node ``u``
to target ``v`` to be expressible as ``b_v * (a_u * xw_u)``: a source
scale applied once during combination, and a target scale applied once
after aggregation.  Each supported aggregation factorises exactly:

======== ===================== ============== ============== ===========
kind     A_hat                 a_u (source)   b_v (target)   self edge
======== ===================== ============== ============== ===========
gcn-sym  D^-1/2 (A+I) D^-1/2   dhat_u^-1/2    dhat_v^-1/2    via A+I
sage-mean D^-1 (A+I)           1              1/dhat_v       via A+I
gin-sum  A + (1+eps) I         1              1              explicit
======== ===================== ============== ============== ===========

where ``dhat`` is the degree of ``A+I``.  GIN's self edge carries a
different weight, so it is applied as a separate per-node axpy rather
than as part of the symmetric edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.models.configs import ModelConfig

__all__ = [
    "FUNCTIONAL_RTOL",
    "NormalizationSpec",
    "normalization_for",
    "normalized_adjacency",
    "init_weights",
    "reference_layer",
    "reference_forward",
    "relative_error",
]

#: Largest error a functional output may show against
#: :func:`reference_forward`, relative to the largest reference entry
#: (:func:`relative_error`).  The two agree to a few ulps, ~1e-15.
FUNCTIONAL_RTOL = 1e-9


@dataclass(frozen=True)
class NormalizationSpec:
    """Factorised edge weighting for one aggregation kind.

    ``source_scale``/``target_scale`` are per-node vectors (a_u / b_v
    above); ``self_weight`` is the extra diagonal term applied outside
    the edge set (0 when self loops are already in the edge set).
    ``add_self_loops`` says whether the aggregation runs on ``A + I``.
    """

    kind: str
    add_self_loops: bool
    source_scale: np.ndarray
    target_scale: np.ndarray
    self_weight: float


def normalization_for(graph: CSRGraph, kind: str, *, gin_eps: float = 0.0) -> NormalizationSpec:
    """Build the factorised normalisation for ``graph`` and ``kind``."""
    degrees = graph.without_self_loops().degrees.astype(np.float64)
    if kind == "gcn-sym":
        dhat = degrees + 1.0
        inv_sqrt = 1.0 / np.sqrt(dhat)
        return NormalizationSpec(
            kind=kind,
            add_self_loops=True,
            source_scale=inv_sqrt,
            target_scale=inv_sqrt,
            self_weight=0.0,
        )
    if kind == "sage-mean":
        dhat = degrees + 1.0
        ones = np.ones_like(dhat)
        return NormalizationSpec(
            kind=kind,
            add_self_loops=True,
            source_scale=ones,
            target_scale=1.0 / dhat,
            self_weight=0.0,
        )
    if kind == "gin-sum":
        ones = np.ones(graph.num_nodes, dtype=np.float64)
        return NormalizationSpec(
            kind=kind,
            add_self_loops=False,
            source_scale=ones,
            target_scale=ones,
            self_weight=1.0 + gin_eps,
        )
    raise ConfigError(f"unknown aggregation kind {kind!r}")


def normalized_adjacency(graph: CSRGraph, kind: str, *, gin_eps: float = 0.0):
    """Materialise ``A_hat`` as a scipy CSR matrix (reference path)."""
    spec = normalization_for(graph, kind, gin_eps=gin_eps)
    base = graph.without_self_loops()
    adj = base.with_self_loops() if spec.add_self_loops else base
    mat = adj.to_scipy()
    # Scale rows by target (result row v) and columns by source (u):
    # A_hat[v, u] = b_v * a_u * A[v, u].  The graph is symmetric so the
    # CSR row index is the aggregation *target*.
    diag_b = sparse.diags(spec.target_scale)
    diag_a = sparse.diags(spec.source_scale)
    mat = diag_b @ mat @ diag_a
    if spec.self_weight != 0.0:
        mat = mat + sparse.identity(graph.num_nodes, format="csr") * spec.self_weight
    return mat.tocsr()


def init_weights(model: ModelConfig, *, seed: int = 0) -> list[np.ndarray]:
    """Deterministic Glorot-style weights for every layer."""
    rng = np.random.default_rng(seed)
    weights = []
    for d_in, d_out in model.layer_dims():
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
    return weights


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(x, 0.0)
    return x


def reference_layer(
    a_hat, x: np.ndarray, w: np.ndarray, *, activation: str = "none"
) -> np.ndarray:
    """One combination-first GraphCONV layer: ``sigma(A_hat (X W))``."""
    xw = x @ w if not sparse.issparse(x) else (x @ w)
    xw = np.asarray(xw)
    out = a_hat @ xw
    return _activate(np.asarray(out), activation)


def reference_forward(
    graph: CSRGraph,
    model: ModelConfig,
    features,
    weights: list[np.ndarray] | None = None,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Full multi-layer forward pass; returns the output feature matrix.

    ``features`` may be a dense ndarray or a scipy sparse matrix.
    """
    if weights is None:
        weights = init_weights(model, seed=seed)
    if len(weights) != model.num_layers:
        raise ConfigError("weights list does not match layer count")
    a_hat = normalized_adjacency(graph, model.aggregation, gin_eps=model.gin_eps)
    x = features
    for layer, w in zip(model.layers, weights):
        if w.shape != (layer.in_dim, layer.out_dim):
            raise ConfigError(
                f"weight shape {w.shape} does not match layer "
                f"({layer.in_dim}, {layer.out_dim})"
            )
        x = reference_layer(a_hat, x, w, activation=layer.activation)
    return np.asarray(x)


def relative_error(output: np.ndarray, reference: np.ndarray) -> float:
    """``max |output - reference|`` over the largest ``|reference|`` entry.

    The absolute error when the reference is all zeros.
    """
    err = float(np.max(np.abs(output - reference), initial=0.0))
    scale = float(np.max(np.abs(reference), initial=0.0))
    return err / scale if scale else err
