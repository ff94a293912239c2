"""Dataset registry with the paper's five evaluation graphs.

The paper evaluates on Cora (CR), Citeseer (CS), Pubmed (PM), NELL (NE)
and Reddit (RD).  Those datasets are not shippable offline, so each
entry here pairs the *published* statistics (node/edge/feature/class
counts, feature density) with a :class:`CommunityProfile` tuned so the
generated surrogate reproduces the structural character that matters to
I-GCN: degree skew, sparsity, and strength of the hub-and-island
community structure (strong for the citation graphs and NELL, weak for
Reddit — the paper's §4.6.2 explicitly calls out Reddit's "less
significant component structures").

Use :func:`load_dataset`::

    ds = load_dataset("cora")
    ds.graph          # CSRGraph surrogate
    ds.num_features   # 1433 (published)

The ``scale`` parameter shrinks the node count; the profile, not the
scale, sets the average degree (docs/architecture.md#dataset-surrogates-and-scale).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from repro.errors import DatasetError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.generators import CommunityProfile, hub_island_graph
from repro.nputil import nonzero_count
from repro.serialize import read_npz, write_npz

__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASETS",
    "canonical_name",
    "dataset_names",
    "load_dataset",
    "figure2_graph",
    "figure7_island_graph",
]

#: The paper's two-letter dataset codes, accepted everywhere a name is.
DATASET_ALIASES = {
    "cr": "cora", "cs": "citeseer", "pm": "pubmed", "ne": "nell", "rd": "reddit",
}


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics + surrogate-generator profile for one dataset."""

    name: str
    full_nodes: int
    full_nnz: int  # directed adjacency entries, no self-loops
    num_features: int
    num_classes: int
    feature_density: float
    profile: CommunityProfile
    default_scale: float = 1.0
    description: str = ""

    @property
    def full_avg_degree(self) -> float:
        """Directed entries per node in the published graph."""
        return self.full_nnz / self.full_nodes


# Profiles are calibrated (see tests/test_datasets.py) so that islandization
# pruning lands in the paper's per-dataset band (Fig 10), at the cost of an
# average degree up to ~3x the published value
# (docs/architecture.md#surrogate-average-degree-band).
DATASETS: dict[str, DatasetSpec] = {
    "cora": DatasetSpec(
        name="cora",
        full_nodes=2708,
        full_nnz=10556,
        num_features=1433,
        num_classes=7,
        feature_density=0.0127,
        profile=CommunityProfile(
            hub_fraction=0.035,
            island_size_mean=5.0,
            island_size_min=3,
            island_size_max=16,
            island_density=0.88,
            hub_attach_prob=0.85,
            hubs_per_island=2,
            background_fraction=0.03,
            hub_popularity_exponent=0.55,
            interhub_avg_degree=1.5,
        ),
        description="citation network; strong community structure",
    ),
    "citeseer": DatasetSpec(
        name="citeseer",
        full_nodes=3327,
        full_nnz=9104,
        num_features=3703,
        num_classes=6,
        feature_density=0.0085,
        profile=CommunityProfile(
            hub_fraction=0.03,
            island_size_mean=5.0,
            island_size_min=3,
            island_size_max=12,
            island_density=0.90,
            hub_attach_prob=0.75,
            hubs_per_island=2,
            background_fraction=0.02,
            hub_popularity_exponent=0.55,
            interhub_avg_degree=1.2,
        ),
        description="citation network; sparser than Cora, strong communities",
    ),
    "pubmed": DatasetSpec(
        name="pubmed",
        full_nodes=19717,
        full_nnz=88648,
        num_features=500,
        num_classes=3,
        feature_density=0.10,
        profile=CommunityProfile(
            hub_fraction=0.02,
            island_size_mean=5.0,
            island_size_min=3,
            island_size_max=16,
            island_density=0.85,
            hub_attach_prob=0.75,
            hubs_per_island=2,
            background_fraction=0.10,
            background_hub_bias=0.95,
            hub_popularity_exponent=0.5,
            interhub_avg_degree=2.0,
        ),
        description="citation network; larger, moderate communities",
    ),
    "nell": DatasetSpec(
        name="nell",
        full_nodes=65755,
        full_nnz=266144,
        num_features=5414,
        num_classes=210,
        feature_density=0.00024,
        profile=CommunityProfile(
            hub_fraction=0.02,
            island_size_mean=6.5,
            island_size_min=3,
            island_size_max=18,
            island_density=0.95,
            hub_attach_prob=0.85,
            hubs_per_island=1,
            background_fraction=0.01,
            hub_popularity_exponent=0.55,
            interhub_avg_degree=1.2,
        ),
        default_scale=0.25,
        description=(
            "knowledge graph; extremely sparse with the most pronounced "
            "component structure (paper: islandization helps most here)"
        ),
    ),
    "reddit": DatasetSpec(
        name="reddit",
        full_nodes=232965,
        full_nnz=114615892,
        num_features=602,
        num_classes=41,
        feature_density=1.0,
        profile=CommunityProfile(
            hub_fraction=0.05,
            island_size_mean=10.0,
            island_size_min=4,
            island_size_max=32,
            island_density=0.70,
            hub_attach_prob=0.90,
            hubs_per_island=4,
            background_fraction=0.30,
            background_hub_bias=0.995,
            hub_popularity_exponent=0.5,
            interhub_avg_degree=8.0,
        ),
        default_scale=0.03,
        description=(
            "social network; huge and dense with weak community structure "
            "(paper: smallest islandization benefit)"
        ),
    ),
}


@dataclass
class Dataset:
    """A loaded (surrogate) dataset.

    ``features``/``labels`` are populated only when requested via
    ``load_dataset(..., with_features=True)``; performance-mode
    simulations need only the graph and the feature *statistics*.
    ``features`` is a scipy CSR matrix below density 1 and a dense
    C-contiguous float64 array at density 1.
    """

    spec: DatasetSpec
    graph: CSRGraph
    scale: float
    community: np.ndarray = field(repr=False)
    features: object | None = field(default=None, repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        """Dataset name (e.g. ``"cora"``)."""
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        """Nodes in the loaded (possibly scaled) graph."""
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        """Published input feature width (not scaled)."""
        return self.spec.num_features

    @property
    def num_classes(self) -> int:
        """Published class count."""
        return self.spec.num_classes

    @property
    def feature_density(self) -> float:
        """Published nnz fraction of the input feature matrix."""
        return self.spec.feature_density

    @property
    def feature_nnz(self) -> int:
        """Nonzeros of the materialised feature matrix, else their estimate."""
        if self.features is not None:
            return nonzero_count(self.features)
        return int(round(self.num_nodes * self.num_features * self.feature_density))

    def materialize_features(self, *, seed: int = 0) -> None:
        """Generate the feature matrix and structure-correlated labels.

        Features are Bernoulli(density) sparse rows (matching the bag-of-
        words character of the citation datasets); labels follow island
        membership with a little noise, so they correlate with structure
        the way real labels do.  At density 1 every entry is a one, so
        the matrix is the dense all-ones array: it holds the values of
        the ``scipy.sparse.random`` draw, which it replaces there
        (``tests/test_datasets.py`` pins this), without a column index
        per entry.
        """
        rng = np.random.default_rng(seed)
        if self.feature_density >= 1.0:
            self.features = np.ones((self.num_nodes, self.num_features))
        else:
            from scipy import sparse

            self.features = sparse.random(
                self.num_nodes,
                self.num_features,
                density=self.feature_density,
                format="csr",
                dtype=np.float64,
                random_state=np.random.RandomState(seed),
                data_rvs=lambda size: np.ones(size),
            )
        labels = np.where(
            self.community >= 0,
            self.community % self.num_classes,
            rng.integers(0, self.num_classes, size=self.num_nodes),
        )
        noise = rng.random(self.num_nodes) < 0.05
        labels[noise] = rng.integers(0, self.num_classes, size=int(noise.sum()))
        self.labels = labels.astype(np.int64)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the dataset (graph, community, optional features).

        The full :class:`DatasetSpec` — community profile included — is
        embedded in the metadata, so a restored dataset does not depend
        on the loading process's registry contents.  All numpy payloads
        (graph CSR, community labels, dense or CSR features) round-trip
        byte-identically.
        """
        arrays: dict[str, np.ndarray] = {
            "graph_indptr": self.graph.indptr,
            "graph_indices": self.graph.indices,
            "community": self.community,
        }
        meta = {
            "format": 1,
            "graph_name": self.graph.name,
            "scale": self.scale,
            "spec": dataclasses.asdict(self.spec),
        }
        if self.labels is not None:
            arrays["labels"] = self.labels
        if isinstance(self.features, np.ndarray):
            arrays["features"] = np.ascontiguousarray(self.features)
        elif self.features is not None:
            feats = self.features.tocsr()
            arrays["feat_data"] = feats.data
            arrays["feat_indices"] = feats.indices
            arrays["feat_indptr"] = feats.indptr
            meta["feat_shape"] = [int(feats.shape[0]), int(feats.shape[1])]
        write_npz(file, arrays, meta)

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "Dataset":
        """Restore a dataset written by :meth:`to_npz`.

        The stored profile is validated as a constructed one is
        (:class:`~repro.graph.generators.CommunityProfile` raises
        ``GraphError``).  ``degree_follows_scale``, a spec field that
        nothing read, is dropped from archives that still carry it.
        Dense features must be a float matrix with one row per node and
        one column per feature, else :class:`DatasetError`.
        """
        arrays, meta = read_npz(file)
        spec_fields = dict(meta["spec"])
        spec_fields.pop("degree_follows_scale", None)
        try:
            profile = CommunityProfile(**spec_fields.pop("profile"))
            spec = DatasetSpec(profile=profile, **spec_fields)
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"stored dataset spec is malformed: {exc!r}") from None
        graph = CSRGraph(
            indptr=arrays["graph_indptr"],
            indices=arrays["graph_indices"],
            name=str(meta["graph_name"]),
        )
        features = arrays.get("features")
        if "feat_shape" in meta:
            from scipy.sparse import csr_matrix

            features = csr_matrix(
                (arrays["feat_data"], arrays["feat_indices"], arrays["feat_indptr"]),
                shape=tuple(meta["feat_shape"]),
            )
        elif features is not None:
            shape = (graph.num_nodes, spec.num_features)
            if features.shape != shape or not np.issubdtype(
                features.dtype, np.floating
            ):
                raise DatasetError(
                    f"stored features ({features.dtype}, shape "
                    f"{features.shape}) are not a float matrix with one row "
                    f"per node and one column per feature {shape}"
                )
        return cls(
            spec=spec,
            graph=graph,
            scale=float(meta["scale"]),
            community=arrays["community"],
            features=features,
            labels=arrays.get("labels"),
        )


def canonical_name(name: str) -> str:
    """Resolve a dataset name or paper code to its registry key."""
    key = name.strip().lower()
    key = DATASET_ALIASES.get(key, key)
    if key not in DATASETS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        )
    return key


def dataset_names() -> list[str]:
    """Names of the registered datasets, in the paper's order."""
    return list(DATASETS)


def load_dataset(
    name: str,
    *,
    scale: float | None = None,
    seed: int = 7,
    with_features: bool = False,
) -> Dataset:
    """Load (generate) one of the paper's datasets.

    Parameters
    ----------
    name:
        One of ``cora``, ``citeseer``, ``pubmed``, ``nell``, ``reddit``
        (case-insensitive; the paper's two-letter codes also work).
    scale:
        Node-count multiplier; ``None`` uses the per-dataset default.
    seed:
        Generator seed (graphs are deterministic per (name, scale, seed)).
    with_features:
        Also materialise the feature matrix and labels.
    """
    key = canonical_name(name)
    spec = DATASETS[key]
    if scale is None:
        scale = spec.default_scale
    if not 0.0 < scale <= 1.0:
        raise DatasetError("scale must be in (0, 1]")
    num_nodes = max(64, int(round(spec.full_nodes * scale)))
    graph, community = hub_island_graph(
        num_nodes, spec.profile, seed=seed, name=key
    )
    ds = Dataset(spec=spec, graph=graph, scale=scale, community=community)
    if with_features:
        ds.materialize_features(seed=seed)
    return ds


def figure2_graph() -> CSRGraph:
    """The 6-node example graph of the paper's Figure 2.

    Edges (1-indexed in the figure): 1-2, 1-6, 2-6, 2-4, 3-4, 3-5, 4-5,
    5-6.  Returned 0-indexed.
    """
    return (
        GraphBuilder(6, name="figure2")
        .add_edges([(0, 1), (0, 5), (1, 5), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
        .build()
    )


def figure7_island_graph() -> tuple[CSRGraph, list[int], list[int]]:
    """The motivational island of the paper's Figure 7.

    Seven island nodes a..g (ids 0..6) plus one hub H (id 7).  Nodes
    d, e, f, g are the shared neighbours of b and c, which is the
    redundancy-removal showcase.  Returns (graph, island_node_ids,
    hub_ids).
    """
    a, b, c, d, e, f, g, hub = range(8)
    graph = (
        GraphBuilder(8, name="figure7")
        .add_edges(
            [
                (a, b), (a, c),
                (b, d), (b, e), (b, f), (b, g),
                (c, d), (c, e), (c, f), (c, g),
                (hub, a), (hub, b), (hub, c),
            ]
        )
        .build()
    )
    return graph, [a, b, c, d, e, f, g], [hub]
