"""Unit + calibration tests for the dataset registry."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import (
    DATASETS,
    dataset_names,
    figure2_graph,
    figure7_island_graph,
    load_dataset,
)


class TestRegistry:
    def test_five_paper_datasets(self):
        assert dataset_names() == ["cora", "citeseer", "pubmed", "nell", "reddit"]

    def test_published_statistics(self):
        assert DATASETS["cora"].full_nodes == 2708
        assert DATASETS["cora"].num_features == 1433
        assert DATASETS["cora"].num_classes == 7
        assert DATASETS["citeseer"].full_nodes == 3327
        assert DATASETS["pubmed"].full_nodes == 19717
        assert DATASETS["nell"].full_nodes == 65755
        assert DATASETS["reddit"].full_nodes == 232965

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_two_letter_aliases(self):
        assert load_dataset("CR", scale=0.05).name == "cora"
        assert load_dataset("rd", scale=0.01).name == "reddit"

    def test_bad_scale_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("cora", scale=0.0)
        with pytest.raises(DatasetError):
            load_dataset("cora", scale=2.0)


class TestLoading:
    def test_default_scale_full_for_cora(self):
        ds = load_dataset("cora")
        assert ds.num_nodes == 2708

    def test_scale_shrinks(self):
        ds = load_dataset("cora", scale=0.25)
        assert ds.num_nodes == 677

    def test_deterministic_per_seed(self):
        a = load_dataset("citeseer", scale=0.1, seed=3)
        b = load_dataset("citeseer", scale=0.1, seed=3)
        assert np.array_equal(a.graph.indices, b.graph.indices)

    def test_feature_nnz_estimate(self):
        ds = load_dataset("cora", scale=0.1)
        expected = round(ds.num_nodes * 1433 * 0.0127)
        assert ds.feature_nnz == expected

    def test_materialized_features(self, tiny_cora):
        assert tiny_cora.features is not None
        assert tiny_cora.features.shape == (tiny_cora.num_nodes, 1433)
        assert tiny_cora.labels is not None
        assert tiny_cora.labels.min() >= 0
        assert tiny_cora.labels.max() < 7

    @pytest.mark.parametrize("num_features", (1, 7, 602))
    @pytest.mark.parametrize("seed", (0, 3))
    def test_dense_features_match_scipy_random(self, num_features, seed):
        """At density 1 the dense all-ones array is the RNG draw, byte for byte."""
        from dataclasses import replace

        from scipy import sparse

        ds = load_dataset("reddit", scale=0.002, seed=seed)
        ds = replace(ds, spec=replace(ds.spec, num_features=num_features))
        assert ds.feature_density == 1.0
        ds.materialize_features(seed=seed)
        reference = sparse.random(
            ds.num_nodes, num_features, density=1.0, format="csr",
            dtype=np.float64, random_state=np.random.RandomState(seed),
            data_rvs=lambda size: np.ones(size),
        ).toarray()
        assert type(ds.features) is np.ndarray
        assert ds.features.flags.c_contiguous
        assert ds.features.dtype == reference.dtype == np.float64
        assert ds.features.shape == reference.shape
        assert ds.features.tobytes() == reference.tobytes()
        assert ds.feature_nnz == ds.num_nodes * num_features
        # The label draw is the one the RNG path always made.
        rng = np.random.default_rng(seed)
        labels = np.where(
            ds.community >= 0,
            ds.community % ds.num_classes,
            rng.integers(0, ds.num_classes, size=ds.num_nodes),
        )
        noise = rng.random(ds.num_nodes) < 0.05
        labels[noise] = rng.integers(0, ds.num_classes, size=int(noise.sum()))
        assert ds.labels.dtype == np.int64
        assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()

    def test_labels_correlate_with_structure(self, tiny_cora):
        labels = tiny_cora.labels
        community = tiny_cora.community
        members = community >= 0
        # Most members carry their island's class (5% label noise).
        expected = community[members] % tiny_cora.num_classes
        agreement = (labels[members] == expected).mean()
        assert agreement > 0.85


class TestCalibration:
    """Surrogates must preserve the character that matters to I-GCN."""

    @pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed", "nell"])
    def test_average_degree_band(self, name):
        """Surrogates trade some degree fidelity for community fidelity.

        The profiles are tuned to land Figure 10's pruning rates (the
        paper's headline), which pushes average degree up to ~2-3x the
        published value on the sparsest graphs;
        docs/architecture.md#surrogate-average-degree-band records this.
        Guard the band so future retunes do not drift further.
        """
        ds = load_dataset(name)
        measured = ds.graph.avg_degree
        published = ds.spec.full_avg_degree
        assert published * 0.5 <= measured <= published * 3.0, (
            f"{name}: surrogate avg degree {measured:.2f} vs {published:.2f}"
        )

    @pytest.mark.parametrize("name", dataset_names())
    def test_symmetric_no_self_loops(self, name):
        ds = load_dataset(name, scale=min(0.05, DATASETS[name].default_scale))
        assert not ds.graph.has_self_loops()

    def test_reddit_weakest_communities(self):
        # Reddit's background fraction dominates the other profiles.
        bg = {n: DATASETS[n].profile.background_fraction for n in dataset_names()}
        assert bg["reddit"] == max(bg.values())

    def test_nell_strongest_communities(self):
        bg = {n: DATASETS[n].profile.background_fraction for n in dataset_names()}
        assert bg["nell"] == min(bg.values())


class TestPaperGraphs:
    def test_figure2(self):
        g = figure2_graph()
        assert g.num_nodes == 6
        assert g.num_edges == 16

    def test_figure7_shared_neighbours(self):
        g, members, hubs = figure7_island_graph()
        b, c = members[1], members[2]
        shared = set(g.neighbors(b)) & set(g.neighbors(c))
        # d, e, f, g are the shared neighbours driving Figure 7.
        assert set(members[3:]) <= shared

    def test_figure7_hub_degree(self):
        g, members, hubs = figure7_island_graph()
        assert g.degree(hubs[0]) == 3
