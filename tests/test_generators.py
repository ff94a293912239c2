"""Unit tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    CommunityProfile,
    barabasi_albert,
    erdos_renyi,
    hub_island_graph,
)


class TestCommunityProfile:
    def test_defaults_valid(self):
        CommunityProfile()

    def test_rejects_bad_hub_fraction(self):
        with pytest.raises(GraphError):
            CommunityProfile(hub_fraction=0.0)
        with pytest.raises(GraphError):
            CommunityProfile(hub_fraction=1.5)

    def test_rejects_bad_density(self):
        with pytest.raises(GraphError):
            CommunityProfile(island_density=1.5)

    def test_rejects_bad_background(self):
        with pytest.raises(GraphError):
            CommunityProfile(background_fraction=1.0)


class TestHubIslandGraph:
    def test_deterministic(self):
        g1, l1 = hub_island_graph(200, CommunityProfile(), seed=3)
        g2, l2 = hub_island_graph(200, CommunityProfile(), seed=3)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(l1, l2)

    def test_seed_changes_graph(self):
        g1, _ = hub_island_graph(200, CommunityProfile(), seed=3)
        g2, _ = hub_island_graph(200, CommunityProfile(), seed=4)
        assert not np.array_equal(g1.indices, g2.indices)

    def test_symmetric_no_self_loops(self):
        g, _ = hub_island_graph(150, CommunityProfile(), seed=0)
        assert g.is_symmetric()
        assert not g.has_self_loops()

    def test_hubs_labelled_minus_one(self):
        profile = CommunityProfile(hub_fraction=0.1)
        g, labels = hub_island_graph(100, profile, seed=0)
        num_hubs = int((labels == -1).sum())
        assert num_hubs == 10

    def test_islands_have_bounded_size(self):
        profile = CommunityProfile(island_size_max=5)
        _, labels = hub_island_graph(300, profile, seed=1)
        sizes = np.bincount(labels[labels >= 0])
        assert sizes.max() <= 5

    def test_hubs_have_high_degree(self):
        g, labels = hub_island_graph(400, CommunityProfile(), seed=2)
        hub_deg = g.degrees[labels == -1].mean()
        member_deg = g.degrees[labels >= 0].mean()
        assert hub_deg > 2 * member_deg

    def test_rejects_tiny_graph(self):
        with pytest.raises(GraphError):
            hub_island_graph(2, CommunityProfile())


class TestErdosRenyi:
    def test_average_degree_close(self):
        g = erdos_renyi(2000, 8.0, seed=0)
        assert g.avg_degree == pytest.approx(8.0, rel=0.15)

    def test_no_self_loops(self):
        g = erdos_renyi(100, 4.0, seed=1)
        assert not g.has_self_loops()

    def test_rejects_negative_degree(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, -1.0)


class TestBarabasiAlbert:
    def test_power_law_skew(self):
        g = barabasi_albert(1000, 2, seed=0)
        degrees = np.sort(g.degrees)[::-1]
        # Hub degrees far above the median is the BA signature.
        assert degrees[0] > 5 * np.median(degrees)

    def test_edge_count(self):
        g = barabasi_albert(500, 3, seed=1)
        # m edges per arriving node (plus the seed clique), undirected.
        assert g.num_edges / 2 == pytest.approx(3 * 500, rel=0.1)

    def test_rejects_small(self):
        with pytest.raises(GraphError):
            barabasi_albert(1, 1)

