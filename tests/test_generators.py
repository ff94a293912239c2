"""Unit tests for synthetic graph generators."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.eval.bench_locator import (
    _BENCH_PROFILE,
    _EDGES_PER_NODE,
    BENCH_TIERS,
    bench_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    CommunityProfile,
    barabasi_albert,
    erdos_renyi,
    hub_island_graph,
)


def per_island_loop(num_nodes, profile, *, seed=0, name="hub-island"):
    """The hub-and-island generator as a loop over islands: the oracle.

    ``hub_island_graph`` draws the island phase as one block; this is
    the loop it must match byte for byte.
    """
    if num_nodes < 4:
        raise GraphError("hub_island_graph needs at least 4 nodes")
    rng = np.random.default_rng(seed)

    num_hubs = max(1, int(round(num_nodes * profile.hub_fraction)))
    hubs = np.arange(num_hubs, dtype=np.int64)
    rest = np.arange(num_hubs, num_nodes, dtype=np.int64)
    rng.shuffle(rest)

    sizes: list[int] = []
    remaining = len(rest)
    base = min(profile.island_size_min, profile.island_size_max)
    tail_mean = max(profile.island_size_mean - base + 1.0, 1.0001)
    p = min(0.999, 1.0 / tail_mean)
    while remaining > 0:
        size = base + int(rng.geometric(p)) - 1
        size = int(min(size, profile.island_size_max, remaining))
        sizes.append(max(size, 1))
        remaining -= sizes[-1]
    islands: list[np.ndarray] = []
    offset = 0
    for size in sizes:
        islands.append(rest[offset : offset + size])
        offset += size

    community = -np.ones(num_nodes, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []

    ranks = np.arange(1, num_hubs + 1, dtype=np.float64)
    hub_weights = np.power(ranks, -profile.hub_popularity_exponent)
    hub_weights /= hub_weights.sum()

    for island_id, members in enumerate(islands):
        community[members] = island_id
        m = len(members)
        if m >= 2:
            iu, iv = np.triu_indices(m, k=1)
            keep = rng.random(len(iu)) < profile.island_density
            rows.append(members[iu[keep]])
            cols.append(members[iv[keep]])
        # Attach the island to a few hubs.
        k = min(profile.hubs_per_island, num_hubs)
        chosen = rng.choice(hubs, size=k, replace=False, p=hub_weights)
        for hub in chosen:
            attach = members[rng.random(m) < profile.hub_attach_prob]
            if len(attach) == 0 and m > 0:
                attach = members[:1]  # keep every island reachable
            rows.append(np.full(len(attach), hub, dtype=np.int64))
            cols.append(attach)

    n_interhub = int(round(num_hubs * profile.interhub_avg_degree / 2.0))
    if num_hubs >= 2 and n_interhub > 0:
        hu = rng.choice(hubs, size=n_interhub, p=hub_weights)
        hv = rng.choice(hubs, size=n_interhub, p=hub_weights)
        keep = hu != hv
        rows.append(hu[keep])
        cols.append(hv[keep])

    core_edges = int(sum(len(r) for r in rows))
    if profile.background_fraction > 0.0 and core_edges > 0:
        n_bg = int(
            core_edges
            * profile.background_fraction
            / (1.0 - profile.background_fraction)
        )
        bu = rng.integers(0, num_nodes, size=n_bg).astype(np.int64)
        to_hub = rng.random(n_bg) < profile.background_hub_bias
        bv = rng.integers(0, num_nodes, size=n_bg).astype(np.int64)
        if to_hub.any():
            bv[to_hub] = rng.choice(hubs, size=int(to_hub.sum()), p=hub_weights)
        keep = bu != bv
        rows.append(bu[keep])
        cols.append(bv[keep])

    all_rows = np.concatenate(rows) if rows else np.zeros(0, np.int64)
    all_cols = np.concatenate(cols) if cols else np.zeros(0, np.int64)
    graph = CSRGraph.from_edges(num_nodes, all_rows, all_cols, name=name)
    return graph, community


def assert_same_generation(num_nodes, profile, seed):
    graph, community = hub_island_graph(num_nodes, profile, seed=seed)
    want_graph, want_community = per_island_loop(num_nodes, profile, seed=seed)
    for got, want in (
        (graph.indptr, want_graph.indptr),
        (graph.indices, want_graph.indices),
        (community, want_community),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def community_digest(community):
    return hashlib.blake2b(community.tobytes(), digest_size=16).hexdigest()


#: (dataset, scale or None for the default) -> (graph fingerprint,
#: community digest) at seed 7, recorded from the per-island loop.
GOLDEN_DATASETS = {
    ("cora", None): ("8d6289ae37da078885fdf537d7fbf470", "6690e3fa4351b6256066c320646d2e6f"),
    ("citeseer", None): ("d917f7ba2d367daede33803a8083cd02", "f587508c229bd097f5dbcded1c5bbab2"),
    ("pubmed", None): ("3c71df3733af56fe0c2b5d02713d89b6", "086aada3bd77f969407a55100d6d0625"),
    ("nell", None): ("61df313290b50dbd486f5cba98fc3fc7", "4f0a70fe3d2e5dd813e16a62582d3d3d"),
    ("reddit", None): ("71d9a5b95fd90a6530a095636dea6105", "397328614c0fe2bb45d6aca118710647"),
    ("reddit", 0.1): ("8c02183c767c40e8b9cdd570f2f38d11", "235e52057f8d78858741b75256c28df6"),
}

#: Bench tier -> (``bench_graph`` fingerprint, community digest) at seed 7.
GOLDEN_TIERS = {
    "1e3": ("3802c1530e312cb8ba52973106234186", "ba2ad7144de11b17238af332ece70e18"),
    "1e4": ("362b4b8905a86e2f08cb92b826c58bc1", "de3492ed73a5e0fc769151352cd9bffc"),
    "1e5": ("02fda9462081b8ce5eeb23755cd21f09", "30149ac707edbcc4ddfcb628fd162403"),
    "1e6": ("d165e7fcc6e192a2f7cde6b12454ac33", "7fb64c2b28199db2fb2f3e3af9519750"),
}


class TestGolden:
    """Pinned generator output.

    The committed ``BENCH_*`` records and ``perfbench/expected.json``
    were measured on this generator's graphs, so a change in its draw
    order, or in NumPy's random stream, must show here first.
    """

    @pytest.mark.parametrize("name, scale", list(GOLDEN_DATASETS))
    def test_surrogate(self, name, scale):
        ds = load_dataset(name, scale=scale, seed=7)
        got = (ds.graph.fingerprint(), community_digest(ds.community))
        assert got == GOLDEN_DATASETS[name, scale]

    @pytest.mark.parametrize("tier", list(GOLDEN_TIERS))
    def test_bench_tier(self, tier):
        nodes = max(64, int(BENCH_TIERS[tier] / _EDGES_PER_NODE))
        _, community = hub_island_graph(
            nodes, _BENCH_PROFILE, seed=7, name=f"bench-{tier}"
        )
        got = (bench_graph(tier, seed=7).fingerprint(), community_digest(community))
        assert got == GOLDEN_TIERS[tier]


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        num_nodes=st.integers(4, 2500),
        seed=st.integers(0, 2**32 - 1),
        hub_fraction=st.floats(0.001, 0.5),
        island_size_mean=st.floats(1.0, 48.0),
        island_size_min=st.integers(1, 48),
        island_size_max=st.integers(1, 48),
        island_density=st.floats(0.0, 1.0),
        hub_attach_prob=st.floats(0.0, 1.0),
        hubs_per_island=st.integers(0, 4),
        background_fraction=st.floats(0.0, 0.95),
        background_hub_bias=st.floats(0.0, 1.0),
        hub_popularity_exponent=st.floats(0.0, 3.0),
        interhub_avg_degree=st.floats(0.0, 8.0),
    )
    def test_random_profiles(self, num_nodes, seed, **fields):
        assert_same_generation(num_nodes, CommunityProfile(**fields), seed)

    def test_redraw_heavy(self):
        # Two hubs, both picked by every island: about half the islands
        # repeat a hub on their first draws and redraw.
        profile = CommunityProfile(hub_fraction=0.002, hubs_per_island=4)
        assert_same_generation(1000, profile, seed=3)


#: One out-of-range value per CommunityProfile field.
BAD_FIELDS = {
    "hub_fraction": 0.0,
    "island_size_mean": float("nan"),
    "island_size_min": 0,
    "island_size_max": 0,
    "island_density": 1.5,
    "hub_attach_prob": 1.5,
    "hubs_per_island": -1,
    "background_fraction": 1.0,
    "background_hub_bias": 2.0,
    "hub_popularity_exponent": float("nan"),
    "interhub_avg_degree": -3,
}


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

    @pytest.mark.parametrize("field, value", list(BAD_FIELDS.items()))
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(GraphError, match=field):
            CommunityProfile(**{field: value})

    def test_every_field_has_a_bad_value(self):
        assert set(BAD_FIELDS) == {f.name for f in dataclasses.fields(CommunityProfile)}

    def test_rejects_non_integer_counts(self):
        with pytest.raises(GraphError, match="hubs_per_island"):
            CommunityProfile(hubs_per_island=2.0)
        with pytest.raises(GraphError, match="island_size_min"):
            CommunityProfile(island_size_min=True)

    def test_rejects_underflowing_popularity(self):
        profile = CommunityProfile(hub_popularity_exponent=2000.0)
        with pytest.raises(GraphError, match="hub_popularity_exponent"):
            hub_island_graph(300, profile)


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

