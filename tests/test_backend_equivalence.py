"""Batched-vs-scalar locator backend equivalence.

The batched TP-BFS kernel's contract is *exact* result equality with
the scalar oracle: identical islands (ids, rounds, member discovery
order, hub first-contact order), hub lists, inter-hub edge maps,
per-round statistics, and work counters including the per-engine scan
distribution.  Each run also compares the per-task attribution that
``IslandLocator.stream(tap=...)`` reports — every task's hub, seed,
scans, fetches, bytes and outcome code — which incremental
islandization splices.  These tests pin that contract across graph
families (hub-island community, Erdős–Rényi, power-law, grids, chains,
cliques, stars), degenerate inputs, and adversarial configs (tiny and
huge ``c_max``, forced threshold schedules), plus a hypothesis sweep
over random graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IslandLocator, LocatorConfig, islandize
from repro.errors import ConfigError
from repro.graph import CSRGraph, GraphBuilder, erdos_renyi, hub_island_graph
from repro.graph.generators import CommunityProfile, barabasi_albert
from repro.graph.partition import GraphShard

#: The array arguments of one ``stream(tap=...)`` call, after the round id.
TAP_FIELDS = (
    "task_hubs", "task_seeds", "task_scans", "task_fetches", "task_bytes",
    "task_outcomes",
)


def tapped_run(graph, **config_kwargs):
    """Drain one locator stream; returns (result, per-round tap calls)."""
    taps = []
    stream = IslandLocator(LocatorConfig(**config_kwargs)).stream(
        graph, tap=lambda *args: taps.append(args)
    )
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            return stop.value, taps


def assert_equivalent(graph, **config_kwargs):
    """Both backends agree on the result and on every tapped task."""
    scalar, scalar_taps = tapped_run(graph, backend="scalar", **config_kwargs)
    batched, batched_taps = tapped_run(graph, backend="batched", **config_kwargs)
    assert scalar.equals(batched), _diff(scalar, batched)
    tap_diff = _tap_diff(scalar_taps, batched_taps)
    assert tap_diff is None, tap_diff
    batched.validate()
    return batched


def _tap_diff(a, b):
    """First per-task divergence between two tap logs, or ``None``."""
    if len(a) != len(b):
        return f"{len(a)} tapped rounds != {len(b)}"
    for ta, tb in zip(a, b):
        if ta[0] != tb[0]:
            return f"round id {ta[0]} != {tb[0]}"
        for name, x, y in zip(TAP_FIELDS, ta[1:], tb[1:]):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return f"round {ta[0]}: {name} {x} != {y}"
    return None


def _diff(a, b):
    """Human-readable first divergence, for assertion messages."""
    if len(a.islands) != len(b.islands):
        return f"island count {len(a.islands)} != {len(b.islands)}"
    for i, (x, y) in enumerate(zip(a.islands, b.islands)):
        if not np.array_equal(x.members, y.members):
            return f"island {i} members {x.members} != {y.members}"
        if not np.array_equal(x.hubs, y.hubs):
            return f"island {i} hubs {x.hubs} != {y.hubs}"
    if not np.array_equal(a.hub_ids, b.hub_ids):
        return "hub_ids differ"
    if not np.array_equal(a.interhub_edges, b.interhub_edges):
        return "interhub edges differ"
    for ra, rb in zip(a.rounds, b.rounds):
        if ra != rb:
            return f"round {ra.round_id}: {ra} != {rb}"
    return "work counters differ"


def grid_graph(width, height):
    """4-neighbour grid — long thin components, many BFS levels."""
    builder = GraphBuilder(width * height)
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                builder.add_edge(node, node + 1)
            if y + 1 < height:
                builder.add_edge(node, node + width)
    return builder.build()


class TestGraphFamilies:
    @pytest.mark.parametrize("seed", range(4))
    def test_hub_island(self, seed):
        graph, _ = hub_island_graph(
            400,
            CommunityProfile(hub_fraction=0.04, background_fraction=0.03),
            seed=seed,
        )
        assert_equivalent(graph.without_self_loops())

    @pytest.mark.parametrize("seed", range(4))
    def test_erdos_renyi(self, seed):
        # Random graphs force the over-c_max walk path: giant active
        # components with cap aborts and collision walks.
        assert_equivalent(erdos_renyi(250, 4.0, seed=seed).without_self_loops())

    @pytest.mark.parametrize("seed", range(3))
    def test_power_law(self, seed):
        assert_equivalent(
            barabasi_albert(300, 3, seed=seed).without_self_loops()
        )

    def test_grid(self):
        assert_equivalent(grid_graph(20, 15))

    def test_grid_small_cmax(self):
        assert_equivalent(grid_graph(20, 15), c_max=5)

    def test_noisy_community_small_cmax(self):
        graph, _ = hub_island_graph(
            600,
            CommunityProfile(background_fraction=0.1, background_hub_bias=0.2),
            seed=9,
        )
        assert_equivalent(graph.without_self_loops(), c_max=16)


class TestDegenerateGraphs:
    def test_zero_nodes(self):
        assert_equivalent(CSRGraph.empty(0))

    def test_isolated_nodes_only(self):
        assert_equivalent(CSRGraph.empty(7))

    def test_star(self, star):
        assert_equivalent(star, th0=3)

    def test_clique_cmax_splits(self):
        assert_equivalent(
            GraphBuilder(40).add_clique(range(40)).build(), c_max=8
        )

    def test_chain_at_th_min_1(self):
        # th0 above every degree: nothing classifies until th_min=1,
        # where all chain nodes become hubs at once.
        assert_equivalent(
            GraphBuilder(50).add_path(range(50)).build(), th0=7, th_min=1
        )

    def test_hub_fan_into_chain_cmax_aborts(self):
        graph = (
            GraphBuilder(31).add_star(0, range(1, 6)).add_path(range(1, 31))
        ).build()
        assert_equivalent(graph, th0=5, c_max=4)

    def test_two_node_components(self):
        builder = GraphBuilder(10)
        for i in range(0, 10, 2):
            builder.add_edge(i, i + 1)
        assert_equivalent(builder.build())

    def test_fig7(self, fig7):
        graph, _, _ = fig7
        assert_equivalent(graph, th0=4)


class TestConfigSweep:
    @pytest.mark.parametrize("c_max", [1, 2, 8, 64, 600, 100000])
    def test_cmax_extremes(self, c_max):
        # Small caps send this graph's tasks through the over-cap
        # walker.  No component of 300 nodes exceeds 600, so the two
        # large caps never walk: test_large_cap_walks covers walks at
        # a large cap.
        graph = erdos_renyi(300, 5.0, seed=2).without_self_loops()
        assert_equivalent(graph, c_max=c_max)

    def test_large_cap_walks(self):
        # At 3,000 nodes the active subgraph has a component over a
        # cap of 600, so walks run and some abort on it.
        graph = erdos_renyi(3000, 5.0, seed=2).without_self_loops()
        result = assert_equivalent(graph, c_max=600)
        assert any(r.tasks_dropped_cmax > 0 for r in result.rounds)

    @pytest.mark.parametrize("decay", [0.3, 0.5, 0.9])
    def test_decay_schedules(self, decay, community_graph):
        graph, _ = community_graph
        assert_equivalent(graph.without_self_loops(), decay=decay)

    def test_backend_rejected_when_unknown(self):
        with pytest.raises(ConfigError):
            LocatorConfig(backend="simd")

    def test_default_backend_is_batched(self):
        assert LocatorConfig().backend == "batched"
        assert IslandLocator().config.backend == "batched"

    def test_backend_is_part_of_config_digest(self):
        # Cached artifacts keyed by config digest must never mix
        # backends (shared artifact stores across processes).
        from repro.serialize import config_digest

        assert config_digest(LocatorConfig(backend="batched")) != config_digest(
            LocatorConfig(backend="scalar")
        )


class TestReadOnlyCSR:
    """Over-cap walks read the CSR arrays in place, whatever backs them."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(3000, 5.0, seed=2).without_self_loops()

    @staticmethod
    def assert_same_run(graph, reference, c_max):
        config = LocatorConfig(c_max=c_max)
        result = islandize(graph, config)
        assert result.equals(islandize(reference, config))
        # Over-cap walks ran (and some aborted on the cap).
        assert any(r.tasks_dropped_cmax > 0 for r in result.rounds)

    @pytest.mark.parametrize("c_max", [8, 600])
    def test_memory_mapped(self, graph, c_max, tmp_path):
        path = str(tmp_path / "shard.npz")
        GraphShard(0, np.arange(graph.num_nodes), graph).to_npz(path)
        mapped = GraphShard.from_npz_mmap(path).graph
        assert isinstance(mapped.indptr.base, np.memmap)
        assert isinstance(mapped.indices.base, np.memmap)
        self.assert_same_run(mapped, graph, c_max)

    @pytest.mark.parametrize("c_max", [8, 600])
    def test_read_only(self, graph, c_max):
        indptr, indices = graph.indptr.copy(), graph.indices.copy()
        indptr.setflags(write=False)
        indices.setflags(write=False)
        frozen = CSRGraph(indptr, indices)
        assert not frozen.indptr.flags.writeable
        assert not frozen.indices.flags.writeable
        self.assert_same_run(frozen, graph, c_max)


class TestEquals:
    """The equality predicate itself must be discriminating."""

    def test_equals_self(self, community_graph):
        graph, _ = community_graph
        result = islandize(graph.without_self_loops())
        assert result.equals(result)

    def test_detects_different_configs(self, community_graph):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        a = islandize(clean, LocatorConfig(c_max=8))
        b = islandize(clean, LocatorConfig(c_max=64))
        assert not a.equals(b)


@settings(max_examples=30, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=80),
    num_edges=st.integers(min_value=0, max_value=300),
    c_max=st.integers(min_value=1, max_value=100),
    edge_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_graphs_property(num_nodes, num_edges, c_max, edge_seed):
    """Hypothesis sweep: arbitrary symmetric graphs and caps agree."""
    rng = np.random.default_rng(edge_seed)
    rows = rng.integers(0, num_nodes, size=num_edges)
    cols = rng.integers(0, num_nodes, size=num_edges)
    keep = rows != cols
    graph = CSRGraph.from_edges(num_nodes, rows[keep], cols[keep], name="hyp")
    assert_equivalent(graph, c_max=c_max)
