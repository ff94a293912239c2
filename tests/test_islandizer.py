"""Unit tests for the Island Locator (Algorithms 1-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocatorConfig, islandize
from repro.core.hub_detector import detect_new_hubs
from repro.core.islandizer import _GreedyEngineDispatch
from repro.core.tp_bfs_batched import (
    TASK_CMAX,
    TASK_VISITED,
    _component_labels,
    _int64_view,
    _run_walk_edgewise,
    dedup_interhub_keys,
)
from repro.errors import ConfigError, IslandizationError
from repro.graph import CSRGraph, GraphBuilder, erdos_renyi, hub_island_graph
from repro.graph.generators import CommunityProfile

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


class TestLocatorConfig:
    def test_defaults(self):
        c = LocatorConfig()
        assert c.p2 == 64
        assert c.c_max == 64

    def test_initial_threshold_quantile(self):
        degrees = np.arange(1, 101)
        th = LocatorConfig(th0_quantile=0.99).initial_threshold(degrees)
        assert th == 100

    def test_initial_threshold_explicit(self):
        assert LocatorConfig(th0=17).initial_threshold(np.arange(10)) == 17

    def test_threshold_decay_floors(self):
        c = LocatorConfig(decay=0.5, th_min=2)
        assert c.next_threshold(16) == 8
        assert c.next_threshold(3) == 2
        assert c.next_threshold(2) == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            LocatorConfig(decay=1.5)
        with pytest.raises(ConfigError):
            LocatorConfig(c_max=0)
        with pytest.raises(ConfigError):
            LocatorConfig(p2=0)


class TestHubDetector:
    def test_detects_above_threshold(self):
        degrees = np.array([5, 1, 8, 0, 3])
        det = detect_new_hubs(degrees, np.zeros(5, dtype=bool), 4)
        assert det.new_hubs.tolist() == [0, 2]

    def test_isolated_nodes_split_out(self):
        degrees = np.array([5, 0, 0])
        det = detect_new_hubs(degrees, np.zeros(3, dtype=bool), 4)
        assert det.isolated.tolist() == [1, 2]

    def test_classified_skipped(self):
        degrees = np.array([5, 8])
        classified = np.array([True, False])
        det = detect_new_hubs(degrees, classified, 4)
        assert det.new_hubs.tolist() == [1]
        assert det.detect_items == 1


class TestBasicIslandization:
    def test_star_graph(self, star):
        res = islandize(star, LocatorConfig(th0=3))
        res.validate()
        assert res.num_hubs == 1
        assert res.num_islands == 5  # each leaf closes alone

    def test_triangle_no_hubs_needed(self, triangle):
        # th0=4 > all degrees: first rounds produce nothing until th_min
        res = islandize(triangle, LocatorConfig(th0=4, th_min=1))
        res.validate()

    def test_isolated_nodes_become_singletons(self, empty_graph):
        res = islandize(empty_graph)
        res.validate()
        assert res.num_islands == 5
        assert all(i.num_members == 1 for i in res.islands)
        assert res.num_hubs == 0

    def test_fig7_with_single_hub_threshold(self, fig7):
        graph, members, hubs = fig7
        # degrees: a=3,b=6,c=6,d..g=2,H=3; th0=4 makes b,c the hubs.
        res = islandize(graph, LocatorConfig(th0=4))
        res.validate()
        assert set(res.hub_ids.tolist()) >= {1, 2}

    def test_rejects_self_loops(self):
        g = GraphBuilder(2).add_edge(0, 0).add_edge(0, 1).build()
        with pytest.raises(IslandizationError):
            islandize(g)

    def test_empty_zero_node_graph(self):
        res = islandize(CSRGraph.empty(0))
        assert res.num_islands == 0
        assert res.num_hubs == 0


class TestInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        graph, _ = hub_island_graph(
            500, CommunityProfile(hub_fraction=0.04, background_fraction=0.03),
            seed=13,
        )
        return islandize(graph), graph

    def test_validates(self, result):
        res, _ = result
        res.validate()

    def test_partition_complete(self, result):
        res, graph = result
        labels = res.membership()
        hubs = res.is_hub()
        assert np.all((labels >= 0) ^ hubs)

    def test_islands_disjoint(self, result):
        res, _ = result
        seen = set()
        for island in res.islands:
            members = set(island.members.tolist())
            assert not members & seen
            seen |= members

    def test_island_members_within_cmax(self, result):
        res, _ = result
        assert all(i.num_members <= 64 for i in res.islands)

    def test_island_hubs_are_hubs(self, result):
        res, _ = result
        hubs = set(res.hub_ids.tolist())
        for island in res.islands:
            assert set(island.hubs.tolist()) <= hubs

    def test_interhub_edges_exist_in_graph(self, result):
        res, graph = result
        for u, v in res.interhub_edges.tolist():
            assert graph.has_edge(u, v)

    def test_interhub_canonical_unique(self, result):
        res, _ = result
        pairs = [tuple(e) for e in res.interhub_edges.tolist()]
        assert len(pairs) == len(set(pairs))
        assert all(u <= v for u, v in pairs)

    def test_rounds_monotone_thresholds(self, result):
        res, _ = result
        thresholds = [r.threshold for r in res.rounds]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))

    def test_permutation_valid(self, result):
        res, graph = result
        perm = res.island_permutation()
        assert np.array_equal(np.sort(perm), np.arange(graph.num_nodes))

    def test_hubs_first_in_permutation(self, result):
        res, _ = result
        perm = res.island_permutation()
        if res.num_hubs:
            assert perm[res.hub_ids].max() < res.num_hubs


class TestCmax:
    def test_cmax_splits_dense_blob(self):
        # One 40-clique with c_max=8: no island may exceed 8 members.
        g = GraphBuilder(40).add_clique(range(40)).build()
        res = islandize(g, LocatorConfig(c_max=8))
        res.validate()
        assert all(i.num_members <= 8 for i in res.islands)

    def test_cmax_drops_recorded(self):
        # A hub fanning into a 30-node chain: BFS from any hub
        # neighbour must overrun c_max=4 and drop the task.
        b = GraphBuilder(31).add_star(0, range(1, 6)).add_path(range(1, 31))
        res = islandize(b.build(), LocatorConfig(th0=5, c_max=4))
        drops = sum(r.tasks_dropped_cmax for r in res.rounds)
        assert drops > 0


class TestTermination:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_terminate_and_validate(self, seed):
        g = erdos_renyi(200, 4.0, seed=seed)
        res = islandize(g)
        res.validate()
        assert res.num_rounds < 30

    def test_chain_graph(self):
        g = GraphBuilder(50).add_path(range(50)).build()
        res = islandize(g)
        res.validate()

    def test_two_node_components(self):
        b = GraphBuilder(10)
        for i in range(0, 10, 2):
            b.add_edge(i, i + 1)
        res = islandize(b.build())
        res.validate()

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_stall_above_unit_th_min_fails_fast(self, backend):
        # Path degrees are 1 and 2, so at th_min=3 no round finds a hub
        # and the state never changes; the loop must stop at the first
        # round at the floor (round 2), not spin to the round cap.
        g = GraphBuilder(10).add_path(range(10)).build()
        for th_min in (1, 2):
            config = LocatorConfig(th_min=th_min, backend=backend)
            assert islandize(g, config).num_rounds == 2
        with pytest.raises(
            IslandizationError,
            match=r"stalled at th_min=3: 10 unclassified nodes",
        ):
            islandize(g, LocatorConfig(th_min=3, backend=backend))


class TestWorkTracking:
    def test_adjacency_fetches_positive(self, community_graph):
        graph, _ = community_graph
        res = islandize(graph)
        assert res.work.total_adjacency_fetches > 0
        assert res.work.total_adjacency_bytes > 0

    def test_round_stats_sum_to_totals(self, community_graph):
        graph, _ = community_graph
        res = islandize(graph)
        assert (
            sum(r.adjacency_bytes for r in res.rounds)
            == res.work.total_adjacency_bytes
        )

    def test_engine_load_distributed(self, community_graph):
        graph, _ = community_graph
        res = islandize(graph, LocatorConfig(p2=4))
        loads = res.work.per_engine_scans
        assert len(loads) == 4
        assert loads.sum() == res.work.total_bfs_scans


class TestEngineDispatch:
    """The int-keyed dispatch heap against a plain ``argmin`` replay."""

    @settings(max_examples=100, deadline=None)
    @given(
        p2=st.integers(min_value=1, max_value=70),
        scans=st.lists(st.integers(min_value=0, max_value=50), max_size=200),
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=4),
    )
    def test_matches_argmin_replay(self, p2, scans, cuts):
        # Reference: each nonzero-scan task, in order, goes to the
        # least-loaded engine, ties to the lowest index (argmin's rule).
        expected = np.zeros(p2, dtype=np.int64)
        for s in scans:
            if s:
                expected[int(np.argmin(expected))] += s
        # The heap sees the same task sequence in one chunk or several.
        task_scans = np.asarray(scans, dtype=np.int64)
        bounds = [0, *sorted(min(c, len(scans)) for c in cuts), len(scans)]
        dispatch = _GreedyEngineDispatch(p2)
        for lo, hi in zip(bounds, bounds[1:]):
            dispatch.add(task_scans[lo:hi])
        assert np.array_equal(dispatch.loads(), expected)


class TestInterhubDedup:
    """The sorted-key inter-hub dedup on Th2-shaped task queues."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_reference(self, seed):
        # Built as the round loop builds a queue: older hubs, this
        # round's new hubs and non-hubs on a random symmetric graph;
        # one task per neighbour of each new hub, plus imported tasks
        # from older hubs (a sub-run's round 1), merged in (hub, seed)
        # order.  Only the seed-is-hub tasks reach the dedup.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        k = int(rng.integers(0, 4 * n))
        rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
        keep = rows != cols
        graph = CSRGraph.from_edges(n, rows[keep], cols[keep])
        role = rng.integers(0, 3, n)        # 0 non-hub, 1 older, 2 new
        new_hubs = np.flatnonzero(role == 2)
        hubs = [np.repeat(new_hubs, graph.degrees[new_hubs])]
        seeds = [graph.neighbors(int(h)) for h in new_hubs]
        for h in np.flatnonzero(role == 1):
            row = graph.neighbors(int(h))
            row = row[(role[row] != 1) & (rng.random(len(row)) < 0.5)]
            hubs.append(np.full(len(row), h))
            seeds.append(row)
        hubs = np.concatenate(hubs).astype(np.int64)
        seeds = np.concatenate([_EMPTY_IDS, *seeds]).astype(np.int64)
        order = np.lexsort((seeds, hubs))
        hubs, seeds = hubs[order], seeds[order]
        seed_is_hub = role[seeds] > 0
        hubs, seeds = hubs[seed_is_hub], seeds[seed_is_hub]
        expected = sorted({
            min(u, v) * n + max(u, v)
            for u, v in zip(hubs.tolist(), seeds.tolist())
        })
        assert dedup_interhub_keys(hubs, seeds, n, new_hubs).tolist() == expected


class TestOverCapWalker:
    """The over-c_max walker's two endings, and its guard on a third."""

    @staticmethod
    def walk(graph, state, c_max, seed):
        return _run_walk_edgewise(
            _int64_view(graph.indptr), _int64_view(graph.indices),
            state, c_max, seed,
        )

    def test_cap_and_collision(self):
        graph = GraphBuilder(4).add_path(range(4)).build()
        state = bytearray(4)
        # Node 0's row [1] adds a second member past c_max = 1.
        assert self.walk(graph, state, 1, 0) == (TASK_CMAX, 1, 1, 4)
        assert list(state) == [2, 2, 0, 0]
        # From node 3: row [2] adds 2, row [1, 3] collides on 1.
        assert self.walk(graph, state, 8, 3) == (TASK_VISITED, 2, 2, 12)
        assert list(state) == [2, 2, 2, 2]

    def test_closing_an_island_is_an_internal_error(self):
        # A component within the cap and no stamped node would close
        # an island, which the round never sends to this walker.
        graph = GraphBuilder(3).add_path(range(3)).build()
        with pytest.raises(IslandizationError, match="internal: an over-c_max"):
            self.walk(graph, bytearray(3), 64, 0)


class TestComponentLabels:
    """Active-row component labelling against an induced-subgraph Tarjan."""

    @staticmethod
    def reference(graph, active):
        # Tarjan over the induced subgraph on the active ids, relabelled
        # 0..k-1 in id order: the labelling the round loop stores.
        ids = np.flatnonzero(active)
        labels = np.full(graph.num_nodes, -1, dtype=np.int64)
        if len(ids) == 0:
            return labels, _EMPTY_IDS
        local = {int(u): i for i, u in enumerate(ids)}
        comp = [-1] * len(ids)
        count = 0
        for start in range(len(ids)):
            if comp[start] >= 0:
                continue
            comp[start] = count
            stack = [start]
            while stack:
                u = int(ids[stack.pop()])
                for v in graph.neighbors(u).tolist():
                    j = local.get(v)
                    if j is not None and comp[j] < 0:
                        comp[j] = count
                        stack.append(j)
            count += 1
        labels[ids] = comp
        return labels, np.bincount(comp).astype(np.int64)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        k = int(rng.integers(0, 2 * n))
        rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
        keep = rows != cols
        graph = CSRGraph.from_edges(n, rows[keep], cols[keep])
        active = rng.random(n) < 0.7
        labels, sizes = _component_labels(graph, active)
        ref_labels, ref_sizes = self.reference(graph, active)
        assert labels.tolist() == ref_labels.tolist()
        assert sizes.tolist() == ref_sizes.tolist()

    def test_degree_zero_active_rows(self):
        # Degree-0 active rows in the middle and as the very last row,
        # and an active row whose neighbours are all inactive.
        graph = CSRGraph.from_edges(7, np.array([0, 1, 3]), np.array([1, 2, 4]))
        active = np.array([True, True, False, True, True, True, True])
        labels, sizes = _component_labels(graph, active)
        ref_labels, ref_sizes = self.reference(graph, active)
        assert labels.tolist() == ref_labels.tolist() == [0, 0, -1, 1, 1, 2, 3]
        assert sizes.tolist() == ref_sizes.tolist() == [2, 2, 1, 1]

    def test_nothing_active(self):
        graph = CSRGraph.from_edges(3, np.array([0]), np.array([1]))
        labels, sizes = _component_labels(graph, np.zeros(3, dtype=bool))
        assert labels.tolist() == [-1, -1, -1]
        assert len(sizes) == 0
