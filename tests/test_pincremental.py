"""Tests for partitioned-incremental islandization: delta routing.

The load-bearing contract mirrors the monolithic incremental suite but
against the *pinned-partition oracle*: on every tested delta — interior
churn, brand-new cross-shard edges, separator destruction, empty
shards, every fallback — the shard-routed update must satisfy
``IslandizationResult.equals`` against ``ShardFleet.rerecord`` (a full
fleet re-record of the mutated graph on the evolved pinned partition),
and the refreshed per-shard states must match that re-record's fresh
recordings field for field.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

from repro.core import LocatorConfig
from repro.core.islandizer_incremental import (
    IncrementalState,
    record_islandization,
    update_islandization,
)
from repro.core.islandizer_pincremental import (
    PartitionedIncrementalState,
    ShardFleet,
    load_ilstate,
)
from repro.errors import IslandizationError
from repro.graph import CSRGraph
from repro.graph.csr import GraphDelta
from repro.graph.partition import ROUTE_CROSS, route_edits
from repro.runtime import Engine

# ----------------------------------------------------------------------
# Helpers (mirroring test_incremental's freshness machinery)
# ----------------------------------------------------------------------

CFG = LocatorConfig(th0=8, partitions=3, incremental=True)

_STATE_FIELDS = (
    "log_hubs", "log_seeds", "log_scans", "log_fetches", "log_bytes",
    "log_outcomes", "log_offsets", "class_round", "winner_hubs",
)


def random_graph(rng, n, avg_deg):
    k = n * avg_deg // 2
    rows = rng.integers(0, n, k)
    cols = rng.integers(0, n, k)
    keep = rows != cols
    return CSRGraph.from_edges(n, rows[keep], cols[keep], name="rnd")


def canon(labels):
    out = np.full(len(labels), -1, np.int64)
    first: dict[int, int] = {}
    for i, v in enumerate(labels.tolist()):
        if v < 0:
            continue
        if v not in first:
            first[v] = len(first)
        out[i] = first[v]
    return out


def assert_partitioned_fresh(upd_state, fresh_state):
    """The updated state must match the re-record's fresh recordings.

    Exact for everything except ``comp_labels``, whose values the
    incremental path relabels with fresh ids (the induced partition
    must still agree) — same contract as the monolithic suite.
    """
    assert upd_state.th0 == fresh_state.th0
    assert np.array_equal(upd_state.part_of, fresh_state.part_of)
    assert np.array_equal(
        upd_state.boundary_nodes, fresh_state.boundary_nodes
    )
    assert upd_state.num_shards == fresh_state.num_shards
    for p in range(upd_state.num_shards):
        assert np.array_equal(
            upd_state.shard_nodes[p], fresh_state.shard_nodes[p]
        )
        ours, fresh = upd_state.shard_states[p], fresh_state.shard_states[p]
        assert ours.th0 == fresh.th0, p
        for field in _STATE_FIELDS:
            assert np.array_equal(
                getattr(ours, field), getattr(fresh, field)
            ), (p, field)
        assert np.array_equal(
            canon(ours.comp_labels), canon(fresh.comp_labels)
        ), p


def assert_exact(fleet, state, graph, delta, upd):
    """Oracle equality + per-shard state freshness for one update."""
    mutated = graph.apply_delta(delta)
    scratch, fresh_state = fleet.rerecord(mutated, state)
    assert upd.result.equals(scratch)
    upd.result.validate()
    assert_partitioned_fresh(upd.state, fresh_state)
    return mutated


def absent_pair(graph, nodes_a, nodes_b):
    """Some absent edge with one endpoint in each node pool."""
    es = set(graph.edge_keys().tolist())
    n = graph.num_nodes
    for u in nodes_a[:80]:
        for v in nodes_b[:80]:
            u, v = int(u), int(v)
            if u != v and min(u, v) * n + max(u, v) not in es:
                return u, v
    raise AssertionError("no absent pair found")


def interior_edges(graph, state, p):
    """Global (u, v) pairs of every interior edge of shard ``p``."""
    local = state.shard_results[p].graph
    nodes = state.shard_nodes[p]
    keys = local.edge_keys()
    lu, lv = keys // local.num_nodes, keys % local.num_nodes
    keep = lu < lv
    return np.stack([nodes[lu[keep]], nodes[lv[keep]]], axis=1)


# ----------------------------------------------------------------------
# Fixtures: one recorded fleet shared by the routing tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    with ShardFleet(CFG) as f:
        yield f


@pytest.fixture(scope="module")
def recorded(fleet):
    graph = random_graph(np.random.default_rng(17), 300, 5)
    result, state = fleet.record(graph)
    return graph, result, state


# ----------------------------------------------------------------------
# Routing edge cases
# ----------------------------------------------------------------------


class TestRouting:
    def test_interior_edit_updates_one_shard_splices_the_rest(
        self, fleet, recorded
    ):
        graph, result, state = recorded
        u, v = absent_pair(graph, state.shard_nodes[0], state.shard_nodes[0])
        delta = GraphDelta.from_edges(
            insertions=np.array([[u, v]], dtype=np.int64)
        )
        upd = fleet.update(
            graph, result, state, delta, max_dirty_fraction=1.0
        )
        assert not upd.fallback
        assert upd.dirty_shards == (0,)
        # Untouched shards splice by reference, not by copy.
        for q in (1, 2):
            assert upd.state.shard_results[q] is state.shard_results[q]
            assert upd.state.shard_states[q] is state.shard_states[q]
        assert_exact(fleet, state, graph, delta, upd)

    def test_new_cross_shard_edge_promotes_both_endpoints(
        self, fleet, recorded
    ):
        graph, result, state = recorded
        u, v = absent_pair(graph, state.shard_nodes[0], state.shard_nodes[1])
        route, _ = route_edits(
            state.part_of,
            np.array([u], dtype=np.int64),
            np.array([v], dtype=np.int64),
        )
        assert route[0] == ROUTE_CROSS  # the construction really crosses
        delta = GraphDelta.from_edges(
            insertions=np.array([[u, v]], dtype=np.int64)
        )
        upd = fleet.update(
            graph, result, state, delta, max_dirty_fraction=1.0
        )
        assert not upd.fallback
        # Both endpoints joined the separator (sticky), their shards
        # re-recorded on shrunken interiors.
        assert upd.state.part_of[u] == -1 and upd.state.part_of[v] == -1
        assert u in upd.state.boundary_nodes and v in upd.state.boundary_nodes
        assert upd.dirty_shards == (0, 1)
        assert u not in upd.state.shard_nodes[0]
        assert v not in upd.state.shard_nodes[1]
        assert_exact(fleet, state, graph, delta, upd)

    def test_separator_hub_destruction_stays_boundary(self, fleet, recorded):
        graph, result, state = recorded
        boundary = state.boundary_nodes
        degs = graph.degrees[boundary]
        b = int(boundary[int(np.argmax(degs))])
        assert graph.degrees[b] > 0
        dels = np.array(
            [[b, int(w)] for w in graph.neighbors(b)], dtype=np.int64
        )
        delta = GraphDelta.from_edges(deletions=dels)
        upd = fleet.update(
            graph, result, state, delta, max_dirty_fraction=1.0
        )
        assert not upd.fallback
        # Boundary-incident edits dirty no shard: interiors are
        # untouched, only the merge re-runs.
        assert upd.dirty_shards == ()
        # Separator membership is sticky even at degree zero.
        assert upd.state.part_of[b] == -1
        assert b in upd.state.boundary_nodes
        assert_exact(fleet, state, graph, delta, upd)

    def test_delta_confined_to_emptied_shard(self, fleet, recorded):
        graph, result, state = recorded
        p = int(np.argmin([
            state.shard_results[q].graph.num_edges
            for q in range(state.num_shards)
        ]))
        edges = interior_edges(graph, state, p)
        assert len(edges)  # shard starts non-empty
        upd1 = fleet.update(
            graph, result, state,
            GraphDelta.from_edges(deletions=edges),
            max_dirty_fraction=1.0,
        )
        assert not upd1.fallback and upd1.dirty_shards == (p,)
        graph2 = assert_exact(
            fleet, state, graph,
            GraphDelta.from_edges(deletions=edges), upd1,
        )
        assert upd1.state.shard_results[p].graph.num_edges == 0
        # A second delta confined to the now-edgeless shard interior.
        nodes = upd1.state.shard_nodes[p]
        u, v = absent_pair(graph2, nodes, nodes)
        delta2 = GraphDelta.from_edges(
            insertions=np.array([[u, v]], dtype=np.int64)
        )
        upd2 = fleet.update(
            graph2, upd1.result, upd1.state, delta2,
            max_dirty_fraction=1.0,
        )
        assert not upd2.fallback and upd2.dirty_shards == (p,)
        assert_exact(fleet, upd1.state, graph2, delta2, upd2)

    def test_cross_shard_delete_rejected(self, fleet, recorded):
        graph, result, state = recorded
        u, v = interior_edges(graph, state, 0)[0]
        # Lie about the partition: pretend v is interior to shard 1, so
        # the recorded state no longer matches the graph it claims to
        # describe — the router must refuse, not mis-splice.
        part_of = state.part_of.copy()
        part_of[v] = 1
        tampered = dataclasses.replace(state, part_of=part_of)
        delta = GraphDelta.from_edges(
            deletions=np.array([[u, v]], dtype=np.int64)
        )
        with pytest.raises(IslandizationError, match="crosses shard"):
            fleet.update(graph, result, tampered, delta)

    def test_empty_effective_delta_rebinds(self, fleet, recorded):
        graph, result, state = recorded
        u, v = interior_edges(graph, state, 0)[0]
        es = set(graph.edge_keys().tolist())
        n = graph.num_nodes
        a = next(
            i for i in range(n)
            if i != u and u * n + i not in es and i * n + u not in es
        )
        delta = GraphDelta.from_edges(
            insertions=np.array([[u, v]], dtype=np.int64),   # present
            deletions=np.array([[u, a]], dtype=np.int64),    # absent
        )
        upd = fleet.update(graph, result, state, delta)
        assert not upd.fallback
        assert upd.dirty_shards == ()
        assert upd.dirty_nodes == 0 and upd.region_nodes == 0
        assert upd.result.equals(result)
        assert upd.state is state


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------


class TestFallbacks:
    def test_all_shards_dirty_falls_back(self, fleet, recorded):
        graph, result, state = recorded
        pairs = [
            absent_pair(graph, state.shard_nodes[p], state.shard_nodes[p])
            for p in range(state.num_shards)
        ]
        delta = GraphDelta.from_edges(
            insertions=np.array(pairs, dtype=np.int64)
        )
        upd = fleet.update(
            graph, result, state, delta, max_dirty_fraction=0.0
        )
        assert upd.fallback
        assert "dirty shards cover 3/3 shards" in upd.fallback_reason
        assert upd.dirty_shards == (0, 1, 2)
        assert_exact(fleet, state, graph, delta, upd)

    def test_th0_move_falls_back_after_partition_evolution(self):
        # A delta that both moves the quantile TH0 *and* inserts a
        # cross-shard edge: the fallback must re-record against the
        # evolved partition (endpoints promoted), or the re-recorded
        # islands would straddle shard interiors and fail validation.
        cfg = LocatorConfig(
            th0=None, th0_quantile=0.75, partitions=3, incremental=True
        )
        graph = random_graph(np.random.default_rng(23), 300, 5)
        with ShardFleet(cfg) as fleet:
            result, state = fleet.record(graph)
            cu, cv = absent_pair(
                graph, state.shard_nodes[0], state.shard_nodes[1]
            )
            es = set(graph.edge_keys().tolist())
            n = graph.num_nodes
            # Densify: a few absent ring edges per node lift (almost)
            # every degree, dragging the quantile TH0 upward.
            extra = []
            for off in (1, 2, 3):
                for i in range(n):
                    j = (i + off) % n
                    u, v = min(i, j), max(i, j)
                    if u * n + v not in es:
                        es.add(u * n + v)
                        extra.append([u, v])
            delta = GraphDelta.from_edges(
                insertions=np.array([[cu, cv]] + extra, dtype=np.int64)
            )
            mutated = graph.apply_delta(delta)
            assert (
                int(cfg.initial_threshold(mutated.degrees)) != state.th0
            )  # the construction really moves TH0
            upd = fleet.update(
                graph, result, state, delta, max_dirty_fraction=1.0
            )
            assert upd.fallback
            assert "threshold moved" in upd.fallback_reason
            assert upd.state.part_of[cu] == -1  # evolved before fallback
            assert upd.state.part_of[cv] == -1
            assert_exact(fleet, state, graph, delta, upd)


# ----------------------------------------------------------------------
# partitions=1 bit-identity + serialization
# ----------------------------------------------------------------------


class TestExactness:
    def test_partitions_one_is_bit_identical_to_monolithic(self):
        graph = random_graph(np.random.default_rng(29), 200, 5)
        one = LocatorConfig(th0=8, partitions=1, incremental=True)
        plain = LocatorConfig(th0=8, incremental=True)
        r1, s1 = record_islandization(graph, one)
        r2, s2 = record_islandization(graph, plain)
        assert type(s1) is IncrementalState and type(s2) is IncrementalState
        assert r1.equals(r2)
        assert s1.th0 == s2.th0
        for field in _STATE_FIELDS + ("comp_labels",):
            a, b = getattr(s1, field), getattr(s2, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        delta = GraphDelta.from_edges(
            deletions=np.stack(
                [graph.edge_keys()[:2] // graph.num_nodes,
                 graph.edge_keys()[:2] % graph.num_nodes], axis=1
            )
        )
        u1 = update_islandization(graph, r1, s1, delta, one)
        u2 = update_islandization(graph, r2, s2, delta, plain)
        assert u1.result.equals(u2.result)

    def test_state_npz_round_trip_and_dispatch(self, fleet, recorded):
        graph, result, state = recorded
        buf = io.BytesIO()
        state.to_npz(buf)
        payload = buf.getvalue()
        loaded = PartitionedIncrementalState.from_npz(io.BytesIO(payload))
        buf2 = io.BytesIO()
        loaded.to_npz(buf2)
        assert buf2.getvalue() == payload  # byte-identical round trip
        # load_ilstate dispatches on the format tag for both flavours.
        assert isinstance(
            load_ilstate(io.BytesIO(payload)), PartitionedIncrementalState
        )
        mono_buf = io.BytesIO()
        _, mono_state = record_islandization(
            graph, LocatorConfig(th0=8, incremental=True)
        )
        mono_state.to_npz(mono_buf)
        mono_buf.seek(0)
        assert isinstance(load_ilstate(mono_buf), IncrementalState)
        with pytest.raises(IslandizationError, match="format"):
            bad = io.BytesIO()
            from repro.serialize import write_npz
            write_npz(bad, {"x": np.zeros(1)}, {"format": 99})
            bad.seek(0)
            load_ilstate(bad)

    def test_round_tripped_state_still_updates(self, fleet, recorded):
        graph, result, state = recorded
        buf = io.BytesIO()
        state.to_npz(buf)
        buf.seek(0)
        loaded = PartitionedIncrementalState.from_npz(buf)
        u, v = absent_pair(graph, state.shard_nodes[2], state.shard_nodes[2])
        delta = GraphDelta.from_edges(
            insertions=np.array([[u, v]], dtype=np.int64)
        )
        upd = fleet.update(
            graph, result, loaded, delta, max_dirty_fraction=1.0
        )
        assert not upd.fallback and upd.dirty_shards == (2,)
        assert_exact(fleet, loaded, graph, delta, upd)


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineWiring:
    def test_partitioned_update_chains_and_persists(self, tmp_path):
        graph = random_graph(np.random.default_rng(31), 240, 5)
        cfg = LocatorConfig(th0=8, partitions=2, incremental=True)
        with Engine(locator=cfg, cache_dir=str(tmp_path)) as engine:
            result, state = engine.islandization_state(graph)
            assert isinstance(state, PartitionedIncrementalState)
            u, v = absent_pair(
                graph, state.shard_nodes[0], state.shard_nodes[0]
            )
            delta = GraphDelta.from_edges(
                insertions=np.array([[u, v]], dtype=np.int64)
            )
            upd = engine.update(graph, delta, max_dirty_fraction=1.0)
            assert upd.dirty_shards == (0,)
            misses = engine.cache_stats()["ilstate"].misses
            upd2 = engine.update(
                upd.result.graph,
                GraphDelta.from_edges(
                    deletions=np.array([[u, v]], dtype=np.int64)
                ),
                max_dirty_fraction=1.0,
            )
            assert engine.cache_stats()["ilstate"].misses == misses
            assert upd2.dirty_shards == (0,)
        # A fresh engine reloads the partitioned state from disk
        # through the dispatching ilstate codec.
        with Engine(locator=cfg, cache_dir=str(tmp_path)) as warm:
            warm_result, warm_state = warm.islandization_state(graph)
            assert warm.cache_stats()["ilstate"].misses == 0
            assert warm_result.equals(result)
            assert isinstance(warm_state, PartitionedIncrementalState)
            assert np.array_equal(warm_state.part_of, state.part_of)
