"""Tests for incremental islandization: delta-driven maintenance.

The load-bearing contract is *exact equivalence*: on every tested
delta — random edit chains, hub creation/destruction, island
merges/splits, fallbacks — the incrementally maintained result must
satisfy ``IslandizationResult.equals`` against a from-scratch run on
the mutated graph, and the refreshed :class:`IncrementalState` must
match a fresh recording field for field (so the *next* delta starts
from the same place either way).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core import LocatorConfig
from repro.core.islandizer import islandize
from repro.core.islandizer_incremental import (
    IncrementalState,
    record_islandization,
    update_islandization,
)
from repro.errors import ConfigError
from repro.graph import CSRGraph, GraphBuilder
from repro.graph.csr import GraphDelta
from repro.runtime import DiskStore, Engine

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def random_graph(rng, n, avg_deg):
    k = n * avg_deg // 2
    rows = rng.integers(0, n, k)
    cols = rng.integers(0, n, k)
    keep = rows != cols
    return CSRGraph.from_edges(n, rows[keep], cols[keep], name="rnd")


def random_delta(rng, graph, k_ins, k_del):
    """Random insertions + deletions (disjoint undirected pairs)."""
    n = graph.num_nodes
    ins = []
    while len(ins) < k_ins:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            ins.append((u, v))
    ekeys = graph.edge_keys()
    dels = []
    if len(ekeys) and k_del:
        pick = rng.choice(len(ekeys), size=min(k_del, len(ekeys)),
                          replace=False)
        seen = set()
        for key in ekeys[pick]:
            u, v = int(key) // n, int(key) % n
            edge = (min(u, v), max(u, v))
            if edge not in seen:
                seen.add(edge)
                dels.append(edge)
    dset = set(dels)
    ins = [e for e in ins if (min(e), max(e)) not in dset]
    return GraphDelta.from_edges(
        insertions=np.asarray(ins, dtype=np.int64).reshape(-1, 2),
        deletions=np.asarray(dels, dtype=np.int64).reshape(-1, 2),
    )


def canon(labels):
    """Canonicalize component labels by first occurrence.

    The incremental path relabels dirty components with fresh ids, so
    raw label values differ from a fresh recording; the partition they
    induce must not.
    """
    out = np.full(len(labels), -1, np.int64)
    first: dict[int, int] = {}
    for i, v in enumerate(labels.tolist()):
        if v < 0:
            continue
        if v not in first:
            first[v] = len(first)
        out[i] = first[v]
    return out


_STATE_FIELDS = (
    "log_hubs", "log_seeds", "log_scans", "log_fetches", "log_bytes",
    "log_outcomes", "log_offsets", "class_round", "winner_hubs",
)


def assert_state_fresh(state, graph, config):
    """The refreshed state must equal a fresh recording of ``graph``."""
    _, fresh = record_islandization(graph, config)
    assert state.th0 == fresh.th0
    for field in _STATE_FIELDS:
        assert np.array_equal(getattr(state, field), getattr(fresh, field)), field
    assert np.array_equal(canon(state.comp_labels), canon(fresh.comp_labels))


def check_update(graph, result, state, delta, config, **kwargs):
    """One delta step: equals + state freshness; returns the new triple."""
    upd = update_islandization(graph, result, state, delta, config, **kwargs)
    mutated = graph.apply_delta(delta)
    scratch = islandize(mutated, config)
    assert upd.result.equals(scratch)
    assert_state_fresh(upd.state, mutated, config)
    return mutated, upd


# ----------------------------------------------------------------------
# Random edit chains (both backends)
# ----------------------------------------------------------------------


class TestRandomEditChains:
    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    @pytest.mark.parametrize("trial", range(8))
    def test_chained_deltas_stay_exact(self, backend, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(20, 120))
        graph = random_graph(rng, n, int(rng.integers(2, 8)))
        config = LocatorConfig(
            backend=backend, th0=int(rng.integers(3, 9)),
            c_max=int(rng.integers(4, 40)), incremental=True,
        )
        result, state = record_islandization(graph, config)
        assert result.equals(islandize(graph, config))
        for _ in range(4):
            delta = random_delta(
                rng, graph, int(rng.integers(1, 6)), int(rng.integers(0, 6))
            )
            graph, upd = check_update(graph, result, state, delta, config)
            result, state = upd.result, upd.state

    def test_interleaved_heavy_churn(self):
        # Bigger single deltas than the chain test: many simultaneous
        # dirty components, island merges and splits in one step.
        rng = np.random.default_rng(77)
        graph = random_graph(rng, 300, 5)
        config = LocatorConfig(th0=6, c_max=32, incremental=True)
        result, state = record_islandization(graph, config)
        for _ in range(3):
            delta = random_delta(rng, graph, 25, 25)
            graph, upd = check_update(graph, result, state, delta, config)
            result, state = upd.result, upd.state

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_large_cap_walks_in_updates(self, backend, monkeypatch):
        # The graph's giant component is far above a cap of 600, so
        # every update's sub-run sends the batched backend's tasks
        # through the over-c_max walker.
        from repro.core import islandizer_incremental, tp_bfs_batched

        walks = {"all": 0, "update": 0}
        real_walk = tp_bfs_batched._run_walk_edgewise
        real_sub = islandizer_incremental._run_sub

        def counting_walk(*args):
            walks["all"] += 1
            return real_walk(*args)

        def counting_sub(*args):
            before = walks["all"]
            rounds = real_sub(*args)
            walks["update"] += walks["all"] - before
            return rounds

        monkeypatch.setattr(tp_bfs_batched, "_run_walk_edgewise", counting_walk)
        monkeypatch.setattr(islandizer_incremental, "_run_sub", counting_sub)
        rng = np.random.default_rng(3)
        graph = random_graph(rng, 3000, 3)
        config = LocatorConfig(
            backend=backend, th0=9, c_max=600, incremental=True
        )
        result, state = record_islandization(graph, config)
        for _ in range(3):
            delta = random_delta(rng, graph, 5, 5)
            graph, upd = check_update(graph, result, state, delta, config,
                                      max_dirty_fraction=1.0)
            result, state = upd.result, upd.state
            assert not upd.fallback
            assert sum(r.tasks_dropped_cmax for r in result.rounds) > 0
        if backend == "batched":
            assert walks["update"] > 0
        else:
            assert walks["all"] == 0


# ----------------------------------------------------------------------
# Targeted structural edits
# ----------------------------------------------------------------------


class TestStructuralEdits:
    def _fixture(self):
        # Two 4-cliques bridged through a 6-leaf star hub: th0=5 makes
        # node 0 the only initial hub.
        builder = GraphBuilder(15)
        builder.add_star(0, range(1, 7))
        builder.add_clique([7, 8, 9, 10])
        builder.add_clique([11, 12, 13, 14])
        builder.add_edge(0, 7)
        builder.add_edge(0, 11)
        graph = builder.build()
        config = LocatorConfig(th0=5, c_max=16, incremental=True)
        return graph, config

    def _step(self, graph, config, insertions=None, deletions=None):
        result, state = record_islandization(graph, config)
        delta = GraphDelta.from_edges(
            insertions=np.asarray(insertions or [], dtype=np.int64).reshape(-1, 2),
            deletions=np.asarray(deletions or [], dtype=np.int64).reshape(-1, 2),
        )
        # On a 15-node fixture any edit dirties most of the graph;
        # disable the fraction heuristic so the splice path itself runs.
        return check_update(graph, result, state, delta, config,
                            max_dirty_fraction=1.0)

    def test_island_merge(self):
        graph, config = self._fixture()
        _, upd = self._step(graph, config, insertions=[(7, 11)])
        assert not upd.fallback
        assert upd.dirty_nodes > 0

    def test_island_split(self):
        graph, config = self._fixture()
        merged = graph.apply_delta(GraphDelta.from_edges(
            insertions=np.array([[7, 11]], dtype=np.int64)
        ))
        result, state = record_islandization(merged, config)
        delta = GraphDelta.from_edges(
            deletions=np.array([[7, 11]], dtype=np.int64)
        )
        check_update(merged, result, state, delta, config,
                     max_dirty_fraction=1.0)

    def test_hub_creation(self):
        graph, config = self._fixture()
        # Node 7 (degree 4) gains edges until it crosses th0=5.
        _, upd = self._step(
            graph, config, insertions=[(7, 12), (7, 13)]
        )
        assert not upd.fallback

    def test_hub_destruction(self):
        graph, config = self._fixture()
        # The star hub loses leaves and drops below th0.
        _, upd = self._step(
            graph, config, deletions=[(0, 1), (0, 2), (0, 3)]
        )
        assert not upd.fallback

    def test_empty_effective_delta_rebinds_graph(self):
        graph, config = self._fixture()
        result, state = record_islandization(graph, config)
        # Inserting an existing edge is effect-free after dedup.
        delta = GraphDelta.from_edges(
            insertions=np.array([[7, 8]], dtype=np.int64)
        )
        upd = update_islandization(graph, result, state, delta, config)
        assert upd.dirty_nodes == 0 and upd.region_nodes == 0
        # The island table is reused as is; the graph is the mutated one.
        assert upd.result.islands is result.islands
        assert upd.result.graph.num_edges == graph.num_edges


# ----------------------------------------------------------------------
# Fallback paths
# ----------------------------------------------------------------------


class TestFallbacks:
    def test_dirty_fraction_fallback_is_still_exact(self):
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 80, 4)
        config = LocatorConfig(th0=5, incremental=True)
        result, state = record_islandization(graph, config)
        delta = random_delta(rng, graph, 3, 3)
        upd = update_islandization(
            graph, result, state, delta, config, max_dirty_fraction=0.0
        )
        assert upd.fallback
        assert "dirty region" in upd.fallback_reason
        mutated = graph.apply_delta(delta)
        assert upd.result.equals(islandize(mutated, config))
        assert_state_fresh(upd.state, mutated, config)

    def test_th0_quantile_move_falls_back(self):
        # A quantile-derived TH0 moves when enough degrees change: the
        # round-1 decomposition is void and the update must rebuild.
        # Four 6-cliques put every degree at 5 (quantile -> TH0 5);
        # four cross-clique edges lift 8 nodes to degree 6, dragging
        # the 0.75-quantile (and TH0) to 6.
        builder = GraphBuilder(24)
        for c in range(4):
            builder.add_clique(list(range(6 * c, 6 * c + 6)))
        graph = builder.build()
        config = LocatorConfig(th0=None, th0_quantile=0.75, incremental=True)
        result, state = record_islandization(graph, config)
        assert state.th0 == 5
        delta = GraphDelta.from_edges(
            insertions=np.array([[0, 6], [1, 7], [2, 8], [3, 9]],
                                dtype=np.int64)
        )
        upd = update_islandization(
            graph, result, state, delta, config, max_dirty_fraction=1.0
        )
        assert upd.fallback
        assert "threshold moved" in upd.fallback_reason
        mutated = graph.apply_delta(delta)
        assert upd.result.equals(islandize(mutated, config))
        assert_state_fresh(upd.state, mutated, config)

    def test_partitions_dispatch(self, rng):
        # partitions > 1 no longer rejects: record/update dispatch to
        # the shard-routed implementation and hand back the partitioned
        # state flavour (its behaviour is pinned by test_pincremental).
        from repro.core.islandizer_pincremental import (
            PartitionedIncrementalState,
            PartitionedIncrementalUpdate,
        )

        graph = random_graph(rng, 120, 5)
        config = LocatorConfig(partitions=2, incremental=True)
        result, state = record_islandization(graph, config)
        assert isinstance(state, PartitionedIncrementalState)
        result.validate()
        delta = random_delta(rng, graph, 2, 2)
        upd = update_islandization(
            graph, result, state, delta, config, max_dirty_fraction=1.0
        )
        assert isinstance(upd, PartitionedIncrementalUpdate)


# ----------------------------------------------------------------------
# State serialization
# ----------------------------------------------------------------------


class TestStateSerialization:
    def test_npz_round_trip(self, rng):
        graph = random_graph(rng, 60, 4)
        config = LocatorConfig(th0=5, incremental=True)
        _, state = record_islandization(graph, config)
        buf = io.BytesIO()
        state.to_npz(buf)
        buf.seek(0)
        loaded = IncrementalState.from_npz(buf)
        assert loaded.th0 == state.th0
        for field in _STATE_FIELDS + ("comp_labels",):
            assert np.array_equal(getattr(loaded, field), getattr(state, field))

    def test_round_tripped_state_still_updates(self, rng):
        graph = random_graph(rng, 60, 4)
        config = LocatorConfig(th0=5, incremental=True)
        result, state = record_islandization(graph, config)
        buf = io.BytesIO()
        state.to_npz(buf)
        buf.seek(0)
        state = IncrementalState.from_npz(buf)
        delta = random_delta(rng, graph, 3, 3)
        check_update(graph, result, state, delta, config)


# ----------------------------------------------------------------------
# Engine + store wiring
# ----------------------------------------------------------------------


class TestEngineWiring:
    def _graph(self):
        rng = np.random.default_rng(9)
        return random_graph(rng, 100, 5)

    def test_islandization_routes_incremental_configs(self):
        graph = self._graph()
        config = LocatorConfig(th0=6, incremental=True)
        engine = Engine(locator=config)
        result = engine.islandization(graph)
        pair_result, state = engine.islandization_state(graph)
        assert pair_result is result
        assert isinstance(state, IncrementalState)
        # One recording produced both kinds: one miss each, then hits.
        stats = engine.cache_stats()
        assert stats["ilstate"].misses == 1
        assert stats["islandization"].misses == 1

    def test_islandization_state_requires_flag(self):
        engine = Engine(locator=LocatorConfig(th0=6))
        with pytest.raises(ConfigError):
            engine.islandization_state(self._graph())

    def test_update_chains_without_recomputing(self):
        graph = self._graph()
        config = LocatorConfig(th0=6, incremental=True)
        engine = Engine(locator=config)
        rng = np.random.default_rng(21)
        upd = engine.update(graph, random_delta(rng, graph, 4, 4))
        assert upd.result.equals(islandize(upd.result.graph, config))
        misses_before = engine.cache_stats()["ilstate"].misses
        upd2 = engine.update(upd.result.graph, random_delta(rng, graph, 3, 3))
        # The chained update found its pair in the store: no re-record.
        assert engine.cache_stats()["ilstate"].misses == misses_before
        assert upd2.result.equals(islandize(upd2.result.graph, config))

    def test_ilstate_persists_through_disk_tier(self, tmp_path):
        graph = self._graph()
        config = LocatorConfig(th0=6, incremental=True)
        first = Engine(locator=config, cache_dir=str(tmp_path))
        result, state = first.islandization_state(graph)
        warm = Engine(locator=config, cache_dir=str(tmp_path))
        warm_result, warm_state = warm.islandization_state(graph)
        assert warm.cache_stats()["ilstate"].misses == 0
        assert warm_result.equals(result)
        for field in _STATE_FIELDS + ("comp_labels",):
            assert np.array_equal(
                getattr(warm_state, field), getattr(state, field)
            )

    def test_plain_and_incremental_configs_do_not_collide(self, tmp_path):
        # The incremental flag is in the digest: a plain engine must
        # not serve (or be served) the recording pair's entries.
        graph = self._graph()
        store = DiskStore(tmp_path)
        inc = Engine(locator=LocatorConfig(th0=6, incremental=True),
                     store=store)
        inc.islandization(graph)
        plain = Engine(locator=LocatorConfig(th0=6), store=store)
        plain.islandization(graph)
        assert plain.cache_stats()["islandization"].misses == 1


# ----------------------------------------------------------------------
# Bench suite + CLI
# ----------------------------------------------------------------------


def _churn_delta_oracle(graph, rng, k, th0):
    """``churn_delta``'s per-edit loop: the same batched draws, scanned
    one edit at a time (the vectorization oracle)."""
    n = graph.num_nodes
    nonhub = graph.degrees < th0
    indptr, indices = graph.indptr, graph.indices
    ekeys = graph.edge_keys()
    eset = set(ekeys.tolist())
    k_ins = k // 2
    k_del = k - k_ins
    ins, seen = [], set()
    attempts = 0
    budget = 50 * k_ins + 1_000
    while len(ins) < k_ins:
        assert attempts < budget
        b = min(budget - attempts, max(256, 2 * (k_ins - len(ins))))
        attempts += b
        u_batch = rng.integers(0, n, size=b)
        r1 = rng.random(b)
        r2 = rng.random(b)
        for i in range(b):
            if len(ins) >= k_ins:
                break
            u = int(u_batch[i])
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            if hi == lo:
                continue
            nbrs = indices[lo:hi]
            local = nbrs[nonhub[nbrs]]
            pool = local if len(local) else nbrs
            v = int(pool[int(r1[i] * len(pool))])
            lo2, hi2 = int(indptr[v]), int(indptr[v + 1])
            if hi2 == lo2:
                continue
            w = int(indices[lo2 + int(r2[i] * (hi2 - lo2))])
            key = min(u, w) * n + max(u, w)
            if w == u or key in eset or key in seen:
                continue
            seen.add(key)
            ins.append((u, w))
    pick = rng.choice(len(ekeys), size=min(4 * k_del, len(ekeys)),
                      replace=False)
    dels = []
    for key in ekeys[pick]:
        if len(dels) >= k_del:
            break
        u, v = int(key) // n, int(key) % n
        canon = min(u, v) * n + max(u, v)
        if canon in seen:
            continue
        seen.add(canon)
        dels.append((u, v))
    assert len(dels) == k_del
    return GraphDelta.from_edges(
        insertions=np.asarray(ins, dtype=np.int64).reshape(-1, 2),
        deletions=np.asarray(dels, dtype=np.int64).reshape(-1, 2),
    )


class TestBenchAndCLI:
    def test_churn_delta_rejects_tiny_graphs(self):
        from repro.eval.bench_incremental import churn_delta

        graph = GraphBuilder(4).add_clique([0, 1, 2, 3]).build()
        with pytest.raises(ConfigError):
            churn_delta(graph, np.random.default_rng(0), 1000, 16)

    @pytest.mark.parametrize("k", [10, 200])
    def test_churn_delta_vectorized_matches_oracle(self, k):
        # The vectorized candidate extraction consumes the same batched
        # draws as the original per-edit loop: identical generator
        # state in, byte-identical delta out.
        from repro.eval.bench_incremental import churn_delta

        rng = np.random.default_rng(5)
        graph = random_graph(rng, 600, 8)
        for th0 in (4, 16):
            vec = churn_delta(graph, np.random.default_rng(11), k, th0)
            orc = _churn_delta_oracle(
                graph, np.random.default_rng(11), k, th0
            )
            for field in ("insert_src", "insert_dst",
                          "delete_src", "delete_dst"):
                a, b = getattr(vec, field), getattr(orc, field)
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_bench_smoke_record(self, tmp_path):
        from repro.eval.bench_incremental import run_incremental_bench

        record = run_incremental_bench(
            tiers=("1e1",), repeats=1, max_edges=2_000
        )
        (row,) = record["tiers"]
        assert row["equal"] is True
        assert row["delta_edges"] == 10
        assert record["config"]["max_edges"] == 2_000
        assert record["benchmark"] == "locator-incremental"

    def test_bench_cli_smoke(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "incr.json"
        assert main([
            "bench", "incremental", "--tiers", "1e1", "--repeats", "1",
            "--max-edges", "2000", "--output", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert all(r["equal"] for r in record["tiers"])
        # No speedup assertion: at smoke scale the win is sub-ms noise.
        assert f"wrote {out}" in capsys.readouterr().out

    def test_bench_cli_rejects_partition_knobs(self, capsys):
        from repro.cli import main

        assert main(["bench", "incremental", "--partitions", "8"]) == 2
        assert "only applies to the partition and pincr suites" in (
            capsys.readouterr().err
        )
        assert main(["bench", "locator", "--delta-seed", "3"]) == 2
        assert "only applies to the incremental and pincr suites" in (
            capsys.readouterr().err
        )

    def test_islandize_delta_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import load_dataset

        ds = load_dataset("cora", scale=0.15, seed=3)
        graph = ds.graph.without_self_loops()
        u = 0
        v = int(graph.neighbors(0)[0])
        delta = GraphDelta.from_edges(
            deletions=np.array([[u, v]], dtype=np.int64)
        )
        path = tmp_path / "delta.npz"
        delta.to_npz(str(path))
        assert main([
            "islandize", "--dataset", "cora", "--scale", "0.15",
            "--seed", "3", "--th0", "8", "--delta", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "delta:" in out
        assert "dirty" in out
