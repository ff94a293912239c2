"""Tests for the tiered artifact store: serialization round-trips,
disk/memory/tiered stores, warm-started engines, and parallel sweeps
sharing the disk tier."""

from __future__ import annotations

import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import LocatorConfig
from repro.core.islandizer import islandize
from repro.core.types import ROUND_FIELDS, Island, IslandizationResult, LocatorWork, RoundStats
from repro.errors import IslandizationError
from repro.graph import CSRGraph, load_dataset
from repro.graph.datasets import Dataset
from repro.models import build_workload, gcn_model
from repro.models.workload import Workload
from repro.runtime import (
    MISS,
    DiskStore,
    Engine,
    MemoryStore,
    TieredStore,
)
from repro.serialize import config_digest, read_npz, write_npz


@pytest.fixture(scope="module")
def small_cora():
    return load_dataset("cora", scale=0.15, seed=3)


@pytest.fixture(scope="module")
def islandization(small_cora):
    return islandize(small_cora.graph.without_self_loops())


def assert_bytes_identical(a: np.ndarray, b: np.ndarray) -> None:
    """Byte-identity: dtype, shape and raw buffer all equal."""
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# npz helpers + config digests
# ----------------------------------------------------------------------
class TestSerializeHelpers:
    def test_write_read_roundtrip(self):
        buf = io.BytesIO()
        arrays = {"a": np.arange(5, dtype=np.int32), "b": np.zeros((0, 2))}
        write_npz(buf, arrays, {"answer": 42})
        buf.seek(0)
        loaded, meta = read_npz(buf)
        assert meta == {"answer": 42}
        for name in arrays:
            assert_bytes_identical(arrays[name], loaded[name])

    def test_extensionless_path_roundtrips(self, small_cora, tmp_path):
        # numpy.savez would silently write "<path>.npz"; write_npz must
        # honour the exact path so from_npz(path) finds the file.
        path = str(tmp_path / "graph.artifact")
        small_cora.graph.to_npz(path)
        assert (tmp_path / "graph.artifact").exists()
        from repro.graph import CSRGraph

        restored = CSRGraph.from_npz(path)
        assert restored.fingerprint() == small_cora.graph.fingerprint()

    def test_meta_key_reserved(self):
        from repro.serialize import META_KEY, SerializationError

        with pytest.raises(SerializationError):
            write_npz(io.BytesIO(), {META_KEY: np.zeros(1)}, {})

    def test_config_digest_stable_and_distinct(self):
        assert config_digest(LocatorConfig()) == config_digest(LocatorConfig())
        assert config_digest(LocatorConfig()) != config_digest(LocatorConfig(c_max=8))
        model = gcn_model(16, 4)
        assert config_digest(model) == config_digest(gcn_model(16, 4))
        assert config_digest(model) != config_digest(gcn_model(16, 4, variant="hy"))


# ----------------------------------------------------------------------
# Per-artifact round-trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_csr_graph(self, small_cora, tmp_path):
        graph = small_cora.graph
        path = str(tmp_path / "graph.npz")
        graph.to_npz(path)
        restored = CSRGraph.from_npz(path)
        assert_bytes_identical(graph.indptr, restored.indptr)
        assert_bytes_identical(graph.indices, restored.indices)
        assert restored.name == graph.name
        assert restored.fingerprint() == graph.fingerprint()

    def test_island(self, islandization):
        island = islandization.islands[0]
        buf = io.BytesIO()
        island.to_npz(buf)
        buf.seek(0)
        restored = Island.from_npz(buf)
        assert restored.round_id == island.round_id
        assert_bytes_identical(island.members, restored.members)
        assert_bytes_identical(island.hubs, restored.hubs)

    def test_round_stats(self, islandization):
        stats = islandization.rounds[0]
        buf = io.BytesIO()
        stats.to_npz(buf)
        buf.seek(0)
        assert RoundStats.from_npz(buf) == stats

    def test_locator_work(self, islandization):
        work = islandization.work
        buf = io.BytesIO()
        work.to_npz(buf)
        buf.seek(0)
        restored = LocatorWork.from_npz(buf)
        assert_bytes_identical(work.per_engine_scans, restored.per_engine_scans)
        for name in ("total_adjacency_fetches", "total_adjacency_bytes",
                     "total_detect_items", "total_bfs_scans"):
            assert getattr(restored, name) == getattr(work, name)

    def test_islandization_result(self, islandization, tmp_path):
        path = str(tmp_path / "isl.npz")
        islandization.to_npz(path)
        restored = IslandizationResult.from_npz(path)
        # Every numpy payload is byte-identical.
        assert_bytes_identical(islandization.graph.indptr, restored.graph.indptr)
        assert_bytes_identical(islandization.graph.indices, restored.graph.indices)
        assert_bytes_identical(islandization.hub_ids, restored.hub_ids)
        assert_bytes_identical(islandization.hub_round, restored.hub_round)
        assert_bytes_identical(islandization.interhub_edges, restored.interhub_edges)
        assert len(restored.islands) == len(islandization.islands)
        for a, b in zip(islandization.islands, restored.islands):
            assert a.round_id == b.round_id
            assert_bytes_identical(a.members, b.members)
            assert_bytes_identical(a.hubs, b.hubs)
        assert restored.rounds == islandization.rounds
        assert_bytes_identical(
            islandization.work.per_engine_scans, restored.work.per_engine_scans
        )
        # The restored result satisfies every islandization invariant and
        # produces the same layout (so downstream simulation is identical).
        assert restored.graph.fingerprint() == islandization.graph.fingerprint()
        restored.validate()
        np.testing.assert_array_equal(
            restored.island_permutation(), islandization.island_permutation()
        )

    @staticmethod
    def _decode_edited(islandization, edit):
        """Decode ``islandization``'s npz after ``edit(arrays)`` changed it."""
        buf = io.BytesIO()
        islandization.to_npz(buf)
        buf.seek(0)
        arrays, meta = read_npz(buf)
        arrays = {name: value.copy() for name, value in arrays.items()}
        edit(arrays)
        corrupt = io.BytesIO()
        write_npz(corrupt, arrays, meta)
        corrupt.seek(0)
        return IslandizationResult.from_npz(corrupt)

    @staticmethod
    def _island(islandization, *, members=1, hubs=0):
        """Index of the first island with at least that many of each."""
        return next(
            i for i, isl in enumerate(islandization.islands)
            if isl.num_members >= members and isl.num_hubs >= hubs
        )

    def test_islandization_rejects_member_listed_as_hub(self, islandization):
        # Overwrite the first hub of an island that has hubs with one
        # of that island's own members.
        idx = self._island(islandization, hubs=1)

        def edit(arrays):
            arrays["island_hubs_flat"][arrays["island_hub_offsets"][idx]] = (
                islandization.islands[idx].members[0]
            )

        with pytest.raises(IslandizationError, match="both member and hub"):
            self._decode_edited(islandization, edit)

    def test_islandization_rejects_member_of_two_islands(self, islandization):
        first = self._island(islandization)
        second = first + 1

        def edit(arrays):
            offsets = arrays["island_member_offsets"]
            members = arrays["island_members_flat"]
            members[offsets[second]] = members[offsets[first]]

        with pytest.raises(IslandizationError, match="member more than once"):
            self._decode_edited(islandization, edit)

    def test_islandization_rejects_member_listed_twice(self, islandization):
        idx = self._island(islandization, members=2)

        def edit(arrays):
            start = arrays["island_member_offsets"][idx]
            members = arrays["island_members_flat"]
            members[start + 1] = members[start]

        with pytest.raises(IslandizationError, match="member more than once"):
            self._decode_edited(islandization, edit)

    def test_islandization_rejects_hub_listed_twice(self, islandization):
        idx = self._island(islandization, hubs=2)

        def edit(arrays):
            start = arrays["island_hub_offsets"][idx]
            hubs = arrays["island_hubs_flat"]
            hubs[start + 1] = hubs[start]

        with pytest.raises(IslandizationError, match="hub more than once"):
            self._decode_edited(islandization, edit)

    @pytest.mark.parametrize("bogus", [-1, 10**9])
    def test_islandization_rejects_member_outside_the_graph(
        self, islandization, bogus
    ):
        def edit(arrays):
            arrays["island_members_flat"][0] = bogus

        with pytest.raises(IslandizationError, match="not a node id"):
            self._decode_edited(islandization, edit)

    def test_round_fields_cover_roundstats(self, islandization):
        row = islandization.rounds[0].as_row()
        assert tuple(row) == ROUND_FIELDS
        assert all(isinstance(v, int) for v in row.values())

    def test_dataset_with_features(self, tmp_path):
        ds = load_dataset("citeseer", scale=0.1, seed=5, with_features=True)
        path = str(tmp_path / "ds.npz")
        ds.to_npz(path)
        restored = Dataset.from_npz(path)
        assert restored.spec == ds.spec
        assert restored.scale == ds.scale
        assert restored.name == ds.name
        assert_bytes_identical(ds.graph.indptr, restored.graph.indptr)
        assert_bytes_identical(ds.graph.indices, restored.graph.indices)
        assert_bytes_identical(ds.community, restored.community)
        assert_bytes_identical(ds.labels, restored.labels)
        assert_bytes_identical(ds.features.data, restored.features.data)
        assert_bytes_identical(ds.features.indices, restored.features.indices)
        assert_bytes_identical(ds.features.indptr, restored.features.indptr)
        assert restored.features.shape == ds.features.shape
        assert restored.feature_nnz == ds.feature_nnz

    def test_dataset_without_features(self, small_cora, tmp_path):
        path = str(tmp_path / "ds.npz")
        small_cora.to_npz(path)
        restored = Dataset.from_npz(path)
        assert restored.features is None and restored.labels is None
        assert restored.graph.fingerprint() == small_cora.graph.fingerprint()

    def test_workload(self, small_cora, tmp_path):
        model = gcn_model(small_cora.num_features, small_cora.num_classes)
        workload = build_workload(
            small_cora.graph, model, feature_density=small_cora.feature_density
        )
        path = str(tmp_path / "wl.npz")
        workload.to_npz(path)
        assert Workload.from_npz(path) == workload


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class TestDiskStore:
    def test_put_get_each_kind(self, small_cora, islandization, tmp_path):
        store = DiskStore(tmp_path)
        model = gcn_model(small_cora.num_features, small_cora.num_classes)
        artifacts = {
            "dataset": small_cora,
            "islandization": islandization,
            "workload": build_workload(small_cora.graph, model),
            "summary": {"platform": "igcn", "latency_us": 1.5, "graphs_per_kj": None},
        }
        for kind, value in artifacts.items():
            assert store.get(kind, "k") is MISS
            store.put(kind, "k", value)
            assert store.get(kind, "k") is not MISS
        # Summaries survive exactly (JSON), key order included.
        assert store.get("summary", "k") == artifacts["summary"]
        assert list(store.get("summary", "k")) == list(artifacts["summary"])

    def test_report_kind_not_handled(self, tmp_path):
        store = DiskStore(tmp_path)
        assert not store.handles("report")
        store.put("report", "k", object())  # no-op, must not raise
        assert store.get("report", "k") is MISS

    def test_corrupt_file_degrades_to_miss(self, small_cora, tmp_path):
        store = DiskStore(tmp_path)
        store.put("dataset", "k", small_cora)
        path = store._path("dataset", "k")
        path.write_bytes(b"not an npz archive")
        assert store.get("dataset", "k") is MISS
        assert not path.exists()  # the broken file was evicted

    def test_keys_are_isolated_per_kind(self, small_cora, tmp_path):
        store = DiskStore(tmp_path)
        store.put("dataset", "same-key", small_cora)
        assert store.get("workload", "same-key") is MISS

    def test_clear_and_entries(self, small_cora, tmp_path):
        store = DiskStore(tmp_path)
        store.put("dataset", "a", small_cora)
        store.put("summary", "b", {"x": 1})
        entries = store.entries()
        assert entries["dataset"][0] == 1 and entries["summary"][0] == 1
        assert store.clear() == 2
        assert store.entries() == {}

    def test_orphaned_tmp_files_not_counted(self, small_cora, tmp_path):
        # A worker killed mid-put leaves a ".tmp-*" file behind; it must
        # not inflate entries()/clear() accounting (clear still removes it).
        store = DiskStore(tmp_path)
        store.put("dataset", "a", small_cora)
        orphan = tmp_path / "dataset" / ".tmp-abandoned.npz"
        orphan.write_bytes(b"partial write")
        assert store.entries()["dataset"][0] == 1
        assert store.clear() == 1
        assert not orphan.exists()


class TestEviction:
    """Size-bounded LRU-by-mtime eviction of the disk tier."""

    @staticmethod
    def _total_bytes(store: DiskStore) -> int:
        return sum(size for _, size in store.entries().values())

    def _populated(self, tmp_path, count=4):
        store = DiskStore(tmp_path)
        import os

        for i in range(count):
            store.put("summary", f"k{i}", {"row": i, "pad": "x" * 256})
            # Distinct, strictly increasing mtimes without sleeping.
            path = store._path("summary", f"k{i}")
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return store

    def test_evicts_oldest_first_down_to_budget(self, tmp_path):
        store = self._populated(tmp_path)
        sizes = [
            store._path("summary", f"k{i}").stat().st_size for i in range(4)
        ]
        budget = sizes[2] + sizes[3]  # room for exactly the newest two
        removed, freed = store.evict(budget)
        assert removed == 2
        assert freed == sizes[0] + sizes[1]
        assert not store._path("summary", "k0").exists()
        assert not store._path("summary", "k1").exists()
        assert store.get("summary", "k2") is not MISS
        assert store.get("summary", "k3") is not MISS
        assert self._total_bytes(store) <= budget

    def test_evict_zero_budget_clears_everything(self, tmp_path):
        store = self._populated(tmp_path)
        removed, _ = store.evict(0)
        assert removed == 4
        assert store.entries() == {}

    def test_evict_noop_when_under_budget(self, tmp_path):
        store = self._populated(tmp_path)
        assert store.evict(10_000_000) == (0, 0)
        assert store.entries()["summary"][0] == 4

    def test_evict_spans_kinds_by_age(self, tmp_path, small_cora):
        import os

        store = DiskStore(tmp_path)
        store.put("dataset", "old", small_cora)
        os.utime(store._path("dataset", "old"), (1, 1))
        store.put("summary", "new", {"row": 1})
        os.utime(store._path("summary", "new"), (2_000_000_000, 2_000_000_000))
        dataset_bytes = store._path("dataset", "old").stat().st_size
        removed, freed = store.evict(self._total_bytes(store) - 1)
        assert removed == 1 and freed == dataset_bytes
        assert store.get("dataset", "old") is MISS
        assert store.get("summary", "new") is not MISS

    def test_evict_rejects_negative_budget(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DiskStore(tmp_path).evict(-1)

    def test_evict_missing_root_is_noop(self, tmp_path):
        assert DiskStore(tmp_path / "absent").evict(0) == (0, 0)


class TestTieredStore:
    def test_lower_tier_hit_promotes(self, small_cora, tmp_path):
        memory, disk = MemoryStore(), DiskStore(tmp_path)
        tiered = TieredStore(memory, disk)
        disk.put("dataset", "k", small_cora)
        first = tiered.get("dataset", "k")
        assert first is not MISS
        # Promotion: the memory tier now answers without touching disk.
        assert memory.get("dataset", "k") is not MISS
        disk_stats = tiered.stats()["disk"]["dataset"]
        tiered.get("dataset", "k")
        assert tiered.stats()["disk"]["dataset"].total == disk_stats.total

    def test_put_writes_through_all_tiers(self, small_cora, tmp_path):
        memory, disk = MemoryStore(), DiskStore(tmp_path)
        TieredStore(memory, disk).put("dataset", "k", small_cora)
        assert memory.get("dataset", "k") is not MISS
        assert disk.get("dataset", "k") is not MISS

    def test_duplicate_tier_types_keep_separate_stats(self, small_cora, tmp_path):
        a, b = DiskStore(tmp_path / "a"), DiskStore(tmp_path / "b")
        tiered = TieredStore(a, b)
        b.put("dataset", "k", small_cora)
        tiered.get("dataset", "k")
        stats = tiered.stats()
        assert set(stats) == {"disk", "disk2"}
        assert stats["disk"]["dataset"].misses == 1   # tier a missed
        assert stats["disk2"]["dataset"].hits == 1    # tier b hit

    def test_unserializable_kind_stays_in_memory(self, tmp_path):
        tiered = TieredStore(MemoryStore(), DiskStore(tmp_path))
        marker = object()
        tiered.put("report", "k", marker)
        assert tiered.get("report", "k") is marker
        assert DiskStore(tmp_path).get("report", "k") is MISS


# ----------------------------------------------------------------------
# Engine over the store stack
# ----------------------------------------------------------------------
class TestEngineWarmStart:
    DATASETS = ("cora",)
    PLATFORMS = ("igcn", "awb")
    SWEEP = dict(scale=0.15, seed=3)

    def test_second_engine_zero_islandization_misses(self, tmp_path):
        cold = Engine(cache_dir=str(tmp_path))
        rows_cold = cold.sweep(self.DATASETS, self.PLATFORMS, **self.SWEEP)
        assert cold.cache_stats()["islandization"].misses == 1

        warm = Engine(cache_dir=str(tmp_path))
        rows_warm = warm.sweep(self.DATASETS, self.PLATFORMS, **self.SWEEP)
        stats = warm.cache_stats()
        # The acceptance criterion: the warm run re-islandizes nothing
        # (and in fact simulates nothing — summary rows come from disk).
        assert stats["islandization"].misses == 0
        assert stats["report"].total == 0
        assert stats["summary"].misses == 0
        assert stats["summary"].hits == len(rows_cold)
        assert rows_warm == rows_cold

    def test_warm_islandization_artifact_equivalent(self, small_cora, tmp_path):
        first = Engine(cache_dir=str(tmp_path))
        original = first.islandization(small_cora.graph)

        second = Engine(cache_dir=str(tmp_path))
        restored = second.islandization(small_cora.graph)
        stats = second.cache_stats()["islandization"]
        assert (stats.hits, stats.misses) == (1, 0)
        assert restored.num_islands == original.num_islands
        assert restored.num_hubs == original.num_hubs
        np.testing.assert_array_equal(restored.hub_ids, original.hub_ids)
        np.testing.assert_array_equal(
            restored.island_permutation(), original.island_permutation()
        )

    def test_warm_hit_lands_in_disk_tier(self, small_cora, tmp_path):
        Engine(cache_dir=str(tmp_path)).islandization(small_cora.graph)
        warm = Engine(cache_dir=str(tmp_path))
        warm.islandization(small_cora.graph)
        tiers = warm.tier_stats()
        assert tiers["memory"]["islandization"].hits == 0
        assert tiers["disk"]["islandization"].hits == 1

    def test_parallel_rows_match_serial_with_disk_tier(self, tmp_path):
        datasets = ("cora", "citeseer")
        serial = Engine(cache_dir=str(tmp_path / "serial")).sweep(
            datasets, self.PLATFORMS, **self.SWEEP
        )
        parallel = Engine(cache_dir=str(tmp_path / "parallel")).sweep(
            datasets, self.PLATFORMS, parallel=2, **self.SWEEP
        )
        assert parallel == serial

    def test_parallel_stats_propagated_and_disk_shared(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.sweep(("cora", "citeseer"), self.PLATFORMS, parallel=2, **self.SWEEP)
        stats = engine.cache_stats()
        # Worker deltas were folded back: the coordinating engine did no
        # work itself, yet the counters reflect the workers' computes.
        assert stats["islandization"].misses == 2
        assert stats["summary"].misses == 4

        again = Engine(cache_dir=str(tmp_path))
        again.sweep(("cora", "citeseer"), self.PLATFORMS, parallel=2, **self.SWEEP)
        warm = again.cache_stats()
        # Workers in the second run warm-start from the shared disk tier.
        assert warm["islandization"].misses == 0
        assert warm["summary"].hits == 4

    def test_locator_configs_do_not_collide_on_shared_disk(self, tmp_path):
        shared = str(tmp_path)
        default_rows = Engine(cache_dir=shared).sweep(
            self.DATASETS, ("igcn",), **self.SWEEP
        )
        tight = Engine(locator=LocatorConfig(c_max=4), cache_dir=shared)
        tight_rows = tight.sweep(self.DATASETS, ("igcn",), **self.SWEEP)
        # The tight-locator engine computed its own cell (no cross-config
        # hit) and its result matches a cold engine in a fresh directory.
        assert tight.cache_stats()["summary"].misses == 1
        fresh = Engine(locator=LocatorConfig(c_max=4)).sweep(
            self.DATASETS, ("igcn",), **self.SWEEP
        )
        assert tight_rows == fresh
        assert tight_rows != default_rows

    def test_baseline_rows_shared_across_locator_configs(self, tmp_path):
        # Baselines cannot depend on the locator; a second engine with a
        # different LocatorConfig must reuse their disk-cached rows.
        shared = str(tmp_path)
        Engine(cache_dir=shared).sweep(self.DATASETS, ("awb",), **self.SWEEP)
        other = Engine(locator=LocatorConfig(c_max=4), cache_dir=shared)
        other.sweep(self.DATASETS, ("awb",), **self.SWEEP)
        assert other.cache_stats()["summary"].misses == 0

    def test_consumer_configs_do_not_collide_on_shared_disk(self, tmp_path):
        # Engines with different consumer configs (here: k) must not
        # serve each other's igcn rows — the consumer digest is part of
        # the cell key; backend alone also digests differently.
        from repro.core import ConsumerConfig

        shared = str(tmp_path)
        Engine(cache_dir=shared).sweep(self.DATASETS, ("igcn",), **self.SWEEP)
        wide = Engine(consumer=ConsumerConfig(preagg_k=16), cache_dir=shared)
        wide.sweep(self.DATASETS, ("igcn",), **self.SWEEP)
        assert wide.cache_stats()["summary"].misses == 1

    def test_consumer_backends_share_no_summary_rows(self, tmp_path):
        # The two backends produce identical rows by contract, but a
        # shared store still must not mix them (cache hygiene: a row
        # must always have been computed by the config that keys it).
        from repro.core import ConsumerConfig

        shared = str(tmp_path)
        batched = Engine(cache_dir=shared)
        batched_rows = batched.sweep(self.DATASETS, ("igcn",), **self.SWEEP)
        scalar = Engine(
            consumer=ConsumerConfig(backend="scalar"), cache_dir=shared
        )
        scalar_rows = scalar.sweep(self.DATASETS, ("igcn",), **self.SWEEP)
        assert scalar.cache_stats()["summary"].misses == 1
        assert scalar_rows == batched_rows  # the equivalence contract

    def test_put_survives_concurrent_clear(self, small_cora, tmp_path, monkeypatch):
        # Simulate `repro cache clear` racing a worker's put(): the kind
        # directory vanishes mid-write; put retries and must not raise.
        import shutil
        import tempfile

        store = DiskStore(tmp_path)
        original_mkstemp = tempfile.mkstemp
        raced = []

        def racing_mkstemp(*args, **kwargs):
            if not raced:
                raced.append(True)
                shutil.rmtree(tmp_path / "dataset")
                raise FileNotFoundError("directory swept by clear()")
            return original_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.runtime.store.tempfile.mkstemp", racing_mkstemp)
        store.put("dataset", "k", small_cora)
        assert store.get("dataset", "k") is not MISS

    def test_memory_only_engine_never_touches_disk(self, small_cora, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        engine = Engine()
        engine.islandization(small_cora.graph)
        assert not (tmp_path / ".cache").exists()

    def test_explicit_store_stack_forwards_disk_tier_to_workers(self, tmp_path):
        # An engine built with store= (not cache_dir=) must still hand
        # its disk tier to parallel sweep workers.
        store = TieredStore(MemoryStore(), DiskStore(tmp_path))
        engine = Engine(store=store)
        assert engine._worker_cache_dir() == str(DiskStore(tmp_path).root)
        engine.sweep(self.DATASETS, self.PLATFORMS, parallel=2, **self.SWEEP)
        assert DiskStore(tmp_path).entries()["islandization"][0] == 1

        warm = Engine(cache_dir=str(tmp_path))
        warm.sweep(self.DATASETS, self.PLATFORMS, **self.SWEEP)
        assert warm.cache_stats()["islandization"].misses == 0

    def test_memory_only_store_gives_workers_no_disk(self):
        assert Engine()._worker_cache_dir() is None

    def test_disk_key_space_is_versioned(self, small_cora, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        store.put("dataset", "k", small_cora)
        monkeypatch.setattr(DiskStore, "VERSION", DiskStore.VERSION + 1)
        # A version bump invalidates old entries: they miss, not serve.
        assert store.get("dataset", "k") is MISS

    def test_clear_spares_shared_disk_tier_by_default(self, small_cora, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.islandization(small_cora.graph)
        engine.clear()
        # Memory tier and counters reset, but the shared disk tier —
        # possibly in use by other processes — survives.
        assert engine.cache_stats()["islandization"].total == 0
        assert DiskStore(tmp_path).entries()["islandization"][0] == 1
        engine.islandization(small_cora.graph)
        assert engine.cache_stats()["islandization"].hits == 1  # disk hit
        engine.clear(disk=True)
        assert DiskStore(tmp_path).entries() == {}

    def test_disk_store_creates_nothing_until_put(self, small_cora, tmp_path):
        root = tmp_path / "never-written"
        store = DiskStore(root)
        assert store.get("dataset", "k") is MISS
        assert store.entries() == {}
        assert store.clear() == 0
        assert not root.exists()  # read-only paths have no side effects
        store.put("dataset", "k", small_cora)
        assert root.exists()

    def test_store_and_cache_dir_mutually_exclusive(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="not both"):
            Engine(store=MemoryStore(), cache_dir=str(tmp_path))

    def test_summary_rows_are_copies(self, small_cora, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        row = engine.summary("awb", small_cora)
        row["latency_us"] = -1
        assert engine.summary("awb", small_cora)["latency_us"] != -1


class TestCLICacheCommands:
    def test_sweep_warm_start_and_cache_cli(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--datasets", "cora", "--platforms", "igcn", "awb",
                "--scale", "0.15", "--seed", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "islandizations computed 1" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "islandizations computed 0" in warm
        assert "summary rows reused 2 of 2" in warm

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stats = capsys.readouterr().out
        assert "islandization" in stats and "summary" in stats

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_evict_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--datasets", "cora", "--platforms", "igcn",
                     "--scale", "0.15", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        # A generous budget evicts nothing; zero evicts everything.
        assert main(["cache", "evict", "--max-size", "1G",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "evicted 0 artifacts" in capsys.readouterr().out
        assert main(["cache", "evict", "--max-size", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_evict_requires_max_size(self, capsys):
        from repro.cli import main

        assert main(["cache", "evict"]) == 2
        assert "max-size" in capsys.readouterr().err

    def test_cache_evict_rejects_bad_size(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["cache", "evict", "--max-size", "lots",
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "unparsable size" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["inf", "nan", "-1"])
    def test_cache_evict_rejects_non_finite_size(self, size, tmp_path, capsys):
        from repro.cli import main

        code = main(["cache", "evict", "--max-size", size,
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "non-negative finite" in capsys.readouterr().err

    def test_sweep_json_output_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rows.json"
        assert main(["sweep", "--datasets", "cora", "--platforms", "awb",
                     "--scale", "0.15", "--format", "json",
                     "--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["platform"] == "awb-gcn"
        assert "wrote 1 rows" in capsys.readouterr().out

    def test_unwritable_output_is_a_clean_cli_error(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--datasets", "cora", "--platforms", "awb",
                     "--scale", "0.15", "--output", "/nonexistent/rows.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_sweep_csv_stdout_keeps_stats_on_stderr(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--datasets", "cora", "--platforms", "awb",
                     "--scale", "0.15", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        header = captured.out.splitlines()[0]
        assert header.startswith("platform,graph,model,")
        assert "cache:" not in captured.out
        assert "cache:" in captured.err

    def test_env_var_enables_disk_cache(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--datasets", "cora", "--platforms", "igcn",
                "--scale", "0.15", "--seed", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "islandizations computed 0" in capsys.readouterr().out


class TestDiskVerify:
    """Integrity sweep: orphan/corruption detection and repair."""

    @pytest.fixture
    def seeded(self, small_cora, islandization, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.put("islandization", "isl-key", islandization)
        store.put("summary", "sum-key", {"latency_us": 1.0})
        return store

    def test_clean_store(self, seeded):
        report = seeded.verify()
        assert report.clean
        assert report.ok == 2
        assert report.removed == 0

    def test_classification_and_repair(self, seeded):
        root = seeded.root
        # Corrupt: well-named files whose codec rejects the contents.
        bad_json = root / "summary" / ("c" * 32 + ".json")
        bad_json.write_text("{truncated")
        bad_npz = root / "islandization" / ("d" * 32 + ".npz")
        bad_npz.write_bytes(b"PK\x03\x04 not a real archive")
        # Orphaned: tmp debris, non-digest names, unknown dirs, strays.
        (root / "islandization" / ".tmp-died").write_bytes(b"x")
        (root / "islandization" / "notadigest.npz").write_bytes(b"x")
        (root / "summary" / ("e" * 32 + ".npz")).write_bytes(b"x")
        (root / "unknown-kind").mkdir()
        (root / "unknown-kind" / "file.bin").write_bytes(b"x")
        (root / "stray.txt").write_text("x")

        report = seeded.verify()
        assert not report.clean
        assert report.ok == 2
        assert sorted(Path(p).name for p in report.corrupt) == [
            "c" * 32 + ".json", "d" * 32 + ".npz",
        ]
        assert len(report.orphaned) == 5
        assert report.removed == 0  # report-only by default

        repaired = seeded.verify(repair=True)
        assert repaired.removed == 7
        after = seeded.verify()
        assert after.clean
        assert after.ok == 2  # intact artifacts untouched
        assert seeded.get("summary", "sum-key") == {"latency_us": 1.0}

    def test_missing_root_is_clean(self, tmp_path):
        report = DiskStore(tmp_path / "never-created").verify()
        assert report.clean
        assert report.ok == 0

    def test_shard_codec_and_path_for(self, small_cora, tmp_path):
        from repro.graph import GraphShard
        from repro.graph.partition import partition_graph

        graph = small_cora.graph.without_self_loops()
        part = partition_graph(graph, 2)
        store = DiskStore(tmp_path / "store")
        for shard in part.shards:
            store.put("shard", f"s{shard.part_id}", shard)
            path = store.path_for("shard", f"s{shard.part_id}")
            assert path.exists()
            mapped = GraphShard.from_npz_mmap(str(path))
            assert np.array_equal(mapped.global_nodes, shard.global_nodes)
        assert store.verify().ok == len(part.shards)

    def test_path_for_unknown_kind(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DiskStore(tmp_path).path_for("nonsense", "key")

    def test_cache_verify_cli(self, tmp_path, capsys):
        from repro.cli import main

        store = DiskStore(tmp_path / "store")
        store.put("summary", "k", {"a": 1})
        argv = ["cache", "verify", "--cache-dir", str(store.root)]
        assert main(argv) == 0
        assert "1 artifacts intact" in capsys.readouterr().out

        (store.root / "stray.bin").write_bytes(b"x")
        assert main(argv) == 1
        assert "1 orphaned" in capsys.readouterr().out
        assert main(argv + ["--repair"]) == 0
        assert "removed 1 files" in capsys.readouterr().out
        assert main(argv) == 0

    def test_repair_flag_needs_verify(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--repair",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "only applies to cache verify" in capsys.readouterr().err


class TestDiskGC:
    """Reachability GC: stranded-artifact collection via the put index."""

    @pytest.fixture
    def seeded(self, islandization, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.put("islandization", "isl-key", islandization)
        store.put("summary", "sum-key", {"latency_us": 1.0})
        return store

    def test_clean_store_collects_nothing(self, seeded):
        report = seeded.gc()
        assert report.live == 2
        assert report.removed == []
        assert report.indexed
        assert seeded.get("summary", "sum-key") == {"latency_us": 1.0}

    def test_stranded_artifact_is_collected(self, seeded):
        # A well-named, decodable file that no current key addresses —
        # what a VERSION bump leaves behind.  verify() calls it intact;
        # gc() knows better.
        live = seeded._path("summary", "sum-key")
        stranded = live.parent / ("f" * 32 + ".json")
        stranded.write_bytes(live.read_bytes())
        assert seeded.verify().ok == 3  # verify cannot see the problem

        report = seeded.gc(dry_run=True)
        assert [Path(p).name for p in report.removed] == [stranded.name]
        assert report.removed_count == 0 and stranded.exists()

        report = seeded.gc()
        assert report.removed_count == 1
        assert not stranded.exists()
        assert report.live == 2
        assert seeded.get("islandization", "isl-key") is not MISS

    def test_shape_orphans_are_collected_too(self, seeded):
        root = seeded.root
        (root / "summary" / ".tmp-died").write_bytes(b"x")
        (root / "unknown-kind").mkdir()
        (root / "unknown-kind" / "file.bin").write_bytes(b"x")
        (root / "stray.txt").write_text("x")
        report = seeded.gc()
        assert len(report.removed) == 3
        assert report.live == 2
        assert seeded.verify().clean

    def test_legacy_store_swept_conservatively_then_adopted(self, seeded):
        # Deleting the index simulates a store written by an older
        # build: decodable artifacts must survive the first gc (which
        # adopts them); precision returns on the second.
        (seeded.root / "index.log").unlink()
        live = seeded._path("summary", "sum-key")
        stranded = live.parent / ("f" * 32 + ".json")
        stranded.write_bytes(live.read_bytes())

        first = seeded.gc()
        assert not first.indexed
        assert first.live == 3 and stranded.exists()  # conservative

        second = seeded.gc()
        assert second.indexed
        assert second.live == 3  # adopted: the copy is now reachable

    def test_full_clear_drops_index(self, seeded):
        seeded.clear()
        assert not (seeded.root / "index.log").exists()
        report = seeded.gc()
        assert report.live == 0 and report.removed == []

    def test_verify_spares_the_index(self, seeded):
        report = seeded.verify()
        assert report.clean  # index.log is not an orphan

    def test_gc_missing_root(self, tmp_path):
        report = DiskStore(tmp_path / "never-created").gc()
        assert report.live == 0 and report.removed == []

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.cli import main

        store = DiskStore(tmp_path / "store")
        store.put("summary", "k", {"a": 1})
        live = store._path("summary", "k")
        stranded = live.parent / ("e" * 32 + ".json")
        stranded.write_bytes(live.read_bytes())
        argv = ["cache", "gc", "--cache-dir", str(store.root)]

        assert main(argv + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 1 files" in out
        assert stranded.exists()

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 reachable artifacts" in out
        assert "removed 1 files" in out
        assert not stranded.exists()

    def test_dry_run_flag_needs_gc(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--dry-run",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "only applies to cache gc" in capsys.readouterr().err


class TestIndexLock:
    """Cross-process gc/put race: the advisory ``.index.lock``."""

    def test_put_creates_lockfile_and_sweeps_spare_it(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.put("summary", "k", {"x": 1})
        lock = store.root / ".index.lock"
        assert lock.exists()
        assert store.verify().clean          # not an orphan
        report = store.gc()
        assert report.removed == []
        assert lock.exists()                 # gc holds it, never dooms it
        assert store.entries()["summary"][0] == 1

    def test_two_stores_interleaved_on_one_root(self, tmp_path):
        # Two engine processes sharing one cache dir: puts from either
        # side interleaved with the other side's gc must never strand
        # or collect a just-published artifact.
        root = tmp_path / "shared"
        a, b = DiskStore(root), DiskStore(root)
        for i in range(4):
            a.put("summary", f"a{i}", {"from": "a", "i": i})
            b.put("summary", f"b{i}", {"from": "b", "i": i})
            report = (a if i % 2 else b).gc()
            assert report.removed == []
        assert a.gc(dry_run=True).removed == []
        for i in range(4):
            assert a.get("summary", f"b{i}") == {"from": "b", "i": i}
            assert b.get("summary", f"a{i}") == {"from": "a", "i": i}
        # One shared index saw every put exactly once.
        assert a.gc().live == 8

    def test_lock_excludes_concurrent_put(self, tmp_path):
        # The actual race: a sweep scanning while another store
        # publishes.  Holding the lock must block the other side's
        # put (publish + index append) until release.
        import threading

        fcntl = pytest.importorskip("fcntl")
        del fcntl
        root = tmp_path / "shared"
        holder, writer = DiskStore(root), DiskStore(root)
        holder.put("summary", "seed", {"x": 0})  # create the root + lock
        done = threading.Event()

        def blocked_put():
            writer.put("summary", "raced", {"x": 1})
            done.set()

        with holder._index_lock():
            t = threading.Thread(target=blocked_put)
            t.start()
            assert not done.wait(0.3)        # put is stuck on the lock
        t.join(timeout=10)
        assert done.is_set()                 # released -> put completed
        assert writer.get("summary", "raced") == {"x": 1}
        assert holder.gc().live == 2


class TestIndexCrashTolerance:
    """A crashed writer's torn index line degrades, never aborts."""

    @pytest.fixture
    def seeded(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.put("summary", "a", {"x": 1})
        store.put("summary", "b", {"x": 2})
        return store

    def test_garbled_bytes_skipped_with_warning(self, seeded):
        with open(seeded.root / "index.log", "ab") as fh:
            fh.write(b"\xff\xfe not even text\n")
        with pytest.warns(RuntimeWarning, match="corrupt index line"):
            report = seeded.gc(dry_run=True)
        assert report.live == 2 and report.removed == []

    def test_truncated_trailing_line_skipped(self, seeded):
        # SIGKILL mid-append: the last line is cut short.  It no longer
        # vouches for its artifact (gc forfeits that one entry, exactly
        # like the lockless put race) but the rest of the index — and
        # gc itself — must survive.
        index = seeded.root / "index.log"
        data = index.read_bytes()
        index.write_bytes(data[: len(data) - 8])
        with pytest.warns(RuntimeWarning, match="corrupt index line"):
            report = seeded.gc()
        assert report.live == 1 and report.removed_count == 1
        assert seeded.get("summary", "a") == {"x": 1}
        # The compaction healed the index: no warning the second time.
        assert seeded.gc().live == 1

    def test_compaction_heals_the_index(self, seeded):
        with open(seeded.root / "index.log", "ab") as fh:
            fh.write(b"\xffgarbage")
        with pytest.warns(RuntimeWarning):
            seeded.gc()
        report = seeded.gc()  # would re-warn if garbage survived
        assert report.live == 2

    def test_wrong_shape_lines_skipped(self, seeded):
        with open(seeded.root / "index.log", "a") as fh:
            fh.write("no-version-prefix summary/x.json\n")
            fh.write(f"v{DiskStore.VERSION} nonsense-without-slash\n")
            fh.write(f"v{DiskStore.VERSION} summary/not-a-digest.json\n")
        with pytest.warns(RuntimeWarning, match="skipped 3 corrupt"):
            report = seeded.gc(dry_run=True)
        assert report.live == 2

    def test_retired_kind_lines_are_not_corruption(self, seeded):
        # A cache written by a build with a kind this one no longer has
        # (e.g. the old "clean_graph" kind): its well-formed index lines
        # are not damage.  gc sweeps the files, then verify is clean.
        assert "retired" not in DiskStore.CODECS
        stale = seeded.root / "retired" / ("a" * 32 + ".npz")
        stale.parent.mkdir()
        stale.write_bytes(b"x")
        with open(seeded.root / "index.log", "a") as fh:
            fh.write(f"v{DiskStore.VERSION} retired/{stale.name}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert seeded.gc(dry_run=True).removed == [str(stale)]
            report = seeded.gc()
        assert report.removed_count == 1 and report.live == 2
        assert not stale.exists()
        assert seeded.verify().clean

    def test_old_version_lines_are_not_corruption(self, seeded):
        # Legacy lines are ignorable history, not damage: no warning.
        with open(seeded.root / "index.log", "a") as fh:
            fh.write("v0 summary/aaaa.json\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = seeded.gc(dry_run=True)
        assert report.live == 2

    def test_cache_gc_cli_survives_corruption(self, seeded, capsys):
        from repro.cli import main

        with open(seeded.root / "index.log", "ab") as fh:
            fh.write(b"\xff\xfe torn\n")
        with pytest.warns(RuntimeWarning):
            assert main(["cache", "gc", "--cache-dir",
                         str(seeded.root)]) == 0
        assert "2 reachable artifacts" in capsys.readouterr().out


class TestGCLockRefusal:
    """Destructive gc without the advisory lock refuses, not sweeps."""

    @pytest.fixture
    def lockless(self, tmp_path, monkeypatch):
        import repro.runtime.store as store_mod

        monkeypatch.setattr(store_mod, "fcntl", None)
        store = DiskStore(tmp_path / "store")
        store.put("summary", "k", {"x": 1})
        return store

    def test_destructive_sweep_refused(self, lockless):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="refusing destructive gc"):
            lockless.gc()
        assert lockless.get("summary", "k") == {"x": 1}

    def test_dry_run_and_force_still_work(self, lockless):
        assert lockless.gc(dry_run=True).live == 1
        report = lockless.gc(force=True)
        assert report.live == 1 and not report.dry_run

    def test_missing_root_never_refuses(self, tmp_path, monkeypatch):
        import repro.runtime.store as store_mod

        monkeypatch.setattr(store_mod, "fcntl", None)
        report = DiskStore(tmp_path / "absent").gc()
        assert report.live == 0

    def test_cli_refusal_and_force(self, lockless, capsys):
        from repro.cli import main

        argv = ["cache", "gc", "--cache-dir", str(lockless.root)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "refusing destructive gc" in err and "--force" in err
        assert main(argv + ["--dry-run"]) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        assert "1 reachable artifacts" in capsys.readouterr().out

    def test_force_flag_needs_gc(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--force",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "only applies to cache gc" in capsys.readouterr().err
