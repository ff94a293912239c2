"""The island table: its operations, its stored format, and the batched
paths that never build an ``Island`` object."""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig
from repro.core.islandizer import islandize
from repro.core.islandizer_incremental import (
    record_islandization,
    update_islandization,
)
from repro.core.types import Island, IslandizationResult, IslandTable
from repro.eval.bench_incremental import (
    _TH0,
    churn_delta,
    incremental_bench_graph,
)
from repro.eval.bench_locator import bench_graph
from repro.graph import load_dataset
from repro.models import gcn_model
from repro.serialize import read_npz


@pytest.fixture
def table():
    return IslandTable.from_arrays(
        [1, 1, 2], [[3, 4], [5], [6, 7, 8]], [[0], [], [1, 2]]
    )


def _rows(table):
    return [
        (isl.round_id, isl.members.tolist(), isl.hubs.tolist())
        for isl in table
    ]


class TestIslandTable:
    def test_rows_are_island_values(self, table):
        assert len(table) == 3
        assert _rows(table) == [
            (1, [3, 4], [0]), (1, [5], []), (2, [6, 7, 8], [1, 2]),
        ]
        assert table[-1].members.tolist() == [6, 7, 8]
        assert table.num_members.tolist() == [2, 1, 3]
        assert table.num_hubs.tolist() == [1, 0, 2]
        assert table.first_members.tolist() == [3, 5, 6]
        with pytest.raises(IndexError):
            table[3]

    def test_slice_rebases_offsets(self, table):
        tail = table[1:]
        assert tail.member_offsets.tolist() == [0, 1, 4]
        assert tail.hub_offsets.tolist() == [0, 0, 2]
        assert _rows(tail) == _rows(table)[1:]
        assert len(table[2:2]) == 0
        assert _rows(table[::2]) == _rows(table)[::2]

    def test_take_concat_singletons_relabel(self, table):
        assert _rows(table.take([2, 0])) == [
            (2, [6, 7, 8], [1, 2]), (1, [3, 4], [0]),
        ]
        single = IslandTable.singletons(3, np.array([9, 10]))
        both = IslandTable.concat([table, single])
        assert _rows(both) == _rows(table) + [(3, [9], []), (3, [10], [])]
        assert both.equals(IslandTable.concat([table[:1], table[1:], single]))
        assert len(IslandTable.concat([])) == 0
        renamed = table.relabel(np.arange(11) + 100)
        assert renamed.members.tolist() == [103, 104, 105, 106, 107, 108]
        assert not renamed.equals(table)


def _archive_digest(obj) -> str:
    """Digest of every decoded archive member and of the metadata.

    Each member contributes its name, dtype, shape and bytes, so the
    digest pins the stored format but not the zip headers, which carry
    write times.
    """
    buf = io.BytesIO()
    obj.to_npz(buf)
    buf.seek(0)
    arrays, meta = read_npz(buf)
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    digest.update(json.dumps(meta, sort_keys=True).encode())
    return digest.hexdigest()[:16]


#: Archives written before the island table existed: the result (and,
#: for the incremental chain, the recorded state) of each case.  The
#: state digests leave out the three per-island columns the state no
#: longer stores (the island table holds them); every other array is
#: unchanged.
_STORED_DIGESTS = {
    "bench-1e4": "257387f4a6b78097",
    "cora": "b34d5be9d1313ac0",
    "cora-scalar": "b34d5be9d1313ac0",
    "reddit-0.05": "9e16f094adde9d22",
    "bench-1e4-p4": "0a9ad934a08c0043",
    "incr-0": "f0dd10eea084ba8d",
    "incr-0-state": "f4347232a7c0a94a",
    "incr-1": "0c8b80dab0869dfb",
    "incr-1-state": "51b16b5cf6e43390",
    "incr-2": "6297ecec8307f9bc",
    "incr-2-state": "d599760fe25d6f71",
    "incr-3": "ac910a3bf1126a8f",
    "incr-3-state": "a57ee4f6f84b3acf",
}


class TestStoredFormat:
    """Results archive exactly as before the locator kept a table."""

    def test_locator_archives(self):
        graph = bench_graph("1e4")
        cora = load_dataset("cora").graph.without_self_loops()
        reddit = load_dataset("reddit", scale=0.05).graph.without_self_loops()
        got = {
            "bench-1e4": _archive_digest(islandize(graph)),
            "cora": _archive_digest(islandize(cora)),
            "cora-scalar": _archive_digest(
                islandize(cora, LocatorConfig(backend="scalar"))
            ),
            "reddit-0.05": _archive_digest(islandize(reddit)),
            "bench-1e4-p4": _archive_digest(
                islandize(graph, LocatorConfig(partitions=4))
            ),
        }
        assert got == {name: _STORED_DIGESTS[name] for name in got}

    def test_incremental_chain_archives(self):
        config = LocatorConfig(th0=_TH0, c_max=64, decay=0.5, incremental=True)
        graph = incremental_bench_graph(max_edges=60_000)
        result, state = record_islandization(graph, config)
        got = {
            "incr-0": _archive_digest(result),
            "incr-0-state": _archive_digest(state),
        }
        rng = np.random.default_rng(11)
        for step, k in enumerate((10, 30, 100), 1):
            delta = churn_delta(graph, rng, k, _TH0)
            upd = update_islandization(graph, result, state, delta, config)
            assert not upd.fallback, upd.fallback_reason
            graph, result, state = upd.result.graph, upd.result, upd.state
            got[f"incr-{step}"] = _archive_digest(result)
            got[f"incr-{step}-state"] = _archive_digest(state)
        assert got == {name: _STORED_DIGESTS[name] for name in got}


@pytest.fixture
def island_count(monkeypatch):
    """Count every ``Island`` built, by either constructor."""
    count = [0]
    init = Island.__init__
    trusted = Island.from_trusted_arrays.__func__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args, **kwargs):
        count[0] += 1
        return trusted(cls, *args, **kwargs)

    monkeypatch.setattr(Island, "__init__", counting_init)
    monkeypatch.setattr(
        Island, "from_trusted_arrays", classmethod(counting_trusted)
    )
    return count


class TestObjectFree:
    """Batched inference and decoding never build an ``Island``."""

    def test_counter_sees_iteration(self, island_count):
        islands = islandize(bench_graph("1e3")).islands
        assert island_count[0] == 0
        list(islands)
        assert island_count[0] == len(islands) > 0

    @pytest.mark.parametrize("pipeline", ["streamed", "event"])
    def test_batched_run_and_decode(self, island_count, pipeline):
        graph = bench_graph("1e4")
        model = gcn_model(16, 4)
        accelerator = IGCNAccelerator(
            consumer=ConsumerConfig(pipeline=pipeline)
        )
        report = accelerator.run(graph, model)
        buf = io.BytesIO()
        report.islandization.to_npz(buf)
        buf.seek(0)
        decoded = IslandizationResult.from_npz(buf)
        replay = accelerator.run(graph, model, islandization=decoded)
        assert replay.total_macs == report.total_macs
        assert island_count[0] == 0
