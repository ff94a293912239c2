"""The streamed pipeline's exact-equivalence and overlap contracts.

Three guarantees (ISSUE 5 / §3.1.1, Fig. 3):

* the locator's streaming interface is the *implementation* of the
  monolithic one — draining :meth:`IslandLocator.stream` (or replaying
  :meth:`IslandizationResult.iter_rounds`) reproduces the exact same
  result, for both Th3 backends;
* a streamed inference is byte-identical to a staged one — islands,
  per-layer counts, DRAM traffic, ring/cache statistics, and
  functional outputs — under both locator and consumer backends, live
  or replayed from a cached islandization;
* only the overlap model differs: staged cycles are the strict
  back-to-back sum, streamed cycles the measured release/work
  makespan, strictly below staged whenever the locator spends cycles.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    ConsumerConfig,
    IGCNAccelerator,
    IslandConsumer,
    IslandLocator,
    LocatorConfig,
    TaskMemo,
)
from repro.core.consumer import execution_mismatch
from repro.core.interhub import build_interhub_plan
from repro.errors import ConfigError
from repro.graph import hub_island_graph, load_dataset
from repro.graph.generators import CommunityProfile
from repro.hw.memory import TrafficMeter
from repro.models import build_model, gcn_model
from repro.models.reference import normalization_for
from repro.serialize import config_digest

BACKENDS = ("batched", "scalar")


@pytest.fixture(scope="module")
def stream_graph():
    """A multi-round hub-and-island graph (self-loop-free)."""
    graph, _ = hub_island_graph(
        400,
        CommunityProfile(
            hub_fraction=0.05,
            island_size_mean=7.0,
            island_density=0.8,
            hub_attach_prob=0.7,
            background_fraction=0.02,
        ),
        seed=3,
    )
    return graph.without_self_loops()


def _accelerator(locator_backend, consumer_backend, pipeline):
    return IGCNAccelerator(
        locator=LocatorConfig(backend=locator_backend),
        consumer=ConsumerConfig(backend=consumer_backend, pipeline=pipeline),
    )


# ----------------------------------------------------------------------
# Locator streaming protocol
# ----------------------------------------------------------------------
class TestLocatorStream:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_drain_equals_run(self, stream_graph, backend):
        config = LocatorConfig(backend=backend)
        direct = IslandLocator(config).run(stream_graph)
        stream = IslandLocator(config).stream(stream_graph)
        chunks = []
        while True:
            try:
                chunks.append(next(stream))
            except StopIteration as stop:
                streamed = stop.value
                break
        assert direct.equals(streamed)
        assert len(chunks) == streamed.num_rounds

    def test_round_outputs_partition_islands(self, stream_graph):
        chunks = []
        result = IslandLocator().run(stream_graph, on_round=chunks.append)
        flattened = [isl for chunk in chunks for isl in chunk.islands]
        # Same objects, same order: the chunks are slices of the result.
        assert [id(i) for i in flattened] == [id(i) for i in result.islands]
        for chunk in chunks:
            assert chunk.stats is result.rounds[chunk.round_id - 1]
            for island in chunk.islands:
                assert island.round_id == chunk.round_id
        hub_ids = np.concatenate([c.new_hub_ids for c in chunks])
        assert np.array_equal(hub_ids, result.hub_ids)

    def test_iter_rounds_replays_live_stream(self, stream_graph):
        live_chunks = []
        result = IslandLocator().run(stream_graph, on_round=live_chunks.append)
        replayed = list(result.iter_rounds())
        assert len(replayed) == len(live_chunks)
        for live, replay in zip(live_chunks, replayed):
            assert replay.round_id == live.round_id
            assert replay.stats == live.stats
            assert replay.first_island_id == live.first_island_id
            assert [id(i) for i in replay.islands] == [
                id(i) for i in live.islands
            ]
            assert np.array_equal(replay.new_hub_ids, live.new_hub_ids)

    def test_callback_sees_rounds_in_order(self, stream_graph):
        seen = []
        IslandLocator().run(
            stream_graph, on_round=lambda c: seen.append(c.round_id)
        )
        assert seen == sorted(seen)
        assert seen[0] == 1


# ----------------------------------------------------------------------
# Chunked consumer execution (unit level)
# ----------------------------------------------------------------------
class TestChunkedConsumer:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("functional", (False, True))
    def test_chunked_equals_monolithic(self, stream_graph, backend, functional):
        result = IslandLocator().run(stream_graph)
        norm = normalization_for(stream_graph, "gcn-sym")
        plan = build_interhub_plan(result, add_self_loops=norm.add_self_loops)
        model = gcn_model(12, 4)
        layer = model.layers[0]
        rng = np.random.default_rng(0)
        x = (
            rng.normal(size=(stream_graph.num_nodes, layer.in_dim))
            if functional else None
        )
        w = (
            rng.normal(size=(layer.in_dim, layer.out_dim))
            if functional else None
        )

        whole = IslandConsumer(ConsumerConfig(backend=backend))
        tasks = whole.prepare(result, add_self_loops=norm.add_self_loops)
        meter_a = TrafficMeter()
        exec_a = whole.run_layer(
            result, tasks, plan, norm, layer,
            layer_index=0, meter=meter_a, x=x, w=w,
        )

        chunked = IslandConsumer(ConsumerConfig(backend=backend))
        chunks = [
            chunked.prepare_chunk(
                stream_graph, ro.islands, add_self_loops=norm.add_self_loops
            )
            for ro in result.iter_rounds()
        ]
        meter_b = TrafficMeter()
        chunk_work: list[int] = []
        exec_b = chunked.run_layer_chunked(
            result, chunks, plan, norm, layer,
            layer_index=0, meter=meter_b, x=x, w=w, chunk_work=chunk_work,
        )
        assert execution_mismatch(
            exec_a, meter_a, exec_b, meter_b, functional=functional
        ) is None
        assert whole.ring.stats == chunked.ring.stats
        # The measured per-round work tallies cover the layer's
        # aggregation MACs exactly (inter-hub work excluded: it only
        # runs once the locator has finished).
        assert len(chunk_work) == result.num_rounds
        assert sum(chunk_work) == exec_b.counts.scan.total_ops * layer.out_dim


# ----------------------------------------------------------------------
# End-to-end: streamed vs staged
# ----------------------------------------------------------------------
class TestStreamedEquivalence:
    @pytest.mark.parametrize("locator_backend", BACKENDS)
    @pytest.mark.parametrize("consumer_backend", BACKENDS)
    def test_counts_traffic_identical(
        self, stream_graph, locator_backend, consumer_backend
    ):
        model = gcn_model(16, 4)
        staged = _accelerator(
            locator_backend, consumer_backend, "staged"
        ).run(stream_graph, model)
        streamed = _accelerator(
            locator_backend, consumer_backend, "streamed"
        ).run(stream_graph, model)
        assert staged.islandization.equals(streamed.islandization)
        assert staged.layers == streamed.layers
        assert staged.meter.reads == streamed.meter.reads
        assert staged.meter.writes == streamed.meter.writes
        assert staged.locator_cycles == streamed.locator_cycles
        assert staged.consumer_cycles == streamed.consumer_cycles

    @pytest.mark.parametrize("consumer_backend", BACKENDS)
    def test_functional_outputs_byte_identical(self, tiny_cora, consumer_backend):
        model = gcn_model(tiny_cora.num_features, tiny_cora.num_classes)
        reports = {
            pipeline: _accelerator("batched", consumer_backend, pipeline).run(
                tiny_cora.graph, model,
                functional=True, features=tiny_cora.features,
            )
            for pipeline in ("staged", "streamed")
        }
        a, b = reports["staged"], reports["streamed"]
        assert a.outputs.dtype == b.outputs.dtype
        assert a.outputs.tobytes() == b.outputs.tobytes()
        assert a.layers == b.layers

    def test_replayed_cache_equals_live_stream(self, stream_graph):
        """A cached islandization must replay to the same streamed report."""
        model = gcn_model(16, 4)
        accelerator = _accelerator("batched", "batched", "streamed")
        live = accelerator.run(stream_graph, model)
        cached = accelerator.run(
            stream_graph, model,
            islandization=IslandLocator().run(stream_graph),
        )
        assert live.layers == cached.layers
        assert live.total_cycles == cached.total_cycles
        assert live.meter.reads == cached.meter.reads


class TestOverlapModel:
    def test_streamed_strictly_below_staged(self, stream_graph):
        model = gcn_model(16, 4)
        staged = _accelerator("batched", "batched", "staged").run(
            stream_graph, model
        )
        streamed = _accelerator("batched", "batched", "streamed").run(
            stream_graph, model
        )
        assert streamed.total_cycles < staged.total_cycles
        assert streamed.overlap_saved_cycles > 0.0
        assert staged.overlap_saved_cycles == 0.0

    def test_staged_is_sum_of_phases(self, stream_graph):
        model = gcn_model(16, 4)
        report = _accelerator("batched", "batched", "staged").run(
            stream_graph, model
        )
        assert report.total_cycles == pytest.approx(
            report.locator_cycles + report.consumer_cycles
            + IGCNAccelerator.PIPELINE_FILL_CYCLES
        )
        assert report.pipeline == "staged"

    def test_streamed_bounded_by_phases(self, stream_graph):
        model = gcn_model(16, 4)
        report = _accelerator("batched", "batched", "streamed").run(
            stream_graph, model
        )
        fill = IGCNAccelerator.PIPELINE_FILL_CYCLES
        assert report.pipeline == "streamed"
        assert report.total_cycles >= max(
            report.consumer_cycles, report.locator_cycles
        ) + fill
        assert report.total_cycles <= (
            report.locator_cycles + report.consumer_cycles + fill
        )

    def test_degenerate_graph_modes_agree(self):
        from repro.graph import CSRGraph

        model = gcn_model(4, 2)
        graph = CSRGraph.empty(0)
        staged = _accelerator("batched", "batched", "staged").run(graph, model)
        streamed = _accelerator("batched", "batched", "streamed").run(
            graph, model
        )
        assert staged.total_cycles == streamed.total_cycles


# ----------------------------------------------------------------------
# Task chunks reused across runs (TaskMemo)
# ----------------------------------------------------------------------
def _model(spec, ds):
    family, _, variant = spec.partition(":")
    kwargs = {"variant": variant} if variant else {}
    return build_model(family, ds.num_features, ds.num_classes, **kwargs)


def _assert_same_report(a, b):
    assert a.base_summary() == b.base_summary()
    assert a.layers == b.layers
    assert a.meter.reads == b.meter.reads
    assert a.meter.writes == b.meter.writes
    assert (a.staged_cycles, a.streamed_cycles, a.total_cycles) == (
        b.staged_cycles, b.streamed_cycles, b.total_cycles
    )
    assert (a.island_p50_us, a.island_p99_us) == (
        b.island_p50_us, b.island_p99_us
    )
    if a.outputs is None:
        assert b.outputs is None
    else:
        assert a.outputs.dtype == b.outputs.dtype
        assert a.outputs.tobytes() == b.outputs.tobytes()


def _record_chunks(monkeypatch, dead=()):
    """Weak references to every chunk ``prepare_chunk`` assembles.

    Every call first checks that the chunks referenced by ``dead`` (a
    list the test may refill) are already unreachable.
    """
    made: list = []
    assemble = IslandConsumer.prepare_chunk

    def recording(self, *args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in dead)
        chunk = assemble(self, *args, **kwargs)
        made.append(weakref.ref(chunk))
        return chunk

    monkeypatch.setattr(IslandConsumer, "prepare_chunk", recording)
    return made


class TestTaskMemo:
    #: gcn, gcn:hy and graphsage aggregate over A+I and gin over A.  In
    #: this order the memo serves every run after the first with
    #: batched chunks (the first gin derives the A variant), and the
    #: 2nd, 3rd and 5th with scalar task lists.
    SEQUENCE = ("gcn", "gcn:hy", "graphsage", "gin", "gin")
    HITS = {
        "batched": (False, True, True, True, True),
        "scalar": (False, True, True, False, True),
    }

    @pytest.mark.parametrize("functional", (False, True))
    @pytest.mark.parametrize("pipeline", ("streamed", "staged", "event"))
    @pytest.mark.parametrize("consumer_backend", BACKENDS)
    def test_memo_run_equals_fresh_run(
        self, tiny_cora, consumer_backend, pipeline, functional
    ):
        accelerator = _accelerator("batched", consumer_backend, pipeline)
        result = accelerator.islandize(tiny_cora.graph)
        memo = TaskMemo()
        hits_expected = self.HITS[consumer_backend]
        for spec, hit in zip(self.SEQUENCE, hits_expected):
            model = _model(spec, tiny_cora)
            kwargs = dict(
                feature_density=tiny_cora.feature_density,
                islandization=result,
            )
            if functional:
                kwargs.update(functional=True, features=tiny_cora.features)
            hits = memo.stats.hits
            served = accelerator.run(
                tiny_cora.graph, model, task_memo=memo, **kwargs
            )
            assert memo.stats.hits == hits + hit, spec
            fresh = accelerator.run(tiny_cora.graph, model, **kwargs)
            _assert_same_report(served, fresh)
        served_runs = sum(hits_expected)
        assert (memo.stats.hits, memo.stats.misses) == (
            served_runs, len(self.SEQUENCE) - served_runs
        )

    def test_live_run_never_touches_memo(self, stream_graph, monkeypatch):
        made = _record_chunks(monkeypatch)
        memo = TaskMemo()
        accelerator = _accelerator("batched", "batched", "streamed")
        accelerator.run(stream_graph, gcn_model(16, 4), task_memo=memo)
        assert (memo.stats.hits, memo.stats.misses) == (0, 0)
        gc.collect()
        assert made and all(ref() is None for ref in made)

    def test_other_islandization_never_gets_the_entry(
        self, stream_graph, tiny_cora, monkeypatch
    ):
        # A miss drops the old entry before it assembles the new one.
        dead: list = []
        made = _record_chunks(monkeypatch, dead)
        model = gcn_model(16, 4)
        accelerator = _accelerator("batched", "batched", "streamed")
        first = accelerator.islandize(stream_graph)
        memo = TaskMemo()
        accelerator.run(stream_graph, model, islandization=first, task_memo=memo)
        first_chunks = list(made)
        assert len(first_chunks) == first.num_rounds
        # Another locator config on the same graph, then the next dataset.
        others = [
            (stream_graph, IGCNAccelerator(
                locator=LocatorConfig(c_max=4)
            ).islandize(stream_graph)),
            (tiny_cora.graph, accelerator.islandize(tiny_cora.graph)),
        ]
        for graph, result in others:
            before = len(made)
            dead[:] = first_chunks
            served = accelerator.run(
                graph, model, islandization=result, task_memo=memo
            )
            dead.clear()
            # A miss: this islandization's rounds were all assembled.
            assert len(made) - before == result.num_rounds
            _assert_same_report(
                served, accelerator.run(graph, model, islandization=result)
            )
            first_chunks = made[before:before + result.num_rounds]
        assert (memo.stats.hits, memo.stats.misses) == (0, 3)

    def test_backend_is_part_of_the_key(self, stream_graph):
        model = gcn_model(16, 4)
        result = IslandLocator().run(stream_graph)
        memo = TaskMemo()
        for backend in ("batched", "scalar", "batched"):
            accelerator = _accelerator("batched", backend, "streamed")
            served = accelerator.run(
                stream_graph, model, islandization=result, task_memo=memo
            )
            _assert_same_report(
                served,
                accelerator.run(stream_graph, model, islandization=result),
            )
        assert (memo.stats.hits, memo.stats.misses) == (0, 3)


# ----------------------------------------------------------------------
# Cache-key separation
# ----------------------------------------------------------------------
class TestPipelineCaching:
    def test_pipeline_mode_changes_config_digest(self):
        assert config_digest(
            ConsumerConfig(pipeline="streamed")
        ) != config_digest(ConsumerConfig(pipeline="staged"))

    def test_engine_cell_keys_distinct(self):
        from repro.runtime import Engine

        ds = load_dataset("cora", scale=0.05)
        model = gcn_model(ds.num_features, ds.num_classes)
        keys = {
            pipeline: Engine(
                consumer=ConsumerConfig(pipeline=pipeline)
            )._cell_key("igcn", ds.graph, model, 1.0)
            for pipeline in ("streamed", "staged")
        }
        assert keys["streamed"] != keys["staged"]

    def test_engine_reports_per_mode(self):
        from repro.runtime import Engine

        ds = load_dataset("cora", scale=0.05)
        by_mode = {}
        for pipeline in ("streamed", "staged"):
            engine = Engine(consumer=ConsumerConfig(pipeline=pipeline))
            by_mode[pipeline] = engine.simulate("igcn", ds)
        assert (
            by_mode["streamed"].total_cycles < by_mode["staged"].total_cycles
        )
        # Everything but the overlap model is identical.
        assert by_mode["streamed"].layers == by_mode["staged"].layers

    def test_invalid_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            ConsumerConfig(pipeline="overlapped")
