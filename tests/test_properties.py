"""Property-based tests (hypothesis) on core invariants.

These are the load-bearing guarantees of the reproduction:

* islandization is a *partition* with exact edge coverage on arbitrary
  graphs, for arbitrary locator parameters;
* the window-scan reuse path is numerically identical to the plain
  per-edge aggregation for arbitrary bitmaps, widths, and boundaries;
* reorderings always emit permutations;
* the pipeline makespan is sandwiched between its lower bounds;
* the discrete-event refinement is sandwiched between the streamed and
  staged models and conserves the consumer's work exactly;
* the vectorized CSR clean, dedup and inter-hub expansion equal the
  rebuild- and loop-based references they replaced.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig, islandize
from repro.core.event_sim import simulate_events, validate_trace
from repro.core.interhub import build_interhub_plan
from repro.core.preagg import scan_aggregate, scan_costs
from repro.core.pipeline import pipelined_makespan, streamed_schedule
from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.reorder import get_reordering, reordering_names
from repro.models import gcn_model


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes=40, max_edges=120):
    """Arbitrary undirected graphs without self-loops."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=m,
            max_size=m,
        )
    )
    rows = [u for u, v in pairs if u != v]
    cols = [v for u, v in pairs if u != v]
    return CSRGraph.from_edges(
        n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    )


@st.composite
def entry_lists(draw, max_nodes=40, max_entries=120):
    """``(n, rows, cols)`` entry lists with duplicates and diagonals."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_entries,
        )
    )
    rows = np.asarray([u for u, _ in pairs], dtype=np.int64)
    cols = np.asarray([v for _, v in pairs], dtype=np.int64)
    return n, rows, cols


def _rebuild_without_self_loops(graph):
    """The clean as a rebuild: ``from_edges`` on the off-diagonal entries."""
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    keep = rows != graph.indices
    return CSRGraph.from_edges(
        graph.num_nodes, rows[keep], graph.indices[keep], name=graph.name,
        symmetrize=False,
    )


def _loop_interhub_edges(edges):
    """Per-pair loop expansion: each pair, then its mirror unless diagonal."""
    directed = []
    for u, v in edges.tolist():
        directed.append((u, v))
        if u != v:
            directed.append((v, u))
    return (
        np.asarray(directed, dtype=np.int64).reshape(-1, 2)
        if directed
        else np.zeros((0, 2), dtype=np.int64)
    )


@st.composite
def bitmaps(draw, max_rows=10, max_cols=14):
    """Arbitrary boolean bitmaps with a feature matrix."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    flat = draw(
        st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)
    )
    bitmap = np.asarray(flat, dtype=bool).reshape(rows, cols)
    k = draw(st.integers(2, 8))
    boundary = draw(st.integers(0, cols))
    return bitmap, k, boundary


# ----------------------------------------------------------------------
# Islandization invariants
# ----------------------------------------------------------------------
class TestIslandizationProperties:
    @given(graph=graphs(), cmax=st.integers(1, 20), decay=st.floats(0.3, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_coverage(self, graph, cmax, decay):
        config = LocatorConfig(c_max=cmax, decay=decay)
        result = islandize(graph, config)
        result.validate()  # partition + closure + exact edge coverage

    @given(graph=graphs())
    @settings(max_examples=40, deadline=None)
    def test_island_sizes_respect_cmax(self, graph):
        config = LocatorConfig(c_max=5)
        result = islandize(graph, config)
        assert all(i.num_members <= 5 for i in result.islands)

    @given(graph=graphs())
    @settings(max_examples=40, deadline=None)
    def test_permutation_is_bijection(self, graph):
        result = islandize(graph)
        perm = result.island_permutation()
        assert np.array_equal(np.sort(perm), np.arange(graph.num_nodes))

    @given(graph=graphs())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, graph):
        a = islandize(graph)
        b = islandize(graph)
        assert a.num_islands == b.num_islands
        assert np.array_equal(a.hub_ids, b.hub_ids)


# ----------------------------------------------------------------------
# Window-scan properties
# ----------------------------------------------------------------------
class TestScanProperties:
    @given(case=bitmaps())
    @settings(max_examples=100, deadline=None)
    def test_scan_aggregate_lossless(self, case):
        bitmap, k, boundary = case
        rng = np.random.default_rng(bitmap.sum())
        xw = rng.normal(size=(bitmap.shape[1], 3))
        acc, _ = scan_aggregate(bitmap, k, xw, boundary=boundary)
        assert np.allclose(acc, bitmap.astype(float) @ xw, atol=1e-10)

    @given(case=bitmaps())
    @settings(max_examples=100, deadline=None)
    def test_scan_never_exceeds_baseline(self, case):
        bitmap, k, boundary = case
        counts = scan_costs(bitmap, k, boundary=boundary)
        assert counts.scan_ops <= counts.baseline_ops
        assert counts.baseline_ops == int(bitmap.sum())

    @given(case=bitmaps())
    @settings(max_examples=60, deadline=None)
    def test_functional_and_counting_agree(self, case):
        bitmap, k, boundary = case
        xw = np.ones((bitmap.shape[1], 2))
        _, functional = scan_aggregate(bitmap, k, xw, boundary=boundary)
        counting = scan_costs(bitmap, k, boundary=boundary)
        assert functional.scan_ops == counting.scan_ops
        assert functional.preagg_build_ops == counting.preagg_build_ops

    @given(case=bitmaps())
    @settings(max_examples=60, deadline=None)
    def test_window_classification_partitions(self, case):
        bitmap, k, boundary = case
        c = scan_costs(bitmap, k, boundary=boundary)
        total_windows = (
            c.windows_full + c.windows_subtract + c.windows_direct
            + c.windows_skipped
        )
        from repro.core.preagg import group_layout

        starts, _ = group_layout(bitmap.shape[1], k, boundary=boundary)
        assert total_windows == bitmap.shape[0] * len(starts)


# ----------------------------------------------------------------------
# Reordering properties
# ----------------------------------------------------------------------
class TestReorderingProperties:
    @given(graph=graphs(max_nodes=30, max_edges=60))
    @settings(max_examples=25, deadline=None)
    def test_all_reorderings_emit_permutations(self, graph):
        for name in reordering_names():
            result = get_reordering(name).run(graph)
            assert np.array_equal(
                np.sort(result.permutation), np.arange(graph.num_nodes)
            )

    @given(graph=graphs(max_nodes=30, max_edges=60))
    @settings(max_examples=25, deadline=None)
    def test_reordering_preserves_edge_count(self, graph):
        for name in ("hubsort", "dbg", "rabbit"):
            result = get_reordering(name).run(graph)
            assert result.apply(graph).num_edges == graph.num_edges


# ----------------------------------------------------------------------
# Pipeline makespan properties
# ----------------------------------------------------------------------
class TestPipelineProperties:
    @given(
        data=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_makespan_bounds(self, data):
        releases = np.cumsum([r for r, _ in data]).tolist()
        work = [w for _, w in data]
        makespan = pipelined_makespan(releases, work)
        assert makespan >= sum(work) - 1e-9          # server bound
        assert makespan >= releases[-1] - 1e-9       # release bound
        assert makespan <= releases[-1] + sum(work) + 1e-9  # serial bound

    @given(
        data=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_makespan_sandwich(self, data):
        """The tight two-sided bound the streamed latency model relies on.

        ``max(sum(C), L_last + C_last) <= makespan <= L_last + sum(C)``
        — the lower bound is the better of the work-conserving-server
        and last-release floors, the upper bound is the staged
        (run-everything-after-the-last-release) schedule.
        """
        releases = np.cumsum([r for r, _ in data]).tolist()
        work = [w for _, w in data]
        makespan = pipelined_makespan(releases, work)
        lower = max(sum(work), releases[-1] + work[-1])
        upper = releases[-1] + sum(work)
        assert lower - 1e-9 <= makespan <= upper + 1e-9

    @given(
        data=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=1,
            max_size=10,
        ),
        consumer_cycles=st.floats(0, 1e6),
    )
    @example(data=[(0.0, 5e-324)], consumer_cycles=0.5)
    @settings(max_examples=80, deadline=None)
    def test_streamed_schedule_conserves_work(self, data, consumer_cycles):
        """Measured schedules distribute exactly the consumer's cycles.

        Releases are the locator's cumulative round starts (first at 0,
        non-decreasing) and the chunks always sum to ``consumer_cycles``
        regardless of the work distribution — including the all-zero
        fallback.
        """
        round_cycles = [r for r, _ in data]
        round_work = [w for _, w in data]
        releases, chunks = streamed_schedule(
            round_cycles, round_work, consumer_cycles
        )
        assert releases[0] == 0.0
        assert releases == sorted(releases)
        assert releases[-1] <= sum(round_cycles) + 1e-9
        assert np.isclose(sum(chunks), consumer_cycles)


# ----------------------------------------------------------------------
# Event-simulator properties
# ----------------------------------------------------------------------
@st.composite
def event_schedules(draw, max_rounds=5, max_islands=4):
    """Arbitrary round schedules for :func:`simulate_events`."""
    rounds = draw(st.integers(1, max_rounds))
    round_cycles = draw(
        st.lists(st.floats(0, 50), min_size=rounds, max_size=rounds)
    )
    round_islands = []
    uid = 0
    for _ in range(rounds):
        k = draw(st.integers(0, max_islands))
        islands = []
        for _ in range(k):
            weight = draw(st.floats(0, 10))
            hubs = tuple(
                draw(
                    st.lists(st.integers(0, 30), min_size=0, max_size=3)
                )
            )
            islands.append((uid, weight, hubs))
            uid += 1
        round_islands.append(islands)
    round_chunks = draw(
        st.lists(st.floats(0, 80), min_size=rounds, max_size=rounds)
    )
    num_pes = draw(st.integers(1, 8))
    return round_cycles, round_islands, round_chunks, num_pes


class TestEventSimProperties:
    """The three-way sandwich and conservation, hypothesis-pinned."""

    @given(schedule=event_schedules())
    @settings(max_examples=80, deadline=None)
    # Completions closer than 1e-6 cycles but far apart relative to
    # their time: the earlier one must still finish first, or its PEs
    # stay busy past its work and a chain of such waits outlasts the
    # single-lane bound.
    @example(schedule=(
        [0.0] * 5, [[], [], [(0, 1.5, ()), (1, 2.75, ())], [], []],
        [0.0, 0.0, 1e-05, 0.0, 0.0], 3,
    ))
    @example(schedule=(
        [0.0, 1.0, 0.0],
        [[], [(0, 0.0, ()), (1, 0.0, ()), (2, 0.0, ())],
         [(3, 0.0, ()), (4, 0.0, ()), (5, 0.0, ()), (6, 0.0, ())]],
        [1.0, 1.192092896e-07, 0.0], 7,
    ))
    @example(schedule=(
        [0.0] * 4, [[], [(0, 8.0, ()), (1, 8.5, ()), (2, 7.5, ())], [], []],
        [0.0, 1e-05, 0.0, 1.0], 4,
    ))
    def test_schedule_sandwich_and_conservation(self, schedule):
        """``pipelined_makespan <= event <= L_total + C`` on arbitrary
        schedules — the structural form of ``streamed <= event <=
        staged`` — plus exact work conservation and a clean replay."""
        round_cycles, round_islands, round_chunks, num_pes = schedule
        sim = simulate_events(
            round_cycles, round_islands, round_chunks, num_pes=num_pes
        )
        validate_trace(sim)
        consumed = float(sum(round_chunks))
        carried = sum(
            chunk
            for islands, chunk in zip(round_islands, round_chunks)
            if islands or chunk > 0.0
        )
        assert np.isclose(sim.work_total, carried, atol=1e-6)
        assert np.isclose(
            sim.busy_pe_cycles, num_pes * sim.work_total, atol=1e-6
        )
        # The accelerator composes totals as max(makespan, locator);
        # compare at that level — a zero-work trailing round moves the
        # aggregate lower bound to its release time, which the event
        # model (correctly) has no unit to wait for.
        locator_total = float(sum(round_cycles))
        starts, chunks = streamed_schedule(
            round_cycles, round_chunks, consumed
        )
        lower = max(pipelined_makespan(starts, chunks), locator_total)
        upper = locator_total + consumed
        event_total = max(sim.makespan, locator_total)
        assert lower - 1e-6 <= event_total <= upper + 1e-6

    @given(schedule=event_schedules())
    @settings(max_examples=40, deadline=None)
    def test_schedule_determinism(self, schedule):
        round_cycles, round_islands, round_chunks, num_pes = schedule
        a = simulate_events(
            round_cycles, round_islands, round_chunks, num_pes=num_pes
        )
        b = simulate_events(
            round_cycles, round_islands, round_chunks, num_pes=num_pes
        )
        assert a.trace_bytes() == b.trace_bytes()

    @given(graph=graphs(max_nodes=30, max_edges=80), cmax=st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_pipeline_modes_sandwich_end_to_end(self, graph, cmax):
        """``streamed <= event <= staged`` on full inferences over
        arbitrary graphs, with the event trace replay-validated and the
        event mode conserving the chunked consumer's cycle tally.  One
        pass prices every model: each mode's report carries the same
        staged and streamed totals, and the mode only picks which one
        becomes ``total_cycles``."""
        model = gcn_model(8, 4)
        reports = {}
        for mode in ("staged", "streamed", "event"):
            accelerator = IGCNAccelerator(
                locator=LocatorConfig(c_max=cmax),
                consumer=ConsumerConfig(pipeline=mode),
            )
            reports[mode] = accelerator.run(graph, model)
        sim = reports["event"].event
        validate_trace(sim)
        assert np.isclose(sim.work_total, sim.consumer_cycles, atol=1e-6)
        event = reports["event"]
        for report in reports.values():
            assert report.staged_cycles == event.staged_cycles
            assert report.streamed_cycles == event.streamed_cycles
        assert reports["staged"].total_cycles == event.staged_cycles
        assert reports["streamed"].total_cycles == event.streamed_cycles
        assert (
            event.streamed_cycles - 1e-6
            <= event.total_cycles
            <= event.staged_cycles + 1e-6
        )


# ----------------------------------------------------------------------
# CSR round-trip properties
# ----------------------------------------------------------------------
class TestCSRProperties:
    @given(graph=graphs())
    @settings(max_examples=50, deadline=None)
    def test_scipy_roundtrip(self, graph):
        again = CSRGraph.from_scipy(graph.to_scipy())
        assert np.array_equal(again.indptr, graph.indptr)
        assert np.array_equal(again.indices, graph.indices)

    @given(graph=graphs())
    @settings(max_examples=50, deadline=None)
    def test_symmetry_invariant(self, graph):
        assert graph.is_symmetric()

    @given(graph=graphs())
    @settings(max_examples=50, deadline=None)
    def test_self_loop_roundtrip(self, graph):
        with_loops = graph.with_self_loops()
        assert with_loops.num_edges == graph.num_edges + graph.num_nodes
        back = with_loops.without_self_loops()
        assert back.num_edges == graph.num_edges

    @given(entries=entry_lists(), symmetrize=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_from_edges_matches_unique_reference(self, entries, symmetrize):
        n, rows, cols = entries
        graph = CSRGraph.from_edges(n, rows, cols, symmetrize=symmetrize)
        if symmetrize:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        keys = np.unique(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, keys % n)

    @given(entries=entry_lists(), symmetrize=st.booleans(), diagonal=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_without_self_loops_matches_rebuild(self, entries, symmetrize, diagonal):
        n, rows, cols = entries
        graph = CSRGraph.from_edges(n, rows, cols, symmetrize=symmetrize)
        if diagonal:
            graph = graph.with_self_loops()
        clean = graph.without_self_loops()
        reference = _rebuild_without_self_loops(graph)
        for ours, theirs in (
            (clean.indptr, reference.indptr), (clean.indices, reference.indices)
        ):
            assert ours.dtype == theirs.dtype == np.int64
            assert ours.tobytes() == theirs.tobytes()
        assert clean.fingerprint() == reference.fingerprint()
        assert not clean.has_self_loops()
        assert (clean is graph) == (not graph.has_self_loops())
        assert clean.without_self_loops() is clean

    @given(
        graph=graphs(),
        flaw=st.sampled_from(["unsorted", "duplicate"]),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_without_self_loops_rejects_malformed_rows(self, graph, flaw, pick):
        """Swap two neighbours, or repeat one, at a drawn spot of a
        drawn row: the raw constructor accepts it, the clean does not."""
        rows = np.flatnonzero(graph.degrees >= 2)
        assume(len(rows))
        row = int(rows[pick % len(rows)])
        start = int(graph.indptr[row])
        at = start + pick % (int(graph.indptr[row + 1]) - start - 1)
        indices = graph.indices.copy()
        indptr = graph.indptr.copy()
        if flaw == "unsorted":
            indices[[at, at + 1]] = indices[[at + 1, at]]
        else:
            indices = np.insert(indices, at, indices[at])
            indptr[row + 1:] += 1
        malformed = CSRGraph(indptr=indptr, indices=indices)
        with pytest.raises(GraphError):
            malformed.without_self_loops()

    @given(entries=entry_lists())
    @settings(max_examples=50, deadline=None)
    def test_is_symmetric_matches_set_reference(self, entries):
        n, rows, cols = entries
        graph = CSRGraph.from_edges(n, rows, cols, symmetrize=False)
        forward = set(zip(rows.tolist(), cols.tolist()))
        assert graph.is_symmetric() == all((v, u) in forward for u, v in forward)


class TestInterHubPlanProperties:
    @given(graph=graphs(), cmax=st.integers(1, 8), diagonal=st.lists(st.integers(0, 39)))
    @example(graph=CSRGraph.empty(3), cmax=4, diagonal=[])
    @settings(max_examples=50, deadline=None)
    def test_directed_edges_match_loop_reference(self, graph, cmax, diagonal):
        """Same pairs, order, dtype and shape as the per-pair loop, with
        diagonal pairs (emitted once) spliced into the canonical map."""
        result = islandize(graph, LocatorConfig(c_max=cmax))
        pairs = result.interhub_edges.tolist()
        pairs += [[h, h] for h in result.hub_ids.tolist() if h in diagonal]
        edges = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        result = dataclasses.replace(result, interhub_edges=edges)
        for add_self_loops in (False, True):
            plan = build_interhub_plan(result, add_self_loops=add_self_loops)
            reference = _loop_interhub_edges(edges)
            assert plan.directed_edges.dtype == reference.dtype
            assert plan.directed_edges.shape == reference.shape
            assert np.array_equal(plan.directed_edges, reference)
