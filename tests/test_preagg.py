"""Unit tests for pre-aggregation and the 1×k window scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preagg import ScanCounts, group_layout, scan_aggregate, scan_costs

#: Values whose sums depend on the fold order (1e16 + 1.0 rounds the
#: 1.0 away), plus signed zeros and exact cancellations.
_TRICKY = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16]


def _documented_fold(bitmap, k, xw, boundary):
    """The accumulation order of ``repro.core.preagg``, over Python floats.

    Written independently of the module: its own group tiling, window
    classes and one left fold from ``+0.0`` per pre-sum and per row.
    """
    rows, cols = bitmap.shape
    feat = xw.shape[1]
    vectors = xw.tolist()
    groups = [
        range(start, min(start + k, hi))
        for lo, hi in ((0, boundary), (boundary, cols))
        for start in range(lo, hi, k)
    ]

    def add(acc, vec, sign=1.0):
        return [a + sign * b for a, b in zip(acc, vec)]

    presums = []
    for group in groups:
        total = [0.0] * feat
        for col in group:
            total = add(total, vectors[col])
        presums.append(total)

    out = np.zeros((rows, feat))
    for r in range(rows):
        kinds = []
        for group in groups:
            present = sum(bool(bitmap[r, col]) for col in group)
            width = len(group)
            if present == 0:
                kinds.append(None)
            elif width > 1 and present == width:
                kinds.append("full")
            elif width > 1 and 1 + (width - present) < present:
                kinds.append("subtract")
            else:
                kinds.append("direct")
        acc = [0.0] * feat
        for presum, kind in zip(presums, kinds):
            if kind in ("full", "subtract"):
                acc = add(acc, presum)
        for group, kind in zip(groups, kinds):
            if kind == "subtract":
                for col in group:
                    if not bitmap[r, col]:
                        acc = add(acc, vectors[col], -1.0)
        for group, kind in zip(groups, kinds):
            if kind == "direct":
                for col in group:
                    if bitmap[r, col]:
                        acc = add(acc, vectors[col])
        out[r] = acc
    return out


@st.composite
def _scans(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 11))
    feat = draw(st.integers(1, 3))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols,
                          max_size=rows * cols))
    values = draw(st.lists(
        st.one_of(st.sampled_from(_TRICKY),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=cols * feat, max_size=cols * feat,
    ))
    bitmap = np.array(cells, dtype=bool).reshape(rows, cols)
    xw = np.array(values, dtype=np.float64).reshape(cols, feat)
    k = draw(st.integers(2, 6))
    boundary = draw(st.integers(0, cols))
    return bitmap, k, xw, boundary


class TestGroupLayout:
    def test_plain_tiling(self):
        starts, widths = group_layout(10, 4)
        assert starts.tolist() == [0, 4, 8]
        assert widths.tolist() == [4, 4, 2]

    def test_boundary_restarts_tiling(self):
        starts, widths = group_layout(10, 4, boundary=3)
        assert starts.tolist() == [0, 3, 7]
        assert widths.tolist() == [3, 4, 3]

    def test_empty(self):
        starts, widths = group_layout(0, 4)
        assert len(starts) == 0

    def test_boundary_at_zero_is_noop(self):
        a = group_layout(8, 4, boundary=0)
        b = group_layout(8, 4)
        assert np.array_equal(a[0], b[0])


class TestScanCosts:
    def test_full_window_costs_one(self):
        bitmap = np.ones((1, 4), dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.baseline_ops == 4
        assert counts.scan_ops == 1
        assert counts.windows_full == 1

    def test_subtract_path(self):
        bitmap = np.array([[1, 1, 1, 0]], dtype=bool)
        counts = scan_costs(bitmap, 4)
        # reuse = 1 + 1 = 2 < direct 3
        assert counts.scan_ops == 2
        assert counts.windows_subtract == 1

    def test_direct_path_when_sparse(self):
        bitmap = np.array([[1, 0, 0, 0]], dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.scan_ops == 1
        assert counts.windows_direct == 1

    def test_empty_window_skipped(self):
        bitmap = np.zeros((2, 4), dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.scan_ops == 0
        assert counts.windows_skipped == 2

    def test_half_full_picks_cheaper(self):
        # z=2, w=4: direct 2 vs reuse 3 -> direct.
        bitmap = np.array([[1, 1, 0, 0]], dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.scan_ops == 2
        assert counts.windows_direct == 1

    def test_preagg_build_cost(self):
        bitmap = np.ones((1, 8), dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.preagg_build_ops == 6  # two groups of 4: 3 + 3

    def test_width_one_groups_never_reuse(self):
        bitmap = np.ones((3, 1), dtype=bool)
        counts = scan_costs(bitmap, 4)
        assert counts.scan_ops == 3
        assert counts.windows_full == 0
        assert counts.preagg_build_ops == 0

    def test_boundary_prevents_straddle(self):
        # 2 hub cols (full) + 4 member cols (full): with boundary the
        # member block is one full window instead of straddling.
        bitmap = np.ones((1, 6), dtype=bool)
        with_boundary = scan_costs(bitmap, 4, boundary=2)
        without = scan_costs(bitmap, 4)
        assert with_boundary.scan_ops <= without.scan_ops
        assert with_boundary.windows_full == 2

    def test_pruning_rate_definition(self):
        counts = ScanCounts(baseline_ops=10, scan_ops=4, preagg_build_ops=1)
        assert counts.total_ops == 5
        assert counts.pruned_ops == 5
        assert counts.pruning_rate == pytest.approx(0.5)

    def test_merge_accumulates(self):
        a = ScanCounts(baseline_ops=5, scan_ops=3)
        b = ScanCounts(baseline_ops=2, scan_ops=1, windows_full=1)
        a.merge(b)
        assert a.baseline_ops == 7
        assert a.scan_ops == 4
        assert a.windows_full == 1

    def test_empty_bitmap(self):
        counts = scan_costs(np.zeros((0, 0), dtype=bool), 4)
        assert counts.baseline_ops == 0

    def test_never_worse_than_baseline(self, rng):
        for _ in range(20):
            bitmap = rng.random((8, 13)) < rng.random()
            counts = scan_costs(bitmap, 4, boundary=3)
            assert counts.scan_ops <= counts.baseline_ops


class TestScanAggregate:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("boundary", [0, 2, 5])
    def test_lossless_vs_direct_matmul(self, rng, k, boundary):
        """Group reuse must reproduce bitmap @ xw exactly."""
        bitmap = rng.random((7, 9)) < 0.6
        xw = rng.normal(size=(9, 5))
        acc, counts = scan_aggregate(bitmap, k, xw, boundary=boundary)
        expected = bitmap.astype(float) @ xw
        assert np.allclose(acc, expected, atol=1e-12)

    def test_counts_match_cost_model(self, rng):
        """Functional and counting paths must agree op-for-op."""
        bitmap = rng.random((6, 11)) < 0.5
        xw = rng.normal(size=(11, 3))
        _, functional = scan_aggregate(bitmap, 4, xw, boundary=3)
        counting = scan_costs(bitmap, 4, boundary=3)
        assert functional.baseline_ops == counting.baseline_ops
        assert functional.scan_ops == counting.scan_ops
        assert functional.preagg_build_ops == counting.preagg_build_ops
        assert functional.windows_full == counting.windows_full
        assert functional.windows_subtract == counting.windows_subtract
        assert functional.windows_direct == counting.windows_direct

    def test_dense_island_saves_heavily(self):
        bitmap = np.ones((8, 8), dtype=bool)
        _, counts = scan_aggregate(bitmap, 4, np.ones((8, 2)))
        # 8 rows x 2 full windows = 16 ops + 6 build vs 64 baseline.
        assert counts.total_ops == 22
        assert counts.pruning_rate > 0.6

    def test_empty_bitmap_functional(self):
        acc, counts = scan_aggregate(np.zeros((0, 0), dtype=bool), 2, np.zeros((0, 3)))
        assert acc.shape == (0, 3)
        assert counts.baseline_ops == 0

    @settings(max_examples=200, deadline=None)
    @given(case=_scans())
    def test_is_the_documented_left_fold_bitwise(self, case):
        bitmap, k, xw, boundary = case
        acc, _ = scan_aggregate(bitmap, k, xw, boundary=boundary)
        expected = _documented_fold(bitmap, k, xw, boundary)
        assert acc.tobytes() == expected.tobytes()
