"""Tests for the node-splitting algorithms (Sections 3.2-3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.splits import (
    POLICY_EDA,
    POLICY_VAM,
    POSITION_MEDIAN,
    POSITION_MIDDLE,
    bipartition_intervals,
    choose_data_split,
    choose_index_split,
)
from repro.core.hybridtree import HybridTree
from repro.datasets import uniform_dataset
from repro.geometry.rect import Rect


class TestDataSplit:
    def test_clean_and_complete(self, rng):
        points = rng.random((61, 8))
        split = choose_data_split(points, min_fill=0.4)
        all_idx = np.sort(np.concatenate([split.left_indices, split.right_indices]))
        assert np.array_equal(all_idx, np.arange(61))
        # Clean: every left value <= position <= every right value.
        assert points[split.left_indices, split.dim].max() <= split.position
        assert points[split.right_indices, split.dim].min() >= split.position

    def test_utilization_respected(self, rng):
        points = rng.random((100, 4))
        split = choose_data_split(points, min_fill=0.4)
        assert len(split.left_indices) >= 40
        assert len(split.right_indices) >= 40

    def test_eda_picks_max_extent_dimension(self, rng):
        points = rng.random((50, 3))
        points[:, 1] *= 5.0  # dimension 1 has by far the largest extent
        split = choose_data_split(points, min_fill=0.3, policy=POLICY_EDA)
        assert split.dim == 1

    def test_vam_picks_max_variance_dimension(self, rng):
        points = rng.random((50, 3)) * 0.1
        points[:25, 2] = 0.0
        points[25:, 2] = 1.0  # dimension 2: max variance
        split = choose_data_split(points, min_fill=0.3, policy=POLICY_VAM)
        assert split.dim == 2

    def test_middle_vs_median_positions(self):
        # Skewed data: middle of the extent != median.
        points = np.zeros((20, 1))
        points[:16, 0] = np.linspace(0.0, 0.1, 16)
        points[16:, 0] = np.linspace(0.9, 1.0, 4)
        middle = choose_data_split(points, 0.1, position_rule=POSITION_MIDDLE)
        median = choose_data_split(points, 0.1, position_rule=POSITION_MEDIAN)
        assert middle.position > median.position

    def test_duplicate_heavy_data_falls_back(self):
        points = np.full((30, 2), 0.5)
        points[:3, 0] = 0.7  # only 3 distinct on dim 0; clean cut violates fill
        split = choose_data_split(points, min_fill=0.4)
        # Rank split fallback still balances.
        assert min(len(split.left_indices), len(split.right_indices)) >= 12

    def test_all_identical_points(self):
        points = np.full((10, 3), 0.25)
        split = choose_data_split(points, min_fill=0.4)
        assert len(split.left_indices) == 5 and len(split.right_indices) == 5

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            choose_data_split(np.zeros((1, 2)), 0.4)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            choose_data_split(np.zeros((4, 2)), 0.4, policy="bogus")
        with pytest.raises(ValueError):
            choose_data_split(np.zeros((4, 2)), 0.4, position_rule="bogus")


class TestBipartition:
    def test_disjoint_intervals_clean_cut(self):
        intervals = np.array([[0.0, 0.1], [0.2, 0.3], [0.6, 0.7], [0.8, 0.9]])
        left, right, lsp, rsp = bipartition_intervals(intervals, 2)
        assert sorted(left) == [0, 1] and sorted(right) == [2, 3]
        assert lsp == rsp  # gap snapped to the midpoint
        assert 0.3 <= lsp <= 0.6

    def test_overlapping_intervals_minimize_overlap(self):
        intervals = np.array([[0.0, 0.5], [0.1, 0.6], [0.4, 1.0], [0.5, 0.9]])
        left, right, lsp, rsp = bipartition_intervals(intervals, 2)
        assert len(left) == 2 and len(right) == 2
        assert lsp >= rsp
        # All left segments end by lsp; all right segments start at rsp.
        assert max(intervals[i, 1] for i in left) == lsp
        assert min(intervals[i, 0] for i in right) == rsp

    def test_partition_complete(self, rng):
        intervals = rng.random((30, 2))
        intervals.sort(axis=1)
        left, right, lsp, rsp = bipartition_intervals(intervals, 10)
        assert sorted(left + right) == list(range(30))
        assert len(left) >= 10 and len(right) >= 10
        assert lsp >= rsp

    def test_identical_intervals(self):
        intervals = np.tile([0.4, 0.6], (6, 1))
        left, right, lsp, rsp = bipartition_intervals(intervals, 3)
        assert len(left) == 3 and len(right) == 3
        assert lsp == pytest.approx(0.6) and rsp == pytest.approx(0.4)

    def test_rejects_bad_min_per_side(self):
        intervals = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            bipartition_intervals(intervals, 2)
        with pytest.raises(ValueError):
            bipartition_intervals(intervals, 0)

    def test_rejects_single_interval(self):
        with pytest.raises(ValueError):
            bipartition_intervals(np.array([[0.0, 1.0]]), 1)


class TestIndexSplit:
    def _children(self, rects):
        return [(i, r) for i, r in enumerate(rects)]

    def test_prefers_separable_dimension(self):
        # Dim 0: children cleanly separable; dim 1: total overlap.
        rects = [
            Rect([0.0, 0.0], [0.2, 1.0]),
            Rect([0.25, 0.0], [0.45, 1.0]),
            Rect([0.55, 0.0], [0.75, 1.0]),
            Rect([0.8, 0.0], [1.0, 1.0]),
        ]
        split = choose_index_split(self._children(rects), 0.4, 0.1)
        assert split.dim == 0
        assert split.overlap == 0.0
        assert sorted(split.left_ids + split.right_ids) == [0, 1, 2, 3]

    def test_lemma1_never_split_dim_eliminated(self):
        # Dim 1 spans the full extent for every child: w == s, cost 1.
        rects = [
            Rect([0.0, 0.0], [0.3, 1.0]),
            Rect([0.3, 0.0], [0.6, 1.0]),
            Rect([0.6, 0.0], [1.0, 1.0]),
            Rect([0.2, 0.0], [0.5, 1.0]),
        ]
        split = choose_index_split(self._children(rects), 0.25, 0.1)
        assert split.dim == 0

    def test_overlap_accepted_when_necessary(self):
        # Heavily interleaved along the only useful dimension.
        rects = [Rect([i * 0.1, 0.0], [i * 0.1 + 0.4, 1.0]) for i in range(6)]
        split = choose_index_split(self._children(rects), 0.4, 0.1)
        assert split.lsp >= split.rsp
        assert len(split.left_ids) >= 2 and len(split.right_ids) >= 2

    def test_vam_policy_uses_center_variance(self):
        rects = [
            Rect([0.0, 0.45], [0.1, 0.55]),
            Rect([0.3, 0.5], [0.4, 0.6]),
            Rect([0.6, 0.4], [0.7, 0.5]),
            Rect([0.9, 0.5], [1.0, 0.6]),
        ]
        split = choose_index_split(self._children(rects), 0.4, 0.1, policy=POLICY_VAM)
        assert split.dim == 0  # centres vary most along dim 0

    def test_rejects_single_child(self):
        with pytest.raises(ValueError):
            choose_index_split([(0, Rect.unit(2))], 0.4, 0.1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 6),
    st.floats(0.1, 0.5),
)
def test_property_data_split_balanced_and_complete(n, dims, min_fill):
    rng = np.random.default_rng(n * 100 + dims)
    points = rng.random((n, dims))
    split = choose_data_split(points, min_fill)
    total = len(split.left_indices) + len(split.right_indices)
    assert total == n
    floor = max(1, int(np.floor(n * min_fill)))
    floor = min(floor, n // 2)
    assert len(split.left_indices) >= floor
    assert len(split.right_indices) >= floor


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 50), st.integers(1, 20))
def test_property_bipartition_invariants(n, seed):
    rng = np.random.default_rng(seed)
    intervals = rng.random((n, 2))
    intervals.sort(axis=1)
    min_side = max(1, n // 3)
    left, right, lsp, rsp = bipartition_intervals(intervals, min_side)
    assert sorted(left + right) == list(range(n))
    assert len(left) >= min_side and len(right) >= min_side
    assert lsp >= rsp
    assert all(intervals[i, 1] <= lsp + 1e-12 for i in left)
    assert all(intervals[i, 0] >= rsp - 1e-12 for i in right)


def test_round_robin_trees_cycle_independently():
    """Each ``rr`` tree cycles its own split dimensions: inserts into a
    second ``rr`` tree, interleaved, leave the first tree's splits (and so
    its live boxes) as they are when it is built alone."""
    data = uniform_dataset(3000, 6, seed=70)
    other = uniform_dataset(3000, 6, seed=71)
    alone = HybridTree(6, split_policy="rr")
    for oid, v in enumerate(data):
        alone.insert(v, oid)
    first = HybridTree(6, split_policy="rr")
    second = HybridTree(6, split_policy="rr")
    for oid, (v, w) in enumerate(zip(data, other)):
        first.insert(v, oid)
        second.insert(w, oid)
    for want, got in zip(alone.els.arrays(), first.els.arrays()):
        assert want.tobytes() == got.tobytes()


def test_inserts_near_float32_max_keep_points_inside_their_regions():
    """Inserts split float32 points: the rule adds the two values around a
    cut in float64.  A float32 sum of two values near float32 max
    overflowed to an infinite split position, and points escaped their
    node's region."""
    top = float(np.finfo(np.float32).max)
    rng = np.random.default_rng(1)
    values = np.array([top, top / 2, top / 4, top * 0.75, top * 0.9], dtype=np.float32)
    data = np.column_stack([rng.choice(values, 300), rng.random(300)]).astype(np.float32)
    tree = HybridTree(2, page_size=512)
    for oid, v in enumerate(data):
        tree.insert(v, oid)
    tree.validate()
    query = Rect([top * 0.8, 0.0], [top, 1.0])
    assert sorted(tree.range_search(query)) == np.flatnonzero(data[:, 0] >= top * 0.8).tolist()
