"""Tests for repro.engine: batch queries, query sessions, metrics.

The load-bearing property of the shared-traversal engine is that it is an
*execution* optimization only: every batch method must return bit-identical
results to looping the single-query method, while charging each visited
node one read for the whole batch instead of one per query.
"""

import numpy as np
import pytest

from repro.baselines import RTree, SequentialScan
from repro.core import HybridTree
from repro.datasets import colhist_dataset, range_workload
from repro.distances import L1, L2, WeightedEuclidean
from repro.engine import (
    BatchMetrics,
    LoopRecorder,
    QueryBatch,
    QuerySession,
    ascii_histogram,
)
from repro.eval import run_workload, run_workload_batched
from repro.geometry.rect import Rect
from tests.conftest import random_boxes


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.random((2500, 8)).astype(np.float32)


@pytest.fixture(scope="module")
def tree(data):
    t = HybridTree(8)
    for oid, v in enumerate(data):
        t.insert(v, oid)
    return t


@pytest.fixture(scope="module")
def boxes(rng):
    return random_boxes(rng, 8, 30)


@pytest.fixture(scope="module")
def centers(rng):
    return rng.random((40, 8))


class TestRangeBatch:
    def test_bit_identical_to_loop(self, tree, boxes):
        assert tree.range_search_many(boxes) == [tree.range_search(b) for b in boxes]

    def test_single_query_batch(self, tree, boxes):
        assert tree.range_search_many(boxes[:1]) == [tree.range_search(boxes[0])]

    def test_empty_batch(self, tree):
        assert tree.range_search_many([]) == []

    def test_dims_mismatch_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.range_search_many([Rect.unit(5)])

    def test_charges_each_node_once_per_batch(self, tree, boxes):
        tree.io.reset()
        for b in boxes:
            tree.range_search(b)
        loop_reads = tree.io.random_reads
        tree.io.reset()
        _, metrics = tree.range_search_many(boxes, return_metrics=True)
        assert metrics.charged_reads == tree.io.random_reads
        assert metrics.charged_reads <= tree.pages()
        assert metrics.charged_reads < loop_reads
        # The attributed per-query page counts are the loop's exact counts.
        assert metrics.pages.sum() == loop_reads

    def test_empty_tree(self):
        empty = HybridTree(8)
        assert empty.range_search_many([Rect.unit(8)]) == [[]]


class TestDistanceRangeBatch:
    @pytest.mark.parametrize(
        "metric",
        [L1, L2, WeightedEuclidean(np.arange(1, 9, dtype=np.float64))],
        ids=["L1", "L2", "weighted"],
    )
    def test_bit_identical_to_loop(self, tree, centers, metric):
        got = tree.distance_range_many(centers, 0.7, metric)
        assert got == [tree.distance_range(c, 0.7, metric) for c in centers]

    def test_per_query_radii(self, tree, centers, rng):
        radii = rng.uniform(0.2, 0.9, size=len(centers))
        got = tree.distance_range_many(centers, radii)
        assert got == [
            tree.distance_range(c, float(r)) for c, r in zip(centers, radii)
        ]

    def test_negative_radius_rejected(self, tree, centers):
        with pytest.raises(ValueError):
            tree.distance_range_many(centers, -0.1)


class TestKnnBatch:
    @pytest.mark.parametrize("k", [1, 5, 13])
    def test_bit_identical_to_loop(self, tree, centers, k):
        assert tree.knn_many(centers, k) == [tree.knn(c, k) for c in centers]

    def test_metric_variants(self, tree, centers):
        for metric in (L1, WeightedEuclidean(np.arange(1, 9, dtype=np.float64))):
            got = tree.knn_many(centers[:10], 5, metric)
            assert got == [tree.knn(c, 5, metric) for c in centers[:10]]

    def test_k_larger_than_tree(self):
        small = HybridTree(2)
        for i in range(5):
            small.insert(np.array([i / 10, i / 10]), i)
        assert small.knn_many(np.zeros((3, 2)), 50) == [small.knn(np.zeros(2), 50)] * 3

    def test_invalid_k_rejected(self, tree, centers):
        with pytest.raises(ValueError):
            tree.knn_many(centers, 0)
        with pytest.raises(ValueError):
            tree.knn_many(centers, 3, approximation_factor=-1.0)

    def test_ties_broken_identically(self):
        """Many duplicate points at the kth boundary: the batch traversal
        visits nodes in a different order than the single-query descent, so
        only the deterministic (distance, oid) order keeps them identical."""
        tree = HybridTree(2)
        rng = np.random.default_rng(9)
        oid = 0
        for _ in range(40):  # 40 copies of the same 8 positions
            for pos in range(8):
                tree.insert(np.array([pos / 8, pos / 8]), oid)
                oid += 1
        for v in rng.random((200, 2)):
            tree.insert(v, oid)
            oid += 1
        queries = np.array([[p / 8, p / 8] for p in range(8)], dtype=np.float64)
        got = tree.knn_many(queries, 7)
        assert got == [tree.knn(q, 7) for q in queries]
        for hits in got:
            assert hits == sorted(hits, key=lambda t: (t[1], t[0]))

    def test_approximate_guarantee_holds(self, tree, centers):
        eps = 1.0
        exact = tree.knn_many(centers, 10)
        approx = tree.knn_many(centers, 10, approximation_factor=eps)
        for ex, ap in zip(exact, approx):
            assert len(ap) == 10
            assert ap[-1][1] <= ex[-1][1] * (1.0 + eps) + 1e-9

    def test_fewer_reads_than_loop(self, tree, centers):
        tree.io.reset()
        for c in centers:
            tree.knn(c, 10)
        loop_reads = tree.io.random_reads
        tree.io.reset()
        tree.knn_many(centers, 10)
        assert tree.io.random_reads < loop_reads


class TestQuerySession:
    def test_results_unchanged_inside_session(self, tree, boxes, centers):
        with tree.session(pin_levels=2) as session:
            assert session.range_search_many(boxes) == tree.range_search_many(boxes)
            assert session.knn_many(centers, 5) == tree.knn_many(centers, 5)
            assert session.knn(centers[0], 5) == tree.knn(centers[0], 5)

    def test_pins_upper_levels_and_unpins_on_exit(self, tree):
        with QuerySession(tree, pin_levels=2) as session:
            assert 0 < session.pinned_pages <= tree.pages()
            assert tree.nm.pinned_nodes == session.pinned_pages
        assert tree.nm.pinned_nodes == 0

    def test_pinned_directory_reads_are_free(self, tree, centers):
        with QuerySession(tree, pin_levels=tree.height) as _:
            tree.io.reset()
            tree.knn_many(centers, 5)
            # The whole tree is pinned: queries charge nothing.
            assert tree.io.random_reads == 0
        tree.io.reset()
        tree.knn_many(centers, 5)
        assert tree.io.random_reads > 0  # cold accounting restored

    def test_rejects_negative_pin_levels(self, tree):
        with pytest.raises(ValueError):
            QuerySession(tree, pin_levels=-1)

    def test_pins_survive_bounded_eviction(self, data, tmp_path):
        tree = HybridTree(8)
        for oid, v in enumerate(data[:1200]):
            tree.insert(v, oid)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        reopened = HybridTree.open(path, buffer_pages=4)
        with QuerySession(reopened, pin_levels=1) as session:
            reopened.range_search(Rect.unit(8))  # thrash the tiny pool
            assert reopened.nm.pinned_nodes == session.pinned_pages
            reopened.io.reset()
            reopened.nm.get(reopened.root_id)
            assert reopened.io.random_reads == 0  # pinned root never evicted


class TestMetrics:
    def test_from_batch_run_attribution(self):
        m = BatchMetrics.from_batch_run(
            "x", node_visits=np.array([1, 3, 0, 4]), charged_reads=5, wall_seconds=2.0
        )
        assert m.attributed
        assert m.num_queries == 4
        assert m.latencies.sum() == pytest.approx(2.0)
        assert m.latencies[1] == pytest.approx(2.0 * 3 / 8)
        assert np.array_equal(m.pages, [1, 3, 0, 4])
        assert m.charged_reads == 5

    def test_from_batch_run_no_visits(self):
        m = BatchMetrics.from_batch_run("x", np.zeros(3), 0, 0.3)
        assert m.latencies.sum() == pytest.approx(0.3)

    def test_summary_and_render(self):
        m = BatchMetrics.from_batch_run("lbl", np.arange(1, 11), 7, 1.0)
        s = m.summary()
        assert s["label"] == "lbl" and s["queries"] == 10
        assert s["charged_reads"] == 7
        text = m.render()
        assert "lbl" in text and "charged page reads" in text

    def test_percentiles(self):
        m = BatchMetrics.from_batch_run("x", np.ones(4), 4, 1.0)
        assert m.percentile(50) == pytest.approx(0.25)
        assert m.percentile(100, "pages") == 1.0

    def test_ascii_histogram(self):
        assert ascii_histogram(np.empty(0)) == "(no samples)"
        lines = ascii_histogram(np.arange(100), bins=5).splitlines()
        assert len(lines) == 5
        assert all("#" in line for line in lines)

    def test_loop_recorder_measures_exactly(self, tree, boxes):
        recorder = LoopRecorder("loop", tree.io)
        tree.io.reset()
        for b in boxes[:5]:
            recorder.start_query()
            tree.range_search(b)
            recorder.end_query()
        m = recorder.finish(charged_reads=tree.io.random_reads)
        assert not m.attributed
        assert m.num_queries == 5
        assert m.pages.sum() == m.charged_reads == tree.io.random_reads
        assert np.all(m.latencies >= 0)

    def test_return_metrics_tuple(self, tree, boxes):
        results, metrics = tree.range_search_many(boxes, return_metrics=True)
        assert isinstance(metrics, BatchMetrics)
        assert metrics.num_queries == len(boxes)
        assert results == tree.range_search_many(boxes)


class TestBaselineBatchMixin:
    @pytest.mark.parametrize("cls", [SequentialScan, RTree], ids=["scan", "rtree"])
    def test_batch_equals_loop(self, data, boxes, centers, cls):
        index = cls.from_points(data)
        assert index.range_search_many(boxes) == [index.range_search(b) for b in boxes]
        assert index.distance_range_many(centers[:8], 0.6) == [
            index.distance_range(c, 0.6) for c in centers[:8]
        ]
        assert index.knn_many(centers[:8], 5) == [index.knn(c, 5) for c in centers[:8]]

    def test_metrics_available(self, data, boxes):
        scan = SequentialScan.from_points(data)
        _, metrics = scan.range_search_many(boxes, return_metrics=True)
        assert isinstance(metrics, BatchMetrics)
        assert metrics.num_queries == len(boxes)


class TestHarnessBatched:
    def test_matches_loop_harness(self):
        data = colhist_dataset(1200, 16, seed=3)
        tree = HybridTree.bulk_load(data)
        workload = range_workload(data, 20, 0.01, seed=4)
        loop = run_workload(tree, data, workload, kind="hybrid")
        batched, metrics = run_workload_batched(tree, data, workload, kind="hybrid")
        assert batched.avg_result_count == loop.avg_result_count
        assert batched.num_queries == loop.num_queries
        assert metrics.num_queries == len(workload)
        assert batched.avg_disk_accesses < loop.avg_disk_accesses


def test_module_level_functions_match_methods(tree, boxes, centers):
    assert tree.execute(QueryBatch.range(boxes, 8)) == tree.range_search_many(boxes)
    batch = QueryBatch.knn(centers[:5], 3, L2, 0.0, 8)
    assert tree.execute(batch) == tree.knn_many(centers[:5], 3)
