"""The validated request value behind every batch path (repro.engine.query).

A :class:`QueryBatch` is built and checked once, at the public API; every
executor then runs it through one ``execute``.  These tests pin the edges
that used to differ per layer: empty batches, NaN radii and non-integer k.
"""

import numpy as np
import pytest

from repro.baselines import RTree
from repro.core import HybridTree
from repro.distances import L1, L2
from repro.engine import ParallelQueryEngine, QueryBatch, QuerySession
from repro.geometry.rect import Rect
from tests.conftest import random_boxes

DIMS = 4
EXECUTORS = ("object", "soa", "rtree", "session", "parallel-thread")
# The engines each validation case must hold on.
ENGINES = ("object", "soa", "parallel-thread")


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(3).random((600, DIMS)).astype(np.float32)


@pytest.fixture(scope="module")
def executors(data):
    plain = HybridTree.bulk_load(data)
    compiled = HybridTree.bulk_load(data)
    compiled.compile_snapshot()
    session = QuerySession(HybridTree.bulk_load(data), pin_levels=1)
    engine = ParallelQueryEngine(plain, workers=2, mode="thread")
    yield {
        "object": plain,
        "soa": compiled,
        "rtree": RTree.from_points(data),
        "session": session,
        "parallel-thread": engine,
    }
    engine.close()
    session.close()


def _empty_call(executor, kind, **kwargs):
    if kind == "range":
        return executor.range_search_many([], **kwargs)
    if kind == "distance":
        return executor.distance_range_many([], 0.3, L1, **kwargs)
    return executor.knn_many([], 5, L2, **kwargs)


@pytest.mark.parametrize("kind", ["range", "distance", "knn"])
@pytest.mark.parametrize("name", EXECUTORS)
def test_empty_batch_returns_empty_on_every_executor(executors, name, kind):
    executor = executors[name]
    assert _empty_call(executor, kind) == []
    results, metrics = _empty_call(executor, kind, return_metrics=True)
    assert results == []
    assert metrics.num_queries == 0
    assert metrics.charged_reads == 0
    assert len(metrics.pages) == 0


@pytest.mark.parametrize("name", ENGINES)
def test_nan_radius_rejected(executors, name, data):
    executor = executors[name]
    with pytest.raises(ValueError, match="radius"):
        executor.distance_range_many(data[:3], np.nan)
    with pytest.raises(ValueError, match="radius"):
        executor.distance_range_many(data[:3], [0.1, np.nan, 0.2], L1)


@pytest.mark.parametrize("k", [2.5, np.float64(3.0), "3", 0, -1, None])
@pytest.mark.parametrize("name", ENGINES)
def test_non_integer_or_small_k_rejected(executors, name, data, k):
    with pytest.raises(ValueError, match="k must be an integer"):
        executors[name].knn_many(data[:3], k)


def test_single_query_methods_share_the_batch_validator(executors, data):
    tree = executors["object"]
    with pytest.raises(ValueError, match="radius"):
        tree.distance_range(data[0], float("nan"))
    with pytest.raises(ValueError, match="k must be an integer"):
        tree.knn(data[0], 2.5)
    # Integer-valued numpy scalars are integers.
    assert tree.knn(data[0], np.int64(3)) == tree.knn(data[0], 3)


@pytest.mark.parametrize("name", EXECUTORS)
def test_execute_matches_the_per_kind_helpers(executors, name, data):
    executor = executors[name]
    boxes = random_boxes(np.random.default_rng(5), DIMS, 9)
    centers = data[::50]
    assert executor.execute(QueryBatch.range(boxes, DIMS)) == executor.range_search_many(boxes)
    batch = QueryBatch.distance(centers, 0.25, L1, DIMS)
    assert executor.execute(batch) == executor.distance_range_many(centers, 0.25, L1)
    batch = QueryBatch.knn(centers, 4, L2, 0.0, DIMS)
    assert executor.execute(batch) == executor.knn_many(centers, 4, L2)


def test_take_keeps_every_field_and_the_row_order(data):
    batch = QueryBatch.knn(data[:6], 3, L1, 0.5, DIMS)
    part = batch.take(np.array([4, 1]))
    assert len(part) == 2
    assert np.array_equal(part.centers, batch.centers[[4, 1]])
    assert (part.kind, part.k, part.metric, part.approximation_factor) == ("knn", 3, L1, 0.5)
    boxes = QueryBatch.range([Rect.unit(DIMS), Rect(np.zeros(DIMS), np.full(DIMS, 0.5))], DIMS)
    assert np.array_equal(boxes.take([1]).highs, [np.full(DIMS, 0.5)])


def test_centers_are_float32_canonical_and_checked():
    batch = QueryBatch.distance([[0.1, 0.2, 0.3, 0.4]], [0.5], L2, DIMS)
    assert np.array_equal(batch.centers, np.float32([[0.1, 0.2, 0.3, 0.4]]).astype(np.float64))
    with pytest.raises(ValueError, match="query points"):
        QueryBatch.knn(np.zeros((2, DIMS + 1)), 3, L2, 0.0, DIMS)
    with pytest.raises(ValueError, match="finite"):
        QueryBatch.knn([[0.0, np.inf, 0.0, 0.0]], 3, L2, 0.0, DIMS)
    with pytest.raises(ValueError, match="approximation_factor"):
        QueryBatch.knn(np.zeros((1, DIMS)), 3, L2, np.nan, DIMS)
    with pytest.raises(ValueError, match="dimensionality"):
        QueryBatch.range([Rect.unit(DIMS + 1)], DIMS)
