"""The SOA kernel's exact k-NN frontier against best-first search.

An exact k-NN batch of two or more on a snapshot is answered by a beam
probe for an upper radius and one distance frontier
(``repro.engine.soa.kernel._KnnFrontier``), billed at each query's exact
kth distance.  These tests run it and the object kernel's best-first
search (``kernel_knn_many``) on the same index: results, per-query pages
and charged reads must be equal, and equal a brute force, on tie-heavy
data where queries sit on box faces and many points tie at the kth
distance.  They also pin which batches take the frontier (the others run
the object kernel and leave a stale snapshot stale), and what a batch the
deadline stopped returns and bills.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    L1,
    L2,
    LINF,
    LpMetric,
    QuadraticFormMetric,
    WeightedEuclidean,
)
from repro.engine.kernel import kernel_knn_many
from repro.engine.query import QueryBatch
from repro.engine.soa import kernel as soa_kernel
from repro.eval.harness import build_index
from repro.resilience import Deadline, PartialResult, QueryTimeoutError
from tests.conftest import ExpiresAfter

STRUCTURES = ("hybrid", "rtree", "xtree", "kdbtree")
METRICS = (L1, L2, LINF, LpMetric(3.0), WeightedEuclidean(np.array([0.5, 1.0, 2.0, 1.5])))
DIMS = 4
PAGE = 256  # small pages: trees of three or more levels on a few hundred points


def _tie_heavy(seed=3):
    """The integer grid {0..3}^4, plus duplicates of a third of its rows."""
    axes = np.meshgrid(*[np.arange(4)] * DIMS, indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1).astype(np.float32)
    rng = np.random.default_rng(seed)
    dups = grid[rng.choice(len(grid), len(grid) // 3)]
    return rng.permutation(np.concatenate((grid, dups)))


def _centers(data, seed=5):
    """Queries on grid points and box faces, between grid points, random,
    and far outside the data."""
    rng = np.random.default_rng(seed)
    on_points = data[rng.choice(len(data), 6)]
    halves = rng.integers(0, 7, size=(6, DIMS)) / 2.0
    inside = rng.uniform(-0.5, 3.5, size=(6, DIMS))
    far = np.array([[40.0, -30.0, 25.0, 60.0], [-50.0] * DIMS])
    return np.concatenate((on_points, halves, inside, far)).astype(np.float32)


@pytest.fixture(scope="module")
def data():
    return _tie_heavy()


@pytest.fixture(scope="module", params=STRUCTURES)
def index(request, data):
    idx = build_index(request.param, data, page_size=PAGE)
    snap = idx.compile_snapshot()
    assert int(snap.node_is_leaf.sum()) + 1 < snap.n_nodes  # two or more inner nodes
    return idx


def _both(index, centers, k, metric):
    """``(frontier, best_first)``, each ``(results, BatchMetrics)``: the
    frontier on the index's snapshot, and the object kernel's best-first
    search on the index itself."""
    snap = index.compile_snapshot()
    batch = QueryBatch.knn(centers, k, metric, 0.0, index.dims)
    frontier = soa_kernel.soa_knn_many(index, snap, batch, return_metrics=True)
    best_first = kernel_knn_many(index, batch, return_metrics=True)
    return frontier, best_first


def _assert_equal(frontier, best_first):
    (res_f, m_f), (res_b, m_b) = frontier, best_first
    assert res_f == res_b
    assert m_f.pages.tolist() == m_b.pages.tolist()
    assert m_f.charged_reads == m_b.charged_reads


def _brute_force(data, centers, k, metric):
    """Each center's k nearest by ``(distance, oid)`` (oids are row indices)."""
    out = []
    for c in centers:
        d = metric.pair_distances(data, np.repeat(c[None].astype(np.float64), len(data), 0))
        order = np.lexsort((np.arange(len(data)), d))[:k]
        out.append(list(zip(order.tolist(), d[order].tolist())))
    return out


@pytest.mark.parametrize("metric", METRICS, ids=repr)
@pytest.mark.parametrize("k", [1, 10, 40])
def test_frontier_equals_best_first(index, data, metric, k):
    frontier, best_first = _both(index, _centers(data), k, metric)
    _assert_equal(frontier, best_first)
    assert frontier[0] == _brute_force(data, _centers(data), k, metric)


@pytest.mark.parametrize("extra", [0, 1, 50], ids=["k=N", "k=N+1", "k=N+50"])
def test_k_at_and_beyond_the_tree_size(index, data, extra):
    centers = _centers(data)[:5]
    frontier, best_first = _both(index, centers, len(data) + extra, L2)
    _assert_equal(frontier, best_first)
    assert all(len(r) == len(data) for r in frontier[0])
    # Every node is visited once per query.
    assert frontier[1].pages.tolist() == [index.compile_snapshot().n_nodes] * len(centers)


@pytest.mark.parametrize("kind", STRUCTURES)
def test_single_leaf_tree(kind, data):
    small = data[:6]
    idx = build_index(kind, small)
    assert idx.compile_snapshot().n_nodes == 1
    for k in (1, 6, 9):
        _assert_equal(*_both(idx, _centers(data), k, L1))


def test_far_queries_only(index, data):
    far = np.array([[90.0, 90.0, 90.0, 90.0], [-70.0, 5.0, 1.0, 200.0]], dtype=np.float32)
    for metric in (L2, LINF):
        _assert_equal(*_both(index, far, 7, metric))


def test_split_batch_equals_whole(index, data):
    centers = _centers(data)
    whole = index.knn_many(centers, 9, L1, return_metrics=True)
    half = len(centers) // 2
    first = index.knn_many(centers[:half], 9, L1, return_metrics=True)
    second = index.knn_many(centers[half:], 9, L1, return_metrics=True)
    assert first[0] + second[0] == whole[0]
    assert first[1].pages.tolist() + second[1].pages.tolist() == whole[1].pages.tolist()


def test_dispatch_takes_the_frontier(index, data, monkeypatch):
    calls = []
    frontier = soa_kernel.soa_knn_many

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return frontier(*args, **kwargs)

    monkeypatch.setattr(soa_kernel, "soa_knn_many", spy)
    index.knn_many(_centers(data), 5, L2)
    assert calls == [len(_centers(data))]


# ----------------------------------------------------------------------
# Routing: everything else runs the object kernel
# ----------------------------------------------------------------------
def _no_frontier(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("batch took the k-NN frontier")

    monkeypatch.setattr(soa_kernel, "soa_knn_many", refuse)


def _quadratic():
    # sqrt(lambda_min) * L2 is a lower bound in real arithmetic only: it
    # may round above the quadratic form of a point on the box's face.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(DIMS, DIMS))
    quadratic = QuadraticFormMetric(a @ a.T + DIMS * np.eye(DIMS))
    assert not quadratic.bound_below_distance
    return quadratic


def test_approximate_and_unsound_bound_batches_run_best_first(data, monkeypatch):
    idx = build_index("hybrid", data, page_size=PAGE)
    idx.compile_snapshot()
    _no_frontier(monkeypatch)
    centers = _centers(data)
    idx.knn_many(centers, 8, L2, approximation_factor=0.5)
    idx.knn_many(centers, 8, _quadratic())
    # Called directly, the frontier refuses the batches it cannot answer.
    monkeypatch.undo()
    for metric, eps in ((L2, 0.5), (_quadratic(), 0.0)):
        batch = QueryBatch.knn(centers, 8, metric, eps, DIMS)
        with pytest.raises(ValueError, match="object kernel"):
            soa_kernel.soa_knn_many(idx, idx.soa_snapshot, batch)


def test_stale_snapshot_runs_the_object_kernel(data, monkeypatch):
    idx = build_index("hybrid", data, page_size=PAGE)
    idx.compile_snapshot()
    idx.invalidate_snapshot()
    _no_frontier(monkeypatch)
    idx.knn_many(_centers(data), 8, L2)


def test_object_kernel_batches_leave_a_stale_snapshot_stale(data, monkeypatch):
    """An approximate batch and a batch under a metric without
    ``bound_below_distance`` do not refresh a stale snapshot: they run the
    object kernel, with the results and pages of a tree that never had a
    snapshot."""
    point = np.full(DIMS, 1.5, dtype=np.float32)
    stale = build_index("hybrid", data, page_size=PAGE)
    stale.compile_snapshot()
    stale.insert(point, len(data))
    plain = build_index("hybrid", data, page_size=PAGE)
    plain.insert(point, len(data))
    assert stale.soa_snapshot is None and stale._soa_refresher is not None
    refresh = stale._soa_refresher.refresh

    def refuse():
        raise AssertionError("the batch refreshed the snapshot")

    monkeypatch.setattr(stale._soa_refresher, "refresh", refuse)
    _no_frontier(monkeypatch)
    centers = _centers(data)
    for metric, eps in ((L2, 0.5), (_quadratic(), 0.0)):
        got = stale.knn_many(centers, 8, metric, eps, return_metrics=True)
        want = plain.knn_many(centers, 8, metric, eps, return_metrics=True)
        assert got[0] == want[0]
        assert got[1].pages.tolist() == want[1].pages.tolist()
        assert got[1].charged_reads == want[1].charged_reads
        assert stale.soa_snapshot is None, "the snapshot was refreshed"
    monkeypatch.setattr(stale._soa_refresher, "refresh", refresh)
    assert stale.refresh_snapshot() is not None  # still kept, just stale


# ----------------------------------------------------------------------
# Deadlines: what a stopped frontier batch returns and bills
# ----------------------------------------------------------------------
class _Recording(soa_kernel.TopK):
    """A :class:`TopK` that keeps every candidate row offered to it."""

    made: list = []

    def __init__(self, n, k):
        super().__init__(n, k)
        self.offered = []
        _Recording.made.append(self)

    def merge(self, q, d, o):
        self.offered.append((q.copy(), d.copy(), o.copy()))
        super().merge(q, d, o)


def _charged(index):
    return index.io.random_reads + index.io.sequential_reads


def test_deadline_sweep_over_every_check(data, monkeypatch):
    idx = build_index("hybrid", np.concatenate([data] * 3), page_size=PAGE)
    idx.compile_snapshot()
    # Small blocks: the leaf scan runs in several, each one deadline check.
    monkeypatch.setattr(soa_kernel, "_BLOCK_ELEMS", 64 * DIMS)
    monkeypatch.setattr(soa_kernel, "TopK", _Recording)
    centers, k = _centers(data), 12

    _Recording.made.clear()
    full = Deadline(60.0)
    expected, expected_m = idx.knn_many(centers, k, L2, timeout=full, return_metrics=True)
    assert not isinstance(expected, PartialResult)
    assert len(_Recording.made) == 1  # one answer, which the probe fills too
    assert full.checks > 12

    for limit in range(full.checks):
        reads0 = _charged(idx)
        with pytest.raises(QueryTimeoutError):
            idx.knn_many(centers, k, L2, timeout=ExpiresAfter(limit))
        raised = _charged(idx) - reads0

        _Recording.made.clear()
        reads0 = _charged(idx)
        out, metrics = idx.knn_many(
            centers, k, L2, timeout=ExpiresAfter(limit), on_timeout="partial",
            return_metrics=True,
        )
        assert isinstance(out, PartialResult), limit
        assert not out.completed.any()
        assert raised == _charged(idx) - reads0 == metrics.charged_reads, limit
        # Each partial answer is its query's best k, by (distance, oid),
        # of the points the probe and the leaf scan scored before the stop.
        answer = _Recording.made[0]
        seen = [[] for _ in centers]
        for q, d, o in answer.offered:
            for qi, di, oi in zip(q.tolist(), d.tolist(), o.tolist()):
                seen[qi].append((di, oi))
        for qi, got in enumerate(out.results):
            assert got == [(o, d) for d, o in sorted(seen[qi])[:k]], (limit, qi)

    # A deadline that never fires gives the no-deadline answer and bill.
    out, metrics = idx.knn_many(
        centers, k, L2, timeout=ExpiresAfter(full.checks), return_metrics=True
    )
    assert out == expected
    assert metrics.pages.tolist() == expected_m.pages.tolist()
