"""Cache-sized row blocks in the SOA kernel.

The vectorized frontier masks and the distance leaf scan of
:mod:`repro.engine.soa.kernel` run in blocks of ``_BLOCK_ELEMS`` elements:
each parent's ``children x queries x dims`` broadcast is split along the
query axis, the leaf scan into ``_BLOCK_ELEMS // dims`` rows.  These tests
pin the two halves of that contract:

- blocks change only the schedule: with the block size shrunk until every
  parent's mask and distance leaf scan spans many blocks (down to one
  query or row per block), range and distance batches still match the
  object kernel's results, per-query pages and charged reads exactly, each
  parent's mask equals the unsplit run's and the per-pair rows, and a
  timeout that fires mid-scan salvages only real hits;
- blocks bound the memory: a COLHIST-like 64-d L1 distance batch, whose
  widest frontier level is ~10^5 pairs, no longer allocates one
  ``pairs x dims`` float64 temporary per level.

They also pin the frontier's two-stage masks: a float32 stage that may
only over-accept, and the exact test on its survivors.  Every group's
mask equals the exact grouped mask for every metric, with radii on and
one ulp either side of real pairs' exact bounds; the float32 boxes
follow a refresh; and on COLHIST-like 64-d data the float32 stage lets
through almost nothing the exact test rejects.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.engine.soa.kernel as soa_kernel
from repro.core import HybridTree
from repro.datasets import clustered_dataset
from repro.distances import (
    L1,
    L2,
    LINF,
    LpMetric,
    QuadraticFormMetric,
    UserMetric,
    WeightedEuclidean,
    round_out_f32,
)
from repro.engine.kernel import kernel_distance_range_many, kernel_range_search_many
from repro.engine.query import QueryBatch
from repro.eval.harness import build_index
from repro.geometry.rect import Rect
from repro.resilience import Deadline, PartialResult, QueryTimeoutError

# Every structure that compiles a snapshot, so its masks and distance
# leaf scans take the blocked vectorized path.
RECT_STRUCTURES = ("hybrid", "rtree", "xtree", "kdbtree")
DIMS = 4
METRICS = (L1, L2, LINF, WeightedEuclidean(np.linspace(0.5, 2.0, DIMS)))
# Small pages give every structure a third level, so the frontier has an
# inner level as well as the root's.
PAGE_SIZE = 512


def _quantized(n=900, seed=7):
    """Tie- and duplicate-heavy data: coordinates on a coarse lattice."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 6, size=(n, DIMS)) / 5.0).astype(np.float32)


def _workload(seed=11, count=10):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(count, DIMS)).astype(np.float32)
    lows = rng.integers(0, 4, size=(count, DIMS)) / 5.0
    return centers, [Rect(lo, lo + 0.4) for lo in lows]


@pytest.fixture
def block_log(monkeypatch, request):
    """Shrink the block to ``request.param`` elements and record every
    ``(rows, blocks)`` the kernel schedules."""
    monkeypatch.setattr(soa_kernel, "_BLOCK_ELEMS", request.param)
    log: list[tuple[int, int]] = []
    row_blocks = soa_kernel._row_blocks

    def spy(n_rows, dims):
        blocks = row_blocks(n_rows, dims)
        log.append((n_rows, len(blocks)))
        return blocks

    monkeypatch.setattr(soa_kernel, "_row_blocks", spy)
    return log


def _assert_same(soa, obj, what):
    (res_s, met_s), (res_o, met_o) = soa, obj
    assert res_s == res_o, f"{what}: results diverged"
    assert met_s.charged_reads == met_o.charged_reads, f"{what}: charged reads diverged"
    assert list(met_s.pages) == list(met_o.pages), f"{what}: pages diverged"


def _check_range_and_distance(index, centers, boxes):
    snap = index.compile_snapshot()
    soa = index.range_search_many(boxes, return_metrics=True)
    index.invalidate_snapshot()
    obj = kernel_range_search_many(
        index, QueryBatch.range(boxes, index.dims), return_metrics=True
    )
    index._soa_snapshot = snap
    _assert_same(soa, obj, "range")
    assert any(soa[0]), "range batch found no hits"
    for metric in METRICS:
        soa = index.distance_range_many(centers, 0.45, metric, return_metrics=True)
        index.invalidate_snapshot()
        obj = kernel_distance_range_many(
            index, QueryBatch.distance(centers, 0.45, metric, index.dims),
            return_metrics=True,
        )
        index._soa_snapshot = snap
        _assert_same(soa, obj, f"distance[{metric!r}]")
        assert any(soa[0]), f"distance[{metric!r}] batch found no hits"


def _assert_many_blocks(log):
    assert log, "no blocked pass ran"
    big = [(rows, blocks) for rows, blocks in log if rows > 1]
    assert big and all(blocks > 1 for _, blocks in big), log


# 1 element: one row per block.  13 elements at 4 dims: 3-row blocks, so
# most passes end in a short block.
@pytest.mark.parametrize("block_log", [1, 13], indirect=True)
@pytest.mark.parametrize("kind", RECT_STRUCTURES)
def test_blocks_match_object_kernel(kind, block_log):
    index = build_index(kind, _quantized(), page_size=PAGE_SIZE)
    centers, boxes = _workload()
    _check_range_and_distance(index, centers, boxes)
    _assert_many_blocks(block_log)


@pytest.mark.parametrize("block_log", [1], indirect=True)
@pytest.mark.parametrize("kind", ["hybrid", "rtree"])
def test_blocks_match_object_kernel_after_deletes(kind, block_log):
    data = _quantized(seed=3)
    index = build_index(kind, data, page_size=PAGE_SIZE)
    for oid in range(0, len(data), 3):
        assert index.delete(data[oid], oid)
    centers, boxes = _workload(seed=5)
    _check_range_and_distance(index, centers, boxes)
    _assert_many_blocks(block_log)


def _record_groups(monkeypatch):
    """Record every frontier group the kernel tests, as ``(predicate,
    first edge, live queries, mask)``, and how many query-axis blocks each
    rect group was cut into."""
    groups: list[tuple] = []
    splits: list[int] = []
    bounds_cls = soa_kernel._PairBounds
    by_query = bounds_cls._by_query

    def spy_by_query(self, fn, n_edges, live):
        splits.append(len(soa_kernel._row_blocks(len(live), n_edges * self.snap.dims)))
        return by_query(self, fn, n_edges, live)

    def recorder(name):
        predicate = getattr(bounds_cls, name)

        def spy(self, first_edge, n_edges, live, *args):
            mask = predicate(self, first_edge, n_edges, live, *args)
            assert mask.dtype == bool and mask.shape == (n_edges, len(live))
            groups.append((name, first_edge, live.copy(), mask.copy()))
            return mask

        return spy

    monkeypatch.setattr(bounds_cls, "_by_query", spy_by_query)
    for name in ("box_mask", "distance_mask"):
        monkeypatch.setattr(bounds_cls, name, recorder(name))
    return groups, splits


def _batches(index, centers, boxes, groups):
    """A range batch and one distance batch per metric; per batch, its
    result with metrics and the groups it tested (moved out of ``groups``)."""
    calls = [lambda: index.range_search_many(boxes, return_metrics=True)] + [
        lambda m=metric: index.distance_range_many(centers, 0.3, m, return_metrics=True)
        for metric in METRICS
    ]
    runs = []
    for call in calls:
        runs.append((call(), list(groups)))
        groups.clear()
    return runs


def _pair_reference(snap, group, batch):
    """The group's mask from per-pair rows, as the frontier computed it
    before it grouped by parent: one gathered box row and query row per
    ``(edge, query)`` pair, edge-major."""
    name, first_edge, live, mask = group
    n_edges, n_live = mask.shape
    i, j = np.divmod(np.arange(n_edges * n_live), n_live)
    e, q = first_edge + i, live[j]
    if name == "box_mask":
        rows = np.all(
            (batch.lows[q] <= snap.box_high[e]) & (snap.box_low[e] <= batch.highs[q]),
            axis=1,
        )
    else:
        rows = batch.metric.pair_mindist(
            batch.centers[q], snap.box_low[e], snap.box_high[e]
        ) <= batch.radii[q]
    return rows.reshape(n_edges, n_live)


# 1 element: one query per block.  256 elements at 4 dims: a 23-child
# root takes 2 queries per block and a 10-child parent 6, so most groups
# end in a short block.
@pytest.mark.parametrize("block_elems", [1, 256])
@pytest.mark.parametrize("page_size", [PAGE_SIZE, 4096])
@pytest.mark.parametrize("kind", ["hybrid", "rtree", "kdbtree"])
def test_parent_groups_split_along_query_axis(kind, page_size, block_elems, monkeypatch):
    # 4096-byte pages give one wide parent (the root); 512-byte pages
    # give ~10-26 parents of 2-38 children each, many of them tiny groups.
    index = build_index(kind, clustered_dataset(3000, DIMS, seed=4), page_size=page_size)
    snap = index.compile_snapshot()
    centers, boxes = _workload(seed=13, count=24)
    batches = [QueryBatch.range(boxes, DIMS)] + [
        QueryBatch.distance(centers, 0.3, metric, DIMS) for metric in METRICS
    ]
    groups, splits = _record_groups(monkeypatch)
    whole = _batches(index, centers, boxes, groups)
    assert splits and max(splits) == 1, "the default block should hold every group"
    splits.clear()
    monkeypatch.setattr(soa_kernel, "_BLOCK_ELEMS", block_elems)
    split = _batches(index, centers, boxes, groups)
    assert max(splits) > 1, "no group was split along the query axis"
    if page_size == PAGE_SIZE:
        assert len(split[0][1]) > 5, "expected many small parents"

    index.invalidate_snapshot()
    obj = [kernel_range_search_many(index, batches[0], return_metrics=True)] + [
        kernel_distance_range_many(index, b, return_metrics=True) for b in batches[1:]
    ]
    for batch, (s_run, s_groups), (w_run, w_groups), o_run in zip(batches, split, whole, obj):
        what = f"{batch.kind}[{batch.metric!r}]"
        # The split run tests the same groups and gets the same masks, and
        # each mask is the per-pair rows' verdicts, edge-major.
        assert len(s_groups) == len(w_groups), what
        for (n1, e1, l1, m1), (n2, e2, l2, m2) in zip(s_groups, w_groups):
            assert (n1, e1) == (n2, e2), what
            assert np.array_equal(l1, l2) and np.array_equal(m1, m2), what
            assert np.array_equal(m1, _pair_reference(snap, (n1, e1, l1, m1), batch)), what
        # Same results, pages and charged reads as the unsplit run and
        # the object kernel.
        _assert_same(s_run, w_run, f"{what} split vs whole")
        _assert_same(s_run, o_run, f"{what} split vs object kernel")
        assert any(s_run[0]), f"{what} found no hits"


ALL_METRICS = METRICS + (
    LpMetric(3.0),
    QuadraticFormMetric(np.diag(np.linspace(1.0, 3.0, DIMS)) + 0.2),
    UserMetric(lambda a, b: float(np.abs(a - b).sum())),
)
CERTIFIED = METRICS


def _record_refines(monkeypatch):
    """Record ``(candidates, survivors, pairs)`` of every second stage."""
    stages: list[tuple[int, int, int]] = []
    refine = soa_kernel._refine

    def spy(cand, exact):
        n_cand, n_pairs = int(cand.sum()), cand.size
        mask = refine(cand, exact)
        stages.append((n_cand, int(mask.sum()), n_pairs))
        return mask

    monkeypatch.setattr(soa_kernel, "_refine", spy)
    return stages


def _band_radii(snap, metric, centers, rng):
    """Per query, the positive exact bound of one of the root's children
    (of any edge where the query is inside every root child), in thirds:
    the bound itself, one ulp below it and one ulp above it, so pairs fall
    inside the float32 stage's recheck band on both sides of the radius."""
    low, high = snap.box_low, snap.box_high
    qs = centers.astype(np.float64)
    bounds = metric.pair_mindist(qs[None], low[:, None], high[:, None])
    root = slice(snap.child_start[0], snap.child_start[1])
    radii = np.empty(len(qs))
    for j in range(len(qs)):
        positive = np.flatnonzero(bounds[root, j] > 0)
        if not positive.size:
            positive = np.flatnonzero(bounds[:, j] > 0)
        r = bounds[rng.choice(positive), j]
        radii[j] = (r, np.nextafter(r, 0.0), np.nextafter(r, np.inf))[j % 3]
    return radii


@pytest.mark.parametrize("block_elems", [1, 256])
@pytest.mark.parametrize("page_size", [PAGE_SIZE, 4096])
@pytest.mark.parametrize("kind", ["hybrid", "rtree", "kdbtree"])
def test_float32_stage_masks_equal_exact_masks(kind, page_size, block_elems, monkeypatch):
    # Small enough that one-element blocks (which also cut the leaf scan
    # to one row per block) stay cheap.
    index = build_index(kind, clustered_dataset(1500, DIMS, seed=4), page_size=page_size)
    snap = index.compile_snapshot()
    centers, _ = _workload(seed=17, count=15)
    rng = np.random.default_rng(5)
    monkeypatch.setattr(soa_kernel, "_BLOCK_ELEMS", block_elems)
    groups, _ = _record_groups(monkeypatch)
    stages = _record_refines(monkeypatch)
    low, high = snap.box_low, snap.box_high
    for metric in ALL_METRICS:
        radii = _band_radii(snap, metric, centers, rng)
        batch = QueryBatch.distance(centers, radii, metric, DIMS)
        groups.clear()
        stages.clear()
        soa = index.distance_range_many(centers, radii, metric, return_metrics=True)
        assert groups, repr(metric)
        for _, e0, live, mask in groups:
            rows = slice(e0, e0 + mask.shape[0])
            qs = batch.centers[live]
            exact = metric.pair_mindist(qs[None], low[rows, None], high[rows, None])
            assert np.array_equal(mask, exact <= batch.radii[live]), repr(metric)
        if metric in CERTIFIED:
            assert len(stages) >= len(groups), repr(metric)
            # The recheck ran on candidates the exact test rejected.
            assert sum(c - s for c, s, _ in stages) > 0, repr(metric)
        else:
            assert not stages, f"{metric!r} has no certificate"
        index.invalidate_snapshot()
        obj = kernel_distance_range_many(index, batch, return_metrics=True)
        index._soa_snapshot = snap
        _assert_same(soa, obj, f"distance[{metric!r}]")
        assert any(soa[0]), f"{metric!r} found no hits"


def test_float32_stage_boxes_follow_refresh():
    data = clustered_dataset(2000, DIMS, seed=8)
    tree = HybridTree.bulk_load(data, page_size=PAGE_SIZE)
    tree.compile_snapshot()
    centers, _ = _workload(seed=3, count=12)
    tree.distance_range_many(centers, 0.3, L1)
    old = tree.soa_snapshot
    old_low32, _ = old.dist_boxes32()
    # Points outside the data space widen the root's children's boxes.
    outside = 1.5 + np.arange(30, dtype=np.float32)[:, None] / 30 + np.zeros(DIMS, np.float32)
    for i, point in enumerate(outside):
        tree.insert(point, len(data) + i)
    snap = tree.refresh_snapshot()
    assert snap is not old
    assert getattr(snap, "_dist_boxes32", None) is None, "float32 boxes carried over"
    low32, high32 = snap.dist_boxes32()
    want_low, want_high = round_out_f32(snap.box_low, snap.box_high)
    assert low32.dtype == high32.dtype == np.float32
    assert np.array_equal(low32, want_low) and np.array_equal(high32, want_high)
    assert low32.shape != old_low32.shape or not np.array_equal(low32, old_low32)
    assert snap.dist_boxes32()[0] is low32, "not cached"

    soa = tree.distance_range_many(centers, 0.3, L1, return_metrics=True)
    batch = QueryBatch.distance(centers, 0.3, L1, DIMS)
    tree.invalidate_snapshot()
    _assert_same(soa, kernel_distance_range_many(tree, batch, return_metrics=True), "refreshed")


def test_float32_stage_prunes_nearly_every_failing_pair(monkeypatch):
    # The float32 stage only saves work if its margin is tight: on
    # COLHIST-like 64-d data, one 64-query L1 batch, it may let through
    # at most 0.5% of the pairs tested beyond those the exact test keeps.
    data = clustered_dataset(20000, 64, seed=0)
    tree = HybridTree.bulk_load(data)
    tree.compile_snapshot()
    queries = data[np.random.default_rng(1).choice(len(data), 64, replace=False)]
    points = data.astype(np.float64)
    radii = np.array(
        [np.partition(np.abs(points - q).sum(axis=1), 40)[40] for q in queries.astype(np.float64)]
    )
    stages = _record_refines(monkeypatch)
    tree.distance_range_many(queries, radii, L1)
    candidates, survivors, pairs = map(sum, zip(*stages))
    assert pairs > 10_000
    assert survivors <= candidates
    assert candidates <= survivors + 0.005 * pairs, (candidates, survivors, pairs)
    # ... and it does prune: most pairs fail the exact test.
    assert survivors < 0.5 * pairs


class _FiresAtCheck(Deadline):
    """An untimed budget that expires at its ``fire_at``-th check."""

    def __init__(self, fire_at: float):
        super().__init__(None)
        self.fire_at = fire_at

    def check(self) -> None:
        super().check()
        if self.checks >= self.fire_at:
            raise QueryTimeoutError("deadline fired", timeout=0.0, elapsed=0.0)


@pytest.mark.parametrize("block_log", [13], indirect=True)
@pytest.mark.parametrize("kind", ["hybrid", "rtree"])
def test_mid_scan_timeout_salvages_real_hits(kind, block_log):
    index = build_index(kind, _quantized(), page_size=PAGE_SIZE)
    index.compile_snapshot()
    centers, _ = _workload(count=16)
    counter = _FiresAtCheck(np.inf)
    full = index.distance_range_many(centers, 0.45, L2, timeout=counter)
    # The leaf scan is the last blocked pass, with one check per block.
    scan_checks = block_log[-1][1]
    assert scan_checks > 2, "the leaf scan should span several blocks"
    # Fire halfway through the leaf scan's blocks: the frontier and the
    # first blocks have run, the rest never do.
    fire_at = counter.checks - scan_checks // 2
    part = index.distance_range_many(
        centers, 0.45, L2, timeout=_FiresAtCheck(fire_at), on_timeout="partial"
    )
    assert isinstance(part, PartialResult) and not part.complete
    salvaged = sum(map(len, part.results))
    assert 0 < salvaged < sum(map(len, full))
    # Blocks follow each query's own hit order, so what was salvaged is a
    # prefix of the full answer: real hits with their exact distances.
    for got, want in zip(part.results, full):
        assert got == want[: len(got)]


def test_distance_batch_memory_is_bounded():
    data = clustered_dataset(20000, 64, seed=0)
    tree = HybridTree.bulk_load(data)
    tree.compile_snapshot()
    queries = data[np.random.default_rng(1).choice(len(data), 64, replace=False)]
    queries = queries.astype(np.float64)
    points = data.astype(np.float64)
    # Each radius is the query's 41st-smallest L1 distance.
    radii = np.array(
        [np.partition(np.abs(points - q).sum(axis=1), 40)[40] for q in queries]
    )
    tracemalloc.start()
    try:
        results, metrics = tree.distance_range_many(
            queries, radii, L1, return_metrics=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One unblocked pass peaked at ~128 MB; 2**20-element blocks at ~33 MB.
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    tree.invalidate_snapshot()
    want, want_metrics = kernel_distance_range_many(
        tree, QueryBatch.distance(queries, radii, L1, tree.dims), return_metrics=True
    )
    assert results == want
    assert list(metrics.pages) == list(want_metrics.pages)
    assert metrics.charged_reads == want_metrics.charged_reads
    for q, radius, hits in zip(queries, radii, results):
        exact = np.flatnonzero(np.abs(points - q).sum(axis=1) <= radius)
        assert sorted(oid for oid, _ in hits) == exact.tolist()
