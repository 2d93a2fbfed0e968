"""The intranode step of the single-query methods, and their page bills.

``HybridTree.range_search``, ``distance_range`` and ``knn`` are the
traversal kernel's batch of one, whose ``trav_children`` block is the
node's cached arrays; ``nearest_iter`` runs its own best-first search.
Each tests all children of an index node in one array step, over the
children's ids, kd regions and ELS boxes that the decoded node caches
(``HybridTree._child_boxes``).  These tests pin:

- both array helpers (``kdnodes.leaf_region_arrays`` and
  ``ELSTable.effective_boxes``) equal their scalar forms bit for bit on
  random kd-trees and ELS tables;
- every query kind answers like a numpy brute force and like the object
  kernel's batch of one, with equal charged reads per query: in memory,
  through an 8-page buffer (which evicts nodes, so caches are rebuilt)
  and over mmap;
- the single-query bills: each range, distance (L1, L2, weighted),
  point and k-NN (L1, L2, weighted; exact and ``eps = 0.5``) query's
  result, order included, equals the recursion those methods once ran
  (depth-first, and best-first for k-NN), and its charged reads over a
  fixed query stream equal constants measured with that recursion,
  through an 8-page buffer and through the default cache; a single query
  equals the batch of one with and without an attached snapshot, and a
  k-NN batch of one runs the object kernel's heap search even on a
  snapshot, on the hB-tree's shared pages too, and returns the best k so
  far when its deadline fires;
- a cached entry never outlives what it was derived from: after a leaf
  split, root growth, an insert outside the data space, a delete down to
  underflow-and-reinsert, a failed insert and a WAL-replayed open, every
  cached entry equals a fresh derivation and the answers stay exact.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import threading

import numpy as np
import pytest

from repro.baselines.hbtree import HBTree
from repro.core import HybridTree, kdnodes
from repro.core.els import ELSTable
from repro.core.nodes import IndexNode
from repro.datasets.synthetic import clustered_dataset
from repro.distances import (
    L1,
    L2,
    LINF,
    QuadraticFormMetric,
    UserMetric,
    WeightedEuclidean,
)
from repro.engine.kernel import (
    kernel_distance_range_many,
    kernel_knn_many,
    kernel_range_search_many,
)
from repro.engine.query import QueryBatch
from repro.engine.soa import kernel as soa_kernel
from repro.geometry.rect import Rect
from repro.resilience import PartialResult
from tests import kd_reference as ref
from tests.conftest import ExpiresAfter
from tests.kd_reference import KDInternal, KDLeaf

DIMS = 4
PAGE = 512  # 23 points per leaf, 27 children per index node
K = 7
METRICS = {
    "L1": L1,
    "L2": L2,
    "Linf": LINF,
    "weighted": WeightedEuclidean(np.linspace(0.5, 2.0, DIMS)),
    "quadratic": QuadraticFormMetric(np.eye(DIMS) + 0.3 * np.ones((DIMS, DIMS))),
    "user": UserMetric(lambda a, b: float(np.abs(a - b).sum() ** 0.5), None),
}


# ----------------------------------------------------------------------
# The array helpers against their scalar forms
# ----------------------------------------------------------------------
def _random_kd(rng, ids: list[int], dims: int):
    """A random kd-tree over ``ids``: splits anywhere in [-0.5, 1.5] (so
    some fall outside the region), about a third of them clean."""
    if len(ids) == 1:
        return KDLeaf(ids[0])
    cut = int(rng.integers(1, len(ids)))
    rsp, lsp = sorted(rng.uniform(-0.5, 1.5, 2))
    if rng.random() < 0.3:
        rsp = lsp
    return KDInternal(
        int(rng.integers(dims)), lsp, rsp,
        _random_kd(rng, ids[:cut], dims), _random_kd(rng, ids[cut:], dims),
    )


def _random_region(rng, dims: int) -> Rect:
    low = rng.uniform(0.0, 0.5, dims)
    high = low + rng.uniform(0.0, 0.5, dims)
    flat = rng.random(dims) < 0.2  # zero-extent sides
    high[flat] = low[flat]
    return Rect(low, high)


def _scalar_quantize(live: Rect, region: Rect, bits: int) -> Rect:
    """The ELS quantizer of paper Section 3.4, one box at a time."""
    if bits == 0:
        return region
    cells = float(1 << bits)
    extent = region.high - region.low
    safe = np.where(extent > 0, extent, 1.0)
    lo_cell = np.clip(np.floor((live.low - region.low) / safe * cells), 0, cells)
    hi_cell = np.clip(np.ceil((live.high - region.low) / safe * cells), lo_cell, cells)
    low = np.minimum(region.low + lo_cell / cells * extent, live.low)
    high = np.maximum(region.low + hi_cell / cells * extent, live.high)
    return Rect(np.maximum(low, region.low), np.minimum(high, region.high))


def _scalar_effective(table: ELSTable, node_id: int, region: Rect) -> Rect:
    if not table.enabled or table.get(node_id) is None:
        return region
    clipped = table.get(node_id).intersection(region)
    if clipped is None:  # a stale live box outside the region
        return region
    return _scalar_quantize(clipped, region, table.bits)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_leaf_region_arrays_equal_the_scalar_mapping():
    rng = np.random.default_rng(0)
    for _ in range(300):
        dims = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        kd = _random_kd(rng, list(range(n)), dims)
        region = _random_region(rng, dims)
        ids, low, high = kdnodes.leaf_region_arrays(
            ref.split_table(kd), region.low, region.high
        )
        scalar = list(ref.leaves_with_regions(kd, region))
        assert ids.tolist() == [leaf.child_id for leaf, _ in scalar]
        for i, (_, leaf_region) in enumerate(scalar):
            assert _same_bits(low[i], leaf_region.low)
            assert _same_bits(high[i], leaf_region.high)


@pytest.mark.parametrize("bits", [0, 1, 4, 16])
def test_effective_boxes_equal_the_scalar_rect(bits):
    rng = np.random.default_rng(bits)
    for _ in range(300):
        dims = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        kd = _random_kd(rng, list(range(n)), dims)
        region = _random_region(rng, dims)
        ids, low, high = kdnodes.leaf_region_arrays(
            ref.split_table(kd), region.low, region.high
        )
        table = ELSTable(dims, bits)
        for i, node_id in enumerate(ids.tolist()):
            kind = rng.random()
            if kind < 0.2:
                continue  # no entry: the region itself
            if kind < 0.35:
                # A stale live box disjoint from the region.
                corner = high[i] + 1.0 + rng.random(dims)
                table.set(node_id, Rect(corner, corner + rng.random(dims)))
            elif kind < 0.45:
                point = rng.uniform(low[i], high[i])
                table.set(node_id, Rect(point, point))
            else:
                a, b = rng.uniform(low[i] - 0.1, high[i] + 0.1, (2, dims))
                table.set(node_id, Rect(np.minimum(a, b), np.maximum(a, b)))
        box_low, box_high = table.effective_boxes(ids, low, high)
        for i, node_id in enumerate(ids.tolist()):
            region = Rect(low[i], high[i])
            expected = _scalar_effective(table, node_id, region)
            assert _same_bits(box_low[i], expected.low)
            assert _same_bits(box_high[i], expected.high)
            single = table.effective_rect(node_id, region)
            assert _same_bits(single.low, expected.low)
            assert _same_bits(single.high, expected.high)


# ----------------------------------------------------------------------
# Answers and charged reads, per storage mode
# ----------------------------------------------------------------------
def _reads(tree) -> int:
    return tree.io.random_reads + tree.io.sequential_reads


def _measured(tree, run):
    """``run()`` and the page reads it charged.  A tree with a bounded
    buffer starts each call cold, so a single query and a batch of one
    fault the same pages (and every cached child box is rebuilt)."""
    if tree.nm.max_cached is not None:
        tree.nm.flush()
        tree.nm.evict_all()
    before = _reads(tree)
    out = run()
    return out, _reads(tree) - before


def _model_arrays(model: dict):
    oids = np.array(sorted(model), dtype=np.int64)
    rows = np.array([model[o] for o in oids], dtype=np.float64).reshape(-1, DIMS)
    return oids, rows


def _queries(rng, rows, n_boxes=8, n_centers=4):
    boxes = []
    for _ in range(n_boxes):
        side = rng.uniform(0.15, 0.5, DIMS)
        low = rng.uniform(0.0, 1.0, DIMS) * (1.0 - side)
        boxes.append(Rect(low, low + side))
    inf = np.inf
    boxes.append(Rect([0.3, -inf, -inf, 0.2], [inf, 0.6, inf, inf]))  # half-open
    boxes.append(Rect(np.full(DIMS, 5.0), np.full(DIMS, 6.0)))  # misses everything
    picks = rows[rng.choice(len(rows), n_centers, replace=False)]
    centers = np.vstack([picks + rng.normal(0, 0.02, picks.shape), np.full((1, DIMS), 2.0)])
    return boxes, centers.astype(np.float32).astype(np.float64)


def _check_range(tree, oids, rows, boxes):
    for box in boxes:
        got, reads = _measured(tree, lambda: tree.range_search(box))
        inside = np.all((rows >= box.low) & (rows <= box.high), axis=1)
        assert sorted(got) == oids[inside].tolist()
        (batch,), batch_reads = _measured(
            tree, lambda: kernel_range_search_many(tree, QueryBatch.range([box], DIMS))
        )
        assert got == batch and reads == batch_reads


def _check_distance(tree, oids, rows, centers, metrics):
    for metric in metrics:
        for q in centers:
            d = metric.distance_batch(rows, q)
            radius = float(np.sort(d)[min(15, len(d) - 1)])
            got, reads = _measured(tree, lambda: tree.distance_range(q, radius, metric))
            hits = np.flatnonzero(d <= radius)
            assert sorted(got) == [(int(oids[i]), float(d[i])) for i in hits]
            (batch,), batch_reads = _measured(
                tree,
                lambda: kernel_distance_range_many(
                    tree, QueryBatch.distance([q], radius, metric, DIMS)
                ),
            )
            assert got == batch and reads == batch_reads


def _check_knn(tree, oids, rows, centers, metrics, eps=0.0):
    for metric in metrics:
        for q in centers:
            got, reads = _measured(tree, lambda: tree.knn(q, K, metric, eps))
            d = metric.distance_batch(rows, q)
            order = np.lexsort((oids, d))[:K]
            if eps == 0.0:
                assert got == [(int(oids[i]), float(d[i])) for i in order]
            else:
                assert len(got) == min(K, len(oids))
                assert all(dist <= (1 + eps) * d[order[-1]] for _, dist in got)
            (batch,), batch_reads = _measured(
                tree,
                lambda: kernel_knn_many(tree, QueryBatch.knn([q], K, metric, eps, DIMS)),
            )
            assert got == batch and reads == batch_reads


def _check_nearest_iter(tree, oids, rows, centers, metrics, n=25):
    for metric in metrics:
        for q in centers:
            it = tree.nearest_iter(q, metric)
            got = [next(it) for _ in range(min(n, len(oids)))]
            d = metric.distance_batch(rows, q)
            order = np.lexsort((oids, d))
            assert [dist for _, dist in got] == [float(d[i]) for i in order[: len(got)]]
            # The order of equal distances is the heap's; the set is not.
            cut = len(got) - 1
            if cut + 1 == len(d) or d[order[cut]] < d[order[cut + 1]]:
                assert sorted(o for o, _ in got) == sorted(oids[order[: len(got)]].tolist())


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(3000, DIMS, seed=0)


@pytest.fixture(scope="module")
def saved(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("intranode") / "tree.pages"
    HybridTree.bulk_load(data, page_size=PAGE).save(path)
    return path


def _open(mode, data, path):
    if mode == "memory":
        return HybridTree.bulk_load(data, page_size=PAGE)
    if mode == "buffer8":
        return HybridTree.open(path, buffer_pages=8)
    return HybridTree.open(path, mmap=True)


@pytest.mark.parametrize("mode", ["memory", "buffer8", "mmap"])
def test_single_queries_equal_brute_force_and_batch_of_one(mode, data, saved):
    tree = _open(mode, data, saved)
    assert tree.height >= 3 and tree.soa_snapshot is None
    oids, rows = _model_arrays(dict(enumerate(data)))
    boxes, centers = _queries(np.random.default_rng(7), rows)
    _check_range(tree, oids, rows, boxes)
    _check_distance(tree, oids, rows, centers, METRICS.values())
    _check_knn(tree, oids, rows, centers, METRICS.values())
    _check_knn(tree, oids, rows, centers, [L1, L2, METRICS["quadratic"]], eps=0.5)
    _check_nearest_iter(tree, oids, rows, centers, [L2, LINF, METRICS["user"]])
    tree.close()


def _scalar_nearest_iter(tree, q, metric):
    """Distance browsing with a ``Rect`` per child, walked in kd order."""
    counter = itertools.count()
    heap = [(0.0, next(counter), 1, (tree.root_id, tree.bounds))]
    while heap:
        key, _, kind, payload = heapq.heappop(heap)
        if kind == 0:
            yield payload, key
            continue
        node = tree.nm.get(payload[0], charge=False)
        if not isinstance(node, IndexNode):
            dists = metric.distance_batch(node.points().astype(np.float64), q)
            for oid, dist in zip(node.live_oids().tolist(), dists.tolist()):
                heapq.heappush(heap, (dist, next(counter), 0, oid))
            continue
        for child_id, region in node.children_with_regions(payload[1]):
            box = tree.els.effective_rect(child_id, region)
            bound = metric.mindist_rect(q, box.low, box.high)
            heapq.heappush(heap, (bound, next(counter), 1, (child_id, region)))


def test_ties_follow_kd_order():
    """On a coarse grid, bounds and distances tie everywhere: the children
    of a node must be pushed in kd order for the heap to pop ties (and
    approximate k-NN to stop) where the batch kernel does."""
    rng = np.random.default_rng(2)
    grid = (rng.integers(0, 5, (1500, DIMS)) / 4).astype(np.float32)
    tree = HybridTree.bulk_load(grid, page_size=PAGE)
    oids, rows = _model_arrays(dict(enumerate(grid)))
    centers = np.vstack([rows[:6], rows[6:12] + 0.125])
    boxes = [Rect(c - 0.25, c + 0.25) for c in centers]
    _check_range(tree, oids, rows, boxes)
    _check_distance(tree, oids, rows, centers, [L1, LINF])
    _check_knn(tree, oids, rows, centers, [L1, L2, LINF])
    for eps in (0.5, 2.0):
        _check_knn(tree, oids, rows, centers, [L1, LINF], eps=eps)
    for q in centers:
        for metric in (L1, METRICS["quadratic"]):
            got = itertools.islice(tree.nearest_iter(q, metric), 60)
            want = itertools.islice(_scalar_nearest_iter(tree, q, metric), 60)
            assert list(got) == list(want)


def test_threads_share_cached_boxes(data):
    """Thread-mode sessions share decoded nodes: threads that race to build
    and read the same nodes' child boxes still answer exactly."""
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    oids, rows = _model_arrays(dict(enumerate(data)))
    boxes, centers = _queries(np.random.default_rng(11), rows, 12, 6)
    want_range = [
        oids[np.all((rows >= b.low) & (rows <= b.high), axis=1)].tolist() for b in boxes
    ]
    want_knn = []
    for q in centers:
        d = L2.distance_batch(rows, q)
        want_knn.append([(int(oids[i]), float(d[i])) for i in np.lexsort((oids, d))[:K]])
    errors: list[BaseException] = []

    def worker(seed: int, start: threading.Barrier) -> None:
        order = np.random.default_rng(seed).permutation(len(boxes))
        try:
            start.wait(timeout=30)
            for i in order.tolist():
                assert sorted(tree.range_search(boxes[i])) == want_range[i]
                j = i % len(centers)
                assert tree.knn(centers[j], K, L2) == want_knn[j]
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            stack = [tree.root_id]
            while stack:  # drop every cache: the threads rebuild them at once
                node = tree.nm.get(stack.pop(), charge=False)
                if isinstance(node, IndexNode):
                    node.child_boxes = None
                    stack.extend(node.child_ids())
            start = threading.Barrier(6)
            threads = [
                threading.Thread(target=worker, args=(10 * round_ + t, start))
                for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]


def test_nan_box_corners_are_rejected_by_every_engine(data):
    tree = HybridTree.bulk_load(data[:500], page_size=PAGE)
    nan_box = Rect([np.nan, 0, 0, 0], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="NaN"):
        tree.range_search(nan_box)
    with pytest.raises(ValueError, match="NaN"):
        tree.range_search_many([Rect.unit(DIMS), nan_box])  # object kernel
    tree.compile_snapshot()
    with pytest.raises(ValueError, match="NaN"):
        tree.range_search_many([nan_box])  # SOA kernel
    with pytest.raises(ValueError, match="NaN"):
        tree.range_search(Rect([0, 0, 0, 0], [1, np.nan, 1, 1]))
    # Infinite corners stay legal: a half-open box answers exactly.
    half_open = Rect([-np.inf, 0.5, -np.inf, -np.inf], [np.inf, np.inf, 0.5, np.inf])
    rows = data[:500].astype(np.float64)
    expected = np.flatnonzero((rows[:, 1] >= 0.5) & (rows[:, 2] <= 0.5)).tolist()
    assert sorted(tree.range_search(half_open)) == expected
    assert sorted(tree.range_search_many([half_open])[0]) == expected
    tree.invalidate_snapshot()
    assert sorted(tree.range_search_many([half_open])[0]) == expected


# ----------------------------------------------------------------------
# Invalidation: a cached entry never outlives what it was derived from
# ----------------------------------------------------------------------
EVERYTHING = Rect(np.full(DIMS, -10.0), np.full(DIMS, 10.0))


def _assert_cache_fresh(tree):
    """Every index node's child boxes, as a query would get them, equal a
    derivation from scratch."""
    checked = 0
    stack = [(tree.root_id, tree.bounds.low, tree.bounds.high)]
    while stack:
        node_id, low, high = stack.pop()
        node = tree.nm.get(node_id, charge=False)
        if not isinstance(node, IndexNode):
            continue
        kids = tree._child_boxes(node, low, high)
        ids, reg_low, reg_high = kdnodes.leaf_region_arrays(node.table, low, high)
        fresh = (ids, reg_low, reg_high, *tree.els.effective_boxes(ids, reg_low, reg_high))
        for got, want in zip(kids[1:], fresh):
            assert _same_bits(got, want)
        checked += 1
        stack.extend(zip(ids.tolist(), reg_low, reg_high))
    return checked


def _check_after_write(tree, model, what):
    assert _assert_cache_fresh(tree) or tree.height == 1, what
    oids, rows = _model_arrays(model)
    boxes, centers = _queries(np.random.default_rng(len(model)), rows, 4, 2)
    boxes.append(EVERYTHING)
    _check_range(tree, oids, rows, boxes)
    _check_distance(tree, oids, rows, centers, [L1])
    _check_knn(tree, oids, rows, centers, [L2])


def _warm(tree):
    """Query the whole space: every reachable index node caches its boxes."""
    tree.range_search(EVERYTHING)


def _writable(mode, data, tmp_path):
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    if mode == "memory":
        return tree
    tree.save(tmp_path / "tree.pages")
    return HybridTree.open(tmp_path / "tree.pages", buffer_pages=8)


@pytest.mark.parametrize("mode", ["memory", "buffer8"])
def test_cached_boxes_follow_every_write(mode, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    points = clustered_dataset(2000, DIMS, clusters=4, seed=5)
    model = {oid: points[oid] for oid in range(20)}
    tree = _writable(mode, points[:20], tmp_path)
    assert tree.height == 1
    events = {"split": 0, "remove": 0}
    for name in ("_split_data_node", "_remove_child"):
        method = getattr(HybridTree, name)

        def counted(self, *args, _method=method, _key=name):
            events["split" if _key == "_split_data_node" else "remove"] += 1
            return _method(self, *args)

        monkeypatch.setattr(HybridTree, name, counted)

    # Leaf splits, then root growth (twice), each checked right after.
    oid, heights = 20, {1}
    while tree.height < 3:
        _warm(tree)
        splits, height = events["split"], tree.height
        tree.insert(points[oid], oid)
        model[oid] = points[oid]
        oid += 1
        if tree.height != height:
            heights.add(tree.height)
            _check_after_write(tree, model, f"root growth to height {tree.height}")
        elif events["split"] != splits and events["split"] < 4:
            _check_after_write(tree, model, "leaf split")
    assert heights == {1, 2, 3}

    # An insert outside the data space: the root region grows.
    _warm(tree)
    outside = np.array([1.5, -0.25, 0.5, 0.5], dtype=np.float32)
    tree.insert(outside, oid)
    model[oid] = outside
    oid += 1
    assert tree.bounds.high[0] == np.float32(1.5) and tree.bounds.low[1] < 0
    _check_after_write(tree, model, "insert outside the bounds")

    # Deletes from one leaf until it underflows and is reinserted.
    leaf_points = None
    stack = [tree.root_id]
    while leaf_points is None:
        node = tree.nm.get(stack.pop(), charge=False)
        if isinstance(node, IndexNode):
            stack.extend(node.child_ids())
        elif node.count:
            leaf_points = list(zip(node.live_oids().tolist(), node.points().copy()))
    for victim, point in leaf_points:
        _warm(tree)
        assert tree.delete(point, victim)
        del model[victim]
        if events["remove"]:
            break
    assert events["remove"], "no delete reached an underflow"
    _check_after_write(tree, model, "underflow and reinsert")
    tree.validate()

    # ELS writes alone: a live box grown to its region's corner, then
    # every box tightened again.
    _warm(tree)
    root = tree.nm.get(tree.root_id, charge=False)
    first, region = root.children_with_regions(tree.bounds)[0]
    tree.els.merge_point(first, region.high)
    _check_after_write(tree, model, "grown live box")
    _warm(tree)
    tree.rebuild_els()
    _check_after_write(tree, model, "rebuild_els")

    # A page write alone: a widened kd path, as reinsertion writes it.
    _warm(tree)
    (first, region), (_, other) = root.children_with_regions(tree.bounds)[:2]
    assert not region.contains_rect(other)
    tree._widen_child(tree.root_id, root, tree.bounds, first, other.low, other.high)
    _check_after_write(tree, model, "widened kd path")

    # A failed insert: the split publishes a parent's new table, after a
    # concurrent reader cached every node's boxes, and then raises.
    def broken_split(self, path, node_id, node, vector, new_oid):
        self.range_search(EVERYTHING)
        parent_id, parent, region = path[-1]
        row = kdnodes.row_of(parent.table, node_id)
        parent.table = kdnodes.widen(parent.table, row, region.low, region.high)
        raise RuntimeError("split failed")

    monkeypatch.setattr(HybridTree, "_split_data_node", broken_split)
    with pytest.raises(RuntimeError, match="split failed"):
        for new_oid in range(oid, len(points)):
            tree.insert(points[new_oid], new_oid)
            model[new_oid] = points[new_oid]
    monkeypatch.undo()
    _check_after_write(tree, model, "failed insert")
    tree.close()


def test_cache_key_names_the_region(data):
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    root = tree.nm.get(tree.root_id, charge=False)
    kids = tree._child_boxes(root, tree.bounds.low, tree.bounds.high)
    assert tree._child_boxes(root, tree.bounds.low, tree.bounds.high) is kids
    assert not kids.box_low.flags.writeable and not kids.ids.flags.writeable
    low, high = tree.bounds.low + 0.25, tree.bounds.high - 0.25
    shrunk = tree._child_boxes(root, low, high)
    ids, reg_low, reg_high = kdnodes.leaf_region_arrays(root.table, low, high)
    fresh = (ids, reg_low, reg_high, *tree.els.effective_boxes(ids, reg_low, reg_high))
    for got, want in zip(shrunk[1:], fresh):
        assert _same_bits(got, want)
    assert root.child_boxes is shrunk


def test_cached_boxes_after_a_wal_replayed_open(tmp_path):
    points = clustered_dataset(1600, DIMS, seed=8)
    path = tmp_path / "tree.pages"
    HybridTree.bulk_load(points[:1500], page_size=PAGE).save(path)
    model = {oid: points[oid] for oid in range(1500)}
    tree = HybridTree.open(path, wal=True)
    for oid in range(1500, 1600):
        _warm(tree)
        tree.insert(points[oid], oid)
        model[oid] = points[oid]
    for oid in range(0, 1500, 50):
        _warm(tree)
        assert tree.delete(points[oid], oid)
        del model[oid]
    _check_after_write(tree, model, "durable writes")
    tree.close()  # no save: the log is the only durable copy

    replayed = HybridTree.open(path)
    assert replayed.wal_replayed_transactions > 0
    _check_after_write(replayed, model, "replayed open")
    _warm(replayed)
    replayed.insert(points[0], 0)
    model[0] = points[0]
    _check_after_write(replayed, model, "a write after the replayed open")
    replayed.close()


# ----------------------------------------------------------------------
# Single-query bills, pinned
# ----------------------------------------------------------------------
BILL_METRICS = {"L1": L1, "L2": L2, "weighted": METRICS["weighted"]}
BILL_EPS = (0.0, 0.5)

# Each query's charged reads over the stream of :func:`_bill_stream`, as
# the recursions below charge them: a single query must fetch
# the same pages in the same order, so that a bounded buffer also evicts
# the same pages.
PINNED_READS = {
    "buffer8": {
        "range": [7, 3, 23, 22, 14, 41, 6, 7, 4, 0, 68, 0],
        "L1": [15, 12, 12, 14, 15, 19],
        "L2": [10, 10, 10, 10, 14, 18],
        "weighted": [9, 9, 10, 11, 12, 14],
        "point": [1, 2, 1, 1, 1, 2],
        "knn L1 eps=0.0": [8, 10, 7, 11, 14, 15],
        "knn L1 eps=0.5": [5, 7, 5, 7, 9, 2],
        "knn L2 eps=0.0": [5, 10, 6, 7, 10, 12],
        "knn L2 eps=0.5": [3, 6, 2, 4, 4, 1],
        "knn weighted eps=0.0": [4, 10, 5, 8, 7, 12],
        "knn weighted eps=0.5": [5, 6, 5, 6, 7, 2],
    },
    "default": {
        "range": [7, 8, 25, 25, 18, 42, 8, 10, 7, 2, 71, 1],
        "L1": [17, 13, 13, 16, 18, 22],
        "L2": [12, 13, 11, 12, 16, 21],
        "weighted": [11, 12, 11, 12, 14, 17],
        "point": [3, 3, 3, 3, 3, 3],
        "knn L1 eps=0.0": [10, 13, 9, 13, 16, 18],
        "knn L1 eps=0.5": [7, 10, 7, 8, 11, 3],
        "knn L2 eps=0.0": [6, 11, 7, 8, 12, 13],
        "knn L2 eps=0.5": [4, 7, 4, 6, 6, 3],
        "knn weighted eps=0.0": [6, 12, 7, 9, 10, 15],
        "knn weighted eps=0.5": [6, 9, 6, 7, 9, 3],
    },
}


def _bill_queries(data):
    rows = data.astype(np.float64)
    boxes, centers = _queries(np.random.default_rng(3), rows, n_boxes=10, n_centers=5)
    radii = {
        name: [float(np.sort(metric.distance_batch(rows, q))[20]) for q in centers]
        for name, metric in BILL_METRICS.items()
    }
    points = np.vstack([rows[::601], np.full((1, DIMS), 0.5)])  # five stored, one not
    return boxes, centers, radii, points


def _bill_stream(tree, boxes, centers, radii, points, range_search, distance_range, knn):
    """Every pinned query, in order, on one tree: ``{kind: [(result,
    charged reads), ...]}``.  The buffer carries over from query to query,
    as in a serving process."""

    def run(call):
        before = _reads(tree)
        out = call()
        return out, _reads(tree) - before

    bills = {"range": [run(lambda: range_search(tree, box)) for box in boxes]}
    for name, metric in BILL_METRICS.items():
        bills[name] = [
            run(lambda: distance_range(tree, q, r, metric))
            for q, r in zip(centers, radii[name])
        ]
    bills["point"] = [
        run(lambda: range_search(tree, Rect(p.astype(np.float32), p.astype(np.float32))))
        for p in points
    ]
    for name, metric in BILL_METRICS.items():
        for eps in BILL_EPS:
            bills[f"knn {name} eps={eps}"] = [
                run(lambda: knn(tree, q, K, metric, eps)) for q in centers
            ]
    return bills


def _recursive_range(tree, query):
    """The depth-first recursion ``range_search`` once ran beside the
    kernel: the reference for results and fetch order."""
    out = []

    def visit(node_id, low, high):
        node = tree.nm.get(node_id)
        if not isinstance(node, IndexNode):
            if node.count:
                out.extend(node.live_oids()[query.contains_points_mask(node.points())].tolist())
            return
        kids = tree._child_boxes(node, low, high)
        hit = np.all((kids.box_low <= query.high) & (query.low <= kids.box_high), axis=1)
        for i in np.flatnonzero(hit).tolist():
            visit(int(kids.ids[i]), kids.low[i], kids.high[i])

    visit(tree.root_id, tree.bounds.low, tree.bounds.high)
    return out


def _recursive_distance(tree, q, radius, metric):
    q = np.asarray(q, dtype=np.float32).astype(np.float64)
    out = []

    def visit(node_id, low, high):
        node = tree.nm.get(node_id)
        if not isinstance(node, IndexNode):
            if node.count:
                dists = metric.distance_batch(node.points().astype(np.float64), q)
                hits = np.flatnonzero(dists <= radius)
                out.extend(zip(node.live_oids()[hits].tolist(), dists[hits].tolist()))
            return
        kids = tree._child_boxes(node, low, high)
        near = metric.pair_mindist(q, kids.box_low, kids.box_high) <= radius
        for i in np.flatnonzero(near).tolist():
            visit(int(kids.ids[i]), kids.low[i], kids.high[i])

    visit(tree.root_id, tree.bounds.low, tree.bounds.high)
    return out


def _recursive_knn(tree, q, k, metric, eps=0.0):
    """The best-first recursion ``knn`` once ran beside the kernel: pop
    the smallest ``(bound, push order)`` entry, stop once it exceeds
    ``kth / (1 + eps)``, keep the best k in a ``(distance, oid)`` max-heap.
    The reference for results and fetch order."""
    q = np.asarray(q, dtype=np.float32).astype(np.float64)
    shrink = 1.0 / (1.0 + eps)
    counter = itertools.count()
    frontier = [(0.0, next(counter), tree.root_id, tree.bounds.low, tree.bounds.high)]
    best: list[tuple[float, int]] = []  # (-distance, -oid): the root is the worst

    def kth() -> float:
        return -best[0][0] if len(best) >= k else np.inf

    while frontier:
        bound, _, node_id, low, high = heapq.heappop(frontier)
        if bound > kth() * shrink:
            break
        node = tree.nm.get(node_id)
        if not isinstance(node, IndexNode):
            if not node.count:
                continue
            dists = metric.distance_batch(node.points().astype(np.float64), q)
            oids = node.live_oids()
            if len(best) >= k:
                near = np.flatnonzero(dists <= -best[0][0])
                dists, oids = dists[near], oids[near]
            for dist, oid in zip(dists.tolist(), oids.tolist()):
                if len(best) < k:
                    heapq.heappush(best, (-dist, -oid))
                elif (dist, oid) < (-best[0][0], -best[0][1]):
                    heapq.heapreplace(best, (-dist, -oid))
            continue
        kids = tree._child_boxes(node, low, high)
        bounds = metric.pair_mindist(q, kids.box_low, kids.box_high)
        for i in np.flatnonzero(bounds <= kth() * shrink).tolist():
            heapq.heappush(
                frontier,
                (float(bounds[i]), next(counter), int(kids.ids[i]), kids.low[i], kids.high[i]),
            )
    return sorted(((-o, -d) for d, o in best), key=lambda t: (t[1], t[0]))


def _open_for_bills(saved, cache):
    return HybridTree.open(saved, buffer_pages=8 if cache == "buffer8" else None)


@pytest.mark.parametrize("cache", ["buffer8", "default"])
def test_single_query_bills_are_pinned(cache, data, saved):
    """``range_search``, ``distance_range`` (L1, L2, weighted),
    ``point_search`` and ``knn`` (L1, L2, weighted, with ``eps`` 0 and
    0.5) answer each query as the recursion did, order included, and
    charge exactly the reads measured for it: through an 8-page buffer,
    which evicts, and through the default cache."""
    queries = _bill_queries(data)
    tree = _open_for_bills(saved, cache)
    got = _bill_stream(
        tree, *queries,
        lambda t, box: t.range_search(box),
        lambda t, q, r, m: t.distance_range(q, r, m),
        lambda t, q, k, m, eps: t.knn(q, k, m, eps),
    )
    reference = _open_for_bills(saved, cache)
    want = _bill_stream(
        reference, *queries, _recursive_range, _recursive_distance, _recursive_knn
    )
    for kind, calls in got.items():
        assert [out for out, _ in calls] == [out for out, _ in want[kind]], kind
        assert [reads for _, reads in calls] == [reads for _, reads in want[kind]], kind
        assert [reads for _, reads in calls] == PINNED_READS[cache][kind], kind
    assert [tree.point_search(p) for p in queries[3]] == [out for out, _ in got["point"]]
    assert sum(len(out) for out, _ in got["point"]) >= 5
    tree.close()
    reference.close()


@pytest.mark.parametrize("snapshot", [False, True])
def test_single_query_is_the_batch_of_one(snapshot, data, saved):
    """With or without an attached snapshot, a single query answers and
    bills exactly as the same query in a batch of one (with a snapshot
    range and distance both run on the SOA kernel, k-NN on the object
    kernel's heap search)."""
    boxes, centers, radii, points = _bill_queries(data)
    tree = HybridTree.open(saved, buffer_pages=8)
    if snapshot:
        tree.compile_snapshot()
    assert (tree.soa_snapshot is not None) == snapshot
    for box in boxes + [Rect(p, p) for p in points]:
        single = _measured(tree, lambda: tree.range_search(box))
        assert single == _measured(tree, lambda: tree.range_search_many([box])[0])
    for name, metric in BILL_METRICS.items():
        for q, r in zip(centers, radii[name]):
            single = _measured(tree, lambda: tree.distance_range(q, r, metric))
            batch = _measured(tree, lambda: tree.distance_range_many([q], r, metric)[0])
            assert single == batch, name
        for eps in BILL_EPS:
            for q in centers:
                single = _measured(tree, lambda: tree.knn(q, K, metric, eps))
                batch = _measured(tree, lambda: tree.knn_many([q], K, metric, eps)[0])
                assert single == batch, (name, eps)
    tree.close()


def _brute_knn(oids, rows, q, metric):
    d = metric.distance_batch(rows, q)
    return [(int(oids[i]), float(d[i])) for i in np.lexsort((oids, d))[:K]]


def test_knn_batch_of_one_leaves_the_snapshot_alone(data, saved, monkeypatch):
    """With a current snapshot, a single k-NN query and a k-NN batch of one
    run the object kernel's heap search; a batch of two runs on SOA."""
    tree = HybridTree.open(saved, mmap=True)
    tree.compile_snapshot()
    calls = []
    soa_knn_many = soa_kernel.soa_knn_many

    def counted(index, snap, batch, *args):
        calls.append(len(batch))
        return soa_knn_many(index, snap, batch, *args)

    monkeypatch.setattr(soa_kernel, "soa_knn_many", counted)
    oids, rows = _model_arrays(dict(enumerate(data)))
    _, centers = _queries(np.random.default_rng(17), rows)
    for q in centers:
        want = _brute_knn(oids, rows, q, L2)
        assert tree.knn(q, K, L2) == want
        assert tree.knn_many([q], K, L2) == [want]
    assert calls == []
    assert tree.knn_many(centers[:2], K, L2) == [
        _brute_knn(oids, rows, q, L2) for q in centers[:2]
    ]
    assert calls == [2]
    tree.close()


def test_hbtree_single_knn_pays_each_page_once(data):
    """The hB-tree reaches some pages from several places (``trav_dedup``):
    its single k-NN query charges and scans each page once, answers like a
    brute force and bills like a batch of one, and visits what the
    lockstep rounds visit for the same query."""
    tree = HBTree.from_points(data, page_size=PAGE)
    oids, rows = _model_arrays(dict(enumerate(data)))
    _, centers = _queries(np.random.default_rng(19), rows, n_centers=8)
    fetched = []
    trav_node = tree.trav_node

    def counted(ref, charge=True):
        fetched.append(ref)
        return trav_node(ref, charge)

    tree.trav_node = counted
    popped_twice = 0
    for metric in (L1, L2):
        for q in centers:
            fetched.clear()
            single, reads = _measured(tree, lambda: tree.knn(q, K, metric))
            visits, pages = len(fetched), len(set(fetched))
            popped_twice += visits - pages
            assert single == _brute_knn(oids, rows, q, metric)
            (batch,), batch_reads = _measured(tree, lambda: tree.knn_many([q], K, metric))
            assert single == batch and reads == batch_reads == pages
            _, one = tree.knn_many([q], K, metric, return_metrics=True)
            pair, two = tree.knn_many([q, q], K, metric, return_metrics=True)
            assert pair == [single, single]
            assert one.pages.tolist() == [visits] and two.pages.tolist() == [visits] * 2
    assert popped_twice  # the shared pages were reached


def test_partial_knn_batch_of_one_holds_the_best_so_far(data):
    """A k-NN batch of one checks its deadline once per pop.  Cut after m
    pops, it returns the best k of the leaves scanned so far: what the
    lockstep rounds, one pop per query per round, hold after m rounds (the
    object kernel's rounds, here for a batch of the query twice)."""
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    oids, rows = _model_arrays(dict(enumerate(data)))
    _, centers = _queries(np.random.default_rng(23), rows)
    for q in centers:
        batch = QueryBatch.knn([q], K, L2, 0.0, DIMS)
        twice = QueryBatch.knn([q, q], K, L2, 0.0, DIMS)
        full = kernel_knn_many(tree, batch)
        assert full == [_brute_knn(oids, rows, q, L2)]
        pops = 0
        while True:
            got = kernel_knn_many(tree, batch, False, ExpiresAfter(pops))
            rounds = kernel_knn_many(tree, twice, False, ExpiresAfter(pops))
            if not isinstance(got, PartialResult):
                assert got == full and rounds == full * 2
                break
            assert isinstance(rounds, PartialResult) and not got.completed.any()
            assert got.results * 2 == rounds.results
            assert got[0] == sorted(got[0], key=lambda t: (t[1], t[0]))
            pops += 1
        assert pops > 2
