"""SOA snapshots that survive writes: the refresh is a compile, only cheaper.

A hybrid tree keeps its struct-of-arrays snapshot through inserts and
deletes: a mutation marks it stale and the next batch of two or more
refreshes it from the previous snapshot plus the pages and ELS entries the
writes touched (:mod:`repro.engine.soa.refresh`).  These tests pin that:

- after every step of a mutation sequence (leaf and index splits, root
  growth, an insert outside the data space, deletes down to
  underflow-and-reinsert, a checkpoint), every array of the refreshed
  snapshot equals a from-scratch ``compile_snapshot`` and every query
  kind answers, and bills pages, exactly like the object-walk kernel —
  in memory, after ``open()`` and after ``open(wal=True)``;
- one insert into a non-full leaf costs the refresh at most ``height``
  edge boxes and one leaf read;
- a mutation that raised falls back to a full compile;
- a single query (a batch of one) does not refresh a stale snapshot: it
  runs on the object walk until a larger batch refreshes, then on SOA;
- ``invalidate_snapshot()`` still means the object walk, through writes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import HybridTree
from repro.core.els import ELSTable
from repro.distances import L1, L2, LINF, WeightedEuclidean
from repro.engine.kernel import (
    kernel_distance_range_many,
    kernel_knn_many,
    kernel_range_search_many,
)
from repro.engine.query import QueryBatch
from repro.engine.soa import compile_snapshot
from repro.engine.soa import kernel as soa_kernel
from repro.geometry.rect import Rect

DIMS = 4
PAGE = 512  # 23 points per leaf, 27 children per index node
METRICS = [L1, L2, LINF, WeightedEuclidean(np.linspace(0.5, 2.0, DIMS))]


def _queries(seed: int = 3, count: int = 8):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(count, DIMS)).astype(np.float32)
    lows = rng.uniform(0.0, 0.7, size=(count, DIMS))
    boxes = [Rect(lo, lo + 0.3) for lo in lows]
    return centers, boxes


def _assert_arrays_equal(snap, fresh, what):
    for f in dataclasses.fields(fresh):
        a, b = getattr(snap, f.name), getattr(fresh, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f"{what}: {f.name} missing"
            assert a.dtype == b.dtype and a.shape == b.shape, f"{what}: {f.name} layout"
            assert np.array_equal(a, b), f"{what}: {f.name} differs"
        else:
            assert a == b, f"{what}: {f.name} differs"
    # The lazily built cache, carried over by the refresh when present.
    for a, b in zip(snap.leaf_sort0(), fresh.leaf_sort0()):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"{what}: leaf_sort0 differs"


def _assert_same(soa, obj, what):
    (res_s, met_s), (res_o, met_o) = soa, obj
    assert res_s == res_o, f"{what}: results diverged"
    assert list(met_s.pages) == list(met_o.pages), f"{what}: per-query pages diverged"
    assert met_s.charged_reads == met_o.charged_reads, f"{what}: charged reads diverged"


def _check(tree, what):
    """The refreshed snapshot is a compile; SOA batches are object batches."""
    snap = tree.refresh_snapshot()
    assert snap is not None, f"{what}: the snapshot was not kept"
    _assert_arrays_equal(snap, compile_snapshot(tree), what)
    centers, boxes = _queries()
    _assert_same(
        tree.range_search_many(boxes, return_metrics=True),
        kernel_range_search_many(tree, QueryBatch.range(boxes, DIMS), return_metrics=True),
        f"{what}: range",
    )
    for metric in METRICS:
        _assert_same(
            tree.distance_range_many(centers, 0.3, metric, return_metrics=True),
            kernel_distance_range_many(
                tree, QueryBatch.distance(centers, 0.3, metric, DIMS), return_metrics=True
            ),
            f"{what}: distance {metric!r}",
        )
    for metric in (L2, L1):
        _assert_same(
            tree.knn_many(centers, 5, metric, return_metrics=True),
            kernel_knn_many(tree, QueryBatch.knn(centers, 5, metric, 0.0, DIMS),
                            return_metrics=True),
            f"{what}: knn {metric!r}",
        )
    assert tree.soa_snapshot is snap, f"{what}: the batches did not run on the snapshot"


def _open_tree(mode, tmp_path, data):
    tree = HybridTree(DIMS, page_size=PAGE)
    for oid, v in enumerate(data):
        tree.insert(v, oid)
    tree.compile_snapshot()
    if mode == "memory":
        return tree, None
    path = str(tmp_path / "t.pages")
    tree.save(path)
    opened = HybridTree.open(path, wal=(mode == "wal"))
    assert opened.soa_snapshot is not None  # the persisted section
    return opened, path


@pytest.fixture
def events(monkeypatch):
    """Counts the structural events the mutation sequence must cover."""
    seen = {"leaf_split": 0, "index_split": 0, "remove_child": 0}
    for name, key in (("_split_data_node", "leaf_split"),
                      ("_split_index_node", "index_split"),
                      ("_remove_child", "remove_child")):
        orig = getattr(HybridTree, name)

        def counted(self, *args, _orig=orig, _key=key, **kwargs):
            seen[_key] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(HybridTree, name, counted)
    return seen


@pytest.mark.parametrize("mode", ["memory", "open", "wal"])
def test_refresh_equals_compile_through_mutations(mode, tmp_path, events):
    rng = np.random.default_rng(7)
    data = rng.random((900, DIMS)).astype(np.float32)
    tree, path = _open_tree(mode, tmp_path, data[:5])
    live = list(range(5))
    heights = {tree.height}
    nxt = 5
    # Growth: leaf splits, index splits, root growth.
    for step in range(14):
        for _ in range(60):
            tree.insert(data[nxt], nxt)
            live.append(nxt)
            nxt += 1
        heights.add(tree.height)
        _check(tree, f"{mode} insert step {step}")
    # Points outside the data space grow tree.bounds, the root's region.
    bounds = tree.bounds
    for oid, v in ((10_000, np.full(DIMS, 1.5)), (10_001, np.full(DIMS, -0.25))):
        tree.insert(v.astype(np.float32), oid)
        _check(tree, f"{mode} insert outside bounds")
    assert not np.array_equal(tree.bounds.high, bounds.high)
    tree.delete(np.full(DIMS, 1.5, dtype=np.float32), 10_000)
    tree.delete(np.full(DIMS, -0.25, dtype=np.float32), 10_001)
    # A checkpoint persists the refreshed section and keeps the snapshot.
    if mode == "wal":
        tree.checkpoint()
    elif path is not None:
        tree.save(path)
    _check(tree, f"{mode} after checkpoint")
    # Shrink: deletes down to underflow-and-reinsert.
    for step in range(12):
        for _ in range(60):
            oid = live.pop(int(rng.integers(len(live))))
            assert tree.delete(data[oid], oid)
        _check(tree, f"{mode} delete step {step}")
    # Single writes, each refreshed on its own.
    for step in range(6):
        tree.insert(data[nxt], nxt)
        live.append(nxt)
        nxt += 1
        oid = live.pop(int(rng.integers(len(live))))
        assert tree.delete(data[oid], oid)
        _check(tree, f"{mode} single write {step}")
    tree.validate()
    assert events["leaf_split"] and events["index_split"] and events["remove_child"]
    assert max(heights) >= 3 and min(heights) == 1  # the root grew twice
    if mode == "wal":
        # Every write is durable: a replayed open sees the same tree.
        tree.close()
        reopened = HybridTree.open(path)
        assert reopened.soa_snapshot is None  # stale after replay
        reopened.compile_snapshot()
        _check(reopened, "replayed open")
        reopened.close()
    else:
        tree.close()


def test_one_insert_refreshes_one_path(monkeypatch):
    rng = np.random.default_rng(11)
    data = rng.random((3000, DIMS)).astype(np.float32)
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    assert tree.height >= 3
    tree.compile_snapshot()
    # A point of a leaf with room: the containment descent returns to it.
    snap = tree.soa_snapshot
    for occ in np.flatnonzero(snap.node_is_leaf):
        leaf = tree.nm.get(int(snap.node_ref[occ]), charge=False)
        if leaf.count < leaf.capacity:
            point = leaf.points()[0].copy()
            break
    splits = []
    monkeypatch.setattr(HybridTree, "_split_data_node", lambda *a: splits.append(a))
    tree.insert(point, 10**6)
    assert not splits
    assert tree.soa_snapshot is None  # stale until the next batch

    calls = {"rect": 0, "leaf": 0}
    effective_boxes = ELSTable.effective_boxes
    leaf_points = HybridTree.trav_leaf_points

    def counted_boxes(self, ids, *args):
        calls["rect"] += len(ids)
        return effective_boxes(self, ids, *args)

    def counted_points(self, node):
        calls["leaf"] += 1
        return leaf_points(self, node)

    monkeypatch.setattr(ELSTable, "effective_boxes", counted_boxes)
    monkeypatch.setattr(HybridTree, "trav_leaf_points", counted_points)
    refreshed = tree.refresh_snapshot()
    assert calls["rect"] <= tree.height
    assert calls["leaf"] == 1
    monkeypatch.undo()
    _assert_arrays_equal(refreshed, compile_snapshot(tree), "one insert")


def _brute_force(model: dict, centers, boxes, k=5):
    oids = np.array(sorted(model), dtype=np.int64)
    rows = np.array([model[o] for o in oids], dtype=np.float64).reshape(-1, DIMS)
    ranges = [
        sorted(oids[np.all((rows >= b.low) & (rows <= b.high), axis=1)].tolist())
        for b in boxes
    ]
    knn = []
    for c in centers:
        d = L2.distance_batch(rows, c.astype(np.float64))
        order = np.lexsort((oids, d))[:k]
        knn.append([(int(oids[i]), float(d[i])) for i in order])
    return ranges, knn


@pytest.mark.parametrize("mode", ["memory", "wal"])
def test_failed_mutation_forces_full_compile(mode, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    data = rng.random((400, DIMS)).astype(np.float32)
    tree, _ = _open_tree(mode, tmp_path, data[:300])
    model = {oid: data[oid] for oid in range(300)}
    tree.refresh_snapshot()

    gone = []

    def broken_split(self, path, node_id, node, vector, oid):
        # Edit the leaf in place, never nm.put it, then fail.
        gone.append(int(node.live_oids()[-1]))
        node.remove_at(node.count - 1)
        del model[gone[-1]]
        raise RuntimeError("split failed")

    monkeypatch.setattr(HybridTree, "_split_data_node", broken_split)
    failed = False
    for oid in range(300, 400):
        # Refreshed before every insert, so the failing one is the only
        # write the next refresh could miss.
        tree.refresh_snapshot()
        try:
            tree.insert(data[oid], oid)
        except RuntimeError:
            failed = True
            break
        model[oid] = data[oid]
    assert failed, "no insert reached a full leaf"
    monkeypatch.undo()

    centers, boxes = _queries(seed=9)
    # Queries that must see the lost entry's absence: the whole space and
    # a k-NN query at its position.
    boxes.append(Rect(np.full(DIMS, -1.0), np.full(DIMS, 2.0)))
    centers = np.vstack([centers, data[gone]])
    ranges, knn = _brute_force(model, centers, boxes)
    soa_range = tree.range_search_many(boxes, return_metrics=True)
    assert [sorted(r) for r in soa_range[0]] == ranges
    soa_knn = tree.knn_many(centers, 5, L2, return_metrics=True)
    assert soa_knn[0] == knn
    assert tree.soa_snapshot is not None
    _assert_same(
        soa_range,
        kernel_range_search_many(tree, QueryBatch.range(boxes, DIMS), return_metrics=True),
        "range after a failed insert",
    )
    _assert_same(
        soa_knn,
        kernel_knn_many(tree, QueryBatch.knn(centers, 5, L2, 0.0, DIMS), return_metrics=True),
        "knn after a failed insert",
    )
    tree.close()


def test_widened_kd_path_is_written_back():
    """Reinsertion and the greedy descent widen split positions in place;
    the node must be put, or the refresh would keep the old regions."""
    rng = np.random.default_rng(4)
    tree = HybridTree.bulk_load(rng.random((2000, DIMS)).astype(np.float32), page_size=PAGE)
    tree.compile_snapshot()
    root = tree.nm.get(tree.root_id, charge=False)
    (first, region), (_, other) = root.children_with_regions(tree.bounds)[:2]
    assert not region.contains_rect(other)
    widened = tree._widen_child(tree.root_id, root, tree.bounds, first, other.low, other.high)
    assert widened.contains_rect(other)
    tree._snapshot_stale()
    _check(tree, "after widening")


def test_invalidate_means_object_walk_through_writes(monkeypatch):
    rng = np.random.default_rng(2)
    data = rng.random((400, DIMS)).astype(np.float32)
    tree = HybridTree.bulk_load(data[:300], page_size=PAGE)
    tree.compile_snapshot()
    tree.invalidate_snapshot()
    for oid in range(300, 340):
        tree.insert(data[oid], oid)
    for oid in range(0, 20):
        assert tree.delete(data[oid], oid)

    def refuse(*args, **kwargs):
        raise AssertionError("the SOA kernel ran after invalidate_snapshot()")

    for name in ("soa_range_search_many", "soa_distance_range_many", "soa_knn_many"):
        monkeypatch.setattr(soa_kernel, name, refuse)
    centers, boxes = _queries()
    tree.range_search_many(boxes)
    tree.distance_range_many(centers, 0.3, L1)
    tree.knn_many(centers, 5, L2)
    assert tree.soa_snapshot is None


def test_single_query_leaves_a_stale_snapshot_for_the_next_batch(monkeypatch):
    rng = np.random.default_rng(4)
    data = rng.random((400, DIMS)).astype(np.float32)
    tree = HybridTree.bulk_load(data[:300], page_size=PAGE)
    tree.compile_snapshot()
    for oid in range(300, 340):
        tree.insert(data[oid], oid)
    centers, boxes = _queries()
    expect_range = kernel_range_search_many(tree, QueryBatch.range(boxes, DIMS))
    expect_dist = kernel_distance_range_many(
        tree, QueryBatch.distance(centers, 0.3, L1, DIMS)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a single query ran on a stale snapshot")

    for name in ("soa_range_search_many", "soa_distance_range_many"):
        monkeypatch.setattr(soa_kernel, name, refuse)
    assert [tree.range_search(b) for b in boxes] == expect_range
    assert [tree.distance_range(c, 0.3, L1) for c in centers] == expect_dist
    assert tree.range_search_many(boxes[:1]) == expect_range[:1]
    assert tree.soa_snapshot is None  # no single query refreshed it
    monkeypatch.undo()

    assert tree.range_search_many(boxes) == expect_range
    snap = tree.soa_snapshot
    assert snap is not None
    _assert_arrays_equal(snap, compile_snapshot(tree), "refreshed by a batch")
    ran = []
    monkeypatch.setattr(
        soa_kernel, "soa_range_search_many",
        lambda *a, _run=soa_kernel.soa_range_search_many: ran.append(1) or _run(*a),
    )
    assert [tree.range_search(b) for b in boxes] == expect_range
    assert len(ran) == len(boxes)  # a current snapshot serves single queries
