"""Conformance of the vectorized SOA kernel against the object-walk kernel.

The struct-of-arrays snapshot (:mod:`repro.engine.soa`) promises
**bit-identical** answers to the object-walk kernel for every query kind
on every compilable structure (the box-bounded hybrid, R, X and kd-B
trees) — same oids, same distances, same ordering, same charged page
accounting.  These tests pin that promise on tie/duplicate-heavy
quantized data (where ordering subtleties actually bite), after deletes,
through the persisted mmap path, and across the snapshot lifecycle
(invalidation on mutation, graceful degradation on a corrupt or
malformed section, fsck/salvage handling).  The hB-, SS-, SR- and
M-trees do not compile: they answer every batch on the object kernel.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import HybridTree
from repro.distances import (
    L1,
    L2,
    LINF,
    LpMetric,
    QuadraticFormMetric,
    WeightedEuclidean,
)
from repro.engine.kernel import (
    kernel_distance_range_many,
    kernel_knn_many,
    kernel_range_search_many,
)
from repro.engine.query import QueryBatch
from repro.eval.harness import build_index
from repro.geometry.rect import Rect
from repro.storage.recovery import salvage, verify

STRUCTURES = ("hybrid", "rtree", "xtree", "kdbtree")
# Structures whose children are not plain boxes: no snapshot.
UNCOMPILABLE = ("hbtree", "sstree", "srtree", "mtree")
DIMS = 4
K = 7


def _quantized(n=420, dims=DIMS, seed=7):
    """Tie- and duplicate-heavy data: coordinates on a coarse lattice."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 6, size=(n, dims)) / 5.0).astype(np.float32)


def _workload(seed=11, count=18, dims=DIMS):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(count, dims)).astype(np.float32)
    # Box corners on the same lattice as the data so query edges collide
    # with point coordinates exactly (the tie cases).
    lows = rng.integers(0, 4, size=(count, dims)) / 5.0
    boxes = [Rect(lo, lo + 0.4) for lo in lows]
    return centers, boxes


METRICS = [
    L1,
    L2,
    LINF,
    LpMetric(3.0),
    WeightedEuclidean(np.linspace(0.5, 2.0, DIMS)),
    QuadraticFormMetric(np.diag(np.linspace(1.0, 2.0, DIMS))),
]


def _assert_same(soa, obj, what):
    results_s, metrics_s = soa
    results_o, metrics_o = obj
    assert results_s == results_o, f"{what}: results diverged"
    assert metrics_s.charged_reads == metrics_o.charged_reads, (
        f"{what}: charged reads diverged"
    )
    assert list(metrics_s.pages) == list(metrics_o.pages), (
        f"{what}: per-query page counts diverged"
    )


def _check_all_kinds(index, centers, boxes, metrics, k=K):
    """Every query kind, SOA dispatch vs the object-walk oracle."""
    snap = index.compile_snapshot()
    assert index.soa_snapshot is snap
    if getattr(index, "trav_supports_box", True):
        soa = index.range_search_many(boxes, return_metrics=True)
        index.invalidate_snapshot()
        obj = kernel_range_search_many(
            index, QueryBatch.range(boxes, index.dims), return_metrics=True
        )
        index._soa_snapshot = snap
        _assert_same(soa, obj, "range")
    for metric in metrics:
        soa = index.distance_range_many(centers, 0.45, metric, return_metrics=True)
        index.invalidate_snapshot()
        obj = kernel_distance_range_many(
            index,
            QueryBatch.distance(centers, 0.45, metric, index.dims),
            return_metrics=True,
        )
        index._soa_snapshot = snap
        _assert_same(soa, obj, f"distance[{metric!r}]")
        for approx in (0.0, 0.2):
            soa = index.knn_many(
                centers, k, metric, approximation_factor=approx, return_metrics=True
            )
            index.invalidate_snapshot()
            obj = kernel_knn_many(
                index,
                QueryBatch.knn(centers, k, metric, approx, index.dims),
                return_metrics=True,
            )
            index._soa_snapshot = snap
            _assert_same(soa, obj, f"knn[{metric!r}, approx={approx}]")


@pytest.mark.parametrize("kind", STRUCTURES)
def test_bit_identity_on_tie_heavy_data(kind):
    data = _quantized()
    centers, boxes = _workload()
    index = build_index(kind, data)
    _check_all_kinds(index, centers, boxes, METRICS)


@pytest.mark.parametrize("kind", ["hybrid", "rtree"])
def test_bit_identity_after_deletes(kind):
    data = _quantized(seed=3)
    centers, boxes = _workload(seed=5)
    index = build_index(kind, data)
    for oid in range(0, len(data), 3):
        assert index.delete(data[oid], oid)
    assert index.soa_snapshot is None  # mutation invalidated it
    _check_all_kinds(index, centers, boxes, [L2, LINF])


@pytest.mark.parametrize("kind", ["hybrid", "rtree", "kdbtree"])
def test_mutations_invalidate_snapshot(kind):
    data = _quantized(n=120)
    index = build_index(kind, data)
    index.compile_snapshot()
    assert index.soa_snapshot is not None
    index.insert(np.full(DIMS, 0.5, dtype=np.float32), 9999)
    assert index.soa_snapshot is None, "insert must drop the snapshot"
    index.compile_snapshot()
    if hasattr(index, "delete"):
        assert index.delete(data[0], 0)
        assert index.soa_snapshot is None, "delete must drop the snapshot"


def test_compile_is_cached_until_invalidated():
    index = build_index("hybrid", _quantized(n=100))
    first = index.compile_snapshot()
    assert index.compile_snapshot() is first
    assert index.compile_snapshot(force=True) is not first
    index.invalidate_snapshot()
    assert index.soa_snapshot is None


def test_non_traversable_index_cannot_compile():
    from repro.engine.soa import compile_snapshot

    scan = build_index("scan", _quantized(n=50))
    with pytest.raises(TypeError, match="trav"):
        compile_snapshot(scan)


@pytest.mark.parametrize("kind", UNCOMPILABLE)
def test_dedup_and_sphere_trees_do_not_compile(kind, monkeypatch):
    from repro.engine.soa import compile_snapshot
    from repro.engine.soa import kernel as soa_kernel

    data = _quantized()
    index = build_index(kind, data, page_size=512)
    assert index.height > 1
    with pytest.raises(TypeError, match="plain boxes"):
        compile_snapshot(index)
    # No snapshot methods: `hasattr(index, "compile_snapshot")` is the
    # capability test `repro bench-batch --engine soa` relies on.
    assert not hasattr(index, "compile_snapshot")
    assert not hasattr(index, "invalidate_snapshot")

    def refuse(*args, **kwargs):
        raise AssertionError("batch ran on the SOA kernel")

    for name in ("soa_range_search_many", "soa_distance_range_many", "soa_knn_many"):
        monkeypatch.setattr(soa_kernel, name, refuse)
    centers, _ = _workload()
    for got, c in zip(index.knn_many(centers, K, L2), centers.astype(np.float64)):
        dists = L2.pair_distances(data, np.repeat(c[None], len(data), 0))
        assert [d for _, d in got] == np.sort(dists)[:K].tolist()


def test_box_query_on_distance_index_raises():
    index = build_index("mtree", _quantized(n=100))
    with pytest.raises(TypeError, match="distance-based"):
        index.range_search_many([Rect(np.zeros(DIMS), np.ones(DIMS))])


# ----------------------------------------------------------------------
# Persistence: snapshot section, mmap path, corruption, fsck, salvage
# ----------------------------------------------------------------------
def _saved_tree(tmp_path, with_snapshot=True):
    data = _quantized(seed=9)
    tree = HybridTree.bulk_load(data)
    if with_snapshot:
        tree.compile_snapshot()
    path = os.path.join(tmp_path, "tree.pages")
    tree.save(path)
    return path, data


@pytest.mark.parametrize("mmap", [False, True])
def test_saved_snapshot_reattaches_and_conforms(tmp_path, mmap):
    path, _ = _saved_tree(tmp_path)
    centers, boxes = _workload(seed=13)
    reopened = HybridTree.open(path, mmap=mmap)
    try:
        assert reopened.soa_snapshot is not None
        assert reopened._soa_load_error is None
        _check_all_kinds(reopened, centers, boxes, [L2, L1])
    finally:
        reopened.close()


def test_save_without_snapshot_has_no_section(tmp_path):
    path, _ = _saved_tree(tmp_path, with_snapshot=False)
    report = verify(path)
    assert report.ok and not report.has_snapshot
    reopened = HybridTree.open(path)
    try:
        assert reopened.soa_snapshot is None
        assert reopened._soa_load_error is None
    finally:
        reopened.close()


def _corrupt_snapshot_section(path):
    from repro.storage.superblock import read_superblock

    manifest, page_size = read_superblock(path)
    loc = manifest["soa"]
    offset = loc["start"] * page_size + loc["bytes"] // 2
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


@pytest.mark.parametrize("mmap", [False, True])
def test_corrupt_snapshot_degrades_to_object_walk(tmp_path, mmap):
    path, data = _saved_tree(tmp_path)
    _corrupt_snapshot_section(path)
    reopened = HybridTree.open(path, mmap=mmap)
    try:
        assert reopened.soa_snapshot is None
        assert "CRC mismatch" in reopened._soa_load_error
        # Queries still run (object walk) and still agree with brute force.
        box = Rect(np.zeros(DIMS), np.full(DIMS, 0.4))
        expected = set(
            np.flatnonzero(
                np.all((data >= box.low) & (data <= box.high), axis=1)
            ).tolist()
        )
        assert set(reopened.range_search_many([box])[0]) == expected
    finally:
        reopened.close()


def test_fsck_reports_snapshot_section(tmp_path):
    path, _ = _saved_tree(tmp_path)
    clean = verify(path)
    assert clean.ok and clean.has_snapshot and not clean.snapshot_errors

    _corrupt_snapshot_section(path)
    report = verify(path)
    assert report.has_snapshot
    assert any("CRC32" in err for err in report.snapshot_errors)
    # A bad snapshot is a degraded cache, not a damaged tree: fsck stays ok.
    assert report.ok, report.errors


def _rewrite_snapshot_header(path, edit):
    """Rewrite the saved snapshot section's header JSON with ``edit``,
    keeping every array where it is, and record the section's new CRC32
    in the manifest: a section whose checksum passes and whose header is
    wrong."""
    import json
    import struct
    import zlib

    from repro.storage.page import PAGE_KIND_SUPERBLOCK, frame_page
    from repro.storage.superblock import read_superblock

    manifest, page_size = read_superblock(path)
    loc = manifest["soa"]
    start = loc["start"] * page_size
    with open(path, "r+b") as f:
        f.seek(start)
        section = bytearray(f.read(loc["bytes"]))
        (header_len,) = struct.unpack_from("<I", section, 4)
        header = json.loads(bytes(section[8 : 8 + header_len]))
        first = min(desc["offset"] for desc in header["arrays"])
        edit(header)
        encoded = json.dumps(header, separators=(",", ":")).encode()
        assert 8 + len(encoded) <= first
        section[4:first] = (
            struct.pack("<I", len(encoded)) + encoded + bytes(first - 8 - len(encoded))
        )
        f.seek(start)
        f.write(section)
        loc["crc32"] = zlib.crc32(section) & 0xFFFFFFFF
        f.seek(-page_size, os.SEEK_END)
        f.write(
            frame_page(
                json.dumps(manifest, sort_keys=True).encode(), page_size, PAGE_KIND_SUPERBLOCK
            )
        )


def _assert_degrades_to_object_walk(path, data, fault):
    report = verify(path)
    assert report.has_snapshot and report.ok, report.errors
    assert any(fault in err for err in report.snapshot_errors), report.snapshot_errors
    for mmap in (False, True):
        reopened = HybridTree.open(path, mmap=mmap)
        try:
            assert reopened.soa_snapshot is None
            assert fault in reopened._soa_load_error
            boxes = [
                Rect(np.zeros(DIMS), np.full(DIMS, 0.4)),
                Rect(np.full(DIMS, 0.2), np.ones(DIMS)),
            ]
            want = [
                np.flatnonzero(np.all((data >= b.low) & (data <= b.high), axis=1)).tolist()
                for b in boxes
            ]
            assert [sorted(r) for r in reopened.range_search_many(boxes)] == want
        finally:
            reopened.close()


@pytest.mark.parametrize("key", ["kind", "dims", "dedup", "supports_box"])
def test_snapshot_header_without_a_field_degrades(tmp_path, key):
    path, data = _saved_tree(tmp_path)
    _rewrite_snapshot_header(path, lambda header: header.pop(key))
    _assert_degrades_to_object_walk(path, data, repr(key))


@pytest.mark.parametrize("field", ["box_low", "box_high"])
def test_snapshot_section_with_short_boxes_degrades(tmp_path, field):
    path, data = _saved_tree(tmp_path)

    def shorten(header):
        (desc,) = [d for d in header["arrays"] if d["name"] == field]
        desc["shape"][0] -= 1

    _rewrite_snapshot_header(path, shorten)
    _assert_degrades_to_object_walk(path, data, field)


@pytest.mark.parametrize("field", ["box_low", "box_high"])
def test_snapshot_section_without_boxes_degrades(tmp_path, field):
    path, data = _saved_tree(tmp_path)

    def drop(header):
        header["arrays"] = [d for d in header["arrays"] if d["name"] != field]

    _rewrite_snapshot_header(path, drop)
    _assert_degrades_to_object_walk(path, data, field)


def test_salvage_drops_snapshot_section(tmp_path):
    path, data = _saved_tree(tmp_path)
    _corrupt_snapshot_section(path)
    out = os.path.join(tmp_path, "rebuilt.pages")
    report = salvage(path, out)
    assert report.snapshot_dropped
    rebuilt = HybridTree.open(out)
    try:
        assert rebuilt.soa_snapshot is None
        assert len(rebuilt) == len(data)
    finally:
        rebuilt.close()
