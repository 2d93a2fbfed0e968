"""Zero-copy mmap read path + multi-worker parallel query engine.

Covers the contracts the perf work must not bend:

- :class:`MmapPageStore` serves the same bytes as :class:`FilePageStore`,
  refuses corrupt files at open, and rejects writes;
- zero-copy decode hands out frozen view-backed data nodes whose queries
  match the copying path bit for bit, and mutations fail loudly;
- the codec rejects inconsistent-but-CRC-valid payloads with typed errors
  and survives degenerate kd-trees deeper than the recursion limit;
- the parallel engine returns bit-identical results to the serial batch
  engine for every query kind, worker count and worker mode.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HybridTree
from repro.core.nodes import DataNode, FrozenNodeError, IndexNode
from repro.engine import ParallelQueryEngine, QuerySession
from repro.engine.parallel import WORKER_MODES
from repro.geometry.rect import Rect
from repro.storage.errors import PageCorruptionError, ReadOnlyStoreError
from repro.storage.mmapstore import MmapPageStore
from repro.storage.page import frame_page
from repro.storage.pagestore import FilePageStore
from repro.storage.serialization import _DATA_HEADER, HybridNodeCodec
from tests.kd_reference import KDInternal, KDLeaf, split_table

DIMS = 8
COUNT = 2500
QUERIES = 24


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.random((COUNT, DIMS), dtype=np.float32)


@pytest.fixture(scope="module")
def saved_tree_path(data, tmp_path_factory):
    tree = HybridTree.bulk_load(data)
    path = tmp_path_factory.mktemp("mmap") / "tree.pages"
    tree.save(path)
    return str(path)


@pytest.fixture(scope="module")
def workload(data):
    rng = np.random.default_rng(7)
    centers = data[rng.choice(COUNT, QUERIES, replace=False)]
    boxes = [
        Rect(c - 0.12, c + 0.12) for c in centers.astype(np.float64)
    ]
    radii = rng.uniform(0.25, 0.45, QUERIES)
    return {"boxes": boxes, "centers": centers, "radii": radii}


@pytest.fixture(scope="module")
def serial(saved_tree_path, workload):
    """Reference answers + metrics from the serial batch engine."""
    tree = HybridTree.open(saved_tree_path)
    ranges, range_m = tree.range_search_many(workload["boxes"], return_metrics=True)
    dists, dist_m = tree.distance_range_many(
        workload["centers"], workload["radii"], return_metrics=True
    )
    knns = tree.knn_many(workload["centers"], 5)
    # k-NN visits are the single-query search's: count its node fetches.
    knn_visits = []
    get = tree.nm.get

    def counting_get(*args, **kwargs):
        knn_visits[-1] += 1
        return get(*args, **kwargs)

    tree.nm.get = counting_get
    for center in workload["centers"]:
        knn_visits.append(0)
        tree.knn(center, 5)
    del tree.nm.get
    tree.close()
    return {
        "range": ranges,
        "range_visits": range_m.pages,
        "distance": dists,
        "distance_visits": dist_m.pages,
        "knn": knns,
        "knn_visits": np.asarray(knn_visits, dtype=np.float64),
    }


def _corrupt_copy(path: str, tmp_path, offset: int = 4096 + 100) -> str:
    corrupted = tmp_path / "corrupt.pages"
    raw = bytearray(Path(path).read_bytes())
    raw[offset] ^= 0xFF
    corrupted.write_bytes(bytes(raw))
    return str(corrupted)


# ----------------------------------------------------------------------
# MmapPageStore
# ----------------------------------------------------------------------
class TestMmapPageStore:
    def test_reads_byte_identical_to_file_store(self, saved_tree_path):
        with (
            MmapPageStore(saved_tree_path) as mstore,
            FilePageStore(saved_tree_path) as fstore,
        ):
            assert mstore._next_id == fstore._next_id > 0
            for pid in range(mstore._next_id):
                assert bytes(mstore.read(pid)) == fstore.read(pid, charge=False)

    def test_read_returns_buffer_view_not_copy(self, saved_tree_path):
        with MmapPageStore(saved_tree_path) as store:
            page = store.read(0)
            assert isinstance(page, memoryview)
            assert page.readonly
            # Two reads of the same page view the same underlying buffer.
            assert store.read(0).obj is page.obj

    def test_reads_are_charged_like_file_reads(self, saved_tree_path):
        with MmapPageStore(saved_tree_path) as store:
            store.read(0)
            store.read(1)
            store.read(1, charge=False)
            assert store.stats.random_reads == 2

    def test_write_and_free_raise_read_only(self, saved_tree_path):
        with MmapPageStore(saved_tree_path) as store:
            with pytest.raises(ReadOnlyStoreError):
                store.write(0, b"x")
            with pytest.raises(ReadOnlyStoreError):
                store.free(0)

    def test_fsck_mode_refuses_a_corrupt_file(self, saved_tree_path, tmp_path):
        bad = _corrupt_copy(saved_tree_path, tmp_path)
        with pytest.raises(PageCorruptionError):
            MmapPageStore(bad, verify="fsck")
        # The intact file passes the same audit.
        store = MmapPageStore(saved_tree_path, verify="fsck")
        assert store.verified
        store.close()

    def test_fsck_mode_verifies_whole_file(self, saved_tree_path):
        store = MmapPageStore(saved_tree_path, verify="fsck")
        assert store.verified
        store.close()

    def test_invalid_verify_mode_rejected(self, saved_tree_path):
        with pytest.raises(ValueError):
            MmapPageStore(saved_tree_path, verify="maybe")

    def test_unallocated_page_rejected(self, saved_tree_path):
        with MmapPageStore(saved_tree_path) as store:
            with pytest.raises(KeyError):
                store.read(store._next_id + 5)

    def test_close_with_live_views_is_safe(self, saved_tree_path):
        store = MmapPageStore(saved_tree_path)
        view = store.read(0)
        store.close()  # must not raise BufferError despite the live view
        assert bytes(view[:4]) == b"TBYH"  # page magic, still readable


# ----------------------------------------------------------------------
# Zero-copy decode + frozen nodes
# ----------------------------------------------------------------------
class TestZeroCopyTree:
    def test_open_refuses_corrupt_file(self, saved_tree_path, tmp_path):
        bad = _corrupt_copy(saved_tree_path, tmp_path)
        with pytest.raises(PageCorruptionError):
            HybridTree.open(bad, mmap=True)

    def test_queries_match_plain_open(self, saved_tree_path, workload, serial):
        tree = HybridTree.open(saved_tree_path, mmap=True)
        assert tree.read_only
        assert tree.range_search_many(workload["boxes"]) == serial["range"]
        assert (
            tree.distance_range_many(workload["centers"], workload["radii"])
            == serial["distance"]
        )
        assert tree.knn_many(workload["centers"], 5) == serial["knn"]
        tree.close()

    def test_data_nodes_are_frozen_readonly_views(self, saved_tree_path):
        tree = HybridTree.open(saved_tree_path, mmap=True)
        ids = [tree.root_id]
        node = None
        while ids:
            node = tree.nm.get(ids.pop(), charge=False)
            if isinstance(node, DataNode):
                break
            ids.extend(node.child_ids())
        assert isinstance(node, DataNode)
        assert node.frozen
        assert not node.vectors.flags.writeable
        assert not node.oids.flags.writeable
        assert node.vectors.base is not None  # a view, not an owned copy
        with pytest.raises(ValueError):
            node.vectors[0, 0] = 1.0
        with pytest.raises(FrozenNodeError):
            node.add(np.zeros(DIMS, dtype=np.float32), 1)
        with pytest.raises(FrozenNodeError):
            node.remove_at(0)
        tree.close()

    def test_mutations_fail_loudly(self, saved_tree_path, data):
        tree = HybridTree.open(saved_tree_path, mmap=True)
        with pytest.raises(FrozenNodeError):
            tree.insert(np.full(DIMS, 0.5, dtype=np.float32), 999_999)
        with pytest.raises(FrozenNodeError):
            tree.delete(data[0], 0)
        tree.close()

    def test_save_from_mmap_tree_roundtrips(self, saved_tree_path, workload, serial, tmp_path):
        tree = HybridTree.open(saved_tree_path, mmap=True)
        copy_path = tmp_path / "copy.pages"
        tree.save(copy_path)
        tree.close()
        reopened = HybridTree.open(copy_path)
        assert reopened.range_search_many(workload["boxes"]) == serial["range"]
        reopened.close()

    def test_from_views_rejects_mismatched_shapes(self):
        vectors = np.zeros((4, DIMS), dtype=np.float32)
        with pytest.raises(ValueError):
            DataNode.from_views(vectors, np.zeros(3, dtype=np.uint32))


# ----------------------------------------------------------------------
# Codec validation + iterative kd walks
# ----------------------------------------------------------------------
class TestCodecValidation:
    def test_count_exceeding_capacity_is_typed_error(self):
        big = HybridNodeCodec(4, 50)
        node = DataNode(4, 50)
        for i in range(40):
            node.add(np.full(4, i / 40, dtype=np.float32), i)
        page = big.encode(node)
        small = HybridNodeCodec(4, 10)
        with pytest.raises(ValueError, match="capacity of 10"):
            small.decode(page)

    def test_dims_mismatch_is_typed_error(self):
        codec4 = HybridNodeCodec(4, 20)
        node = DataNode(4, 20)
        node.add(np.zeros(4, dtype=np.float32), 0)
        node.add(np.ones(4, dtype=np.float32), 1)
        page = codec4.encode(node)
        with pytest.raises(ValueError, match="dims"):
            HybridNodeCodec(8, 20).decode(page)

    def test_truncated_data_payload_is_typed_error(self):
        # A frame whose header advertises 5 entries but whose payload is
        # one oid short: CRC-valid, structurally inconsistent.
        payload = _DATA_HEADER.pack(1, 5, 4) + b"\x00" * (5 * 4 * 4 + 4 * 4)
        page = frame_page(payload, 4096, 1, 0, 5)
        with pytest.raises(ValueError, match="expected"):
            HybridNodeCodec(4, 20).decode(page)

    def test_truncated_index_payload_is_typed_error(self):
        import struct

        payload = struct.pack("<BH", 2, 1) + struct.pack("<BHff", 1, 0, 0.5, 0.5)
        page = frame_page(payload, 4096, 2, 1, 2)
        with pytest.raises(ValueError, match="truncated"):
            HybridNodeCodec(4, 20).decode(page)

    def test_deep_kd_tree_roundtrips_iteratively(self):
        # A degenerate right-spine deeper than the interpreter's recursion
        # limit: the old recursive codec would raise RecursionError here.
        depth = sys.getrecursionlimit() + 500
        kd = KDLeaf(0)
        for i in range(1, depth + 1):
            kd = KDInternal(0, 0.5, 0.5, KDLeaf(i), kd)
        node = IndexNode(split_table(kd), level=1)
        codec = HybridNodeCodec(4, 20, page_size=65536)
        decoded = codec.decode(codec.encode(node))
        assert decoded.level == 1
        assert decoded.child_ids() == node.child_ids()

    def test_zero_copy_decode_equals_copy_decode(self, saved_tree_path):
        codec_copy = HybridNodeCodec(DIMS, 112)
        codec_view = HybridNodeCodec(DIMS, 112, copy=False, verify_checksums=False)
        with MmapPageStore(saved_tree_path) as store:
            for pid in range(store._next_id):
                page = store.read(pid, charge=False)
                try:
                    a = codec_copy.decode(bytes(page))
                except (ValueError, PageCorruptionError):
                    continue  # blob / superblock pages
                b = codec_view.decode(page)
                if isinstance(a, DataNode):
                    assert b.frozen and not a.frozen
                    assert np.array_equal(a.points(), b.points())
                    assert np.array_equal(a.live_oids(), b.live_oids())
                else:
                    assert a.child_ids() == b.child_ids()


# ----------------------------------------------------------------------
# Parallel engine determinism
# ----------------------------------------------------------------------
MODES = ("thread", "fork")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", (1, 2, 4))
class TestParallelDeterminism:
    def test_range_bit_identical(self, saved_tree_path, workload, serial, workers, mode):
        with ParallelQueryEngine(saved_tree_path, workers, mode) as engine:
            results, metrics = engine.range_search_many(
                workload["boxes"], return_metrics=True
            )
        assert results == serial["range"]
        # Range predicates are row-wise: per-query visit counts must be
        # independent of how the batch was partitioned.
        assert np.array_equal(metrics.pages, serial["range_visits"])

    def test_distance_bit_identical(
        self, saved_tree_path, workload, serial, workers, mode
    ):
        with ParallelQueryEngine(saved_tree_path, workers, mode) as engine:
            results, metrics = engine.distance_range_many(
                workload["centers"], workload["radii"], return_metrics=True
            )
        assert results == serial["distance"]
        assert np.array_equal(metrics.pages, serial["distance_visits"])

    def test_knn_bit_identical(self, saved_tree_path, workload, serial, workers, mode):
        with ParallelQueryEngine(saved_tree_path, workers, mode) as engine:
            results, metrics = engine.knn_many(
                workload["centers"], 5, return_metrics=True
            )
        assert results == serial["knn"]
        # Each query runs its own best-first search, so its visits are the
        # single-query search's whatever partition it lands in.
        assert np.array_equal(metrics.pages, serial["knn_visits"])


class TestParallelEngine:
    def test_spawn_mode_smoke(self, saved_tree_path, workload, serial):
        with ParallelQueryEngine(saved_tree_path, workers=2, mode="spawn") as engine:
            assert engine.knn_many(workload["centers"], 5) == serial["knn"]

    def test_unmapped_workers_match_too(self, saved_tree_path, workload, serial):
        with ParallelQueryEngine(
            saved_tree_path, workers=2, mode="thread", mmap=False
        ) as engine:
            assert engine.range_search_many(workload["boxes"]) == serial["range"]

    def test_empty_batches(self, saved_tree_path):
        with ParallelQueryEngine(saved_tree_path, workers=2) as engine:
            assert engine.range_search_many([]) == []
            results, metrics = engine.knn_many(
                np.empty((0, DIMS), dtype=np.float32), 3, return_metrics=True
            )
            assert results == [] and metrics.num_queries == 0

    def test_more_workers_than_queries(self, saved_tree_path, workload, serial):
        with ParallelQueryEngine(saved_tree_path, workers=4) as engine:
            few = engine.knn_many(workload["centers"][:2], 5)
        assert few == serial["knn"][:2]

    def test_merged_io_accounting(self, saved_tree_path, workload):
        with ParallelQueryEngine(saved_tree_path, workers=2) as engine:
            _, metrics = engine.range_search_many(
                workload["boxes"], return_metrics=True
            )
            # Every worker's reads land in the merged accountant.
            assert engine.io.random_reads == metrics.charged_reads > 0

    def test_invalid_parameters(self, saved_tree_path):
        with pytest.raises(ValueError):
            ParallelQueryEngine(saved_tree_path, workers=0)
        with pytest.raises(ValueError):
            ParallelQueryEngine(saved_tree_path, mode="greenlet")
        assert WORKER_MODES == ("thread", "fork", "spawn")

    def test_dimension_mismatch_rejected(self, saved_tree_path):
        with ParallelQueryEngine(saved_tree_path, workers=2) as engine:
            with pytest.raises(ValueError):
                engine.range_search_many([Rect.unit(DIMS + 1)])
            with pytest.raises(ValueError):
                engine.knn_many(np.zeros((2, DIMS)), 0)
            with pytest.raises(ValueError):
                engine.distance_range_many(np.zeros((2, DIMS)), -1.0)


# ----------------------------------------------------------------------
# QuerySession(workers=N)
# ----------------------------------------------------------------------
class TestSessionWorkers:
    def test_session_parallel_matches_serial(self, saved_tree_path, workload, serial):
        tree = HybridTree.open(saved_tree_path, mmap=True)
        with tree.session(workers=2) as session:
            assert session.workers == 2
            assert session.range_search_many(workload["boxes"]) == serial["range"]
            assert session.knn_many(workload["centers"], 5) == serial["knn"]
        tree.close()

    def test_refuses_unsaved_tree(self, data):
        tree = HybridTree.bulk_load(data[:200])
        with pytest.raises(ValueError, match="saved tree"):
            QuerySession(tree, workers=2)

    def test_refuses_unsaved_changes(self, saved_tree_path, data):
        tree = HybridTree.open(saved_tree_path)
        tree.insert(np.full(DIMS, 0.5, dtype=np.float32), 777_777)
        with pytest.raises(ValueError, match="unsaved"):
            tree.session(workers=2)
        tree.close()

    def test_serial_session_unchanged(self, saved_tree_path, workload, serial):
        tree = HybridTree.open(saved_tree_path)
        with tree.session() as session:
            assert session.workers == 1
            assert session.range_search_many(workload["boxes"]) == serial["range"]
        tree.close()
