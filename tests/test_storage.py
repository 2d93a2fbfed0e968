"""Tests for the paged storage substrate."""

import numpy as np
import pytest

from repro.storage import (
    DEFAULT_PAGE_SIZE,
    FilePageStore,
    InMemoryPageStore,
    IOStats,
    LRUBufferPool,
    NodeManager,
    PageLayout,
    data_node_capacity,
    kdtree_node_capacity,
    rtree_node_capacity,
    srtree_node_capacity,
    sstree_node_capacity,
)
from repro.storage.iostats import SEQUENTIAL_SPEEDUP, AccessKind
from repro.storage.page import sequential_scan_pages


class TestPageLayout:
    def test_usable(self):
        assert PageLayout().usable == DEFAULT_PAGE_SIZE - 32

    def test_rejects_tiny_pages(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=16)

    def test_data_capacity_paper_values(self):
        # 4K pages: ~59 16-d entries, ~15 64-d entries (float32 + oid).
        assert data_node_capacity(16) == (4096 - 32) // (16 * 4 + 4)
        assert data_node_capacity(64) == (4096 - 32) // (64 * 4 + 4)
        assert data_node_capacity(64) == 15

    def test_data_capacity_rejects_absurd_dims(self):
        with pytest.raises(ValueError):
            data_node_capacity(10_000)

    def test_kdtree_fanout_dimension_independent(self):
        caps = {kdtree_node_capacity(d) for d in (2, 16, 64, 256)}
        assert len(caps) == 1
        assert caps.pop() > 100  # "high fanout"

    def test_rtree_fanout_shrinks_linearly(self):
        assert rtree_node_capacity(64) < rtree_node_capacity(16) / 2

    def test_srtree_fanout_smallest(self):
        for dims in (16, 32, 64):
            assert srtree_node_capacity(dims) < sstree_node_capacity(dims)
            assert srtree_node_capacity(dims) < rtree_node_capacity(dims)
        assert srtree_node_capacity(64) <= 6  # the paper-era collapse

    def test_sequential_scan_pages(self):
        per_page = data_node_capacity(16)
        assert sequential_scan_pages(per_page, 16) == 1
        assert sequential_scan_pages(per_page + 1, 16) == 2


class TestIOStats:
    def test_record_and_totals(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ, 3)
        io.record(AccessKind.SEQUENTIAL_READ, 10)
        io.record(AccessKind.RANDOM_WRITE)
        assert io.total_accesses == 14
        assert io.random_accesses == 4
        assert io.sequential_accesses == 10

    def test_weighted_cost_sequential_discount(self):
        io = IOStats()
        io.record(AccessKind.SEQUENTIAL_READ, 10)
        assert io.weighted_cost() == pytest.approx(10 / SEQUENTIAL_SPEEDUP)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IOStats().record(AccessKind.RANDOM_READ, -1)

    def test_checkpoint_delta(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ, 5)
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ, 2)
        io.record(AccessKind.SEQUENTIAL_WRITE, 1)
        delta = io.since_checkpoint()
        assert delta.random_reads == 2 and delta.sequential_writes == 1

    def test_since_checkpoint_requires_checkpoint(self):
        with pytest.raises(RuntimeError):
            IOStats().since_checkpoint()

    def test_nested_checkpoints(self):
        io = IOStats()
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ)
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ, 2)
        assert io.since_checkpoint().random_reads == 2
        assert io.since_checkpoint().random_reads == 3

    def test_reset(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ)
        io.reset()
        assert io.total_accesses == 0


class TestInMemoryPageStore:
    def test_allocate_read_write(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.write(pid, b"hello")
        assert store.read(pid).startswith(b"hello")
        assert store.stats.random_reads == 1 and store.stats.random_writes == 1

    def test_unallocated_read_raises(self):
        with pytest.raises(KeyError):
            InMemoryPageStore().read(0)

    def test_overflow_rejected(self):
        store = InMemoryPageStore(page_size=8)
        pid = store.allocate()
        with pytest.raises(ValueError):
            store.write(pid, b"123456789")

    def test_free_recycles(self):
        store = InMemoryPageStore()
        a = store.allocate()
        store.free(a)
        assert store.allocate() == a
        assert store.allocated_pages == 1

    def test_ensure_allocated(self):
        store = InMemoryPageStore()
        store.ensure_allocated(5)
        store.write(5, b"x")
        assert store.read(5)[0:1] == b"x"


class TestFilePageStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pages.bin"
        with FilePageStore(path, page_size=64) as store:
            a = store.allocate()
            b = store.allocate()
            store.write(a, b"alpha")
            store.write(b, b"beta")
            store.flush()
        with FilePageStore(path, page_size=64) as store:
            assert store.allocated_pages == 2
            assert store.read(0).startswith(b"alpha")
            assert store.read(1).startswith(b"beta")

    def test_short_page_padded(self, tmp_path):
        with FilePageStore(tmp_path / "p.bin", page_size=32) as store:
            pid = store.allocate()
            store.write(pid, b"x")
            assert len(store.read(pid)) == 32


class TestBufferPool:
    def test_hit_and_miss_accounting(self):
        store = InMemoryPageStore()
        pids = [store.allocate() for _ in range(3)]
        for pid in pids:
            store.write(pid, bytes([pid]))
        store.stats.reset()
        pool = LRUBufferPool(store, capacity=2)
        pool.read(pids[0])
        pool.read(pids[0])
        assert pool.hits == 1 and pool.misses == 1
        assert store.stats.random_reads == 1  # hit not charged

    def test_lru_eviction_writes_back_dirty(self):
        store = InMemoryPageStore()
        pids = [store.allocate() for _ in range(3)]
        pool = LRUBufferPool(store, capacity=2)
        pool.write(pids[0], b"a")
        pool.write(pids[1], b"b")
        pool.write(pids[2], b"c")  # evicts pids[0], which is dirty
        assert store.read(pids[0]).startswith(b"a")

    def test_failed_writeback_keeps_dirty_victim(self):
        # If evicting a dirty victim fails mid-write-back, the frame must
        # stay in the pool (still dirty) — dropping it would lose the only
        # copy of the data.
        from repro.storage.errors import TransientStorageError
        from repro.storage.faults import FaultInjectingPageStore

        inner = InMemoryPageStore()
        store = FaultInjectingPageStore(inner)
        pids = [store.allocate() for _ in range(3)]
        pool = LRUBufferPool(store, capacity=2)
        pool.write(pids[0], b"a")
        pool.write(pids[1], b"b")
        store.fail_writes(1)
        with pytest.raises(TransientStorageError):
            pool.write(pids[2], b"c")  # write-back of victim pids[0] fails
        # The victim survived in the pool and its data is intact.
        assert pool.read(pids[0]).startswith(b"a")
        assert pool.hits == 1
        # A retry succeeds and nothing was lost.
        pool.write(pids[2], b"c")
        pool.flush()
        for pid, payload in zip(pids, (b"a", b"b", b"c")):
            assert inner.read(pid).startswith(payload)

    def test_flush(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        pool = LRUBufferPool(store, capacity=2)
        pool.write(pid, b"z")
        pool.flush()
        assert store.read(pid).startswith(b"z")

    def test_invalidate(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        pool = LRUBufferPool(store, capacity=2)
        pool.write(pid, b"z")
        pool.invalidate(pid)
        assert len(pool) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUBufferPool(InMemoryPageStore(), 0)

    def test_hit_rate(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.write(pid, b"")
        pool = LRUBufferPool(store, capacity=1)
        assert pool.hit_rate == 0.0
        pool.read(pid)
        pool.read(pid)
        assert pool.hit_rate == 0.5


class TestNodeManager:
    def test_get_charges_one_read(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        assert nm.get(pid) == "node"
        assert nm.stats.random_reads == 1

    def test_uncharged_get(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        nm.get(pid, charge=False)
        assert nm.stats.total_accesses == 0

    def test_missing_node_without_codec(self):
        nm = NodeManager()
        pid = nm.allocate()
        with pytest.raises(KeyError):
            nm.get(pid)

    def test_flush_requires_codec(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        with pytest.raises(RuntimeError):
            nm.flush()

    def test_evict_all_guards_dirty(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        with pytest.raises(RuntimeError):
            nm.evict_all()

    def test_free_drops_cache(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        nm.free(pid)
        assert nm.cached_nodes == 0


class TestHybridNodeCodec:
    def test_data_node_round_trip(self):
        from repro.core.nodes import DataNode
        from repro.storage.serialization import HybridNodeCodec

        rng = np.random.default_rng(0)
        codec = HybridNodeCodec(dims=8, data_capacity=20)
        node = DataNode(8, 20)
        for i in range(13):
            node.add(rng.random(8).astype(np.float32), i * 7)
        decoded = codec.decode(codec.encode(node))
        assert decoded.count == 13
        assert np.array_equal(decoded.points(), node.points())
        assert np.array_equal(decoded.live_oids(), node.live_oids())

    def test_index_node_round_trip(self):
        from repro.core.nodes import IndexNode
        from repro.storage.serialization import HybridNodeCodec
        from tests.kd_reference import KDInternal, KDLeaf, same_table, split_table

        codec = HybridNodeCodec(dims=4, data_capacity=10)
        kd = KDInternal(
            2, 0.75, 0.5, KDLeaf(7), KDInternal(0, 0.25, 0.25, KDLeaf(9), KDLeaf(11))
        )
        node = IndexNode(split_table(kd), level=3)
        decoded = codec.decode(codec.encode(node))
        assert decoded.level == 3
        assert decoded.child_ids() == [7, 9, 11]
        assert decoded.table.dim.tolist() == [2, 0]
        assert decoded.table.lsp.tolist() == [0.75, 0.25]
        assert decoded.table.rsp.tolist() == [0.5, 0.25]
        assert same_table(decoded.table, node.table)

    def test_oversized_node_rejected(self):
        from repro.core.nodes import DataNode
        from repro.storage.serialization import HybridNodeCodec

        codec = HybridNodeCodec(dims=64, data_capacity=64, page_size=4096)
        node = DataNode(64, 64)  # deliberately beyond the 4K budget
        for i in range(64):
            node.add(np.zeros(64, dtype=np.float32), i)
        with pytest.raises(ValueError):
            codec.encode(node)

    def test_unknown_kind_rejected(self):
        from repro.storage.serialization import HybridNodeCodec

        with pytest.raises(ValueError):
            HybridNodeCodec(2, 4).decode(b"\x99\x00\x00\x00")

    def test_full_capacity_nodes_fit_page(self):
        """The capacity model must never admit a node that cannot be packed."""
        from repro.core.nodes import DataNode, IndexNode
        from repro.storage.serialization import HybridNodeCodec
        from tests.kd_reference import KDInternal, KDLeaf, split_table

        def build(lo, hi):
            if hi - lo == 1:
                return KDLeaf(lo)
            mid = (lo + hi) // 2
            return KDInternal(0, 0.5, 0.5, build(lo, mid), build(mid, hi))

        # At 8192 bytes the capacity model leaves only 2 spare bytes.
        for page_size in (512, 1024, 4096, 8192, 65536):
            layout = PageLayout(page_size=page_size)
            for dims in (2, 16, 64):
                if dims * 4 * 2 + 8 > layout.usable:
                    continue
                cap = data_node_capacity(dims, layout)
                codec = HybridNodeCodec(dims, cap, page_size)
                full = DataNode(dims, cap)
                for i in range(full.capacity):
                    full.add(np.zeros(dims, dtype=np.float32), i)
                assert len(codec.encode(full)) <= page_size
                assert codec.decode(codec.encode(full)).count == cap

            # Balanced kd-tree with the maximum number of leaves.
            cap = kdtree_node_capacity(16, layout)
            codec = HybridNodeCodec(16, data_node_capacity(16, layout), page_size)
            node = IndexNode(split_table(build(0, cap)), level=1)
            page = codec.encode(node)
            assert len(page) <= page_size
            assert codec.decode(page).child_ids() == list(range(cap))


class TestBoundedNodeManager:
    def _saved_tree(self, tmp_path):
        from repro.core import HybridTree
        from repro.datasets import uniform_dataset
        from repro.geometry.rect import Rect

        data = uniform_dataset(1500, 6, seed=70)
        tree = HybridTree(6)
        for oid, v in enumerate(data):
            tree.insert(v, oid)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        return path, tree, Rect([0.2] * 6, [0.8] * 6)

    def test_requires_codec(self):
        with pytest.raises(ValueError):
            NodeManager(max_cached=4)

    def test_rejects_zero_capacity(self):
        from repro.storage.serialization import HybridNodeCodec

        with pytest.raises(ValueError):
            NodeManager(codec=HybridNodeCodec(2, 8), max_cached=0)

    def test_eviction_bounds_cache(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        reopened = HybridTree.open(path, buffer_pages=8)
        reopened.range_search(box)
        assert reopened.nm.cached_nodes <= 8

    def test_results_identical_under_pressure(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        cold = HybridTree.open(path)
        tight = HybridTree.open(path, buffer_pages=4)
        assert set(tight.range_search(box)) == set(cold.range_search(box))

    def test_warm_hits_are_free(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        buffered = HybridTree.open(path, buffer_pages=10_000)
        buffered.range_search(box)
        buffered.io.reset()
        buffered.range_search(box)
        assert buffered.io.random_reads == 0  # fully cached: no faults

    def test_bounded_miss_respects_charge_flag(self, tmp_path):
        """Regression: ``get(..., charge=False)`` used to charge anyway when
        the bounded cache missed and the page was re-read from the store."""
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        small = HybridTree.open(path, buffer_pages=4)
        small.range_search(box)  # fault + evict: root may no longer be cached
        small.nm.evict_all()
        small.io.reset()
        small.nm.get(small.root_id, charge=False)
        assert small.io.total_accesses == 0
        # validate() reads every page uncharged even under a bounded pool.
        small.io.reset()
        small.validate()
        assert small.io.total_accesses == 0

    def test_dirty_eviction_writes_back(self, tmp_path):
        from repro.core import HybridTree
        from repro.geometry.rect import Rect
        import numpy as np

        path, tree, box = self._saved_tree(tmp_path)
        small = HybridTree.open(path, buffer_pages=6)
        v = np.full(6, 0.5, dtype=np.float32)
        small.insert(v, 999_999)
        # Thrash the cache so the dirty page is evicted and re-read.
        small.range_search(Rect.unit(6))
        assert 999_999 in small.point_search(v)


class StrCodec:
    """Stores string nodes as their UTF-8 bytes."""

    def encode(self, node):
        return node.encode()

    def decode(self, data):
        return data.rstrip(b"\x00").decode()


class CountingStore:
    """Delegates to a page store and counts the charged reads that reach it."""

    def __init__(self, store):
        self.store = store
        self.charged_reads = 0

    def __getattr__(self, name):
        return getattr(self.store, name)

    def read(self, page_id, kind=AccessKind.RANDOM_READ, charge=True):
        self.charged_reads += bool(charge)
        return self.store.read(page_id, kind, charge)


class TestLevelAwareEviction:
    """A bounded node cache evicts leaves before index pages.

    The tree: 2,000 bulk-loaded 3-d points on 512-byte pages, height 3,
    with a handful of index pages and about a hundred leaves."""

    @pytest.fixture
    def path(self, tmp_path):
        from repro.core import HybridTree
        from repro.datasets import uniform_dataset

        data = uniform_dataset(2000, 3, seed=72)
        path = str(tmp_path / "t.pages")
        HybridTree.bulk_load(data, page_size=512).save(path)
        return path

    @staticmethod
    def _index_pages(path):
        from repro.core import HybridTree
        from repro.core.nodes import IndexNode

        tree = HybridTree.open(path)
        count, stack = 0, [tree.root_id]
        while stack:
            node = tree.nm.get(stack.pop(), charge=False)
            if isinstance(node, IndexNode):
                count += 1
                stack.extend(node.child_ids())
        return count

    @staticmethod
    def _queries(tree, seed):
        from repro.distances import L2
        from repro.geometry.rect import Rect

        rng = np.random.default_rng(seed)
        out = []
        for _ in range(12):
            low = rng.random(3) * 0.7
            out.append(tree.range_search(Rect(low, low + 0.3)))
            center = rng.random(3)
            out.append(tree.distance_range(center, 0.15, L2))
            out.append(tree.knn(center, 5, L2))
        return out

    def test_charged_reads_are_store_reads(self, path):
        from repro.core import HybridTree

        tree = HybridTree.open(path, buffer_pages=3)
        counting = CountingStore(tree.nm.store)
        tree.nm.store = counting
        self._queries(tree, seed=1)
        assert tree.nm.index_evictions > 0
        assert tree.io.random_reads == counting.charged_reads > 0

    def test_buffer_above_index_pages_keeps_them(self, path):
        from repro.core import HybridTree

        index_pages = self._index_pages(path)
        assert index_pages > 3
        tree = HybridTree.open(path, buffer_pages=index_pages + 1)
        self._queries(tree, seed=2)  # warm pass
        evicted = tree.nm.data_evictions
        for seed in (3, 4, 5):
            self._queries(tree, seed)
        assert tree.nm.data_evictions > evicted  # leaves did cycle
        assert tree.nm.index_evictions == 0

    def test_small_buffer_bounds_cache_and_answers(self, path):
        from repro.core import HybridTree

        assert self._index_pages(path) > 3
        cold = HybridTree.open(path)
        tight = HybridTree.open(path, buffer_pages=3)
        tight.nm.pin(tight.root_id)
        for seed in (6, 7):
            assert self._queries(tight, seed) == self._queries(cold, seed)
            assert tight.nm.cached_nodes <= 3 + tight.nm.pinned_nodes
        assert tight.nm.index_evictions > 0

    def test_admitted_page_is_not_its_own_victim(self, path):
        from repro.core import HybridTree
        from repro.core.nodes import IndexNode

        tree = HybridTree.open(path, buffer_pages=3)
        root = tree.nm.get(tree.root_id)
        upper = [tree.root_id, *root.child_ids()[:2]]
        leaf_id = tree.nm.get(upper[1]).child_ids()[0]
        for pid in upper:  # the cache now holds index pages only
            assert isinstance(tree.nm.get(pid), IndexNode)
        evicted = tree.nm.index_evictions
        tree.nm.get(leaf_id)  # the lowest level holds only this page
        assert tree.nm.index_evictions == evicted + 1
        tree.io.reset()
        tree.nm.get(leaf_id)
        assert tree.io.random_reads == 0  # still resident: a free hit

    def test_worker_view_hits_pages_pinned_in_the_source(self, path):
        """A thread worker's view shares the source's cache but not its pin
        set, so it hits pages that are resident yet in no eviction order."""
        from repro.core import HybridTree
        from repro.engine.parallel import _index_view
        from repro.geometry.rect import Rect

        tree = HybridTree.open(path, buffer_pages=3)
        tree.nm.pin(tree.root_id)
        view = _index_view(tree)
        cold = HybridTree.open(path)
        for lo in np.linspace(0, 0.7, 8):
            box = Rect(np.full(3, lo), np.full(3, lo + 0.3))
            assert view.range_search(box) == cold.range_search(box)
        assert tree.nm.cached_nodes <= 3 + tree.nm.pinned_nodes

    def test_failed_write_back_keeps_the_victim(self):
        class FailingStore(InMemoryPageStore):
            fail = False

            def write(self, *args, **kwargs):
                if self.fail:
                    raise OSError("disk full")
                super().write(*args, **kwargs)

        store = FailingStore()
        nm = NodeManager(store=store, codec=StrCodec(), max_cached=1)
        a, b = nm.allocate(), nm.allocate()
        nm.put(a, "a")
        store.fail = True
        with pytest.raises(OSError):
            nm.put(b, "b")  # evicts a, whose write-back fails
        store.fail = False
        assert nm.dirty_nodes == 2  # a is still resident, still dirty
        nm.flush()
        nm.evict_all()
        assert (nm.get(a), nm.get(b)) == ("a", "b")

    def test_evicted_dirty_index_page_survives_save(self, path, tmp_path):
        from repro.core import HybridTree
        from repro.core.nodes import IndexNode
        from repro.geometry.rect import Rect

        tree = HybridTree.open(path, buffer_pages=3)
        rng = np.random.default_rng(8)
        added = {10_000: rng.random(3).astype(np.float32)}
        tree.insert(added[10_000], 10_000)
        dirty_index = {
            pid for pid in tree.nm._dirty if isinstance(tree.nm._cache[pid], IndexNode)
        }
        assert dirty_index
        tree.range_search(Rect.unit(3))  # every page: thrash the cache
        assert dirty_index - set(tree.nm._cache)  # evicted while dirty
        for oid in range(10_001, 10_400):  # many more dirty evictions
            added[oid] = rng.random(3).astype(np.float32)
            tree.insert(added[oid], oid)
        saved = str(tmp_path / "saved.pages")
        tree.save(saved)
        reopened = HybridTree.open(saved)
        reopened.validate()
        assert len(reopened) == 2400
        for oid, v in added.items():
            assert oid in reopened.point_search(v)
        assert sorted(reopened.range_search(Rect.unit(3))) == list(range(2000)) + sorted(added)


class TestPinning:
    def test_pin_charges_once_then_free(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        assert nm.pin(pid) == "node"
        assert nm.stats.random_reads == 1
        nm.get(pid)
        nm.get(pid)
        assert nm.stats.random_reads == 1  # pinned visits are free
        nm.unpin(pid)
        nm.get(pid)
        assert nm.stats.random_reads == 2

    def test_unpin_all(self):
        nm = NodeManager()
        pids = [nm.allocate() for _ in range(3)]
        for pid in pids:
            nm.put(pid, "n", charge=False)
            nm.pin(pid, charge=False)
        assert nm.pinned_nodes == 3
        nm.unpin_all()
        assert nm.pinned_nodes == 0

    def test_free_discards_pin(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "n", charge=False)
        nm.pin(pid, charge=False)
        nm.free(pid)
        assert nm.pinned_nodes == 0

    def test_pinned_never_evicted_under_pressure(self, tmp_path):
        from repro.core import HybridTree
        from repro.datasets import uniform_dataset
        from repro.geometry.rect import Rect

        data = uniform_dataset(1500, 6, seed=71)
        tree = HybridTree(6)
        for oid, v in enumerate(data):
            tree.insert(v, oid)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        small = HybridTree.open(path, buffer_pages=3)
        small.nm.pin(small.root_id)
        small.range_search(Rect.unit(6))  # way more than 3 pages touched
        assert small.nm.cached_nodes <= 3 + small.nm.pinned_nodes
        small.io.reset()
        small.nm.get(small.root_id)
        assert small.io.random_reads == 0

    def test_evict_all_keeps_pinned(self):
        nm = NodeManager(codec=StrCodec())
        pid, other = nm.allocate(), nm.allocate()
        nm.put(pid, "a", charge=False)
        nm.put(other, "b", charge=False)
        nm.flush()
        nm.pin(pid, charge=False)
        nm.evict_all()
        assert nm.cached_nodes == 1
        nm.stats.reset()
        assert nm.get(pid) == "a"
        assert nm.stats.random_reads == 0


class TestPageFraming:
    def test_round_trip(self):
        from repro.storage import frame_page, unframe_page

        page = frame_page(b"hello", 4096, kind=1, level=3, entry_count=42)
        assert len(page) == 4096
        header, payload = unframe_page(page)
        assert payload == b"hello"
        assert (header.kind, header.level, header.entry_count) == (1, 3, 42)

    def test_payload_budget_enforced(self):
        from repro.storage import PAGE_HEADER_SIZE, frame_page

        frame_page(b"x" * (4096 - PAGE_HEADER_SIZE), 4096, kind=1)
        with pytest.raises(ValueError):
            frame_page(b"x" * (4096 - PAGE_HEADER_SIZE + 1), 4096, kind=1)

    def test_empty_payload(self):
        from repro.storage import frame_page, unframe_page

        header, payload = unframe_page(frame_page(b"", 512, kind=3))
        assert payload == b""
        assert header.payload_length == 0

    def test_zero_page_rejected(self):
        from repro.storage import PageCorruptionError, unframe_page

        with pytest.raises(PageCorruptionError):
            unframe_page(b"\x00" * 4096, page_id=9)

    def test_truncated_page_rejected(self):
        from repro.storage import PageCorruptionError, frame_page, unframe_page

        page = frame_page(b"data", 4096, kind=1)
        with pytest.raises(PageCorruptionError):
            unframe_page(page[:16])

    def test_corruption_error_is_a_value_error(self):
        from repro.storage import PageCorruptionError

        err = PageCorruptionError("CRC32 mismatch", page_id=5)
        assert isinstance(err, ValueError)
        assert "page 5" in str(err)


class TestAllocatorHardening:
    def test_double_free_rejected(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.free(pid)
        with pytest.raises(ValueError, match="double free"):
            store.free(pid)

    def test_free_after_recycle_is_legal(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.free(pid)
        assert store.allocate() == pid
        store.free(pid)  # freed again only after being re-allocated

    def test_ensure_allocated_jumps_horizon(self):
        store = InMemoryPageStore()
        store.ensure_allocated(10_000_000)  # O(1), not a 10M-iteration loop
        assert store._next_id == 10_000_001
        store.ensure_allocated(5)  # never shrinks
        assert store._next_id == 10_000_001

    def test_set_allocator_state(self):
        store = InMemoryPageStore()
        store.set_allocator_state(10, [2, 7, 99])  # 99 out of range: dropped
        assert store._next_id == 10
        assert set(store.free_page_ids) == {2, 7}
        with pytest.raises(ValueError):
            store.set_allocator_state(10, [3, 3])


class TestOverlayPageStore:
    def test_reads_fall_through_writes_do_not(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            pid = base.allocate()
            base.write(pid, b"disk", charge=False)
            base.flush()
            overlay = OverlayPageStore(base)
            assert overlay.read(pid, charge=False).startswith(b"disk")
            overlay.write(pid, b"memory", charge=False)
            assert overlay.read(pid, charge=False).startswith(b"memory")
            # The file never saw the overlay write.
            assert base.read(pid, charge=False).startswith(b"disk")

    def test_overlay_pages_beyond_base_read_as_zeros(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            overlay = OverlayPageStore(base)
            pid = overlay.allocate()
            assert overlay.read(pid, charge=False) == b"\x00" * 64

    def test_shares_stats_with_base(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            overlay = OverlayPageStore(base)
            pid = overlay.allocate()
            overlay.write(pid, b"x")
            overlay.read(pid)
            assert base.stats.random_writes == 1
            assert base.stats.random_reads == 1


class TestChecksummedFileStore:
    def test_checked_read_rejects_raw_bytes(self, tmp_path):
        from repro.storage import PageCorruptionError

        with FilePageStore(tmp_path / "x.bin", 4096, checksums=True) as store:
            pid = store.allocate()
            store.write(pid, b"raw unframed bytes", charge=False)
            with pytest.raises(PageCorruptionError):
                store.read(pid, charge=False)

    def test_checked_read_accepts_framed_page(self, tmp_path):
        from repro.storage import frame_page, unframe_page

        with FilePageStore(tmp_path / "x.bin", 4096, checksums=True) as store:
            pid = store.allocate()
            store.write(pid, frame_page(b"payload", 4096, kind=1), charge=False)
            _, payload = unframe_page(store.read(pid, charge=False))
            assert payload == b"payload"
