"""Distance browsing, range counting, and a stateful fuzz of the tree."""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import HybridTree
from repro.datasets import clustered_dataset
from repro.distances import L1, L2
from repro.engine.kernel import kernel_knn_many
from repro.engine.query import QueryBatch
from repro.geometry.rect import Rect
from tests.conftest import brute_force_range, random_boxes


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(2500, 6, clusters=8, seed=77)


@pytest.fixture(scope="module")
def tree(data):
    t = HybridTree(6)
    for oid, v in enumerate(data):
        t.insert(v, oid)
    return t


class TestNearestIter:
    def test_yields_in_distance_order(self, tree, data, rng):
        q = rng.random(6)
        dists = [d for _, d in zip(range(200), ())]  # placeholder
        out = []
        for (oid, dist), _ in zip(tree.nearest_iter(q, L2), range(200)):
            out.append(dist)
        assert out == sorted(out)

    def test_prefix_equals_knn(self, tree, data, rng):
        for metric in (L1, L2):
            q = rng.random(6)
            browsed = []
            for (oid, dist), _ in zip(tree.nearest_iter(q, metric), range(15)):
                browsed.append(dist)
            knn = [d for _, d in tree.knn(q, 15, metric)]
            assert np.allclose(browsed, knn, atol=1e-9)

    def test_full_exhaustion(self, data):
        small = HybridTree(6)
        for oid, v in enumerate(data[:300]):
            small.insert(v, oid)
        results = list(small.nearest_iter(np.full(6, 0.5), L2))
        assert len(results) == 300
        assert {oid for oid, _ in results} == set(range(300))

    def test_lazy_io(self, tree, data, rng):
        """Stopping early must not traverse the whole tree."""
        q = data[3].astype(np.float64)
        tree.io.reset()
        for _ in zip(tree.nearest_iter(q, L2), range(5)):
            pass
        assert tree.io.random_reads < tree.pages() / 2


class TestCountRange:
    def test_matches_range_search(self, tree, data, rng):
        for query in random_boxes(rng, 6, 10):
            assert tree.count_range(query) == len(brute_force_range(data, query))

    def test_same_io_as_range_search(self, tree, rng):
        query = random_boxes(rng, 6, 1)[0]
        tree.io.reset()
        tree.range_search(query)
        io_search = tree.io.random_reads
        tree.io.reset()
        tree.count_range(query)
        assert tree.io.random_reads == io_search

    def test_dim_mismatch(self, tree):
        with pytest.raises(ValueError):
            tree.count_range(Rect.unit(3))


class HybridTreeMachine(RuleBasedStateMachine):
    """Stateful fuzz: the tree must always agree with a dict reference.

    Once a rule has compiled the SOA snapshot, it is kept through every
    later insert and delete, and the SOA batch answers must equal a numpy
    brute force over the reference after any interleaving of writes.
    """

    BOXES = [Rect(np.full(3, lo), np.full(3, lo + 0.3)) for lo in (0.0, 0.2, 0.45, 0.7)]
    CENTERS = np.array([[0.1, 0.5, 0.9], [0.5, 0.5, 0.5], [0.8, 0.2, 0.3]], dtype=np.float32)

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)

    @initialize()
    def setup(self):
        self.tree = HybridTree(3, els_bits=4)
        self.reference: dict[int, np.ndarray] = {}
        self.next_oid = 0

    @rule(x=st.floats(0, 1, width=32), y=st.floats(0, 1, width=32),
          z=st.floats(0, 1, width=32))
    def insert_point(self, x, y, z):
        v = np.array([x, y, z], dtype=np.float32)
        self.tree.insert(v, self.next_oid)
        self.reference[self.next_oid] = v
        self.next_oid += 1

    @rule(count=st.integers(1, 30))
    def insert_batch(self, count):
        for _ in range(count):
            v = self.rng.random(3).astype(np.float32)
            self.tree.insert(v, self.next_oid)
            self.reference[self.next_oid] = v
            self.next_oid += 1

    @rule(v=st.lists(st.floats(-1, 2, width=32), min_size=3, max_size=3))
    def insert_outside(self, v):
        """A point that may leave the unit cube: the root region grows
        under nodes that cached their child boxes."""
        v = np.array(v, dtype=np.float32)
        self.tree.insert(v, self.next_oid)
        self.reference[self.next_oid] = v
        self.next_oid += 1

    @rule()
    def delete_random(self):
        if not self.reference:
            return
        oid = int(self.rng.choice(list(self.reference)))
        assert self.tree.delete(self.reference[oid], oid)
        del self.reference[oid]

    @rule()
    def delete_missing(self):
        assert not self.tree.delete(np.array([0.123, 0.456, 0.789]), 10**9)

    @rule(lo=st.floats(0, 0.75, width=32), side=st.floats(0.0625, 0.25, width=32))
    def check_range_query(self, lo, side):
        box = Rect(np.full(3, lo), np.full(3, min(1.0, lo + side)))
        expected = {
            oid
            for oid, v in self.reference.items()
            if box.contains_point(v.astype(np.float64))
        }
        assert set(self.tree.range_search(box)) == expected
        assert self.tree.count_range(box) == len(expected)

    def _rows(self):
        oids = np.array(sorted(self.reference), dtype=np.int64)
        rows = np.array([self.reference[o] for o in oids], dtype=np.float64).reshape(-1, 3)
        return oids, rows

    @rule()
    def check_knn(self):
        if len(self.reference) < 3:
            return
        q = self.rng.random(3).astype(np.float32).astype(np.float64)
        got = self.tree.knn(q, 3, L1)
        oids, rows = self._rows()
        dists = L1.distance_batch(rows, q)
        order = np.lexsort((oids, dists))[:3]
        assert got == [(int(oids[i]), float(dists[i])) for i in order]

    @rule(radius=st.floats(0.0, 0.5))
    def check_distance_range(self, radius):
        q = self.rng.random(3).astype(np.float32).astype(np.float64)
        got = self.tree.distance_range(q, radius, L2)
        oids, rows = self._rows()
        dists = L2.distance_batch(rows, q)
        hits = np.flatnonzero(dists <= radius)
        assert sorted(got) == [(int(oids[i]), float(dists[i])) for i in hits]

    @rule()
    def compile_snapshot(self):
        self.tree.compile_snapshot()

    @invariant()
    def soa_batches_match_brute_force(self):
        if not hasattr(self, "tree") or self.tree.refresh_snapshot() is None:
            return
        oids = np.array(sorted(self.reference), dtype=np.int64)
        rows = np.array([self.reference[o] for o in oids], dtype=np.float64).reshape(-1, 3)
        for box, got in zip(self.BOXES, self.tree.range_search_many(self.BOXES)):
            inside = np.all((rows >= box.low) & (rows <= box.high), axis=1)
            assert sorted(got) == oids[inside].tolist()
        k = 4
        knn, metrics = self.tree.knn_many(self.CENTERS, k, L2, return_metrics=True)
        for center, got in zip(self.CENTERS, knn):
            dists = L2.distance_batch(rows, center.astype(np.float64))
            order = np.lexsort((oids, dists))[:k]
            assert got == [(int(oids[i]), float(dists[i])) for i in order]
        # The SOA batch bills each query what the object kernel visits.
        _, walked = kernel_knn_many(
            self.tree, QueryBatch.knn(self.CENTERS, k, L2, 0.0, self.tree.dims), True
        )
        assert metrics.pages.tolist() == walked.pages.tolist()
        assert self.tree.soa_snapshot is not None

    @invariant()
    def size_agrees(self):
        if hasattr(self, "tree"):
            assert len(self.tree) == len(self.reference)

    def teardown(self):
        if hasattr(self, "tree") and len(self.tree):
            self.tree.validate()


TestHybridTreeStateful = HybridTreeMachine.TestCase
TestHybridTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class WalHybridTreeMachine(HybridTreeMachine):
    """The same rules and invariants on a WAL-backed tree: saved to a
    temporary directory and reopened with ``wal=True``, so every write is
    logged and committed.  ``crash_and_reopen`` closes the tree without a
    save and reopens it through log replay."""

    BUFFER_PAGES = None
    BASE_POINTS = 0

    def _open(self):
        return HybridTree.open(self.path, wal=True, buffer_pages=self.BUFFER_PAGES)

    @initialize()
    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="hybrid-wal-")
        self.path = os.path.join(self.dir, "t.pages")
        base = np.random.default_rng(1).random((self.BASE_POINTS, 3)).astype(np.float32)
        if len(base):
            HybridTree.bulk_load(base, els_bits=4, page_size=512).save(self.path)
        else:
            HybridTree(3, els_bits=4, page_size=512).save(self.path)
        self.tree = self._open()
        self.reference: dict[int, np.ndarray] = dict(enumerate(base))
        self.next_oid = len(base)

    @rule()
    def crash_and_reopen(self):
        self.tree.close()
        self.tree = self._open()

    def teardown(self):
        try:
            super().teardown()
        finally:
            if hasattr(self, "tree"):
                self.tree.close()
                shutil.rmtree(self.dir, ignore_errors=True)


TestWalHybridTreeStateful = WalHybridTreeMachine.TestCase
TestWalHybridTreeStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


class BoundedWalHybridTreeMachine(WalHybridTreeMachine):
    """The WAL machine through a 3-page node cache.  It starts from 2,000
    bulk-loaded points, a tree with more index pages than the buffer holds,
    so queries evict index pages as well as leaves, and inserts and deletes
    evict dirty pages of both kinds mid-transaction (write-back).  Every
    answer, replay and ``validate()`` must still agree with the reference.

    A commit writes its pages through, so a page is dirty only inside one
    transaction; with 4 buffer pages an insert almost never evicts a dirty
    index page (none in 15 examples), with 3 it does."""

    BUFFER_PAGES = 3
    BASE_POINTS = 2000


TestBoundedWalHybridTreeStateful = BoundedWalHybridTreeMachine.TestCase
TestBoundedWalHybridTreeStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
