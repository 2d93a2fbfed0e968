"""Tests for top-down bulk loading."""

import numpy as np
import pytest

from repro.core import HybridTree, compute_stats
from repro.core.bulkload import bulk_load_into
from repro.datasets import clustered_dataset, uniform_dataset
from repro.geometry.rect import Rect
from tests.conftest import brute_force_range, random_boxes


class TestBulkLoad:
    def test_equivalent_results_to_dynamic(self, rng):
        data = uniform_dataset(4000, 8, seed=20)
        bulk = HybridTree.bulk_load(data)
        dynamic = HybridTree(8)
        for oid, v in enumerate(data):
            dynamic.insert(v, oid)
        for query in random_boxes(rng, 8, 15):
            expected = brute_force_range(data, query)
            assert set(bulk.range_search(query)) == expected
            assert set(dynamic.range_search(query)) == expected

    def test_validates(self):
        data = clustered_dataset(6000, 16, clusters=7, seed=21)
        tree = HybridTree.bulk_load(data)
        tree.validate()
        assert len(tree) == 6000

    def test_zero_overlap_after_bulk(self):
        data = uniform_dataset(5000, 8, seed=22)
        tree = HybridTree.bulk_load(data)
        stats = compute_stats(tree)
        assert stats.overlapping_split_count == 0
        assert stats.data_level_overlap_volume == pytest.approx(0.0)

    def test_custom_oids(self):
        data = uniform_dataset(100, 4, seed=23)
        oids = np.arange(1000, 1100, dtype=np.uint32)
        tree = HybridTree.bulk_load(data, oids=oids)
        assert sorted(tree.range_search(Rect.unit(4))) == list(range(1000, 1100))

    def test_small_datasets(self):
        for n in (0, 1, 2, 5):
            data = uniform_dataset(n, 4, seed=24) if n else np.empty((0, 4), np.float32)
            tree = HybridTree.bulk_load(data)
            assert len(tree) == n
            if n:
                tree.validate()
                assert len(tree.range_search(Rect.unit(4))) == n

    def test_single_data_node(self):
        data = uniform_dataset(10, 64, seed=25)
        tree = HybridTree.bulk_load(data)
        assert tree.height == 1
        assert len(tree.range_search(Rect.unit(64))) == 10

    def test_dynamic_inserts_after_bulk(self, rng):
        data = uniform_dataset(3000, 8, seed=26)
        tree = HybridTree.bulk_load(data)
        extra = uniform_dataset(500, 8, seed=27)
        for i, v in enumerate(extra):
            tree.insert(v, 10_000 + i)
        tree.validate()
        everything = np.vstack([data, extra])
        q = random_boxes(rng, 8, 5)[0]
        assert set(tree.range_search(q)) == {
            (i if i < 3000 else 10_000 + i - 3000)
            for i in brute_force_range(everything, q)
        }

    def test_deletes_after_bulk(self):
        data = uniform_dataset(2000, 8, seed=28)
        tree = HybridTree.bulk_load(data)
        for oid in range(700):
            assert tree.delete(data[oid], oid)
        tree.validate()
        assert len(tree) == 1300

    def test_rejects_nonempty_tree(self):
        data = uniform_dataset(50, 4, seed=29)
        tree = HybridTree(4)
        tree.insert(data[0], 0)
        with pytest.raises(ValueError):
            bulk_load_into(tree, data)

    def test_rejects_misaligned_oids(self):
        data = uniform_dataset(50, 4, seed=30)
        with pytest.raises(ValueError):
            HybridTree.bulk_load(data, oids=np.arange(49))

    def test_rejects_wrong_shape(self):
        tree = HybridTree(4)
        with pytest.raises(ValueError):
            bulk_load_into(tree, np.zeros((10, 5), dtype=np.float32))

    def test_utilization_reasonable(self):
        data = uniform_dataset(8000, 16, seed=31)
        tree = HybridTree.bulk_load(data)
        stats = compute_stats(tree)
        assert stats.avg_data_utilization >= 0.5

    def test_duplicates_bulk(self):
        data = np.tile(np.array([[0.5] * 4], dtype=np.float32), (500, 1))
        tree = HybridTree.bulk_load(data)
        tree.validate()
        assert len(tree.point_search(data[0])) == 500


class TestWritePathFixes:
    """Regression tests for the write-path bugfix sweep."""

    def test_bulk_load_marks_tree_modified(self):
        data = uniform_dataset(200, 4, seed=40)
        tree = HybridTree(4)
        bulk_load_into(tree, data)
        assert tree.modified_since_save
        assert tree._soa_snapshot is None

    def test_bulk_into_reopened_empty_tree_requires_save(self, tmp_path):
        """A bulk load is a mutation like any other: the parallel-session
        guard must see it, or workers would silently serve the stale file."""
        path = str(tmp_path / "empty.pages")
        seed = HybridTree(4)
        seed.save(path)
        seed.close()
        tree = HybridTree.open(path)
        bulk_load_into(tree, uniform_dataset(300, 4, seed=41))
        assert tree.modified_since_save
        assert tree._soa_snapshot is None  # stale SOA kernel dropped
        with pytest.raises(ValueError, match="unsaved"):
            tree.session(workers=2)
        tree.close()

    def test_insert_rejects_out_of_range_oids(self):
        from repro.core import MAX_OID, OidRangeError

        tree = HybridTree(4)
        v = np.full(4, 0.5, dtype=np.float32)
        for bad in (-1, MAX_OID + 1, 2**40):
            with pytest.raises(OidRangeError):
                tree.insert(v, bad)
        with pytest.raises(OidRangeError):
            tree.insert(v, 1.5)  # not an integer at all
        assert len(tree) == 0  # nothing slipped in
        tree.insert(v, MAX_OID)  # the boundary itself is storable
        assert tree.point_search(v) == [MAX_OID]

    def test_bulk_load_rejects_out_of_range_oids(self):
        """np.asarray(..., dtype=np.uint32) used to wrap int64 oids
        silently; every bad id must now raise before the tree mutates."""
        from repro.core import MAX_OID, OidRangeError

        data = uniform_dataset(50, 4, seed=42)
        bad_oid_sets = [
            np.arange(50, dtype=np.int64) - 1,  # negative
            np.arange(50, dtype=np.int64) + MAX_OID - 10,  # > MAX_OID
            np.arange(50, dtype=np.float64),  # non-integer dtype
        ]
        for oids in bad_oid_sets:
            with pytest.raises(OidRangeError):
                HybridTree.bulk_load(data, oids=oids)
        ok = np.arange(50, dtype=np.int64) + (MAX_OID - 49)
        tree = HybridTree.bulk_load(data, oids=ok)
        found = sorted(tree.range_search(Rect([0.0] * 4, [1.0] * 4)))
        assert found == sorted(int(o) for o in ok)

    def test_skewed_split_tree_falls_back_to_dynamic_inserts(self):
        """Geometrically-skewed data at a tiny min_fill produces pack
        partitions with a single leaf on one side; packing used to raise
        NotImplementedError — now those entries defer to dynamic inserts."""
        n = 600
        data = np.empty((n, 2), dtype=np.float32)
        data[:, 0] = 0.9 ** np.arange(n)
        data[:, 0] /= data[:, 0].max()
        data[:, 1] = 0.5
        tree = HybridTree(2, page_size=512, min_fill=0.05)
        deferred = bulk_load_into(tree, data)
        assert deferred > 0  # the skew fallback really fired
        assert len(tree) == n
        tree.validate()
        for i in range(0, n, 37):
            assert i in tree.point_search(data[i])


# SHA-256 of the file the bulk load below saves, recorded from the bulk
# loader that built kd objects (before it emitted split tables).
BULK_SHA256 = "ab18613f7402985eb3992d80ca290f2b4693e4896a2ca771525f0044ef717347"


def test_a_bulk_loaded_tree_saves_the_pinned_file(tmp_path):
    import hashlib

    data = clustered_dataset(3000, 4, seed=0)
    HybridTree.bulk_load(data, page_size=512).save(tmp_path / "bulk.pages")
    digest = hashlib.sha256((tmp_path / "bulk.pages").read_bytes()).hexdigest()
    assert digest == BULK_SHA256


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "beyond-float32"]
)
def test_bulk_load_rejects_non_finite_vectors(bad):
    """``insert`` rejects a non-finite vector; so does a bulk load, before
    it allocates a page (a float64 value beyond float32's range becomes
    inf in the cast, and is caught too)."""
    data = uniform_dataset(5000, 4, seed=3).astype(np.float64)
    data[17, 2] = bad
    data[4000, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        HybridTree.bulk_load(data)
    tree = HybridTree(4)
    pages = tree.pages()
    with pytest.raises(ValueError, match="finite"):
        bulk_load_into(tree, data)
    assert len(tree) == 0 and tree.pages() == pages
    assert tree.bounds.low.tolist() == HybridTree(4).bounds.low.tolist()
    # The tree is untouched: a finite load goes through and answers.
    finite = np.isfinite(data).all(axis=1) & (np.abs(data) < 1e38).all(axis=1)
    bulk_load_into(tree, data[finite])
    tree.validate()
    assert sorted(tree.range_search(Rect.unit(4))) == list(range(int(finite.sum())))
