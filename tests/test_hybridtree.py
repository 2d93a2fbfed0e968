"""Tests for the HybridTree: exactness, invariants, dynamics, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridTree, compute_stats
from repro.distances import L1, L2, LINF, UserMetric, WeightedEuclidean
from repro.geometry.rect import Rect
from tests.conftest import (
    brute_force_distance_range,
    brute_force_knn_dists,
    brute_force_range,
    random_boxes,
)


def build_dynamic(data, **kwargs):
    tree = HybridTree(data.shape[1], **kwargs)
    for oid, v in enumerate(data):
        tree.insert(v, oid)
    return tree


@pytest.fixture(scope="module")
def uniform8():
    rng = np.random.default_rng(7)
    return rng.random((3000, 8)).astype(np.float32)


@pytest.fixture(scope="module")
def tree8(uniform8):
    return build_dynamic(uniform8)


class TestConstruction:
    def test_empty_tree(self):
        tree = HybridTree(4)
        assert len(tree) == 0 and tree.height == 1
        assert tree.range_search(Rect.unit(4)) == []
        assert tree.knn(np.zeros(4), 3) == []
        assert tree.distance_range(np.zeros(4), 1.0) == []

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HybridTree(0)
        with pytest.raises(ValueError):
            HybridTree(4, min_fill=0.9)
        with pytest.raises(ValueError):
            HybridTree(4, bounds=Rect.unit(3))

    def test_rejects_bad_vectors(self):
        tree = HybridTree(4)
        with pytest.raises(ValueError):
            tree.insert(np.zeros(3), 0)
        with pytest.raises(ValueError):
            tree.insert(np.array([np.nan, 0, 0, 0]), 0)
        # A single query is one vector: not a batch of one, not a batch of
        # none, and finite.
        for bad in (np.zeros((1, 4)), [], np.array([np.nan, 0, 0, 0])):
            with pytest.raises(ValueError):
                tree.knn(bad, 1)
            with pytest.raises(ValueError):
                tree.distance_range(bad, 1.0)

    def test_capacities_match_page_model(self):
        tree = HybridTree(64)
        assert tree.data_capacity == 15
        assert tree.index_capacity == HybridTree(2).index_capacity  # dim-free

    def test_growth_increases_height(self, uniform8, tree8):
        assert tree8.height >= 2
        assert len(tree8) == len(uniform8)

    def test_out_of_bounds_point_expands_space(self):
        tree = HybridTree(2)
        tree.insert(np.array([2.0, -1.0]), 0)
        assert tree.bounds.contains_point(np.array([2.0, -1.0]))
        assert tree.point_search(np.array([2.0, -1.0])) == [0]


class TestRangeSearch:
    def test_matches_bruteforce(self, uniform8, tree8, rng):
        for query in random_boxes(rng, 8, 25):
            assert set(tree8.range_search(query)) == brute_force_range(uniform8, query)

    def test_dim_mismatch_rejected(self, tree8):
        with pytest.raises(ValueError):
            tree8.range_search(Rect.unit(5))

    def test_point_search_duplicates(self):
        tree = HybridTree(3)
        v = np.array([0.25, 0.5, 0.75], dtype=np.float32)
        for oid in (5, 9, 13):
            tree.insert(v, oid)
        tree.insert(np.array([0.1, 0.1, 0.1]), 1)
        assert sorted(tree.point_search(v)) == [5, 9, 13]

    def test_whole_space_query_returns_everything(self, uniform8, tree8):
        assert len(tree8.range_search(Rect.unit(8))) == len(uniform8)

    def test_empty_region_query(self, tree8):
        lone = Rect([0.999] * 8, [1.0] * 8)
        assert isinstance(tree8.range_search(lone), list)


class TestDistanceQueries:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["L1", "L2", "Linf"])
    def test_distance_range_matches_bruteforce(self, uniform8, tree8, metric, rng):
        for _ in range(8):
            q = uniform8[int(rng.integers(len(uniform8)))].astype(np.float64)
            radius = float(rng.uniform(0.2, 0.8))
            got = {oid for oid, _ in tree8.distance_range(q, radius, metric)}
            assert got == brute_force_distance_range(uniform8, q, radius, metric)

    def test_weighted_metric_at_query_time(self, uniform8, tree8, rng):
        metric = WeightedEuclidean(np.array([3.0, 1, 1, 1, 0.1, 1, 1, 2]))
        q = uniform8[42].astype(np.float64)
        got = {oid for oid, _ in tree8.distance_range(q, 0.5, metric)}
        assert got == brute_force_distance_range(uniform8, q, 0.5, metric)

    def test_user_metric(self, uniform8, tree8):
        canberra_like = UserMetric(
            lambda a, b: float(np.abs(a - b).sum() + 0.5 * np.abs(a - b).max())
        )
        q = uniform8[3].astype(np.float64)
        got = {oid for oid, _ in tree8.distance_range(q, 1.0, canberra_like)}
        assert got == brute_force_distance_range(uniform8, q, 1.0, canberra_like)

    def test_distances_reported_correctly(self, uniform8, tree8):
        q = uniform8[10].astype(np.float64)
        for oid, dist in tree8.distance_range(q, 0.5, L2):
            assert dist == pytest.approx(
                float(np.linalg.norm(uniform8[oid].astype(np.float64) - q)), abs=1e-6
            )

    def test_negative_radius_rejected(self, tree8):
        with pytest.raises(ValueError):
            tree8.distance_range(np.zeros(8), -1.0)


class TestKNN:
    @pytest.mark.parametrize("metric", [L1, L2, LINF], ids=["L1", "L2", "Linf"])
    def test_knn_matches_bruteforce(self, uniform8, tree8, metric, rng):
        for _ in range(6):
            q = rng.random(8)
            got = tree8.knn(q, 10, metric)
            expected = brute_force_knn_dists(uniform8, q, 10, metric)
            assert len(got) == 10
            assert np.allclose([d for _, d in got], expected, atol=1e-6)

    def test_knn_k_larger_than_tree(self):
        tree = HybridTree(2)
        for i in range(5):
            tree.insert(np.array([i / 10, i / 10]), i)
        assert len(tree.knn(np.zeros(2), 50)) == 5

    def test_knn_sorted_by_distance(self, tree8):
        result = tree8.knn(np.full(8, 0.5), 20)
        dists = [d for _, d in result]
        assert dists == sorted(dists)

    def test_knn_k1_is_nearest(self, uniform8, tree8):
        q = uniform8[100].astype(np.float64)
        (oid, dist), *_ = tree8.knn(q, 1)
        assert dist == pytest.approx(0.0, abs=1e-7)

    def test_invalid_k(self, tree8):
        with pytest.raises(ValueError):
            tree8.knn(np.zeros(8), 0)

    def test_approximate_knn_guarantee(self, uniform8, tree8, rng):
        for eps in (0.5, 1.0):
            q = rng.random(8)
            exact = tree8.knn(q, 10, L2)
            approx = tree8.knn(q, 10, L2, approximation_factor=eps)
            assert len(approx) == 10
            assert approx[-1][1] <= exact[-1][1] * (1.0 + eps) + 1e-9

    def test_approximate_rejects_negative(self, tree8):
        with pytest.raises(ValueError):
            tree8.knn(np.zeros(8), 1, approximation_factor=-0.5)

    def test_kth_boundary_ties_deterministic(self, rng):
        """Regression: with duplicate points straddling the kth boundary the
        result set depended on traversal order; ties now break by oid, so any
        two trees over the same multiset agree exactly."""
        base = rng.random((40, 4))
        data = np.repeat(base, 6, axis=0).astype(np.float32)  # 6 copies each
        dynamic = build_dynamic(data)
        bulk = HybridTree.bulk_load(data)
        for q in base[:10]:
            k = 4  # < 6 copies: the kth boundary cuts through a tie group
            got_dyn = dynamic.knn(q.astype(np.float64), k)
            got_bulk = bulk.knn(q.astype(np.float64), k)
            assert got_dyn == got_bulk
            assert got_dyn == sorted(got_dyn, key=lambda t: (t[1], t[0]))
            # The tie group at distance zero is the lowest-oid copies.
            zero = [oid for oid, d in got_dyn if d == 0.0]
            assert zero == sorted(zero)


class TestStructuralInvariants:
    def test_validate_after_dynamic_build(self, tree8):
        tree8.validate()

    def test_stats_sane(self, tree8):
        stats = compute_stats(tree8)
        assert stats.count == len(tree8)
        assert stats.num_data_nodes > 1
        assert stats.min_data_utilization >= 0.3
        assert stats.avg_index_fanout >= 2
        # Data-node splits are clean (Section 3.6): data-level regions may
        # overlap only under an overlapping index split above them, and the
        # total stays a vanishing fraction of the unit volume.
        assert stats.data_level_overlap_volume < 1e-2

    def test_fanout_independent_of_dims(self):
        assert HybridTree(8).index_capacity == HybridTree(64).index_capacity

    def test_io_counts_node_visits(self, tree8):
        tree8.io.reset()
        tree8.range_search(Rect([0.45] * 8, [0.55] * 8))
        assert 0 < tree8.io.random_reads <= tree8.pages()

    def test_high_dim_clustered_build(self):
        from repro.datasets import clustered_dataset

        data = clustered_dataset(2500, 32, clusters=8, seed=3)
        tree = build_dynamic(data)
        tree.validate()
        q = Rect.from_points(data[:40])
        assert set(tree.range_search(q)) == brute_force_range(data, q)


class TestDeletion:
    def test_delete_then_absent(self, uniform8):
        tree = build_dynamic(uniform8[:500])
        assert tree.delete(uniform8[5], 5)
        assert tree.point_search(uniform8[5]) == [] or 5 not in tree.point_search(
            uniform8[5]
        )
        assert len(tree) == 499
        tree.validate()

    def test_delete_missing_returns_false(self, uniform8):
        tree = build_dynamic(uniform8[:100])
        assert not tree.delete(uniform8[5], 999)
        assert not tree.delete(np.full(8, 0.123), 5)

    def test_delete_everything(self, uniform8):
        data = uniform8[:400]
        tree = build_dynamic(data)
        for oid, v in enumerate(data):
            assert tree.delete(v, oid), oid
        assert len(tree) == 0
        assert tree.range_search(Rect.unit(8)) == []

    def test_massive_deletion_preserves_correctness(self, uniform8, rng):
        data = uniform8[:1200]
        tree = build_dynamic(data)
        doomed = rng.choice(1200, size=800, replace=False)
        for oid in doomed:
            assert tree.delete(data[oid], int(oid))
        tree.validate()
        alive = sorted(set(range(1200)) - set(int(i) for i in doomed))
        assert sorted(tree.range_search(Rect.unit(8))) == alive
        # Queries still exact after heavy restructuring.
        q = Rect([0.2] * 8, [0.7] * 8)
        expected = {i for i in brute_force_range(data, q) if i in set(alive)}
        assert set(tree.range_search(q)) == expected

    def test_index_underflow_reinsertion_keeps_points_in_regions(self):
        """Small pages make index nodes underflow, so deletes reinsert whole
        subtrees; every region on a subtree's new path must hold its live
        box, or its points escape and later deletes and queries miss them."""
        rng = np.random.default_rng(7)
        data = rng.random((845, 4)).astype(np.float32)
        tree = build_dynamic(data, page_size=256)
        alive = list(range(len(data)))
        for _ in range(720):
            oid = alive.pop(int(rng.integers(len(alive))))
            assert tree.delete(data[oid], oid), oid
        tree.validate()
        q = Rect([0.2] * 4, [0.7] * 4)
        assert set(tree.range_search(q)) == brute_force_range(data, q) & set(alive)

    def test_interleaved_insert_delete_query(self, rng):
        dims = 4
        tree = HybridTree(dims)
        reference: dict[int, np.ndarray] = {}
        next_oid = 0
        for step in range(1500):
            action = rng.random()
            if action < 0.6 or not reference:
                v = rng.random(dims).astype(np.float32)
                tree.insert(v, next_oid)
                reference[next_oid] = v
                next_oid += 1
            elif action < 0.85:
                oid = int(rng.choice(list(reference)))
                assert tree.delete(reference[oid], oid)
                del reference[oid]
            else:
                q = random_boxes(rng, dims, 1)[0]
                expected = {
                    oid
                    for oid, v in reference.items()
                    if q.contains_point(v.astype(np.float64))
                }
                assert set(tree.range_search(q)) == expected
        tree.validate()
        assert len(tree) == len(reference)


class TestPersistence:
    def test_save_open_round_trip(self, uniform8, tree8, tmp_path, rng):
        path = str(tmp_path / "tree.pages")
        tree8.save(path)
        reopened = HybridTree.open(path)
        assert len(reopened) == len(tree8)
        assert reopened.height == tree8.height
        for query in random_boxes(rng, 8, 10):
            assert set(reopened.range_search(query)) == set(tree8.range_search(query))

    def test_cold_open_faults_pages_lazily(self, uniform8, tree8, tmp_path):
        path = str(tmp_path / "tree.pages")
        tree8.save(path)
        reopened = HybridTree.open(path)
        assert reopened.nm.cached_nodes == 0
        touched_by_query = len(reopened.range_search(Rect([0.4] * 8, [0.6] * 8)))
        del touched_by_query
        # Only the pages the query visited were faulted in, and they were
        # read through the file store.
        assert 0 < reopened.nm.cached_nodes <= tree8.pages()
        assert reopened.io.random_reads == reopened.nm.cached_nodes

    def test_reopened_tree_supports_updates(self, uniform8, tree8, tmp_path):
        path = str(tmp_path / "tree.pages")
        tree8.save(path)
        reopened = HybridTree.open(path)
        reopened.insert(np.full(8, 0.5), 999_999)
        assert 999_999 in reopened.point_search(np.full(8, 0.5))

    def test_knn_after_reopen(self, uniform8, tree8, tmp_path):
        path = str(tmp_path / "tree.pages")
        tree8.save(path)
        reopened = HybridTree.open(path)
        q = uniform8[7].astype(np.float64)
        assert [o for o, _ in reopened.knn(q, 5)] == [o for o, _ in tree8.knn(q, 5)]

    def test_save_over_own_path(self, uniform8, tree8, tmp_path, rng):
        """Regression: saving a lazily-faulting reopened tree over its own
        path used to delete the page file it was still reading from."""
        path = str(tmp_path / "tree.pages")
        tree8.save(path)
        reopened = HybridTree.open(path)
        # Fault only a few pages in, so most still live solely in the file.
        reopened.range_search(Rect([0.48] * 8, [0.52] * 8))
        assert reopened.nm.cached_nodes < tree8.pages()
        reopened.save(path)  # must fault the rest in from the old file
        again = HybridTree.open(path)
        again.validate()
        assert len(again) == len(tree8)
        for query in random_boxes(rng, 8, 8):
            assert again.range_search(query) == tree8.range_search(query)

    def test_save_interrupted_keeps_previous(self, uniform8, tree8, tmp_path, monkeypatch):
        """A crash before publication leaves the previous save readable."""
        path = str(tmp_path / "tree.pages")
        tree8.save(path)

        import repro.core.hybridtree as ht

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(ht.os, "replace", boom)
        with pytest.raises(RuntimeError):
            tree8.save(path)
        monkeypatch.undo()
        reopened = HybridTree.open(path)
        reopened.validate()
        assert len(reopened) == len(tree8)

    def test_delete_underflow_then_roundtrip_bounded(self, uniform8, tmp_path, rng):
        """Heavy deletion (driving node underflow/merges), then a save/open
        round trip under a small buffer pool: structure and answers survive."""
        tree = build_dynamic(uniform8[:1500])
        deleted = set(range(0, 1200, 2))
        for oid in deleted:
            assert tree.delete(uniform8[oid], oid)
        tree.validate()
        path = str(tmp_path / "tree.pages")
        tree.save(path)
        small = HybridTree.open(path, buffer_pages=4)
        small.validate()
        assert len(small) == len(tree) == 1500 - len(deleted)
        for query in random_boxes(rng, 8, 8):
            assert sorted(small.range_search(query)) == sorted(tree.range_search(query))
        remaining = [o for o, _ in small.knn(uniform8[1].astype(np.float64), 20)]
        assert not deleted.intersection(remaining)
        # And the bounded tree can itself be saved over its own path.
        small.save(path)
        again = HybridTree.open(path)
        again.validate()
        assert len(again) == len(tree)


class TestELSBehaviour:
    def test_els_reduces_io(self, rng):
        from repro.datasets import clustered_dataset

        data = clustered_dataset(4000, 16, clusters=12, seed=5)
        with_els = build_dynamic(data, els_bits=4)
        without = build_dynamic(data, els_bits=0)
        queries = random_boxes(rng, 16, 15, side_lo=0.05, side_hi=0.2)
        with_els.io.reset()
        without.io.reset()
        for q in queries:
            assert set(with_els.range_search(q)) == set(without.range_search(q))
        assert with_els.io.random_reads <= without.io.random_reads

    def test_rebuild_els_tightens_after_deletes(self, uniform8):
        tree = build_dynamic(uniform8[:600])
        for oid in range(300):
            tree.delete(uniform8[oid], oid)
        before = tree.els.get(tree.root_id)
        tree.rebuild_els()
        after = tree.els.get(tree.root_id)
        assert before.contains_rect(after)
        tree.validate()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(20, 250))
def test_property_randomized_tree_equals_bruteforce(seed, dims, n):
    """End-to-end: random data, random box — tree == brute force."""
    rng = np.random.default_rng(seed)
    data = rng.random((n, dims)).astype(np.float32)
    tree = HybridTree(dims, els_bits=int(rng.integers(0, 8)))
    for oid, v in enumerate(data):
        tree.insert(v, oid)
    tree.validate()
    lo = rng.random(dims) * 0.7
    query = Rect(lo, lo + rng.random(dims) * 0.3)
    assert set(tree.range_search(query)) == brute_force_range(data, query)
    q = rng.random(dims)
    expected = brute_force_knn_dists(data, q, min(5, n), L1)
    got = tree.knn(q, min(5, n), L1)
    assert np.allclose([d for _, d in got], expected, atol=1e-5)
