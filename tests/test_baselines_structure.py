"""Structural behaviour of the baseline index structures.

These tests pin the *design properties* each baseline exists to exhibit
(Table 1 of the paper): R-tree fanout collapse, KDB cascading splits and
missing utilisation guarantee, hB balance guarantee and posting redundancy,
SS/SR sphere maintenance.
"""

import numpy as np
import pytest

from repro.baselines import HBTree, KDBTree, RTree, SRTree, SSTree, SequentialScan
from repro.baselines.common import EntryLeaf
from repro.datasets import clustered_dataset, uniform_dataset
from repro.geometry.rect import Rect


class TestSequentialScan:
    def test_page_count_and_charging(self):
        scan = SequentialScan.from_points(uniform_dataset(1000, 16, seed=0))
        per_page = scan.tuples_per_page
        assert scan.pages() == -(-1000 // per_page)
        scan.io.reset()
        scan.range_search(Rect.unit(16))
        assert scan.io.sequential_reads == scan.pages()
        assert scan.io.random_reads == 0

    def test_normalized_cost_is_point_one(self):
        scan = SequentialScan.from_points(uniform_dataset(500, 8, seed=1))
        scan.io.reset()
        scan.range_search(Rect.unit(8))
        assert scan.io.weighted_cost() == pytest.approx(scan.pages() / 10.0)

    def test_insert_growth(self):
        scan = SequentialScan(4, initial_capacity=2)
        for i in range(100):
            scan.insert(np.full(4, i / 100), i)
        assert len(scan) == 100

    def test_delete(self):
        data = uniform_dataset(50, 4, seed=2)
        scan = SequentialScan.from_points(data)
        assert scan.delete(data[10], 10)
        assert not scan.delete(data[10], 10)
        assert len(scan) == 49

    def test_empty_scan_queries(self):
        scan = SequentialScan(4)
        assert scan.range_search(Rect.unit(4)) == []
        assert scan.knn(np.zeros(4), 5) == []
        assert scan.distance_range(np.zeros(4), 1.0) == []


class TestRTree:
    def test_parent_rects_contain_children(self):
        from repro.baselines.rtree import RIndexNode

        data = uniform_dataset(2000, 4, seed=3)
        tree = RTree.from_points(data)

        def check(node_id: int, bound: Rect | None):
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                if bound is not None and node.count:
                    assert bound.contains_rect(node.rect())
                return
            assert isinstance(node, RIndexNode)
            for child_id, rect in node.entries:
                if bound is not None:
                    assert bound.contains_rect(rect)
                check(child_id, rect)

        check(tree.root_id, None)

    def test_fanout_bounded_by_capacity(self):
        from repro.baselines.rtree import RIndexNode

        data = uniform_dataset(3000, 16, seed=4)
        tree = RTree.from_points(data)

        def walk(node_id):
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, RIndexNode):
                assert 2 <= node.fanout <= tree.index_capacity
                for child_id, _ in node.entries:
                    walk(child_id)

        walk(tree.root_id)
        assert tree.index_capacity == (4096 - 32) // (16 * 8 + 4)

    def test_delete_underflow_reinserts(self):
        data = uniform_dataset(1500, 4, seed=5)
        tree = RTree.from_points(data)
        for oid in range(1000):
            assert tree.delete(data[oid], oid)
        assert len(tree) == 500
        expected = set(range(1000, 1500))
        assert set(tree.range_search(Rect.unit(4))) == expected


class TestKDBTree:
    def test_regions_disjoint_and_tiling(self):
        from repro.baselines.kdbtree import KDBIndexNode

        data = uniform_dataset(3000, 3, seed=6)
        tree = KDBTree.from_points(data)

        def check(node_id, region: Rect):
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                return
            assert isinstance(node, KDBIndexNode)
            rects = [r for _, r in node.entries]
            # Pairwise-disjoint interiors.
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    assert rects[i].overlap_volume(rects[j]) == pytest.approx(0.0)
            # Tiling: volumes add up to the region volume.
            assert sum(r.volume() for r in rects) == pytest.approx(
                region.volume(), rel=1e-6
            )
            for child_id, rect in node.entries:
                check(child_id, rect)

        check(tree.root_id, tree.bounds)

    def test_cascading_splits_hurt_utilization(self):
        # Sparse skewed data (histograms) provokes index splits whose cuts
        # cross children; the forced downward cascades leave (nearly) empty
        # pages — the missing utilisation guarantee of Table 1.
        from repro.datasets import colhist_dataset

        data = colhist_dataset(10000, 64, seed=7)
        tree = KDBTree.from_points(data)
        fills = tree.utilization_profile()
        assert min(fills) < 0.25
        assert len(tree) == 10000

    def test_no_overlap_means_single_path_point_search(self):
        data = uniform_dataset(2000, 4, seed=8)
        tree = KDBTree.from_points(data)
        tree.io.reset()
        tree.point_search(data[77])
        assert tree.io.random_reads <= tree.height + 2


class TestHBTree:
    def test_balance_guarantee_on_leaves(self):
        data = uniform_dataset(6000, 8, seed=9)
        tree = HBTree.from_points(data)
        fills = tree.utilization_profile()
        assert min(fills) >= 1.0 / 3.0 - 1e-9

    def test_redundancy_appears_at_scale(self):
        data = uniform_dataset(18000, 16, seed=10)
        tree = HBTree.from_points(data)
        assert tree.redundancy_ratio() >= 1.0
        assert len(tree) == 18000

    def test_kd_size_within_capacity(self):
        from repro.baselines.hbtree import HBIndexNode, child_ids

        data = uniform_dataset(8000, 8, seed=11)
        tree = HBTree.from_points(data)
        seen = set()

        def walk(node_id):
            if node_id in seen:
                return
            seen.add(node_id)
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, HBIndexNode):
                assert node.kd_size <= tree.index_capacity
                for child_id in child_ids(node.kd_root):
                    walk(child_id)

        walk(tree._root_id)

    def test_clean_splits_everywhere(self):
        from repro.baselines.hbtree import HBIndexNode, KDInternal, child_ids

        data = uniform_dataset(5000, 4, seed=12)
        tree = HBTree.from_points(data)
        seen = set()

        def walk(node_id):
            if node_id in seen:
                return
            seen.add(node_id)
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, HBIndexNode):
                stack = [node.kd_root]
                while stack:
                    kd = stack.pop()
                    if isinstance(kd, KDInternal):
                        assert kd.lsp == kd.rsp  # holey bricks never overlap
                        stack += (kd.left, kd.right)
                for child_id in child_ids(node.kd_root):
                    walk(child_id)

        walk(tree._root_id)

    def test_delete_simple_removal(self):
        data = uniform_dataset(800, 4, seed=13)
        tree = HBTree.from_points(data)
        assert tree.delete(data[5], 5)
        assert not tree.delete(data[5], 5)
        assert len(tree) == 799


class TestSpheres:
    def test_ss_spheres_cover_subtrees(self):
        from repro.baselines.sstree import SSIndexNode

        data = clustered_dataset(3000, 6, clusters=5, seed=14)
        tree = SSTree.from_points(data)

        def check(node_id, sphere):
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                if sphere is not None and node.count:
                    dists = np.linalg.norm(
                        node.points().astype(np.float64) - sphere.center, axis=1
                    )
                    assert np.all(dists <= sphere.radius + 1e-6)
                return
            assert isinstance(node, SSIndexNode)
            for entry in node.entries:
                check(entry.child_id, entry.sphere)

        check(tree._root_id, None)

    def test_sr_entries_cover_subtrees(self):
        from repro.baselines.srtree import SRIndexNode

        data = clustered_dataset(3000, 6, clusters=5, seed=15)
        tree = SRTree.from_points(data)

        def check(node_id, sphere, rect):
            node = tree.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                if node.count:
                    pts = node.points().astype(np.float64)
                    if rect is not None:
                        assert np.all(pts >= rect.low - 1e-6)
                        assert np.all(pts <= rect.high + 1e-6)
                    if sphere is not None:
                        dists = np.linalg.norm(pts - sphere.center, axis=1)
                        assert np.all(dists <= sphere.radius + 1e-6)
                return
            assert isinstance(node, SRIndexNode)
            for entry in node.entries:
                check(entry.child_id, entry.sphere, entry.rect)

        check(tree._root_id, None, None)

    def test_sr_fanout_is_smallest(self):
        sr = SRTree(64)
        ss = SSTree(64)
        rt = RTree(64)
        assert sr.index_capacity < ss.index_capacity
        assert sr.index_capacity < rt.index_capacity
        assert sr.index_capacity <= 6

    def test_sr_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            SRTree(4, insert_policy="bogus")
