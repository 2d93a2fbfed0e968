"""Direct unit tests for DataNode / IndexNode / EntryLeaf."""

import numpy as np
import pytest

from repro.baselines.common import EntryLeaf
from repro.core.nodes import DataNode, IndexNode
from repro.geometry.rect import Rect
from tests.kd_reference import KDInternal, KDLeaf, split_table


class TestDataNode:
    def test_add_and_views(self):
        node = DataNode(3, 8)
        node.add(np.array([0.1, 0.2, 0.3], dtype=np.float32), 7)
        node.add(np.array([0.4, 0.5, 0.6], dtype=np.float32), 9)
        assert node.count == 2
        assert node.points().shape == (2, 3)
        assert node.live_oids().tolist() == [7, 9]
        assert node.dims == 3 and node.capacity == 8

    def test_overflow_guard(self):
        node = DataNode(2, 2)
        node.add(np.zeros(2, dtype=np.float32), 0)
        node.add(np.zeros(2, dtype=np.float32), 1)
        assert node.is_full
        with pytest.raises(RuntimeError):
            node.add(np.zeros(2, dtype=np.float32), 2)

    def test_remove_at_swaps_last(self):
        node = DataNode(2, 4)
        for i in range(3):
            node.add(np.full(2, i / 10, dtype=np.float32), i)
        node.remove_at(0)
        assert node.count == 2
        assert set(node.live_oids().tolist()) == {1, 2}

    def test_remove_at_bounds(self):
        node = DataNode(2, 4)
        node.add(np.zeros(2, dtype=np.float32), 0)
        with pytest.raises(IndexError):
            node.remove_at(1)
        with pytest.raises(IndexError):
            node.remove_at(-1)

    def test_find_entry_exact_match_only(self):
        node = DataNode(2, 4)
        v = np.array([0.25, 0.75], dtype=np.float32)
        node.add(v, 5)
        assert node.find_entry(v, 5) == 0
        assert node.find_entry(v, 6) is None
        assert node.find_entry(np.array([0.25, 0.7501], dtype=np.float32), 5) is None

    def test_find_entry_with_duplicate_oids(self):
        node = DataNode(1, 4)
        node.add(np.array([0.1], dtype=np.float32), 5)
        node.add(np.array([0.2], dtype=np.float32), 5)
        assert node.find_entry(np.array([0.2], dtype=np.float32), 5) == 1

    def test_live_rect(self):
        node = DataNode(2, 4)
        node.add(np.array([0.1, 0.9], dtype=np.float32), 0)
        node.add(np.array([0.5, 0.2], dtype=np.float32), 1)
        rect = node.live_rect()
        assert np.allclose(rect.low, [0.1, 0.2], atol=1e-6)
        assert np.allclose(rect.high, [0.5, 0.9], atol=1e-6)

    def test_live_rect_empty_raises(self):
        with pytest.raises(ValueError):
            DataNode(2, 4).live_rect()

    def test_utilization(self):
        node = DataNode(2, 4)
        node.add(np.zeros(2, dtype=np.float32), 0)
        assert node.utilization() == 0.25

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            DataNode(2, 1)

    def test_float32_storage(self):
        node = DataNode(1, 4)
        node.add(np.array([1 / 3], dtype=np.float64), 0)
        assert node.vectors.dtype == np.float32
        assert node.points()[0, 0] == np.float32(1 / 3)


class TestIndexNode:
    def _node(self):
        kd = KDInternal(0, 0.5, 0.4, KDLeaf(10), KDLeaf(20))
        return IndexNode(split_table(kd), level=1)

    def test_fanout_and_children(self):
        node = self._node()
        assert node.fanout == 2
        assert node.child_ids() == [10, 20]

    def test_children_with_regions(self):
        node = self._node()
        regions = dict(node.children_with_regions(Rect.unit(2)))
        assert regions[10] == Rect([0, 0], [0.5, 1])
        assert regions[20] == Rect([0.4, 0], [1, 1])

    def test_level_validation(self):
        with pytest.raises(ValueError):
            IndexNode(split_table(KDLeaf(1)), level=0)

    def test_utilization(self):
        node = self._node()
        assert node.utilization(4) == 0.5


class TestEntryLeaf:
    def test_basics(self):
        leaf = EntryLeaf(2, 4)
        leaf.add(np.array([0.1, 0.2], dtype=np.float32), 3)
        assert leaf.count == 1 and not leaf.is_full
        assert leaf.level == 0
        assert leaf.capacity == 4

    def test_rect(self):
        leaf = EntryLeaf(2, 4)
        leaf.add(np.array([0.1, 0.8], dtype=np.float32), 0)
        leaf.add(np.array([0.3, 0.4], dtype=np.float32), 1)
        rect = leaf.rect()
        assert np.allclose(rect.low, [0.1, 0.4], atol=1e-6)

    def test_rect_empty_raises(self):
        with pytest.raises(ValueError):
            EntryLeaf(2, 4).rect()

    def test_overflow_guard(self):
        leaf = EntryLeaf(1, 2)
        leaf.add(np.zeros(1, dtype=np.float32), 0)
        leaf.add(np.zeros(1, dtype=np.float32), 1)
        with pytest.raises(RuntimeError):
            leaf.add(np.zeros(1, dtype=np.float32), 2)
