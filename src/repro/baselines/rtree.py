"""R-tree (Guttman 1984) with the quadratic split — DP-based baseline.

Every entry of an index node stores a full k-dimensional bounding box, so
fanout is ``usable_bytes / (8k + 4)`` and collapses as dimensionality grows —
the structural weakness (Table 1 of the paper) that makes BR-based trees
uncompetitive in high-dimensional feature spaces.  The paper's authors built
their SR-tree comparator by modifying an R-tree implementation; ours plays
the same substrate role (see :mod:`repro.baselines.srtree`).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    EntryLeaf,
    KernelQueryMixin,
    SnapshotMixin,
    check_vector,
    quadratic_partition,
    rect_children,
)
from repro.geometry.rect import Rect
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity, rtree_node_capacity
from repro.storage.pagestore import PageStore


class RIndexNode:
    """Index page: an array of ``(child_id, bounding box)`` entries."""

    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[tuple[int, Rect]] = []
        self.level = level

    @property
    def fanout(self) -> int:
        return len(self.entries)

    def entry_index(self, child_id: int) -> int:
        for i, (cid, _) in enumerate(self.entries):
            if cid == child_id:
                return i
        raise KeyError(child_id)


class RTree(SnapshotMixin, KernelQueryMixin):
    """Dynamic R-tree over a ``dims``-dimensional feature space."""

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float = 0.4,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = data_node_capacity(dims, self.layout)
        self.index_capacity = rtree_node_capacity(dims, self.layout)
        self.min_fill = min_fill
        self.nm = NodeManager(store=store, stats=stats)
        self._root_id = self.nm.allocate()
        self.nm.put(self._root_id, EntryLeaf(dims, self.leaf_capacity), charge=False)
        self._height = 1
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def io(self) -> IOStats:
        return self.nm.stats

    @property
    def height(self) -> int:
        return self._height

    @property
    def root_id(self) -> int:
        return self._root_id

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        return self.nm.store.allocated_pages

    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "RTree":
        """Build by repeated insertion (the construction the paper timed)."""
        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        ids = oids if oids is not None else range(len(vectors))
        for v, oid in zip(vectors, ids):
            tree.insert(v, int(oid))
        return tree

    # ------------------------------------------------------------------
    # Insertion (Guttman's ChooseLeaf / AdjustTree / quadratic SplitNode)
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, oid: int) -> None:
        self.invalidate_snapshot()
        v = check_vector(vector, self.dims)
        path: list[tuple[int, RIndexNode, int]] = []  # (node_id, node, entry idx)
        node_id = self._root_id
        node = self.nm.get(node_id)
        while isinstance(node, RIndexNode):
            idx = self._choose_entry(node, v)
            child_id, rect = node.entries[idx]
            node.entries[idx] = (child_id, rect.merge_point(v))
            self.nm.put(node_id, node)
            path.append((node_id, node, idx))
            node_id = child_id
            node = self.nm.get(node_id)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_leaf(path, node_id, node, v, oid)
        self._count += 1

    def _choose_entry(self, node: RIndexNode, point: np.ndarray) -> int:
        """Least-enlargement entry, ties by volume (vectorized)."""
        lows = np.array([r.low for _, r in node.entries])
        highs = np.array([r.high for _, r in node.entries])
        volumes = np.prod(highs - lows, axis=1)
        merged = np.prod(np.maximum(highs, point) - np.minimum(lows, point), axis=1)
        enlargement = merged - volumes
        candidates = np.flatnonzero(enlargement <= enlargement.min() + 1e-18)
        return int(candidates[np.argmin(volumes[candidates])])

    def _split_leaf(
        self,
        path: list[tuple[int, RIndexNode, int]],
        node_id: int,
        node: EntryLeaf,
        vector: np.ndarray,
        oid: int,
    ) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        rects = [Rect(p.astype(np.float64), p.astype(np.float64)) for p in points]
        group_a, group_b = self._quadratic_partition(rects)
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for i in group_a:
            left.add(points[i], int(oids[i]))
        for i in group_b:
            right.add(points[i], int(oids[i]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(path, node_id, left.rect(), right_id, right.rect(), level=1)

    def _split_index(
        self, path: list[tuple[int, RIndexNode, int]], node_id: int, node: RIndexNode
    ) -> None:
        rects = [rect for _, rect in node.entries]
        group_a, group_b = self._quadratic_partition(rects)
        left = RIndexNode(node.level)
        right = RIndexNode(node.level)
        left.entries = [node.entries[i] for i in group_a]
        right.entries = [node.entries[i] for i in group_b]
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path,
            node_id,
            Rect.merge_all([r for _, r in left.entries]),
            right_id,
            Rect.merge_all([r for _, r in right.entries]),
            level=node.level + 1,
        )

    def _propagate_split(
        self,
        path: list[tuple[int, RIndexNode, int]],
        old_id: int,
        old_rect: Rect,
        new_id: int,
        new_rect: Rect,
        level: int,
    ) -> None:
        if not path:
            root = RIndexNode(level)
            root.entries = [(old_id, old_rect), (new_id, new_rect)]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = (old_id, old_rect)
        parent.entries.append((new_id, new_rect))
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index(path, parent_id, parent)

    def _quadratic_partition(self, rects: list[Rect]) -> tuple[list[int], list[int]]:
        """Guttman's quadratic bipartition (see
        :func:`repro.baselines.common.quadratic_partition`)."""
        lows = np.array([r.low for r in rects])
        highs = np.array([r.high for r in rects])
        return quadratic_partition(lows, highs, self.min_fill)

    # ------------------------------------------------------------------
    # Deletion (FindLeaf / CondenseTree)
    # ------------------------------------------------------------------
    def delete(self, vector: np.ndarray, oid: int) -> bool:
        self.invalidate_snapshot()
        v = check_vector(vector, self.dims)
        target = np.asarray(v, dtype=np.float32)
        found = self._find_leaf(self._root_id, self.bounds_of_root(), v, target, oid, [])
        if found is None:
            return False
        path, node_id, node, entry_idx = found
        last = node.count - 1
        if entry_idx != last:
            node.vectors[entry_idx] = node.vectors[last]
            node.oids[entry_idx] = node.oids[last]
        node.count = last
        self.nm.put(node_id, node)
        self._count -= 1
        min_entries = max(1, int(np.floor(self.min_fill * self.leaf_capacity)))
        if node.count >= min_entries or not path:
            self._tighten_path(path, node_id, node)
            return True
        survivors = [(node.points()[i].copy(), int(node.live_oids()[i])) for i in range(node.count)]
        self._remove_entry(path, node_id)
        self._count -= len(survivors)
        for point, point_oid in survivors:
            self.insert(point, point_oid)
        return True

    def bounds_of_root(self) -> Rect:
        root = self.nm.get(self._root_id, charge=False)
        if isinstance(root, RIndexNode):
            return Rect.merge_all([r for _, r in root.entries])
        if root.count:
            return root.rect()
        return Rect.unit(self.dims)

    def _find_leaf(self, node_id, region, v, target, oid, path):
        node = self.nm.get(node_id)
        if isinstance(node, EntryLeaf):
            oid_hits = np.flatnonzero(node.live_oids() == oid)
            for idx in oid_hits:
                if np.array_equal(node.vectors[idx], target):
                    return path, node_id, node, int(idx)
            return None
        for i, (child_id, rect) in enumerate(node.entries):
            if rect.contains_point(v):
                found = self._find_leaf(
                    child_id, rect, v, target, oid, path + [(node_id, node, i)]
                )
                if found is not None:
                    return found
        return None

    def _tighten_path(self, path, node_id, node) -> None:
        """Shrink ancestor rects after a removal."""
        rect = node.rect() if isinstance(node, EntryLeaf) and node.count else None
        for parent_id, parent, entry_idx in reversed(path):
            if rect is not None:
                parent.entries[entry_idx] = (node_id, rect)
                self.nm.put(parent_id, parent)
            rect = Rect.merge_all([r for _, r in parent.entries])
            node_id = parent_id

    def _remove_entry(self, path, child_id) -> None:
        parent_id, parent, _ = path[-1]
        parent.entries = [(cid, r) for cid, r in parent.entries if cid != child_id]
        self.nm.free(child_id)
        self.nm.put(parent_id, parent)
        if parent_id == self._root_id:
            if parent.fanout == 1 and parent.level >= 1:
                only_id = parent.entries[0][0]
                self.nm.free(parent_id)
                self._root_id = only_id
                self._height -= 1
            return
        min_children = max(2, int(np.floor(self.min_fill * self.index_capacity)))
        if parent.fanout >= min_children:
            self._tighten_path(path[:-1], parent_id, parent)
            return
        orphan_entries = list(parent.entries)
        orphan_level = parent.level
        self._remove_entry(path[:-1], parent_id)
        for orphan_id, orphan_rect in orphan_entries:
            self._reinsert_subtree(orphan_id, orphan_rect, orphan_level - 1)

    def _reinsert_subtree(self, subtree_id: int, rect: Rect, level: int) -> None:
        path: list[tuple[int, RIndexNode, int]] = []
        node_id = self._root_id
        node = self.nm.get(node_id)
        while isinstance(node, RIndexNode) and node.level > level + 1:
            best, best_key = 0, (np.inf, np.inf)
            for i, (_, r) in enumerate(node.entries):
                key = (r.enlargement_rect(rect), r.volume())
                if key < best_key:
                    best, best_key = i, key
            child_id, r = node.entries[best]
            node.entries[best] = (child_id, r.merge(rect))
            self.nm.put(node_id, node)
            path.append((node_id, node, best))
            node_id = child_id
            node = self.nm.get(node_id)
        if not isinstance(node, RIndexNode):
            raise RuntimeError("reinsert descended past the target level")
        node.entries.append((subtree_id, rect))
        self.nm.put(node_id, node)
        if node.fanout > self.index_capacity:
            self._split_index(path, node_id, node)

    # ------------------------------------------------------------------
    # Queries: the traversal kernel (KernelQueryMixin) over the protocol
    # ------------------------------------------------------------------
    def trav_root(self):
        return self._root_id, None

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, EntryLeaf)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, ctx):
        return rect_children(node.entries, self.dims)
