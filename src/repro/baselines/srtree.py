"""SR-tree (Katayama & Satoh, SIGMOD 1997) — the paper's DP competitor.

Each index entry stores *both* a bounding sphere and a bounding rectangle;
the effective region is their intersection, which is smaller than either
alone.  The price is the largest entry of any structure here
(``12k + 8`` bytes), hence the lowest fanout — at 64 dimensions a 4K page
holds only about five entries, which is why Figures 6 and 7 of the paper
show the SR-tree degrading fastest.

Two insertion policies are provided:

- ``insert_policy="rtree"`` (default): Guttman descent (minimum rectangle
  enlargement) and quadratic split over the rectangles.  This matches the
  comparator the hybrid-tree paper actually benchmarked — "We implemented
  SR-trees by appropriately modifying the R-tree implementation" — and
  exhibits the severe high-dimensional degradation of Figures 6 and 7.
- ``insert_policy="sstree"``: Katayama & Satoh's original policy (descend to
  the nearest centroid; split on the max-variance dimension at the median),
  which behaves considerably better on cluster-structured data and is kept
  for users who want the published SR-tree rather than the paper's
  comparator.

Unlike the SS-tree, the rectangle half of each region lets the SR-tree
answer distance queries under *any* coordinatewise-monotone metric (the
sphere bound is applied only for Euclidean queries); this is what the
paper's Figure 7(c,d) exercises with the L1 metric.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    EntryLeaf,
    KernelQueryMixin,
    check_vector,
    edge_children,
    quadratic_partition,
)
from repro.baselines.sstree import _is_euclidean
from repro.distances import Metric
from repro.engine.kernel import ChildBound
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity, srtree_node_capacity
from repro.storage.pagestore import PageStore


class SREntry:
    """Child pointer + bounding sphere + bounding rect + subtree weight."""

    __slots__ = ("child_id", "sphere", "rect", "weight")

    def __init__(self, child_id: int, sphere: Sphere, rect: Rect, weight: int):
        self.child_id = child_id
        self.sphere = sphere
        self.rect = rect
        self.weight = weight

    def mindist(self, q: np.ndarray, metric: Metric) -> float:
        """Lower bound to the sphere ∩ rect region: the max of both bounds
        (sphere bound only under Euclidean, where it is valid)."""
        bound = metric.mindist_rect(q, self.rect.low, self.rect.high)
        if _is_euclidean(metric):
            bound = max(bound, self.sphere.mindist_point(q))
        return bound


class _SRBound(ChildBound):
    """Kernel pruning bound for an SR-tree entry: rect test first, sphere
    test only where the rect passes (same short-circuit order as the
    scalar ``query.intersects(rect) and sphere.intersects_rect(query)``)."""

    __slots__ = ("entry",)

    def __init__(self, entry: SREntry):
        self.entry = entry

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        mask = self.entry.rect.intersects_boxes_mask(lows, highs)
        sphere = self.entry.sphere
        for i in np.flatnonzero(mask):
            mask[i] = sphere.intersects_rect(Rect(lows[i], highs[i]))
        return mask

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return np.fromiter(
            (self.entry.mindist(q, metric) for q in qs),
            dtype=np.float64,
            count=len(qs),
        )


class SRIndexNode:
    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[SREntry] = []
        self.level = level

    @property
    def fanout(self) -> int:
        return len(self.entries)


class SRTree(KernelQueryMixin):
    """Dynamic SR-tree over a ``dims``-dimensional feature space."""

    INSERT_POLICIES = ("rtree", "sstree")

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float = 0.4,
        insert_policy: str = "rtree",
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if insert_policy not in self.INSERT_POLICIES:
            raise ValueError(
                f"insert_policy must be one of {self.INSERT_POLICIES}, got {insert_policy!r}"
            )
        self.insert_policy = insert_policy
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = data_node_capacity(dims, self.layout)
        self.index_capacity = srtree_node_capacity(dims, self.layout)
        self.min_fill = min_fill
        self.nm = NodeManager(store=store, stats=stats)
        self._root_id = self.nm.allocate()
        self.nm.put(self._root_id, EntryLeaf(dims, self.leaf_capacity), charge=False)
        self._height = 1
        self._count = 0

    @property
    def io(self) -> IOStats:
        return self.nm.stats

    @property
    def height(self) -> int:
        return self._height

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        return self.nm.store.allocated_pages

    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "SRTree":
        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        ids = oids if oids is not None else range(len(vectors))
        for v, oid in zip(vectors, ids):
            tree.insert(v, int(oid))
        return tree

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, oid: int) -> None:
        v = check_vector(vector, self.dims)
        path: list[tuple[int, SRIndexNode, int]] = []
        node_id = self._root_id
        node = self.nm.get(node_id)
        while isinstance(node, SRIndexNode):
            idx = self._choose_entry(node, v)
            entry = node.entries[idx]
            self._absorb_point(entry, v)
            self.nm.put(node_id, node)
            path.append((node_id, node, idx))
            node_id = entry.child_id
            node = self.nm.get(node_id)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_leaf(path, node_id, node, v, oid)
        self._count += 1

    def _choose_entry(self, node: SRIndexNode, point: np.ndarray) -> int:
        """Descent rule: Guttman minimum rect enlargement (``rtree``) or
        nearest centroid (``sstree``)."""
        if self.insert_policy == "sstree":
            centers = np.array([e.sphere.center for e in node.entries])
            return int(np.argmin(np.linalg.norm(centers - point, axis=1)))
        lows = np.array([e.rect.low for e in node.entries])
        highs = np.array([e.rect.high for e in node.entries])
        volumes = np.prod(highs - lows, axis=1)
        merged = np.prod(np.maximum(highs, point) - np.minimum(lows, point), axis=1)
        enlargement = merged - volumes
        candidates = np.flatnonzero(enlargement <= enlargement.min() + 1e-18)
        return int(candidates[np.argmin(volumes[candidates])])

    @staticmethod
    def _absorb_point(entry: SREntry, point: np.ndarray) -> None:
        sphere, w = entry.sphere, entry.weight
        new_center = (sphere.center * w + point) / (w + 1)
        shift = float(np.linalg.norm(new_center - sphere.center))
        new_radius = max(
            sphere.radius + shift, float(np.linalg.norm(point - new_center))
        )
        entry.sphere = Sphere(new_center, new_radius)
        entry.rect = entry.rect.merge_point(point)
        entry.weight = w + 1

    def _leaf_entry(self, node_id: int, leaf: EntryLeaf) -> SREntry:
        points = leaf.points()
        return SREntry(node_id, Sphere.from_points(points), leaf.rect(), leaf.count)

    def _split_leaf(self, path, node_id, node, vector, oid) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        rows = points.astype(np.float64)
        if self.insert_policy == "rtree":
            group_a, group_b = quadratic_partition(rows, rows, self.min_fill)
        else:
            group_a, group_b = self._variance_partition(rows)
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for i in group_a:
            left.add(points[i], int(oids[i]))
        for i in group_b:
            right.add(points[i], int(oids[i]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path, self._leaf_entry(node_id, left), self._leaf_entry(right_id, right), level=1
        )

    def _split_index(self, path, node_id, node) -> None:
        if self.insert_policy == "rtree":
            lows = np.array([e.rect.low for e in node.entries])
            highs = np.array([e.rect.high for e in node.entries])
            group_a, group_b = quadratic_partition(lows, highs, self.min_fill)
        else:
            centers = np.array([e.sphere.center for e in node.entries])
            group_a, group_b = self._variance_partition(centers)
        left = SRIndexNode(node.level)
        right = SRIndexNode(node.level)
        left.entries = [node.entries[i] for i in group_a]
        right.entries = [node.entries[i] for i in group_b]
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path, self._summarise(node_id, left), self._summarise(right_id, right),
            level=node.level + 1,
        )

    @staticmethod
    def _summarise(node_id: int, node: SRIndexNode) -> SREntry:
        weights = [e.weight for e in node.entries]
        sphere = Sphere.merge_all([e.sphere for e in node.entries], weights)
        rect = Rect.merge_all([e.rect for e in node.entries])
        return SREntry(node_id, sphere, rect, sum(weights))

    def _variance_partition(self, rows: np.ndarray) -> tuple[list[int], list[int]]:
        n = rows.shape[0]
        dim = int(np.argmax(rows.var(axis=0)))
        order = np.argsort(rows[:, dim], kind="stable")
        min_count = max(1, int(np.floor(n * self.min_fill)))
        k = int(np.clip(n // 2, min_count, n - min_count))
        return order[:k].tolist(), order[k:].tolist()

    def _propagate_split(self, path, old_entry: SREntry, new_entry: SREntry, level: int):
        if not path:
            root = SRIndexNode(level)
            root.entries = [old_entry, new_entry]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = old_entry
        parent.entries.append(new_entry)
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index(path, parent_id, parent)

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
        return edge_children(node.entries, _SRBound)
