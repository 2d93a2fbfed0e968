"""M-tree (Ciaccia, Patella & Zezula, VLDB 1997) — distance-based exemplar.

Section 2 of the hybrid-tree paper classifies index structures into
feature-based and *distance-based*; the M-tree is the canonical DP-based
member of the distance-based class.  It partitions data purely by distances
to routing objects under a metric **fixed at construction time**: each index
entry stores a routing object, a covering radius and the distance to its
parent routing object, enabling triangle-inequality pruning without ever
looking at coordinates.

Two properties matter for the paper's argument and are faithfully modelled:

- queries under any *other* metric are rejected (the distance-based
  limitation the hybrid tree avoids);
- box (window) queries are unsupported — there is no coordinate geometry to
  intersect a box with (``range_search`` raises ``TypeError``).

Insertion descends to the routing object needing least radius enlargement
(preferring children that already cover the point); splits promote two new
routing objects by the mM_RAD rule over a sample and partition by the
generalized-hyperplane rule, as in the original paper's best-performing
configuration.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.baselines.common import EntryLeaf, KernelQueryMixin, check_vector, edge_children
from repro.distances import L2, Metric
from repro.engine.kernel import ChildBound
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import FLOAT_SIZE, OID_SIZE, PAGE_ID_SIZE, PageLayout
from repro.storage.pagestore import PageStore


def mtree_leaf_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Leaf entry: vector + oid + distance-to-parent."""
    layout = layout or PageLayout()
    entry = dims * FLOAT_SIZE + OID_SIZE + FLOAT_SIZE
    return max(layout.usable // entry, 2)


def mtree_index_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Index entry: routing object + covering radius + parent distance + ptr."""
    layout = layout or PageLayout()
    entry = dims * FLOAT_SIZE + FLOAT_SIZE + FLOAT_SIZE + PAGE_ID_SIZE
    return max(layout.usable // entry, 2)


class MEntry:
    """Routing entry: object, covering radius, subtree pointer."""

    __slots__ = ("router", "radius", "child_id", "weight")

    def __init__(self, router: np.ndarray, radius: float, child_id: int, weight: int):
        self.router = router
        self.radius = float(radius)
        self.child_id = child_id
        self.weight = weight


class MIndexNode:
    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[MEntry] = []
        self.level = level

    @property
    def fanout(self) -> int:
        return len(self.entries)


class _RouterBound(ChildBound):
    """Kernel pruning bound from a routing entry's covering radius.

    ``distance_mask`` keeps the original triangle-inequality comparison
    ``d(router, q) <= radius + covering_radius`` (not the rearranged
    ``mindist <= radius``) so float behaviour matches the scalar path.
    """

    __slots__ = ("entry",)

    def __init__(self, entry: MEntry):
        self.entry = entry

    def _router_dists(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return metric.distance_batch(qs, self.entry.router)

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        return self._router_dists(qs, metric) <= radii + self.entry.radius

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return np.maximum(0.0, self._router_dists(qs, metric) - self.entry.radius)


class MTree(KernelQueryMixin):
    """Dynamic M-tree under a metric fixed at construction."""

    trav_supports_box = False

    def __init__(
        self,
        dims: int,
        *,
        metric: Metric = L2,
        page_size: int = 4096,
        min_fill: float = 0.4,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.metric = metric
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = mtree_leaf_capacity(dims, self.layout)
        self.index_capacity = mtree_index_capacity(dims, self.layout)
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
    ) -> "MTree":
        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        ids = oids if oids is not None else range(len(vectors))
        for v, oid in zip(vectors, ids):
            tree.insert(v, int(oid))
        return tree

    def _check_metric(self, metric: Metric) -> None:
        if metric is not self.metric and metric != self.metric:
            raise ValueError(
                "M-tree geometry is committed to the metric fixed at build "
                f"time ({self.metric!r}); queries under {metric!r} are "
                "unsupported — this is the distance-based limitation the "
                "hybrid tree exists to avoid"
            )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, oid: int) -> None:
        v = check_vector(vector, self.dims)
        path: list[tuple[int, MIndexNode, int]] = []
        node_id = self._root_id
        node = self.nm.get(node_id)
        while isinstance(node, MIndexNode):
            idx = self._choose_entry(node, v)
            entry = node.entries[idx]
            dist = self.metric.distance(entry.router, v)
            if dist > entry.radius:
                entry.radius = dist
            entry.weight += 1
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

    def _choose_entry(self, node: MIndexNode, point: np.ndarray) -> int:
        dists = np.array(
            [self.metric.distance(e.router, point) for e in node.entries]
        )
        radii = np.array([e.radius for e in node.entries])
        covering = np.flatnonzero(dists <= radii)
        if covering.size:
            return int(covering[np.argmin(dists[covering])])
        return int(np.argmin(dists - radii))  # least radius enlargement

    def _promote_and_partition(
        self, rows: np.ndarray
    ) -> tuple[int, int, list[int], list[int]]:
        """mM_RAD promotion over a sample + generalized-hyperplane split."""
        n = rows.shape[0]
        rng_idx = range(min(n, 24))  # bounded candidate sample
        best = (np.inf, 0, 1)
        for a, b in itertools.combinations(rng_idx, 2):
            da = self.metric.distance_batch(rows, rows[a])
            db = self.metric.distance_batch(rows, rows[b])
            to_a = da <= db
            r1 = da[to_a].max() if to_a.any() else 0.0
            r2 = db[~to_a].max() if (~to_a).any() else 0.0
            score = max(r1, r2)
            if score < best[0]:
                best = (score, a, b)
        _, a, b = best
        da = self.metric.distance_batch(rows, rows[a])
        db = self.metric.distance_batch(rows, rows[b])
        min_count = max(1, int(np.floor(n * self.min_fill)))
        order = np.argsort(da - db, kind="stable")
        split = int(np.clip(int((da <= db).sum()), min_count, n - min_count))
        group_a = order[:split].tolist()
        group_b = order[split:].tolist()
        return a, b, group_a, group_b

    def _split_leaf(self, path, node_id, node, vector, oid) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        rows = points.astype(np.float64)
        pa, pb, group_a, group_b = self._promote_and_partition(rows)
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for i in group_a:
            left.add(points[i], int(oids[i]))
        for i in group_b:
            right.add(points[i], int(oids[i]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        entry_a = self._leaf_entry(rows[pa], node_id, left)
        entry_b = self._leaf_entry(rows[pb], right_id, right)
        self._propagate(path, entry_a, entry_b, level=1)

    def _leaf_entry(self, router: np.ndarray, node_id: int, leaf: EntryLeaf) -> MEntry:
        dists = self.metric.distance_batch(leaf.points().astype(np.float64), router)
        return MEntry(router.copy(), float(dists.max()), node_id, leaf.count)

    def _split_index(self, path, node_id, node) -> None:
        routers = np.array([e.router for e in node.entries])
        pa, pb, group_a, group_b = self._promote_and_partition(routers)
        left = MIndexNode(node.level)
        right = MIndexNode(node.level)
        left.entries = [node.entries[i] for i in group_a]
        right.entries = [node.entries[i] for i in group_b]
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        entry_a = self._index_entry(routers[pa], node_id, left)
        entry_b = self._index_entry(routers[pb], right_id, right)
        self._propagate(path, entry_a, entry_b, level=node.level + 1)

    def _index_entry(self, router: np.ndarray, node_id: int, node: MIndexNode) -> MEntry:
        radius = max(
            self.metric.distance(router, e.router) + e.radius for e in node.entries
        )
        weight = sum(e.weight for e in node.entries)
        return MEntry(router.copy(), radius, node_id, weight)

    def _propagate(self, path, entry_a: MEntry, entry_b: MEntry, level: int) -> None:
        if not path:
            root = MIndexNode(level)
            root.entries = [entry_a, entry_b]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = entry_a
        parent.entries.append(entry_b)
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index(path, parent_id, parent)

    # ------------------------------------------------------------------
    # Queries (fixed metric; no window queries): the traversal kernel
    # ------------------------------------------------------------------
    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric | None = None
    ) -> list[tuple[int, float]]:
        return self.distance_range_many([query], radius, metric)[0]

    def knn(
        self,
        query: np.ndarray,
        k: int,
        metric: Metric | None = None,
        approximation_factor: float = 0.0,
    ) -> list[tuple[int, float]]:
        return self.knn_many([query], k, metric, approximation_factor)[0]

    # Batch helpers default to the build-time metric; dispatch checks any
    # other metric through ``trav_check_metric``.
    def distance_range_many(
        self, centers, radii, metric: Metric | None = None,
        return_metrics: bool = False, timeout=None, on_timeout: str = "raise",
    ):
        return super().distance_range_many(
            centers, radii, metric or self.metric, return_metrics, timeout, on_timeout
        )

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric | None = None,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        return super().knn_many(
            centers, k, metric or self.metric, approximation_factor, return_metrics,
            timeout, on_timeout,
        )

    def trav_check_metric(self, metric: Metric) -> None:
        self._check_metric(metric)

    def trav_root(self):
        return self._root_id, None

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, EntryLeaf)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, ctx):
        return edge_children(node.entries, _RouterBound)
