"""The hybrid tree (paper Section 3): public API and tree operations.

A paged, height-balanced multidimensional index.  Index nodes organise their
children as intranode kd-trees with dual split positions (``lsp``/``rsp``),
so fanout is independent of dimensionality and intranode search is
logarithmic; regions may overlap only where a clean split would force
downward cascading splits — the paper's "hybrid" of space- and
data-partitioning.  Data nodes split cleanly on the EDA-optimal (maximum
extent) dimension; index nodes split by the 1-d interval bipartition and the
EDA criterion ``(w + r)/(s + r)``.  Dead space is eliminated with Encoded
Live Space (ELS) boxes kept in memory.

Supported queries: bounding-box range, point lookup, distance range and
exact/approximate k-nearest-neighbour under any
:class:`~repro.distances.Metric` supplied at query time.  All operations are
fully dynamic (inserts and deletes interleave with queries), and the tree can
be saved to / reopened from a real page file.
"""

from __future__ import annotations

import heapq
import io
import itertools
import operator
import os
import struct
import threading
import zlib

import numpy as np

from repro.core import kdnodes
from repro.core.els import ELSTable
from repro.core.kdnodes import KDInternal, KDLeaf, KDNode
from repro.core.nodes import MAX_OID, DataNode, IndexNode, OidRangeError
from repro.core.splits import (
    POLICY_EDA,
    POLICY_RR,
    POSITION_MIDDLE,
    choose_data_split,
    choose_index_split,
    reset_round_robin,
)
from repro.distances import L2, Metric
from repro.engine.query import BatchQueries, check_approximation, check_k, check_radii
from repro.geometry.rect import Rect
from repro.storage import superblock as superblock_io
from repro.storage import wal as wal_io
from repro.storage.errors import PageCorruptionError, ReadOnlyStoreError
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import (
    PageLayout,
    data_node_capacity,
    kdtree_node_capacity,
)
from repro.storage.pagestore import (
    FilePageStore,
    OverlayPageStore,
    PageStore,
    SnapshotPageStore,
    VersionedOverlayStore,
)

ON_CORRUPTION_POLICIES = ("raise", "scan")


def _save_store(path: str, page_size: int) -> FilePageStore:
    """Open the store ``save`` writes through (crash tests swap this in
    for a :class:`~repro.storage.faults.FaultInjectingPageStore`)."""
    return FilePageStore(path, page_size, checksums=True)


def _f32(x: float) -> float:
    """Round a split position to float32, the precision pages store."""
    return float(np.float32(x))


class HybridTree:
    """Hybrid tree over a ``dims``-dimensional normalized feature space.

    Parameters
    ----------
    dims:
        Dimensionality of the feature vectors.
    page_size:
        Disk page size in bytes; node capacities derive from it (default
        4096, the paper's setting).
    min_fill:
        Utilization guarantee as a fraction of capacity (default 0.4).
    split_policy:
        ``"eda"`` for the paper's EDA-optimal splits, ``"vam"`` for the
        VAMSplit baseline of Figure 5(a,b).
    split_position:
        ``"middle"`` (paper, more cubic regions) or ``"median"`` ablation.
    els_bits:
        Encoded-live-space precision in bits per boundary; 0 disables ELS
        (Figure 5(c) sweeps this).
    expected_query_side:
        The query side length ``r`` the index-node EDA criterion optimizes
        for (Section 3.3; the paper's experiments use a fixed ``r``).
    bounds:
        The data space; defaults to the unit cube and grows automatically if
        out-of-range points arrive.
    store / stats:
        Optional page store and shared I/O accountant.
    on_corruption:
        Query-time policy when a page fails its integrity check
        (:class:`PageCorruptionError`).  ``"raise"`` (default) propagates
        the error; ``"scan"`` degrades the query to a sequential scan over
        the intact data pages of the backing file — answers stay available
        mid-workload, minus any entries whose data pages were lost.
    """

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float = 0.4,
        split_policy: str = POLICY_EDA,
        split_position: str = POSITION_MIDDLE,
        els_bits: int = 4,
        expected_query_side: float = 0.1,
        bounds: Rect | None = None,
        store: PageStore | None = None,
        stats: IOStats | None = None,
        on_corruption: str = "raise",
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.data_capacity = data_node_capacity(dims, self.layout)
        self.index_capacity = kdtree_node_capacity(dims, self.layout)
        self.min_fill = min_fill
        self.split_policy = split_policy
        self.split_position = split_position
        self.expected_query_side = expected_query_side
        self.bounds = bounds if bounds is not None else Rect.unit(dims)
        if self.bounds.dims != dims:
            raise ValueError("bounds dimensionality mismatch")
        if split_policy == POLICY_RR:
            reset_round_robin()
        if on_corruption not in ON_CORRUPTION_POLICIES:
            raise ValueError(f"on_corruption must be one of {ON_CORRUPTION_POLICIES}")
        self.on_corruption = on_corruption
        self.degraded_queries = 0
        self.source_path: str | None = None
        self.read_only = False
        self.modified_since_save = False
        self.nm = NodeManager(store=store, stats=stats)
        self.els = ELSTable(dims, els_bits)
        self._root_id = self.nm.allocate()
        self.nm.put(self._root_id, DataNode(dims, self.data_capacity), charge=False)
        self._height = 1
        self._count = 0
        self._init_wal_state()

    def _init_wal_state(self) -> None:
        """Per-instance write-ahead-log state (no log attached yet)."""
        self.generation = 0
        self.wal: wal_io.WriteAheadLog | None = None
        self.wal_replayed_transactions = 0
        self._wal_depth = 0
        self._commit_lock = threading.RLock()
        self._carry_written: set[int] = set()
        self._carry_freed: set[int] = set()
        self._carry_els: dict[int, Rect | None] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (1 = the root is a data node)."""
        return self._height

    @property
    def root_id(self) -> int:
        return self._root_id

    @property
    def io(self) -> IOStats:
        """The I/O accountant shared with the page store."""
        return self.nm.stats

    def pages(self) -> int:
        """Pages occupied by the tree."""
        return self.nm.store.allocated_pages

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "HybridTree":
        """Build a tree top-down from a full dataset (see
        :mod:`repro.core.bulkload`).  ``kwargs`` are constructor options."""
        from repro.core.bulkload import bulk_load_into

        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        bulk_load_into(tree, vectors, oids)
        return tree

    # ------------------------------------------------------------------
    # Insertion (Section 3.5; descent as in R-trees, kd-navigated)
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, oid: int) -> None:
        """Insert ``(vector, oid)``.  Duplicate vectors/oids are allowed."""
        v = self._check_vector(vector)
        oid = self._check_oid(oid)
        owns = self._wal_begin()
        try:
            self._insert_inner(v, oid)
        except BaseException:
            self._wal_abort(owns)
            raise
        self._wal_end(owns, "insert")

    def _insert_inner(self, v: np.ndarray, oid: int) -> None:
        if not self.bounds.contains_point(v):
            self.bounds = self.bounds.merge_point(v)

        # Prefer a root-to-leaf path whose regions all contain the point
        # (backtracking over overlap zones): no region ever widens, so the
        # data level stays overlap-free (Section 3.6).  Only when
        # overlapping index splits have left the point in a coverage hole
        # on *every* path does the greedy descent widen kd positions.
        descent = self._containment_descent(self._root_id, self.bounds, v)
        if descent is None:
            descent = self._greedy_descent(v)
        path, (node_id, node, _region) = descent[:-1], descent[-1]
        for ancestor_id, _, _ in path:
            self.els.merge_point(ancestor_id, v)
        self.els.merge_point(node_id, v)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_data_node(path, node_id, node, v, oid)
        self._count += 1
        self.modified_since_save = True
        self.invalidate_snapshot()

    def _containment_descent(
        self, node_id: int, region: Rect, v: np.ndarray
    ) -> list[tuple[int, object, Rect]] | None:
        """Depth-first search for a fully containing path; smallest-region
        children first (the zero-enlargement, min-volume R-tree rule)."""
        node = self.nm.get(node_id)
        if isinstance(node, DataNode):
            return [(node_id, node, region)]
        containing: list[tuple[float, int, Rect]] = []

        def collect(kd: KDNode, kd_region: Rect) -> None:
            if isinstance(kd, KDLeaf):
                containing.append((kd_region.volume(), kd.child_id, kd_region))
                return
            x = v[kd.dim]
            if x <= kd.lsp:
                collect(kd.left, kd_region.clip_below(kd.dim, kd.lsp))
            if x >= kd.rsp:
                collect(kd.right, kd_region.clip_above(kd.dim, kd.rsp))

        collect(node.kd_root, region)
        containing.sort(key=lambda t: t[0])
        for _, child_id, child_region in containing:
            sub = self._containment_descent(child_id, child_region, v)
            if sub is not None:
                return [(node_id, node, region)] + sub
        return None

    def _greedy_descent(self, v: np.ndarray) -> list[tuple[int, object, Rect]]:
        """Fallback descent that widens kd positions to absorb the point."""
        descent: list[tuple[int, object, Rect]] = []
        node_id, region = self._root_id, self.bounds
        node = self.nm.get(node_id)
        while isinstance(node, IndexNode):
            descent.append((node_id, node, region))
            node_id, region = self._choose_child(node, region, v)
            node = self.nm.get(node_id)
        descent.append((node_id, node, region))
        return descent

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float32).astype(np.float64)
        if v.shape != (self.dims,):
            raise ValueError(f"expected a {self.dims}-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector must be finite")
        return v

    def _check_oid(self, oid) -> int:
        """Validate an object id fits the uint32 slot data pages store.

        ``np.uint32(oid)`` would silently wrap out-of-range values (so a
        lookup or delete by the original oid would miss forever); reject
        them up front with a typed error instead.
        """
        try:
            value = operator.index(oid)
        except TypeError as exc:
            raise OidRangeError(
                f"oid must be an integer, got {type(oid).__name__}"
            ) from exc
        if not 0 <= value <= MAX_OID:
            raise OidRangeError(
                f"oid {value} is outside [0, {MAX_OID}], the uint32 range "
                "data pages store"
            )
        return value

    # ------------------------------------------------------------------
    # Write-ahead logging (repro.storage.wal)
    # ------------------------------------------------------------------
    def _wal_begin(self) -> bool:
        """Enter a mutation; returns True when this call owns the WAL
        transaction (the outermost mutation — deletes reinsert through
        :meth:`insert`, and those nested calls must not commit halfway)."""
        if isinstance(self.nm.store, SnapshotPageStore):
            raise ReadOnlyStoreError(
                "snapshot views are read-only; mutate through the owning tree"
            )
        if self.wal is None:
            return False
        self._wal_depth += 1
        if self._wal_depth > 1:
            return False
        self._commit_lock.acquire()
        self.nm.begin_mutation_tracking()
        self.els.begin_tracking()
        return True

    def _wal_abort(self, owns: bool) -> None:
        """Unwind a mutation that raised.  Nothing is logged — the durable
        state stays at the last commit — but the in-memory tree may be
        half-mutated, so the touched page/ELS sets are carried over into
        the next successful commit, which re-logs them and brings the log
        back in line with memory."""
        if self.wal is None:
            return
        self._wal_depth -= 1
        if not owns:
            return
        try:
            written, freed = self.nm.end_mutation_tracking()
            self._carry_written |= written
            self._carry_freed |= freed
            self._carry_els.update(self.els.end_tracking())
        finally:
            self._commit_lock.release()

    def _wal_end(self, owns: bool, kind: str) -> None:
        """Commit the outermost mutation: log full images of every touched
        live page, then the metadata delta, fsync (group commit), and only
        then write the pages through to the overlay store — so concurrent
        snapshot readers flip between committed states, never through the
        middle of a transaction."""
        if self.wal is None:
            return
        self._wal_depth -= 1
        if not owns:
            return
        try:
            written, freed = self.nm.end_mutation_tracking()
            els_delta = self.els.end_tracking()
            written |= self._carry_written
            freed |= self._carry_freed
            if self._carry_els:
                merged = dict(self._carry_els)
                merged.update(els_delta)
                els_delta = merged
            self._carry_written = set()
            self._carry_freed = set()
            self._carry_els = {}
            if not written and not freed and not els_delta:
                return  # a no-op mutation (e.g. delete of a missing entry)
            store = self.nm.store
            free_now = set(store.free_page_ids)
            live = [pid for pid in sorted(written) if pid not in free_now]
            images = {
                pid: self.nm.codec.encode(self.nm.get(pid, charge=False))
                for pid in live
            }
            for pid in live:
                self.wal.append_page(pid, images[pid])
            self.wal.append_commit(
                {
                    "kind": kind,
                    "count": self._count,
                    "root_id": self._root_id,
                    "height": self._height,
                    "bounds": [self.bounds.low.tolist(), self.bounds.high.tolist()],
                    "els": {
                        str(nid): (
                            None
                            if rect is None
                            else [rect.low.tolist(), rect.high.tolist()]
                        )
                        for nid, rect in sorted(els_delta.items())
                    },
                    "free_ids": sorted(free_now),
                    "next_id": store._next_id,
                }
            )
            self.wal.commit()
            # Write-through: the overlay now holds exactly the committed
            # images (snapshot COW preserves the pre-write versions), and
            # a later flush() will not redo the work.
            for pid, image in images.items():
                store.write(pid, image, charge=False)
                self.nm._dirty.discard(pid)
        finally:
            self._commit_lock.release()

    def snapshot_view(self) -> "HybridTree":
        """A read-only tree serving this tree's current *committed* state.

        Requires a WAL-enabled tree (``open(..., wal=True)``).  The view
        pins a page-version snapshot on the underlying
        :class:`VersionedOverlayStore`: a concurrent writer keeps
        inserting/deleting while every query on the view answers from the
        exact state at pin time, bit-identically.  The view carries its own
        :class:`IOStats` and node cache; :meth:`close` releases the pin
        (and the page versions it kept alive).
        """
        if self.wal is None or not isinstance(self.nm.store, VersionedOverlayStore):
            raise ValueError(
                "snapshot_view() requires a WAL-enabled tree (open(..., wal=True))"
            )
        from repro.storage.serialization import HybridNodeCodec

        with self._commit_lock:  # pin only at a transaction boundary
            store = SnapshotPageStore(self.nm.store)
            view = type(self).__new__(type(self))
            view.dims = self.dims
            view.layout = self.layout
            view.data_capacity = self.data_capacity
            view.index_capacity = self.index_capacity
            view.min_fill = self.min_fill
            view.split_policy = self.split_policy
            view.split_position = self.split_position
            view.expected_query_side = self.expected_query_side
            view.bounds = self.bounds
            view.on_corruption = self.on_corruption
            view.degraded_queries = 0
            view.source_path = self.source_path
            view.read_only = True
            view.modified_since_save = False
            view.nm = NodeManager(
                store=store,
                codec=HybridNodeCodec(
                    self.dims, self.data_capacity, self.layout.page_size
                ),
                stats=store.stats,
            )
            view.els = self.els.copy()
            view._root_id = self._root_id
            view._height = self._height
            view._count = self._count
            view._soa_snapshot = None
            view._soa_load_error = None
            view._init_wal_state()
            view.generation = self.generation
        return view

    def checkpoint(self) -> dict:
        """Fold the write-ahead log into a fresh superblock.

        Publishes the full tree state through :meth:`save`'s atomic
        tmp+rename (generation + 1), then resets the log pinned to the new
        generation.  Crash-safe at every point: before the rename the old
        file + old log reproduce the committed state; after the rename a
        not-yet-reset log has a stale generation and replay ignores it.
        Returns checkpoint statistics.
        """
        if self.wal is None:
            raise ValueError(
                "checkpoint() requires a WAL-enabled tree (open(..., wal=True))"
            )
        if self.source_path is None:
            raise ValueError("checkpoint() needs a source path; save() first")
        with self._commit_lock:
            folded_bytes = self.wal.size_bytes
            commits = self.wal.commit_count
            syncs = self.wal.sync_count
            self.save(self.source_path)
            return {
                "generation": self.generation,
                "wal_bytes_folded": folded_bytes,
                "commit_count": commits,
                "sync_count": syncs,
            }

    def _choose_child(
        self, node: IndexNode, region: Rect, point: np.ndarray
    ) -> tuple[int, Rect]:
        """Pick the child to descend into (min enlargement, ties by volume).

        Children tile or overlap the node's region, so a containing child
        almost always exists; among containing children the smallest region
        wins (zero enlargement for all of them).  If no child contains the
        point (possible after overlapping splits leave a one-sided hole), the
        least-enlargement leaf is chosen and the split positions on its kd
        path are widened to absorb the point — the hybrid-tree analogue of
        R-tree region enlargement.
        """
        containing: list[tuple[float, KDLeaf, Rect]] = []

        def collect(kd: KDNode, kd_region: Rect) -> None:
            if isinstance(kd, KDLeaf):
                containing.append((kd_region.volume(), kd, kd_region))
                return
            x = point[kd.dim]
            if x <= kd.lsp:
                collect(kd.left, kd_region.clip_below(kd.dim, kd.lsp))
            if x >= kd.rsp:
                collect(kd.right, kd_region.clip_above(kd.dim, kd.rsp))

        collect(node.kd_root, region)
        if containing:
            _, leaf, leaf_region = min(containing, key=lambda t: t[0])
            return leaf.child_id, leaf_region

        # No containing leaf: widen the cheapest leaf's kd path.
        best_leaf_id: int | None = None
        best_cost = (np.inf, np.inf)
        for leaf, leaf_region in kdnodes.leaves_with_regions(node.kd_root, region):
            cost = (leaf_region.enlargement(point), leaf_region.volume())
            if cost < best_cost:
                best_cost = cost
                best_leaf_id = leaf.child_id
        assert best_leaf_id is not None
        self._widen_path_to(node.kd_root, best_leaf_id, point)
        leaf_region = kdnodes.region_of_child(node.kd_root, region, best_leaf_id)
        return best_leaf_id, leaf_region

    def _widen_path_to(self, kd: KDNode, child_id: int, point: np.ndarray) -> bool:
        """Adjust lsp/rsp along the path to ``child_id`` so its region
        contains ``point``.  Widening only increases overlap, never creates
        gaps (``lsp`` grows / ``rsp`` shrinks)."""
        if isinstance(kd, KDLeaf):
            return kd.child_id == child_id
        if self._widen_path_to(kd.left, child_id, point):
            if point[kd.dim] > kd.lsp:
                kd.lsp = _f32(point[kd.dim])
            return True
        if self._widen_path_to(kd.right, child_id, point):
            if point[kd.dim] < kd.rsp:
                kd.rsp = _f32(point[kd.dim])
            return True
        return False

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _split_data_node(
        self,
        path: list[tuple[int, IndexNode, Rect]],
        node_id: int,
        node: DataNode,
        vector: np.ndarray,
        oid: int,
    ) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        split = choose_data_split(
            points, self.min_fill, self.split_policy, self.split_position
        )
        left = DataNode(self.dims, self.data_capacity)
        right = DataNode(self.dims, self.data_capacity)
        for idx in split.left_indices:
            left.add(points[idx], int(oids[idx]))
        for idx in split.right_indices:
            right.add(points[idx], int(oids[idx]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self.els.set(node_id, left.live_rect())
        self.els.set(right_id, right.live_rect())
        pos = _f32(split.position)
        self._install_split(path, node_id, right_id, split.dim, pos, pos)

    def _split_index_node(self, path: list[tuple[int, IndexNode, Rect]]) -> None:
        node_id, node, region = path.pop()
        children = node.children_with_regions(region)
        split = choose_index_split(
            children, self.min_fill, self.expected_query_side, self.split_policy
        )
        left_kd = kdnodes.prune_to_children(node.kd_root, set(split.left_ids))
        right_kd = kdnodes.prune_to_children(node.kd_root, set(split.right_ids))
        assert left_kd is not None and right_kd is not None
        left_node = IndexNode(left_kd, node.level)
        right_node = IndexNode(right_kd, node.level)
        right_id = self.nm.allocate()
        self.nm.put(node_id, left_node)
        self.nm.put(right_id, right_node)
        self._refresh_els_from_children(node_id, left_node, region)
        self._refresh_els_from_children(right_id, right_node, region)
        self._install_split(
            path, node_id, right_id, split.dim, _f32(split.lsp), _f32(split.rsp)
        )

    def _refresh_els_from_children(
        self, node_id: int, node: IndexNode, region: Rect
    ) -> None:
        rects = []
        for child_id, child_region in node.children_with_regions(region):
            live = self.els.get(child_id)
            rects.append(live if live is not None else child_region)
        self.els.set(node_id, Rect.merge_all(rects))

    def _install_split(
        self,
        path: list[tuple[int, IndexNode, Rect]],
        old_id: int,
        new_id: int,
        dim: int,
        lsp: float,
        rsp: float,
    ) -> None:
        """Post a child split ``old -> (old, new)`` to the parent: the child's
        kd leaf becomes a fresh dual-position internal node.  Cascades upward
        (never downward) when the parent overflows; splits the root by
        growing a new root, keeping the tree height-balanced."""
        new_internal = KDInternal(dim, lsp, rsp, KDLeaf(old_id), KDLeaf(new_id))
        if not path:
            root = IndexNode(new_internal, level=self._height)
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            self._refresh_els_from_children(new_root_id, root, self.bounds)
            return
        parent_id, parent, _parent_region = path[-1]
        parent.kd_root = kdnodes.replace_leaf(parent.kd_root, old_id, new_internal)
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index_node(path)

    # ------------------------------------------------------------------
    # Deletion (eliminate-and-reinsert, Section 3.5 / Guttman)
    # ------------------------------------------------------------------
    def delete(self, vector: np.ndarray, oid: int) -> bool:
        """Remove one entry matching ``(vector, oid)`` exactly.

        Returns ``True`` if an entry was removed.  Underfull data nodes are
        eliminated and their surviving entries reinserted; underfull index
        nodes are eliminated and their child subtrees reinserted at the
        correct level (the R-tree CondenseTree policy).
        """
        v = self._check_vector(vector)
        owns = self._wal_begin()
        try:
            removed = self._delete_inner(v, oid)
        except BaseException:
            self._wal_abort(owns)
            raise
        self._wal_end(owns, "delete")
        return removed

    def _delete_inner(self, v: np.ndarray, oid: int) -> bool:
        found = self._find_entry(v, oid)
        if found is None:
            return False
        path, node_id, node, entry_idx = found
        node.remove_at(entry_idx)
        self.nm.put(node_id, node)
        self._count -= 1
        self.modified_since_save = True
        self.invalidate_snapshot()
        min_entries = max(1, int(np.floor(self.min_fill * self.data_capacity)))
        if node.count >= min_entries or not path:
            if node.count > 0:
                self.els.set(node_id, node.live_rect())  # tighten eagerly
            elif not path:
                self.els.drop(node_id)
            return True
        # Underflow: eliminate the node and reinsert its entries.
        survivors = [
            (node.points()[i].copy(), int(node.live_oids()[i])) for i in range(node.count)
        ]
        self._remove_child(path, node_id)
        self._count -= len(survivors)
        for point, point_oid in survivors:
            self.insert(point, point_oid)
        return True

    def _find_entry(
        self, v: np.ndarray, oid: int
    ) -> tuple[list[tuple[int, IndexNode, Rect]], int, DataNode, int] | None:
        """DFS for the data node holding ``(v, oid)``, returning its path."""
        stack: list[tuple[int, Rect, list]] = [(self._root_id, self.bounds, [])]
        target = np.asarray(v, dtype=np.float32)
        while stack:
            node_id, region, path = stack.pop()
            node = self.nm.get(node_id)
            if isinstance(node, DataNode):
                idx = node.find_entry(target, oid)
                if idx is not None:
                    return path, node_id, node, idx
                continue
            new_path = path + [(node_id, node, region)]
            for child_id, child_region in node.children_with_regions(region):
                if not child_region.contains_point(v):
                    continue
                live = self.els.effective_rect(child_id, child_region)
                if live.contains_point(v):
                    stack.append((child_id, child_region, new_path))
        return None

    def _remove_child(
        self, path: list[tuple[int, IndexNode, Rect]], child_id: int
    ) -> None:
        parent_id, parent, parent_region = path[-1]
        parent.kd_root = kdnodes.remove_leaf(parent.kd_root, child_id)
        assert parent.kd_root is not None, "index nodes always hold >= 2 children"
        self.nm.free(child_id)
        self.els.drop(child_id)
        self.nm.put(parent_id, parent)
        min_children = max(2, int(np.floor(self.min_fill * self.index_capacity)))
        if parent_id == self._root_id:
            if parent.fanout == 1:
                only = parent.child_ids()[0]
                self.nm.free(parent_id)
                self.els.drop(parent_id)
                self._root_id = only
                self._height -= 1
            return
        if parent.fanout >= min_children:
            return
        # Index-node underflow: eliminate the parent, reinsert its subtrees.
        orphans = parent.children_with_regions(parent_region)
        self._remove_child(path[:-1], parent_id)
        for orphan_id, _orphan_region in orphans:
            self._reinsert_subtree(orphan_id, parent.level - 1)

    def _reinsert_subtree(self, subtree_id: int, subtree_level: int) -> None:
        """Re-attach an orphaned subtree at its original level.

        Descends by least enlargement of the subtree's live box, then pairs
        the orphan with the best-matching kd leaf under a new clean/minimal
        dual-position internal node.  Overflow is handled by the normal
        index-node split path.
        """
        live = self.els.get(subtree_id)
        if live is None:
            live = self.bounds
        center = live.center
        path: list[tuple[int, IndexNode, Rect]] = []
        node_id, region = self._root_id, self.bounds
        node = self.nm.get(node_id)
        while isinstance(node, IndexNode) and node.level > subtree_level + 1:
            path.append((node_id, node, region))
            self.els.set(node_id, (self.els.get(node_id) or live).merge(live))
            node_id, region = self._choose_child(node, region, center)
            node = self.nm.get(node_id)
        if not isinstance(node, IndexNode):
            raise RuntimeError("reinsert descended past the target level")
        # Attach: pair with the leaf whose region is cheapest to merge with.
        best: tuple[float, int, Rect] | None = None
        for leaf, leaf_region in kdnodes.leaves_with_regions(node.kd_root, region):
            cost = leaf_region.enlargement_rect(live)
            if best is None or cost < best[0]:
                best = (cost, leaf.child_id, leaf_region)
        assert best is not None
        _, buddy_id, buddy_region = best
        pair_kd = self._pair_children(buddy_id, buddy_region, subtree_id, live)
        node.kd_root = kdnodes.replace_leaf(node.kd_root, buddy_id, pair_kd)
        self.nm.put(node_id, node)
        self.els.set(node_id, (self.els.get(node_id) or live).merge(live))
        path.append((node_id, node, region))
        if node.fanout > self.index_capacity:
            self._split_index_node(path)

    def _pair_children(
        self, left_id: int, left_rect: Rect, right_id: int, right_rect: Rect
    ) -> KDInternal:
        """Build a dual-position internal separating two sibling regions on
        the dimension where they are most cleanly separable."""
        gaps = right_rect.low - left_rect.high  # >0 means clean gap
        reverse_gaps = left_rect.low - right_rect.high
        if float(reverse_gaps.max()) > float(gaps.max()):
            return self._pair_children(right_id, right_rect, left_id, left_rect)
        dim = int(np.argmax(gaps))
        lsp = _f32(left_rect.high[dim])
        rsp = _f32(right_rect.low[dim])
        if lsp < rsp:
            lsp = rsp = _f32((lsp + rsp) / 2.0)
        return KDInternal(dim, lsp, rsp, KDLeaf(left_id), KDLeaf(right_id))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, query: Rect) -> list[int]:
        """Object ids of all points inside the closed box ``query``."""
        if query.dims != self.dims:
            raise ValueError("query dimensionality mismatch")
        results: list[np.ndarray] = []

        def visit(node_id: int, region: Rect) -> None:
            node = self.nm.get(node_id)
            if isinstance(node, DataNode):
                if node.count:
                    mask = query.contains_points_mask(node.points())
                    if mask.any():
                        results.append(node.live_oids()[mask])
                return
            walk(node.kd_root, region)

        def walk(kd: KDNode, region: Rect) -> None:
            if isinstance(kd, KDLeaf):
                live = self.els.effective_rect(kd.child_id, region)
                if query.intersects(live):
                    visit(kd.child_id, region)
                return
            if query.low[kd.dim] <= kd.lsp:
                walk(kd.left, region.clip_below(kd.dim, kd.lsp))
            if query.high[kd.dim] >= kd.rsp:
                walk(kd.right, region.clip_above(kd.dim, kd.rsp))

        try:
            visit(self._root_id, self.bounds)
        except PageCorruptionError as exc:
            vectors, oids = self._degrade(exc)
            return [int(o) for o in oids[query.contains_points_mask(vectors)]]
        return [int(o) for arr in results for o in arr]

    def point_search(self, vector: np.ndarray) -> list[int]:
        """Object ids stored at exactly ``vector`` (float32 equality)."""
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        """All ``(oid, distance)`` with ``distance <= radius`` under
        ``metric`` — the paper's distance-based range query, usable with a
        different metric on every call."""
        q = self._check_vector(query)
        radius = float(check_radii(radius, 1)[0])
        out: list[tuple[int, float]] = []

        def visit(node_id: int, region: Rect) -> None:
            node = self.nm.get(node_id)
            if isinstance(node, DataNode):
                if node.count:
                    dists = metric.distance_batch(node.points().astype(np.float64), q)
                    for i in np.flatnonzero(dists <= radius):
                        out.append((int(node.live_oids()[i]), float(dists[i])))
                return
            walk(node.kd_root, region)

        def walk(kd: KDNode, region: Rect) -> None:
            if isinstance(kd, KDLeaf):
                live = self.els.effective_rect(kd.child_id, region)
                if metric.mindist_rect(q, live.low, live.high) <= radius:
                    visit(kd.child_id, region)
                return
            left_region = region.clip_below(kd.dim, kd.lsp)
            if metric.mindist_rect(q, left_region.low, left_region.high) <= radius:
                walk(kd.left, left_region)
            right_region = region.clip_above(kd.dim, kd.rsp)
            if metric.mindist_rect(q, right_region.low, right_region.high) <= radius:
                walk(kd.right, right_region)

        try:
            visit(self._root_id, self.bounds)
        except PageCorruptionError as exc:
            vectors, oids = self._degrade(exc)
            dists = metric.distance_batch(vectors.astype(np.float64), q)
            return [
                (int(oids[i]), float(dists[i]))
                for i in np.flatnonzero(dists <= radius)
            ]
        return out

    def knn(
        self,
        query: np.ndarray,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
    ) -> list[tuple[int, float]]:
        """The ``k`` nearest neighbours of ``query`` under ``metric``.

        Best-first branch-and-bound (Hjaltason & Samet style) over live-space
        boxes.  With ``approximation_factor = eps > 0`` the search prunes
        nodes whose lower bound exceeds ``best_k / (1 + eps)``, returning
        neighbours within a ``(1 + eps)`` factor of optimal — the paper's
        future-work approximate-NN mode.
        """
        q = self._check_vector(query)
        k = check_k(k)
        shrink = 1.0 / (1.0 + check_approximation(approximation_factor))
        counter = itertools.count()
        frontier: list[tuple[float, int, int, Rect]] = [
            (0.0, next(counter), self._root_id, self.bounds)
        ]
        # Max-heap of the best k, keyed by (distance, oid) with both parts
        # negated so the root is the *worst* retained neighbour.  The oid
        # component breaks kth-distance ties deterministically (smallest oid
        # wins), so repeated runs — and the batch engine — agree exactly.
        best: list[tuple[float, int]] = []

        def kth() -> float:
            return -best[0][0] if len(best) >= k else np.inf

        try:
            while frontier:
                bound, _, node_id, region = heapq.heappop(frontier)
                if bound > kth() * shrink:
                    break
                node = self.nm.get(node_id)
                if isinstance(node, DataNode):
                    if not node.count:
                        continue
                    dists = metric.distance_batch(node.points().astype(np.float64), q)
                    for i, dist in enumerate(dists):
                        dist = float(dist)
                        oid = int(node.live_oids()[i])
                        if len(best) < k:
                            heapq.heappush(best, (-dist, -oid))
                        elif (dist, oid) < (-best[0][0], -best[0][1]):
                            heapq.heapreplace(best, (-dist, -oid))
                    continue
                for child_id, child_region in node.children_with_regions(region):
                    live = self.els.effective_rect(child_id, child_region)
                    child_bound = metric.mindist_rect(q, live.low, live.high)
                    if child_bound <= kth() * shrink:
                        heapq.heappush(
                            frontier,
                            (child_bound, next(counter), child_id, child_region),
                        )
        except PageCorruptionError as exc:
            vectors, oids = self._degrade(exc)
            dists = metric.distance_batch(vectors.astype(np.float64), q)
            # Same deterministic (distance, oid) order the traversal returns.
            order = np.lexsort((oids, dists))[:k]
            return [(int(oids[i]), float(dists[i])) for i in order]
        return sorted(
            ((-neg_oid, -neg_dist) for neg_dist, neg_oid in best),
            key=lambda t: (t[1], t[0]),
        )

    def nearest_iter(self, query: np.ndarray, metric: Metric = L2):
        """Yield ``(oid, distance)`` in non-decreasing distance order.

        Hjaltason-Samet distance browsing: a single priority queue holds
        tree nodes (keyed by their live-box lower bound) and already-scored
        points; a point is emitted only once no pending node could beat it.
        This is the primitive behind ranked similarity queries (MARS-style
        "give me results until the user stops"), where k is unknown upfront.
        """
        q = self._check_vector(query)
        counter = itertools.count()
        # Entries: (key, tiebreak, kind, payload); kind 0 = point, 1 = node.
        heap: list[tuple[float, int, int, object]] = [
            (0.0, next(counter), 1, (self._root_id, self.bounds))
        ]
        while heap:
            key, _, kind, payload = heapq.heappop(heap)
            if kind == 0:
                yield payload, key  # (oid, distance)
                continue
            node_id, region = payload
            node = self.nm.get(node_id)
            if isinstance(node, DataNode):
                if node.count:
                    dists = metric.distance_batch(node.points().astype(np.float64), q)
                    for i, dist in enumerate(dists):
                        heapq.heappush(
                            heap,
                            (float(dist), next(counter), 0, int(node.live_oids()[i])),
                        )
                continue
            for child_id, child_region in node.children_with_regions(region):
                live = self.els.effective_rect(child_id, child_region)
                bound = metric.mindist_rect(q, live.low, live.high)
                heapq.heappush(
                    heap, (bound, next(counter), 1, (child_id, child_region))
                )

    def count_range(self, query: Rect) -> int:
        """Number of points in the closed box (the traversal and I/O of
        :meth:`range_search`)."""
        return len(self.range_search(query))

    # ------------------------------------------------------------------
    # Graceful degradation (``on_corruption="scan"``)
    # ------------------------------------------------------------------
    def _degrade(self, exc: PageCorruptionError) -> tuple[np.ndarray, np.ndarray]:
        """Handle a corrupt page hit mid-query per ``self.on_corruption``.

        Policy ``"raise"`` re-raises the typed error; ``"scan"`` abandons
        the index traversal and answers from a sequential scan of the
        intact data pages (see :meth:`_scan_entries`), trading the index's
        pruning for availability.
        """
        if self.on_corruption != "scan" or self.nm.codec is None:
            raise exc
        self.degraded_queries += 1
        return self._scan_entries()

    def _scan_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Sequentially scan every allocated page, collecting the entries of
        all data pages that still verify; corrupt or non-data pages are
        skipped.  Charges one sequential read per page scanned (the
        degraded query pays a relation-scan cost, not an index cost).

        Answers reflect the pages as persisted — the last ``save()`` plus
        any flushed mutations — which is exactly what survives a crash.

        Honors any ambient query deadline (``repro.resilience``): a
        degraded-to-scan query inside a ``timeout=`` batch can't run
        unbounded, and the pages scanned before the budget expired stay
        billed.
        """
        from repro.resilience import active_deadline

        deadline = active_deadline()
        store = self.nm.store
        vec_parts: list[np.ndarray] = []
        oid_parts: list[np.ndarray] = []
        for page_id in range(store._next_id):
            if deadline is not None and page_id % 128 == 0:
                deadline.check()
            self.nm.stats.record(AccessKind.SEQUENTIAL_READ)
            try:
                node = self.nm.codec.decode(store.read(page_id, charge=False))
            except (PageCorruptionError, ValueError, KeyError):
                continue
            if isinstance(node, DataNode) and node.count:
                vec_parts.append(node.points().copy())
                oid_parts.append(node.live_oids().copy())
        if not vec_parts:
            return (
                np.empty((0, self.dims), dtype=np.float32),
                np.empty(0, dtype=np.int64),
            )
        return np.vstack(vec_parts), np.concatenate(oid_parts).astype(np.int64)

    # ------------------------------------------------------------------
    # Batch queries (repro.engine: one validated QueryBatch, one execute();
    # the per-kind helpers are this class's own attributes)
    # ------------------------------------------------------------------
    range_search_many = BatchQueries.range_search_many
    distance_range_many = BatchQueries.distance_range_many
    knn_many = BatchQueries.knn_many

    def execute(
        self, batch, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        """Run a checked :class:`~repro.engine.query.QueryBatch` in one
        shared traversal: bit-identical to looping the single-query
        methods, each node charged once for the whole batch.  ``timeout``
        (seconds or a :class:`~repro.resilience.Deadline`) bounds the wall
        clock; ``on_timeout="partial"`` returns a
        :class:`~repro.resilience.PartialResult` instead of raising.  See
        :func:`repro.engine.batch.dispatch`."""
        from repro.engine.batch import dispatch

        return dispatch(self, batch, return_metrics, timeout, on_timeout)

    # -- struct-of-arrays snapshot lifecycle ---------------------------
    @property
    def soa_snapshot(self):
        """The attached SOA snapshot, or None (see :mod:`repro.engine.soa`)."""
        return getattr(self, "_soa_snapshot", None)

    def compile_snapshot(self, force: bool = False):
        """Compile (and attach) a struct-of-arrays snapshot of this tree.

        While attached, the batch query methods run on the vectorized SOA
        kernel (bit-identical results); ``save()`` persists it as a
        checksummed section and ``open()`` re-attaches it.  Cached until
        :meth:`invalidate_snapshot`; ``force=True`` recompiles."""
        from repro.engine.soa import compile_snapshot

        snap = getattr(self, "_soa_snapshot", None)
        if snap is None or force:
            snap = compile_snapshot(self)
            self._soa_snapshot = snap
        return snap

    def invalidate_snapshot(self) -> None:
        """Drop the attached snapshot (every mutation calls this)."""
        self._soa_snapshot = None

    def session(
        self,
        pin_levels: int = 2,
        workers: int = 1,
        mode: str = "thread",
        timeout=None,
        on_timeout: str = "raise",
        admission=None,
    ):
        """Open a :class:`repro.engine.QuerySession` pinning the hot upper
        ``pin_levels`` directory levels (each page charged once).  With
        ``workers > 1`` the session's batch queries run on a
        :class:`repro.engine.ParallelQueryEngine` over this tree's saved
        file (requires the tree to come from ``save``/``open``).
        ``timeout``/``on_timeout`` set session-default deadline semantics;
        ``admission`` attaches a
        :class:`~repro.resilience.QueryAdmissionController`."""
        from repro.engine import QuerySession

        return QuerySession(
            self, pin_levels=pin_levels, workers=workers, mode=mode,
            timeout=timeout, on_timeout=on_timeout, admission=admission,
        )

    # ------------------------------------------------------------------
    # Traversal-kernel protocol (repro.engine.kernel)
    # ------------------------------------------------------------------
    def trav_root(self):
        return self.root_id, self.bounds

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, DataNode)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, region):
        from repro.engine.kernel import RectBound

        # The child's pruning bound is its ELS-quantized live-space box
        # clipped to the derived region — the same rect the single-query
        # paths test; the kd split tests are subsumed because the
        # effective rect is contained in every region along the kd path.
        return [
            (
                child_id,
                child_region,
                RectBound(self.els.effective_rect(child_id, child_region)),
            )
            for child_id, child_region in node.children_with_regions(region)
        ]

    def trav_degrade(self, exc: PageCorruptionError):
        return self._degrade(exc)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write the tree to a single crash-consistent page file.

        The file holds the node pages at their stable allocator ids,
        followed by blob pages (the in-memory ELS table — Section 3.4 keeps
        ELS out of the node pages — the free list, and the data-space
        bounds) and a trailing superblock: root page id, page count, tree
        parameters and a checksum-of-checksums over the node pages (see
        :mod:`repro.storage.superblock`).  Every page is framed with a
        whole-page CRC32.

        The whole image is written to a temporary sibling, fsynced, and
        published with one atomic ``os.replace`` — so saving a
        lazily-faulting reopened tree *over its own path* is safe (the file
        it still reads from is never modified in place) and a crash at any
        write boundary leaves either the previous save or the new one,
        never a mixture.
        """
        from repro.storage.serialization import HybridNodeCodec

        with self._commit_lock:
            self._save_locked(os.fspath(path), HybridNodeCodec)

    def _save_locked(self, path: str, HybridNodeCodec) -> None:
        codec = HybridNodeCodec(self.dims, self.data_capacity, self.layout.page_size)
        tmp_pages = path + ".tmp"
        if os.path.exists(tmp_pages):
            os.remove(tmp_pages)
        generation = 0
        try:
            old_manifest, _ = superblock_io.read_superblock(path)
            generation = int(old_manifest.get("generation", 0)) + 1
        except (FileNotFoundError, PageCorruptionError, ValueError, KeyError):
            pass
        with _save_store(tmp_pages, self.layout.page_size) as store:
            seen: set[int] = set()
            crc_by_id: dict[int, int] = {}
            stack = [self._root_id]
            while stack:
                node_id = stack.pop()
                if node_id in seen:
                    continue
                seen.add(node_id)
                store.ensure_allocated(node_id)  # keep page ids stable
                node = self.nm.get(node_id, charge=False)
                page = codec.encode(node)
                crc_by_id[node_id] = struct.unpack_from("<I", page, 16)[0]
                store.write(node_id, page)
                if isinstance(node, IndexNode):
                    stack.extend(node.child_ids())
            page_count = store._next_id
            # Freed pages are exactly the allocator ids no live node owns;
            # recompute from reachability so the persisted free list is
            # correct even if in-memory free-list state drifted.
            free_ids = [pid for pid in range(page_count) if pid not in seen]
            # Compiled SOA snapshot, if attached: written as *raw* whole
            # pages right after the node region (no per-page frames — the
            # section is one contiguous byte range so the mmap path can
            # np.frombuffer it zero-copy), guarded by a section CRC32 in
            # the manifest.  fsck knows the section via manifest["soa"];
            # everything else skips pages past the node region.
            soa_loc = None
            snap = getattr(self, "_soa_snapshot", None)
            if snap is not None and snap.array_only:
                from repro.engine.soa import (
                    SNAPSHOT_SECTION_VERSION,
                    serialize_snapshot,
                )

                payload = serialize_snapshot(snap)
                page_size = self.layout.page_size
                soa_start = store._next_id
                for off in range(0, len(payload), page_size):
                    pid = store._next_id
                    store.ensure_allocated(pid)
                    store.write(pid, payload[off : off + page_size], charge=False)
                soa_loc = {
                    "start": soa_start,
                    "pages": store._next_id - soa_start,
                    "bytes": len(payload),
                    "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
                    "version": SNAPSHOT_SECTION_VERSION,
                }
            manifest = {
                "format": superblock_io.SUPERBLOCK_FORMAT,
                "generation": generation,
                "page_size": self.layout.page_size,
                "page_count": page_count,
                "dims": self.dims,
                "min_fill": self.min_fill,
                "split_policy": self.split_policy,
                "split_position": self.split_position,
                "els_bits": self.els.bits,
                "expected_query_side": self.expected_query_side,
                "root_id": self._root_id,
                "height": self._height,
                "count": self._count,
                "checksum_of_checksums": superblock_io.checksum_of_checksums(
                    [crc_by_id.get(pid, 0) for pid in range(page_count)]
                ),
            }
            if soa_loc is not None:
                manifest["soa"] = soa_loc
            superblock_io.append_tail(
                store, manifest, {"els": self._els_blob(free_ids)}
            )
            store.flush()
        os.replace(tmp_pages, path)
        self._fsync_dir(path)
        self.source_path = os.path.abspath(path)
        self.modified_since_save = False
        self.generation = generation
        if self.wal is not None:
            # The published file now contains everything the log did: empty
            # the log and re-pin it to the new generation (moving it when
            # the tree was saved to a different path).  A crash before this
            # line leaves a stale-generation log that replay ignores.
            self.wal.reset(generation, wal_io.wal_path_for(path))

    def _els_blob(self, free_ids: list[int]) -> bytes:
        """Serialize the ELS table, free list and bounds into one npz blob."""
        entries = self.els.items()
        node_ids = np.array([node_id for node_id, _ in entries], dtype=np.int64)
        lows = (
            np.array([live.low for _, live in entries])
            if entries
            else np.empty((0, self.dims))
        )
        highs = (
            np.array([live.high for _, live in entries])
            if entries
            else np.empty((0, self.dims))
        )
        buf = io.BytesIO()
        np.savez(
            buf,
            node_ids=node_ids,
            lows=lows,
            highs=highs,
            free_ids=np.asarray(free_ids, dtype=np.int64),
            bounds_low=self.bounds.low,
            bounds_high=self.bounds.high,
        )
        return buf.getvalue()

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Make the rename durable (best effort on non-POSIX platforms)."""
        parent = os.path.dirname(os.path.abspath(path)) or "."
        try:
            dfd = os.open(parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        stats: IOStats | None = None,
        buffer_pages: int | None = None,
        on_corruption: str = "raise",
        mmap: bool = False,
        wal: bool = False,
    ) -> "HybridTree":
        """Reopen a saved tree; nodes fault in lazily from the page file.

        ``buffer_pages`` bounds the in-memory node cache (LRU, write-back):
        hits are then free, misses re-read and re-decode real pages — the
        behaviour of a disk-resident index under a fixed buffer pool.  The
        default (``None``) caches every touched node and charges one access
        per visit, the paper's cold-query accounting.

        Every page read verifies the page's frame (magic + CRC32) and
        raises :class:`PageCorruptionError` on mismatch; ``on_corruption``
        selects the query-time response (``"raise"`` or ``"scan"``).  The
        file itself is opened copy-on-write: all mutations stay in memory
        until the next ``save()``, so the published file can never be
        half-updated by a crash mid-session.

        ``mmap=True`` opens the **zero-copy read-only** path instead: the
        file is fsck'd once (every page CRC, reachability, the superblock's
        checksum-of-checksums), then mapped with
        :class:`~repro.storage.mmapstore.MmapPageStore` and decoded with
        ``HybridNodeCodec(copy=False, verify_checksums=False)`` — data-node
        vectors are read-only views over the OS page cache, steady-state
        reads pay no checksum and no copy.  The tree is strictly read-only:
        mutations raise :class:`~repro.core.nodes.FrozenNodeError` /
        :class:`~repro.storage.errors.ReadOnlyStoreError`.  The integrity
        contract assumes the file is not modified in place while mapped —
        which ``save()`` never does (atomic rename).

        **WAL replay** happens on *every* open: if a sidecar ``<path>.wal``
        exists and is pinned to this file's generation, its complete
        transactions are replayed into the (in-memory) overlay before the
        tree is returned, so any opener — including parallel-engine
        workers — sees the state as of the last durable commit.  Torn or
        uncommitted log tails are discarded, giving old-or-new recovery at
        transaction granularity.  ``wal=True`` additionally attaches a
        :class:`~repro.storage.wal.WriteAheadLog` so subsequent mutations
        are logged and group-committed, concurrent readers can pin
        snapshots (:meth:`snapshot_view`), and :meth:`checkpoint` folds
        the log back into the file; incompatible with ``mmap=True``.
        """
        from repro.storage.serialization import HybridNodeCodec

        if wal and mmap:
            raise ValueError("wal=True needs the writable open path (mmap=False)")
        path = os.fspath(path)
        manifest, page_size = superblock_io.read_superblock(path)
        generation = int(manifest.get("generation", 0))
        scan = wal_io.usable_scan(path, generation)
        replay = scan is not None and scan.transactions > 0
        blob = np.load(
            io.BytesIO(superblock_io.read_blob(path, manifest, "els", page_size))
        )
        tree = cls.__new__(cls)
        tree.dims = int(manifest["dims"])
        tree.layout = PageLayout(page_size=page_size)
        tree.data_capacity = data_node_capacity(tree.dims, tree.layout)
        tree.index_capacity = kdtree_node_capacity(tree.dims, tree.layout)
        tree.min_fill = manifest["min_fill"]
        tree.split_policy = manifest["split_policy"]
        tree.split_position = manifest["split_position"]
        tree.expected_query_side = manifest["expected_query_side"]
        tree.bounds = Rect(blob["bounds_low"], blob["bounds_high"])
        if on_corruption not in ON_CORRUPTION_POLICIES:
            raise ValueError(f"on_corruption must be one of {ON_CORRUPTION_POLICIES}")
        tree.on_corruption = on_corruption
        tree.degraded_queries = 0
        tree.source_path = os.path.abspath(path)
        tree.read_only = mmap
        tree.modified_since_save = False
        mmap_store = None
        if mmap:
            from repro.storage.mmapstore import MmapPageStore

            # The whole-file audit happens here (verify="fsck"); the codec
            # below can then skip per-decode CRCs and hand out views.
            mmap_store = MmapPageStore(path, page_size, stats=stats, verify="fsck")
            # With committed WAL transactions to replay, the mapping alone
            # is stale: wrap it in an in-memory overlay to hold the
            # replayed pages (still strictly read-only from the outside).
            store: PageStore = (
                OverlayPageStore(mmap_store) if replay else mmap_store
            )
            codec = HybridNodeCodec(
                tree.dims,
                tree.data_capacity,
                page_size,
                copy=False,
                verify_checksums=False,
            )
        else:
            base = FilePageStore(path, page_size, stats=stats, checksums=True)
            store = VersionedOverlayStore(base) if wal else OverlayPageStore(base)
            codec = HybridNodeCodec(tree.dims, tree.data_capacity, page_size)
        store.set_allocator_state(
            int(manifest["page_count"]), [int(pid) for pid in blob["free_ids"]]
        )
        tree.nm = NodeManager(
            store=store, codec=codec, stats=stats, max_cached=buffer_pages
        )
        tree.els = ELSTable(tree.dims, int(manifest["els_bits"]))
        for node_id, low, high in zip(blob["node_ids"], blob["lows"], blob["highs"]):
            tree.els.set(int(node_id), Rect(low, high))
        tree._root_id = int(manifest["root_id"])
        tree._height = int(manifest["height"])
        tree._count = int(manifest["count"])
        tree._init_wal_state()
        tree.generation = generation
        if replay:
            meta = wal_io.apply_scan(scan, store, page_size)
            tree._apply_replay_meta(meta, store)
            tree.wal_replayed_transactions = scan.transactions
            # The persisted SOA snapshot predates the replayed mutations.
            tree._soa_snapshot = None
            tree._soa_load_error = (
                f"stale after WAL replay of {scan.transactions} transaction(s)"
                if manifest.get("soa") is not None
                else None
            )
        else:
            tree._attach_saved_snapshot(manifest, page_size, mmap_store)
        if wal:
            tree.wal = wal_io.WriteAheadLog(
                wal_io.wal_path_for(path), page_size, generation
            )
        return tree

    def _apply_replay_meta(self, meta: dict, store: PageStore) -> None:
        """Install the merged commit metadata :func:`repro.storage.wal.apply_scan`
        returned: final count/root/height/bounds, the accumulated ELS delta,
        and the allocator state after the last committed transaction."""
        if "count" in meta:
            self._count = int(meta["count"])
        if "root_id" in meta:
            self._root_id = int(meta["root_id"])
        if "height" in meta:
            self._height = int(meta["height"])
        if "bounds" in meta:
            low, high = meta["bounds"]
            self.bounds = Rect(
                np.asarray(low, dtype=np.float64), np.asarray(high, dtype=np.float64)
            )
        for key, val in meta.get("els", {}).items():
            node_id = int(key)
            if val is None:
                self.els.drop(node_id)
            else:
                self.els.set(
                    node_id,
                    Rect(
                        np.asarray(val[0], dtype=np.float64),
                        np.asarray(val[1], dtype=np.float64),
                    ),
                )
        if "next_id" in meta:
            store.set_allocator_state(
                int(meta["next_id"]), [int(p) for p in meta.get("free_ids", [])]
            )

    def _attach_saved_snapshot(
        self, manifest: dict, page_size: int, mmap_store
    ) -> None:
        """Re-attach the persisted SOA snapshot, if the file carries one.

        Zero-copy over the store's mapping on the mmap path, a single read
        otherwise.  Any integrity problem (CRC mismatch, truncation,
        unparseable section) *degrades* — the tree opens fine and queries
        run on the object-walk kernel; the reason is kept in
        ``_soa_load_error`` and ``repro fsck`` reports it.
        """
        self._soa_load_error: str | None = None
        loc = manifest.get("soa")
        if loc is None:
            return
        from repro.engine.soa import deserialize_snapshot
        from repro.engine.soa.persist import SnapshotFormatError

        try:
            start = int(loc["start"]) * page_size
            nbytes = int(loc["bytes"])
            if mmap_store is not None:
                section = mmap_store._view[start : start + nbytes]
            else:
                with open(self.source_path, "rb") as f:
                    f.seek(start)
                    section = f.read(nbytes)
            if len(section) != nbytes:
                raise SnapshotFormatError("snapshot section truncated")
            if zlib.crc32(section) & 0xFFFFFFFF != int(loc["crc32"]):
                raise SnapshotFormatError("snapshot section CRC mismatch")
            self._soa_snapshot = deserialize_snapshot(section)
        except (SnapshotFormatError, KeyError, ValueError, OSError) as exc:
            self._soa_load_error = str(exc)

    def close(self) -> None:
        """Release the backing store (file handle / mmap), if it has one.

        Safe on any tree; in-memory stores are a no-op.  Zero-copy node
        views handed out by an mmap-opened tree keep the mapping alive
        until they are garbage-collected (see
        :meth:`~repro.storage.mmapstore.MmapPageStore.close`).
        """
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        close = getattr(self.nm.store, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # Maintenance / verification
    # ------------------------------------------------------------------
    def rebuild_els(self) -> None:
        """Recompute every live-space box exactly (tightens stale entries)."""

        def rebuild(node_id: int) -> Rect | None:
            node = self.nm.get(node_id, charge=False)
            if isinstance(node, DataNode):
                if node.count == 0:
                    self.els.drop(node_id)
                    return None
                live = node.live_rect()
            else:
                child_rects = [rebuild(c) for c in node.child_ids()]
                child_rects = [r for r in child_rects if r is not None]
                if not child_rects:
                    self.els.drop(node_id)
                    return None
                live = Rect.merge_all(child_rects)
            self.els.set(node_id, live)
            return live

        rebuild(self._root_id)

    def validate(self) -> None:
        """Assert every structural invariant; raises ``AssertionError``.

        Checked: height balance, capacity and utilization bounds, kd-tree
        well-formedness (``lsp >= rsp``, in-region positions), points inside
        their region chain, ELS boxes between live space and region, entry
        count bookkeeping.
        """
        min_entries = max(1, int(np.floor(self.min_fill * self.data_capacity)))
        total = 0
        leaf_depths: set[int] = set()

        def check(node_id: int, region: Rect, depth: int, is_root: bool) -> None:
            nonlocal total
            node = self.nm.get(node_id, charge=False)
            if isinstance(node, DataNode):
                leaf_depths.add(depth)
                total += node.count
                assert node.count <= self.data_capacity
                if not is_root:
                    assert node.count >= min_entries, (
                        f"data node {node_id} under-utilised: {node.count}"
                    )
                if node.count:
                    points = node.points().astype(np.float64)
                    assert np.all(points >= region.low - 1e-9) and np.all(
                        points <= region.high + 1e-9
                    ), f"points escape region of node {node_id}"
                    live = self.els.get(node_id)
                    if live is not None and self.els.enabled:
                        box = node.live_rect()
                        assert np.all(live.low <= box.low + 1e-9)
                        assert np.all(live.high >= box.high - 1e-9)
                return
            assert 2 <= node.fanout <= self.index_capacity, (
                f"index node {node_id} fanout {node.fanout}"
            )
            kdnodes.validate_kdtree(node.kd_root, region)
            for child_id, child_region in node.children_with_regions(region):
                child = self.nm.get(child_id, charge=False)
                child_level = child.level if isinstance(child, IndexNode) else 0
                assert child_level == node.level - 1, "level mismatch"
                check(child_id, child_region, depth + 1, False)

        check(self._root_id, self.bounds, 0, True)
        assert len(leaf_depths) == 1, f"unbalanced leaf depths: {leaf_depths}"
        assert total == self._count, f"count mismatch: {total} != {self._count}"
