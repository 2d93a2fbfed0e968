"""Compile a ``trav_*`` index into a flat struct-of-arrays snapshot.

:func:`compile_snapshot` performs one DFS pre-order walk over the traversal
protocol (:mod:`repro.engine.kernel`) and emits a :class:`SOASnapshot`:

- **node arrays**, one row per node in DFS pre-order;
- **CSR child offsets**: the edges of node ``i`` are rows
  ``child_start[i] : child_start[i + 1]`` of the edge arrays, in the
  structure's canonical ``trav_children`` order;
- **per-edge box rows**: the concatenation of every node's
  ``trav_children`` :class:`~repro.engine.kernel.RectBlock` — one box per
  child edge, the bound box queries and metric bounds both test;
- **concatenated leaf data**: all live leaf vectors in one ``float32``
  array and their oids beside it, each leaf holding the slice
  ``leaf_start[i] : leaf_end[i]``.

Node ids are DFS pre-order ranks, so sorting leaf hits by node id
reproduces the object-walk kernel's output order exactly — that is what
lets the vectorized kernel return bit-identical results without actually
recursing.

Only box-bounded trees compile: the hybrid, R, X and kd-B trees, whose
children are plain ``RectBlock`` rows.  The hB-tree (a second set of
region rows, and pages shared between kd paths) and the sphere-bounded
SS, SR and M-trees (``EdgeBlock`` bound objects) run every batch on the
object kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distances import round_out_f32
from repro.engine.kernel import BlockRows, RectBlock

__all__ = ["SOASnapshot", "active_snapshot", "compile_snapshot"]


@dataclass
class SOASnapshot:
    """A compiled index: the directory and leaf data as contiguous arrays."""

    dims: int
    # Node arrays (one row per DFS pre-order node).
    node_ref: np.ndarray  # int64 (N,)   original page id
    node_is_leaf: np.ndarray  # bool (N,)
    node_pages: np.ndarray  # int32 (N,)  pages charged per visit (supernodes > 1)
    child_start: np.ndarray  # int64 (N+1,) CSR offsets into the edge arrays
    leaf_start: np.ndarray  # int64 (N,)  slice into points/oids (0:0 if internal)
    leaf_end: np.ndarray  # int64 (N,)
    # Edge arrays (one row per child edge).
    edge_child: np.ndarray  # int64 (E,)  target node id
    box_low: np.ndarray  # float64 (E, d)
    box_high: np.ndarray  # float64 (E, d)
    # Concatenated leaf data.
    points: np.ndarray  # float32 (P, d)
    oids: np.ndarray  # int64 (P,)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ref)

    @property
    def n_edges(self) -> int:
        return len(self.edge_child)

    @property
    def n_points(self) -> int:
        return len(self.oids)

    def dist_boxes32(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge boxes rounded outward to float32
        (:func:`~repro.distances.round_out_f32`), built lazily on the first
        distance batch and cached: the operands of the frontier's float32
        stage.  A refresh builds a new snapshot, which rebuilds them."""
        cached = getattr(self, "_dist_boxes32", None)
        if cached is None:
            cached = self._dist_boxes32 = round_out_f32(self.box_low, self.box_high)
        return cached

    def leaf_sort0(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf sort of the points by dimension 0, built lazily.

        Returns ``(perm, scol)``: for every leaf slice ``[s, e)``,
        ``perm[s:e]`` holds the global point rows of that leaf ordered by
        their first coordinate and ``scol[s:e]`` the coordinates in that
        order (float64, the exact upcast the comparisons run in).  The
        kernel turns a query's dim-0 window into a rank interval with two
        binary searches instead of comparing every point.
        """
        cached = getattr(self, "_leaf_sort0", None)
        if cached is not None:
            return cached
        perm = np.arange(self.n_points, dtype=np.int64)
        scol = (
            self.points[:, 0].astype(np.float64)
            if self.points.shape[1]
            else np.empty(0)
        )
        leaf = self.node_is_leaf
        for s, e in zip(self.leaf_start[leaf].tolist(), self.leaf_end[leaf].tolist()):
            order = np.argsort(self.points[s:e, 0], kind="stable")
            perm[s:e] = s + order
            scol[s:e] = scol[s:e][order]
        self._leaf_sort0 = (perm, scol)
        return self._leaf_sort0


def active_snapshot(index) -> SOASnapshot | None:
    """The snapshot attached to ``index``, or None (absent / invalidated)."""
    return getattr(index, "_soa_snapshot", None)


def compile_snapshot(index) -> SOASnapshot:
    """Walk ``index`` through the ``trav_*`` protocol and pack it flat.

    The walk is iterative (no recursion limit), charges no I/O
    (``trav_node(ref, charge=False)``, like every maintenance traversal),
    and leaves the index untouched.  Raises ``TypeError`` for indexes that
    do not implement the traversal protocol (VA-file, sequential scan) and
    for those whose children are not bounded by plain boxes (hB, SS, SR
    and M-trees).
    """
    if not hasattr(index, "trav_root"):
        raise TypeError(
            f"{type(index).__name__} does not implement the trav_* protocol; "
            "only traversable indexes can be compiled"
        )
    dims = index.dims
    pages_of = getattr(index, "trav_node_pages", None)

    node_ref: list[int] = []
    node_is_leaf: list[bool] = []
    node_pages: list[int] = []
    child_start: list[int] = [0]
    leaf_start: list[int] = []
    leaf_end: list[int] = []
    edge_child: list[int] = []
    edges = BlockRows()

    vec_parts: list[np.ndarray] = []
    oid_parts: list[np.ndarray] = []
    n_pts = 0

    root_ref, root_ctx = index.trav_root()
    # Stack entries: (ref, ctx, edge index to patch with this node's id).
    stack: list[tuple] = [(root_ref, root_ctx, None)]
    while stack:
        ref, ctx, patch = stack.pop()
        nid = len(node_ref)
        if patch is not None:
            edge_child[patch] = nid
        node = index.trav_node(ref, charge=False)
        node_ref.append(ref)
        node_pages.append(int(pages_of(ref)) if pages_of is not None else 1)
        if index.trav_is_leaf(node):
            node_is_leaf.append(True)
            pts, oids = index.trav_leaf_points(node)
            if len(pts):
                # Copy: leaf views may alias a node cache or an mmap.
                vec_parts.append(np.array(pts, dtype=np.float32, copy=True))
                oid_parts.append(np.array(oids, dtype=np.int64, copy=True))
            leaf_start.append(n_pts)
            n_pts += len(pts)
            leaf_end.append(n_pts)
            child_start.append(len(edge_child))
            continue
        node_is_leaf.append(False)
        leaf_start.append(0)
        leaf_end.append(0)
        kids = index.trav_children(node, ctx)
        if type(kids.bounds) is not RectBlock or kids.bounds.dist is not None:
            raise TypeError(
                f"{type(index).__name__} bounds its children with "
                f"{type(kids.bounds).__name__} rows that are not plain boxes; "
                "only box-bounded trees (hybrid, R, X, kd-B) can be compiled"
            )
        first_edge = len(edge_child)
        edges.extend(kids.bounds)
        edge_child.extend([-1] * len(kids.refs))
        child_start.append(len(edge_child))
        # Push in reverse so pops happen in trav_children order (DFS
        # pre-order, the object kernel's visit order).
        for offset in range(len(kids.refs) - 1, -1, -1):
            stack.append((kids.refs[offset], kids.ctxs[offset], first_edge + offset))

    block = edges.block()
    if block is None:  # a single-leaf tree has no edges
        box_low = box_high = np.empty((0, dims))
    else:
        # The table's buffers grow by doubling: keep copies sized to the rows.
        box_low, box_high = block.low.copy(), block.high.copy()

    if vec_parts:
        points = np.concatenate(vec_parts, axis=0)
        oids = np.concatenate(oid_parts)
    else:
        points = np.empty((0, dims), dtype=np.float32)
        oids = np.empty(0, dtype=np.int64)

    return SOASnapshot(
        dims=dims,
        node_ref=np.asarray(node_ref, dtype=np.int64),
        node_is_leaf=np.asarray(node_is_leaf, dtype=bool),
        node_pages=np.asarray(node_pages, dtype=np.int32),
        child_start=np.asarray(child_start, dtype=np.int64),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_end=np.asarray(leaf_end, dtype=np.int64),
        edge_child=np.asarray(edge_child, dtype=np.int64),
        box_low=box_low,
        box_high=box_high,
        points=points,
        oids=oids,
    )
