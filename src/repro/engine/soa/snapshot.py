"""Compile a ``trav_*`` index into a flat struct-of-arrays snapshot.

:func:`compile_snapshot` performs one DFS pre-order walk over the traversal
protocol (:mod:`repro.engine.kernel`) and emits a :class:`SOASnapshot`:

- **node arrays**, one row per *occurrence* in the walk (for dedup
  structures like the hB-tree a shared page yields one row per kd-path
  posting, all carrying the same ``node_ref``);
- **CSR child offsets**: the edges of occurrence ``i`` are rows
  ``child_start[i] : child_start[i + 1]`` of the edge arrays, in the
  structure's canonical ``trav_children`` order;
- **per-edge bound rows**: the concatenation of every node's
  ``trav_children`` bound block (:mod:`repro.engine.kernel`) — box rows
  for the hybrid/R/X/kd-B trees (kind ``rect``), path-rect plus region
  rows for the hB-tree (``rect2``), and the ``ChildBound`` objects of the
  sphere-bounded SS/SR/M-trees (``edges``);
- **concatenated leaf data**: all live leaf vectors in one ``float32``
  array and their oids beside it, each leaf occurrence holding a slice
  ``leaf_start[i] : leaf_end[i]`` (occurrences of the same page share one
  slice).

Occurrence ids are DFS pre-order ranks, so sorting leaf hits by occurrence
id reproduces the object-walk kernel's output order exactly — that is what
lets the vectorized kernel return bit-identical results without actually
recursing.

For the sphere-bounded structures the snapshot keeps the original
:class:`~repro.engine.kernel.ChildBound` objects (``edge_bounds``): their
scalar sphere tests reduce a 1-d vector through BLAS ``dot``
(``np.linalg.norm``), whose summation order differs from an axis
reduction, so the kernel evaluates those bounds through the original
objects — grouped per edge — to stay bitwise identical to the object walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distances import round_out_f32
from repro.engine.kernel import BlockRows, EdgeBlock, RectBlock

__all__ = ["SOASnapshot", "active_snapshot", "compile_snapshot"]

#: Geometry kinds a snapshot's edges can carry.
BOUND_KINDS = ("rect", "rect2", "edges")

#: Kinds whose pruning predicates are pure array math over the packed
#: arrays — these snapshots can be persisted and reloaded without the
#: original index objects.  ``edges`` needs ``edge_bounds``.
ARRAY_ONLY_KINDS = ("rect", "rect2")


@dataclass
class SOASnapshot:
    """A compiled index: the directory and leaf data as contiguous arrays."""

    kind: str
    dims: int
    dedup: bool
    supports_box: bool
    # Node arrays (one row per DFS pre-order occurrence).
    node_ref: np.ndarray  # int64 (N,)   original page id (charging, dedup)
    node_is_leaf: np.ndarray  # bool (N,)
    node_pages: np.ndarray  # int32 (N,)  pages charged per visit (supernodes > 1)
    child_start: np.ndarray  # int64 (N+1,) CSR offsets into the edge arrays
    leaf_start: np.ndarray  # int64 (N,)  slice into points/oids (0:0 if internal)
    leaf_end: np.ndarray  # int64 (N,)
    # Edge arrays (one row per child edge).
    edge_child: np.ndarray  # int64 (E,)  target occurrence id
    box_low: np.ndarray | None = None  # float64 (E, d)  rect / path-rect lows
    box_high: np.ndarray | None = None  # float64 (E, d)
    dist_low: np.ndarray | None = None  # float64 (E, d)  rect2: region for mindist
    dist_high: np.ndarray | None = None  # float64 (E, d)
    # Concatenated leaf data.
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    oids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    # Original ChildBound objects, required by the ``edges`` kind (see
    # module docstring); never persisted.
    edge_bounds: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ref)

    @property
    def n_edges(self) -> int:
        return len(self.edge_child)

    @property
    def n_points(self) -> int:
        return len(self.oids)

    @property
    def array_only(self) -> bool:
        """True when the kernel needs no ``edge_bounds`` objects — the
        precondition for persisting the snapshot."""
        return self.kind in ARRAY_ONLY_KINDS

    def bound_block(self) -> RectBlock | EdgeBlock:
        """Every edge's bound as one bound block of the object kernel
        (:mod:`repro.engine.kernel`): the same rows, the same float
        operations."""
        if self.kind == "edges":
            return EdgeBlock(self.edge_bounds)
        return RectBlock(self.box_low, self.box_high, self.dist_low, self.dist_high)

    def dist_boxes32(self) -> tuple[np.ndarray, np.ndarray]:
        """The boxes metric bounds are taken from (the region rows of a
        ``rect2`` snapshot, the box rows otherwise) rounded outward to float32
        (:func:`~repro.distances.round_out_f32`), built lazily on the first
        distance batch and cached: the operands of the frontier's float32
        stage.  A refresh builds a new snapshot, which rebuilds them."""
        cached = getattr(self, "_dist_boxes32", None)
        if cached is None:
            cached = self._dist_boxes32 = round_out_f32(*self.bound_block().dist_boxes())
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
        ls = self.leaf_start[self.node_is_leaf]
        le = self.leaf_end[self.node_is_leaf]
        # Occurrences sharing a ref share the slice, so each distinct
        # start is sorted once.
        starts, first = np.unique(ls, return_index=True)
        for s, e in zip(starts, le[first]):
            seg = slice(int(s), int(e))
            order = np.argsort(self.points[seg, 0], kind="stable")
            perm[seg] = int(s) + order
            scol[seg] = scol[seg][order]
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
    do not implement the traversal protocol (VA-file, sequential scan).
    """
    if not hasattr(index, "trav_root"):
        raise TypeError(
            f"{type(index).__name__} does not implement the trav_* protocol; "
            "only traversable indexes can be compiled"
        )
    dims = index.dims
    dedup = bool(getattr(index, "trav_dedup", False))
    supports_box = bool(getattr(index, "trav_supports_box", True))
    pages_of = getattr(index, "trav_node_pages", None)

    node_ref: list[int] = []
    node_is_leaf: list[bool] = []
    node_pages: list[int] = []
    child_start: list[int] = [0]
    leaf_start: list[int] = []
    leaf_end: list[int] = []
    edge_child: list[int] = []
    edges = BlockRows()

    # Leaf slices are shared between occurrences of the same page.
    leaf_slices: dict[int, tuple[int, int]] = {}
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
            slc = leaf_slices.get(ref)
            if slc is None:
                pts, oids = index.trav_leaf_points(node)
                if len(pts):
                    # Copy: leaf views may alias a node cache or an mmap.
                    vec_parts.append(np.array(pts, dtype=np.float32, copy=True))
                    oid_parts.append(np.array(oids, dtype=np.int64, copy=True))
                slc = (n_pts, n_pts + len(pts))
                n_pts += len(pts)
                leaf_slices[ref] = slc
            leaf_start.append(slc[0])
            leaf_end.append(slc[1])
            child_start.append(len(edge_child))
            continue
        node_is_leaf.append(False)
        leaf_start.append(0)
        leaf_end.append(0)
        kids = index.trav_children(node, ctx)
        first_edge = len(edge_child)
        edges.extend(kids.bounds)
        edge_child.extend([-1] * len(kids.refs))
        child_start.append(len(edge_child))
        # Push in reverse so pops happen in trav_children order (DFS
        # pre-order, the object kernel's visit order).
        for offset in range(len(kids.refs) - 1, -1, -1):
            stack.append((kids.refs[offset], kids.ctxs[offset], first_edge + offset))

    block = edges.block()
    if block is None:  # a single-leaf tree has no edges; any kind fits
        empty = np.empty((0, dims))
        block = RectBlock(empty, empty)
    # The table's buffers grow by doubling: keep copies sized to the rows.
    block = type(block)(*(part.copy() for part in block.parts()))
    box_low = box_high = dist_low = dist_high = edge_bounds = None
    if isinstance(block, RectBlock):
        box_low, box_high = block.low, block.high
        kind = "rect" if block.dist is None else "rect2"
        if block.dist is not None:
            dist_low, dist_high = block.dist
    else:
        kind, edge_bounds = "edges", block.bounds

    if vec_parts:
        points = np.concatenate(vec_parts, axis=0)
        oids = np.concatenate(oid_parts)
    else:
        points = np.empty((0, dims), dtype=np.float32)
        oids = np.empty(0, dtype=np.int64)

    return SOASnapshot(
        kind=kind,
        dims=dims,
        dedup=dedup,
        supports_box=supports_box,
        node_ref=np.asarray(node_ref, dtype=np.int64),
        node_is_leaf=np.asarray(node_is_leaf, dtype=bool),
        node_pages=np.asarray(node_pages, dtype=np.int32),
        child_start=np.asarray(child_start, dtype=np.int64),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_end=np.asarray(leaf_end, dtype=np.int64),
        edge_child=np.asarray(edge_child, dtype=np.int64),
        box_low=box_low,
        box_high=box_high,
        dist_low=dist_low,
        dist_high=dist_high,
        points=points,
        oids=oids,
        edge_bounds=edge_bounds,
    )
