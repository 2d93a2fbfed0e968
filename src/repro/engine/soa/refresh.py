"""Keep a hybrid tree's SOA snapshot current through inserts and deletes.

A write round touches a few pages of a tree with thousands, yet a full
:func:`~repro.engine.soa.snapshot.compile_snapshot` re-derives every edge
box (``ELSTable.effective_boxes`` over every child edge) and re-copies
every leaf.  :class:`SnapshotRefresher` rebuilds the snapshot from the
previous one instead, re-deriving only the rows whose inputs changed:

- the leaf rows of pages written since the last refresh (the node
  manager's ``journal`` of :meth:`NodeManager.put` ids; freed pages are
  simply no longer reachable);
- the edge boxes whose child's ELS entry changed (the ELS table's
  ``journal``);
- the edge boxes whose child region changed: the children of a written
  index page, of a page whose own region changed, and of the root when
  ``tree.bounds`` grew.

Everything else is gathered from the previous snapshot's arrays.  The
new DFS pre-order is computed level by level with array arithmetic
(subtree sizes bottom-up, ranks top-down), so Python work scales with the
pages a round touched, not with the tree; the gathers that lay the arrays
out in the new order are flat numpy copies.  The result equals a
from-scratch ``compile_snapshot`` array for array, including the lazily
built ``leaf_sort0`` cache, which is carried over for unchanged rows
when the previous snapshot had it.  The float32 distance boxes
(``SOASnapshot.dist_boxes32``) are not carried over: one outward-rounding
pass rebuilds them on the next distance batch.

The reuse state (:class:`_Reuse`) is a few flat arrays beside the
snapshot: the occurrence of every page id, the edge into every
occurrence, each edge's child region, and the root region they were
derived from.  Without it (:meth:`SnapshotRefresher.discard`, or a
snapshot loaded from a file) every page counts as changed, which makes
the refresh a full compile.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.kdnodes import leaf_region_arrays
from repro.engine.bestfirst import Growing, concat_ranges
from repro.engine.soa.snapshot import SOASnapshot
from repro.geometry.rect import Rect

__all__ = ["SnapshotRefresher"]


@dataclass
class _Reuse:
    """What one refresh leaves for the next: its snapshot and where every
    page and region sits in it."""

    snap: SOASnapshot
    occ_of: np.ndarray  # int64 (max page id + 1,)  page -> occurrence, -1 if absent
    in_edge: np.ndarray  # int64 (N,)  occurrence -> edge into it, -1 for the root
    reg_low: np.ndarray  # float64 (E, d)  each edge's child region
    reg_high: np.ndarray
    bounds: Rect | None  # the root region

    @classmethod
    def empty(cls, dims: int) -> "_Reuse":
        """No previous snapshot: every page is new."""
        i64, rows = np.empty(0, dtype=np.int64), np.empty((0, dims))
        snap = SOASnapshot(
            dims=dims, node_ref=i64, node_is_leaf=np.empty(0, dtype=bool),
            node_pages=np.empty(0, dtype=np.int32), child_start=np.zeros(1, dtype=np.int64),
            leaf_start=i64, leaf_end=i64, edge_child=i64, box_low=rows, box_high=rows,
            points=np.empty((0, dims), dtype=np.float32), oids=i64,
        )
        return cls(snap, i64, i64, rows, rows, None)

    def occ(self, pages: np.ndarray) -> np.ndarray:
        """Previous occurrence of each page id (-1 when it had none)."""
        occ = np.full(len(pages), -1, dtype=np.int64)
        known = pages < len(self.occ_of)
        occ[known] = self.occ_of[pages[known]]
        return occ

    def regions_changed(self, occ: np.ndarray, low: np.ndarray, high: np.ndarray):
        """Per page: whether its region rows ``low``/``high`` differ from
        its previous region (True for pages with no previous occurrence)."""
        changed = occ < 0
        known = np.flatnonzero(~changed)
        if known.size:
            o = occ[known]
            old_low, old_high = np.empty((2, len(o), low.shape[1]))
            # Occurrence 0 was the root, whose region was the data space.
            root = o == 0
            old_low[root], old_high[root] = self.bounds.low, self.bounds.high
            e = self.in_edge[o[~root]]
            old_low[~root], old_high[~root] = self.reg_low[e], self.reg_high[e]
            same = np.all(old_low == low[known], axis=1) & np.all(old_high == high[known], axis=1)
            changed[known] = ~same
        return changed


class SnapshotRefresher:
    """Keeps a hybrid tree's snapshot alive through writes.

    Construction switches on the node manager's and ELS table's change
    journals; every :meth:`refresh` builds a current :class:`SOASnapshot`
    from the previous one plus what the journals recorded since.
    """

    def __init__(self, tree):
        # The tree owns its refresher: a strong reference back would make
        # a cycle, and a dropped tree (its pages and snapshot) would wait
        # for the cyclic garbage collector.
        self._tree = weakref.ref(tree)
        self.reuse: _Reuse | None = None
        tree.nm.journal = set()
        tree.els.journal = set()

    @property
    def tree(self):
        return self._tree()

    def discard(self) -> None:
        """Forget the previous snapshot: the next refresh is a full build."""
        self.reuse = None

    def detach(self) -> None:
        """Stop journaling (the tree no longer keeps a snapshot)."""
        self.reuse = None
        self.tree.nm.journal = None
        self.tree.els.journal = None

    def refresh(self) -> SOASnapshot:
        """A snapshot of the tree as it is now (see the module docstring)."""
        tree = self.tree
        written, tree.nm.journal = tree.nm.journal, set()
        touched, tree.els.journal = tree.els.journal, set()
        prev = self.reuse if self.reuse is not None else _Reuse.empty(tree.dims)
        self.reuse = _Pass(tree, prev, written, touched).run()
        return self.reuse.snap


class _Level(NamedTuple):
    """One tree level in BFS order: page ids, where each page's region
    comes from (see :meth:`_Pass._region`), and whether it changed."""

    pages: np.ndarray
    region: np.ndarray
    reg_changed: np.ndarray


class _Expansion(NamedTuple):
    """One level's pages classified, and their child edges in order."""

    leaf: np.ndarray
    row_src: np.ndarray  # first leaf row: previous row, or n_old_rows + fresh row
    row_n: np.ndarray
    parent: np.ndarray  # per child edge: its parent's BFS node index
    box_src: np.ndarray  # per child edge: previous edge, or n_old_edges + fresh box
    child: _Level


class _Pass:
    """One refresh: the previous reuse state plus the journals in, a new
    :class:`_Reuse` out.

    Rows that must be re-derived go into *fresh* buffers; a source index
    below ``n_old_edges`` (``n_old_rows``) names a row of the previous
    arrays, one at or above it a fresh row.
    """

    def __init__(self, tree, prev: _Reuse, written: set, touched: set):
        self.tree, self.prev = tree, prev
        self.written, self.touched = _id_mask(written), _id_mask(touched)
        dims = tree.dims
        self.n_old_edges, self.n_old_rows = prev.snap.n_edges, prev.snap.n_points
        self.fresh_low, self.fresh_high = Growing(np.float64, dims), Growing(np.float64, dims)
        self.fresh_reg_low = Growing(np.float64, dims)
        self.fresh_reg_high = Growing(np.float64, dims)
        self.fresh_points: list[np.ndarray] = []
        self.fresh_oids: list[np.ndarray] = []
        self.n_fresh_rows = 0

    def run(self) -> _Reuse:
        tree, prev = self.tree, self.prev
        bounds = tree.bounds
        root = np.array([tree.root_id], dtype=np.int64)
        changed = prev.regions_changed(prev.occ(root), bounds.low[None], bounds.high[None])
        level = _Level(root, np.array([-1]), changed)
        # Per node (BFS order): page, leaf flag, row source and row count;
        # per edge (BFS order; edge j leads to node j + 1): parent node,
        # box source and region source.
        pages, leaf, row_src, row_n = [], [], [], []
        edge_parent, box_src, reg_src = [], [], []
        level_bounds = [0]
        while len(level.pages):
            out = self._expand(level, level_bounds[-1])
            pages.append(level.pages)
            leaf.append(out.leaf)
            row_src.append(out.row_src)
            row_n.append(out.row_n)
            level_bounds.append(level_bounds[-1] + len(level.pages))
            edge_parent.append(out.parent)
            box_src.append(out.box_src)
            reg_src.append(out.child.region)
            level = out.child
        page = np.concatenate(pages)
        edge_parent = np.concatenate(edge_parent)
        rank = _preorder_ranks(edge_parent, level_bounds)

        # Occurrences in DFS pre-order; edges grouped by parent occurrence,
        # children in kd order within each group (stable sort).
        m = len(page)
        order = np.empty(m, dtype=np.int64)
        order[rank] = np.arange(m, dtype=np.int64)
        eorder = np.argsort(rank[edge_parent], kind="stable")
        n_edges_of = np.bincount(edge_parent, minlength=m)
        node_is_leaf = np.concatenate(leaf)[order]
        sizes = np.concatenate(row_n)[order]
        ends = np.cumsum(sizes)
        leaf_start = np.where(node_is_leaf, ends - sizes, 0).astype(np.int64)
        rows = np.repeat(np.concatenate(row_src)[order], sizes) + concat_ranges(sizes)
        box_rows = np.concatenate(box_src)[eorder]
        reg_rows = np.concatenate(reg_src)[eorder]
        old = prev.snap
        snap = SOASnapshot(
            dims=tree.dims,
            node_ref=page[order],
            node_is_leaf=node_is_leaf,
            node_pages=np.ones(m, dtype=np.int32),
            child_start=np.concatenate(([0], np.cumsum(n_edges_of[order]))).astype(np.int64),
            leaf_start=leaf_start,
            leaf_end=np.where(node_is_leaf, ends, 0).astype(np.int64),
            edge_child=rank[eorder + 1],
            box_low=self._edge_rows(box_rows, old.box_low, self.fresh_low),
            box_high=self._edge_rows(box_rows, old.box_high, self.fresh_high),
            points=self._leaf_rows(rows, old.points, self.fresh_points),
            oids=self._leaf_rows(rows, old.oids, self.fresh_oids),
        )
        self._carry_leaf_sort0(snap, rows, leaf_start, sizes)
        occ_of = np.full(int(page.max()) + 1, -1, dtype=np.int64)
        occ_of[snap.node_ref] = np.arange(m, dtype=np.int64)
        in_edge = np.full(m, -1, dtype=np.int64)
        in_edge[snap.edge_child] = np.arange(snap.n_edges, dtype=np.int64)
        return _Reuse(
            snap, occ_of, in_edge,
            self._edge_rows(reg_rows, prev.reg_low, self.fresh_reg_low),
            self._edge_rows(reg_rows, prev.reg_high, self.fresh_reg_high),
            bounds,
        )

    # ------------------------------------------------------------------
    def _region(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """A page's region by source: -1 the root region, else an edge."""
        if src < 0:
            return self.tree.bounds.low, self.tree.bounds.high
        if src < self.n_old_edges:
            return self.prev.reg_low[src], self.prev.reg_high[src]
        k = src - self.n_old_edges
        return self.fresh_reg_low.data[k], self.fresh_reg_high.data[k]

    def _fresh_boxes(
        self, box_src: np.ndarray, pos: list, ids: list, low: list, high: list
    ) -> None:
        """Derive one level's fresh edge boxes in one call: edge
        ``pos[j][i]`` gets the box of child ``ids[j][i]`` in the region
        ``(low[j][i], high[j][i])``; its ``box_src`` names the new row."""
        pos = np.concatenate(pos)
        if not len(pos):
            return
        box_low, box_high = self.tree.els.effective_boxes(
            np.concatenate(ids), np.concatenate(low), np.concatenate(high)
        )
        box_src[pos] = self.n_old_edges + self.fresh_low.size + np.arange(len(pos))
        self.fresh_low.extend(box_low)
        self.fresh_high.extend(box_high)

    def _expand(self, level: _Level, base: int) -> _Expansion:
        """Classify one level's pages and list their child edges in order."""
        tree, prev, old = self.tree, self.prev, self.prev.snap
        pages = level.pages
        n = len(pages)
        occ = prev.occ(pages)
        dirty = (occ < 0) | _member(pages, self.written)
        clean = np.flatnonzero(~dirty)
        leaf = np.zeros(n, dtype=bool)
        leaf[clean] = old.node_is_leaf[occ[clean]]
        row_src = np.zeros(n, dtype=np.int64)
        row_n = np.zeros(n, dtype=np.int64)
        # Written pages are read again: leaves for their rows, index pages
        # for their kd-trees.
        nodes = {}
        for i in np.flatnonzero(dirty).tolist():
            node = tree.trav_node(int(pages[i]), charge=False)
            if not tree.trav_is_leaf(node):
                nodes[i] = node
                continue
            leaf[i] = True
            pts, oids = tree.trav_leaf_points(node)
            row_src[i] = self.n_old_rows + self.n_fresh_rows
            row_n[i] = len(pts)
            self.n_fresh_rows += len(pts)
            self.fresh_points.append(np.array(pts, dtype=np.float32, copy=True))
            self.fresh_oids.append(np.array(oids, dtype=np.int64, copy=True))
        kept = clean[leaf[clean]]
        row_src[kept] = old.leaf_start[occ[kept]]
        row_n[kept] = old.leaf_end[occ[kept]] - old.leaf_start[occ[kept]]
        # So are clean index pages whose region changed; the others reuse
        # their edges wholesale.
        for i in np.flatnonzero(~leaf & ~dirty & level.reg_changed).tolist():
            nodes[i] = tree.trav_node(int(pages[i]), charge=False)
        reuse = np.flatnonzero(~leaf & ~dirty & ~level.reg_changed)
        walked = {
            i: leaf_region_arrays(node.table, *self._region(int(level.region[i])))
            for i, node in nodes.items()
        }
        counts = np.zeros(n, dtype=np.int64)
        for i, (ids, _, _) in walked.items():
            counts[i] = len(ids)
        counts[reuse] = old.child_start[occ[reuse] + 1] - old.child_start[occ[reuse]]
        offsets = np.cumsum(counts) - counts
        total = int(counts.sum())
        child_pages = np.empty(total, dtype=np.int64)
        box_src = np.empty(total, dtype=np.int64)
        child_region = np.empty(total, dtype=np.int64)
        child_changed = np.zeros(total, dtype=bool)

        cnt = counts[reuse]
        pos = np.repeat(offsets[reuse], cnt) + concat_ranges(cnt)
        oe = np.repeat(old.child_start[occ[reuse]], cnt) + concat_ranges(cnt)
        child_pages[pos] = old.node_ref[old.edge_child[oe]]
        box_src[pos] = oe
        child_region[pos] = oe
        # Edges whose box is derived afresh, by parts.
        hit = _member(child_pages[pos], self.touched)
        fresh_pos, fresh_ids = [pos[hit]], [child_pages[pos[hit]]]
        fresh_low, fresh_high = [prev.reg_low[oe[hit]]], [prev.reg_high[oe[hit]]]

        for i, (ids, low, high) in walked.items():
            pos = int(offsets[i]) + np.arange(len(ids))
            child_pages[pos] = ids
            child_region[pos] = self.n_old_edges + self.fresh_reg_low.size + np.arange(len(ids))
            self.fresh_reg_low.extend(low)
            self.fresh_reg_high.extend(high)
            c_occ = prev.occ(ids)
            changed = prev.regions_changed(c_occ, low, high)
            child_changed[pos] = changed
            # The old root (occurrence 0) had no edge box to reuse.
            fresh = changed | (c_occ <= 0) | _member(ids, self.touched)
            box_src[pos[~fresh]] = prev.in_edge[c_occ[~fresh]]
            fresh_pos.append(pos[fresh])
            fresh_ids.append(ids[fresh])
            fresh_low.append(low[fresh])
            fresh_high.append(high[fresh])
        self._fresh_boxes(box_src, fresh_pos, fresh_ids, fresh_low, fresh_high)
        return _Expansion(
            leaf, row_src, row_n,
            np.repeat(np.arange(base, base + n, dtype=np.int64), counts),
            box_src, _Level(child_pages, child_region, child_changed),
        )

    # ------------------------------------------------------------------
    def _leaf_rows(self, rows, old_rows, fresh: list) -> np.ndarray:
        """Leaf rows from the previous arrays (``rows < n_old_rows``) and
        from the freshly read leaves (the rest)."""
        out = np.empty((len(rows),) + old_rows.shape[1:], dtype=old_rows.dtype)
        from_old = rows < self.n_old_rows
        out[from_old] = old_rows[rows[from_old]]
        if self.n_fresh_rows:
            out[~from_old] = np.concatenate(fresh)[rows[~from_old] - self.n_old_rows]
        return out

    def _edge_rows(self, rows, old_rows, fresh: Growing) -> np.ndarray:
        """Edge rows from the previous arrays (``rows < n_old_edges``) and
        from the fresh rows (the rest)."""
        out = np.empty((len(rows), self.tree.dims))
        from_old = rows < self.n_old_edges
        out[from_old] = old_rows[rows[from_old]]
        out[~from_old] = fresh.data[rows[~from_old] - self.n_old_edges]
        return out

    def _carry_leaf_sort0(self, snap, rows, leaf_start, sizes) -> None:
        """Build the new snapshot's ``leaf_sort0`` from the previous one's,
        sorting only the leaves that are new."""
        old = self.prev.snap
        cached = getattr(old, "_leaf_sort0", None)
        if cached is not None:
            perm_old, scol_old = cached
            perm = np.empty(snap.n_points, dtype=np.int64)
            scol = np.empty(snap.n_points)
            from_old = rows < self.n_old_rows
            # A leaf moves as a block: shift its sorted row ids by the
            # distance its slice moved.
            shift = np.arange(snap.n_points, dtype=np.int64) - rows
            perm[from_old] = perm_old[rows[from_old]] + shift[from_old]
            scol[from_old] = scol_old[rows[from_old]]
            occ_of_row = np.repeat(np.arange(len(sizes)), sizes)
            for occ in np.unique(occ_of_row[~from_old]).tolist():
                s, e = int(leaf_start[occ]), int(leaf_start[occ] + sizes[occ])
                order = np.argsort(snap.points[s:e, 0], kind="stable")
                perm[s:e] = s + order
                scol[s:e] = snap.points[s:e, 0][order]
            snap._leaf_sort0 = (perm, scol)


def _id_mask(ids: set) -> np.ndarray:
    """A boolean array over page / node ids, True for the members."""
    mask = np.zeros(max(ids, default=-1) + 1, dtype=bool)
    mask[np.fromiter(ids, np.int64, len(ids))] = True
    return mask


def _member(ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per id: whether :func:`_id_mask` marked it."""
    out = np.zeros(len(ids), dtype=bool)
    known = ids < len(mask)
    out[known] = mask[ids[known]]
    return out


def _preorder_ranks(edge_parent: np.ndarray, level_bounds: list[int]) -> np.ndarray:
    """DFS pre-order rank of every node of a tree laid out in BFS order.

    Node 0 is the root and edge ``j`` (parent ``edge_parent[j]``) leads to
    node ``j + 1``; level ``L`` holds nodes ``level_bounds[L] :
    level_bounds[L + 1]``, siblings contiguous and in child order.
    """
    m = level_bounds[-1]
    size = np.ones(m, dtype=np.int64)
    for lo, hi in zip(level_bounds[-2:0:-1], level_bounds[:0:-1]):
        np.add.at(size, edge_parent[lo - 1 : hi - 1], size[lo:hi])
    rank = np.zeros(m, dtype=np.int64)
    for lo, hi in zip(level_bounds[1:-1], level_bounds[2:]):
        parent = edge_parent[lo - 1 : hi - 1]
        sz = size[lo:hi]
        cum = np.cumsum(sz)
        first = np.flatnonzero(np.concatenate(([True], parent[1:] != parent[:-1])))
        group = np.diff(np.append(first, len(parent)))
        before = np.repeat(cum[first] - sz[first], group)
        rank[lo:hi] = rank[parent] + 1 + cum - sz - before
    return rank
