"""Top-down bulk loading of a hybrid tree.

Dynamic insertion builds the paper's tree one point at a time; for large
benchmark datasets we also provide the standard top-down alternative: apply
the same split rules (EDA dimension choice, middle position, utilization
bound) level by level over the whole dataset, every over-full partition of
a level at once, until partitions fit a data page, producing one global kd
split tree whose leaves are data nodes; then chop
that tree into page-sized index nodes level by level.  Each level is one
:class:`~repro.core.kdnodes.SplitTable`, and each index node's table is
that table pruned to the node's children (a subtree's splits are exactly
those with kept rows on both sides), so nodes are emitted in the form
their pages store.  Every split is clean
(``lsp == rsp``), so a bulk-loaded tree starts with zero overlap — the
paper's structure in its best case; subsequent dynamic inserts and deletes
work on it normally and introduce overlap only where the paper allows it.
"""

from __future__ import annotations

import numpy as np

from repro.core.kdnodes import SplitTable, from_preorder, prune, split_mids
from repro.core.nodes import MAX_OID, DataNode, IndexNode, OidRangeError
from repro.core.splits import split_segments
from repro.geometry.rect import Rect

# Coordinates gathered at once while data pages are filled.
_LEAF_BLOCK_ELEMS = 1 << 16


def _check_oids(oids, n: int) -> np.ndarray:
    """Validate an oid array fits the uint32 slots data pages store.

    ``np.asarray(oids, dtype=np.uint32)`` would silently wrap int64 values
    (``2**32`` becomes ``0``), so lookups and deletes by the original oid
    would miss forever; reject non-integer dtypes and out-of-range values
    with a typed error instead.
    """
    oids = np.asarray(oids)
    if oids.shape != (n,):
        raise ValueError("oids must align with vectors")
    if oids.dtype.kind not in "iu":
        raise OidRangeError(
            f"oids must be an integer array, got dtype {oids.dtype}"
        )
    if n:
        lo, hi = int(oids.min()), int(oids.max())
        if lo < 0 or hi > MAX_OID:
            bad = lo if lo < 0 else hi
            raise OidRangeError(
                f"oid {bad} is outside [0, {MAX_OID}], the uint32 range "
                "data pages store"
            )
    return oids.astype(np.uint32)


def bulk_load_into(tree, vectors: np.ndarray, oids: np.ndarray | None = None) -> int:
    """Populate an *empty* ``HybridTree`` with ``vectors`` in one pass.

    ``oids`` defaults to ``0..n-1``.  The tree's split policy/position and
    min-fill settings are honoured.  Returns the number of entries that had
    to fall back to per-entry :meth:`~repro.core.hybridtree.HybridTree.insert`
    because the split tree was too skewed to pack (0 for every reasonable
    ``min_fill``; see :func:`_pack_level`).
    """
    if len(tree) != 0:
        raise ValueError("bulk_load requires an empty tree")
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[1] != tree.dims:
        raise ValueError(f"expected an (n, {tree.dims}) array")
    # After the float32 cast, so float64 values beyond its range are caught
    # too; before any page is allocated, as insert checks each vector.
    if not np.isfinite(vectors).all():
        raise ValueError("vectors must be finite")
    n = vectors.shape[0]
    if oids is None:
        oids = np.arange(n, dtype=np.uint32)
    else:
        oids = _check_oids(oids, n)
    if n == 0:
        return 0
    owns = tree._wal_begin()
    try:
        deferred = _bulk_load_inner(tree, vectors, oids, n)
    except BaseException:
        tree._wal_abort(owns)
        raise
    tree._wal_end(owns, "bulk_load")
    return deferred


def _bulk_load_inner(tree, vectors: np.ndarray, oids: np.ndarray, n: int) -> int:
    lows = vectors.min(axis=0).astype(np.float64)
    highs = vectors.max(axis=0).astype(np.float64)
    tree.bounds = tree.bounds.merge(Rect(lows, highs))

    # Root was pre-allocated as an empty data node; recycle its page.
    tree.nm.free(tree._root_id)

    table = _data_level(tree, vectors, oids, n)
    deferred: list[tuple[np.ndarray, int]] = []
    level = 1
    while len(table.dim):
        table = _pack_level(tree, table, level, deferred)
        level += 1
    # The table is now a single leaf: the root node.
    tree._root_id = int(table.ids[0])
    tree._height = level
    tree._count = n - len(deferred)
    # Entries _pack_level could not place (pathologically skewed split
    # trees) go through the normal dynamic insert path instead.
    for vector, oid in deferred:
        tree.insert(vector, oid)
    tree.modified_since_save = True
    tree.invalidate_snapshot()
    return len(deferred)


def _data_level(tree, vectors: np.ndarray, oids: np.ndarray, n: int) -> SplitTable:
    """Split the dataset down to data pages: the global split tree, as one
    table whose leaves are the data nodes.

    One loop step per split-tree level: :func:`split_segments` splits
    every over-full partition ("segment") of the level at once, over a
    dims-major working copy whose columns are reordered so that every
    segment's points are contiguous, low side first.  Pages are then
    allocated left to right, and the splits numbered in preorder."""
    cap = tree.data_capacity
    work = vectors.T.copy()  # a copy even when the transpose is contiguous
    order = np.arange(n)  # order[p]: the input row at working column p
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, n, dtype=np.intp)
    leaf_parts = []
    levels = []
    while True:
        full = sizes > cap
        leaf_parts.append((starts[~full], sizes[~full]))
        starts, sizes = starts[full], sizes[full]
        if not len(starts):
            break
        split = split_segments(
            work, starts, sizes, tree.min_fill, tree.split_policy,
            tree.split_position, tree._rr,
        )
        for dim in range(tree.dims):
            work[dim] = work[dim].take(split.source)
        order = order.take(split.source)
        levels.append((starts, sizes, split.dim, split.position))
        starts = np.column_stack((starts, starts + split.left)).ravel()
        sizes = np.column_stack((split.left, sizes - split.left)).ravel()
    del work

    leaf_starts, leaf_sizes = (np.concatenate(col) for col in zip(*leaf_parts))
    by_start = np.argsort(leaf_starts)
    leaf_starts, leaf_sizes = leaf_starts[by_start], leaf_sizes[by_start]
    ids = _data_pages(tree, vectors, oids, order, leaf_starts, leaf_sizes)
    if not levels:
        return from_preorder(ids, [], [])
    s, m, dim, pos = (np.concatenate(col) for col in zip(*levels))
    # Splits nest, so preorder is by first column, the larger one first.
    pre = np.lexsort((-m, s))
    s, m = s[pre], m[pre]
    cut = pos[pre].astype(np.float32).astype(np.float64)
    return SplitTable(
        ids,
        dim[pre].astype(np.intp),
        cut,
        cut.copy(),
        np.searchsorted(leaf_starts, s),
        np.searchsorted(leaf_starts, s + m),
    )


def _data_pages(tree, vectors, oids, order, starts, sizes) -> np.ndarray:
    """Store each leaf ``order[start:start + size]`` as a data page, left
    to right, and their live boxes in one ELS update.  Returns the ids."""
    dims, cap = tree.dims, tree.data_capacity
    ids = np.empty(len(starts), dtype=np.int64)
    lows = np.empty((len(starts), dims))
    highs = np.empty((len(starts), dims))
    ends = starts + sizes
    per_block = max(1, _LEAF_BLOCK_ELEMS // (cap * dims))
    for b in range(0, len(starts), per_block):
        leaves = slice(b, b + per_block)
        first, stop = int(starts[b]), int(ends[leaves][-1])
        rows = vectors.take(order[first:stop], axis=0)
        block_oids = oids.take(order[first:stop])
        # Each leaf's rows padded to capacity by repeating its last row.
        row = np.minimum(starts[leaves, None] + np.arange(cap), ends[leaves, None] - 1)
        padded = rows[row - first]
        lows[leaves] = padded.min(axis=1)
        highs[leaves] = padded.max(axis=1)
        bounds = zip((starts[leaves] - first).tolist(), (ends[leaves] - first).tolist())
        # A min or max over both -0.0 and 0.0 keeps whichever its reduction
        # order meets first: with both present, take each box as a node's
        # live rect does (DataNode.live_rect), so the ELS bytes match.
        signed_zero = np.signbit(rows[rows == 0]).any()
        for i, (lo, hi) in enumerate(bounds, start=b):
            if signed_zero:
                live = rows[lo:hi].astype(np.float64)
                lows[i], highs[i] = live.min(axis=0), live.max(axis=0)
            node = DataNode(dims, cap)
            node.vectors[: hi - lo] = rows[lo:hi]
            node.oids[: hi - lo] = block_oids[lo:hi]
            node.count = hi - lo
            ids[i] = tree.nm.allocate()
            tree.nm.put(int(ids[i]), node, charge=False)
    tree.els.set_many(ids, lows, highs)
    return ids


def _collect_and_free(tree, node_id: int, deferred: list) -> None:
    """Dismantle an already-packed subtree: free every node under
    ``node_id`` (dropping its ELS boxes) and collect the raw
    ``(vector, oid)`` entries for per-insert reloading."""
    node = tree.nm.get(node_id, charge=False)
    if isinstance(node, DataNode):
        points = node.points()
        live = node.live_oids()
        for i in range(node.count):
            deferred.append((points[i].copy(), int(live[i])))
    else:
        for child_id in node.child_ids():
            _collect_and_free(tree, child_id, deferred)
    tree.nm.free(node_id)
    tree.els.drop(node_id)


def _index_node(tree, table: SplitTable, rows: slice, level: int) -> int:
    """Store the subtree over leaf rows ``rows`` of a level's table as one
    index node at ``level``: its table is the level's, pruned to those
    children.  Returns the node's page id."""
    node = IndexNode(prune(table, table.ids[rows]), level)
    node_id = tree.nm.allocate()
    tree.nm.put(node_id, node, charge=False)
    lives = [tree.els.get(c) for c in node.child_ids()]
    tree.els.set(node_id, Rect.merge_all([r for r in lives if r is not None]))
    return node_id


def _pack_level(tree, table: SplitTable, level: int, deferred: list) -> SplitTable:
    """Chop a level's split table into page-sized index nodes at ``level``.

    Subtrees with at most ``index_capacity`` leaves become one index node;
    larger subtrees keep their top split and are chopped further, so the
    returned table's leaves are the new (level-``level``) nodes and its
    splits become the next level's intranode structure.
    """
    dim, lsp, rsp, first, mid, end = (
        col.tolist()
        for col in (table.dim, table.lsp, table.rsp, table.first, split_mids(table), table.end)
    )
    ids: list[int] = []
    splits: list[tuple] = []
    ends: list[int] = []
    # Splits of ``table`` to chop, left side first; ~k closes output split k.
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:
            ends[~i] = len(ids)
            continue
        if end[i] - first[i] <= tree.index_capacity:
            ids.append(_index_node(tree, table, slice(first[i], end[i]), level))
        elif mid[i] - first[i] < 2 or end[i] - mid[i] < 2:
            # A lone child next to an over-capacity sibling cannot form a
            # legal index node.  The utilization bound on splits makes leaf
            # counts of siblings comparable, so this needs a pathologically
            # skewed split tree (extreme min_fill on heavily clustered
            # data).  Degrade gracefully: dismantle the lone side, defer its
            # entries to the dynamic insert path, and pack only the bulk
            # side, which is split i + 1 either way.  (Both sides cannot be
            # lone: the subtree is over capacity, so >= 3 leaves.)
            lone = first[i] if mid[i] - first[i] < 2 else mid[i]
            _collect_and_free(tree, int(table.ids[lone]), deferred)
            stack.append(i + 1)
        else:
            splits.append((dim[i], lsp[i], rsp[i], len(ids)))
            stack += (~len(ends), i + mid[i] - first[i], i + 1)
            ends.append(0)
    return from_preorder(ids, splits, ends)
