"""The modified intranode kd-tree (paper Section 3.1), as a split table.

Every hybrid-tree *index node* organises its children as a small kd-tree kept
inside the node's page.  The modification over a regular kd-tree is that each
split carries **two** positions:

- ``lsp`` — the high boundary of the left (lower-side) partition, and
- ``rsp`` — the low boundary of the right (higher-side) partition.

``lsp == rsp`` is a clean (disjoint) split; ``lsp > rsp`` is an overlapping
split, the relaxation that lets the hybrid tree avoid the KDB-tree's cascading
splits.  ``lsp < rsp`` (a coverage gap) is never produced; the invariant
``lsp >= rsp`` is checked by :func:`check_split_table`.

The kd-tree has one form, the page's: a :class:`SplitTable`, one record per
split (dim, lsp, rsp and the leaf rows its subtree owns), as paper Section
3.1 stores it.  The child bounding regions are never stored: they are
*derived* from the splits by the Section 3.1 mapping
(:func:`leaf_region_arrays`; :func:`leaves_holding_point` for the children
holding one point), so the fanout stays independent of dimensionality.

A write step never edits a table in place: each is a function from a table
to a new one (:func:`split_leaf`, :func:`remove_leaf`, :func:`prune`,
:func:`widen`).  Every walk here is iterative, so a degenerate kd-tree deeper
than the interpreter's recursion limit (a legal node on a large page) is no
different from a balanced one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.geometry.rect import Rect


class SplitTable(NamedTuple):
    """An intranode kd-tree as arrays: what an index page stores.

    Splits are numbered in preorder and leaves (children) left to right,
    so every split's subtree owns the contiguous leaf rows
    ``first:end``; its left subtree owns ``first:mid`` and its right one
    ``mid:end`` (:func:`split_mids`).  The arrays are never mutated."""

    ids: np.ndarray  # int64 (m,)  child page ids, left to right
    dim: np.ndarray  # intp (m - 1,)  per split, preorder
    lsp: np.ndarray  # float64 (m - 1,)
    rsp: np.ndarray  # float64 (m - 1,)
    first: np.ndarray  # intp (m - 1,)  first leaf row of the subtree
    end: np.ndarray  # intp (m - 1,)  one past its last leaf row


def from_preorder(ids: list, splits: list, end: list) -> SplitTable:
    """A :class:`SplitTable` from a preorder walk's lists: child ids left
    to right, one ``(dim, lsp, rsp, first)`` per split, and each split's
    end row."""
    # Dims and rows are small integers: exact in float64.
    rec = np.array(splits, dtype=np.float64).reshape(-1, 4)
    return SplitTable(
        np.array(ids, dtype=np.int64),
        rec[:, 0].astype(np.intp),
        rec[:, 1].copy(),
        rec[:, 2].copy(),
        rec[:, 3].astype(np.intp),
        np.array(end, dtype=np.intp),
    )


def split_mids(table: SplitTable) -> np.ndarray:
    """Each split's first right-subtree row.  A left subtree that is a
    split is the next split in preorder and starts on the same row; any
    other left subtree is one leaf."""
    first, end = table.first, table.end
    mid = first + 1
    inner = first[1:] == first[:-1]
    mid[:-1][inner] = end[1:][inner]
    return mid


def check_split_table(table: SplitTable, dims: int) -> None:
    """Raise ``ValueError`` unless ``table`` describes a kd-tree over
    ``dims`` dimensions: split dims in range, no coverage gap, and row
    ranges that nest as one binary tree in preorder."""
    m, n = len(table.ids), len(table.dim)
    if m < 1 or n != m - 1:
        raise ValueError(f"kd table has {n} splits for {m} children")
    if not n:
        return
    dim, first, end = table.dim, table.first, table.end
    bad_dim = (dim < 0) | (dim >= dims)
    if bad_dim.any():
        raise ValueError(
            f"kd split on dim {int(dim[bad_dim][0])} of a {dims}-dim tree"
        )
    if not (table.lsp >= table.rsp).all():
        raise ValueError("kd split with lsp < rsp (a coverage gap)")
    # Split i's left subtree is split i + 1 or one leaf (split_mids); its
    # right subtree, if more than one leaf, must be split i + (leaves on
    # its left) over exactly the rows mid:end.  Then, by induction on the
    # row count, the splits reached from split i are i, i + 1, ... up to
    # its own leaf count less one: the root reaches every split once.
    mid = split_mids(table)
    left_size, right_size = mid - first, end - mid
    kid = np.arange(n) + left_size
    bad = (left_size < 1) | (right_size < 1)
    bad |= (right_size > 1) & (
        (kid >= n)
        | (first.take(kid, mode="clip") != mid)
        | (end.take(kid, mode="clip") != end)
    )
    if first[0] != 0 or end[0] != m or bad.any():
        raise ValueError("kd split offsets do not nest as one tree")


def leaf_region_arrays(
    table: SplitTable, low: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Section 3.1 mapping: every child's derived bounding region, as
    arrays ``(child_ids, lows, highs)`` for the node region ``[low, high]``.

    The left side of a split on ``(dim, lsp, rsp)`` gets
    ``region ∩ {x_dim <= lsp}`` and the right side ``region ∩ {x_dim >= rsp}``,
    clamped as :meth:`Rect.clip_below` / :meth:`Rect.clip_above` do.
    A cell (row, dim) is clipped only by the splits on that dim along its
    row's kd path, so the splits are applied in groups by how many
    ancestors split on the same dim: one group's clips touch disjoint
    cells, and each cell gets its clips in path order — the same floats
    as clipping one ``Rect`` down each row's path, in a few array steps.
    """
    m, n = len(table.ids), len(table.dim)
    lows = np.empty((m, len(low)))
    highs = np.empty((m, len(high)))
    lows[:] = low
    highs[:] = high
    if not n:
        return table.ids, lows, highs
    dims = lows.shape[1]
    dim, first, end = table.dim, table.first, table.end
    mid = split_mids(table)
    # Same-dim ancestors of each split: the same-dim splits before it in
    # preorder, less those wholly to its left (end <= its first).  Its
    # place in the stable order by dim, less the count of (dim, end) keys
    # up to (its dim, its first): the splits of lower dims cancel.
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(dim, kind="stable")] = np.arange(n)
    rank -= np.searchsorted(
        np.sort(dim * (m + 1) + end), dim * (m + 1) + first, side="right"
    )
    # Both sides of every split as row ranges, ordered by (rank, side):
    # step 2r clips the left sides of rank r, step 2r + 1 the right sides.
    step = np.concatenate((2 * rank, 2 * rank + 1))
    by = np.argsort(step, kind="stable")
    step = step[by]
    start = np.concatenate((first, mid))[by]
    counts = np.concatenate((mid, end))[by] - start
    pos = np.repeat(np.concatenate((table.lsp, table.rsp))[by], counts)
    ends = np.cumsum(counts)
    # Flat cells row * dims + dim of every row of every range (range j's
    # t-th row is element ends[j] - counts[j] + t of the concatenation).
    offset = start * dims + np.concatenate((dim, dim))[by] - (ends - counts) * dims
    cells = np.repeat(offset, counts) + np.arange(ends[-1]) * dims
    cuts = np.concatenate(([0], ends))[np.searchsorted(step, np.arange(step[-1] + 2))]
    lo, hi = lows.reshape(-1), highs.reshape(-1)
    # The clips pick operands as Python's min/max do — the first of two
    # equal ones — so signed zeros come out as the scalar clips make them
    # (np.minimum/np.maximum return the second).
    for k in range(len(cuts) - 1):
        c, p = cells[cuts[k] : cuts[k + 1]], pos[cuts[k] : cuts[k + 1]]
        c_lo, c_hi = lo[c], hi[c]
        if k % 2 == 0:
            t = np.where(c_lo > p, c_lo, p)
            hi[c] = np.where(t < c_hi, t, c_hi)
        else:
            t = np.where(c_hi < p, c_hi, p)
            lo[c] = np.where(t > c_lo, t, c_lo)
    return table.ids, lows, highs


def leaves_holding_point(
    table: SplitTable, low: list, high: list, point: list, faces: bool = True
) -> list[tuple[int, list, list]]:
    """The children whose derived regions hold ``point``, found by walking
    the splits by the point instead of deriving every child's region.

    ``low``/``high``/``point`` are lists of floats (the region's corners
    and the point, which the region must contain).  A side is entered only
    when its clamped clip — :meth:`Rect.clip_below` / :meth:`Rect.clip_above`,
    same floats, same operand order — still holds ``point[dim]``, so the
    result is exactly the rows of :func:`leaf_region_arrays` whose region
    contains the point: ``(child_id, low, high)`` in kd order, with fresh
    lists.  ``faces=False`` tests the raw split positions instead
    (``x <= lsp`` / ``x >= rsp``): a split outside the region then no
    longer admits a point on the region's face (the insert descent's rule,
    which needs no containing region).
    """
    ids, dim, lsp, rsp, first, end = table
    n = len(dim)
    out: list[tuple[int, list, list]] = []
    # A subtree is a split index i >= 0, or ~row for a single leaf row.
    # The walk reads only the splits it visits (``item`` gives Python
    # scalars): a kd path is short next to the node's fanout.
    stack = [(0 if n else ~0, list(low), list(high))]
    while stack:
        i, lo, hi = stack.pop()
        while i >= 0:
            d, f, e = dim.item(i), first.item(i), end.item(i)
            # The left side is split i + 1 if that starts on row f (split_mids).
            m = end.item(i + 1) if i + 1 < n and first.item(i + 1) == f else f + 1
            x, split_lo, split_hi = point[d], lsp.item(i), rsp.item(i)
            below = min(hi[d], max(split_lo, lo[d]))
            above = max(lo[d], min(split_hi, hi[d]))
            left = x <= below if faces else x <= split_lo
            right = x >= above if faces else x >= split_hi
            if left and right:
                # The right side gets its own copies; the walk goes on
                # left, reusing (and clipping) this path's lists.
                right_lo = lo.copy()
                right_lo[d] = above
                stack.append((i + m - f if e - m > 1 else ~m, right_lo, hi.copy()))
            if left:
                hi[d] = below
                i = i + 1 if m - f > 1 else ~f
            elif right:
                lo[d] = above
                i = i + m - f if e - m > 1 else ~m
            else:
                break
        else:
            out.append((ids.item(~i), lo, hi))
    return out


def row_of(table: SplitTable, child_id: int) -> int:
    """The leaf row of ``child_id`` (raises ``KeyError`` if absent)."""
    rows = np.flatnonzero(table.ids == child_id)
    if not len(rows):
        raise KeyError(f"child {child_id} not in this kd-tree")
    return int(rows[0])


def _path(table: SplitTable, row: int) -> np.ndarray:
    """The splits on ``row``'s kd path, root first (ancestors come before
    their descendants in preorder)."""
    return np.flatnonzero((table.first <= row) & (row < table.end))


def region_of_child(table: SplitTable, region: Rect, child_id: int) -> Rect:
    """Derived region of one child (raises ``KeyError`` if absent): the
    clips of its kd path only, in path order, as :meth:`Rect.clip_below` /
    :meth:`Rect.clip_above` make them."""
    row = row_of(table, child_id)
    lo, hi = region.low.tolist(), region.high.tolist()
    path = _path(table, row)
    mid = split_mids(table)[path].tolist()
    for d, lsp, rsp, m in zip(
        table.dim[path].tolist(), table.lsp[path].tolist(), table.rsp[path].tolist(), mid
    ):
        if row < m:
            hi[d] = min(hi[d], max(lsp, lo[d]))
        else:
            lo[d] = max(lo[d], min(rsp, hi[d]))
    return Rect(lo, hi)


def split_leaf(
    table: SplitTable, row: int, dim: int, lsp: float, rsp: float,
    left_id: int, right_id: int,
) -> SplitTable:
    """The leaf at ``row`` becomes a split ``(dim, lsp, rsp)`` over two
    leaves, ``left_id`` then ``right_id`` (a child split, or an orphan
    paired with its buddy).  The new split goes in preorder after every
    split that starts at or before ``row``; the row ranges past ``row``
    shift by one."""
    if lsp < rsp:
        raise ValueError(f"coverage gap: lsp ({lsp}) < rsp ({rsp})")
    first, end = table.first, table.end
    at = int(np.searchsorted(first, row, side="right"))
    return SplitTable(
        np.concatenate(
            (table.ids[:row], np.array([left_id, right_id], dtype=np.int64), table.ids[row + 1 :])
        ),
        np.insert(table.dim, at, dim),
        np.insert(table.lsp, at, lsp),
        np.insert(table.rsp, at, rsp),
        np.insert(first + (first > row), at, row),
        np.insert(end + (end > row), at, row + 2),
    )


def remove_leaf(table: SplitTable, row: int) -> SplitTable:
    """Drop the leaf at ``row``: its parent split goes and the sibling
    subtree takes the parent's place.  That widens the surviving side's
    regions (their constraint from the dropped split disappears) without
    disturbing any other pairwise separation.  The sibling's splits follow
    the parent's in preorder, so the parent's record is simply deleted."""
    path = _path(table, row)
    if not len(path):
        raise ValueError("cannot remove the only child of a kd-tree")
    parent = int(path[-1])
    first = np.delete(table.first, parent)
    end = np.delete(table.end, parent)
    return SplitTable(
        np.delete(table.ids, row),
        np.delete(table.dim, parent),
        np.delete(table.lsp, parent),
        np.delete(table.rsp, parent),
        first - (first > row),
        end - (end > row),
    )


def prune(table: SplitTable, keep) -> SplitTable:
    """Restrict the kd-tree to the children in ``keep`` (an index-node
    split).  A split stays only if both its sides keep a child — it is the
    lowest common ancestor of two kept rows.  Any two kept children keep
    that split, so every pairwise separation (in particular the
    disjointness of data-level regions) is preserved exactly — this is why
    the hybrid tree *prunes* rather than rebuilds when an index node
    splits."""
    kept = np.isin(table.ids, np.fromiter(keep, dtype=np.int64))
    if not kept.any():
        raise ValueError("prune keeps no child")
    # before[k]: kept rows before row k.
    before = np.zeros(len(kept) + 1, dtype=np.intp)
    np.cumsum(kept, out=before[1:])
    first, end = table.first, table.end
    mid = split_mids(table)
    live = (before[mid] > before[first]) & (before[end] > before[mid])
    return SplitTable(
        table.ids[kept],
        table.dim[live],
        table.lsp[live],
        table.rsp[live],
        before[first[live]],
        before[end[live]],
    )


def _f32_outward(x: float, toward: float) -> float:
    """``x`` rounded to float32 toward ``toward``: the nearest float32 at
    or above ``x`` for ``+inf``, at or below it for ``-inf`` — a widened
    split position that still contains ``x``."""
    v = np.float32(x)
    if (toward > 0 and v < x) or (toward < 0 and v > x):
        v = np.nextafter(v, np.float32(toward))
    return float(v)


def widen(table: SplitTable, row: int, low: np.ndarray, high: np.ndarray) -> SplitTable:
    """Move lsp/rsp along ``row``'s kd path until its region holds the box
    ``[low, high]`` (a point when ``low is high``): a split whose left side
    the path takes raises ``lsp`` to ``high[dim]``, one whose right side it
    takes lowers ``rsp`` to ``low[dim]``.  Widening only adds overlap,
    never a gap; positions round outward to float32, the precision pages
    store."""
    path = _path(table, row)
    mid = split_mids(table)[path].tolist()
    lsp, rsp = table.lsp.copy(), table.rsp.copy()
    for i, d, m in zip(path.tolist(), table.dim[path].tolist(), mid):
        if row < m:
            if high[d] > lsp[i]:
                lsp[i] = _f32_outward(high[d], np.inf)
        elif low[d] < rsp[i]:
            rsp[i] = _f32_outward(low[d], -np.inf)
    return table._replace(lsp=lsp, rsp=rsp)
