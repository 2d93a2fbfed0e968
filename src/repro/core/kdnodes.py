"""The modified intranode kd-tree (paper Section 3.1).

Every hybrid-tree *index node* organises its children as a small kd-tree kept
inside the node's page.  The modification over a regular kd-tree is that each
internal node carries **two** split positions:

- ``lsp`` — the high boundary of the left (lower-side) partition, and
- ``rsp`` — the low boundary of the right (higher-side) partition.

``lsp == rsp`` is a clean (disjoint) split; ``lsp > rsp`` is an overlapping
split, the relaxation that lets the hybrid tree avoid the KDB-tree's cascading
splits.  ``lsp < rsp`` (a coverage gap) is never produced; the invariant
``lsp >= rsp`` is asserted throughout and checked by ``validate_kdtree``.

The child bounding regions are never stored: they are *derived* from the kd
structure by the recursive mapping of Section 3.1 (``leaves_with_regions``),
so the fanout stays independent of dimensionality.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.geometry.rect import Rect


class KDLeaf:
    """A kd-tree leaf: a pointer to one child page of the index node."""

    __slots__ = ("child_id",)

    def __init__(self, child_id: int):
        self.child_id = child_id

    def __repr__(self) -> str:
        return f"KDLeaf({self.child_id})"


class KDInternal:
    """A kd split with dual positions; children are ``KDLeaf | KDInternal``."""

    __slots__ = ("dim", "lsp", "rsp", "left", "right")

    def __init__(
        self,
        dim: int,
        lsp: float,
        rsp: float,
        left: "KDNode",
        right: "KDNode",
    ):
        if lsp < rsp:
            raise ValueError(f"coverage gap: lsp ({lsp}) < rsp ({rsp})")
        self.dim = dim
        self.lsp = float(lsp)
        self.rsp = float(rsp)
        self.left = left
        self.right = right

    @property
    def overlap(self) -> float:
        """Width of the overlap zone along the split dimension."""
        return self.lsp - self.rsp

    def __repr__(self) -> str:
        return f"KDInternal(dim={self.dim}, lsp={self.lsp}, rsp={self.rsp})"


KDNode = KDLeaf | KDInternal


def count_leaves(node: KDNode) -> int:
    """Number of children the index node has (kd leaves).

    Iterative, like the codec's kd walks: a degenerate intranode kd-tree
    on a large page can be deeper than the interpreter's recursion limit.
    """
    count = 0
    stack = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            count += 1
        else:
            stack.append(kd.right)
            stack.append(kd.left)
    return count


def count_internals(node: KDNode) -> int:
    if isinstance(node, KDLeaf):
        return 0
    return 1 + count_internals(node.left) + count_internals(node.right)


def depth(node: KDNode) -> int:
    """Longest root-to-leaf path length (0 for a single leaf)."""
    if isinstance(node, KDLeaf):
        return 0
    return 1 + max(depth(node.left), depth(node.right))


def iter_leaves(node: KDNode) -> Iterator[KDLeaf]:
    """Yield kd leaves left-to-right (iterative; see :func:`count_leaves`)."""
    stack = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            yield kd
        else:
            stack.append(kd.right)
            stack.append(kd.left)


def iter_internals(node: KDNode) -> Iterator[KDInternal]:
    if isinstance(node, KDInternal):
        yield node
        yield from iter_internals(node.left)
        yield from iter_internals(node.right)


def child_ids(node: KDNode) -> list[int]:
    """Page ids of all children, left-to-right."""
    return [leaf.child_id for leaf in iter_leaves(node)]


def leaves_with_regions(node: KDNode, region: Rect) -> Iterator[tuple[KDLeaf, Rect]]:
    """The Section 3.1 mapping: derive each child's bounding region.

    Given the index node's own region, the left child of a split on
    ``(dim, lsp, rsp)`` gets ``region ∩ {x_dim <= lsp}`` and the right child
    ``region ∩ {x_dim >= rsp}``; applied recursively down to the kd leaves.
    """
    if isinstance(node, KDLeaf):
        yield node, region
        return
    yield from leaves_with_regions(node.left, region.clip_below(node.dim, node.lsp))
    yield from leaves_with_regions(node.right, region.clip_above(node.dim, node.rsp))


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


def split_table(node: KDNode) -> SplitTable:
    """The kd-tree's :class:`SplitTable`, by one iterative preorder walk
    (a degenerate kd-tree can be deeper than the recursion limit)."""
    ids: list[int] = []
    splits: list[tuple] = []  # (dim, lsp, rsp, first) per split
    end: list[int] = []
    stack: list = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            ids.append(kd.child_id)
        elif isinstance(kd, KDInternal):
            # The split's index, popped after both subtrees, closes its
            # row range.
            stack += (len(end), kd.right, kd.left)
            splits.append((kd.dim, kd.lsp, kd.rsp, len(ids)))
            end.append(0)
        else:
            end[kd] = len(ids)
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


def kd_from_table(table: SplitTable) -> KDNode:
    """Materialize the kd-tree a :class:`SplitTable` describes (the
    inverse of :func:`split_table`).  Children are built before their
    parents, so no recursion is needed."""
    leaves = [KDLeaf(child_id) for child_id in table.ids.tolist()]
    n = len(table.dim)
    if not n:
        return leaves[0]
    nodes: list = [None] * n
    for i, dim, lsp, rsp, first, mid, end in zip(
        range(n - 1, -1, -1),
        table.dim[::-1].tolist(),
        table.lsp[::-1].tolist(),
        table.rsp[::-1].tolist(),
        table.first[::-1].tolist(),
        split_mids(table)[::-1].tolist(),
        table.end[::-1].tolist(),
    ):
        left = leaves[first] if mid - first == 1 else nodes[i + 1]
        right = leaves[mid] if end - mid == 1 else nodes[i + mid - first]
        nodes[i] = KDInternal(dim, lsp, rsp, left, right)
    return nodes[0]


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
    if (dim >= dims).any():
        raise ValueError(f"kd split on dim {int(dim.max())} of a {dims}-dim tree")
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
    """:func:`leaves_with_regions` as arrays: ``(child_ids, lows, highs)``.

    Each split clips its left rows' ``high`` and its right rows' ``low``
    on its dim, clamped as :meth:`Rect.clip_below` / :meth:`Rect.clip_above` do.
    A cell (row, dim) is clipped only by the splits on that dim along its
    row's kd path, so the splits are applied in groups by how many
    ancestors split on the same dim: one group's clips touch disjoint
    cells, and each cell gets its clips in path order — the same floats
    as the scalar mapping, in a few array steps.
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
    for k in range(len(cuts) - 1):
        c, p = cells[cuts[k] : cuts[k + 1]], pos[cuts[k] : cuts[k + 1]]
        if k % 2 == 0:
            hi[c] = np.minimum(hi[c], np.maximum(p, lo[c]))
        else:
            lo[c] = np.maximum(lo[c], np.minimum(p, hi[c]))
    return table.ids, lows, highs


def leaves_holding_point(
    node: KDNode, low: list, high: list, point: list, faces: bool = True
) -> list[tuple[int, list, list]]:
    """The children whose derived regions hold ``point``, found by walking
    the splits by the point instead of deriving every child's region.

    ``low``/``high``/``point`` are lists of floats (the region's corners
    and the point, which the region must contain).  A side is entered only
    when its clamped clip — :meth:`Rect.clip_below` / :meth:`Rect.clip_above`,
    same floats, same operand order — still holds ``point[dim]``, so the
    result is exactly the rows of :func:`leaves_with_regions` whose region
    contains the point: ``(child_id, low, high)`` in kd order, with fresh
    lists.  ``faces=False`` tests the raw split positions instead
    (``x <= lsp`` / ``x >= rsp``): a split outside the region then no
    longer admits a point on the region's face (the insert descent's rule,
    which needs no containing region).  Iterative, like :func:`count_leaves`.
    """
    out: list[tuple[int, list, list]] = []
    stack = [(node, list(low), list(high))]
    while stack:
        kd, lo, hi = stack.pop()
        while isinstance(kd, KDInternal):
            dim, x = kd.dim, point[kd.dim]
            below = min(hi[dim], max(kd.lsp, lo[dim]))
            above = max(lo[dim], min(kd.rsp, hi[dim]))
            left = x <= below if faces else x <= kd.lsp
            right = x >= above if faces else x >= kd.rsp
            if left and right:
                # The right side gets its own copies; the walk goes on
                # left, reusing (and clipping) this path's lists.
                right_lo = lo.copy()
                right_lo[dim] = above
                stack.append((kd.right, right_lo, hi.copy()))
            if left:
                hi[dim] = below
                kd = kd.left
            elif right:
                lo[dim] = above
                kd = kd.right
            else:
                break
        else:
            out.append((kd.child_id, lo, hi))
    return out


def region_of_child(node: KDNode, region: Rect, child_id: int) -> Rect:
    """Region of one specific child (raises ``KeyError`` if absent)."""
    for leaf, leaf_region in leaves_with_regions(node, region):
        if leaf.child_id == child_id:
            return leaf_region
    raise KeyError(f"child {child_id} not in this kd-tree")


def replace_leaf(node: KDNode, child_id: int, replacement: KDNode) -> KDNode:
    """Return the kd-tree with the leaf for ``child_id`` swapped for
    ``replacement`` (identity elsewhere).  Used when a child splits: its leaf
    becomes a fresh ``KDInternal`` over the two halves.
    """
    if isinstance(node, KDLeaf):
        return replacement if node.child_id == child_id else node
    node.left = replace_leaf(node.left, child_id, replacement)
    node.right = replace_leaf(node.right, child_id, replacement)
    return node


def remove_leaf(node: KDNode, child_id: int) -> KDNode | None:
    """Return the kd-tree with the leaf for ``child_id`` pruned.

    The leaf's sibling subtree is promoted into its parent's place, which
    implicitly widens the regions of the surviving side (their constraints
    from the removed internal node disappear) without disturbing any other
    pairwise separation.  Returns ``None`` if the whole tree was that leaf.
    """
    if isinstance(node, KDLeaf):
        return None if node.child_id == child_id else node
    left = remove_leaf(node.left, child_id)
    if left is None:
        return node.right
    right = remove_leaf(node.right, child_id)
    if right is None:
        return left
    node.left = left
    node.right = right
    return node


def prune_to_children(node: KDNode, keep: set[int]) -> KDNode | None:
    """Restrict the kd-tree to the children in ``keep`` (index-node split).

    Internal nodes left with a single side are elided.  Because any two kept
    children retain their lowest common ancestor split, every pairwise
    separation (in particular the disjointness of data-level regions) is
    preserved exactly — this is why the hybrid tree *prunes* rather than
    rebuilds when an index node splits.
    """
    if isinstance(node, KDLeaf):
        return node if node.child_id in keep else None
    left = prune_to_children(node.left, keep)
    right = prune_to_children(node.right, keep)
    if left is None:
        return right
    if right is None:
        return left
    return KDInternal(node.dim, node.lsp, node.rsp, left, right)


def split_dimensions(node: KDNode) -> set[int]:
    """Dimensions actually used by splits in this kd-tree (Lemma 1 support)."""
    return {internal.dim for internal in iter_internals(node)}


def validate_kdtree(node: KDNode, region: Rect) -> None:
    """Assert structural invariants; raises ``AssertionError`` on violation.

    Checks ``lsp >= rsp`` everywhere, split positions within the region, and
    that derived child regions are proper sub-rectangles of the node region.
    """
    if isinstance(node, KDLeaf):
        return
    assert node.lsp >= node.rsp, f"gap at {node!r}"
    assert 0 <= node.dim < region.dims, f"bad dim at {node!r}"
    left_region = region.clip_below(node.dim, node.lsp)
    right_region = region.clip_above(node.dim, node.rsp)
    assert region.contains_rect(left_region)
    assert region.contains_rect(right_region)
    validate_kdtree(node.left, left_region)
    validate_kdtree(node.right, right_region)
