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


def leaf_region_arrays(
    node: KDNode, low: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`leaves_with_regions` as arrays: ``(child_ids, lows, highs)``.

    Leaves are numbered left to right, so each internal node's two
    subtrees own two contiguous row ranges, and the internal nodes at one
    kd depth own disjoint ones.  Applying each depth's clamped clips (as
    :meth:`Rect.clip_below` / :meth:`Rect.clip_above` do) in one array step,
    shallowest depth first, gives each row exactly the clips of its kd
    path, in path order — the same floats, without a ``Rect`` per step.
    """
    ids: list[int] = []
    # Per internal node: depth, first row, first right row, end row, dim,
    # lsp, rsp.
    rec: list = []

    def walk(kd: KDNode, depth: int) -> None:
        if isinstance(kd, KDLeaf):
            ids.append(kd.child_id)
            return
        first = len(ids)
        walk(kd.left, depth + 1)
        mid = len(ids)
        walk(kd.right, depth + 1)
        rec.extend((depth, first, mid, len(ids), kd.dim, kd.lsp, kd.rsp))

    walk(node, 0)
    lows = np.tile(np.asarray(low, dtype=np.float64), (len(ids), 1))
    highs = np.tile(np.asarray(high, dtype=np.float64), (len(ids), 1))
    if rec:
        table = np.array(rec).reshape(-1, 7)
        table = table[np.argsort(table[:, 0], kind="stable")]
        depth, first, mid, end, dim = table[:, :5].astype(np.intp).T
        dims = lows.shape[1]
        left = _cells_by_depth(depth, first, mid, dim, dims, table[:, 5])
        right = _cells_by_depth(depth, mid, end, dim, dims, table[:, 6])
        lo, hi = lows.reshape(-1), highs.reshape(-1)
        for (cells, lsp), (rcells, rsp) in zip(left, right):
            hi[cells] = np.minimum(hi[cells], np.maximum(lsp, lo[cells]))
            lo[rcells] = np.maximum(lo[rcells], np.minimum(rsp, hi[rcells]))
    return np.asarray(ids, dtype=np.int64), lows, highs


def _cells_by_depth(depth, start, stop, dim, dims: int, pos) -> list:
    """Per kd depth: the flat cells ``row * dims + dim`` of rows
    ``start:stop`` of every internal node at that depth (one side of its
    split), and the split position each cell is clipped with."""
    # Imported here: importing repro.engine imports this module.
    from repro.engine.bestfirst import concat_ranges

    counts = stop - start
    cells = np.repeat(start * dims + dim, counts) + concat_ranges(counts) * dims
    pos = np.repeat(pos, counts)
    cuts = np.searchsorted(np.repeat(depth, counts), np.arange(depth[-1] + 2))
    return [(cells[a:b], pos[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


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
