"""Reference copies of the object form of the intranode kd-tree.

The hybrid tree's index nodes hold only split tables
(:class:`repro.core.kdnodes.SplitTable`), and every write step is a table
edit.  The tests keep the object form those edits replaced — one
``KDInternal`` per split, one ``KDLeaf`` per child, edited by recursion —
to check each table edit bit for bit against the object edit followed by
:func:`split_table`, and to build kd-trees by hand.  The recursive helpers
hit the interpreter's recursion limit on deep kd-trees; the tests use them
on shallow ones only.
"""

from __future__ import annotations

import numpy as np

from repro.core.kdnodes import SplitTable, from_preorder, split_mids
from repro.geometry.rect import Rect


class KDLeaf:
    __slots__ = ("child_id",)

    def __init__(self, child_id: int):
        self.child_id = child_id


class KDInternal:
    __slots__ = ("dim", "lsp", "rsp", "left", "right")

    def __init__(self, dim: int, lsp: float, rsp: float, left, right):
        if lsp < rsp:
            raise ValueError(f"coverage gap: lsp ({lsp}) < rsp ({rsp})")
        self.dim = dim
        self.lsp = float(lsp)
        self.rsp = float(rsp)
        self.left = left
        self.right = right

    @property
    def overlap(self) -> float:
        return self.lsp - self.rsp


def iter_leaves(node):
    stack = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            yield kd
        else:
            stack.append(kd.right)
            stack.append(kd.left)


def iter_internals(node):
    """Splits in preorder (iterative)."""
    stack = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDInternal):
            yield kd
            stack.append(kd.right)
            stack.append(kd.left)


def child_ids(node) -> list[int]:
    return [leaf.child_id for leaf in iter_leaves(node)]


def count_leaves(node) -> int:
    return len(child_ids(node))


def leaves_with_regions(node, region: Rect):
    """The Section 3.1 mapping, one ``Rect`` clip per split."""
    if isinstance(node, KDLeaf):
        yield node, region
        return
    yield from leaves_with_regions(node.left, region.clip_below(node.dim, node.lsp))
    yield from leaves_with_regions(node.right, region.clip_above(node.dim, node.rsp))


def replace_leaf(node, child_id: int, replacement):
    if isinstance(node, KDLeaf):
        return replacement if node.child_id == child_id else node
    node.left = replace_leaf(node.left, child_id, replacement)
    node.right = replace_leaf(node.right, child_id, replacement)
    return node


def remove_leaf(node, child_id: int):
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


def prune_to_children(node, keep: set[int]):
    if isinstance(node, KDLeaf):
        return node if node.child_id in keep else None
    left = prune_to_children(node.left, keep)
    right = prune_to_children(node.right, keep)
    if left is None:
        return right
    if right is None:
        return left
    return KDInternal(node.dim, node.lsp, node.rsp, left, right)


def f32_outward(x: float, toward: float) -> float:
    v = np.float32(x)
    if (toward > 0 and v < x) or (toward < 0 and v > x):
        v = np.nextafter(v, np.float32(toward))
    return float(v)


def widen_path_to(kd, child_id: int, low, high) -> bool:
    """Adjust lsp/rsp along the path to ``child_id`` so its region
    contains ``[low, high]``; positions round outward to float32."""
    if isinstance(kd, KDLeaf):
        return kd.child_id == child_id
    if widen_path_to(kd.left, child_id, low, high):
        if high[kd.dim] > kd.lsp:
            kd.lsp = f32_outward(high[kd.dim], np.inf)
        return True
    if widen_path_to(kd.right, child_id, low, high):
        if low[kd.dim] < kd.rsp:
            kd.rsp = f32_outward(low[kd.dim], -np.inf)
        return True
    return False


def split_table(node) -> SplitTable:
    """The kd-tree's split table, by one iterative preorder walk."""
    ids: list[int] = []
    splits: list[tuple] = []
    end: list[int] = []
    stack: list = [node]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            ids.append(kd.child_id)
        elif isinstance(kd, KDInternal):
            stack += (len(end), kd.right, kd.left)
            splits.append((kd.dim, kd.lsp, kd.rsp, len(ids)))
            end.append(0)
        else:
            end[kd] = len(ids)
    return from_preorder(ids, splits, end)


def kd_from_table(table: SplitTable):
    """The kd objects a split table describes (the inverse of
    :func:`split_table`); children are built before their parents."""
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


def same_table(a: SplitTable, b: SplitTable) -> bool:
    """Column by column: equal dtypes, shapes and bytes."""
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )
