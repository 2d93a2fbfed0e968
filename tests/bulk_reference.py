"""Reference copy of the bulk loader's data level as it was before the
level-synchronous loader.

:func:`repro.core.bulkload._data_level` splits every over-full partition
of a split-tree level in one set of array passes
(:func:`repro.core.splits.split_segments`).  The tests keep the form it
replaced — one :func:`choose_data_split` call per node, on a float64 copy
of the node's points, recursing left side first — to check the loader and
the one-segment rule bit for bit against it.  :func:`_data_level` has the
loader's signature, so monkeypatching ``repro.core.bulkload._data_level``
with it builds a whole reference tree.
"""

from __future__ import annotations

import numpy as np

from repro.core.kdnodes import SplitTable, from_preorder
from repro.core.nodes import DataNode
from repro.core.splits import POLICY_EDA, POLICY_VAM, POSITION_MIDDLE, DataSplit


def choose_data_split(
    points: np.ndarray,
    min_fill: float,
    policy: str = POLICY_EDA,
    position_rule: str = POSITION_MIDDLE,
) -> DataSplit:
    """The Section 3.2 data-node split on one node, in the input's dtype
    (``eda`` and ``vam`` only)."""
    points = np.asarray(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    min_count = max(1, int(np.floor(n * min_fill)))
    if 2 * min_count > n:
        min_count = n // 2

    if policy == POLICY_EDA:
        scores = points.max(axis=0) - points.min(axis=0)  # live extents
    elif policy == POLICY_VAM:
        scores = points.var(axis=0)
    else:
        raise ValueError(f"the reference covers eda and vam, not {policy!r}")
    dim_order = np.argsort(-scores, kind="stable")

    for dim in dim_order:
        dim = int(dim)
        values = np.sort(points[:, dim], kind="stable")
        if position_rule == POSITION_MIDDLE:
            target_pos = (values[0] + values[-1]) / 2.0
            target_k = int(np.searchsorted(values, target_pos, side="right"))
        else:
            target_k = n // 2
        split_k = _closest_clean_cut(values, target_k, min_count, n - min_count)
        if split_k is None:
            continue
        position = float(values[split_k - 1] + values[split_k]) / 2.0
        column = points[:, dim]
        left = np.flatnonzero(column <= values[split_k - 1])
        right = np.flatnonzero(column > values[split_k - 1])
        return DataSplit(dim, position, left, right)

    # Duplicates block every clean cut: rank-split on the best dimension.
    dim = int(dim_order[0])
    order = np.argsort(points[:, dim], kind="stable")
    k = n // 2
    position = float(points[order[k - 1], dim])
    return DataSplit(dim, position, order[:k], order[k:])


def _closest_clean_cut(
    values: np.ndarray, target_k: int, lo: int, hi: int
) -> int | None:
    """Smallest |k - target_k| with ``lo <= k <= hi`` and a strict value gap
    ``values[k-1] < values[k]``; the lower ``k`` on a tie."""
    target_k = int(np.clip(target_k, lo, hi))
    n = len(values)
    for delta in range(0, max(target_k - lo, hi - target_k) + 1):
        for k in (target_k - delta, target_k + delta):
            if lo <= k <= hi and 0 < k < n and values[k - 1] < values[k]:
                return k
    return None


def _data_level(tree, vectors: np.ndarray, oids: np.ndarray, n: int) -> SplitTable:
    """Split the dataset down to data pages, one node at a time in
    preorder, left side first."""
    ids: list[int] = []
    splits: list[tuple] = []
    end: list[int] = []
    # An int on the stack closes that split's row range.
    stack: list = [np.arange(n)]
    while stack:
        indices = stack.pop()
        if isinstance(indices, int):
            end[indices] = len(ids)
        elif len(indices) <= tree.data_capacity:
            node = DataNode(tree.dims, tree.data_capacity)
            node.vectors[: len(indices)] = vectors[indices]
            node.oids[: len(indices)] = oids[indices]
            node.count = len(indices)
            node_id = tree.nm.allocate()
            tree.nm.put(node_id, node, charge=False)
            tree.els.set(node_id, node.live_rect())
            ids.append(node_id)
        else:
            split = choose_data_split(
                vectors[indices].astype(np.float64),
                tree.min_fill,
                tree.split_policy,
                tree.split_position,
            )
            pos = float(np.float32(split.position))
            splits.append((split.dim, pos, pos, len(ids)))
            stack += (len(end), indices[split.right_indices], indices[split.left_indices])
            end.append(0)
    return from_preorder(ids, splits, end)
