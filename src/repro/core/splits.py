"""Node-splitting algorithms (paper Sections 3.2 and 3.3).

Three pieces:

- :func:`split_segments` — data-node splits: EDA-optimal dimension choice
  (maximum live extent; Section 3.2 proves optimality independent of query
  size and data distribution), split position as close to the middle as the
  utilization constraint allows, always *clean* (``lsp == rsp``), applied to
  every segment of a dims-major array at once (bulk load splits a whole
  split-tree level per call); :func:`choose_data_split` is its one-segment
  case.
- :func:`bipartition_intervals` — the 1-d interval bipartitioning that plays
  the role of R-tree bipartitioning for index-node splits: alternately drain
  the by-left-boundary and by-right-boundary sorted lists until utilization
  is met, then place the rest by least elongation.  ``O(n log n)``.
- :func:`choose_index_split` — index-node splits: run the bipartition along
  every candidate dimension, then pick the dimension minimizing the EDA
  increase ``(w_j + r) / (s_j + r)`` (Section 3.3); overlap ``w_j > 0`` is
  accepted exactly when a clean split would violate utilization.

Split choosers accept ``policy="eda"`` (the paper's algorithm),
``policy="vam"`` (the VAMSplit baseline of Figure 5(a,b): maximum-variance
dimension, median position) or ``policy="rr"`` (round-robin dimension choice,
the LSDh-tree's strategy [Henrich 1998], kept to demonstrate why Lemma 1's
implicit dimensionality reduction needs an *informed* dimension choice);
its cycle position is a :class:`RoundRobin`, one per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.geometry.rect import Rect

POLICY_EDA = "eda"
POLICY_VAM = "vam"
POLICY_RR = "rr"
_POLICIES = (POLICY_EDA, POLICY_VAM, POLICY_RR)


class RoundRobin:
    """The ``rr`` policy's state: the dimension the next split tries first.

    Every tree holds its own, so two ``rr`` trees in one process cycle
    independently.  Calls that pass none share one per dimensionality,
    which :func:`reset_round_robin` restarts."""

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 0

    def orders(self, count: int, dims: int) -> np.ndarray:
        """The dimension orders of the next ``count`` splits, one row each;
        each split starts one dimension after the one before it."""
        first = (self.next + np.arange(count)) % dims
        self.next = (self.next + count) % dims
        return (first[:, None] + np.arange(dims)) % dims


_shared_rr: dict[int, RoundRobin] = {}


def _rr_state(rr: RoundRobin | None, dims: int) -> RoundRobin:
    return rr if rr is not None else _shared_rr.setdefault(dims, RoundRobin())


def reset_round_robin() -> None:
    """Restart the shared round-robin cycling of calls that pass no
    :class:`RoundRobin` (for reproducible direct ``rr`` splits)."""
    _shared_rr.clear()

POSITION_MIDDLE = "middle"
POSITION_MEDIAN = "median"
_POSITIONS = (POSITION_MIDDLE, POSITION_MEDIAN)


@dataclass(frozen=True)
class DataSplit:
    """Outcome of a data-node split: clean 1-d cut at ``position``."""

    dim: int
    position: float
    left_indices: np.ndarray
    right_indices: np.ndarray


@dataclass(frozen=True)
class IndexSplit:
    """Outcome of an index-node split: possibly overlapping cut.

    ``lsp >= rsp``; ``lsp - rsp`` is the overlap the EDA criterion accepted
    to preserve utilization without cascading splits.
    """

    dim: int
    lsp: float
    rsp: float
    left_ids: list[int]
    right_ids: list[int]

    @property
    def overlap(self) -> float:
        return self.lsp - self.rsp


def _validate_policy(policy: str, position_rule: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"unknown split policy {policy!r}; expected one of {_POLICIES}")
    if position_rule not in _POSITIONS:
        raise ValueError(
            f"unknown position rule {position_rule!r}; expected one of {_POSITIONS}"
        )


# ----------------------------------------------------------------------
# Data node splitting (Section 3.2)
# ----------------------------------------------------------------------
class SegmentSplits(NamedTuple):
    """Outcome of :func:`split_segments`: one clean (or rank) cut per
    segment, and the column order that puts each low side first."""

    dim: np.ndarray  # intp (S,)
    position: np.ndarray  # float64 (S,)
    left: np.ndarray  # intp (S,)  points on the low side
    source: np.ndarray  # intp (n,)  split column p is input column source[p]


# Elements in one padded block of segments: the rule's temporaries take
# about 40 bytes per element.
_BLOCK_ELEMS = 1 << 16


def split_segments(
    work: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    min_fill: float,
    policy: str = POLICY_EDA,
    position_rule: str = POSITION_MIDDLE,
    rr: RoundRobin | None = None,
) -> SegmentSplits:
    """Split every segment of ``work``'s columns in one set of array passes.

    ``work`` is a dims-major ``(d, n)`` array of points (one column per
    point); segment ``i`` is the columns ``starts[i]:starts[i] + sizes[i]``
    (disjoint, each of at least 2 points).  Each segment is split by the
    same rule as :func:`choose_data_split`: dimension order by decreasing
    live extent (``eda``) or variance (``vam``), or the round-robin cycle
    (``rr``, one step per segment in order); position at the live-box
    middle or the median, slid to the nearest clean cut the utilization
    bound allows; next dimension when none exists; a rank split when no
    dimension has one.  Extents, midpoints and variances are float64 of
    the stored values, whatever ``work``'s dtype.

    ``work`` is not modified.  ``source`` orders each segment low side
    first, keeping the input order within each side (sorted by the split
    dimension after a rank split), and leaves other columns in place.
    """
    _validate_policy(policy, position_rule)
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    if (sizes < 2).any():
        raise ValueError("cannot split fewer than 2 points")
    dims, n = work.shape
    min_count = np.maximum(np.floor(sizes * min_fill).astype(np.intp), 1)
    min_count = np.where(2 * min_count > sizes, sizes // 2, min_count)
    orders = _dim_orders(work, starts, sizes, policy, rr)

    dim = orders[:, 0].copy()
    position = np.empty(len(starts))
    left = np.zeros(len(starts), dtype=np.intp)
    source = np.arange(n)
    # Segments without a clean cut on a dimension retry their next one.
    todo = np.arange(len(starts))
    for rank in range(dims):
        if not len(todo):
            break
        for seg in _size_blocks(todo, sizes):
            ok, k, pos = _clean_cuts(
                work, starts[seg], sizes[seg], orders[seg, rank], min_count[seg],
                position_rule, source,
            )
            dim[seg[ok]] = orders[seg[ok], rank]
            left[seg[ok]] = k
            position[seg[ok]] = pos
        todo = todo[left[todo] == 0]
    # Duplicates block every clean cut: rank-split on the first dimension.
    for seg in _size_blocks(todo, sizes):
        left[seg], position[seg] = _rank_splits(
            work, starts[seg], sizes[seg], dim[seg], source
        )
    return SegmentSplits(dim, position, left, source)


def _dim_orders(
    work: np.ndarray, starts: np.ndarray, sizes: np.ndarray, policy: str, rr
) -> np.ndarray:
    """Each segment's dimensions in the order the rule tries them."""
    dims, n = work.shape
    if policy == POLICY_RR:  # uninformed cycling (LSDh-style)
        return _rr_state(rr, dims).orders(len(starts), dims)
    if policy == POLICY_EDA:  # live extents
        # reduceat reduces from each bound to the next: bound every
        # segment's end too, so columns between segments stay out.
        ends = starts + sizes
        bounds = np.unique(np.concatenate((starts, ends[ends < n])))
        pick = np.searchsorted(bounds, starts)
        high = np.maximum.reduceat(work, bounds, axis=1)[:, pick]
        low = np.minimum.reduceat(work, bounds, axis=1)[:, pick]
        scores = (high.astype(np.float64) - low.astype(np.float64)).T
    else:  # variances, over each segment's rows in their order
        scores = np.array([
            np.ascontiguousarray(work[:, s : s + m].T, dtype=np.float64).var(axis=0)
            for s, m in zip(starts.tolist(), sizes.tolist())
        ]).reshape(len(starts), dims)
    return np.argsort(-scores, axis=1, kind="stable")


def _size_blocks(seg: np.ndarray, sizes: np.ndarray):
    """Split segment ids ``seg`` into groups of similar size whose padded
    ``(group, longest)`` blocks hold about :data:`_BLOCK_ELEMS` elements
    (one segment at least)."""
    seg = seg[np.argsort(sizes[seg], kind="stable")]
    widths = sizes[seg]
    i = 0
    while i < len(seg):
        rows = np.arange(1, len(seg) - i + 1)
        j = i + max(1, int(np.searchsorted(rows * widths[i:], _BLOCK_ELEMS, side="right")))
        yield seg[i:j]
        i = j


def _gather(work, starts, sizes, dim):
    """The segments' values on ``dim`` as a padded ``(S, longest)`` block
    (padding ``+inf``, after every value), with each entry's column."""
    cols = starts[:, None] + np.arange(int(sizes.max()))
    pad = cols >= (starts + sizes)[:, None]
    np.minimum(cols, work.shape[1] - 1, out=cols)
    raw = work[dim[:, None], cols]
    raw[pad] = np.inf
    return raw, cols, pad


def _clean_cuts(work, starts, sizes, dim, min_count, position_rule, source):
    """The nearest clean cut to each segment's target on ``dim`` that the
    utilization bound allows.  Returns ``(ok, k, position)`` for the
    segments that have one (``k`` points go low) and writes their low-side
    first order into ``source``."""
    raw, cols, pad = _gather(work, starts, sizes, dim)
    values = np.sort(raw, axis=1)
    rows = np.arange(len(starts))
    lo, hi = min_count, sizes - min_count
    if position_rule == POSITION_MIDDLE:
        middle = (
            values[:, 0].astype(np.float64) + values[rows, sizes - 1].astype(np.float64)
        ) / 2.0
        target = np.count_nonzero(values <= middle[:, None], axis=1)
    else:
        target = sizes // 2
    target = np.clip(target, lo, hi)[:, None]
    # Cut k (k points low) needs a strict gap values[k-1] < values[k].
    cut = np.arange(1, values.shape[1])
    gap = (values[:, 1:] > values[:, :-1]) & (cut >= lo[:, None]) & (cut <= hi[:, None])
    below = gap & (cut <= target)
    above = gap & (cut >= target)
    k_below = np.where(below.any(axis=1), len(cut) - np.argmax(below[:, ::-1], axis=1), 0)
    k_above = np.where(above.any(axis=1), 1 + np.argmax(above, axis=1), 0)
    target = target[:, 0]
    # Equally near: the lower cut, as the scan outward from the target finds.
    take_below = (k_below > 0) & ((k_above == 0) | (target - k_below <= k_above - target))
    k = np.where(take_below, k_below, k_above)
    ok = k > 0
    k, raw, cols, pad, values = k[ok], raw[ok], cols[ok], pad[ok], values[ok]
    rows = np.arange(len(k))
    cut_low = values[rows, k - 1]
    position = (cut_low.astype(np.float64) + values[rows, k].astype(np.float64)) / 2.0

    # Stable partition: each side keeps the segment's column order.
    low = raw <= cut_low[:, None]
    high = ~low & ~pad
    rank = np.where(
        low, np.cumsum(low, axis=1) - 1, np.cumsum(high, axis=1) - 1 + k[:, None]
    )
    live = ~pad
    source[(starts[ok][:, None] + rank)[live]] = cols[live]
    return ok, k, position


def _rank_splits(work, starts, sizes, dim, source):
    """Rank splits at each segment's median on ``dim`` (stable order, so
    duplicates keep their column order).  Returns ``(k, position)``, the
    position being the value of the last low point, and writes the sorted
    order into ``source``."""
    raw, _, pad = _gather(work, starts, sizes, dim)
    order = np.argsort(raw, axis=1, kind="stable")
    k = sizes // 2
    position = raw[np.arange(len(starts)), order[np.arange(len(starts)), k - 1]]
    live = ~pad  # padding sorts after every value
    source[(starts[:, None] + np.arange(raw.shape[1]))[live]] = (starts[:, None] + order)[live]
    return k, position.astype(np.float64)


def choose_data_split(
    points: np.ndarray,
    min_fill: float,
    policy: str = POLICY_EDA,
    position_rule: str = POSITION_MIDDLE,
    rr: RoundRobin | None = None,
) -> DataSplit:
    """Split ``points`` (the overflowing node's entries) into two halves:
    :func:`split_segments` on one segment.

    Dimension order: by decreasing live extent (``eda``) or decreasing
    variance (``vam``).  Position: the live-box middle (``middle``) or the
    median (``median``), shifted just enough to satisfy the utilization
    constraint, and always placed strictly between two distinct coordinate
    values so the cut is geometrically clean.  Dimensions where no clean cut
    satisfies utilization (heavy duplicates) are skipped; if every dimension
    fails, the split degrades to a rank split at the duplicated value (both
    halves then touch the cut plane, which remains correct because the plane
    belongs to both closed regions).  ``rr`` is the round-robin state
    (:class:`RoundRobin`); without one, calls share a counter per
    dimensionality.
    """
    points = np.asarray(points)
    n = points.shape[0]
    split = split_segments(points.T, [0], [n], min_fill, policy, position_rule, rr)
    k = int(split.left[0])
    return DataSplit(
        int(split.dim[0]), float(split.position[0]), split.source[:k], split.source[k:]
    )


# ----------------------------------------------------------------------
# 1-d interval bipartitioning (Section 3.3, "choice of split position")
# ----------------------------------------------------------------------
def bipartition_intervals(
    intervals: np.ndarray, min_per_side: int
) -> tuple[list[int], list[int], float, float]:
    """Partition 1-d segments into two groups minimizing overlap.

    ``intervals`` is an ``(n, 2)`` array of ``(low, high)`` segments — the
    children's regions projected on the candidate split dimension.  Segments
    are drawn alternately from the leftmost-first and rightmost-first sorted
    orders into the left and right group until both reach ``min_per_side``;
    the remainder goes wherever it elongates the group boundary least.

    Returns ``(left_indices, right_indices, lsp, rsp)`` where ``lsp`` is the
    right boundary of the left group and ``rsp`` the left boundary of the
    right group.  A clean cut with a gap is snapped to the gap's midpoint so
    the two regions tile the space (``lsp >= rsp`` always holds on return).
    """
    intervals = np.asarray(intervals, dtype=np.float64)
    n = intervals.shape[0]
    if n < 2:
        raise ValueError("need at least 2 intervals to bipartition")
    if min_per_side < 1 or 2 * min_per_side > n:
        raise ValueError(f"min_per_side {min_per_side} infeasible for {n} intervals")

    by_left = sorted(range(n), key=lambda i: (intervals[i, 0], intervals[i, 1]))
    by_right = sorted(range(n), key=lambda i: (-intervals[i, 1], -intervals[i, 0]))
    assigned = np.full(n, -1, dtype=np.int8)  # -1 free, 0 left, 1 right
    left: list[int] = []
    right: list[int] = []
    li = ri = 0
    while len(left) < min_per_side or len(right) < min_per_side:
        if len(left) < min_per_side:
            while assigned[by_left[li]] != -1:
                li += 1
            assigned[by_left[li]] = 0
            left.append(by_left[li])
        if len(right) < min_per_side:
            while assigned[by_right[ri]] != -1:
                ri += 1
            assigned[by_right[ri]] = 1
            right.append(by_right[ri])

    lsp = max(intervals[i, 1] for i in left)
    rsp = min(intervals[i, 0] for i in right)
    for i in by_left:
        if assigned[i] != -1:
            continue
        lo, hi = intervals[i]
        elong_left = max(0.0, hi - lsp)
        elong_right = max(0.0, rsp - lo)
        go_left = elong_left < elong_right or (
            elong_left == elong_right and len(left) <= len(right)
        )
        if go_left:
            left.append(i)
            lsp = max(lsp, hi)
        else:
            right.append(i)
            rsp = min(rsp, lo)

    if lsp < rsp:  # clean split with a gap: snap to midpoint so regions tile
        lsp = rsp = (lsp + rsp) / 2.0
    return left, right, float(lsp), float(rsp)


# ----------------------------------------------------------------------
# Index node splitting (Section 3.3)
# ----------------------------------------------------------------------
def choose_index_split(
    children: list[tuple[int, Rect]],
    min_fill: float,
    query_side: float,
    policy: str = POLICY_EDA,
    rr: RoundRobin | None = None,
) -> IndexSplit:
    """Split an overflowing index node's children into two groups.

    For every dimension the best bipartition is computed first; the split
    dimension is then the one minimizing ``(w_j + r) / (s_j + r)`` (``eda``)
    or simply the maximum-variance-of-centres dimension (``vam``).  ``s_j``
    is the extent of the hull of the children's regions, so dimensions never
    used for splits below (``w_j == s_j``) cost 1.0 and are implicitly
    eliminated (Lemma 1).  ``rr`` is as for :func:`choose_data_split`.
    """
    _validate_policy(policy, POSITION_MIDDLE)
    n = len(children)
    if n < 2:
        raise ValueError("need at least 2 children to split an index node")
    min_per_side = max(1, int(np.floor(n * min_fill)))
    if 2 * min_per_side > n:
        min_per_side = n // 2

    lows = np.array([rect.low for _, rect in children])
    highs = np.array([rect.high for _, rect in children])
    dims = lows.shape[1]
    hull_extent = highs.max(axis=0) - lows.min(axis=0)

    if policy == POLICY_VAM:
        centers = (lows + highs) / 2.0
        candidate_dims: list[int] = [int(np.argmax(centers.var(axis=0)))]
    elif policy == POLICY_RR:
        candidate_dims = [int(_rr_state(rr, dims).orders(1, dims)[0, 0])]
    else:
        candidate_dims = list(range(dims))

    best: IndexSplit | None = None
    best_cost = np.inf
    for dim in candidate_dims:
        intervals = np.stack([lows[:, dim], highs[:, dim]], axis=1)
        left, right, lsp, rsp = bipartition_intervals(intervals, min_per_side)
        overlap = max(0.0, lsp - rsp)
        denom = hull_extent[dim] + query_side
        cost = (overlap + query_side) / denom if denom > 0 else np.inf
        if cost < best_cost:
            best_cost = cost
            best = IndexSplit(
                dim,
                lsp,
                rsp,
                [children[i][0] for i in left],
                [children[i][0] for i in right],
            )
    assert best is not None
    return best
