"""Vectorized traversal over a compiled :class:`SOASnapshot`.

Three entry points mirror :mod:`repro.engine.kernel` — same signatures
(plus the snapshot), the same checked :class:`~repro.engine.query.QueryBatch`,
same results, same accounting:

- ``soa_range_search_many`` / ``soa_distance_range_many`` run a
  *level-synchronous frontier*: the set of live ``(node, query)`` pairs is
  expanded to ``(edge, query)`` pairs with CSR arithmetic and pruned with
  one vectorized predicate per level, instead of one Python call per node
  per child.  Leaf hits are then replayed in DFS pre-order (occurrence id
  order), which reproduces the object walk's output order exactly.
- ``soa_knn_many`` keeps the object kernel's *sequential* branch-and-bound
  schedule (an explicit stack popping children best-bound-first, each pop
  re-filtered against the current kth distances) because k-NN pruning
  depends on the order leaves are scanned in — but computes every node's
  child-bound matrix in one array op and replaces the per-point Python
  heap with a ``(distance, oid)`` lexsort merge that selects the identical
  k smallest.

Bit-identity rules (asserted by ``tests/test_soa_conformance.py``):

- rect bounds evaluate the same elementwise clip-and-reduce formulas as
  ``mindist_rect_batch`` — row-wise reductions over ``axis=1`` of a 2-d
  array are independent of how many rows ride along, so per-pair batches
  match the object kernel's per-edge batches float for float;
- metrics without a mirrored batch form (quadratic form, user metrics)
  and all sphere geometry fall back to *per-edge grouped* calls of the
  exact same ``ChildBound`` / ``mindist_rect_many`` code the object
  kernel runs;
- leaf scans call ``metric.distance_batch`` on float64 slices with the
  same values and layout as the object kernel's per-leaf
  ``pts.astype(np.float64)``;
- each page is charged once per batch (supernodes charge their page
  count), and dedup structures scan each ``(page, query)`` pair once, at
  the query's first occurrence in DFS order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances import LpMetric, Metric, WeightedEuclidean, mindist_rect_many
from repro.engine.kernel import _finish, _reads, _wrap_partial
from repro.engine.query import QueryBatch
from repro.resilience import Deadline, QueryTimeoutError
from repro.storage.iostats import AccessKind

__all__ = [
    "soa_range_search_many",
    "soa_distance_range_many",
    "soa_knn_many",
]


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _concat_ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _charge_visited(index, snap, visited: np.ndarray) -> None:
    """One random read per distinct page visited this batch (supernodes
    charge their page count) — the object kernel's once-per-batch fetch."""
    occ = np.flatnonzero(visited)
    if not occ.size:
        return
    refs = snap.node_ref[occ]
    _, first = np.unique(refs, return_index=True)
    pages = int(snap.node_pages[occ][first].sum())
    if pages:
        index.io.record(AccessKind.RANDOM_READ, pages)


def _bisect_windows(
    scol: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    low_vals: np.ndarray,
    high_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``[lo, hi)`` rank windows in each leaf's sorted column.

    Vectorized bisection replicating ``np.searchsorted(seg, low, "left")``
    and ``np.searchsorted(seg, high, "right")`` for every (leaf, query)
    pair at once — the same exact float64 comparisons, finished in
    ``ceil(log2(max leaf size + 1))`` rounds of array ops instead of one
    Python-level call per leaf.  ``sizes`` must be >= 1.
    """
    npairs = len(starts)
    base = np.concatenate((starts, starts))
    size2 = np.concatenate((sizes, sizes))
    needles = np.concatenate((low_vals, high_vals))
    is_right = np.zeros(2 * npairs, dtype=bool)
    is_right[npairs:] = True
    lo = np.zeros(2 * npairs, dtype=np.int64)
    hi = size2.astype(np.int64)
    steps = int(np.ceil(np.log2(int(sizes.max()) + 1))) if npairs else 0
    for _ in range(steps):
        mid = (lo + hi) >> 1
        v = scol[base + np.minimum(mid, size2 - 1)]
        go = np.where(is_right, v <= needles, v < needles)
        upd = lo < hi
        lo = np.where(upd & go, mid + 1, lo)
        hi = np.where(upd & ~go, mid, hi)
    return lo[:npairs], lo[npairs:]


def _conservative_query_f32(
    lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Query boxes widened to the nearest enclosing float32 box.

    Lows round down and highs round up, so a float32 comparison against
    float32 data never rejects a row the exact float64 comparison keeps —
    the prefilter side of the prefilter-then-exact-check pattern.
    """
    lo = lows.astype(np.float32)
    lo = np.where(
        lo.astype(np.float64) > lows, np.nextafter(lo, np.float32(-np.inf)), lo
    )
    hi = highs.astype(np.float32)
    hi = np.where(
        hi.astype(np.float64) < highs, np.nextafter(hi, np.float32(np.inf)), hi
    )
    return lo, hi


def _per_edge_eval(edges: np.ndarray, fill, fn) -> np.ndarray:
    """Evaluate ``fn(edge_id, row_positions)`` once per distinct edge.

    Rows are regrouped with a stable sort, so each edge sees its queries in
    the original (ascending) order — the exact rows the object kernel
    passes that edge's ``ChildBound``.
    """
    out = np.empty(len(edges), dtype=fill)
    order = np.argsort(edges, kind="stable")
    sorted_edges = edges[order]
    starts = np.flatnonzero(np.diff(sorted_edges)) + 1
    for seg in np.split(order, starts):
        out[seg] = fn(int(edges[seg[0]]), seg)
    return out


class _PairBounds:
    """Pruning predicates over ``(edge, query)`` pair arrays.

    Chooses, per snapshot kind and metric, between fully vectorized pair
    math and per-edge grouped calls of the original bound objects — the
    two regimes described in the module docstring.
    """

    def __init__(self, snap, metric: Metric | None = None):
        self.snap = snap
        self.metric = metric
        self._rectlike = snap.kind in ("rect", "rect2")
        # Lp / weighted-Euclidean mindist_rect_batch is pure elementwise
        # clip-and-reduce, safe to evaluate with per-row boxes.
        self._vec_metric = isinstance(metric, (LpMetric, WeightedEuclidean))

    # -- box intersection ----------------------------------------------
    def box_mask(
        self,
        e: np.ndarray,
        q: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        q32: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        snap = self.snap
        if self._rectlike:
            if q32 is not None:
                # Conservative float32 prefilter (query lows rounded down,
                # highs up; box bounds the other way), then the exact
                # float64 test — row-wise Rect.intersects_boxes_mask — on
                # the few pairs the prefilter keeps.  Containment has no
                # arithmetic, so the final mask is bit-identical.
                lo32, hi32 = q32
                bl32, bh32 = snap.boxes32()
                cand = np.flatnonzero(
                    np.all((lo32[q] <= bh32[e]) & (bl32[e] <= hi32[q]), axis=1)
                )
                ec, qc = e[cand], q[cand]
                exact = np.all(
                    (lows[qc] <= snap.box_high[ec]) & (snap.box_low[ec] <= highs[qc]),
                    axis=1,
                )
                out = np.zeros(len(e), dtype=bool)
                out[cand[exact]] = True
                return out
            # Row-wise Rect.intersects_boxes_mask.
            return np.all(
                (lows[q] <= snap.box_high[e]) & (snap.box_low[e] <= highs[q]),
                axis=1,
            )
        bounds = snap.edge_bounds
        return _per_edge_eval(
            e, bool, lambda eid, seg: bounds[eid].box_mask(lows[q[seg]], highs[q[seg]])
        )

    # -- metric lower bounds -------------------------------------------
    def _rect_mindist(
        self, low: np.ndarray, high: np.ndarray, e: np.ndarray, qrows: np.ndarray
    ) -> np.ndarray:
        metric = self.metric
        # Mirrors LpMetric/WeightedEuclidean.mindist_rect_batch elementwise.
        clipped = np.clip(qrows, low[e], high[e])
        if isinstance(metric, WeightedEuclidean):
            diff = qrows - clipped
            return np.sqrt((metric.weights * diff * diff).sum(axis=1))
        diff = np.abs(qrows - clipped)
        if np.isinf(metric.p):
            return diff.max(axis=1)
        if metric.p == 1.0:
            return diff.sum(axis=1)
        if metric.p == 2.0:
            return np.sqrt((diff * diff).sum(axis=1))
        return (diff ** metric.p).sum(axis=1) ** (1.0 / metric.p)

    def mindist(self, e: np.ndarray, q: np.ndarray, qs: np.ndarray) -> np.ndarray:
        snap, metric = self.snap, self.metric
        if self._rectlike:
            low = snap.dist_low if snap.kind == "rect2" else snap.box_low
            high = snap.dist_high if snap.kind == "rect2" else snap.box_high
            if self._vec_metric:
                return self._rect_mindist(low, high, e, qs[q])
            return _per_edge_eval(
                e,
                np.float64,
                lambda eid, seg: mindist_rect_many(metric, qs[q[seg]], low[eid], high[eid]),
            )
        bounds = snap.edge_bounds
        return _per_edge_eval(
            e, np.float64, lambda eid, seg: bounds[eid].mindist(qs[q[seg]], metric)
        )

    def distance_mask(
        self, e: np.ndarray, q: np.ndarray, qs: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        if self._rectlike:
            return self.mindist(e, q, qs) <= radii[q]
        bounds = self.snap.edge_bounds
        metric = self.metric
        return _per_edge_eval(
            e,
            bool,
            lambda eid, seg: bounds[eid].distance_mask(
                qs[q[seg]], radii[q[seg]], metric
            ),
        )


# ----------------------------------------------------------------------
# Level-synchronous frontier (range / distance queries)
# ----------------------------------------------------------------------
def _run_frontier(snap, n: int, visits: np.ndarray, pair_pred, deadline=None,
                  visited: np.ndarray | None = None):
    """Descend all queries at once; returns the reached leaf pairs.

    ``pair_pred(e, q) -> bool mask`` decides which ``(edge, query)`` pairs
    survive.  Leaf pairs come back deduplicated (for dedup structures, the
    query's first occurrence in DFS order — the occurrence the object
    kernel scans) and sorted by ``(occurrence, query)``.  ``deadline`` is
    checked once per frontier round — each round is one batched level of
    array work, the natural cooperative-cancellation grain here.  The
    caller may supply the ``visited`` page-mask so a mid-frontier timeout
    still bills the pages actually touched.
    """
    nodes = np.zeros(n, dtype=np.int64)
    qs_idx = np.arange(n, dtype=np.int64)
    if visited is None:
        visited = np.zeros(snap.n_nodes, dtype=bool)
    leaf_occ_parts: list[np.ndarray] = []
    leaf_q_parts: list[np.ndarray] = []
    cs = snap.child_start
    while nodes.size:
        if deadline is not None:
            deadline.check()
        visits += np.bincount(qs_idx, minlength=n)
        visited[nodes] = True
        is_leaf = snap.node_is_leaf[nodes]
        if is_leaf.any():
            leaf_occ_parts.append(nodes[is_leaf])
            leaf_q_parts.append(qs_idx[is_leaf])
        inner = ~is_leaf
        nodes, qs_idx = nodes[inner], qs_idx[inner]
        if not nodes.size:
            break
        # The pairs arrive lexsorted by (node, query) without sorting:
        # the root level is trivially sorted, and each expansion emits,
        # per parent in ascending order, its edges in CSR order — whose
        # child occurrence ids ascend (DFS pre-order numbers subtrees
        # contiguously) and, across same-level parents, occupy disjoint
        # ascending id ranges.  Boolean filtering preserves the order, so
        # group boundaries fall out of a single diff.
        grp_start = np.concatenate(
            ([0], np.flatnonzero(np.diff(nodes)) + 1)
        ).astype(np.int64)
        uniq = nodes[grp_start]
        grp_len = np.diff(np.concatenate((grp_start, [len(nodes)])))
        n_edges = cs[uniq + 1] - cs[uniq]
        totals = n_edges * grp_len
        idx = _concat_ranges(totals)
        grp = np.repeat(np.arange(len(uniq), dtype=np.int64), totals)
        # Edge-major within each group: every edge sees the node's full
        # (ascending) alive set, like the object kernel's per-child call.
        e = cs[uniq][grp] + idx // grp_len[grp]
        q = qs_idx[grp_start[grp] + idx % grp_len[grp]]
        keep = pair_pred(e, q)
        nodes, qs_idx = snap.edge_child[e[keep]], q[keep]

    if leaf_occ_parts:
        occ = np.concatenate(leaf_occ_parts)
        lq = np.concatenate(leaf_q_parts)
    else:
        occ = np.empty(0, dtype=np.int64)
        lq = np.empty(0, dtype=np.int64)
    if snap.dedup and occ.size:
        # Keep each (page, query)'s first occurrence in DFS pre-order.
        refs = snap.node_ref[occ]
        order = np.lexsort((occ, lq, refs))
        refs_s, lq_s = refs[order], lq[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (refs_s[1:] != refs_s[:-1]) | (lq_s[1:] != lq_s[:-1])
        occ, lq = occ[order[first]], lq[order[first]]
    order = np.lexsort((lq, occ))
    return occ[order], lq[order], visited


def _leaf_groups(occ: np.ndarray, lq: np.ndarray):
    """Split ``(occurrence, query)`` pairs (sorted by occurrence) into
    per-occurrence groups — the replay of the object kernel's leaf visits
    in DFS order."""
    if not occ.size:
        return
    starts = np.flatnonzero(np.diff(occ)) + 1
    for seg in np.split(np.arange(len(occ)), starts):
        yield int(occ[seg[0]]), lq[seg]


def _pair_point_rows(snap, occ: np.ndarray, lq: np.ndarray, budget: int = 1 << 22):
    """Expand sorted ``(occurrence, query)`` leaf pairs into flat
    ``(point row, query)`` index arrays, in blocks of roughly ``budget``
    rows to bound peak memory.

    The flat order is ``(occurrence, query, point)`` — so for any single
    query, hits emerge in DFS-then-point order, exactly the object
    kernel's append order — and blocks follow that order too, so
    concatenating per-block hits preserves it.
    """
    sizes = snap.leaf_end[occ] - snap.leaf_start[occ]
    nz = sizes > 0
    occ, lq, sizes = occ[nz], lq[nz], sizes[nz]
    if not occ.size:
        return
    starts = snap.leaf_start[occ]
    csum = np.cumsum(sizes)
    lo = 0
    while lo < len(occ):
        base = int(csum[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(csum, base + budget, side="right")))
        blk = slice(lo, hi)
        pidx = np.repeat(starts[blk], sizes[blk]) + _concat_ranges(sizes[blk])
        yield pidx, np.repeat(lq[blk], sizes[blk])
        lo = hi


def _group_hits_by_query(hq: np.ndarray, parts: list[np.ndarray]):
    """Regroup flat hit arrays by query with one stable sort.

    Stability keeps each query's hits in their flat (DFS, point) order.
    Yields ``(query_index, per_query_slices_of_each_part)``.
    """
    order = np.argsort(hq, kind="stable")
    hq = hq[order]
    parts = [p[order] for p in parts]
    bounds = np.flatnonzero(np.diff(hq)) + 1
    firsts = np.concatenate((hq[:1], hq[bounds]))
    for qi, *segs in zip(firsts, *(np.split(p, bounds) for p in parts)):
        yield int(qi), segs


# ----------------------------------------------------------------------
# Box range queries
# ----------------------------------------------------------------------
def soa_range_search_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_range_search_many`."""
    start = time.perf_counter()
    reads0 = _reads(index.io)
    lows, highs = batch.lows, batch.highs
    n = len(batch)
    visits = np.zeros(n, dtype=np.int64)
    pred = _PairBounds(snap)

    q32 = _conservative_query_f32(lows, highs) if pred._rectlike else None
    out: list[list[int]] = [[] for _ in range(n)]
    visited = np.zeros(snap.n_nodes, dtype=bool)
    err = None
    try:
        occ, lq, _ = _run_frontier(
            snap, n, visits,
            lambda e, q: pred.box_mask(e, q, lows, highs, q32), deadline, visited,
        )
        if deadline is not None:
            deadline.check()
        # Leaf scan in three exact stages (containment is pure comparison, so
        # any evaluation order yields the same hit set as the object kernel's
        # per-leaf ``Rect.boxes_contain_points_mask``):
        #  1. dim 0 by rank: each leaf keeps its points presorted on the first
        #     coordinate, so a query's window is two binary searches — most
        #     points are never touched;
        #  2. a conservative float32 prefilter over the remaining dims;
        #  3. the exact float64 comparisons on the prefilter's survivors.
        # Hits are restored to the object walk's output order — per query, by
        # leaf occurrence in DFS order, then point order — with one lexsort.
        perm, scol = snap.leaf_sort0()
        lo32, hi32 = q32 if q32 is not None else _conservative_query_f32(lows, highs)
        s_arr, e_arr = snap.leaf_start[occ], snap.leaf_end[occ]
        nz = e_arr > s_arr
        pocc, palive, s_arr, sizes = occ[nz], lq[nz], s_arr[nz], (e_arr - s_arr)[nz]
        if pocc.size:
            win_lo, win_hi = _bisect_windows(
                scol, s_arr, sizes, lows[palive, 0], highs[palive, 0]
            )
            m = win_hi - win_lo
            live = np.flatnonzero(m > 0)
            pos = np.repeat(s_arr[live] + win_lo[live], m[live]) + _concat_ranges(m[live])
            pidx = perm[pos]
            qrow = np.repeat(palive[live], m[live])
            hocc = np.repeat(pocc[live], m[live])
            rest32 = snap.points[pidx, 1:]
            keep = np.flatnonzero(
                np.all(
                    (rest32 >= lo32[qrow, 1:]) & (rest32 <= hi32[qrow, 1:]), axis=1
                )
            )
            pidx, qrow, hocc = pidx[keep], qrow[keep], hocc[keep]
            rest64 = snap.points64[pidx, 1:]
            exact = np.all(
                (rest64 >= lows[qrow, 1:]) & (rest64 <= highs[qrow, 1:]), axis=1
            )
            pidx, qrow, hocc = pidx[exact], qrow[exact], hocc[exact]
            order = np.lexsort((pidx, hocc, qrow))
            hq, ho = qrow[order], snap.oids[pidx[order]]
            bounds = np.flatnonzero(np.diff(hq)) + 1
            for qi, seg_o in zip(
                np.concatenate((hq[:1], hq[bounds])), np.split(ho, bounds)
            ):
                out[int(qi)] = seg_o.tolist()
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    _charge_visited(index, snap, visited)
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )


# ----------------------------------------------------------------------
# Distance range queries
# ----------------------------------------------------------------------
def soa_distance_range_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_distance_range_many`."""
    start = time.perf_counter()
    reads0 = _reads(index.io)
    qs, radii, metric = batch.centers, batch.radii, batch.metric
    n = len(batch)
    visits = np.zeros(n, dtype=np.int64)
    pred = _PairBounds(snap, metric)

    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    visited = np.zeros(snap.n_nodes, dtype=bool)
    # Hit accumulators live outside the try so a mid-scan timeout can still
    # salvage the blocks already evaluated into the partial envelope.
    hit_q: list[np.ndarray] = []
    hit_o: list[np.ndarray] = []
    hit_d: list[np.ndarray] = []
    err = None
    try:
        occ, lq, _ = _run_frontier(
            snap, n, visits,
            lambda e, q: pred.distance_mask(e, q, qs, radii), deadline, visited,
        )
        if isinstance(metric, (LpMetric, WeightedEuclidean)):
            # These metrics' ``distance_batch`` is a row-wise abs/clip-free
            # difference plus an ``axis=1`` reduction — per-row results don't
            # depend on which other rows ride along, so one flat evaluation
            # over every (leaf, query, point) row is bit-identical to the
            # object kernel's per-leaf calls.
            for pidx, qrow in _pair_point_rows(snap, occ, lq):
                if deadline is not None:
                    deadline.check()
                diff = snap.points64[pidx] - qs[qrow]
                if isinstance(metric, WeightedEuclidean):
                    dists = np.sqrt((metric.weights * diff * diff).sum(axis=1))
                else:
                    diff = np.abs(diff)
                    if np.isinf(metric.p):
                        dists = diff.max(axis=1)
                    elif metric.p == 1.0:
                        dists = diff.sum(axis=1)
                    elif metric.p == 2.0:
                        dists = np.sqrt((diff * diff).sum(axis=1))
                    else:
                        dists = (diff ** metric.p).sum(axis=1) ** (1.0 / metric.p)
                hits = np.flatnonzero(dists <= radii[qrow])
                if hits.size:
                    hit_q.append(qrow[hits])
                    hit_o.append(snap.oids[pidx[hits]])
                    hit_d.append(dists[hits])
        else:
            # Quadratic-form / user metrics have no mirrored batch form:
            # replay the object kernel's per-leaf scans verbatim.
            for node, alive in _leaf_groups(occ, lq):
                if deadline is not None:
                    deadline.check()
                s, e = snap.leaf_start[node], snap.leaf_end[node]
                if e > s:
                    points64 = snap.points64[s:e]
                    oids = snap.oids[s:e]
                    for qi in alive:
                        dists = metric.distance_batch(points64, qs[qi])
                        for i in np.flatnonzero(dists <= radii[qi]):
                            out[qi].append((int(oids[i]), float(dists[i])))
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    if hit_q:
        for qi, (oid_seg, d_seg) in _group_hits_by_query(
            np.concatenate(hit_q),
            [np.concatenate(hit_o), np.concatenate(hit_d)],
        ):
            out[qi] = list(zip(oid_seg.tolist(), d_seg.tolist()))
    _charge_visited(index, snap, visited)
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )


# ----------------------------------------------------------------------
# k-nearest-neighbour queries
# ----------------------------------------------------------------------
def soa_knn_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_knn_many`.

    The explicit stack pops children in exactly the object kernel's
    recursion order, so every kth-distance re-filter sees the same state
    and the visit sequence — hence the exact result under the
    ``(distance, oid)`` total order — is identical.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    qs, k, metric = batch.centers, batch.k, batch.metric
    n = len(batch)
    shrink = 1.0 / (1.0 + batch.approximation_factor)
    pred = _PairBounds(snap, metric)

    best_d: list[np.ndarray] = [np.empty(0)] * n
    best_o: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    kth = np.full(n, np.inf)
    visits = np.zeros(n, dtype=np.int64)
    visited = np.zeros(snap.n_nodes, dtype=bool)
    scanned: dict[int, np.ndarray] = {}
    cs = snap.child_start

    # Stack entries: (node, alive, bounds-at-push); bounds None for the root.
    stack: list[tuple] = [(0, np.arange(n, dtype=np.int64), None)]

    err = None
    try:
        while stack:
            if deadline is not None:
                deadline.check()
            node, alive, bnds = stack.pop()
            if bnds is not None:
                # Re-filter against the *current* kth: earlier siblings may
                # have tightened it since the bounds were computed.
                alive = alive[bnds <= kth[alive] * shrink]
                if not alive.size:
                    continue
            visits[alive] += 1
            visited[node] = True
            s, e = snap.leaf_start[node], snap.leaf_end[node]
            if snap.node_is_leaf[node]:
                if snap.dedup:
                    ref = int(snap.node_ref[node])
                    done = scanned.get(ref)
                    if done is None:
                        done = scanned[ref] = np.zeros(n, dtype=bool)
                    alive = alive[~done[alive]]
                    if not alive.size:
                        continue
                    done[alive] = True
                if e <= s:
                    continue
                points64 = snap.points64[s:e]
                oids = snap.oids[s:e]
                if pred._vec_metric:
                    # One 3-d broadcast computes the leaf's distances for
                    # every alive query: the axis-2 reductions run per row
                    # exactly as ``distance_batch``'s axis-1 reductions do,
                    # so each row is bit-identical to the per-query call.
                    # ``kth`` is inf until a query's result set fills, so the
                    # candidate mask reproduces the object kernel's
                    # take-all-then-prefilter.
                    diff = points64[None, :, :] - qs[alive][:, None, :]
                    if isinstance(metric, WeightedEuclidean):
                        dmat = np.sqrt(
                            (metric.weights * diff * diff).sum(axis=2)
                        )
                    else:
                        diff = np.abs(diff)
                        if np.isinf(metric.p):
                            dmat = diff.max(axis=2)
                        elif metric.p == 1.0:
                            dmat = diff.sum(axis=2)
                        elif metric.p == 2.0:
                            dmat = np.sqrt((diff * diff).sum(axis=2))
                        else:
                            dmat = (diff ** metric.p).sum(axis=2) ** (
                                1.0 / metric.p
                            )
                    cand_mask = dmat <= kth[alive][:, None]
                    for row in np.flatnonzero(cand_mask.any(axis=1)):
                        qi = alive[row]
                        keep = cand_mask[row]
                        d_all = np.concatenate((best_d[qi], dmat[row][keep]))
                        o_all = np.concatenate((best_o[qi], oids[keep]))
                        top = np.lexsort((o_all, d_all))[:k]
                        best_d[qi], best_o[qi] = d_all[top], o_all[top]
                        if len(top) >= k:
                            kth[qi] = best_d[qi][-1]
                    continue
                for qi in alive:
                    dists = metric.distance_batch(points64, qs[qi])
                    if len(best_d[qi]) >= k:
                        # Candidates beyond the kth can never enter the top
                        # k (ties at kth still can, under the (dist, oid)
                        # order).
                        keep = dists <= kth[qi]
                        cand_d, cand_o = dists[keep], oids[keep]
                    else:
                        cand_d, cand_o = dists, oids
                    if not len(cand_d):
                        continue
                    d_all = np.concatenate((best_d[qi], cand_d))
                    o_all = np.concatenate((best_o[qi], cand_o))
                    top = np.lexsort((o_all, d_all))[:k]
                    best_d[qi], best_o[qi] = d_all[top], o_all[top]
                    if len(top) >= k:
                        kth[qi] = best_d[qi][-1]
                continue
            e0, e1 = int(cs[node]), int(cs[node + 1])
            if e0 == e1:
                continue
            edges = np.arange(e0, e1, dtype=np.int64)
            m = len(alive)
            pair_e = np.repeat(edges, m)
            pair_q = np.tile(alive, len(edges))
            bounds = pred.mindist(pair_e, pair_q, qs).reshape(len(edges), m)
            order = np.argsort(bounds.min(axis=1), kind="stable")
            for idx in order[::-1]:
                stack.append(
                    (int(snap.edge_child[edges[idx]]), alive, bounds[idx])
                )
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc

    _charge_visited(index, snap, visited)
    out = [
        [(int(o), float(d)) for o, d in zip(best_o[qi], best_d[qi])]
        for qi in range(n)
    ]
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )
