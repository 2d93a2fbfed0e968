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
- ``soa_knn_many`` runs the object kernel's per-query best-first rounds
  (:mod:`repro.engine.bestfirst`) — k-NN pruning depends on the order
  leaves are scanned in, so every query keeps ``HybridTree.knn``'s own
  visit order — over the snapshot's CSR edges: each round's child bounds
  are one :meth:`_PairBounds.mindist` call over ``(edge, query)`` pairs.

Bit-identity rules (asserted by ``tests/test_soa_conformance.py``):

- every metric is evaluated through its two row-wise primitives,
  ``pair_mindist`` for rect bounds and ``pair_distances`` for leaf scans
  (:mod:`repro.distances`); a metric's row does not depend on how many
  rows ride along, so per-pair batches match the object kernel's and the
  single-query search's calls float for float, whatever the metric;
- non-rect geometry (spheres, SR-tree rect-spheres, M-tree routers) is
  evaluated with *per-edge grouped* calls of the exact same
  ``ChildBound`` code the object kernel runs;
- leaf scans see the float32 leaf rows upcast exactly to float64, as the
  object kernel's per-leaf ``pts.astype(np.float64)`` does: the metric
  gets the float32 rows and the subtraction promotes them, the range
  stage upcasts the rows it uses;
- large row-wise passes (rect frontier masks, the distance leaf scan) run
  in blocks of ``_BLOCK_ELEMS // dims`` rows; a row's result never
  depends on its neighbours, so blocks change peak memory and cache
  behaviour, never a result bit.  Per-edge grouped calls are never split
  across blocks;
- each page is charged once per batch (supernodes charge their page
  count), and dedup structures scan each ``(page, query)`` pair once, at
  the query's first occurrence in its visit order (DFS for range and
  distance, best-first for k-NN).
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances import Metric
from repro.engine.bestfirst import TopK, best_first_knn
from repro.engine.bestfirst import concat_ranges as _concat_ranges
from repro.engine.bestfirst import per_edge_eval as _per_edge_eval
from repro.engine.kernel import _finish, _reads, _wrap_partial
from repro.engine.query import QueryBatch
from repro.engine.soa.snapshot import round_out_f32
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
# Elements (rows x dims) per block of a large row-wise array pass.  2**20
# float64s make an 8 MB temporary, about one last-level cache: a COLHIST
# 64-d distance batch no longer allocates (and page-faults in) temporaries
# of 100+ MB, while FOURIER 16-d's widest frontier level (~51,000 pairs)
# still runs as a single block.
_BLOCK_ELEMS = 1 << 20


def _row_blocks(n_rows: int, dims: int) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, ``_BLOCK_ELEMS // dims``
    rows each (at least one row; one empty slice when ``n_rows`` is 0).

    Every pass run in these blocks is row-wise — elementwise comparisons or
    arithmetic plus ``axis=1`` reductions — so a row's result does not
    depend on which rows share its block: blocks change the schedule and
    the peak memory, never a bit of the output.
    """
    step = max(1, _BLOCK_ELEMS // max(1, dims))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, max(n_rows, 1), step)]


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
    return round_out_f32(lows, highs)


class _PairBounds:
    """Pruning predicates over ``(edge, query)`` pair arrays.

    Rect snapshots evaluate every pair with row-wise array math, run in
    :func:`_row_blocks`; other geometry calls each edge's own bound object
    once with its full row group, exactly the rows the object kernel
    passes it.
    """

    def __init__(self, snap, metric: Metric | None = None):
        self.snap = snap
        self.metric = metric
        self._rectlike = snap.kind in ("rect", "rect2")

    def _in_blocks(self, fn, e: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The row-wise mask ``fn(e, q)``, evaluated block by block."""
        blocks = _row_blocks(len(e), self.snap.dims)
        if len(blocks) == 1:
            return fn(e, q)
        return np.concatenate([fn(e[b], q[b]) for b in blocks])

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
            return self._in_blocks(
                lambda e, q: self._box_rows(e, q, lows, highs, q32), e, q
            )
        bounds = snap.edge_bounds
        return _per_edge_eval(
            e, bool, lambda eid, seg: bounds[eid].box_mask(lows[q[seg]], highs[q[seg]])
        )

    def _box_rows(self, e, q, lows, highs, q32) -> np.ndarray:
        snap = self.snap
        if q32 is not None:
            # Conservative float32 prefilter (query lows rounded down,
            # highs up; box bounds the other way), then the exact float64
            # test — row-wise Rect.intersects_boxes_mask — on the few pairs
            # the prefilter keeps.  Containment has no arithmetic, so the
            # final mask is bit-identical.
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

    # -- metric lower bounds -------------------------------------------
    def mindist(self, e: np.ndarray, q: np.ndarray, qs: np.ndarray) -> np.ndarray:
        snap, metric = self.snap, self.metric
        if self._rectlike:
            low = snap.dist_low if snap.kind == "rect2" else snap.box_low
            high = snap.dist_high if snap.kind == "rect2" else snap.box_high
            return metric.pair_mindist(qs[q], low[e], high[e])
        bounds = snap.edge_bounds
        return _per_edge_eval(
            e, np.float64, lambda eid, seg: bounds[eid].mindist(qs[q[seg]], metric)
        )

    def distance_mask(
        self, e: np.ndarray, q: np.ndarray, qs: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        if self._rectlike:
            return self._in_blocks(lambda e, q: self.mindist(e, q, qs) <= radii[q], e, q)
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
    kernel scans) and sorted by ``(occurrence, query)``.  A level's pairs
    are gathered whole as index arrays; the :class:`_PairBounds` masks then
    do their ``pairs x dims`` math in :func:`_row_blocks` blocks, so a
    COLHIST 64-d distance level of ~227,000 pairs holds 8 MB float64
    temporaries instead of 116 MB ones.  ``deadline`` is checked once per
    frontier round — each round is one batched level of array work, the
    natural cooperative-cancellation grain here.  The caller may supply
    the ``visited`` page-mask so a mid-frontier timeout still bills the
    pages actually touched.
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


def _pair_point_rows(snap, occ: np.ndarray, lq: np.ndarray):
    """Expand sorted ``(occurrence, query)`` leaf pairs into flat
    ``(point row, query)`` index arrays, one :func:`_row_blocks` block at a
    time, so the caller's ``rows x dims`` temporaries stay cache-sized.

    The flat order is ``(occurrence, query, point)`` — so for any single
    query, hits emerge in DFS-then-point order, exactly the object
    kernel's append order.  Blocks cut that order into consecutive pieces
    (one leaf pair may span several), so concatenating per-block hits
    preserves it.
    """
    sizes = snap.leaf_end[occ] - snap.leaf_start[occ]
    nz = sizes > 0
    occ, lq, sizes = occ[nz], lq[nz], sizes[nz]
    if not occ.size:
        return
    starts = snap.leaf_start[occ]
    ends = np.cumsum(sizes)  # each pair's end in the flat row order
    for blk in _row_blocks(int(ends[-1]), snap.dims):
        # The pairs overlapping flat rows [blk.start, blk.stop).
        p0 = int(np.searchsorted(ends, blk.start, side="right"))
        p1 = int(np.searchsorted(ends, blk.stop - 1, side="right")) + 1
        skip = blk.start - (int(ends[p0 - 1]) if p0 else 0)
        cut = slice(skip, skip + blk.stop - blk.start)
        sz = sizes[p0:p1]
        pidx = np.repeat(starts[p0:p1], sz) + _concat_ranges(sz)
        yield pidx[cut], np.repeat(lq[p0:p1], sz)[cut]


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
            rest64 = snap.points[pidx, 1:].astype(np.float64)
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
        # A metric's rows do not depend on which other rows ride along, so
        # every (leaf, query, point) row is scored in flat blocks,
        # bit-identical to the object kernel's per-leaf calls.  The float32
        # rows go in as they are; the subtraction promotes them exactly.
        for pidx, qrow in _pair_point_rows(snap, occ, lq):
            if deadline is not None:
                deadline.check()
            dists = metric.pair_distances(snap.points[pidx], qs[qrow])
            hits = np.flatnonzero(dists <= radii[qrow])
            if hits.size:
                hit_q.append(qrow[hits])
                hit_o.append(snap.oids[pidx[hits]])
                hit_d.append(dists[hits])
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
class _SnapshotTree:
    """A snapshot seen through the tree interface of
    :func:`~repro.engine.bestfirst.best_first_knn`; loading a node marks it
    visited, for :func:`_charge_visited`."""

    def __init__(self, snap, visited: np.ndarray, pred: _PairBounds, qs: np.ndarray):
        self.visited = visited
        self.dedup = snap.dedup
        self.is_leaf = snap.node_is_leaf
        self.first_edge = snap.child_start[:-1]
        self.n_edges = np.diff(snap.child_start)
        self.edge_child = snap.edge_child
        self.node_ref = snap.node_ref
        self.leaf_start, self.leaf_end = snap.leaf_start, snap.leaf_end
        self.points, self.oids = snap.points, snap.oids
        self._pred, self._qs = pred, qs

    def load(self, nodes: np.ndarray) -> None:
        self.visited[nodes] = True

    def mindist(self, e: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._pred.mindist(e, q, self._qs)


def soa_knn_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_knn_many`.

    The same per-query best-first rounds
    (:func:`~repro.engine.bestfirst.best_first_knn`) over the snapshot's
    CSR edges, with each round's child bounds from one
    :meth:`_PairBounds.mindist` call — so visits, results and pages equal
    the object kernel's.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    qs, metric = batch.centers, batch.metric
    n = len(batch)
    topk = TopK(n, batch.k)
    visits = np.zeros(n, dtype=np.int64)
    visited = np.zeros(snap.n_nodes, dtype=bool)
    tree = _SnapshotTree(snap, visited, _PairBounds(snap, metric), qs)
    err = None
    try:
        best_first_knn(
            tree, qs, metric, 1.0 / (1.0 + batch.approximation_factor),
            topk, visits, deadline,
        )
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    _charge_visited(index, snap, visited)
    return _finish(
        _wrap_partial(topk.results(), err, n), visits, index, start, reads0,
        return_metrics, batch.label,
    )
