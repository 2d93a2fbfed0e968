"""Vectorized traversal over a compiled :class:`SOASnapshot`.

Three entry points mirror :mod:`repro.engine.kernel` — same signatures
(plus the snapshot), the same checked :class:`~repro.engine.query.QueryBatch`,
same results, same accounting — and all three run one traversal, the
*level-synchronous frontier*: the set of live ``(node, query)`` pairs of a
level is grouped by parent, and each parent's children — contiguous CSR
edge rows — are tested against its live queries with one broadcast
predicate, whose edge-major ``(children, queries)`` mask's nonzero entries
are the next level.  The predicate runs in two stages: a cheap broadcast
that may only over-accept (most pairs fail it), then the exact test on its
survivors alone.

- ``soa_range_search_many`` / ``soa_distance_range_many`` replay the leaf
  hits in DFS pre-order (node id order), which reproduces the object
  walk's output order exactly.
- ``soa_knn_many`` answers an exact k-NN batch with two array passes
  (:class:`_KnnFrontier`): an uncharged beam probe gives each query an
  upper radius ``r0 >= D_k`` (its final kth distance), then the distance
  frontier runs at ``r0``, its pairs carrying their path-maximum bound,
  and the reached leaves are scanned into the best k.  Best-first search
  visits exactly the pairs whose path maximum is within D_k, whatever its
  order, so billing and counting only those gives best-first's pages and
  visits; the probe and the pairs between D_k and ``r0`` are uncharged
  work (the bill stays the best-first, paper, bill, and a snapshot reads
  no pages).  ``dispatch`` sends every other k-NN batch — a batch of one,
  ``approximation_factor > 0``, a metric without
  ``bound_below_distance`` — to the object kernel's best-first search.

Bit-identity rules (asserted by ``tests/test_soa_conformance.py``):

- every metric is evaluated through its two row-wise primitives,
  ``pair_mindist`` for rect bounds and ``pair_distances`` for leaf scans
  (:mod:`repro.distances`); a metric's row is a contiguous last-axis
  reduction and does not depend on how many rows ride along or whether
  they sit in a ``(pairs, d)`` or an ``(edges, queries, d)`` array, so the
  frontier's per-parent broadcasts, k-NN's per-pair batches and the leaf
  scans match the object kernel's and the single-query search's calls
  float for float, whatever the metric.  The box test is pure comparison;
- a frontier mask may have a cheap first stage only if it can never drop
  a pair the exact test keeps: the box test's first comparison, and for
  distance queries a float32 bound that prunes a pair only under the
  metric's certificate (``pair_mindist_lower32``, provably ``<=`` the
  float64 ``pair_mindist``, over the snapshot's boxes rounded outward).
  The survivors are decided by the exact test on their gathered rows —
  for distance, the unchanged float64 formula, whose rows are the same
  bits gathered or broadcast — so each mask is the exact mask;
- leaf scans see the float32 leaf rows upcast exactly to float64, as the
  object kernel's per-leaf ``pts.astype(np.float64)`` does: the metric
  gets the float32 rows and the subtraction promotes them, the range
  stage upcasts the rows it uses;
- large array passes run in blocks of ``_BLOCK_ELEMS`` elements: a
  parent's ``children x queries x dims`` broadcast is split along the
  query axis, and the distance leaf scan into blocks of ``_BLOCK_ELEMS //
  dims`` rows.  A row's result never depends on its neighbours, so blocks
  change peak memory and cache behaviour, never a result bit;
- each page is charged once per batch (supernodes charge their page
  count).

The kernels run in the object kernel's envelope
(:func:`repro.engine.kernel._run`): a batch the deadline stopped (checked
per frontier level and leaf-scan block; the k-NN frontier also per probe
level and probe block) returns a
:class:`~repro.resilience.PartialResult`, and the pages visited are
charged whatever stopped the batch, the bill the object kernel runs up
by charging at each fetch.  A stopped k-NN frontier bills the pairs it
reached whose path maximum is within the query's kth so far (all of
them while it holds fewer than k), and each partial answer is the best
k of the points its probe and leaf scan scored.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric, round_out_f32
from repro.engine.bestfirst import TopK
from repro.engine.bestfirst import concat_ranges as _concat_ranges
from repro.engine.kernel import _run
from repro.engine.query import QueryBatch
from repro.resilience import Deadline
from repro.storage.iostats import AccessKind

__all__ = [
    "soa_range_search_many",
    "soa_distance_range_many",
    "soa_knn_many",
]


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
# Elements (rows x dims) per block of a large array pass.  2**20 float64s
# make an 8 MB temporary, about one last-level cache: a COLHIST 64-d
# distance batch never allocates (and page-faults in) temporaries of 100+
# MB, while one COLHIST 64-d leaf parent (~140 children x 64 queries x 64
# dims) still runs as a single block.
_BLOCK_ELEMS = 1 << 20


def _row_blocks(n_rows: int, dims: int) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, ``_BLOCK_ELEMS // dims``
    rows each (at least one row; one empty slice when ``n_rows`` is 0).
    ``dims`` is the elements per row: a point's dims for the leaf scan, a
    parent's ``children x dims`` for the frontier's query axis.

    Every pass run in these blocks is row-wise — elementwise comparisons or
    arithmetic plus last-axis reductions — so a row's result does not
    depend on which rows share its block: blocks change the schedule and
    the peak memory, never a bit of the output.
    """
    step = max(1, _BLOCK_ELEMS // max(1, dims))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, max(n_rows, 1), step)]


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


def _refine(cand: np.ndarray, exact) -> np.ndarray:
    """Second stage of a two-stage mask: ``cand`` (edge-major, modified in
    place) with each true entry replaced by ``exact(ei, qi)``, the exact
    verdicts of the ``(row, column)`` pairs it gathers.  The first stage
    may only over-accept, so the result is the exact mask."""
    ei, qi = np.nonzero(cand)
    if ei.size:
        cand[ei, qi] = exact(ei, qi)
    return cand


class _PairBounds:
    """Pruning predicates of the frontier and of the k-NN probe.

    The frontier's masks (:meth:`box_mask`, :meth:`distance_mask`) test one
    parent at a time: its ``n_edges`` children, which sit in the
    contiguous CSR edge rows ``[first_edge, first_edge + n_edges)``,
    against the queries still alive at it, and return the edge-major
    ``(n_edges, n_live)`` mask.  Each mask is computed in two stages,
    split along the query axis by :func:`_row_blocks` so no temporary
    exceeds ``_BLOCK_ELEMS`` elements:

    1. one broadcast call over ``(n_edges, 1, d)`` boxes and ``(1, n_live,
       d)`` queries that may only over-accept: the box test's first
       comparison, or the metric's certified float32 lower bound
       (``pair_mindist_lower32`` on :meth:`SOASnapshot.dist_boxes32`),
       which prunes a pair only where it exceeds the radius;
    2. :func:`_refine`: the exact test — the box test's second comparison,
       or the float64 ``pair_mindist`` — on the survivors' gathered rows.

    Most pairs fail stage 1, and a pair's exact row is the same bits
    gathered or broadcast, so the mask is the exact grouped mask.  A
    metric without a certificate runs the float64 bound as stage 1, with
    no stage 2.  The probe's :meth:`mindist` stays per ``(edge, query)``
    pair, since a beam level mixes parents and queries freely.
    """

    def __init__(self, snap, metric: Metric | None = None):
        self.snap = snap
        self.metric = metric
        empty = np.empty((0, snap.dims), dtype=np.float32)
        self._certified = (
            metric is not None
            and metric.pair_mindist_lower32(empty, empty, empty) is not None
        )

    def _by_query(self, fn, n_edges: int, live: np.ndarray):
        """``fn(live)``'s ``(n_edges, n_live)`` ``(mask, bounds or None)``,
        evaluated over blocks of the query axis of at most ``_BLOCK_ELEMS``
        box elements (at least one query each)."""
        blocks = _row_blocks(len(live), n_edges * self.snap.dims)
        if len(blocks) == 1:
            return fn(live)
        masks, bounds = zip(*(fn(live[b]) for b in blocks))
        return (
            np.concatenate(masks, axis=1),
            None if bounds[0] is None else np.concatenate(bounds, axis=1),
        )

    # -- box intersection ----------------------------------------------
    def box_mask(
        self,
        first_edge: int,
        n_edges: int,
        live: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> np.ndarray:
        # Rect.intersects_boxes_mask, every child box against every live
        # query: pure comparison, so exact in any layout.
        rows = slice(first_edge, first_edge + n_edges)
        box_low, box_high = self.snap.box_low[rows], self.snap.box_high[rows]
        return self._by_query(
            lambda q: (
                _refine(
                    np.all(lows[q][None] <= box_high[:, None], axis=-1),
                    lambda ei, qi: np.all(box_low[ei] <= highs[q[qi]], axis=-1),
                ),
                None,
            ),
            n_edges,
            live,
        )[0]

    # -- metric lower bounds -------------------------------------------
    def mindist(self, e: np.ndarray, q: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Per ``(edge, query)`` pair: the metric's lower bound."""
        return self.metric.pair_mindist(qs[q], self.snap.box_low[e], self.snap.box_high[e])

    def distance_mask(
        self,
        first_edge: int,
        n_edges: int,
        live: np.ndarray,
        qs: np.ndarray,
        radii: np.ndarray,
    ) -> np.ndarray:
        return self._distance(first_edge, n_edges, live, qs, radii, False)[0]

    def distance_bounds(
        self,
        first_edge: int,
        n_edges: int,
        live: np.ndarray,
        qs: np.ndarray,
        radii: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`distance_mask` with its bounds, as ``(mask, b)``: ``b``
        holds the exact float64 ``pair_mindist`` of every pair the mask
        keeps (other entries are unspecified), the bound the exact stage
        computed anyway."""
        return self._distance(first_edge, n_edges, live, qs, radii, True)

    def _distance(self, first_edge, n_edges, live, qs, radii, keep_bounds: bool):
        """``(mask, b or None)`` of the two distance predicates."""
        metric = self.metric
        rows = slice(first_edge, first_edge + n_edges)
        low, high = self.snap.box_low[rows], self.snap.box_high[rows]
        if not self._certified:

            def exact_only(q):
                b = metric.pair_mindist(qs[q][None], low[:, None], high[:, None])
                return b <= radii[q], b if keep_bounds else None

            return self._by_query(exact_only, n_edges, live)
        low32, high32 = (a[rows, None] for a in self.snap.dist_boxes32())

        def two_stage(q):
            # QueryBatch centers are float32-canonical, so the cast is exact.
            cand = metric.pair_mindist_lower32(qs[q].astype(np.float32)[None], low32, high32)
            cand = cand <= radii[q]
            b = np.empty(cand.shape) if keep_bounds else None

            def exact(ei, qi):
                pair_b = metric.pair_mindist(qs[q[qi]], low[ei], high[ei])
                if b is not None:
                    b[ei, qi] = pair_b
                return pair_b <= radii[q[qi]]

            return _refine(cand, exact), b

        return self._by_query(two_stage, n_edges, live)


# ----------------------------------------------------------------------
# Level-synchronous frontier (range, distance and exact k-NN queries)
# ----------------------------------------------------------------------
def _run_frontier(snap, n: int, group_pred, deadline, levels: list) -> None:
    """Descend all queries at once, appending each level's pairs to ``levels``.

    ``group_pred(first_edge, n_edges, live) -> (mask, bounds)`` decides,
    for one parent, which of its children each of its live queries
    (``live``, ascending) descends into; the parent's edges are the CSR
    rows ``[first_edge, first_edge + n_edges)``.  ``mask`` is the ``(n_edges,
    n_live)`` bool mask; the next level is its nonzero ``(edge, query)``
    entries, edge-major, so each parent's pairs come out in the order the
    object kernel visits them.  ``bounds`` is None, or holds the exact
    bound of every pair the mask keeps: each pair's *path maximum* is the
    largest bound on its root path (0 at the root, and 0 throughout
    without bounds).

    Each level is appended as ``(nodes, queries, path)`` when it is
    reached, before ``deadline`` is checked for the next: each round is
    one batched level of array work, the natural cooperative-cancellation
    grain here, and a batch stopped mid-frontier keeps every level it
    reached, for its counts and its bill.
    """
    nodes = np.zeros(n, dtype=np.int64)
    qs_idx = np.arange(n, dtype=np.int64)
    path = np.zeros(n)
    cs = snap.child_start
    while nodes.size:
        if deadline is not None:
            deadline.check()
        levels.append((nodes, qs_idx, path))
        inner = ~snap.node_is_leaf[nodes]
        nodes, qs_idx, path = nodes[inner], qs_idx[inner], path[inner]
        if not nodes.size:
            break
        # The pairs arrive lexsorted by (node, query) without sorting:
        # the root level is trivially sorted, and each expansion emits,
        # per parent in ascending order, its edges in CSR order — whose
        # child node ids ascend (DFS pre-order numbers subtrees
        # contiguously) and, across same-level parents, occupy disjoint
        # ascending id ranges — each with its queries ascending.  So each
        # parent's live queries are one ascending run, found by one diff.
        cuts = np.flatnonzero(np.diff(nodes)) + 1
        starts = np.concatenate(([0], cuts)).tolist()
        stops = np.concatenate((cuts, [len(nodes)])).tolist()
        edge_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        bound_parts: list[np.ndarray] = []
        for node, lo, hi in zip(nodes[starts].tolist(), starts, stops):
            e0 = int(cs[node])
            mask, bounds = group_pred(e0, int(cs[node + 1]) - e0, qs_idx[lo:hi])
            ei, qi = np.nonzero(mask)
            if bounds is not None:
                bound_parts.append(bounds[ei, qi])
            edge_parts.append(ei + e0)
            pos_parts.append(qi + lo)
        pos = np.concatenate(pos_parts)
        path = path[pos]
        if bound_parts:
            path = np.maximum(path, np.concatenate(bound_parts))
        nodes = snap.edge_child[np.concatenate(edge_parts)]
        qs_idx = qs_idx[pos]


def _reached(levels: list):
    """Every ``(node, query, path)`` pair of :func:`_run_frontier`'s levels."""
    if not levels:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    return tuple(np.concatenate(part) for part in zip(*levels))


def _leaf_pairs(snap, levels: list):
    """The leaf pairs the frontier reached, sorted by ``(node, query)``."""
    nodes, queries, _ = _reached(levels)
    leaf = snap.node_is_leaf[nodes]
    occ, lq = nodes[leaf], queries[leaf]
    order = np.lexsort((lq, occ))
    return occ[order], lq[order]


def _bill(index, snap, n: int, nodes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Charge one random read per page of the visited ``(node, query)``
    pairs' nodes, each node once per batch (a supernode its page count) —
    the object kernel's once-per-batch fetch — and return each query's
    visit count."""
    visited = np.zeros(snap.n_nodes, dtype=bool)
    visited[nodes] = True
    pages = int(snap.node_pages[visited].sum())
    if pages:
        index.io.record(AccessKind.RANDOM_READ, pages)
    return np.bincount(queries, minlength=n)


def _pair_point_rows(snap, occ: np.ndarray, lq: np.ndarray):
    """Expand sorted ``(node, query)`` leaf pairs into flat
    ``(point row, query)`` index arrays, one :func:`_row_blocks` block at a
    time, so the caller's ``rows x dims`` temporaries stay cache-sized.

    The flat order is ``(leaf node, query, point)`` — so for any single
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
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_range_search_many`."""
    lows, highs = batch.lows, batch.highs
    n = len(batch)
    levels: list = []
    pred = _PairBounds(snap)
    out: list[list[int]] = [[] for _ in range(n)]

    def walk() -> None:
        _run_frontier(
            snap, n, lambda e0, n_e, live: (pred.box_mask(e0, n_e, live, lows, highs), None),
            deadline, levels,
        )
        occ, lq = _leaf_pairs(snap, levels)
        if deadline is not None:
            deadline.check()
        # Leaf scan in three exact stages (containment is pure comparison, so
        # any evaluation order yields the same hit set as the object kernel's
        # per-query leaf test):
        #  1. dim 0 by rank: each leaf keeps its points presorted on the first
        #     coordinate, so a query's window is two binary searches — most
        #     points are never touched;
        #  2. a conservative float32 prefilter over the remaining dims;
        #  3. the exact float64 comparisons on the prefilter's survivors.
        # Hits are restored to the object walk's output order — per query, by
        # leaf node in DFS order, then point order — with one lexsort.
        perm, scol = snap.leaf_sort0()
        lo32, hi32 = round_out_f32(lows, highs)
        s_arr, e_arr = snap.leaf_start[occ], snap.leaf_end[occ]
        nz = e_arr > s_arr
        pocc, palive, s_arr, sizes = occ[nz], lq[nz], s_arr[nz], (e_arr - s_arr)[nz]
        if not pocc.size:
            return
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
            np.all((rest32 >= lo32[qrow, 1:]) & (rest32 <= hi32[qrow, 1:]), axis=1)
        )
        pidx, qrow, hocc = pidx[keep], qrow[keep], hocc[keep]
        rest64 = snap.points[pidx, 1:].astype(np.float64)
        exact = np.all((rest64 >= lows[qrow, 1:]) & (rest64 <= highs[qrow, 1:]), axis=1)
        pidx, qrow, hocc = pidx[exact], qrow[exact], hocc[exact]
        order = np.lexsort((pidx, hocc, qrow))
        hq, ho = qrow[order], snap.oids[pidx[order]]
        bounds = np.flatnonzero(np.diff(hq)) + 1
        for qi, seg_o in zip(np.concatenate((hq[:1], hq[bounds])), np.split(ho, bounds)):
            out[int(qi)] = seg_o.tolist()

    def collect():
        nodes, queries, _ = _reached(levels)
        return out, _bill(index, snap, n, nodes, queries)

    return _run(index, batch, return_metrics, walk, collect)


# ----------------------------------------------------------------------
# Distance range queries
# ----------------------------------------------------------------------
def soa_distance_range_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_distance_range_many`."""
    qs, radii, metric = batch.centers, batch.radii, batch.metric
    n = len(batch)
    levels: list = []
    pred = _PairBounds(snap, metric)
    # Hits accumulate block by block, so a batch stopped mid-scan keeps
    # the blocks already evaluated.
    hit_q: list[np.ndarray] = []
    hit_o: list[np.ndarray] = []
    hit_d: list[np.ndarray] = []

    def walk() -> None:
        _run_frontier(
            snap, n, lambda e0, n_e, live: (pred.distance_mask(e0, n_e, live, qs, radii), None),
            deadline, levels,
        )
        occ, lq = _leaf_pairs(snap, levels)
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

    def collect():
        nodes, queries, _ = _reached(levels)
        visits = _bill(index, snap, n, nodes, queries)
        out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        if hit_q:
            for qi, (oid_seg, d_seg) in _group_hits_by_query(
                np.concatenate(hit_q),
                [np.concatenate(hit_o), np.concatenate(hit_d)],
            ):
                out[qi] = list(zip(oid_seg.tolist(), d_seg.tolist()))
        return out, visits

    return _run(index, batch, return_metrics, walk, collect)


# ----------------------------------------------------------------------
# k-nearest-neighbour queries
# ----------------------------------------------------------------------
#: The probe's beam: at each level, every query keeps its ``width`` nearest
#: inner children and its ``width * _PROBE_LEAVES`` nearest leaf children
#: (more on ties), ``width`` starting at 1.  The queries a dive leaves with
#: fewer than k points dive again with ``width`` multiplied by
#: ``_PROBE_WIDEN``.
_PROBE_LEAVES = 4
_PROBE_WIDEN = 4


def _within_kth_per_group(group: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows whose ``key`` is at most the kth smallest of their
    group's (all of a group of k rows or fewer; ties at the kth all stay),
    by one partition of a group-padded matrix; ``group`` is sorted."""
    keep = np.ones(len(group), dtype=bool)
    if not group.size:
        return keep
    starts = np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1))
    counts = np.diff(np.append(starts, len(group)))
    if counts.max() <= k:
        return keep
    row = np.repeat(np.arange(len(starts)), counts)
    pad = np.full((len(starts), int(counts.max())), np.inf)
    pad[row, np.arange(len(group)) - starts[row]] = key
    return key <= np.partition(pad, k - 1, axis=1)[row, k - 1]


class _KnnFrontier:
    """An exact k-NN batch as two array passes over a ``rect`` snapshot.

    Best-first search (``approximation_factor == 0``) visits exactly the
    ``(node, query)`` pairs whose *path maximum* — the largest child bound
    on the node's root path — is at most D_k, the query's final kth
    distance.  Every such pair is popped before the search stops, since an
    entry within D_k is always waiting; and none beyond it is popped
    before the query holds its final k, since until then some entry above
    an unscanned answer, whose bound is at most that answer's distance, is
    waiting.  That is the distance frontier's visit set at radius D_k,
    whatever the visit order.  D_k is not known up front, so:

    1. **probe** (:meth:`_probe`): a level-synchronous beam dive, whose
       leaves' kth distance is an upper radius ``r0 >= D_k`` per query
       (``inf`` only when the snapshot holds fewer than k points);
    2. **frontier** (:func:`_run_frontier`) at the radii ``r0``, float32
       stage included, each pair carrying its path maximum (a pair the
       float32 stage drops has an exact bound above ``r0 >= D_k``, so it
       is never needed), then the leaf scan (:meth:`_scan`) into the best
       k by ``(distance, oid)``.

    Only the pairs whose path maximum is within each query's kth are
    billed and counted (:meth:`billed`), so results, per-query visits and
    charged pages are best-first's.  The probe and the pairs between D_k
    and ``r0`` are uncharged work: the bill stays the best-first (paper)
    bill, and a snapshot reads no pages.  The argument needs every box
    bound to be at most the distance of each point in the box *as
    computed*, bit for bit (``Metric.bound_below_distance``).
    """

    def __init__(self, snap, pred: _PairBounds, batch: QueryBatch):
        self.snap, self.pred = snap, pred
        self.qs, self.metric, self.k = batch.centers, batch.metric, batch.k
        self.n = len(batch)
        self.topk = TopK(self.n, batch.k)  # over every point scored, probe and scan
        self.scored = np.empty(0, dtype=np.int64)  # leaf pairs scored, query * n_nodes + leaf
        self.levels: list = []  # the frontier's (nodes, queries, path) levels
        self.probed: list = []  # the probe's (nodes, queries) levels, uncharged

    def run(self, deadline) -> None:
        """Probe, frontier, leaf scan; ``deadline`` is checked at every
        probe level, every frontier level and every scored row block."""
        self._probe(deadline)
        pred, qs, r0 = self.pred, self.qs, self.topk.kth.copy()
        _run_frontier(
            self.snap, self.n,
            lambda e0, n_e, live: pred.distance_bounds(e0, n_e, live, qs, r0),
            deadline, self.levels,
        )
        self._scan(deadline)

    def billed(self) -> tuple[np.ndarray, np.ndarray]:
        """The reached ``(node, query)`` pairs whose path maximum is within
        the query's kth so far (all of them while it holds fewer than k):
        at the end, best-first's visits; for a stopped batch, the pairs
        best-first would need if the points scored so far were all."""
        nodes, queries, path = _reached(self.levels)
        keep = path <= self.topk.kth[queries]
        return nodes[keep], queries[keep]

    def _probe(self, deadline) -> None:
        """Score the leaves of a beam dive per query, so that its kth is an
        upper radius ``r0 >= D_k``; the queries a dive leaves with fewer
        than k points dive again, wider."""
        if self.k > self.snap.n_points:
            return  # r0 stays inf: every point is an answer
        todo = np.arange(self.n)
        width = 1
        while todo.size:
            self._dive(todo, width, deadline)
            if width >= self.snap.n_nodes:
                return  # the beam kept every child, so it reached every point
            todo = todo[np.isinf(self.topk.kth[todo])]
            width *= _PROBE_WIDEN

    def _dive(self, todo: np.ndarray, width: int, deadline) -> None:
        """One beam dive for the queries ``todo``, scoring the leaves it
        reaches."""
        snap, cs = self.snap, self.snap.child_start
        nodes = np.zeros(len(todo), dtype=np.int64)
        q = np.arange(len(todo), dtype=np.int64)  # rows of todo, ascending
        leaf_occ: list[np.ndarray] = []
        leaf_q: list[np.ndarray] = []
        while nodes.size:
            if deadline is not None:
                deadline.check()
            self.probed.append((nodes, todo[q]))
            leaf = snap.node_is_leaf[nodes]
            leaf_occ.append(nodes[leaf])
            leaf_q.append(todo[q[leaf]])
            nodes, q = nodes[~leaf], q[~leaf]
            if not nodes.size:
                break
            counts = cs[nodes + 1] - cs[nodes]
            e = np.repeat(cs[nodes], counts) + _concat_ranges(counts)
            eq = np.repeat(q, counts)
            b = self.pred.mindist(e, todo[eq], self.qs)
            child = snap.edge_child[e]
            keep = snap.node_is_leaf[child]
            inner = ~keep
            keep[keep] = _within_kth_per_group(eq[keep], b[keep], width * _PROBE_LEAVES)
            keep[inner] = _within_kth_per_group(eq[inner], b[inner], width)
            nodes, q = child[keep], eq[keep]
        self._score(np.concatenate(leaf_occ), np.concatenate(leaf_q), deadline, cut=True)

    def _scan(self, deadline) -> None:
        """Score the reached leaves' points into ``topk``.

        Each query's leaf pairs go in ascending path-maximum order, dealt
        round-robin across the queries (every query's nearest leaf, then
        every query's second, ...) about one block of rows at a time, so
        each block carries a similar share of rows per query.  Before each
        block the pairs whose path maximum already exceeds their query's
        kth are dropped: all their points are farther than the k held.
        The probe's kth is already within ``r0``, so ``TopK.merge`` drops
        most rows before it sorts.
        """
        snap = self.snap
        nodes, queries, path = _reached(self.levels)
        leaf = snap.node_is_leaf[nodes]
        occ, lq, pm = nodes[leaf], queries[leaf], path[leaf]
        order = np.argsort(pm, kind="stable")
        order = order[np.argsort(lq[order], kind="stable")]
        per_query = np.bincount(lq, minlength=self.n)
        rank = _concat_ranges(per_query)
        order = order[np.argsort(rank, kind="stable")]
        occ, lq, pm = occ[order], lq[order], pm[order]
        rows = snap.leaf_end[occ] - snap.leaf_start[occ]
        step = max(1, _BLOCK_ELEMS // max(1, snap.dims))
        while occ.size:
            take = max(1, int(np.searchsorted(np.cumsum(rows), step, side="right")))
            self._score(occ[:take], lq[:take], deadline)
            keep = pm[take:] <= self.topk.kth[lq[take:]]
            occ, lq, pm, rows = (a[take:][keep] for a in (occ, lq, pm, rows))

    def _score(self, occ: np.ndarray, lq: np.ndarray, deadline, cut: bool = False) -> None:
        """Merge the points of the leaf pairs ``(occ, lq)`` not scored
        before (a wider dive and the scan meet pairs scored already) into
        ``topk``, one :func:`_row_blocks` block per deadline check.

        With ``cut`` (the probe, whose beam bounds each query's rows) the
        pairs go grouped by query, and only each block's rows within their
        query's kth smallest of the block are merged: the others can never
        enter, and ``TopK.merge`` would sort them all while the query
        holds fewer than k.
        """
        snap = self.snap
        key = lq * snap.n_nodes + occ
        new = ~np.isin(key, self.scored)
        self.scored = np.concatenate((self.scored, key[new]))
        occ, lq = occ[new], lq[new]
        if cut:
            order = np.argsort(lq, kind="stable")
            occ, lq = occ[order], lq[order]
        for pidx, qrow in _pair_point_rows(snap, occ, lq):
            if deadline is not None:
                deadline.check()
            dists = self.metric.pair_distances(snap.points[pidx], self.qs[qrow])
            oids = snap.oids[pidx]
            if cut:
                keep = _within_kth_per_group(qrow, dists, self.k)
                qrow, dists, oids = qrow[keep], dists[keep], oids[keep]
            self.topk.merge(qrow, dists, oids)


def soa_knn_many(
    index,
    snap,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
):
    """Vectorized form of :func:`repro.engine.kernel.kernel_knn_many` for an
    exact batch (``approximation_factor == 0``) under a metric with
    ``bound_below_distance``: one probe and one distance frontier
    (:class:`_KnnFrontier`), whose visits, results and pages equal the
    object kernel's best-first search.  ``dispatch`` sends every other
    k-NN batch to the object kernel."""
    if batch.approximation_factor or not batch.metric.bound_below_distance:
        raise ValueError(
            "the SOA k-NN frontier answers exact batches under metrics with "
            "bound_below_distance only; run this batch on the object kernel"
        )
    job = _KnnFrontier(snap, _PairBounds(snap, batch.metric), batch)
    return _run(
        index, batch, return_metrics, lambda: job.run(deadline),
        lambda: (job.topk.results(), _bill(index, snap, len(batch), *job.billed())),
    )
