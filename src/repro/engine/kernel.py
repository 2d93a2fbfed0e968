"""Structure-agnostic traversal kernel: one batch engine for every index.

Every query method of every paged index — the hybrid tree's single range,
distance and k-NN queries included, as batches of one — runs through three
generic functions written against a small **traversable-index protocol**;
the hybrid tree and all paged baselines implement it, and single-query,
batched, and N-worker parallel execution flow through this one code path
with the same ``IOStats`` / ``BatchMetrics`` accounting.

The protocol (duck-typed; see INTERNALS section 9 for the contract):

``index.dims``
    Feature-space dimensionality.
``index.io``
    The :class:`~repro.storage.iostats.IOStats` accountant queries charge.
``index.trav_root() -> (ref, ctx)``
    Root node reference plus an opaque traversal context (e.g. the node's
    bounding region) threaded down through ``trav_children``.
``index.trav_node(ref, charge=True) -> node``
    Fetch a node, charging through the structure's own ``NodeManager`` (so
    supernodes charge multiple pages, bounded caches stay honest, etc.).
``index.trav_is_leaf(node) -> bool``
``index.trav_leaf_points(node) -> (points_f32, oids)``
    The data page's live entries (row-aligned arrays).
``index.trav_children(node, ctx) -> Children``
    All of a node's children in the structure's canonical visit order, as
    one value: their refs, their contexts, and one *bound block* that
    tests every child against many queries at once (a :class:`RectBlock`
    of box rows, or an :class:`EdgeBlock` of per-child
    :class:`ChildBound` objects).

Optional protocol members:

``trav_dedup`` (class attr, default False)
    True for structures whose directory references a child from several
    places (the hB-tree's path postings): the kernel then charges each page
    once per batch and scans each (leaf, query) pair once, matching the
    structure's single-query de-duplication semantics.
``trav_supports_box`` (class attr, default True)
    False for purely distance-based structures (M-tree): box queries raise
    ``TypeError`` instead of traversing.
``trav_check_metric(metric)``
    Raise if the structure cannot answer queries under ``metric`` (SS-tree
    spheres are Euclidean-only; the M-tree is committed to its build-time
    metric).
``trav_degrade(exc) -> (vectors, oids)``
    Corruption fallback: answer the whole batch from a sequential scan
    (hybrid tree ``on_corruption="scan"``).  Absent, page corruption
    propagates.

Range and distance batches descend depth-first as *alive sets*: at an
inner node one block mask, ``(alive queries x children)``, decides every
child for every alive query, and each child with a hit is visited, in
order, with the queries that hit it.  A batch of one is the single query:
its visits, the pages it fetches (in the same order) and its result are
what a dedicated recursion would give.  Batch results are **bit-identical**
to looping the single queries: leaves are scanned with the same per-query
numpy kernels in the same visit order, a block's rows are the same float
operations whatever else shares the call, and k-NN selection uses the
deterministic ``(distance, oid)`` total order everywhere.  k-NN is
best-first, a batch of one on one heap and a larger batch in lockstep
rounds (:mod:`repro.engine.bestfirst`) that pop the same entries per query.

Every kernel accepts a :class:`repro.resilience.Deadline` and checks it at
node-visit granularity (k-NN: once per pop, or per round).  A kernel
always returns what it finished: a batch the deadline stopped comes back
as a :class:`~repro.resilience.PartialResult` carrying the hits
accumulated so far and the :class:`~repro.resilience.QueryTimeoutError`,
with every page read before it billed, and the public API decides,
once, whether to raise that error (``on_timeout``,
:func:`~repro.resilience.apply_on_timeout`).  The deadline is also
installed as the ambient :func:`~repro.resilience.deadline_scope`, so the
layers below — the ``NodeManager`` retry loop, the degraded sequential
scan — spend from the same budget.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import NamedTuple, Sequence

import numpy as np

from repro.distances import Metric
from repro.engine.bestfirst import Growing, TopK, best_first_knn
from repro.engine.metrics import BatchMetrics
from repro.engine.query import QueryBatch
from repro.resilience import (
    Deadline,
    PartialResult,
    QueryTimeoutError,
    deadline_scope,
)
from repro.storage.errors import PageCorruptionError

__all__ = [
    "ChildBound",
    "Children",
    "EdgeBlock",
    "RectBlock",
    "kernel_range_search_many",
    "kernel_distance_range_many",
    "kernel_knn_many",
]


# ----------------------------------------------------------------------
# Bound blocks: a node's pruning predicates, one block per node
# ----------------------------------------------------------------------
class ChildBound:
    """Pruning predicates for one child whose region has no batched form
    (spheres, SR-tree rect-spheres, M-tree routers); an
    :class:`EdgeBlock` evaluates a node's bounds column by column.

    Each row of the inputs is one query; each method returns one value per
    row.
    """

    __slots__ = ()

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Rows whose query box can contain points of this child."""
        raise TypeError(
            f"{type(self).__name__} has no box geometry; the structure "
            "should set trav_supports_box = False"
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        """Lower bound on the distance from each query point to the child."""
        raise NotImplementedError

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        """Rows whose distance-range query can reach this child."""
        return self.mindist(qs, metric) <= radii


class RectBlock:
    """Children bounded by axis-aligned boxes, row ``i`` for child ``i``.

    Box queries test ``low``/``high``; metric bounds are taken from the
    distance boxes, which are the same rows unless the structure keeps a
    second set (the hB-tree tests box queries against each kd path's
    constraint rect but takes distances to the clipped region).  The rows
    are read, never copied: the hybrid tree passes its cached
    ``ChildBoxes`` arrays as they are.

    Every method broadcasts ``(queries, 1, d)`` against ``(children, d)``
    and reduces the last axis, so each entry is the same float operations
    as the scalar test of that query and child.
    """

    __slots__ = ("low", "high", "dist")

    def __init__(self, low, high, dist_low=None, dist_high=None):
        self.low, self.high = low, high
        self.dist = None if dist_low is None else (dist_low, dist_high)

    def parts(self) -> tuple[np.ndarray, ...]:
        """The row arrays, for :class:`BlockRows`; ``RectBlock(*parts)``
        rebuilds the block."""
        return (self.low, self.high) + (self.dist or ())

    def dist_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.dist or (self.low, self.high)

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return np.logical_and.reduce(
            (lows[:, None] <= self.high) & (self.low <= highs[:, None]), axis=-1
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        low, high = self.dist_boxes()
        if len(qs) == 1:  # the same rows, without broadcasting a third axis
            return metric.pair_mindist(qs[0], low, high)[None]
        return metric.pair_mindist(qs[:, None], low, high)

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        return self.mindist(qs, metric) <= radii[:, None]

    def pair_mindist(self, e: np.ndarray, qs: np.ndarray, metric: Metric) -> np.ndarray:
        """Per pair ``j``: the bound from ``qs[j]`` to the child of row
        ``e[j]`` (best-first k-NN's rounds mix children freely)."""
        low, high = self.dist_boxes()
        return metric.pair_mindist(qs, low[e], high[e])


class EdgeBlock:
    """Children whose bounds have no batched form: one :class:`ChildBound`
    per child (``bounds``, an object array), each called once with all
    the rows."""

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=object)

    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.bounds,)

    def _columns(self, rows: int, dtype, fn) -> np.ndarray:
        out = np.empty((rows, len(self.bounds)), dtype=dtype)
        for i, bound in enumerate(self.bounds):
            out[:, i] = fn(bound)
        return out

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self._columns(len(lows), bool, lambda b: b.box_mask(lows, highs))

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return self._columns(len(qs), np.float64, lambda b: b.mindist(qs, metric))

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        return self._columns(len(qs), bool, lambda b: b.distance_mask(qs, radii, metric))

    def pair_mindist(self, e: np.ndarray, qs: np.ndarray, metric: Metric) -> np.ndarray:
        # Each edge's bound is called once, with its pairs' rows in order.
        out = np.empty(len(e), dtype=np.float64)
        order = np.argsort(e, kind="stable")
        for seg in np.split(order, np.flatnonzero(np.diff(e[order])) + 1):
            out[seg] = self.bounds[e[seg[0]]].mindist(qs[seg], metric)
        return out


class Children(NamedTuple):
    """What ``trav_children`` returns: a node's children in visit order."""

    refs: list  # child refs, for ``trav_node``
    ctxs: Sequence  # each child's traversal context, for ``trav_children``
    bounds: RectBlock | EdgeBlock  # their pruning predicates


class BlockRows:
    """Blocks of one form appended into one block, each append amortized
    over its own rows: the edge table of a k-NN batch's reached tree and
    of a compiled snapshot."""

    def __init__(self):
        self._form = None
        self._bufs: list[Growing] = []

    def extend(self, block) -> None:
        parts = block.parts()
        if self._form is None:
            self._form = type(block)
            self._bufs = [Growing(p.dtype, *p.shape[1:]) for p in parts]
        elif type(block) is not self._form or len(parts) != len(self._bufs):
            raise TypeError(
                f"mixed bound blocks in one index: {self._form.__name__} "
                f"vs {type(block).__name__}"
            )
        for buf, rows in zip(self._bufs, parts):
            buf.extend(rows)

    def block(self):
        """Every row appended so far, as one block (views of the buffers);
        None before the first append."""
        if self._form is None:
            return None
        return self._form(*(buf.data[: buf.size] for buf in self._bufs))


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _reads(io) -> int:
    return io.random_reads + io.sequential_reads


def _run(index, batch: QueryBatch, return_metrics: bool, walk, collect):
    """Every kernel's envelope: run ``walk()``, and return what it finished.

    Owns the clock and the read checkpoint.  ``collect()`` gives the
    batch's ``(results, visits)`` from the traversal's accumulators, and
    runs however the walk ends, so what it bills (the SOA kernels charge
    their visited pages there) is billed whatever stopped the walk.  A
    :class:`QueryTimeoutError` comes back as a :class:`PartialResult`
    holding those results and the error, with no query marked complete:
    the traversal stopped mid-flight, so no query's hits are certified
    exhaustive.  Any other error propagates.  ``walk()`` returns None, or
    the whole answer when a degraded scan gave it (:func:`_walk`).

    Returns the results; with ``return_metrics`` also a
    :class:`BatchMetrics` labelled ``batch.label``.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    answer = err = None
    try:
        answer = walk()
    except QueryTimeoutError as exc:
        err = exc
    finally:
        results, visits = collect()
    if answer is not None:
        results = answer
    elif err is not None:
        results = PartialResult(results, np.zeros(len(batch), dtype=bool), err)
    if not return_metrics:
        return results
    return results, BatchMetrics.from_batch_run(
        label=batch.label,
        node_visits=visits,
        charged_reads=_reads(index.io) - reads0,
        wall_seconds=time.perf_counter() - start,
    )


def _make_fetch(index, charged: set):
    """Node fetch honouring the structure's de-duplication contract."""
    if not getattr(index, "trav_dedup", False):
        return index.trav_node

    def fetch(ref):
        node = index.trav_node(ref, charge=ref not in charged)
        charged.add(ref)
        return node

    return fetch


def _walk(index, visit, n: int, deadline, from_scan):
    """Run ``visit`` from the root for all ``n`` queries under ``deadline``.

    Returns None: the caller reads the traversal's own accumulators.  On
    page corruption a structure with ``trav_degrade`` answers the whole
    batch from one sequential scan instead, still under the deadline (the
    hybrid tree's ``on_corruption="scan"``), and that answer,
    ``from_scan(vectors, oids)``, is returned.
    """
    root_ref, root_ctx = index.trav_root()
    with deadline_scope(deadline):
        try:
            visit(root_ref, root_ctx, np.arange(n))
        except PageCorruptionError as exc:
            degrade = getattr(index, "trav_degrade", None)
            if degrade is None:
                raise
            return from_scan(*degrade(exc))
    return None


def _descend(index, batch: QueryBatch, return_metrics: bool, deadline, out: list,
             mask, scan, from_scan):
    """The depth-first alive-set walk of the range and distance kernels,
    run by :func:`_run`; ``scan`` accumulates each query's hits in
    ``out``.

    ``mask(block, rows)`` is the ``(alive, children)`` bound mask of an
    inner node, for the batch rows ``rows``: the alive set, or a full
    slice while every query is alive (the root, and a single query
    throughout), which indexes without a copy.  ``scan(node, alive)``
    scans a leaf for its alive queries.
    A child is visited, in order, with the queries whose entry is set (a
    lone alive query is passed on as it is, with no gather).  Dedup
    structures scan each ``(page, query)`` pair once.
    """
    n = len(batch)
    fetch = _make_fetch(index, set())
    is_leaf, children = index.trav_is_leaf, index.trav_children
    scanned = {} if getattr(index, "trav_dedup", False) else None
    walked: list[np.ndarray] = []

    def visit(ref, ctx, alive: np.ndarray) -> None:
        if deadline is not None:
            deadline.check()
        node = fetch(ref)
        walked.append(alive)
        if is_leaf(node):
            if scanned is not None:
                done = scanned.get(ref)
                if done is None:
                    done = scanned[ref] = np.zeros(n, dtype=bool)
                alive = alive[~done[alive]]
                done[alive] = True
            if alive.size:
                scan(node, alive)
            return
        kids = children(node, ctx)
        refs, ctxs = kids.refs, kids.ctxs
        hit = mask(kids.bounds, alive if len(alive) < n else slice(None))
        if len(alive) == 1:  # a single query: the children it hits get it
            for i in np.flatnonzero(hit).tolist():
                visit(refs[i], ctxs[i], alive)
            return
        for i in np.flatnonzero(np.logical_or.reduce(hit, axis=0)).tolist():
            visit(refs[i], ctxs[i], alive[hit[:, i]])

    return _run(
        index, batch, return_metrics,
        lambda: _walk(index, visit, n, deadline, from_scan),
        lambda: (out, _visit_counts(walked, n) if return_metrics else None),
    )


def _visit_counts(walked: list[np.ndarray], n: int) -> np.ndarray:
    """Each query's node visits, from :func:`_descend`'s alive sets."""
    if not walked:
        return np.zeros(n, dtype=np.int64)
    return np.bincount(np.concatenate(walked), minlength=n)


# ----------------------------------------------------------------------
# Box range queries
# ----------------------------------------------------------------------
def kernel_range_search_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
):
    """Execute a non-empty range :class:`QueryBatch` in one
    structure-agnostic traversal.

    Returns one oid list per query (a batch of one is the index's
    single-query ``range_search``); with ``return_metrics=True`` also a
    :class:`BatchMetrics`.  ``deadline`` bounds the traversal: a batch it
    stops returns a :class:`PartialResult` of the hits found so far, its
    pages billed (:func:`_run`).
    """
    lows, highs = batch.lows, batch.highs
    n = len(batch)
    out: list[list[int]] = [[] for _ in range(n)]
    leaf_points = index.trav_leaf_points
    low_rows, high_rows = list(lows), list(highs)
    all_of = np.logical_and.reduce

    def hits(pts, oids, qi: int) -> list[int]:
        return oids[all_of((pts >= low_rows[qi]) & (pts <= high_rows[qi]), axis=1)].tolist()

    def scan(node, alive: np.ndarray) -> None:
        pts, oids = leaf_points(node)
        if len(pts):
            for qi in alive.tolist():
                out[qi].extend(hits(pts, oids, qi))

    def from_scan(vectors, oids):
        return [hits(vectors, oids, qi) for qi in range(n)]

    return _descend(
        index, batch, return_metrics, deadline, out,
        lambda block, rows: block.box_mask(lows[rows], highs[rows]), scan, from_scan,
    )


# ----------------------------------------------------------------------
# Distance range queries
# ----------------------------------------------------------------------
def kernel_distance_range_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
):
    """Execute a non-empty distance :class:`QueryBatch` (one shared metric)
    in one pass.

    A batch of one is the index's single-query ``distance_range``.
    ``deadline`` behaves as in :func:`kernel_range_search_many`.
    """
    qs, radii, metric = batch.centers, batch.radii, batch.metric
    n = len(batch)
    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    leaf_points = index.trav_leaf_points
    q_rows, radius_of = list(qs), radii.tolist()

    def hits(points64, oids, qi: int) -> list[tuple[int, float]]:
        dists = metric.distance_batch(points64, q_rows[qi])
        near = np.flatnonzero(dists <= radius_of[qi])
        if not near.size:
            return []
        return list(zip(oids[near].tolist(), dists[near].tolist()))

    def scan(node, alive: np.ndarray) -> None:
        pts, oids = leaf_points(node)
        if len(pts):
            points64 = pts.astype(np.float64)
            for qi in alive.tolist():
                out[qi].extend(hits(points64, oids, qi))

    def from_scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        return [hits(points64, oids, qi) for qi in range(n)]

    return _descend(
        index, batch, return_metrics, deadline, out,
        lambda block, rows: block.distance_mask(qs[rows], radii[rows], metric),
        scan, from_scan,
    )


# ----------------------------------------------------------------------
# k-nearest-neighbour queries
# ----------------------------------------------------------------------
class _ReachedTree:
    """The part of an index a k-NN batch has reached, in the SOA snapshot's
    layout (see :mod:`repro.engine.bestfirst`), filled in as queries first
    pop each occurrence.

    Loading an occurrence fetches its page once per batch through
    ``fetch``; an inner node appends its children's bound block to the
    edge table (:class:`BlockRows`), so each round's child bounds are one
    :meth:`~RectBlock.pair_mindist` call over ``(edge, query)`` pairs,
    while a leaf appends its points (one float64 copy per page) to the
    shared row buffer.  Occurrence ``i > 0`` is the child of edge
    ``i - 1``.
    """

    def __init__(self, index, fetch, root_ref, root_ctx, qs: np.ndarray, metric: Metric):
        self.index, self._fetch = index, fetch
        self.dedup = bool(getattr(index, "trav_dedup", False))
        self._qs, self._metric = qs, metric
        dims = qs.shape[1]
        self._refs: list = [root_ref]
        self._ctxs: list = [root_ctx]
        self._edges = BlockRows()
        self._slices: dict = {}  # leaf page -> its rows
        self._loaded = Growing(bool)
        self._leaf = Growing(bool)
        self._first = Growing(np.int64)
        self._count = Growing(np.int64)
        self._start = Growing(np.int64)
        self._end = Growing(np.int64)
        self._ref = Growing(np.int64)
        self._child = Growing(np.int64)
        self._points = Growing(np.float64, dims)
        self._oids = Growing(np.int64)
        self._add_nodes([root_ref])
        self._publish()

    def _add_nodes(self, refs: list) -> None:
        m = len(refs)
        for buf in (self._loaded, self._leaf, self._first, self._count,
                    self._start, self._end):
            buf.extend(np.zeros(m, dtype=buf.data.dtype))
        self._ref.extend(np.asarray(refs, dtype=np.int64))

    def _publish(self) -> None:
        """Expose the buffers under the names ``best_first_knn`` reads."""
        self.is_leaf, self.node_ref = self._leaf.data, self._ref.data
        self.first_edge, self.n_edges = self._first.data, self._count.data
        self.edge_child = self._child.data
        self.leaf_start, self.leaf_end = self._start.data, self._end.data
        self.points, self.oids = self._points.data, self._oids.data

    def load(self, nodes: np.ndarray) -> None:
        for occ in np.unique(nodes[~self._loaded.data[nodes]]).tolist():
            ref = self._refs[occ]
            node = self._fetch(ref)
            self._loaded.data[occ] = True
            if self.index.trav_is_leaf(node):
                self._leaf.data[occ] = True
                span = self._slices.get(ref)
                if span is None:
                    pts, oids = self.index.trav_leaf_points(node)
                    span = (self._points.size, self._points.size + len(pts))
                    self._points.extend(pts.astype(np.float64))
                    self._oids.extend(oids)
                    self._slices[ref] = span
                self._start.data[occ], self._end.data[occ] = span
                continue
            kids = self.index.trav_children(node, self._ctxs[occ])
            first, m = len(self._refs) - 1, len(kids.refs)
            self._first.data[occ], self._count.data[occ] = first, m
            if not m:
                continue
            self._refs.extend(kids.refs)
            self._ctxs.extend(kids.ctxs)
            self._edges.extend(kids.bounds)
            self._child.extend(np.arange(first + 1, first + 1 + m))
            self._add_nodes(kids.refs)
        self._publish()

    def mindist(self, e: np.ndarray, q: np.ndarray) -> np.ndarray:
        # A metric's rows do not depend on which other rows share the call.
        return self._edges.block().pair_mindist(e, self._qs[q], self._metric)


def _heap_visit(index, fetch, q, k: int, metric: Metric, shrink: float, deadline,
                best: list, visits: list):
    """The :func:`_walk` visit of a k-NN batch of one: its best-first search
    on one heap, popping what :func:`best_first_knn`'s rounds pop for the
    query.  ``best`` holds the best k ``(distance, oid)`` so far, sorted,
    and ``visits[0]`` counts pops; both keep the work done if the deadline
    (checked per pop) fires.
    """
    scanned = set() if getattr(index, "trav_dedup", False) else None
    push_order = itertools.count(1)

    def visit(ref, ctx, alive) -> None:
        # Entries are (bound, push order, refs, ctxs, i): child i of a node
        # whose refs and contexts are looked up only if it is popped.
        frontier = [(0.0, 0, [ref], [ctx], 0)]
        while frontier:
            if deadline is not None:
                deadline.check()
            bound, _, refs, ctxs, i = heapq.heappop(frontier)
            kth = best[-1][0] if len(best) >= k else np.inf
            if bound > kth * shrink:
                return
            node = fetch(refs[i])
            visits[0] += 1
            if not index.trav_is_leaf(node):
                kids = index.trav_children(node, ctxs[i])
                bounds = kids.bounds.mindist(q[None], metric)[0]
                near = np.flatnonzero(bounds <= kth * shrink)
                for b, j in zip(bounds[near].tolist(), near.tolist()):
                    heapq.heappush(frontier, (b, next(push_order), kids.refs, kids.ctxs, j))
            elif scanned is None or refs[i] not in scanned:
                if scanned is not None:
                    scanned.add(refs[i])
                pts, oids = index.trav_leaf_points(node)
                dists = metric.distance_batch(pts.astype(np.float64), q)
                # A point beyond the kth can never enter the best k.
                near = np.flatnonzero(dists <= kth)
                if near.size:
                    found = zip(dists[near].tolist(), oids[near].tolist())
                    best[:] = sorted(best + list(found))[:k]

    return visit


def kernel_knn_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
):
    """Execute a non-empty k-NN :class:`QueryBatch` as per-query best-first
    searches.

    Each query pops its own smallest ``(bound, push order)`` entry and
    stops once that bound exceeds ``kth / (1 + eps)``, so a query's
    visits, and its result under the deterministic ``(distance, oid)``
    order (also for ``approximation_factor > 0``), are the same whatever
    else shares the batch.  A batch of one (the index's single-query
    ``knn``) runs one heap (:func:`_heap_visit`); a larger batch runs the
    searches in lockstep rounds (:mod:`repro.engine.bestfirst`), fetching
    every page once per batch.  ``deadline`` behaves as in
    :func:`kernel_range_search_many`; a partial k-NN result holds each
    query's best candidates found so far.
    """
    qs, k, metric = batch.centers, batch.k, batch.metric
    n = len(batch)
    shrink = 1.0 / (1.0 + batch.approximation_factor)
    fetch = _make_fetch(index, set())
    if n == 1:
        best: list[tuple[float, int]] = []
        visits = [0]
        visit = _heap_visit(index, fetch, qs[0], k, metric, shrink, deadline, best, visits)

        def results():
            return [[(oid, dist) for dist, oid in best]]
    else:
        topk = TopK(n, k)
        visits = np.zeros(n, dtype=np.int64)
        results = topk.results

        def visit(ref, ctx, alive: np.ndarray) -> None:
            best_first_knn(
                _ReachedTree(index, fetch, ref, ctx, qs, metric), qs, metric,
                shrink, topk, visits, deadline,
            )

    def from_scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        scan_out = []
        for qi in range(n):
            dists = metric.distance_batch(points64, qs[qi])
            order = np.lexsort((oids, dists))[:k]
            scan_out.append([(int(oids[i]), float(dists[i])) for i in order])
        return scan_out

    return _run(
        index, batch, return_metrics,
        lambda: _walk(index, visit, n, deadline, from_scan),
        lambda: (results(), visits),
    )
