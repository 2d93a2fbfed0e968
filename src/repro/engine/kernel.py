"""Structure-agnostic traversal kernel: one batch engine for every index.

The shared-traversal batch engine used to be hard-wired to the hybrid tree
(:mod:`repro.engine.batch`), while every baseline answered batched and
parallel workloads through a measured per-query loop — so cross-structure
benchmarks compared an optimized engine against an unoptimized one.  This
module extracts the traversal into three generic functions written against a
small **traversable-index protocol**; the hybrid tree and all paged
baselines implement it, and single-query, batched, and N-worker parallel
execution flow through this one code path with the same ``IOStats`` /
``BatchMetrics`` accounting.

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
``index.trav_children(node, ctx) -> [(child_ref, child_ctx, bound)]``
    Child enumeration in the structure's canonical visit order; ``bound``
    is a :class:`ChildBound` for vectorized pruning.

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

Results are **bit-identical** to the structures' pre-kernel recursive query
methods: leaves are scanned with the same per-query numpy kernels in the
same visit order, the batch bound predicates perform the same float
operations row-wise as their scalar forms, and k-NN selection uses the
deterministic ``(distance, oid)`` total order everywhere.

Every kernel accepts a :class:`repro.resilience.Deadline` and checks it at
node-visit granularity (k-NN: once per best-first round, see
:mod:`repro.engine.bestfirst`): an expired budget raises
:class:`~repro.resilience.QueryTimeoutError` (or, under
``on_timeout="partial"``, returns a
:class:`~repro.resilience.PartialResult` carrying the hits accumulated
before the deadline fired, with honest metrics for the work actually
done).  The deadline is also installed as the ambient
:func:`~repro.resilience.deadline_scope`, so the layers below — the
``NodeManager`` retry loop, the degraded sequential scan — spend from the
same budget.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances import Metric
from repro.engine.bestfirst import Growing, TopK, best_first_knn, per_edge_eval
from repro.engine.metrics import BatchMetrics
from repro.engine.query import QueryBatch
from repro.geometry.rect import Rect
from repro.resilience import (
    Deadline,
    PartialResult,
    QueryTimeoutError,
    deadline_scope,
)
from repro.storage.errors import PageCorruptionError

__all__ = [
    "ChildBound",
    "RectBound",
    "kernel_range_search_many",
    "kernel_distance_range_many",
    "kernel_knn_many",
]


# ----------------------------------------------------------------------
# Child bounds: the pruning predicates, one object per child edge
# ----------------------------------------------------------------------
class ChildBound:
    """Vectorized pruning predicates for one child of an index node.

    Structures provide a subclass per region geometry; the kernel evaluates
    the predicate for all alive queries at once.  Each row of the inputs is
    one query; each method returns one value per row.
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


class RectBound(ChildBound):
    """The common case: a child bounded by an axis-aligned rectangle."""

    __slots__ = ("rect",)

    def __init__(self, rect: Rect):
        self.rect = rect

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self.rect.intersects_boxes_mask(lows, highs)

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return metric.pair_mindist(qs, self.rect.low, self.rect.high)


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _reads(io) -> int:
    return io.random_reads + io.sequential_reads


def _wrap_partial(out, err: QueryTimeoutError | None, n: int):
    """Under ``on_timeout="partial"``, envelope a timed-out batch's output.

    Kernel-granularity timeouts are conservative: the traversal stopped
    mid-flight, so *no* query can be certified complete even though the
    accumulated hits per query are real.
    """
    if err is None:
        return out
    return PartialResult(out, np.zeros(n, dtype=bool), err)


def _finish(results, visits, index, start, reads0, return_metrics, label):
    if not return_metrics:
        return results
    wall = time.perf_counter() - start
    metrics = BatchMetrics.from_batch_run(
        label=label,
        node_visits=visits,
        charged_reads=_reads(index.io) - reads0,
        wall_seconds=wall,
    )
    return results, metrics


def _make_fetch(index, charged: set):
    """Node fetch honouring the structure's de-duplication contract."""
    if not getattr(index, "trav_dedup", False):
        return index.trav_node

    def fetch(ref):
        node = index.trav_node(ref, charge=ref not in charged)
        charged.add(ref)
        return node

    return fetch


def _dedup_filter(index, scanned: dict, ref, alive: np.ndarray, n: int) -> np.ndarray:
    """For dedup structures: drop queries that already scanned this leaf."""
    if not getattr(index, "trav_dedup", False):
        return alive
    done = scanned.get(ref)
    if done is None:
        done = np.zeros(n, dtype=bool)
        scanned[ref] = done
    alive = alive[~done[alive]]
    done[alive] = True
    return alive


def _walk(index, visit, n: int, deadline, on_timeout: str, from_scan):
    """Run ``visit`` from the root for all ``n`` queries under ``deadline``.

    Returns ``(scan_out, err)``.  On page corruption a structure with
    ``trav_degrade`` answers the whole batch from one sequential scan
    (``scan_out = from_scan(vectors, oids)``, still under the deadline —
    the hybrid tree's ``on_corruption="scan"``); otherwise ``scan_out`` is
    None and the caller reads the traversal's own accumulators.  ``err`` is
    the timeout swallowed under ``on_timeout="partial"``.
    """
    root_ref, root_ctx = index.trav_root()
    degrade = getattr(index, "trav_degrade", None)
    try:
        with deadline_scope(deadline):
            try:
                visit(root_ref, root_ctx, np.arange(n))
            except PageCorruptionError as exc:
                if degrade is None:
                    raise
                return from_scan(*degrade(exc)), None
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        return None, exc
    return None, None


# ----------------------------------------------------------------------
# Box range queries
# ----------------------------------------------------------------------
def kernel_range_search_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute a non-empty range :class:`QueryBatch` in one
    structure-agnostic traversal.

    Returns one oid list per query (bit-identical to looping the index's
    single-query ``range_search``); with ``return_metrics=True`` also a
    :class:`BatchMetrics`.  ``deadline`` bounds the traversal; on expiry
    the call raises :class:`QueryTimeoutError` or — under
    ``on_timeout="partial"`` — returns a :class:`PartialResult`.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    lows, highs = batch.lows, batch.highs
    n = len(batch)
    results: list[list[np.ndarray]] = [[] for _ in range(n)]
    visits = np.zeros(n, dtype=np.int64)
    charged: set = set()
    scanned: dict = {}
    fetch = _make_fetch(index, charged)

    def visit(ref, ctx, alive: np.ndarray) -> None:
        if deadline is not None:
            deadline.check()
        node = fetch(ref)
        visits[alive] += 1
        if index.trav_is_leaf(node):
            alive = _dedup_filter(index, scanned, ref, alive, n)
            if not alive.size:
                return
            pts, oids = index.trav_leaf_points(node)
            if len(pts):
                inside = Rect.boxes_contain_points_mask(
                    lows[alive], highs[alive], pts
                )
                for row, qi in zip(inside, alive):
                    if row.any():
                        results[qi].append(oids[row])
            return
        for child_ref, child_ctx, bound in index.trav_children(node, ctx):
            sub = alive[bound.box_mask(lows[alive], highs[alive])]
            if sub.size:
                visit(child_ref, child_ctx, sub)

    def from_scan(vectors, oids):
        inside = Rect.boxes_contain_points_mask(lows, highs, vectors)
        return [[int(o) for o in oids[row]] for row in inside]

    scan_out, err = _walk(index, visit, n, deadline, on_timeout, from_scan)
    if scan_out is not None:
        out = scan_out
    else:
        out = [[int(o) for arr in per_query for o in arr] for per_query in results]
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )


# ----------------------------------------------------------------------
# Distance range queries
# ----------------------------------------------------------------------
def kernel_distance_range_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute a non-empty distance :class:`QueryBatch` (one shared metric)
    in one pass.

    Bit-identical to looping the index's single-query ``distance_range``.
    ``deadline`` / ``on_timeout`` behave as in
    :func:`kernel_range_search_many`.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    qs, radii, metric = batch.centers, batch.radii, batch.metric
    n = len(batch)
    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    visits = np.zeros(n, dtype=np.int64)
    charged: set = set()
    scanned: dict = {}
    fetch = _make_fetch(index, charged)

    def visit(ref, ctx, alive: np.ndarray) -> None:
        if deadline is not None:
            deadline.check()
        node = fetch(ref)
        visits[alive] += 1
        if index.trav_is_leaf(node):
            alive = _dedup_filter(index, scanned, ref, alive, n)
            if not alive.size:
                return
            pts, oids = index.trav_leaf_points(node)
            if len(pts):
                points64 = pts.astype(np.float64)
                for qi in alive:
                    dists = metric.distance_batch(points64, qs[qi])
                    for i in np.flatnonzero(dists <= radii[qi]):
                        out[qi].append((int(oids[i]), float(dists[i])))
            return
        for child_ref, child_ctx, bound in index.trav_children(node, ctx):
            sub = alive[bound.distance_mask(qs[alive], radii[alive], metric)]
            if sub.size:
                visit(child_ref, child_ctx, sub)

    def from_scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        scan_out = []
        for qi in range(n):
            dists = metric.distance_batch(points64, qs[qi])
            hits = np.flatnonzero(dists <= radii[qi])
            scan_out.append([(int(oids[i]), float(dists[i])) for i in hits])
        return scan_out

    scan_out, err = _walk(index, visit, n, deadline, on_timeout, from_scan)
    if scan_out is not None:
        out = scan_out
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )


# ----------------------------------------------------------------------
# k-nearest-neighbour queries
# ----------------------------------------------------------------------
class _ReachedTree:
    """The part of an index a k-NN batch has reached, in the SOA snapshot's
    layout (see :mod:`repro.engine.bestfirst`), filled in as queries first
    pop each occurrence.

    Loading an occurrence fetches its page once per batch through
    ``fetch``; an inner node stacks its children's boxes into the edge
    arrays, so each round's child bounds are one array op over
    ``(edge, query)`` pairs, while a leaf appends its points (one float64
    copy per page) to the shared row buffer.  Bounds that are not plain
    :class:`RectBound` rectangles are evaluated per edge through their own
    :class:`ChildBound`.  Occurrence ``i > 0`` is the child of edge
    ``i - 1``.
    """

    def __init__(self, index, fetch, root_ref, root_ctx, qs: np.ndarray, metric: Metric):
        self.index, self._fetch = index, fetch
        self.dedup = bool(getattr(index, "trav_dedup", False))
        self._qs, self._metric = qs, metric
        dims = qs.shape[1]
        self._refs: list = [root_ref]
        self._ctxs: list = [root_ctx]
        self._bounds: list[ChildBound] = []
        self._all_rect = True
        self._slices: dict = {}  # leaf page -> its rows
        self._loaded = Growing(bool)
        self._leaf = Growing(bool)
        self._first = Growing(np.int64)
        self._count = Growing(np.int64)
        self._start = Growing(np.int64)
        self._end = Growing(np.int64)
        self._ref = Growing(np.int64)
        self._child = Growing(np.int64)
        self._low = Growing(np.float64, dims)
        self._high = Growing(np.float64, dims)
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
            children = self.index.trav_children(node, self._ctxs[occ])
            first = len(self._bounds)
            self._first.data[occ], self._count.data[occ] = first, len(children)
            if not children:
                continue
            refs = [child_ref for child_ref, _, _ in children]
            bounds = [bound for _, _, bound in children]
            self._refs.extend(refs)
            self._ctxs.extend(child_ctx for _, child_ctx, _ in children)
            self._bounds.extend(bounds)
            self._child.extend(np.arange(first + 1, first + 1 + len(children)))
            self._add_nodes(refs)
            self._all_rect = self._all_rect and all(type(b) is RectBound for b in bounds)
            if self._all_rect:
                self._low.extend(np.stack([b.rect.low for b in bounds]))
                self._high.extend(np.stack([b.rect.high for b in bounds]))
        self._publish()

    def mindist(self, e: np.ndarray, q: np.ndarray) -> np.ndarray:
        qs, metric = self._qs, self._metric
        if self._all_rect:
            # Row-wise RectBound.mindist: a metric's rows do not depend on
            # which other rows share the call.
            return metric.pair_mindist(qs[q], self._low.data[e], self._high.data[e])
        bounds = self._bounds
        return per_edge_eval(
            e, np.float64, lambda eid, seg: bounds[eid].mindist(qs[q[seg]], metric)
        )


def kernel_knn_many(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute a non-empty k-NN :class:`QueryBatch` as per-query best-first
    searches run in lockstep rounds (:mod:`repro.engine.bestfirst`).

    Each query pops its own smallest ``(bound, push order)`` entry and
    stops once that bound exceeds ``kth / (1 + eps)`` — the rule and tie
    order of ``HybridTree.knn`` — so a query's visits, and its result under
    the deterministic ``(distance, oid)`` order (also for
    ``approximation_factor > 0``), equal the single-query search's whatever
    else shares the batch.  Every page is fetched once per batch.
    ``deadline`` / ``on_timeout`` behave as in
    :func:`kernel_range_search_many`; a partial k-NN result holds each
    query's best candidates found so far.
    """
    start = time.perf_counter()
    reads0 = _reads(index.io)
    qs, k, metric = batch.centers, batch.k, batch.metric
    n = len(batch)
    topk = TopK(n, k)
    visits = np.zeros(n, dtype=np.int64)
    fetch = _make_fetch(index, set())

    def visit(ref, ctx, alive: np.ndarray) -> None:
        best_first_knn(
            _ReachedTree(index, fetch, ref, ctx, qs, metric), qs, metric,
            1.0 / (1.0 + batch.approximation_factor), topk, visits, deadline,
        )

    def from_scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        scan_out = []
        for qi in range(n):
            dists = metric.distance_batch(points64, qs[qi])
            order = np.lexsort((oids, dists))[:k]
            scan_out.append([(int(oids[i]), float(dists[i])) for i in order])
        return scan_out

    scan_out, err = _walk(index, visit, n, deadline, on_timeout, from_scan)
    out = scan_out if scan_out is not None else topk.results()
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, batch.label
    )
