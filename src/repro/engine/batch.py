"""Shared-traversal batch execution of many queries over one hybrid tree.

A single query re-descends from the root for every call, re-charging the
same directory pages each time.  For a serving workload of hundreds of
queries that redundancy dominates: the upper levels are fetched once *per
query* instead of once *per batch*.  This module executes a whole batch in one traversal
through the structure-agnostic :mod:`repro.engine.kernel`, which the hybrid
tree and the paged baselines join via their ``trav_*`` protocol methods:

- queries descend together as an *alive set* (a numpy index array);
- each tree node is fetched from the :class:`NodeManager` once per batch —
  one charged page read — and tested against all alive queries with the
  node's bound block (one ``(queries x children)`` mask per node);
- a query leaves the alive set as soon as the node's quantized live-space
  box can no longer contribute to it, exactly the single-query pruning
  rule evaluated row-wise.

Results are **bit-identical** to looping the single-query methods: data
nodes are scanned with the same per-query numpy kernels in the same
traversal order, the batch bound predicates perform the same clip-and-reduce
float operations as their scalar forms, and k-NN selection uses the same
deterministic ``(distance, oid)`` total order.  k-NN is the one kind that
does not descend as an alive set: each query runs its own best-first search
(:mod:`repro.engine.bestfirst`), the batch advancing all of them in
lockstep rounds that pop what the single query's heap pops, so approximate
k-NN (``approximation_factor > 0``), whose answer depends on the visit
order, matches the single-query method too.

:func:`dispatch` is the one place that picks the engine for a checked
:class:`~repro.engine.query.QueryBatch`: the vectorized SOA kernel when a
snapshot is attached (:mod:`repro.engine.soa`; a hybrid tree's snapshot
survives writes and is refreshed here, by the first batch that runs on it
after them), the object-walk kernel otherwise (and always for a k-NN
batch of one, an approximate k-NN batch, or k-NN under a metric without
``bound_below_distance``) — results are identical either way.  It also
validates ``on_timeout`` and the index's capabilities (box geometry,
metric) once, answers an empty batch without touching the tree, and
turns ``timeout=`` (seconds, or a
:class:`~repro.resilience.Deadline` carrying a :class:`CancelToken`)
into the deadline the kernels check.  A kernel the deadline stops
returns a :class:`~repro.resilience.PartialResult` envelope with the hits
gathered before the budget expired and a per-query completion mask, its
pages already billed; ``dispatch`` then applies ``on_timeout`` once
(:func:`~repro.resilience.apply_on_timeout`): ``"partial"`` returns the
envelope, ``"raise"`` raises its typed
:class:`~repro.resilience.QueryTimeoutError`.  Either way the pages
touched before the deadline fired stay billed, the same count.

:class:`QuerySession` adds buffer management on top: it pins the hot upper
levels of the directory once (charging each page a single read), so every
query executed inside the session revisits the directory for free — the
steady-state accounting of a warm serving process rather than the paper's
cold per-query numbers.
"""

from __future__ import annotations

import numpy as np

from repro.core.nodes import IndexNode
from repro.distances import L2, Metric
from repro.engine import kernel as object_kernel
from repro.engine.metrics import BatchMetrics
from repro.engine.query import DISTANCE, KNN, RANGE, QueryBatch, check_on_timeout
from repro.engine.soa import kernel as soa_kernel
from repro.engine.soa.snapshot import active_snapshot
from repro.geometry.rect import Rect
from repro.resilience import Deadline, QueryAdmissionController, apply_on_timeout

__all__ = ["QuerySession", "dispatch"]


def dispatch(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    timeout=None,
    on_timeout: str = "raise",
):
    """Run a checked batch on the SOA kernel if ``index`` keeps a snapshot
    that answers it (refreshing it first if writes left it stale), else on
    the object-walk kernel (:func:`_snapshot_for` decides).  A batch of
    one (every single query) does not refresh: a range or distance query
    runs on the snapshot only while that is current, else on the object
    walk, and a k-NN query always runs on the object kernel's heap search,
    as do approximate k-NN batches and k-NN under a metric without
    ``bound_below_distance``.

    Returns one result list per query; with ``return_metrics=True`` also a
    :class:`~repro.engine.metrics.BatchMetrics` labelled ``batch.label``.
    A batch ``timeout`` stops keeps its bill; ``on_timeout`` then picks
    its error or its :class:`~repro.resilience.PartialResult`.
    """
    check_on_timeout(on_timeout)
    if batch.kind == RANGE:
        if not getattr(index, "trav_supports_box", True):
            raise TypeError(
                "this index is distance-based: it has no coordinate geometry "
                "to answer bounding-box (window) queries — use a feature-based "
                "index such as the hybrid tree"
            )
    elif hasattr(index, "trav_check_metric"):
        index.trav_check_metric(batch.metric)
    if not len(batch):
        if not return_metrics:
            return []
        return [], BatchMetrics.from_batch_run(batch.label, np.zeros(0), 0, 0.0)
    deadline = Deadline.coerce(timeout)
    # The kernel tables are built per call, so a wrapper installed on a
    # kernel module's function sees every batch.
    snap = _snapshot_for(index, batch)
    if snap is not None:
        run = {
            RANGE: soa_kernel.soa_range_search_many,
            DISTANCE: soa_kernel.soa_distance_range_many,
            KNN: soa_kernel.soa_knn_many,
        }[batch.kind]
        out = run(index, snap, batch, return_metrics, deadline)
    else:
        run = {
            RANGE: object_kernel.kernel_range_search_many,
            DISTANCE: object_kernel.kernel_distance_range_many,
            KNN: object_kernel.kernel_knn_many,
        }[batch.kind]
        out = run(index, batch, return_metrics, deadline)
    return apply_on_timeout(out, on_timeout)


def _snapshot_for(index, batch: QueryBatch):
    """The snapshot ``batch`` runs on, or None for the object kernel.

    A k-NN batch runs on a snapshot only when the SOA frontier answers it:
    two or more exact queries (``approximation_factor == 0``) under a
    metric with ``bound_below_distance``.  A k-NN batch of one runs the
    object kernel's heap search even on a current snapshot: the frontier
    costs a single query 1.2-1.6x as much (COLHIST 64-d and FOURIER 16-d,
    k = 10, mmap + snapshot, 2-core host).  Any other batch of two or more
    refreshes a snapshot that writes left stale, and only such a batch
    does: after one insert into a 100,000-point 16-d tree the refresh
    takes about 8.5 ms, several single queries, so a batch of one runs on
    the snapshot only while it is current.
    """
    if batch.kind == KNN and (
        len(batch) == 1
        or batch.approximation_factor > 0
        or not batch.metric.bound_below_distance
    ):
        return None
    refresh = getattr(index, "refresh_snapshot", None)
    if refresh is not None and len(batch) > 1:
        return refresh()
    return active_snapshot(index)


# The per-kind names of :func:`dispatch`, kept so tracers that wrap them
# (``benchmarks/e2e/trace.py``) still find them.
dispatch_range_search_many = dispatch_distance_range_many = dispatch_knn_many = dispatch


class QuerySession:
    """A query context that keeps the tree's hot upper levels resident.

    On entry the top ``pin_levels`` levels of the directory are faulted in
    and pinned through :meth:`NodeManager.pin` — each page charged exactly
    once — after which every query served by the session traverses the
    pinned directory for free.  Use as a context manager::

        with QuerySession(tree, pin_levels=2) as session:
            hits = session.knn_many(batch, k=10)

    Closing the session unpins everything, returning the buffer to the
    paper's cold accounting.

    With ``workers > 1`` the batch methods run on a
    :class:`~repro.engine.parallel.ParallelQueryEngine` instead: the
    session reopens ``tree.source_path`` once per worker (``mode`` selects
    threads or fork/spawn processes) and merges partition results
    deterministically.  This requires a tree that came from
    ``save``/``open`` *and has no unsaved changes* — workers read the
    file, so in-memory mutations would silently be invisible to them;
    the constructor refuses rather than risking that.  Single-query
    methods and the pinned directory still use ``tree`` itself.

    ``timeout`` sets a default wall-clock budget (seconds) applied to every
    batch call that doesn't pass its own, with ``on_timeout`` selecting
    raise-vs-partial semantics; ``admission`` attaches a
    :class:`~repro.resilience.QueryAdmissionController` that rejects
    over-budget batches with a typed ``AdmissionError`` before any work
    starts.
    """

    def __init__(
        self,
        tree,
        pin_levels: int = 2,
        workers: int = 1,
        mode: str = "thread",
        timeout=None,
        on_timeout: str = "raise",
        admission: QueryAdmissionController | None = None,
    ):
        if pin_levels < 0:
            raise ValueError("pin_levels must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tree = tree
        self.timeout = timeout
        self.on_timeout = on_timeout
        self.admission = admission
        self._parallel = None
        if workers > 1:
            from repro.engine.parallel import ParallelQueryEngine

            if tree.source_path is None:
                raise ValueError(
                    "workers > 1 requires a saved tree (save() or open() "
                    "first): worker handles reopen the tree from its file"
                )
            if tree.modified_since_save and getattr(tree, "wal", None) is None:
                # WAL-enabled trees are exempt: every committed mutation is
                # durable in the sidecar log, so workers can reconstruct
                # the live tree's committed state without a save().
                raise ValueError(
                    "tree has unsaved in-memory changes; save() before "
                    "opening a parallel session so workers see them"
                )
            if getattr(tree, "wal", None) is not None and mode == "thread":
                # Thread workers on a WAL tree query pinned snapshot views
                # of the live store — no file reopen, no log replay, and
                # the snapshot stays consistent under concurrent writes.
                source = tree
            else:
                # Process workers (or plain saved trees) reopen the file;
                # a WAL tree's committed log is replayed on each open.
                source = tree.source_path
            self._parallel = ParallelQueryEngine(
                source, workers=workers, mode=mode, stats=tree.io,
                admission=admission,
            )
        self._pinned: list[int] = []
        try:
            frontier = [tree.root_id]
            for _ in range(min(pin_levels, tree.height)):
                next_frontier: list[int] = []
                for node_id in frontier:
                    node = tree.nm.pin(node_id)
                    self._pinned.append(node_id)
                    if isinstance(node, IndexNode):
                        next_frontier.extend(node.child_ids())
                frontier = next_frontier
        except BaseException:  # a corrupt page: release what was taken
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    @property
    def pinned_pages(self) -> int:
        return len(self._pinned)

    @property
    def workers(self) -> int:
        return self._parallel.workers if self._parallel is not None else 1

    def close(self) -> None:
        # Idempotent: a second close() finds nothing pinned and no engine.
        for node_id in self._pinned:
            self.tree.nm.unpin(node_id)
        self._pinned.clear()
        if self._parallel is not None:
            parallel, self._parallel = self._parallel, None
            parallel.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries -------------------------------------------------------
    def _resolve(self, timeout, on_timeout):
        if timeout is None:
            timeout = self.timeout
        if on_timeout is None:
            on_timeout = self.on_timeout
        return timeout, on_timeout

    def execute(
        self, batch: QueryBatch, return_metrics: bool = False,
        timeout=None, on_timeout: str | None = None,
    ):
        """Run a checked :class:`QueryBatch` on the parallel engine, or on
        the tree under the session's admission controller.  ``timeout`` /
        ``on_timeout`` default to the session's."""
        timeout, on_timeout = self._resolve(timeout, on_timeout)
        if self._parallel is not None:
            # The engine runs its own admission (same controller, handed
            # over in the constructor) — don't double-count.
            return self._parallel.execute(batch, return_metrics, timeout, on_timeout)
        if self.admission is None:
            return self.tree.execute(batch, return_metrics, timeout, on_timeout)
        with self.admission.admit(len(batch), self.tree.dims):
            return self.tree.execute(batch, return_metrics, timeout, on_timeout)

    # The per-kind helpers.  With workers they call the engine's helpers
    # rather than its execute(), so wrappers on the engine's public names
    # (benchmarks/e2e/trace.py times parallel batches through them) see
    # every session batch.
    def range_search_many(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str | None = None,
    ):
        if self._parallel is not None:
            return self._parallel.range_search_many(
                queries, return_metrics, *self._resolve(timeout, on_timeout)
            )
        batch = QueryBatch.range(queries, self.tree.dims)
        return self.execute(batch, return_metrics, timeout, on_timeout)

    def distance_range_many(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str | None = None,
    ):
        if self._parallel is not None:
            return self._parallel.distance_range_many(
                centers, radii, metric, return_metrics,
                *self._resolve(timeout, on_timeout),
            )
        batch = QueryBatch.distance(centers, radii, metric, self.tree.dims)
        return self.execute(batch, return_metrics, timeout, on_timeout)

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str | None = None,
    ):
        if self._parallel is not None:
            return self._parallel.knn_many(
                centers, k, metric, approximation_factor, return_metrics,
                *self._resolve(timeout, on_timeout),
            )
        batch = QueryBatch.knn(centers, k, metric, approximation_factor, self.tree.dims)
        return self.execute(batch, return_metrics, timeout, on_timeout)

    def range_search(self, query: Rect) -> list[int]:
        return self.tree.range_search(query)

    def distance_range(self, center, radius: float, metric: Metric = L2):
        return self.tree.distance_range(center, radius, metric)

    def knn(self, center, k: int, metric: Metric = L2, **kwargs):
        return self.tree.knn(center, k, metric, **kwargs)
