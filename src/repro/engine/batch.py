"""Shared-traversal batch execution of many queries over one hybrid tree.

The single-query methods in :class:`~repro.core.hybridtree.HybridTree`
re-descend from the root for every query, re-charging the same directory
pages each time.  For a serving workload of hundreds of queries that
redundancy dominates: the upper levels are fetched once *per query* instead
of once *per batch*.  This module executes a whole batch in one traversal
through the structure-agnostic :mod:`repro.engine.kernel`, which the hybrid
tree and the paged baselines join via their ``trav_*`` protocol methods:

- queries descend together as an *alive set* (a numpy index array);
- each tree node is fetched from the :class:`NodeManager` once per batch —
  one charged page read — and tested against all alive queries with the
  vectorized ``Rect`` / metric batch predicates;
- a query leaves the alive set as soon as the node's quantized live-space
  box can no longer contribute to it, exactly the single-query pruning
  rule evaluated row-wise.

Results are **bit-identical** to looping the single-query methods: data
nodes are scanned with the same per-query numpy kernels in the same
traversal order, the batch bound predicates perform the same clip-and-reduce
float operations as their scalar forms, and k-NN selection uses the same
deterministic ``(distance, oid)`` total order.  (The one exception is
approximate k-NN with ``approximation_factor > 0``, where pruning is
heuristic and any traversal order is admissible.)

:func:`dispatch` is the one place that picks the engine for a checked
:class:`~repro.engine.query.QueryBatch`: the vectorized SOA kernel when a
snapshot is attached (:mod:`repro.engine.soa`), the object-walk kernel
otherwise — results are identical either way.  It also validates
``on_timeout`` and the index's capabilities (box geometry, metric) once,
answers an empty batch without touching the tree, and turns ``timeout=``
(seconds, or a :class:`~repro.resilience.Deadline` carrying a
:class:`CancelToken`) into the deadline the kernels check: ``"raise"``
surfaces a typed :class:`~repro.resilience.QueryTimeoutError`,
``"partial"`` returns a :class:`~repro.resilience.PartialResult` envelope
with the hits gathered before the budget expired and a per-query
completion mask.  Metrics stay honest either way: pages touched before the
deadline fired are billed.

:class:`QuerySession` adds buffer management on top: it pins the hot upper
levels of the directory once (charging each page a single read), so every
query executed inside the session revisits the directory for free — the
steady-state accounting of a warm serving process rather than the paper's
cold per-query numbers.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.nodes import IndexNode
from repro.distances import L2, Metric
from repro.engine import kernel as object_kernel
from repro.engine.kernel import _finish, _reads
from repro.engine.query import DISTANCE, KNN, RANGE, QueryBatch, check_on_timeout
from repro.engine.soa import kernel as soa_kernel
from repro.engine.soa.snapshot import active_snapshot
from repro.geometry.rect import Rect
from repro.resilience import Deadline, QueryAdmissionController

__all__ = ["QuerySession", "dispatch"]


def dispatch(
    index,
    batch: QueryBatch,
    return_metrics: bool = False,
    timeout=None,
    on_timeout: str = "raise",
):
    """Run a checked batch on the SOA kernel if ``index`` has a snapshot
    attached, else on the object-walk kernel.

    Returns one result list per query; with ``return_metrics=True`` also a
    :class:`~repro.engine.metrics.BatchMetrics` labelled ``batch.label``.
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
        return _finish(
            [], np.zeros(0), index, time.perf_counter(), _reads(index.io),
            return_metrics, batch.label,
        )
    deadline = Deadline.coerce(timeout)
    # The kernel tables are built per call, so a wrapper installed on a
    # kernel module's function sees every batch.
    snap = active_snapshot(index)
    if snap is not None:
        run = {
            RANGE: soa_kernel.soa_range_search_many,
            DISTANCE: soa_kernel.soa_distance_range_many,
            KNN: soa_kernel.soa_knn_many,
        }[batch.kind]
        return run(index, snap, batch, return_metrics, deadline, on_timeout)
    run = {
        RANGE: object_kernel.kernel_range_search_many,
        DISTANCE: object_kernel.kernel_distance_range_many,
        KNN: object_kernel.kernel_knn_many,
    }[batch.kind]
    return run(index, batch, return_metrics, deadline, on_timeout)


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
        charge_pins: bool = True,
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
        frontier = [tree.root_id]
        for _ in range(min(pin_levels, tree.height)):
            next_frontier: list[int] = []
            for node_id in frontier:
                node = tree.nm.pin(node_id, charge=charge_pins)
                self._pinned.append(node_id)
                if isinstance(node, IndexNode):
                    next_frontier.extend(node.child_ids())
            frontier = next_frontier

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
