"""Shared machinery for the baseline index structures.

``FeatureIndex`` documents the informal protocol every index in this
repository implements (the hybrid tree included), so the evaluation harness
and the exactness tests can drive them interchangeably.  Three mixins supply
the batch-query surface of :mod:`repro.engine` — one ``execute(batch, ...)``
per structure, with ``range_search_many`` / ``distance_range_many`` /
``knn_many`` as the :class:`~repro.engine.query.BatchQueries` helpers:

- ``LoopQueryMixin`` provides the measured per-query loop
  (:func:`run_loop`) as the explicitly named ``*_loop`` methods — the
  instrumented single-query side of every batch-vs-loop comparison;
- ``BatchQueryMixin`` runs batches as that loop, for structures with no
  traversable directory (sequential scan, VA-file);
- ``KernelQueryMixin`` serves both the batch API *and* the single-query
  methods from the structure-agnostic traversal kernel
  (:mod:`repro.engine.kernel`), for every paged structure implementing the
  ``trav_*`` protocol.

``EntryLeaf`` is the numpy-backed data page reused by the R-tree family.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.distances import L2, Metric
from repro.engine.batch import dispatch
from repro.engine.query import DISTANCE, RANGE, BatchQueries, QueryBatch, check_on_timeout
from repro.geometry.rect import Rect
from repro.resilience import Deadline, PartialResult, QueryTimeoutError
from repro.storage.iostats import IOStats


@runtime_checkable
class FeatureIndex(Protocol):
    """What the harness needs from an index structure."""

    io: IOStats

    def insert(self, vector: np.ndarray, oid: int) -> None: ...

    def range_search(self, query: Rect) -> list[int]: ...

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric
    ) -> list[tuple[int, float]]: ...

    def knn(self, query: np.ndarray, k: int, metric: Metric) -> list[tuple[int, float]]: ...

    def pages(self) -> int: ...

    def __len__(self) -> int: ...


def measured_loop(index, label: str, calls, deadline=None, on_timeout="raise"):
    """Run ``calls`` one by one against ``index`` with exact instrumentation.

    Module-level (not a mixin method) so it serves any object with an
    ``io`` accountant — including the hybrid tree, which does not inherit
    the mixin.  See :func:`_loop` for the deadline semantics; metrics cover
    exactly the queries that ran.
    """
    from repro.engine.metrics import LoopRecorder

    recorder = LoopRecorder(label, index.io)
    # Charge both access kinds: a checkpoint of random_reads alone
    # silently drops the sequential reads that dominate seqscan/VA-file.
    reads0 = index.io.random_reads + index.io.sequential_reads
    results = _loop(calls, deadline, on_timeout, recorder)
    charged = (index.io.random_reads + index.io.sequential_reads) - reads0
    return results, recorder.finish(charged_reads=charged)


def _loop(calls, deadline, on_timeout, recorder=None):
    """Run ``calls`` in order, each bracketed by ``recorder`` if given.

    ``deadline`` bounds the loop at per-query granularity — the natural
    grain for a loop whose unit of work is a whole query.  With
    ``on_timeout="partial"`` the completed prefix comes back in a
    :class:`~repro.resilience.PartialResult` (queries that ran are marked
    complete); otherwise a :class:`QueryTimeoutError` propagates.
    """
    results = []
    err = None
    try:
        for call in calls:
            if deadline is not None:
                deadline.check()
            if recorder is not None:
                recorder.start_query()
            results.append(call())
            if recorder is not None:
                recorder.end_query()
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    if err is None:
        return results
    n = len(calls)
    completed = np.zeros(n, dtype=bool)
    completed[: len(results)] = True
    results.extend([] for _ in range(n - len(results)))
    return PartialResult(results, completed, err)


def run_loop(index, batch, return_metrics=False, timeout=None, on_timeout="raise"):
    """Run a checked :class:`~repro.engine.query.QueryBatch` as a loop over
    ``index``'s single-query methods (labels ``range-loop``,
    ``distance-loop``, ``knn-loop``).

    Module-level so it serves any object with the single-query API and an
    ``io`` accountant, the hybrid tree included.
    """
    check_on_timeout(on_timeout)
    deadline = Deadline.coerce(timeout)
    if batch.kind == RANGE:
        calls = [
            lambda lo=lo, hi=hi: index.range_search(Rect(lo, hi))
            for lo, hi in zip(batch.lows, batch.highs)
        ]
    elif batch.kind == DISTANCE:
        calls = [
            lambda c=c, r=r: index.distance_range(c, float(r), batch.metric)
            for c, r in zip(batch.centers, batch.radii)
        ]
    else:
        # Structures without an approximate mode take no such keyword.
        kwargs = (
            {"approximation_factor": batch.approximation_factor}
            if batch.approximation_factor
            else {}
        )
        calls = [
            lambda c=c: index.knn(c, batch.k, batch.metric, **kwargs)
            for c in batch.centers
        ]
    if return_metrics:
        return measured_loop(index, f"{batch.kind}-loop", calls, deadline, on_timeout)
    return _loop(calls, deadline, on_timeout)


class LoopQueryMixin:
    """The measured per-query loop, under the explicit ``*_loop`` names.

    With ``return_metrics=True`` the loop measures every query exactly
    (latency via ``perf_counter``, pages via an ``IOStats`` checkpoint) and
    returns a :class:`repro.engine.metrics.BatchMetrics` alongside the
    results — the instrumented single-query side of every batch-vs-loop
    comparison in the benchmarks and the conformance suite.

    ``timeout``/``on_timeout`` bound the loop at per-query granularity —
    see :func:`_loop`.  The methods only need ``dims``, ``io`` and the
    single-query API, so they can be called unbound on the hybrid tree
    (``LoopQueryMixin.knn_loop(tree, centers, k)``).
    """

    def range_search_loop(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        batch = QueryBatch.range(queries, self.dims)
        return run_loop(self, batch, return_metrics, timeout, on_timeout)

    def distance_range_loop(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        batch = QueryBatch.distance(centers, radii, metric, self.dims)
        return run_loop(self, batch, return_metrics, timeout, on_timeout)

    def knn_loop(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        batch = QueryBatch.knn(centers, k, metric, approximation_factor, self.dims)
        return run_loop(self, batch, return_metrics, timeout, on_timeout)


class BatchQueryMixin(BatchQueries, LoopQueryMixin):
    """Batch-query API served by the measured loop.

    For structures with no traversable directory (sequential scan, VA-file)
    the loop *is* the batch semantics: every query pays the structure's full
    scan cost, so the batched harness, the CLI and the engine benchmark can
    still drive them through one interface.
    """

    execute = run_loop


class KernelQueryMixin(BatchQueries, LoopQueryMixin):
    """Batch *and* single-query API served by the traversal kernel.

    Structures implementing the ``trav_*`` protocol (see
    :mod:`repro.engine.kernel`) inherit this so single-query, batched, and
    parallel execution all flow through the same traversal code with the
    same accounting; the single-query methods are the kernel at batch size
    one.  The ``*_loop`` methods from :class:`LoopQueryMixin` remain
    available as the measured per-query baseline.

    When a struct-of-arrays snapshot is attached (:meth:`compile_snapshot`)
    batches run on the vectorized SOA kernel instead — results are
    bit-identical either way.  Mutations must call
    :meth:`invalidate_snapshot`; queries then fall back to the object walk
    until the structure is re-compiled.
    """

    execute = dispatch

    # -- struct-of-arrays snapshot lifecycle ---------------------------
    @property
    def soa_snapshot(self):
        """The attached SOA snapshot, or None."""
        return getattr(self, "_soa_snapshot", None)

    def compile_snapshot(self, force: bool = False):
        """Compile (and attach) a struct-of-arrays snapshot of this index.

        Cached until :meth:`invalidate_snapshot`; ``force=True``
        recompiles unconditionally."""
        from repro.engine.soa import compile_snapshot

        snap = getattr(self, "_soa_snapshot", None)
        if snap is None or force:
            snap = compile_snapshot(self)
            self._soa_snapshot = snap
        return snap

    def invalidate_snapshot(self) -> None:
        """Drop the attached snapshot (call after any mutation)."""
        self._soa_snapshot = None

    def range_search(self, query: Rect) -> list[int]:
        return self.range_search_many([query])[0]

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        return self.distance_range_many([query], radius, metric)[0]

    def knn(
        self,
        query: np.ndarray,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
    ) -> list[tuple[int, float]]:
        return self.knn_many([query], k, metric, approximation_factor)[0]


class EntryLeaf:
    """A data page holding raw ``(vector, oid)`` entries (R/SS/SR-trees).

    Identical storage footprint to the hybrid tree's data nodes — all
    structures pay the same leaf-level cost; only directory organisation
    differs, which is exactly the comparison the paper makes.
    """

    __slots__ = ("vectors", "oids", "count", "level")

    def __init__(self, dims: int, capacity: int):
        self.vectors = np.empty((capacity, dims), dtype=np.float32)
        self.oids = np.empty(capacity, dtype=np.uint32)
        self.count = 0
        self.level = 0

    @property
    def capacity(self) -> int:
        return self.vectors.shape[0]

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def points(self) -> np.ndarray:
        return self.vectors[: self.count]

    def live_oids(self) -> np.ndarray:
        return self.oids[: self.count]

    def add(self, vector: np.ndarray, oid: int) -> None:
        if self.is_full:
            raise RuntimeError("leaf overflow; caller must split first")
        self.vectors[self.count] = vector
        self.oids[self.count] = oid
        self.count += 1

    def rect(self) -> Rect:
        if self.count == 0:
            raise ValueError("empty leaf has no bounding rect")
        return Rect.from_points(self.points())


def quadratic_partition(
    lows: np.ndarray, highs: np.ndarray, min_fill: float
) -> tuple[list[int], list[int]]:
    """Guttman's quadratic PickSeeds/PickNext bipartition over boxes.

    ``lows``/``highs`` are ``(n, d)`` corner arrays (points are zero-extent
    boxes).  PickSeeds maximizes the dead volume of the pair's cover;
    PickNext repeatedly places the entry with the strongest group
    preference.  Broadcasting keeps the O(n^2) seed scan and the O(n)
    per-pick enlargement scans at numpy speed.  Shared by the R-tree and the
    (R-tree-policy) SR-tree.
    """
    n = lows.shape[0]
    min_count = max(1, int(np.floor(n * min_fill)))
    volumes = np.prod(highs - lows, axis=1)
    pair_low = np.minimum(lows[:, None, :], lows[None, :, :])
    pair_high = np.maximum(highs[:, None, :], highs[None, :, :])
    dead = np.prod(pair_high - pair_low, axis=2) - volumes[:, None] - volumes[None, :]
    np.fill_diagonal(dead, -np.inf)
    seed_a, seed_b = np.unravel_index(int(np.argmax(dead)), dead.shape)

    group_a, group_b = [int(seed_a)], [int(seed_b)]
    low_a, high_a = lows[seed_a].copy(), highs[seed_a].copy()
    low_b, high_b = lows[seed_b].copy(), highs[seed_b].copy()
    remaining = np.array([i for i in range(n) if i not in (seed_a, seed_b)])
    while remaining.size:
        if len(group_a) + remaining.size == min_count:
            group_a.extend(int(i) for i in remaining)
            break
        if len(group_b) + remaining.size == min_count:
            group_b.extend(int(i) for i in remaining)
            break
        vol_a = float(np.prod(high_a - low_a))
        vol_b = float(np.prod(high_b - low_b))
        enl_a = (
            np.prod(
                np.maximum(high_a, highs[remaining]) - np.minimum(low_a, lows[remaining]),
                axis=1,
            )
            - vol_a
        )
        enl_b = (
            np.prod(
                np.maximum(high_b, highs[remaining]) - np.minimum(low_b, lows[remaining]),
                axis=1,
            )
            - vol_b
        )
        pick = int(np.argmax(np.abs(enl_a - enl_b)))
        i = int(remaining[pick])
        d_a, d_b = float(enl_a[pick]), float(enl_b[pick])
        remaining = np.delete(remaining, pick)
        if (d_a, vol_a, len(group_a)) <= (d_b, vol_b, len(group_b)):
            group_a.append(i)
            low_a = np.minimum(low_a, lows[i])
            high_a = np.maximum(high_a, highs[i])
        else:
            group_b.append(i)
            low_b = np.minimum(low_b, lows[i])
            high_b = np.maximum(high_b, highs[i])
    return group_a, group_b


def check_vector(vector: np.ndarray, dims: int) -> np.ndarray:
    """Validate and canonicalise an input vector (float32 precision)."""
    v = np.asarray(vector, dtype=np.float32).astype(np.float64)
    if v.shape != (dims,):
        raise ValueError(f"expected a {dims}-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector must be finite")
    return v
