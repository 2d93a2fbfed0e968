"""One validated request value for every batch query path.

The index answers three query kinds: box range, distance range under a
metric chosen per call, and exact or approximate k-NN.  A
:class:`QueryBatch` holds one batch of one kind — the box corners or the
float32-canonical centers, the radii, the metric, ``k`` and
``approximation_factor`` — and is built and checked once, at the public API,
by :meth:`QueryBatch.range`, :meth:`QueryBatch.distance` or
:meth:`QueryBatch.knn`.  Every executor (the hybrid tree, the baselines, the
query session and the parallel engine) then exposes a single entry point::

    execute(batch, return_metrics=False, timeout=None, on_timeout="raise")

and the per-kind ``range_search_many`` / ``distance_range_many`` /
``knn_many`` methods are the one-line helpers of :class:`BatchQueries`.  The
layers below the API (kernels, partitions, loops) trust the batch and do not
re-check it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from repro.distances import L2, Metric

__all__ = [
    "DISTANCE",
    "KNN",
    "RANGE",
    "BatchQueries",
    "QueryBatch",
    "check_approximation",
    "check_box",
    "check_k",
    "check_metric",
    "check_on_timeout",
    "check_radii",
    "query_matrix",
]

RANGE, DISTANCE, KNN = "range", "distance", "knn"


# ----------------------------------------------------------------------
# Validators (shared by QueryBatch and the single-query methods)
# ----------------------------------------------------------------------
def check_on_timeout(on_timeout: str) -> None:
    """Validate the ``on_timeout`` policy argument at the API boundary."""
    if on_timeout not in ("raise", "partial"):
        raise ValueError('on_timeout must be "raise" or "partial"')


def check_k(k) -> int:
    """``k`` as an ``int``; anything but an integer >= 1 is a ValueError."""
    try:
        value = operator.index(k)
    except TypeError:
        value = 0
    if value < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return value


def check_metric(metric, dims: int) -> Metric:
    """``metric``, if it is a :class:`~repro.distances.Metric` defined for
    ``dims`` dimensions (or for any); checked before a page is read."""
    if not isinstance(metric, Metric):
        raise TypeError(f"metric must be a repro.distances.Metric, got {metric!r}")
    if metric.dims is not None and metric.dims != dims:
        raise ValueError(
            f"{metric!r} is {metric.dims}-dimensional, the index is {dims}-dimensional"
        )
    return metric


def check_approximation(approximation_factor) -> float:
    """The approximate-NN factor ``eps``: a finite number >= 0.  (An
    infinite one would make the pruning bound ``kth / inf`` 0, and ``0 *
    inf`` NaN, so the search would prune everything.)"""
    eps = float(approximation_factor)
    if not (eps >= 0 and np.isfinite(eps)):
        raise ValueError("approximation_factor must be finite and >= 0")
    return eps


def check_box(lows, highs) -> None:
    """Reject NaN box corners: every comparison with NaN is false, so such
    a box would silently match nothing.  Infinite corners (half-open
    boxes) are fine."""
    if np.isnan(lows).any() or np.isnan(highs).any():
        raise ValueError("query box corners must not be NaN")


def check_radii(radii, n: int) -> np.ndarray:
    """A scalar or one radius per query, broadcast to ``(n,)`` float64;
    negative and NaN radii are rejected."""
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n,))
    if not np.all(radii >= 0):
        raise ValueError("radius must be non-negative (and not NaN)")
    return radii


def query_matrix(centers, dims: int) -> np.ndarray:
    """Canonicalise query points exactly like ``check_vector`` does per
    point (float32 precision): an ``(n, dims)`` float64 matrix.  A single
    vector is a batch of one; an empty sequence is a batch of none."""
    qs = np.asarray(centers, dtype=np.float32).astype(np.float64)
    if qs.ndim == 1:
        qs = qs.reshape(0, dims) if qs.size == 0 else qs[None, :]
    if qs.ndim != 2 or qs.shape[1] != dims:
        raise ValueError(
            f"expected (n, {dims}) query points, got shape {qs.shape}"
        )
    if not np.all(np.isfinite(qs)):
        raise ValueError("query vectors must be finite")
    return qs


# ----------------------------------------------------------------------
# The request value
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class QueryBatch:
    """A checked batch of queries of one kind.

    Range batches carry ``lows``/``highs`` (``(n, dims)`` float64 box
    corners); distance and k-NN batches carry ``centers`` (``(n, dims)``
    float32-canonical float64) and ``metric``, plus ``radii`` (distance) or
    ``k`` and ``approximation_factor`` (k-NN).  Build one with the
    :meth:`range` / :meth:`distance` / :meth:`knn` constructors, which
    validate; the fields are then trusted by every layer below.
    """

    kind: str
    lows: np.ndarray | None = None
    highs: np.ndarray | None = None
    centers: np.ndarray | None = None
    radii: np.ndarray | None = None
    metric: Metric | None = None
    k: int | None = None
    approximation_factor: float = 0.0

    @classmethod
    def range(cls, queries, dims: int) -> "QueryBatch":
        """Box range queries: an iterable of :class:`~repro.geometry.rect.Rect`."""
        queries = list(queries)
        if any(q.dims != dims for q in queries):
            raise ValueError("query dimensionality mismatch")
        if not queries:
            empty = np.empty((0, dims))
            return cls(RANGE, lows=empty, highs=empty)
        lows = np.array([q.low for q in queries])
        highs = np.array([q.high for q in queries])
        check_box(lows, highs)
        return cls(RANGE, lows=lows, highs=highs)

    @classmethod
    def distance(cls, centers, radii, metric: Metric, dims: int) -> "QueryBatch":
        """Distance-range queries under one metric; ``radii`` is a scalar or
        one radius per query."""
        qs = query_matrix(centers, dims)
        return cls(
            DISTANCE,
            centers=qs,
            radii=check_radii(radii, len(qs)),
            metric=check_metric(metric, dims),
        )

    @classmethod
    def knn(
        cls, centers, k, metric: Metric, approximation_factor, dims: int
    ) -> "QueryBatch":
        """k-nearest-neighbour queries (approximate when the factor is > 0)."""
        return cls(
            KNN,
            centers=query_matrix(centers, dims),
            metric=check_metric(metric, dims),
            k=check_k(k),
            approximation_factor=check_approximation(approximation_factor),
        )

    def __len__(self) -> int:
        return len(self.lows if self.kind == RANGE else self.centers)

    @property
    def label(self) -> str:
        """The :class:`~repro.engine.metrics.BatchMetrics` label of a
        shared-traversal run (``range-batch``, ``distance-batch``, ...)."""
        return f"{self.kind}-batch"

    def take(self, rows) -> "QueryBatch":
        """The sub-batch of ``rows`` (an index array), in that order."""
        if self.kind == RANGE:
            return replace(self, lows=self.lows[rows], highs=self.highs[rows])
        radii = None if self.radii is None else self.radii[rows]
        return replace(self, centers=self.centers[rows], radii=radii)


# ----------------------------------------------------------------------
# The per-kind helpers
# ----------------------------------------------------------------------
class BatchQueries:
    """``range_search_many`` / ``distance_range_many`` / ``knn_many`` over
    ``self.execute``.

    Each helper builds (and so validates) one :class:`QueryBatch` against
    ``self.dims`` and hands it to ``self.execute``.  Mix the class in, or
    bind its functions as class attributes.
    """

    def range_search_many(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        """Many box range queries; bit-identical to looping ``range_search``."""
        return self.execute(
            QueryBatch.range(queries, self.dims), return_metrics, timeout, on_timeout
        )

    def distance_range_many(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        """Many distance-range queries under one metric (scalar or
        per-query radii); bit-identical to looping ``distance_range``."""
        return self.execute(
            QueryBatch.distance(centers, radii, metric, self.dims),
            return_metrics, timeout, on_timeout,
        )

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        """Many k-NN queries; for ``approximation_factor == 0``
        bit-identical to looping ``knn``."""
        return self.execute(
            QueryBatch.knn(centers, k, metric, approximation_factor, self.dims),
            return_metrics, timeout, on_timeout,
        )
