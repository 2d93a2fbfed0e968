"""Metric implementations: Lp family, weighted/quadratic forms, user hooks.

Every metric is a :class:`Metric` with two row-wise primitives, the only
things the query engines call.  Both take broadcastable ``(..., d)``
operands and reduce over the last axis, so a "row" is any last-axis vector
and the result has the operands' broadcast leading shape:

``pair_distances(a, b)``
    Row ``i`` is the distance between ``a[i]`` and ``b[i]``.  ``b`` is the
    caller's scratch: a fresh float64 array of the full broadcast shape,
    which may be overwritten (the vectorized metrics form the difference in
    it, so a leaf scan that gathers ``b`` anyway allocates nothing more).
    ``a`` may be a single row that broadcasts, or float32 rows, which the
    subtraction promotes exactly.
``pair_mindist(q, low, high)``
    Row ``i`` is a lower bound on ``distance(q[i], x)`` over all ``x`` in
    the box ``[low[i], high[i]]``; a single box (or query) broadcasts, and
    so do ``(E, 1, d)`` boxes against ``(1, Q, d)`` queries, which gives
    the ``(E, Q)`` bounds of every box against every query in one call.
    For the Lp and weighted metrics the bound is *tight* (attained by the
    box point closest to the query), which keeps branch-and-bound search
    exact and prunes as much as possible.

``pair_mindist_lower32(q32, low32, high32)``
    The float32 stage of ``pair_mindist``, for filter-and-refine callers
    that test many pairs and decide the few that survive exactly.  The
    operands are float32: query rows (float32-exact) and box rows rounded
    outward with :func:`round_out_f32`.  Row ``i`` is a float64 number
    *certified* to be ``<=`` the exact ``pair_mindist(q[i], low[i],
    high[i])`` for every float64 box ``[low, high]`` inside the float32
    box and every ``q == q32`` — whatever summation order numpy picks
    for either reduction, with subnormal gaps, coordinates beyond float32's
    range and infinite corners included (a row whose float32 sum overflows
    gets 0).  So ``bound > r`` proves ``pair_mindist > r``, and pruning on
    it never changes a verdict.  Only metrics with a proven rounding margin
    give one (``L_p`` for p in {1, 2, inf}, :class:`WeightedEuclidean`);
    the base class returns ``None`` for any operands, so a caller may ask
    once with empty rows.

The familiar forms are their special cases: ``distance(a, b)`` is the
one-row case of ``pair_distances``, ``distance_batch(points, q)`` (distances
from every row of ``points`` to ``q``) its broadcast case, and
``mindist_rect(q, low, high)`` the one-row case of ``pair_mindist``.  Each
vectorized metric therefore writes its formula once, as a reduction over
``axis=-1`` of the coordinate differences, and a row's result does not
depend on how many rows share the call or how they are laid out (a
contiguous last-axis reduction of a row gives the same bits in a ``(rows,
d)`` array, an ``(E, Q, d)`` array, or alone): every engine — single query,
object kernel, SOA kernel — gets the same bits for the same pair, however
it batches them.

:class:`UserMetric` adapts an arbitrary Python distance function: the base
class's looping defaults call it once per row.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np


_U32 = 2.0**-24
"""float32's unit roundoff: a correctly rounded float32 operation whose
result is normal is off by at most this factor of it."""

_HALF_SUBNORMAL32 = 2.0**-150
"""The most a float32 product whose exact value underflows is off by."""


def _f32_below(x: np.ndarray) -> np.ndarray:
    """Elementwise, the largest float32 value ``<= x`` (``-inf`` below
    float32's range, its largest finite value above it)."""
    with np.errstate(over="ignore"):
        y = x.astype(np.float32)
        return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def round_out_f32(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float32 box rows enclosing float64 ``low``/``high`` rows: lows
    rounded down, highs up.  A float32 comparison of float32 points against
    them never rejects a point the exact float64 comparison keeps, and
    :meth:`Metric.pair_mindist_lower32` bounds every box inside them."""
    return _f32_below(low), -_f32_below(-high)


def _gaps32(q32: np.ndarray, low32: np.ndarray, high32: np.ndarray) -> np.ndarray:
    """``|clip(q, low, high) - q|`` in float32, a fresh array: per
    coordinate at most ``1 + _U32`` times the real gap from ``q`` to the
    float32 box, which is no larger than its gap to any box inside it
    (``inf`` where the subtraction overflows).  A subtraction that
    underflows is exact, so subnormal gaps keep the relative bound.
    ``maximum`` then an in-place ``minimum`` is ``np.clip``'s projection at
    about half its cost."""
    gap = np.maximum(q32, low32)
    np.minimum(gap, high32, out=gap)
    np.subtract(gap, q32, out=gap)
    return np.abs(gap, out=gap)


def _certify(total32: np.ndarray, dims: int, squared: bool, wmax: float = 1.0) -> np.ndarray:
    """The certified float64 lower bound from a float32 row reduction.

    ``total32`` is the float32 sum (or max) over ``dims`` terms, each at
    most ``(1 + _U32)**k`` times its real value (k = 1 for a gap, 3 for a
    square, 4 for a weighted square), plus, for squares, up to
    ``_HALF_SUBNORMAL32 * (1 + 2 * wmax)`` where a product underflows.  A
    float32 sum of non-negative terms in any order is at most ``(1 +
    _U32)**(dims - 1)`` times their real sum.  The float64
    ``pair_mindist`` of a box inside the float32 one is at least ``(1 -
    2**-53)**(dims + 5)`` times the real value on the float32 box's gaps
    (rounding is monotone, and on float32-range gaps its operations never
    underflow).  ``shrink = 1 - 4 * (dims + 4)
    * _U32`` covers the product of both factors and the float64
    operations below with room to spare, and the subtracted slack covers
    the underflow terms, so the result is ``<=`` the exact bound.  An
    overflowed (or NaN) row gets 0.
    """
    shrink = max(0.0, 1.0 - 4 * (dims + 4) * _U32)
    bound = total32.astype(np.float64)
    bound *= shrink
    if squared:
        bound -= 2 * dims * _HALF_SUBNORMAL32 * (1.0 + 2.0 * wmax)
        np.maximum(bound, 0.0, out=bound)
        np.sqrt(bound, out=bound)
        bound *= shrink
    bound[~np.isfinite(bound)] = 0.0
    return bound


def _per_row(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` of each last-axis row of the broadcast ``arrays``, shaped like
    their leading axes: the arrays are flattened to ``(rows, d)`` and the
    results reshaped back."""
    arrays = np.broadcast_arrays(*arrays)
    lead, d = arrays[0].shape[:-1], arrays[0].shape[-1]
    rows = zip(*(x.reshape(-1, d) for x in arrays))
    return np.array([fn(*row) for row in rows], dtype=np.float64).reshape(lead)


class Metric:
    """What an index needs from a distance function in order to prune.

    A subclass gives :meth:`distance` (and :meth:`mindist_rect` when the
    clamped-point distance is not a lower bound); the row-wise primitives
    then loop over them.  Vectorized metrics override the primitives
    instead, and derive the scalar forms from them.
    """

    dims: int | None = None
    """The dimensionality the metric is defined for; ``None`` for any."""

    bound_below_distance: bool = False
    """Whether :meth:`pair_mindist` of a box is, as computed and bit for
    bit, never above :meth:`pair_distances` to a point inside it (not only
    in real arithmetic).  The clamped-point bound of a formula monotone in
    each ``|a_i - b_i|`` has it, since rounding is monotone; the batch
    k-NN frontier (:mod:`repro.engine.soa.kernel`) needs it to bill
    exactly what best-first search visits."""

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        raise NotImplementedError

    def mindist_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        """The distance to the box point closest to ``q`` — a lower bound
        whenever the metric is coordinatewise monotone in ``|a_i - b_i|``."""
        return self.distance(q, np.clip(q, low, high))

    def distance_batch(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Distances from every row of ``points`` to ``q``; neither argument
        is modified."""
        return self.pair_distances(points, q)

    def pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _per_row(self.distance, a, b)

    def pair_mindist(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        return _per_row(self.mindist_rect, q, low, high)

    def pair_mindist_lower32(
        self, q32: np.ndarray, low32: np.ndarray, high32: np.ndarray
    ) -> np.ndarray | None:
        """A certified float32-stage lower bound on :meth:`pair_mindist`
        (see the module docstring), or ``None``: a metric without a proven
        rounding margin has none, whatever the operands."""
        return None


class _DifferenceMetric(Metric):
    """A metric computed from the coordinate difference alone: every form
    runs :meth:`_reduce`, the metric's one formula."""

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        """Row ``i``: the distance of two points whose difference (of either
        sign) is ``diff[i]``, a reduction over the last axis of ``diff``
        (any leading shape).  ``diff`` is float64 and may be overwritten."""
        raise NotImplementedError

    def pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # ``b - a`` is bitwise ``-(a - b)``: IEEE subtraction is
        # antisymmetric, and every formula here takes the difference's
        # absolute value or multiplies it by itself.
        return self._reduce(np.subtract(b, a, out=b))

    def pair_mindist(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        return self.pair_distances(q, np.clip(q, low, high))

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.pair_distances(a, np.array(b, dtype=np.float64, ndmin=2))[0])

    def distance_batch(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._reduce(points - q)

    def mindist_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        return float(self.pair_mindist(np.array(q, dtype=np.float64, ndmin=2), low, high)[0])


class LpMetric(_DifferenceMetric):
    """The Minkowski ``L_p`` family, ``p >= 1`` or ``p = inf``.

    The box bound clamps the query into the box and measures the distance
    to the clamped point — exact for every ``L_p`` because the box is convex
    and the metric is coordinatewise monotone.
    """

    bound_below_distance = True

    def __init__(self, p: float):
        if not (p >= 1):
            raise ValueError(f"Lp requires p >= 1, got {p}")
        self.p = float(p)

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        if self.p == 2.0:
            return np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=-1))
        diff = np.abs(diff, out=diff)
        if self.p == 1.0:
            return diff.sum(axis=-1)
        if math.isinf(self.p):
            return diff.max(axis=-1)
        return (diff**self.p).sum(axis=-1) ** (1.0 / self.p)

    def pair_mindist_lower32(
        self, q32: np.ndarray, low32: np.ndarray, high32: np.ndarray
    ) -> np.ndarray | None:
        if self.p not in (1.0, 2.0, math.inf):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            gap = _gaps32(q32, low32, high32)
            if self.p == 1.0:
                total = gap.sum(axis=-1)
            elif self.p == 2.0:
                total = np.multiply(gap, gap, out=gap).sum(axis=-1)
            else:
                total = gap.max(axis=-1)
            return _certify(total, gap.shape[-1], squared=self.p == 2.0)

    def __repr__(self) -> str:
        return f"LpMetric(p={self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LpMetric) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("LpMetric", self.p))


L1 = LpMetric(1.0)
"""Manhattan distance — the metric of the paper's Figure 7(c,d), following
the MARS similarity work [Ortega et al. 1997]."""

L2 = LpMetric(2.0)
"""Euclidean distance."""

LINF = LpMetric(float("inf"))
"""Chebyshev distance; a cube range query is an L-inf ball query."""


class WeightedEuclidean(_DifferenceMetric):
    """``sqrt(sum_i w_i (a_i - b_i)^2)`` with non-negative weights.

    Re-weighting dimensions per query is the basic relevance-feedback move
    (MARS/MindReader); the hybrid tree supports it because pruning only needs
    the box lower bound, the weighted distance to the clamped point.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1 or np.any(self.weights < 0):
            raise ValueError("weights must be a 1-d non-negative array")
        self.dims = len(self.weights)
        # Finite weights keep ``w * g * g`` monotone in the gap ``g``.
        self.bound_below_distance = bool(np.isfinite(self.weights).all())
        # Rounded down, so the float32 stage never weighs a gap more.
        self._weights32 = _f32_below(self.weights) if np.isfinite(self.weights).all() else None

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        return np.sqrt((self.weights * diff * diff).sum(axis=-1))

    def pair_mindist_lower32(
        self, q32: np.ndarray, low32: np.ndarray, high32: np.ndarray
    ) -> np.ndarray | None:
        w32 = self._weights32
        if w32 is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            gap = _gaps32(q32, low32, high32)
            np.multiply(gap, gap, out=gap)
            total = np.multiply(gap, w32, out=gap).sum(axis=-1)
            wmax = float(w32.max()) if w32.size else 0.0
            return _certify(total, gap.shape[-1], squared=True, wmax=wmax)

    def __repr__(self) -> str:
        return f"WeightedEuclidean(weights={self.weights.tolist()})"


class QuadraticFormMetric(_DifferenceMetric):
    """``sqrt((a-b)^T A (a-b))`` for a symmetric positive-definite ``A``.

    Quadratic-form distances arise from relevance feedback with correlated
    dimensions (MindReader [Ishikawa et al. 1998]).  The box lower bound uses
    the smallest eigenvalue: ``d_A(q, x) >= sqrt(lambda_min) * d_2(q, x)``,
    a valid (not tight) bound, so search stays exact but prunes less.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(self.matrix)
        if eigvals[0] <= 0:
            raise ValueError("matrix must be positive definite")
        self._sqrt_lambda_min = float(np.sqrt(eigvals[0]))
        self.dims = self.matrix.shape[0]

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("...j,jk,...k->...", diff, self.matrix, diff))

    def pair_mindist(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        return self._sqrt_lambda_min * L2.pair_mindist(q, low, high)

    def __repr__(self) -> str:
        return f"QuadraticFormMetric(dims={self.matrix.shape[0]})"


class UserMetric(Metric):
    """Wrap an arbitrary user distance function for query-time use.

    The box bound defaults to the clamped-point evaluation, which is a
    correct lower bound whenever the function is coordinatewise monotone in
    ``|a_i - b_i|`` (true for every similarity measure used in MARS).  For
    functions without that property, supply an explicit ``rect_lower_bound``;
    passing a constant-zero bound degrades pruning but never correctness.
    The row-wise forms call the function once per row.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], float],
        rect_lower_bound: Callable[[np.ndarray, np.ndarray, np.ndarray], float] | None = None,
    ):
        self.fn = fn
        self._rect_lower_bound = rect_lower_bound

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.fn(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))

    def mindist_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        if self._rect_lower_bound is not None:
            return float(self._rect_lower_bound(q, low, high))
        return super().mindist_rect(q, low, high)

    def __repr__(self) -> str:
        return f"UserMetric({getattr(self.fn, '__name__', 'fn')})"
