"""Distance functions with box/sphere lower bounds.

The hybrid tree's selling point over distance-based structures (SS-tree,
M-tree) is that, being feature-based, it answers queries under *any* distance
function supplied at query time — including a different function per query, as
relevance-feedback loops require (paper Sections 1, 3.5).  A metric here is an
object that can (a) measure point-to-point distances and (b) lower-bound the
distance from a query point to an axis-aligned box, which is all a
feature-based index needs to prune.

Every metric is a :class:`Metric` and offers both as row-wise primitives,
the only forms the query engines call:

- ``pair_distances(a, b)`` — row ``i`` is the distance between ``a[i]`` and
  ``b[i]`` (``b`` is caller-owned float64 scratch);
- ``pair_mindist(q, low, high)`` — row ``i`` is the lower bound from
  ``q[i]`` to the box ``[low[i], high[i]]``.

Both take broadcastable ``(..., d)`` operands and reduce over the last
axis, so ``(E, 1, d)`` boxes against ``(1, Q, d)`` queries give every
box's bound to every query in one call.

A third, optional primitive serves filter-and-refine callers:
``pair_mindist_lower32(q32, low32, high32)`` bounds ``pair_mindist`` from
below in float32 over query rows and boxes rounded outward by
:func:`round_out_f32`, with a rounding margin proven for any summation
order, so ``bound > r`` certifies ``pair_mindist > r``.  ``L_p`` for p in
{1, 2, inf} and :class:`WeightedEuclidean` give one; every other metric
returns ``None`` and is evaluated exactly.

``distance``, ``distance_batch`` and ``mindist_rect`` are their one-row and
broadcast cases, so each metric's formula lives in one place and every
engine gets the same bits for the same pair (see :mod:`.metrics`).
:class:`UserMetric` adapts an arbitrary Python function ``fn(a, b)``, with an
optional ``rect_lower_bound(q, low, high)``; the row-wise forms call it once
per row.
"""

from repro.distances.metrics import (
    L1,
    L2,
    LINF,
    LpMetric,
    Metric,
    QuadraticFormMetric,
    UserMetric,
    WeightedEuclidean,
    round_out_f32,
)

__all__ = [
    "L1",
    "L2",
    "LINF",
    "LpMetric",
    "Metric",
    "QuadraticFormMetric",
    "UserMetric",
    "WeightedEuclidean",
    "round_out_f32",
]
