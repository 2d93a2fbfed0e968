"""Axis-aligned bounding rectangles (the paper's "bounding regions", BRs).

``Rect`` is the workhorse of the whole repository: hybrid-tree kd-regions,
R-tree/SR-tree entries, live-space boxes, and query boxes are all ``Rect``
instances.  Coordinates are ``float64`` numpy arrays; instances are treated as
immutable (every operation returns a new ``Rect``).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


class Rect:
    """A closed axis-aligned box ``[low_i, high_i]`` in k dimensions."""

    __slots__ = ("low", "high")

    def __init__(self, low: Iterable[float], high: Iterable[float]):
        self.low = np.asarray(low, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)
        if self.low.shape != self.high.shape or self.low.ndim != 1:
            raise ValueError("low and high must be 1-d arrays of equal length")
        if np.any(self.low > self.high):
            raise ValueError(f"degenerate rect: low {self.low} exceeds high {self.high}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def trusted(cls, low: np.ndarray, high: np.ndarray) -> "Rect":
        """A rect over 1-d float64 arrays already known to satisfy
        ``low <= high`` (rows a container validated when they were
        stored), without re-checking them."""
        rect = cls.__new__(cls)
        rect.low = low
        rect.high = high
        return rect

    @classmethod
    def unit(cls, dims: int) -> "Rect":
        """The normalized feature space ``[0, 1]^k`` (paper Section 3.2)."""
        return cls(np.zeros(dims), np.ones(dims))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Rect":
        """Minimal box containing every row of ``points`` (the live-space BR)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("from_points requires a non-empty (n, k) array")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def merge_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimal box containing every rect in ``rects``."""
        rects = list(rects)
        if not rects:
            raise ValueError("merge_all requires at least one rect")
        low = np.minimum.reduce([r.low for r in rects])
        high = np.maximum.reduce([r.high for r in rects])
        return cls(low, high)

    @classmethod
    def around_point(cls, center: np.ndarray, half_side: float) -> "Rect":
        """The query cube of side ``2 * half_side`` centred at ``center``."""
        center = np.asarray(center, dtype=np.float64)
        return cls(center - half_side, center + half_side)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self.low.shape[0]

    @property
    def extents(self) -> np.ndarray:
        """Side length per dimension (the paper's ``s_j``)."""
        return self.high - self.low

    @property
    def center(self) -> np.ndarray:
        return (self.low + self.high) / 2.0

    def volume(self) -> float:
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of side lengths (proportional to surface area for boxes)."""
        return float(np.sum(self.extents))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.low) and np.all(point <= self.high))

    def contains_rect(self, other: "Rect") -> bool:
        return bool(np.all(self.low <= other.low) and np.all(self.high >= other.high))

    def intersects(self, other: "Rect") -> bool:
        """Closed-box overlap test (shared boundaries count as overlap)."""
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> "Rect | None":
        """Geometric intersection, or ``None`` when the boxes are disjoint."""
        low = np.maximum(self.low, other.low)
        high = np.minimum(self.high, other.high)
        if np.any(low > high):
            return None
        return Rect(low, high)

    def merge(self, other: "Rect") -> "Rect":
        """Minimal box containing both (the R-tree ``union``)."""
        return Rect(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def merge_point(self, point: np.ndarray) -> "Rect":
        point = np.asarray(point, dtype=np.float64)
        return Rect(np.minimum(self.low, point), np.maximum(self.high, point))

    def enlargement(self, point: np.ndarray) -> float:
        """Volume increase needed to absorb ``point`` (R-tree insert criterion)."""
        return self.merge_point(point).volume() - self.volume()

    def enlargement_rect(self, other: "Rect") -> float:
        return self.merge(other).volume() - self.volume()

    def overlap_volume(self, other: "Rect") -> float:
        inter = self.intersection(other)
        return inter.volume() if inter is not None else 0.0

    # ------------------------------------------------------------------
    # Half-space clipping (the kd-region "mapping" of paper Section 3.1)
    # ------------------------------------------------------------------
    def clip_below(self, dim: int, bound: float) -> "Rect":
        """``self ∩ { x_dim <= bound }``; bound is clamped into the box."""
        high = self.high.copy()
        high[dim] = min(high[dim], max(bound, self.low[dim]))
        return Rect(self.low, high)

    def clip_above(self, dim: int, bound: float) -> "Rect":
        """``self ∩ { x_dim >= bound }``; bound is clamped into the box."""
        low = self.low.copy()
        low[dim] = max(low[dim], min(bound, self.high[dim]))
        return Rect(low, high=self.high)

    # ------------------------------------------------------------------
    # Vectorized point filters (used by data-node scans)
    # ------------------------------------------------------------------
    def contains_points_mask(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``points`` inside the box."""
        points = np.asarray(points)
        return np.all((points >= self.low) & (points <= self.high), axis=1)

    # ------------------------------------------------------------------
    # Batch predicates (one tree node against many queries at once — the
    # primitives of the shared-traversal engine in repro.engine)
    # ------------------------------------------------------------------
    def intersects_boxes_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Closed-box overlap of this rect with each ``(lows[i], highs[i])``.

        Row ``i`` is exactly ``self.intersects(Rect(lows[i], highs[i]))``.
        """
        return np.all((lows <= self.high) & (self.low <= highs), axis=1)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return np.array_equal(self.low, other.low) and np.array_equal(self.high, other.high)

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:
        return f"Rect(low={self.low.tolist()}, high={self.high.tolist()})"
