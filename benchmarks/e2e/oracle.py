"""Brute-force numpy answers the benchmark checks the index against.

The same arithmetic as the index's leaf scans, over every live point at
once: box containment of the float32 points in float64 bounds (as
``Rect.contains_points_mask``), ``metric.distance_batch`` on float64 points
for distance range and k-NN, and k-NN ties broken by ``(distance, oid)``
as every index does (see ``tests/test_protocol_conformance.py``).
"""

from __future__ import annotations

import numpy as np

DIST_ATOL = 1e-9


class Model:
    """A fixed multiset of live points; the oid of a point is its row in
    ``data``.  Every row is live unless ``live`` says otherwise."""

    def __init__(self, data: np.ndarray, live: np.ndarray | None = None):
        self.oids = np.arange(len(data)) if live is None else np.flatnonzero(live)
        self.points = data[self.oids]
        self.points64 = self.points.astype(np.float64)

    def __len__(self) -> int:
        return len(self.oids)

    def box(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Sorted oids of the live points inside the closed box."""
        pts = self.points
        return self.oids[np.all((pts >= low) & (pts <= high), axis=1)]

    def within(self, center, radius: float, metric) -> tuple[np.ndarray, np.ndarray]:
        """Sorted oids within ``radius`` of ``center``, with their distances."""
        dists = metric.distance_batch(self.points64, np.asarray(center, np.float64))
        hit = dists <= radius
        return self.oids[hit], dists[hit]

    def knn(self, center, k: int, metric) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest live oids in ``(distance, oid)`` order."""
        dists = metric.distance_batch(self.points64, np.asarray(center, np.float64))
        k = min(k, len(dists))
        kth = np.partition(dists, k - 1)[k - 1]
        cand = np.flatnonzero(dists <= kth)
        order = np.lexsort((self.oids[cand], dists[cand]))[:k]
        return self.oids[cand[order]], dists[cand[order]]


def pack(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ragged arrays; ``offsets[i]:offsets[i+1]`` is part ``i``."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(p) for p in parts])
    flat = np.concatenate(parts) if parts else np.empty(0)
    return flat, offsets


def same_oids(got: list[int], want: np.ndarray) -> bool:
    """An unordered oid answer (box range) equals the oracle's."""
    return len(got) == len(want) and np.array_equal(np.sort(np.asarray(got)), want)


def same_scored(got: list[tuple[int, float]], oids: np.ndarray, dists: np.ndarray) -> bool:
    """An unordered ``(oid, distance)`` answer (distance range) equals the
    oracle's sorted-by-oid ``oids``/``dists``."""
    if len(got) != len(oids):
        return False
    if not got:
        return True
    pairs = sorted(got)
    return np.array_equal([o for o, _ in pairs], oids) and np.allclose(
        [d for _, d in pairs], dists, rtol=0.0, atol=DIST_ATOL
    )


def same_ranked(got: list[tuple[int, float]], oids: np.ndarray, dists: np.ndarray) -> bool:
    """An ordered k-NN answer equals the oracle's, oid for oid."""
    return (
        len(got) == len(oids)
        and [o for o, _ in got] == oids.tolist()
        and np.allclose([d for _, d in got], dists, rtol=0.0, atol=DIST_ATOL)
    )
