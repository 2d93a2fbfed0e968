"""Shared fixtures and brute-force reference helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.resilience import Deadline, QueryTimeoutError


class ExpiresAfter(Deadline):
    """A budget of ``limit`` deadline checks: the ``limit + 1``-th raises."""

    __slots__ = ("limit",)

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def check(self) -> None:
        super().check()
        if self.checks > self.limit:
            raise QueryTimeoutError(f"expired after {self.limit} checks")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def brute_force_range(data: np.ndarray, query: Rect) -> set[int]:
    """Reference result of a box range query (oids are row indices)."""
    mask = np.all((data >= query.low) & (data <= query.high), axis=1)
    return set(np.flatnonzero(mask).tolist())


def brute_force_distance_range(data, query, radius, metric) -> set[int]:
    dists = metric.distance_batch(data.astype(np.float64), np.asarray(query, dtype=np.float64))
    return set(np.flatnonzero(dists <= radius).tolist())


def brute_force_knn_dists(data, query, k, metric) -> np.ndarray:
    """The k smallest distances (the unambiguous part of a k-NN answer)."""
    dists = metric.distance_batch(data.astype(np.float64), np.asarray(query, dtype=np.float64))
    return np.sort(dists)[:k]


def random_boxes(rng, dims: int, count: int, side_lo=0.05, side_hi=0.5) -> list[Rect]:
    """Random query boxes inside the unit cube."""
    boxes = []
    for _ in range(count):
        side = rng.uniform(side_lo, side_hi, size=dims)
        low = rng.uniform(0.0, 1.0, size=dims) * (1.0 - side)
        boxes.append(Rect(low, low + side))
    return boxes
