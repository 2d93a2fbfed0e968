"""VA-file (Weber, Schek & Blott, VLDB 1998) — the quantization scan.

The paper's Section 4 normalizes everything against the linear scan because
Weber et al. showed scans dominate partitioning indexes at high
dimensionality.  The VA-file is their constructive version of that argument:
keep the data in a plain heap file, plus a *vector approximation* file with
``bits`` per dimension (a grid cell id per vector).  A query sequentially
scans the small approximation file, prunes cells whose lower bound already
fails, and fetches only the surviving candidates' full vectors with random
reads.

Included as an extension competitor (not part of the paper's figures):
it shows where the hybrid tree's advantage comes from — the VA-file still
reads *every* approximation per query, so its cost floor is a fixed fraction
of the scan, while a tree can be sublinear.

I/O model: approximation pages are sequential reads (charged at 1/10 like
any scan), candidate verifications are random reads of the owning heap page
(de-duplicated per query).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BatchQueryMixin, check_vector
from repro.distances import L2, Metric
from repro.engine.query import check_k, check_metric, check_radii
from repro.geometry.rect import Rect
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.page import PAGE_HEADER_SIZE, PageLayout, data_node_capacity


class VAFile(BatchQueryMixin):
    """Vector-approximation file over a heap of ``float32`` vectors."""

    def __init__(
        self,
        dims: int,
        *,
        bits: int = 6,
        page_size: int = 4096,
        bounds: Rect | None = None,
        stats: IOStats | None = None,
        initial_capacity: int = 1024,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        self.dims = dims
        self.bits = bits
        self.layout = PageLayout(page_size=page_size)
        self.tuples_per_page = data_node_capacity(dims, self.layout)
        self.bounds = bounds if bounds is not None else Rect.unit(dims)
        self.io = stats if stats is not None else IOStats()
        self._vectors = np.empty((initial_capacity, dims), dtype=np.float32)
        self._oids = np.empty(initial_capacity, dtype=np.uint32)
        self._cells = np.empty((initial_capacity, dims), dtype=np.uint16)
        self._count = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "VAFile":
        vectors = np.asarray(vectors, dtype=np.float32)
        va = cls(
            vectors.shape[1], initial_capacity=max(len(vectors), 1), **kwargs
        )
        for v, oid in zip(
            vectors, oids if oids is not None else range(len(vectors))
        ):
            va.insert(v, int(oid))
        return va

    def insert(self, vector: np.ndarray, oid: int) -> None:
        v = check_vector(vector, self.dims)
        if not self.bounds.contains_point(v):
            self.bounds = self.bounds.merge_point(v)
            self._requantize()
        if self._count == len(self._vectors):
            n = 2 * len(self._vectors)
            self._vectors = np.resize(self._vectors, (n, self.dims))
            self._oids = np.resize(self._oids, n)
            self._cells = np.resize(self._cells, (n, self.dims))
        self._vectors[self._count] = v
        self._oids[self._count] = oid
        self._cells[self._count] = self._quantize(v[None, :])[0]
        self._count += 1

    def _quantize(self, rows: np.ndarray) -> np.ndarray:
        cells = float(1 << self.bits)
        extent = np.where(
            self.bounds.extents > 0, self.bounds.extents, 1.0
        )
        grid = np.floor((rows - self.bounds.low) / extent * cells)
        return np.clip(grid, 0, cells - 1).astype(np.uint16)

    def _requantize(self) -> None:
        if self._count:
            self._cells[: self._count] = self._quantize(
                self._vectors[: self._count].astype(np.float64)
            )

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        """Heap pages + approximation pages."""
        return self.heap_pages() + self.approximation_pages()

    def heap_pages(self) -> int:
        return -(-self._count // self.tuples_per_page) if self._count else 0

    def approximation_pages(self) -> int:
        if not self._count:
            return 0
        entry_bits = self.dims * self.bits + 32  # cells + oid back-pointer
        per_page = (self.layout.page_size - PAGE_HEADER_SIZE) * 8 // entry_bits
        return -(-self._count // per_page)

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------
    def _cell_rects(self) -> tuple[np.ndarray, np.ndarray]:
        """Low/high corners of every stored vector's grid cell."""
        cells = float(1 << self.bits)
        extent = np.where(self.bounds.extents > 0, self.bounds.extents, 1.0)
        grid = self._cells[: self._count].astype(np.float64)
        low = self.bounds.low + grid / cells * extent
        high = self.bounds.low + (grid + 1.0) / cells * extent
        return low, high

    def _charge_approximation_scan(self) -> None:
        self.io.record(AccessKind.SEQUENTIAL_READ, self.approximation_pages())

    def _charge_candidates(self, indices: np.ndarray) -> None:
        """One random heap-page read per distinct owning page."""
        pages = np.unique(indices // self.tuples_per_page)
        self.io.record(AccessKind.RANDOM_READ, len(pages))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, query: Rect) -> list[int]:
        """Box query: scan approximations, verify cell-overlapping vectors."""
        if self._count == 0:
            return []
        self._charge_approximation_scan()
        low, high = self._cell_rects()
        candidate_mask = np.all(
            (low <= query.high) & (high >= query.low), axis=1
        )
        candidates = np.flatnonzero(candidate_mask)
        if candidates.size == 0:
            return []
        self._charge_candidates(candidates)
        vectors = self._vectors[candidates].astype(np.float64)
        inside = np.all((vectors >= query.low) & (vectors <= query.high), axis=1)
        return [int(self._oids[i]) for i in candidates[inside]]

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        q = check_vector(query, self.dims)
        check_metric(metric, self.dims)
        radius = float(check_radii(radius, 1)[0])
        if self._count == 0:
            return []
        self._charge_approximation_scan()
        bounds = metric.pair_mindist(q, *self._cell_rects())
        candidates = np.flatnonzero(bounds <= radius)
        if candidates.size == 0:
            return []
        self._charge_candidates(candidates)
        dists = metric.distance_batch(
            self._vectors[candidates].astype(np.float64), q
        )
        keep = dists <= radius
        return [
            (int(self._oids[i]), float(d))
            for i, d in zip(candidates[keep], dists[keep])
        ]

    def knn(
        self, query: np.ndarray, k: int, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        """Two-phase VA-SSA search: visit candidates in lower-bound order,
        stop when the next bound exceeds the current k-th distance."""
        q = check_vector(query, self.dims)
        check_metric(metric, self.dims)
        k = check_k(k)
        if self._count == 0:
            return []
        self._charge_approximation_scan()
        bounds = metric.pair_mindist(q, *self._cell_rects())
        order = np.argsort(bounds, kind="stable")
        kth = np.inf
        # Heap keyed (-dist, -oid): ties on distance evict the largest oid
        # first, so the result set is the deterministic (dist, oid) prefix.
        best: list[tuple[float, int]] = []
        verified: list[int] = []
        import heapq

        for idx in order:
            if len(best) >= k and bounds[idx] > kth:
                break
            dist = float(
                metric.distance(self._vectors[idx].astype(np.float64), q)
            )
            verified.append(int(idx))
            oid = int(self._oids[idx])
            if len(best) < k:
                heapq.heappush(best, (-dist, -oid))
            elif (dist, oid) < (-best[0][0], -best[0][1]):
                heapq.heapreplace(best, (-dist, -oid))
            kth = -best[0][0] if len(best) >= k else np.inf
        self._charge_candidates(np.array(verified))
        return sorted(
            ((-noid, -nd) for nd, noid in best), key=lambda t: (t[1], t[0])
        )
