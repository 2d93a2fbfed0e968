"""Cache-sized row blocks in the SOA kernel.

The vectorized frontier masks and the distance leaf scan of
:mod:`repro.engine.soa.kernel` run in blocks of ``_BLOCK_ELEMS // dims``
rows.  These tests pin the two halves of that contract:

- blocks change only the schedule: with the block size shrunk until every
  frontier level and distance leaf scan spans many blocks (down to one row
  per block), range and distance batches still match the object kernel's
  results, per-query pages and charged reads exactly, and a timeout that
  fires mid-scan salvages only real hits;
- blocks bound the memory: a COLHIST-like 64-d L1 distance batch, whose
  widest frontier level is ~10^5 pairs, no longer allocates one
  ``pairs x dims`` float64 temporary per level.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.engine.soa.kernel as soa_kernel
from repro.core import HybridTree
from repro.datasets import clustered_dataset
from repro.distances import L1, L2, LINF, WeightedEuclidean
from repro.engine.kernel import kernel_distance_range_many, kernel_range_search_many
from repro.engine.query import QueryBatch
from repro.eval.harness import build_index
from repro.geometry.rect import Rect
from repro.resilience import Deadline, PartialResult, QueryTimeoutError

# Every structure whose snapshot is array-only (rect / rect2 bounds), so
# its masks and distance leaf scans take the blocked vectorized path.
RECT_STRUCTURES = ("hybrid", "rtree", "xtree", "kdbtree", "hbtree")
DIMS = 4
METRICS = (L1, L2, LINF, WeightedEuclidean(np.linspace(0.5, 2.0, DIMS)))
# Small pages give every structure a third level, so the frontier has an
# inner level as well as the root's.
PAGE_SIZE = 512


def _quantized(n=900, seed=7):
    """Tie- and duplicate-heavy data: coordinates on a coarse lattice."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 6, size=(n, DIMS)) / 5.0).astype(np.float32)


def _workload(seed=11, count=10):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(count, DIMS)).astype(np.float32)
    lows = rng.integers(0, 4, size=(count, DIMS)) / 5.0
    return centers, [Rect(lo, lo + 0.4) for lo in lows]


@pytest.fixture
def block_log(monkeypatch, request):
    """Shrink the block to ``request.param`` elements and record every
    ``(rows, blocks)`` the kernel schedules."""
    monkeypatch.setattr(soa_kernel, "_BLOCK_ELEMS", request.param)
    log: list[tuple[int, int]] = []
    row_blocks = soa_kernel._row_blocks

    def spy(n_rows, dims):
        blocks = row_blocks(n_rows, dims)
        log.append((n_rows, len(blocks)))
        return blocks

    monkeypatch.setattr(soa_kernel, "_row_blocks", spy)
    return log


def _assert_same(soa, obj, what):
    (res_s, met_s), (res_o, met_o) = soa, obj
    assert res_s == res_o, f"{what}: results diverged"
    assert met_s.charged_reads == met_o.charged_reads, f"{what}: charged reads diverged"
    assert list(met_s.pages) == list(met_o.pages), f"{what}: pages diverged"


def _check_range_and_distance(index, centers, boxes):
    snap = index.compile_snapshot()
    soa = index.range_search_many(boxes, return_metrics=True)
    index.invalidate_snapshot()
    obj = kernel_range_search_many(
        index, QueryBatch.range(boxes, index.dims), return_metrics=True
    )
    index._soa_snapshot = snap
    _assert_same(soa, obj, "range")
    assert any(soa[0]), "range batch found no hits"
    for metric in METRICS:
        soa = index.distance_range_many(centers, 0.45, metric, return_metrics=True)
        index.invalidate_snapshot()
        obj = kernel_distance_range_many(
            index, QueryBatch.distance(centers, 0.45, metric, index.dims),
            return_metrics=True,
        )
        index._soa_snapshot = snap
        _assert_same(soa, obj, f"distance[{metric!r}]")
        assert any(soa[0]), f"distance[{metric!r}] batch found no hits"


def _assert_many_blocks(log):
    assert log, "no blocked pass ran"
    big = [(rows, blocks) for rows, blocks in log if rows > 1]
    assert big and all(blocks > 1 for _, blocks in big), log


# 1 element: one row per block.  13 elements at 4 dims: 3-row blocks, so
# most passes end in a short block.
@pytest.mark.parametrize("block_log", [1, 13], indirect=True)
@pytest.mark.parametrize("kind", RECT_STRUCTURES)
def test_blocks_match_object_kernel(kind, block_log):
    index = build_index(kind, _quantized(), page_size=PAGE_SIZE)
    centers, boxes = _workload()
    _check_range_and_distance(index, centers, boxes)
    _assert_many_blocks(block_log)


@pytest.mark.parametrize("block_log", [1], indirect=True)
@pytest.mark.parametrize("kind", ["hybrid", "rtree", "hbtree"])
def test_blocks_match_object_kernel_after_deletes(kind, block_log):
    data = _quantized(seed=3)
    index = build_index(kind, data, page_size=PAGE_SIZE)
    for oid in range(0, len(data), 3):
        assert index.delete(data[oid], oid)
    centers, boxes = _workload(seed=5)
    _check_range_and_distance(index, centers, boxes)
    _assert_many_blocks(block_log)


class _FiresAtCheck(Deadline):
    """An untimed budget that expires at its ``fire_at``-th check."""

    def __init__(self, fire_at: float):
        super().__init__(None)
        self.fire_at = fire_at

    def check(self) -> None:
        super().check()
        if self.checks >= self.fire_at:
            raise QueryTimeoutError("deadline fired", timeout=0.0, elapsed=0.0)


@pytest.mark.parametrize("block_log", [13], indirect=True)
@pytest.mark.parametrize("kind", ["hybrid", "hbtree"])
def test_mid_scan_timeout_salvages_real_hits(kind, block_log):
    index = build_index(kind, _quantized(), page_size=PAGE_SIZE)
    index.compile_snapshot()
    centers, _ = _workload(count=16)
    counter = _FiresAtCheck(np.inf)
    full = index.distance_range_many(centers, 0.45, L2, timeout=counter)
    # The leaf scan is the last blocked pass, with one check per block.
    scan_checks = block_log[-1][1]
    assert scan_checks > 2, "the leaf scan should span several blocks"
    # Fire halfway through the leaf scan's blocks: the frontier and the
    # first blocks have run, the rest never do.
    fire_at = counter.checks - scan_checks // 2
    part = index.distance_range_many(
        centers, 0.45, L2, timeout=_FiresAtCheck(fire_at), on_timeout="partial"
    )
    assert isinstance(part, PartialResult) and not part.complete
    salvaged = sum(map(len, part.results))
    assert 0 < salvaged < sum(map(len, full))
    # Blocks follow each query's own hit order, so what was salvaged is a
    # prefix of the full answer: real hits with their exact distances.
    for got, want in zip(part.results, full):
        assert got == want[: len(got)]


def test_distance_batch_memory_is_bounded():
    data = clustered_dataset(20000, 64, seed=0)
    tree = HybridTree.bulk_load(data)
    tree.compile_snapshot()
    queries = data[np.random.default_rng(1).choice(len(data), 64, replace=False)]
    queries = queries.astype(np.float64)
    points = data.astype(np.float64)
    # Each radius is the query's 41st-smallest L1 distance.
    radii = np.array(
        [np.partition(np.abs(points - q).sum(axis=1), 40)[40] for q in queries]
    )
    tracemalloc.start()
    try:
        results, metrics = tree.distance_range_many(
            queries, radii, L1, return_metrics=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One unblocked pass peaked at ~128 MB; 2**20-element blocks at ~33 MB.
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    tree.invalidate_snapshot()
    want, want_metrics = kernel_distance_range_many(
        tree, QueryBatch.distance(queries, radii, L1, tree.dims), return_metrics=True
    )
    assert results == want
    assert list(metrics.pages) == list(want_metrics.pages)
    assert metrics.charged_reads == want_metrics.charged_reads
    for q, radius, hits in zip(queries, radii, results):
        exact = np.flatnonzero(np.abs(points - q).sum(axis=1) <= radius)
        assert sorted(oid for oid, _ in hits) == exact.tolist()
