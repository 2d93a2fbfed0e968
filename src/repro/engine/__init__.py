"""High-throughput batch query engine for every index structure.

One traversal serves many queries: nodes are fetched once per batch and
tested against all still-alive queries with vectorized predicates, and
:class:`QuerySession` pins the hot directory levels so a warm serving
process stops re-paying for them.  Results are bit-identical to the
single-query API.

Every batch is one :class:`QueryBatch` (:mod:`repro.engine.query`): the
kind (range, distance or k-NN) and its arguments, checked once at the
public API.  Every executor — the hybrid tree, the baselines,
:class:`QuerySession` and :class:`ParallelQueryEngine` — runs it through a
single ``execute(batch, return_metrics=False, timeout=None,
on_timeout="raise")``; ``range_search_many`` / ``distance_range_many`` /
``knn_many`` are one-line helpers that build the batch.  Below ``execute``,
:func:`repro.engine.batch.dispatch` picks the vectorized SOA kernel
(:mod:`repro.engine.soa`) when a snapshot is attached and the
structure-agnostic object-walk kernel (:mod:`repro.engine.kernel`)
otherwise — any index implementing the small ``trav_*`` protocol (the
hybrid tree and all paged baselines do) runs on the same batch, parallel,
and mmap machinery with the same accounting.  :mod:`repro.engine.metrics`
holds the per-query latency / page-access accounting all execution paths
share.
"""

from repro.engine.batch import QuerySession
from repro.engine.kernel import (
    ChildBound,
    Children,
    EdgeBlock,
    RectBlock,
    kernel_distance_range_many,
    kernel_knn_many,
    kernel_range_search_many,
)
from repro.engine.metrics import BatchMetrics, LoopRecorder, ascii_histogram
from repro.engine.parallel import WORKER_MODES, ParallelQueryEngine
from repro.engine.query import QueryBatch
from repro.engine.soa import (
    SOASnapshot,
    active_snapshot,
    compile_snapshot,
    soa_distance_range_many,
    soa_knn_many,
    soa_range_search_many,
)

__all__ = [
    "BatchMetrics",
    "ChildBound",
    "Children",
    "EdgeBlock",
    "LoopRecorder",
    "ParallelQueryEngine",
    "QueryBatch",
    "QuerySession",
    "RectBlock",
    "SOASnapshot",
    "WORKER_MODES",
    "active_snapshot",
    "ascii_histogram",
    "compile_snapshot",
    "kernel_distance_range_many",
    "kernel_knn_many",
    "kernel_range_search_many",
    "soa_distance_range_many",
    "soa_knn_many",
    "soa_range_search_many",
]
