"""Extension — the compiled struct-of-arrays kernel vs the object walk.

For each traversable structure the benchmark builds the index once, runs
the batch workload on the **object-walk** kernel (no snapshot attached),
then compiles the struct-of-arrays snapshot and reruns the identical
workload on the **vectorized SOA** kernel, asserting bit-identical results
and recording the wall-time ratio plus the one-off compile cost.  The
hybrid tree is additionally measured through the persisted snapshot: saved
with the section, reopened via the zero-copy mmap path, queried again —
the configuration parallel workers share.

The structures are the ones that compile a snapshot: the box-bounded
hybrid, R, X and kd-B trees (the hB-, SS-, SR- and M-trees answer every
batch on the object walk).  Their exact k-NN batches run on the frontier,
and the k-NN row also counts that path's uncharged work, per query: the probe's node visits
(``knn_probe_visits``), the frontier's pairs reached at the probe radius
over the pairs within the final kth distance, which are the pairs billed
(``knn_r0_over_dk``), and the probe's visits outside the billed pairs
(``knn_probe_unbilled``).

Acceptance gate (ISSUE 6): on the hybrid tree the SOA kernel must beat
the object walk by >= 3x on the ``bench_kernel.py`` workload suite —
asserted on the suite's total wall time, with k-NN (the
interpreter-bound workload, where vectorization is the whole win)
additionally required to clear 3x on its own and range required to be
strictly faster.  Range's standalone margin is structurally modest at
this scale: a height-2 tree with ~70-point leaves makes box containment
arithmetic-bound, and both kernels run the same float comparisons — the
SOA side just schedules them better (rank windows on a presorted leaf
dimension, a float32 prefilter, one exact pass over survivors).  Both
sides get one untimed warmup so the ratios measure steady state, not
the object walk's cold-start penalty.  Gates apply only at full scale
(``REPRO_SCALE >= 1``); reduced-scale smoke runs assert identity only,
because interpreter constant factors dominate tiny trees.

Everything lands in ``benchmarks/results/BENCH_soa.json`` (with host
metadata, like every BENCH artifact).
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np
from conftest import RESULTS_DIR, host_metadata, scaled

from repro.core import HybridTree
from repro.datasets import clustered_dataset, range_workload
from repro.distances import L2
from repro.engine.query import QueryBatch
from repro.engine.soa import kernel as soa_kernel
from repro.eval.harness import build_index
from repro.eval.report import render_table

K = 10
DIMS = 8
STRUCTURES = ("hybrid", "rtree", "xtree", "kdbtree")


def _specs(index, workload, centers):
    """(label, thunk) pairs for the structure's batch workload."""
    boxes = workload.boxes()
    return [
        ("range", lambda: index.range_search_many(boxes)),
        ("knn", lambda: index.knn_many(centers, K, L2)),
    ]


def _knn_frontier_counters(snap, centers) -> dict:
    """The k-NN frontier's uncharged work on ``snap``, per query."""
    batch = QueryBatch.knn(centers, K, L2, 0.0, snap.dims)
    job = soa_kernel._KnnFrontier(snap, soa_kernel._PairBounds(snap, L2), batch)
    job.run(None)
    n = len(batch)
    reached = len(soa_kernel._reached(job.levels)[0])
    billed_nodes, billed_queries = job.billed()
    probe_nodes, probe_queries = (np.concatenate(part) for part in zip(*job.probed))
    unbilled = ~np.isin(
        probe_queries * snap.n_nodes + probe_nodes,
        billed_queries * snap.n_nodes + billed_nodes,
    )
    return {
        "knn_probe_visits": round(len(probe_nodes) / n, 2),
        "knn_r0_over_dk": round(reached / len(billed_nodes), 3),
        "knn_probe_unbilled": round(int(unbilled.sum()) / n, 2),
    }


def test_soa_speedups(run_once, report):
    def experiment():
        data = clustered_dataset(scaled(6000), DIMS, seed=0)
        workload = range_workload(data, scaled(300, minimum=30), 0.002, seed=1)
        centers = workload.centers

        rows = []
        for kind in STRUCTURES:
            index = build_index(kind, data)
            row = {"structure": kind}
            specs = _specs(index, workload, centers)

            index.invalidate_snapshot()  # object-walk side, guaranteed
            object_results = {}
            object_total = 0.0
            for label, thunk in specs:
                thunk()  # untimed warmup: measure steady state on both sides
                start = time.perf_counter()
                object_results[label] = thunk()
                wall = time.perf_counter() - start
                row[f"{label}_object_s"] = round(wall, 4)
                object_total += wall

            start = time.perf_counter()
            snap = index.compile_snapshot()
            row["compile_s"] = round(time.perf_counter() - start, 4)
            row["nodes"] = snap.n_nodes
            row.update(_knn_frontier_counters(snap, centers))

            soa_total = 0.0
            for label, thunk in specs:
                thunk()  # warmup (also builds the snapshot's lazy sort caches)
                start = time.perf_counter()
                soa_result = thunk()
                soa_wall = time.perf_counter() - start
                soa_total += soa_wall
                row[f"{label}_soa_s"] = round(soa_wall, 4)
                row[f"{label}_speedup"] = round(
                    row[f"{label}_object_s"] / max(soa_wall, 1e-9), 2
                )
                row[f"{label}_identical"] = soa_result == object_results[label]
            row["primary"] = specs[0][0]
            row["suite_speedup"] = round(object_total / max(soa_total, 1e-9), 2)
            rows.append(row)

            if kind == "hybrid":
                # The persisted path: snapshot section -> zero-copy mmap.
                with tempfile.TemporaryDirectory() as tmpdir:
                    path = os.path.join(tmpdir, "bench.tree")
                    index.save(path)
                    reopened = HybridTree.open(path, mmap=True)
                    try:
                        mrow = {"structure": "hybrid (mmap snapshot)"}
                        mrow["reattached"] = reopened.soa_snapshot is not None
                        for label, thunk in _specs(reopened, workload, centers):
                            start = time.perf_counter()
                            result = thunk()
                            mrow[f"{label}_soa_s"] = round(
                                time.perf_counter() - start, 4
                            )
                            mrow[f"{label}_identical"] = (
                                result == object_results[label]
                            )
                    finally:
                        reopened.close()
                    rows.append(mrow)
        return rows

    rows = run_once(experiment)
    payload = {"host": host_metadata(), "soa_vs_object": rows}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_soa.json"), "w") as f:
        json.dump(payload, f, indent=2)
    report(
        render_table(
            [
                {
                    "structure": r["structure"],
                    "compile_s": r.get("compile_s", "-"),
                    "primary_speedup": r.get(f"{r.get('primary')}_speedup", "-"),
                    "knn_speedup": r.get("knn_speedup", "-"),
                    "suite_speedup": r.get("suite_speedup", "-"),
                    "knn_probe_visits": r.get("knn_probe_visits", "-"),
                    "knn_r0_over_dk": r.get("knn_r0_over_dk", "-"),
                    "knn_probe_unbilled": r.get("knn_probe_unbilled", "-"),
                }
                for r in rows
            ],
            "SOA kernel vs object walk (wall-time speedup)",
        )
    )

    full_scale = float(os.environ.get("REPRO_SCALE", "1.0")) >= 1.0
    for row in rows:
        for key, value in row.items():
            if key.endswith("_identical"):
                assert value, f"{row['structure']}: {key} diverged"
        if row["structure"] == "hybrid (mmap snapshot)":
            assert row["reattached"], "saved snapshot did not reattach via mmap"
        elif full_scale and row["structure"] == "hybrid":
            # The acceptance gate (see module docstring).  The baselines
            # record their ratios without a floor.
            assert row["suite_speedup"] >= 3.0, (
                f"hybrid: SOA suite too slow ({row['suite_speedup']}x)"
            )
            assert row["knn_speedup"] >= 3.0, (
                f"hybrid: SOA knn too slow ({row['knn_soa_s']}s vs "
                f"{row['knn_object_s']}s)"
            )
            assert row["range_speedup"] >= 1.0, (
                f"hybrid: SOA range slower than object walk "
                f"({row['range_soa_s']}s vs {row['range_object_s']}s)"
            )
