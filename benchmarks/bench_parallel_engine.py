"""Extension — the multi-worker parallel engine and the zero-copy read path.

Two measurements over a saved tree file:

- **decode**: time to fault in every node page through the copying codec
  vs the zero-copy codec (`copy=False` over an mmapped page) — the
  per-page decode cost the mmap read path removes;
- **throughput**: batch `range_search_many` / `knn_many` queries-per-second
  at 1/2/4 workers (thread and fork modes, mmap handles), with the speedup
  over the single-worker serial engine and a bit-identical results check.

Worker cold start (tree reopen + fsck per handle) is excluded: engines are
constructed before the timed region, matching how a serving process would
hold a warm pool.  Every engine stays open while each call is repeated
``REPEATS`` times, the configurations alternating (in turn forward and
backward) within each repeat, so a burst of load from other tenants of a
shared host lands on every configuration alike; a row reports the median
call and the distance between the quartiles.  The fork engines start
before the thread engines, so no process is forked while worker threads
run.  The ≥ 2x speedup shape is only asserted when the host
actually has ≥ 4 CPU cores — on smaller runners the numbers are still
emitted to ``BENCH_parallel.json`` but parallelism cannot beat the GIL-free
serial loop, and pretending otherwise would be noise.

Scale knob: ``REPRO_SCALE`` as in every other benchmark.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import RESULTS_DIR, host_metadata, scaled

from repro.core import HybridTree
from repro.datasets import colhist_dataset, range_workload
from repro.engine.parallel import ParallelQueryEngine
from repro.eval.report import render_table
from repro.storage.mmapstore import MmapPageStore
from repro.storage.serialization import HybridNodeCodec

K = 10
DECODE_PASSES = 5
REPEATS = 9
CONFIGS = ((1, "thread"), (2, "thread"), (2, "fork"), (4, "fork"))


def _decode_bench(path: str, dims: int, data_capacity: int) -> dict:
    """Time copy vs zero-copy decode over every node page of the file."""
    timings = {}
    with MmapPageStore(path, verify="fsck") as store:
        pages = []
        for pid in range(store._next_id):
            page = store.read(pid, charge=False)
            try:  # keep only decodable node pages (skip blobs/superblock)
                HybridNodeCodec(dims, data_capacity).decode(bytes(page))
            except Exception:
                continue
            pages.append(page)
        for label, codec in (
            ("copy", HybridNodeCodec(dims, data_capacity)),
            (
                "zero-copy",
                HybridNodeCodec(
                    dims, data_capacity, copy=False, verify_checksums=False
                ),
            ),
        ):
            start = time.perf_counter()
            for _ in range(DECODE_PASSES):
                for page in pages:
                    codec.decode(page)
            timings[label] = (time.perf_counter() - start) / DECODE_PASSES
    timings["pages"] = len(pages)
    timings["speedup"] = timings["copy"] / max(timings["zero-copy"], 1e-12)
    return timings


def test_parallel_engine(run_once, report, tmp_path):
    def experiment():
        data = colhist_dataset(scaled(20000), 16, seed=0)
        tree = HybridTree.bulk_load(data)
        path = str(tmp_path / "tree.pages")
        tree.save(path)
        workload = range_workload(data, scaled(1000, minimum=50), 0.002, seed=1)
        boxes = workload.boxes()
        centers = workload.centers

        decode = _decode_bench(path, tree.dims, tree.data_capacity)

        # Fork engines first: their processes start before any worker thread.
        engines = {}
        walls = {}
        first = {}
        identical = {}
        try:
            for config in sorted(CONFIGS, key=lambda c: c[1] != "fork"):
                engine = engines[config] = ParallelQueryEngine(
                    path, workers=config[0], mode=config[1]
                )
                engine.knn_many(centers[:4], K)  # warm worker caches
            for rep in range(REPEATS):
                for config in CONFIGS if rep % 2 == 0 else CONFIGS[::-1]:
                    engine = engines[config]
                    for kind, run in (
                        ("range", lambda: engine.range_search_many(boxes)),
                        ("knn", lambda: engine.knn_many(centers, K)),
                    ):
                        start = time.perf_counter()
                        results = run()
                        walls.setdefault((kind, config), []).append(
                            time.perf_counter() - start
                        )
                        expect = first.setdefault(kind, results)
                        identical[kind, config] = (
                            identical.get((kind, config), True) and results == expect
                        )
        finally:
            for engine in engines.values():
                engine.close()

        rows = []
        for kind in ("range", "knn"):
            serial = np.median(walls[kind, CONFIGS[0]])
            for config in CONFIGS:
                q1, median, q3 = np.percentile(walls[kind, config], [25, 50, 75])
                rows.append(
                    {
                        "kind": kind,
                        "workers": config[0],
                        "mode": config[1],
                        "wall_s": round(float(median), 4),
                        "wall_iqr_s": round(float(q3 - q1), 4),
                        "qps": round(len(first[kind]) / median, 1),
                        "speedup_vs_1": round(float(serial / median), 2),
                        "identical": identical[kind, config],
                    }
                )
        return rows, decode

    rows, decode = run_once(experiment)
    payload = {
        "host": host_metadata(),
        "repeats": REPEATS,
        "decode": decode,
        "throughput": rows,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_parallel.json"), "w") as f:
        json.dump(payload, f, indent=2)
    report(
        render_table(
            rows,
            f"parallel engine throughput (warm workers, mmap; median of {REPEATS} "
            "alternating calls)",
        )
        + "\n\n"
        + f"decode of {decode['pages']} node pages: copy {decode['copy'] * 1e3:.2f} ms, "
        f"zero-copy {decode['zero-copy'] * 1e3:.2f} ms "
        f"({decode['speedup']:.1f}x faster fault-in)"
    )

    assert all(row["identical"] for row in rows), "parallel results diverged"
    assert decode["zero-copy"] < decode["copy"], (
        "zero-copy decode should beat the copying codec "
        f"({decode['zero-copy']:.4f}s vs {decode['copy']:.4f}s)"
    )
    cores = os.cpu_count() or 1
    best4 = max(
        (row["speedup_vs_1"] for row in rows if row["workers"] == 4), default=0.0
    )
    if cores >= 4:
        assert best4 >= 2.0, (
            f"4 workers on {cores} cores only reached {best4}x over serial"
        )
