"""Extension — refreshing a kept SOA snapshot vs compiling it again.

A hybrid tree keeps its struct-of-arrays snapshot through writes
(:mod:`repro.engine.soa.refresh`).  The benchmark builds a COLHIST 32-d
tree, compiles the snapshot, then runs write rounds shaped like the
``colhist32-wal-mixed`` end-to-end workload (50 inserts, 10 deletes).
After each round it times the refresh, checks that the refreshed arrays
equal a from-scratch compile, and times that compile.

The gate is direct accounting, not wall time: at full scale
(``REPRO_SCALE >= 1``) the median round may re-derive at most 5% of the
edge boxes (rows through ``ELSTable.effective_boxes``) and re-read at most 5%
of the leaves.  The times are reported beside it, with the host, in
``benchmarks/results/BENCH_refresh.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np
from conftest import RESULTS_DIR, host_metadata, scaled

from repro.core import HybridTree
from repro.core.els import ELSTable
from repro.datasets import colhist_dataset
from repro.engine.soa import compile_snapshot

DIMS = 32
INSERTS, DELETES, ROUNDS = 50, 10, 12


def _same_arrays(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(b)
        if isinstance(getattr(b, f.name), np.ndarray)
    )


def test_refresh_vs_compile(run_once, report, monkeypatch):
    calls = {"rect": 0, "leaf": 0}
    effective_boxes = ELSTable.effective_boxes
    leaf_points = HybridTree.trav_leaf_points

    def counted_boxes(self, ids, *args):
        calls["rect"] += len(ids)
        return effective_boxes(self, ids, *args)

    def counted_points(self, node):
        calls["leaf"] += 1
        return leaf_points(self, node)

    def experiment():
        n = scaled(60_000, minimum=2_000)
        data = colhist_dataset(n + ROUNDS * INSERTS, DIMS, seed=0)
        tree = HybridTree.bulk_load(data[:n])
        tree.compile_snapshot().leaf_sort0()
        rng = np.random.default_rng(1)
        live, nxt = list(range(n)), n
        rows = []
        for _ in range(ROUNDS):
            for _ in range(INSERTS):
                tree.insert(data[nxt], nxt)
                live.append(nxt)
                nxt += 1
            for _ in range(DELETES):
                oid = live.pop(int(rng.integers(len(live))))
                assert tree.delete(data[oid], oid)
            calls.update(rect=0, leaf=0)
            monkeypatch.setattr(ELSTable, "effective_boxes", counted_boxes)
            monkeypatch.setattr(HybridTree, "trav_leaf_points", counted_points)
            start = time.perf_counter()
            snap = tree.refresh_snapshot()
            refresh_s = time.perf_counter() - start
            monkeypatch.undo()
            start = time.perf_counter()
            fresh = compile_snapshot(tree)
            compile_s = time.perf_counter() - start
            assert _same_arrays(snap, fresh), "refresh differs from a compile"
            rows.append({
                "refresh_ms": round(refresh_s * 1e3, 2),
                "compile_ms": round(compile_s * 1e3, 2),
                "boxes_rederived": calls["rect"],
                "leaves_reread": calls["leaf"],
                "edges": snap.n_edges,
                "leaves": int(snap.node_is_leaf.sum()),
            })
        return rows

    rows = run_once(experiment)
    med = {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
    lines = [f"refresh vs compile, COLHIST {DIMS}-d, {INSERTS} inserts + {DELETES} deletes"]
    lines.append("  ".join(f"{k}={v:g}" for k, v in med.items()))
    report("\n".join(lines))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_refresh.json"), "w") as f:
        json.dump({"host": host_metadata(), "median": med, "rounds": rows}, f, indent=2)
    if float(os.environ.get("REPRO_SCALE", "1.0")) >= 1:
        # At reduced scale a round rewrites a large share of a small tree.
        assert med["boxes_rederived"] <= 0.05 * med["edges"]
        assert med["leaves_reread"] <= 0.05 * med["leaves"]
