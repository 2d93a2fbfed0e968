"""Extension — buffer-pool behaviour of a disk-resident hybrid tree.

The paper reports cold per-query disk accesses; a production deployment
runs behind a buffer pool.  This benchmark saves a tree to a real page file,
reopens it with bounded node caches of various sizes (level-aware: leaves
are evicted before index pages, least recently used first within a level),
and measures page faults per query over a clustered workload.  Expected
shape: misses fall monotonically with buffer size; once the pool covers
the working set (directory + hot clusters), queries run almost I/O-free —
the locality that makes tree indexes deployable at all.
"""

import numpy as np
from conftest import scaled

from repro.core import HybridTree
from repro.datasets import colhist_dataset, range_workload
from repro.eval.report import render_table


def test_ext_buffer_pool(run_once, report, tmp_path):
    def experiment():
        data = colhist_dataset(scaled(10000), 64, seed=0)
        tree = HybridTree.bulk_load(data)
        path = str(tmp_path / "tree.pages")
        tree.save(path)
        total_pages = tree.pages()
        workload = range_workload(data, scaled(40, minimum=10), 0.002, seed=1)
        boxes = workload.boxes()

        rows = []
        for fraction in (0.02, 0.05, 0.15, 0.5, 1.0):
            buffer_pages = max(4, int(total_pages * fraction))
            reopened = HybridTree.open(path, buffer_pages=buffer_pages)
            # Warm-up pass, then the measured pass.
            for box in boxes:
                reopened.range_search(box)
            reopened.io.reset()
            results = 0
            for box in boxes:
                results += len(reopened.range_search(box))
            rows.append(
                {
                    "buffer_pages": buffer_pages,
                    "fraction_of_tree": fraction,
                    "faults/query": round(reopened.io.random_reads / len(boxes), 2),
                    "results": round(results / len(boxes), 1),
                }
            )
        rows.append({"buffer_pages": f"(tree: {total_pages} pages)"})
        return rows

    rows = run_once(experiment)
    report(render_table(rows, "Extension — buffer pool: faults per warm query"))

    faults = [float(r["faults/query"]) for r in rows if "faults/query" in r]
    # Shape: monotone non-increasing in buffer size ...
    assert all(b <= a + 0.5 for a, b in zip(faults, faults[1:])), faults
    # ... and a full-tree buffer serves warm queries without faults.
    assert faults[-1] == 0.0, faults
    # A small buffer still absorbs a useful share of accesses vs cold runs.
    assert faults[0] > faults[-1], faults
