"""The k-NN visit order of both batch kernels.

The object kernel runs every query's own best-first search (the rule and
tie order of ``HybridTree.knn``), and the SOA kernel's exact frontier
bills exactly that search's visits, so a query's node visits — and, for
approximate k-NN, its answer — equal the single-query method's and do not
depend on which other queries share its batch.  With a snapshot attached
(the ``soa`` engine), approximate batches run the object kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridTree
from repro.datasets.synthetic import clustered_dataset
from repro.distances import L1, L2, LINF
from repro.eval.harness import build_index

ENGINES = ("object", "soa")
K = 10


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(3000, 8, seed=0)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(100)
    rows = data[rng.choice(len(data), 32, replace=False)]
    return rows + rng.normal(0, 0.01, size=rows.shape)


@pytest.fixture(scope="module")
def tree(data):
    return HybridTree.bulk_load(data)


def _engine(index, engine):
    if engine == "soa":
        index.compile_snapshot()
    elif hasattr(index, "invalidate_snapshot"):
        index.invalidate_snapshot()
    return index


def _single_query_visits(tree, queries, metric, eps):
    """``nm.get`` calls ``HybridTree.knn`` makes for each query."""
    calls = 0
    get = tree.nm.get

    def counting_get(*args, **kwargs):
        nonlocal calls
        calls += 1
        return get(*args, **kwargs)

    tree.nm.get = counting_get
    visits = []
    try:
        for q in queries:
            calls = 0
            tree.knn(q, K, metric, approximation_factor=eps)
            visits.append(calls)
    finally:
        del tree.nm.get
    return visits


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("eps", (0.5, 1.0))
def test_approximate_batches_match_single_query(tree, queries, engine, eps):
    index = _engine(tree, engine)
    single = [tree.knn(q, K, L2, approximation_factor=eps) for q in queries]
    assert index.knn_many(queries, K, L2, approximation_factor=eps) == single
    half = len(queries) // 2
    split = index.knn_many(queries[:half], K, L2, approximation_factor=eps)
    split += index.knn_many(queries[half:], K, L2, approximation_factor=eps)
    assert split == single


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("eps", (0.0, 0.5))
@pytest.mark.parametrize("metric", (L1, L2, LINF), ids=("L1", "L2", "Linf"))
def test_pages_equal_single_query_visits(tree, queries, engine, eps, metric):
    expected = _single_query_visits(tree, queries, metric, eps)
    index = _engine(tree, engine)
    _, metrics = index.knn_many(
        queries, K, metric, approximation_factor=eps, return_metrics=True
    )
    assert metrics.pages.tolist() == expected


# Only the box-bounded baselines compile a snapshot.
@pytest.mark.parametrize(
    ("engine", "kind"),
    [("object", kind) for kind in ("rtree", "hbtree", "sstree", "mtree")] + [("soa", "rtree")],
)
def test_baseline_pages_do_not_depend_on_the_batch(data, queries, kind, engine):
    # Baselines answer single queries with the kernel at batch size one, so
    # that is the per-query reference here.
    index = _engine(build_index(kind, data[:1500]), engine)
    results, metrics = index.knn_many(queries, K, L2, return_metrics=True)
    for i, q in enumerate(queries):
        alone, alone_metrics = index.knn_many(q[None, :], K, L2, return_metrics=True)
        assert alone == [results[i]]
        assert alone_metrics.pages.tolist() == [metrics.pages[i]]
