"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the page-budget capacity model (Table 1's fanout story).
``generate``
    Write a dataset (.npy) with one of the reconstructed generators.
``build``
    Build a hybrid tree over a .npy dataset and save it as a page file.
``query``
    Run a k-NN / distance-range / box query against a saved tree.
``bench``
    Run one of the paper-figure experiments and print its table.
``bench-batch``
    Compare the batch query engine (one shared traversal + pinned hot
    directory) against a loop of single queries and print per-query
    latency / page-access histograms.
``fsck``
    Verify a saved tree file: page CRCs, reachability, free list,
    checksum-of-checksums.  Exit status 1 if corruption is found.
``salvage``
    Scavenge the intact data pages of a damaged tree file and rebuild a
    fresh tree from them.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import HybridTree
from repro.distances import L1, L2, LINF, LpMetric
from repro.geometry.rect import Rect
from repro.resilience import QueryTimeoutError

_METRICS = {"l1": L1, "l2": L2, "linf": LINF}

_BENCH_CHOICES = (
    "fig5",
    "fig5c",
    "fig6-fourier",
    "fig6-colhist",
    "fig7-dbsize",
    "fig7-distance",
    "lemma1",
    "approx-knn",
)


def _metric(name: str):
    name = name.lower()
    if name in _METRICS:
        return _METRICS[name]
    try:
        return LpMetric(float(name))
    except ValueError:
        raise SystemExit(f"unknown metric {name!r}; use l1, l2, linf or a p-value")


def _floats(text: str, dims: int, flag: str) -> np.ndarray:
    """``dims`` comma-separated numbers, or a one-line exit naming ``flag``."""
    try:
        values = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise SystemExit(f"{flag}: {text!r} is not a comma-separated list of numbers") from None
    if len(values) != dims:
        raise SystemExit(f"{flag} has {len(values)} values; the tree has {dims} dims")
    if np.isnan(values).any():
        raise SystemExit(f"{flag} holds NaN")
    return values


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    from repro.eval.report import render_table
    from repro.storage.page import (
        data_node_capacity,
        kdtree_node_capacity,
        rtree_node_capacity,
        srtree_node_capacity,
        sstree_node_capacity,
    )

    rows = []
    for dims in args.dims:
        rows.append(
            {
                "dims": dims,
                "data_entries/page": data_node_capacity(dims),
                "hybrid/hB/KDB fanout": kdtree_node_capacity(dims),
                "rtree fanout": rtree_node_capacity(dims),
                "sstree fanout": sstree_node_capacity(dims),
                "srtree fanout": srtree_node_capacity(dims),
            }
        )
    print(render_table(rows, f"Node capacities on {args.page_size}-byte pages"))
    return 0


def _dataset(args: argparse.Namespace) -> np.ndarray:
    """``--count`` x ``--dims`` vectors from the ``--dataset`` maker; a
    maker's ``ValueError`` (such as dims COLHIST has no grid for) becomes a
    one-line exit message."""
    from repro.datasets import (
        clustered_dataset,
        colhist_dataset,
        fourier_dataset,
        uniform_dataset,
    )

    makers = {
        "colhist": colhist_dataset,
        "fourier": fourier_dataset,
        "uniform": uniform_dataset,
        "clustered": clustered_dataset,
    }
    try:
        return makers[args.dataset](args.count, args.dims, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"--dataset {args.dataset}: {exc}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    data = _dataset(args)
    np.save(args.out, data)
    print(f"wrote {data.shape[0]} x {data.shape[1]} {args.dataset} vectors to {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    data = np.load(args.data)
    if data.ndim != 2:
        raise SystemExit(f"{args.data} is not a 2-d array")
    with np.errstate(over="ignore"):  # beyond float32's range: inf, caught below
        data = data.astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise SystemExit(
            f"{args.data}: {len(bad)} row(s) not finite in float32, "
            f"the first is row {bad[0]}"
        )
    if args.bulk:
        tree = HybridTree.bulk_load(data, els_bits=args.els_bits)
    else:
        tree = HybridTree(data.shape[1], els_bits=args.els_bits)
        for oid, vector in enumerate(data):
            tree.insert(vector, oid)
    tree.save(args.out)
    print(
        f"built hybrid tree: {len(tree):,} points, height {tree.height}, "
        f"{tree.pages():,} pages -> {args.out}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    tree = HybridTree.open(args.tree, on_corruption=args.on_corruption)
    metric = _metric(args.metric)
    if args.knn is not None or args.radius is not None:
        if args.vector is None:
            raise SystemExit(f"--{'knn' if args.knn is not None else 'radius'} needs --vector")
        vector = _floats(args.vector, tree.dims, "--vector")
        if not np.isfinite(vector).all():
            raise SystemExit("--vector must be finite")
    if args.knn is not None:
        if args.knn < 1:
            raise SystemExit("--knn must be >= 1")
        results = tree.knn(vector, args.knn, metric=metric)
        for oid, dist in results:
            print(f"{oid}\t{dist:.6f}")
    elif args.radius is not None:
        if not args.radius >= 0:
            raise SystemExit("--radius must be >= 0")
        results = sorted(
            tree.distance_range(vector, args.radius, metric=metric),
            key=lambda t: t[1],
        )
        for oid, dist in results:
            print(f"{oid}\t{dist:.6f}")
    elif args.box is not None:
        low_str, colon, high_str = args.box.partition(":")
        if not colon:
            raise SystemExit("--box must be 'low1,low2,...:high1,high2,...'")
        low = _floats(low_str, tree.dims, "--box low")
        high = _floats(high_str, tree.dims, "--box high")
        if (low > high).any():
            raise SystemExit(f"--box low exceeds high in dim {int(np.argmax(low > high))}")
        for oid in sorted(tree.range_search(Rect(low, high))):
            print(oid)
    else:
        raise SystemExit("specify one of --knn, --radius or --box")
    print(
        f"# {tree.io.random_reads} page reads over a {tree.pages():,}-page tree",
        file=sys.stderr,
    )
    if tree.degraded_queries:
        print(
            f"# WARNING: corrupt page encountered; {tree.degraded_queries} "
            "quer(y/ies) answered by degraded sequential scan",
            file=sys.stderr,
        )
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.core.hybridtree import HybridTree
    from repro.storage.wal import wal_path_for

    tree = HybridTree.open(args.tree, wal=True)
    try:
        replayed = tree.wal_replayed_transactions
        stats = tree.checkpoint()
    finally:
        tree.close()
    print(
        f"checkpoint {args.tree}: generation {stats['generation']}, "
        f"{replayed} logged transaction(s) folded into the superblock "
        f"({stats['wal_bytes_folded']} WAL bytes)"
    )
    print(f"  log reset: {wal_path_for(args.tree)}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.storage.recovery import verify

    report = verify(args.tree)
    print(report.render())
    return 0 if report.ok else 1


def cmd_salvage(args: argparse.Namespace) -> int:
    from repro.storage.errors import RecoveryError
    from repro.storage.recovery import salvage

    try:
        report = salvage(args.tree, out_path=args.out, page_size=args.page_size)
    except RecoveryError as exc:
        raise SystemExit(f"salvage failed: {exc}")
    print(report.render())
    if report.expected_objects is not None:
        return 0 if report.objects_recovered == report.expected_objects else 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval import figures, render_table

    scale = args.scale

    def n(x: int) -> int:
        return max(4, int(x * scale))

    runners = {
        "fig5": lambda: figures.fig5_eda_vs_vam(count=n(8000), num_queries=n(25)),
        "fig5c": lambda: figures.fig5c_els(count=n(8000), num_queries=n(25)),
        "fig6-fourier": lambda: figures.fig6_dimensionality(
            "fourier", count=n(40000), num_queries=n(25)
        ),
        "fig6-colhist": lambda: figures.fig6_dimensionality(
            "colhist", count=n(12000), num_queries=n(25)
        ),
        "fig7-dbsize": lambda: figures.fig7_dbsize(
            sizes=tuple(n(s) for s in (4000, 8000, 12000, 16000)),
            num_queries=n(25),
        ),
        "fig7-distance": lambda: figures.fig7_distance(
            count=n(12000), num_queries=n(20)
        ),
        "lemma1": lambda: figures.lemma1_dimension_elimination(
            count=n(8000), num_queries=n(25)
        ),
        "approx-knn": lambda: figures.ext_approximate_knn(
            count=n(12000), num_queries=n(20)
        ),
    }
    rows = runners[args.figure]()
    print(render_table(rows, f"{args.figure} (scale {scale})"))
    return 0


def cmd_bench_batch(args: argparse.Namespace) -> int:
    import time

    from repro.datasets.workload import distance_workload, range_workload
    from repro.baselines.common import LoopQueryMixin
    from repro.engine import QuerySession
    from repro.eval.harness import build_index
    from repro.eval.report import render_table
    from repro.resilience import PartialResult

    if args.queries < 1:
        raise SystemExit("--queries must be >= 1")
    if args.k < 1:
        raise SystemExit("--k must be >= 1")
    if args.pin_levels < 0:
        raise SystemExit("--pin-levels must be >= 0")
    data = _dataset(args)
    index = build_index(args.index, data, build="bulk")
    metric = _metric(args.metric)
    budget = {"timeout": args.timeout, "on_timeout": args.on_timeout}
    use_soa = args.engine == "soa"
    if use_soa and not hasattr(index, "compile_snapshot"):
        raise SystemExit(
            f"--engine soa: {args.index} does not support snapshot compilation"
        )
    shape = f"height {index.height}, " if hasattr(index, "height") else ""
    print(
        f"{args.dataset}/{args.index}: {len(index):,} x {args.dims}-d points, "
        f"{shape}{index.pages():,} pages; "
        f"{args.queries} queries per mode, {args.engine} batch engine",
        file=sys.stderr,
    )

    rows = []
    reports = []

    def compare(label, run_loop, run_batch):
        # The loop side always walks the live objects; the batch side runs
        # the requested engine (a compiled snapshot routes the *_many calls
        # through the vectorized SOA kernel, and is invalidated here so the
        # loop side can never accidentally benefit from it).  The scan and
        # the VA-file have no snapshot to drop.
        if hasattr(index, "invalidate_snapshot"):
            index.invalidate_snapshot()
        index.io.reset()
        start = time.perf_counter()
        loop_results, loop_metrics = run_loop()
        loop_wall = time.perf_counter() - start
        if use_soa:
            index.compile_snapshot()
        index.io.reset()
        start = time.perf_counter()
        batch_results, batch_metrics = run_batch()
        batch_wall = time.perf_counter() - start
        row = {
            "mode": label,
            **{
                k: loop_metrics.summary()[k]
                for k in ("charged_reads", "lat_p50_ms", "lat_p95_ms")
            },
            "loop_s": round(loop_wall, 3),
            "batch_s": round(batch_wall, 3),
            "speedup": round(loop_wall / batch_wall, 2) if batch_wall else 0.0,
            "batch_reads": batch_metrics.charged_reads,
            "identical": loop_results == batch_results,
        }
        if isinstance(batch_results, PartialResult):
            # The deadline fired: report what was salvaged instead of
            # pretending a truncated run matched the loop.
            row["identical"] = "-"
            row["complete"] = (
                f"{batch_results.completed_queries}/{len(batch_results)}"
            )
        rows.append(row)
        reports.append(loop_metrics.render())
        reports.append(batch_metrics.render())

    workload = range_workload(data, args.queries, args.selectivity, seed=args.seed + 1)
    centers = workload.centers
    boxes = dist = None
    if getattr(index, "trav_supports_box", True):
        boxes = workload.boxes()
        compare(
            "range",
            lambda: LoopQueryMixin.range_search_loop(index, boxes, return_metrics=True),
            lambda: index.range_search_many(boxes, return_metrics=True, **budget),
        )
    else:
        # Distance-based structures (M-tree) have no box geometry: bench
        # distance-range queries at the same selectivity instead.
        dwork = distance_workload(
            data, args.queries, args.selectivity, metric=metric, seed=args.seed + 1
        )
        dist = (dwork.centers, dwork.radii)
        compare(
            "distance",
            lambda: LoopQueryMixin.distance_range_loop(
                index, dist[0], dist[1], metric, return_metrics=True
            ),
            lambda: index.distance_range_many(
                dist[0], dist[1], metric, return_metrics=True, **budget
            ),
        )

    def knn_loop():
        return LoopQueryMixin.knn_loop(index, centers, args.k, metric, return_metrics=True)

    compare(
        f"knn k={args.k}",
        knn_loop,
        lambda: index.knn_many(centers, args.k, metric, return_metrics=True, **budget),
    )
    if isinstance(index, HybridTree):
        with QuerySession(index, pin_levels=args.pin_levels) as session:
            compare(
                f"knn k={args.k} (session, {session.pinned_pages} pinned)",
                knn_loop,
                lambda: session.knn_many(
                    centers, args.k, metric, return_metrics=True, **budget
                ),
            )

    print(render_table(rows, f"batch engine vs single-query loop ({args.index})"))
    for text in reports:
        print()
        print(text)

    if args.workers > 1 or args.mmap:
        print()
        _bench_parallel(args, index, boxes, dist, centers, metric, budget)
    return 0


def _bench_parallel(args, index, boxes, dist, centers, metric, budget) -> None:
    """Compare serial batch execution against a multi-worker engine.

    A hybrid tree is saved and reopened so process workers and mmap read
    handles are exercised; any other structure is parallelised live through
    thread-worker views of the index itself.
    """
    import os
    import tempfile
    import time

    from repro.engine import ParallelQueryEngine
    from repro.eval.report import render_table

    with tempfile.TemporaryDirectory() as tmpdir:
        if isinstance(index, HybridTree):
            source = os.path.join(tmpdir, "bench.tree")
            index.save(source)
            serial = HybridTree.open(source, mmap=args.mmap)
            mode = args.worker_mode
            title = "parallel engine vs serial batch (reopened tree)"
        else:
            serial = source = index
            mode = "thread"
            title = "parallel engine vs serial batch (live index, thread views)"
        specs = []
        if boxes is not None:
            specs.append(
                (
                    "range",
                    lambda: serial.range_search_many(
                        boxes, return_metrics=True, **budget
                    ),
                    lambda eng: eng.range_search_many(
                        boxes, return_metrics=True, **budget
                    ),
                )
            )
        if dist is not None:
            specs.append(
                (
                    "distance",
                    lambda: serial.distance_range_many(
                        dist[0], dist[1], metric, return_metrics=True, **budget
                    ),
                    lambda eng: eng.distance_range_many(
                        dist[0], dist[1], metric, return_metrics=True, **budget
                    ),
                )
            )
        specs.append(
            (
                f"knn k={args.k}",
                lambda: serial.knn_many(
                    centers, args.k, metric, return_metrics=True, **budget
                ),
                lambda eng: eng.knn_many(
                    centers, args.k, metric, return_metrics=True, **budget
                ),
            )
        )
        rows = []
        with ParallelQueryEngine(
            source, workers=args.workers, mode=mode, mmap=args.mmap
        ) as engine:
            for label, serial_fn, parallel_fn in specs:
                start = time.perf_counter()
                serial_results, serial_metrics = serial_fn()
                serial_wall = time.perf_counter() - start
                start = time.perf_counter()
                parallel_results, parallel_metrics = parallel_fn(engine)
                parallel_wall = time.perf_counter() - start
                rows.append(
                    {
                        "mode": label,
                        "workers": f"{args.workers}x{mode}",
                        "mmap": args.mmap,
                        "serial_s": round(serial_wall, 3),
                        "parallel_s": round(parallel_wall, 3),
                        "speedup": (
                            round(serial_wall / parallel_wall, 2)
                            if parallel_wall
                            else 0.0
                        ),
                        "serial_reads": serial_metrics.charged_reads,
                        "parallel_reads": parallel_metrics.charged_reads,
                        "identical": serial_results == parallel_results,
                    }
                )
        if serial is not index:
            serial.close()
        print(render_table(rows, title))


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.eval.harness import INDEX_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid tree (ICDE 1999) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print the page-budget capacity model")
    p.add_argument("--dims", type=int, nargs="+", default=[8, 16, 32, 64])
    p.add_argument("--page-size", type=int, default=4096)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("generate", help="generate a dataset (.npy)")
    p.add_argument("--dataset", choices=["colhist", "fourier", "uniform", "clustered"],
                   required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("build", help="build and save a hybrid tree")
    p.add_argument("--data", required=True, help="input .npy (n, dims) array")
    p.add_argument("--out", required=True, help="output page file")
    p.add_argument("--els-bits", type=int, default=4)
    p.add_argument("--bulk", action="store_true", help="bulk load (default: insert)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("query", help="query a saved hybrid tree")
    p.add_argument("--tree", required=True, help="saved page file")
    p.add_argument("--vector", help="comma-separated query vector")
    p.add_argument("--knn", type=int, help="k nearest neighbours")
    p.add_argument("--radius", type=float, help="distance range radius")
    p.add_argument("--box", help="box query 'low1,low2,...:high1,high2,...'")
    p.add_argument("--metric", default="l2", help="l1 | l2 | linf | <p>")
    p.add_argument(
        "--on-corruption",
        choices=["raise", "scan"],
        default="raise",
        help="on a corrupt page: fail (raise) or degrade to a sequential scan",
    )
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "checkpoint",
        help="fold a tree's write-ahead log into a fresh superblock",
    )
    p.add_argument("--tree", required=True, help="saved page file (with .wal sidecar)")
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser("fsck", help="verify a saved tree file's integrity")
    p.add_argument("--tree", required=True, help="saved page file")
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser(
        "salvage", help="rebuild a tree from the intact data pages of a damaged file"
    )
    p.add_argument("--tree", required=True, help="damaged page file")
    p.add_argument("--out", help="where to save the rebuilt tree")
    p.add_argument(
        "--page-size", type=int, help="override page size (skip superblock probe)"
    )
    p.set_defaults(fn=cmd_salvage)

    p = sub.add_parser("bench", help="run a paper-figure experiment")
    p.add_argument("--figure", choices=_BENCH_CHOICES, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "bench-batch", help="compare the batch engine against a single-query loop"
    )
    p.add_argument(
        "--index",
        choices=list(INDEX_KINDS),
        default="hybrid",
        help="which index structure to drive through the traversal kernel",
    )
    p.add_argument(
        "--dataset",
        choices=["colhist", "fourier", "uniform", "clustered"],
        default="colhist",
    )
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--selectivity", type=float, default=0.002)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--metric", default="l2", help="l1 | l2 | linf | <p>")
    p.add_argument(
        "--engine",
        choices=["object", "soa"],
        default="object",
        help="batch engine: walk live node objects, or compile the index "
        "to a struct-of-arrays snapshot and run the vectorized kernel "
        "(hybrid, rtree, xtree and kdbtree only)",
    )
    p.add_argument("--pin-levels", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also compare a multi-worker parallel engine over the saved tree",
    )
    p.add_argument(
        "--worker-mode",
        choices=["thread", "fork", "spawn"],
        default="thread",
        help="worker concurrency model for --workers > 1",
    )
    p.add_argument(
        "--mmap",
        action="store_true",
        help="reopen via the zero-copy mmap read path (fsck once at open)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="deadline in seconds applied to every batch call "
        "(exits with a one-line message when it fires under --on-timeout raise)",
    )
    p.add_argument(
        "--on-timeout",
        choices=["raise", "partial"],
        default="raise",
        help="when the deadline fires: raise, or keep the partial results "
        "salvaged before it (reported with a completed-query count)",
    )
    p.set_defaults(fn=cmd_bench_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QueryTimeoutError as exc:  # bench-batch --timeout under "raise"
        raise SystemExit(
            f"{exc}; rerun with a larger --timeout or --on-timeout partial"
        ) from None


if __name__ == "__main__":
    raise SystemExit(main())
