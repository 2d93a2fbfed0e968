"""Span tracing for the end-to-end benchmark, installed only by ``--trace 1``.

:class:`Tracer` wraps the library's layer boundaries from the outside —
each function is replaced on the class or module it is looked up through,
and restored by :meth:`Tracer.uninstall`; nothing under ``src/`` changes.
A span is ``[name, start, end, parent, request, thread, attrs]``; the part
of the name before the first dot is its layer.  Spans stay in memory and
are written as JSON by :meth:`Tracer.dump`.

The benchmark opens one ``client.<kind>`` span per call it makes; that span
starts a request, and every span opened beneath it on the same thread
inherits the request id.  Worker threads of the parallel engine start with
an empty stack (``ThreadPoolExecutor`` does not carry context over), so
:meth:`Tracer.finish` attaches their root spans to the ``parallel.batch``
span that encloses them in time.

A span's self time is its duration minus the union of its children's
intervals; a request's time in a layer is the sum of the self times of that
layer's spans in the request.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(7)

# Worker-thread spans are re-parented onto the enclosing span of these names.
CONTAINERS = ("parallel.batch",)

LAYER_METRICS = {
    "storage.page_reads_per_query": "count",
    "storage.read_us": "us",
    "storage.decode_us": "us",
    "storage.buffer_hit_rate": "ratio",
    "storage.open_s": "s",
    "storage.save_s": "s",
    "core.bulk_load_s": "s",
    "soa.compile_s": "s",
    "batch.session_open_s": "s",
    "storage.retries": "count",
    "parallel.restarts": "count",
    "wal.append_us": "us",
    "wal.commit_ms_p50": "ms",
    "wal.commit_ms_p99": "ms",
    "wal.records_per_insert": "count",
    "wal.bytes_per_insert": "B",
    "wal.syncs_per_commit": "ratio",
    "wal.checkpoint_ms": "ms",
    "core.insert_self_ms": "ms",
    "core.delete_self_ms": "ms",
    "core.pages_per_1k_inserts": "count",
    "core.single_range_self_ms": "ms",
    "core.single_knn_self_ms": "ms",
    "soa.range_us_per_query": "us",
    "soa.dist_us_per_query": "us",
    "soa.knn_us_per_query": "us",
    "soa.visits_per_query.range": "count",
    "soa.visits_per_query.dist": "count",
    "soa.visits_per_query.knn": "count",
    "soa.hits_per_visit": "ratio",
    "kernel.range_us_per_query": "us",
    "kernel.knn_us_per_query": "us",
    "kernel.nm_get_share": "ratio",
    "parallel.partition_ms": "ms",
    "parallel.overhead_ms": "ms",
    "parallel.imbalance": "ratio",
    "parallel.concurrency": "ratio",
    "trace.overhead": "ratio",
    "trace.storage_core_share": "ratio",
}


def _batch_attrs(position: int):
    """Describe a batch kernel call: queries in, node visits and hits out."""

    def describe(args, out) -> dict:
        attrs = {"n": len(args[position])}
        if isinstance(out, tuple):  # (results, BatchMetrics)
            results, metrics = out
            attrs["visits"] = float(np.sum(metrics.pages))
            attrs["hits"] = sum(len(r) for r in results)
        return attrs

    return describe


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.self_times: list[float] = []
        self.engines: list = []
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: bool = False) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            if request:
                self._requests += 1
                req = self._requests
            else:
                req = self.spans[parent][REQUEST] if parent is not None else None
            self.spans.append(
                [name, time.perf_counter(), 0.0, parent, req, threading.get_ident(), None]
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def note(self, key: str, value: float) -> None:
        """Add ``value`` to attribute ``key`` of this thread's innermost span."""
        stack = self._stack()
        if stack:
            span = self.spans[stack[-1]]
            attrs = span[ATTRS] = span[ATTRS] or {}
            attrs[key] = attrs.get(key, 0) + value

    # -- patching --------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        raw = vars(owner)[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if describe is not None:
                span = tracer.spans[index]
                span[ATTRS] = {**(span[ATTRS] or {}), **describe(args, out)}
            return out

        self._replace(owner, attr, binder(traced) if binder else traced)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        from repro.core.hybridtree import HybridTree
        from repro.storage.mmapstore import MmapPageStore
        from repro.storage.nodemanager import NodeManager
        from repro.storage.pagestore import FilePageStore
        from repro.storage.serialization import HybridNodeCodec

        batch = importlib.import_module("repro.engine.batch")
        kernel = importlib.import_module("repro.engine.kernel")
        soa = importlib.import_module("repro.engine.soa.kernel")
        parallel = importlib.import_module("repro.engine.parallel")
        wal = importlib.import_module("repro.storage.wal")
        engine_cls = parallel.ParallelQueryEngine

        for owner, attr, name, describe in (
            (HybridTree, "bulk_load", "core.bulk_load", None),
            (HybridTree, "insert", "core.insert", None),
            (HybridTree, "delete", "core.delete", None),
            (HybridTree, "range_search", "core.range_search", None),
            (HybridTree, "distance_range", "core.distance_range", None),
            (HybridTree, "knn", "core.knn", None),
            (HybridTree, "range_search_many", "core.range_many", None),
            (HybridTree, "distance_range_many", "core.dist_many", None),
            (HybridTree, "knn_many", "core.knn_many", None),
            (HybridTree, "compile_snapshot", "soa.compile", None),
            (HybridTree, "save", "storage.save", None),
            (HybridTree, "open", "storage.open", None),
            (HybridTree, "checkpoint", "wal.checkpoint", None),
            (HybridTree, "session", "batch.session_open", None),
            (NodeManager, "get", "storage.nm_get", None),
            (FilePageStore, "read", "storage.read", None),
            (MmapPageStore, "read", "storage.read", None),
            (HybridNodeCodec, "decode", "storage.decode", None),
            (wal.WriteAheadLog, "append_page", "wal.append", None),
            (wal.WriteAheadLog, "append_commit", "wal.append", None),
            (wal.WriteAheadLog, "commit", "wal.commit", None),
            (batch, "dispatch_range_search_many", "batch.dispatch_range", None),
            (batch, "dispatch_distance_range_many", "batch.dispatch_dist", None),
            (batch, "dispatch_knn_many", "batch.dispatch_knn", None),
            (soa, "soa_range_search_many", "soa.range", _batch_attrs(2)),
            (soa, "soa_distance_range_many", "soa.dist", _batch_attrs(2)),
            (soa, "soa_knn_many", "soa.knn", _batch_attrs(2)),
            (kernel, "kernel_range_search_many", "kernel.range", _batch_attrs(1)),
            (kernel, "kernel_distance_range_many", "kernel.dist", _batch_attrs(1)),
            (kernel, "kernel_knn_many", "kernel.knn", _batch_attrs(1)),
            (engine_cls, "range_search_many", "parallel.batch", None),
            (engine_cls, "distance_range_many", "parallel.batch", None),
            (engine_cls, "knn_many", "parallel.batch", None),
            (parallel, "_run_partition", "parallel.partition", None),
        ):
            self.wrap(owner, attr, name, describe)

        tracer = self
        frame = wal.frame_record

        def counted_frame(*args, **kwargs):
            out = frame(*args, **kwargs)
            tracer.note("bytes", len(out))
            return out

        init = engine_cls.__init__

        def registering_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            tracer.engines.append(engine)

        self._replace(wal, "frame_record", counted_frame)
        self._replace(engine_cls, "__init__", registering_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def finish(self) -> None:
        """Re-parent worker-thread roots, propagate request ids, and
        compute every span's self time."""
        spans = self.spans
        containers = [i for i, s in enumerate(spans) if s[NAME] in CONTAINERS]
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span[PARENT] is None and span[THREAD] != self.main_thread:
                enclosing = [
                    c
                    for c in containers
                    if spans[c][START] <= span[START] and span[END] <= spans[c][END]
                ]
                if enclosing:
                    span[PARENT] = max(enclosing, key=lambda c: spans[c][START])
            if span[PARENT] is not None:
                children[span[PARENT]].append(i)
                if span[REQUEST] is None:
                    span[REQUEST] = spans[span[PARENT]][REQUEST]
        self.self_times = [
            span[END] - span[START] - _covered(
                [(spans[c][START], spans[c][END]) for c in children.get(i, ())],
                span[START],
                span[END],
            )
            for i, span in enumerate(spans)
        ]

    def dump(self, path) -> None:
        """Write the spans (times relative to the first span) as JSON;
        call after :meth:`finish`."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[REQUEST],
             self.self_times[i], s[ATTRS]]
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request", "self", "attrs"],
                 "spans": rows},
                f,
            )

    def per_layer(self, info: dict) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS`, from the spans of the
        traced phase ``info["start"]..info["end"]`` and the set-up spans;
        0 where the workload does not exercise the layer.  ``info`` also
        carries the counters the benchmark reads itself (see ``run.py``)."""
        spans, self_t = self.spans, self.self_times
        in_phase = [
            i for i, s in enumerate(spans) if info["start"] <= s[START] <= info["end"]
        ]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i in in_phase:
            by_name[spans[i][NAME]].append(i)

        def dur(i: int) -> float:
            return spans[i][END] - spans[i][START]

        def mean(values) -> float:
            values = list(values)
            return float(np.mean(values)) if values else 0.0

        def pct(values, q: float) -> float:
            values = list(values)
            return float(np.percentile(values, q)) if values else 0.0

        # Per-request layer self time, and the kind of each request.
        kind_of: dict[int, str] = {}
        layer_self: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in in_phase:
            span = spans[i]
            if span[REQUEST] is None:
                continue
            if span[NAME].startswith("client."):
                kind_of[span[REQUEST]] = span[NAME]
            layer_self[span[REQUEST]][span[NAME].split(".")[0]] += self_t[i]

        def requests_with(span_name: str, kind: str) -> list[int]:
            return sorted(
                {spans[i][REQUEST] for i in by_name[span_name]
                 if kind_of.get(spans[i][REQUEST]) == kind}
            )

        def layer_ms(reqs, layer: str) -> float:
            return mean(layer_self[r][layer] * 1e3 for r in reqs)

        out: dict[str, float] = {}
        queries = sum(info["queries"].values())
        reads, gets = by_name["storage.read"], by_name["storage.nm_get"]
        misses = {spans[i][PARENT] for i in reads + by_name["storage.decode"]}
        out["storage.page_reads_per_query"] = len(reads) / queries if queries else 0.0
        out["storage.read_us"] = mean(self_t[i] * 1e6 for i in reads)
        out["storage.decode_us"] = mean(dur(i) * 1e6 for i in by_name["storage.decode"])
        out["storage.buffer_hit_rate"] = (
            1.0 - sum(1 for i in gets if i in misses) / len(gets) if gets else 0.0
        )

        setup_children: dict[str, list[float]] = defaultdict(list)
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent is not None and spans[parent][NAME] == "setup":
                setup_children[span[NAME]].append(dur(i))
        for metric, name in (
            ("storage.open_s", "storage.open"),
            ("storage.save_s", "storage.save"),
            ("core.bulk_load_s", "core.bulk_load"),
            ("soa.compile_s", "soa.compile"),
            ("batch.session_open_s", "batch.session_open"),
        ):
            out[metric] = pct(setup_children[name], 50)
        out["storage.retries"] = float(info["retries"])
        out["parallel.restarts"] = float(sum(e.restarts_performed for e in self.engines))

        inserts = requests_with("core.insert", "client.insert")
        insert_set = set(inserts)
        appends = [i for i in by_name["wal.append"] if spans[i][REQUEST] in insert_set]
        commits = [dur(i) * 1e3 for i in by_name["wal.commit"]]
        out["wal.append_us"] = mean(dur(i) * 1e6 for i in by_name["wal.append"])
        out["wal.commit_ms_p50"] = pct(commits, 50)
        out["wal.commit_ms_p99"] = pct(commits, 99)
        out["wal.records_per_insert"] = len(appends) / len(inserts) if inserts else 0.0
        out["wal.bytes_per_insert"] = (
            sum((spans[i][ATTRS] or {}).get("bytes", 0) for i in appends) / len(inserts)
            if inserts else 0.0
        )
        out["wal.syncs_per_commit"] = (
            info["wal_syncs"] / info["wal_commits"] if info["wal_commits"] else 0.0
        )
        out["wal.checkpoint_ms"] = pct((dur(i) * 1e3 for i in by_name["wal.checkpoint"]), 50)

        out["core.insert_self_ms"] = layer_ms(inserts, "core")
        out["core.delete_self_ms"] = layer_ms(requests_with("core.delete", "client.delete"), "core")
        out["core.pages_per_1k_inserts"] = (
            info["pages_added"] * 1e3 / info["inserts"] if info["inserts"] else 0.0
        )
        out["core.single_range_self_ms"] = layer_ms(
            requests_with("core.range_search", "client.range"), "core"
        )
        out["core.single_knn_self_ms"] = layer_ms(requests_with("core.knn", "client.knn"), "core")

        def per_query(name: str, key: str, scale: float = 1.0) -> float:
            n = sum((spans[i][ATTRS] or {}).get("n", 0) for i in by_name[name])
            if not n:
                return 0.0
            if key == "time":
                return sum(dur(i) for i in by_name[name]) * scale / n
            return sum((spans[i][ATTRS] or {}).get(key, 0) for i in by_name[name]) / n

        for kind in ("range", "dist", "knn"):
            out[f"soa.{kind}_us_per_query"] = per_query(f"soa.{kind}", "time", 1e6)
            out[f"soa.visits_per_query.{kind}"] = per_query(f"soa.{kind}", "visits")
        soa_spans = by_name["soa.range"] + by_name["soa.dist"] + by_name["soa.knn"]
        visits = sum((spans[i][ATTRS] or {}).get("visits", 0) for i in soa_spans)
        hits = sum((spans[i][ATTRS] or {}).get("hits", 0) for i in soa_spans)
        out["soa.hits_per_visit"] = hits / visits if visits else 0.0

        out["kernel.range_us_per_query"] = per_query("kernel.range", "time", 1e6)
        out["kernel.knn_us_per_query"] = per_query("kernel.knn", "time", 1e6)
        kernel_spans = [i for name in ("kernel.range", "kernel.dist", "kernel.knn")
                        for i in by_name[name]]
        kernel_set = set(kernel_spans)
        in_kernel = 0.0
        for i in gets:
            parent = spans[i][PARENT]
            while parent is not None and parent not in kernel_set:
                parent = spans[parent][PARENT]
            if parent is not None:
                in_kernel += dur(i)
        kernel_time = sum(dur(i) for i in kernel_spans)
        out["kernel.nm_get_share"] = in_kernel / kernel_time if kernel_time else 0.0

        partitions: dict[int, list[float]] = defaultdict(list)
        for i in by_name["parallel.partition"]:
            if spans[i][PARENT] is not None:
                partitions[spans[i][PARENT]].append(dur(i))
        batches = [(dur(b), partitions[b]) for b in by_name["parallel.batch"] if partitions[b]]
        out["parallel.partition_ms"] = mean(p * 1e3 for _, parts in batches for p in parts)
        out["parallel.overhead_ms"] = mean((wall - max(parts)) * 1e3 for wall, parts in batches)
        out["parallel.imbalance"] = mean(max(parts) / np.mean(parts) for _, parts in batches)
        out["parallel.concurrency"] = mean(sum(parts) / wall for wall, parts in batches)

        out["trace.overhead"] = (
            info["ops_per_s_untraced"] / info["ops_per_s_traced"] - 1.0
            if info["ops_per_s_traced"] else 0.0
        )
        client_time = sum(dur(i) for i in in_phase if spans[i][NAME].startswith("client."))
        storage_core = sum(
            layers["storage"] + layers["core"] for layers in layer_self.values()
        )
        out["trace.storage_core_share"] = storage_core / client_time if client_time else 0.0
        return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
