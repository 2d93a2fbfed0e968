#!/usr/bin/env python3
"""The repository's end-to-end benchmark: four paper-shaped workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload colhist64-batch --seed 0 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 0

Each workload builds its index from source data (bulk load, compile, save,
open — three times, reporting the median as ``setup_s``), runs one untimed
warm-up round, then repeats its round of calls in a closed loop with one
client for ``--seconds``.  Every answer is checked against the brute-force
oracle.  The output is one ``workload metric value unit`` line per metric,
then a JSON object on the last line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the JSON carries the end-to-end metrics (:data:`E2E`);
with ``--trace 1`` the loop runs half the time untraced and half traced,
and the JSON carries the per-layer metrics of ``trace.LAYER_METRICS``.
A wrong answer or a raised call counts in ``failed`` and makes the exit
status 1.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import trace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from repro.core.hybridtree import HybridTree  # noqa: E402
from repro.distances import L1, L2  # noqa: E402
from repro.geometry.rect import Rect  # noqa: E402

SETUP_REPEATS = 3
FAILED = object()

E2E = {
    "setup_s": "s",
    "range_qps": "1/s",
    "knn_qps": "1/s",
    "ops_per_s": "1/s",
    "range_lat_p50_ms": "ms",
    "knn_lat_p50_ms": "ms",
    "primary_lat_p50_ms": "ms",
    "pages_per_query": "count",
    "bytes_per_user_byte": "B/B",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Measurement plumbing
# ----------------------------------------------------------------------
class Round:
    """One round's calls as ``(kind, operations, start, seconds)``, and the
    per-query page counts of its queries."""

    def __init__(self):
        self.calls: list[tuple[str, int, float, float]] = []
        self.pages: list[float] = []


class Recorder:
    """Times every client call, counts attempts and failures, and — with a
    tracer — opens the ``client.<kind>`` span that starts a request.

    With a :class:`HostSpeed`, the reference is sampled between calls and
    every timing is reported at the reference host's speed: each call's
    wall time is divided by the host's slowdown around that call."""

    def __init__(self, tracer: trace.Tracer | None = None, speed: HostSpeed | None = None):
        self.tracer = tracer
        self.speed = speed
        self.rounds: list[Round] = []
        self.attempted = 0
        self.failed = 0

    def call(self, kind: str, n: int, fn, *args, **kwargs):
        """Run ``fn`` as one client call of ``n`` operations; returns its
        result, or :data:`FAILED` if it raised."""
        span = self.tracer.begin("client." + kind, request=True) if self.tracer else None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            out = FAILED
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        self.attempted += n
        if self.speed is not None:
            self.speed.maybe_sample()
        if out is FAILED:
            self.failed += max(n, 1)
            return FAILED
        self.rounds[-1].calls.append((kind, n, start, elapsed))
        return out

    def mismatch(self, count: int) -> None:
        if count:
            print(f"oracle mismatch: {count} wrong answer(s)", file=sys.stderr)
        self.failed += count

    def view(self, rounds: int | None = None, normalized: bool = True) -> Recorder:
        """The first ``rounds`` rounds (all by default), at the reference
        host's speed or, with ``normalized=False``, as measured."""
        view = Recorder(speed=self.speed if normalized else None)
        view.rounds = self.rounds[:rounds]
        return view

    def kinds(self) -> list[str]:
        return sorted({call[0] for rnd in self.rounds for call in rnd.calls})

    def seconds(self, kind: str) -> list[float]:
        """Wall time of every call of ``kind``."""
        out = []
        for rnd in self.rounds:
            for k, _, start, elapsed in rnd.calls:
                if k == kind:
                    factor = self.speed.factor_at(start + elapsed / 2) if self.speed else 1.0
                    out.append(elapsed / factor)
        return out

    def count(self, kind: str) -> int:
        return sum(call[1] for rnd in self.rounds for call in rnd.calls if call[0] == kind)

    def qps(self, *kinds: str) -> float:
        """Operations of ``kinds`` completed per second of those calls'
        wall time."""
        seconds = sum(sum(self.seconds(k)) for k in kinds)
        return sum(self.count(k) for k in kinds) / seconds if seconds else 0.0

    def ops_per_s(self) -> float:
        """Every operation per second of every call's wall time, including
        calls of no operations (checkpoints)."""
        return self.qps(*self.kinds())

    def p50_ms(self, kind: str) -> float:
        values = self.seconds(kind)
        return float(np.median(values)) * 1e3 if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    beyond it (else the median), as ``(percentile, value)``."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return 50.0, float(np.median(values))


class Stream:
    """An endless walk over ``size`` pool indices in passes that each issue
    every query once.  The first pass is in pool order, so the counts taken
    over it are the same on every run; later passes are seeded
    permutations."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng
        self.buffer = np.arange(size)

    def take(self, n: int) -> np.ndarray:
        while len(self.buffer) < n:
            self.buffer = np.concatenate([self.buffer, self.rng.permutation(self.size)])
        out, self.buffer = self.buffer[:n], self.buffer[n:]
        return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared state and call helpers.  Subclasses set the class attributes
    and ``pools`` (queries per kind), and define ``build``/``round``.
    ``first_rounds`` is one pass over every pool: the fixed prefix of
    rounds that the deterministic counters (``pages_per_query``,
    ``bytes_per_user_byte``) are taken over, and the unit in which
    throughput is counted."""

    name = dataset = primary = ""
    first_rounds = 1
    # The host-speed reference parts that match where the workload's time
    # goes (see hostspeed.py): array passes in the struct-of-arrays kernels.
    reference = ("python", "numpy")

    def __init__(self, arrays: dict, seed: int, scale: float):
        self.a = arrays
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        self.data = arrays["data"]
        self.dims = self.data.shape[1]
        self.boxes = [Rect(lo, hi) for lo, hi in zip(arrays["range_low"], arrays["range_high"])]
        self.pools: dict[str, int] = {}
        self.streams: dict[str, Stream] = {}
        self.tree = None
        self.path: Path | None = None
        self.exhausted = False

    def scaled_batch(self, size: int) -> int:
        return inputs.scaled(size, self.scale, 4)

    def restart_streams(self) -> None:
        self.streams = {k: Stream(n, self.rng) for k, n in self.pools.items()}

    # -- lifecycle -------------------------------------------------------
    def indexed_points(self) -> int:
        return len(self.data)

    def close(self) -> None:
        if self.tree is not None:
            self.tree.close()
            self.tree = None

    def warmup(self, rec: Recorder) -> None:
        """One round; the timed rounds then start the first pass afresh."""
        self.round(rec)
        self.restart_streams()

    def final_check(self, rec: Recorder) -> None:
        """Checks after the timed phase (read-only workloads check inline)."""

    def rounds_until_every_call(self) -> int:
        """Rounds from here until every kind of call has run at least once."""
        return 1

    def user_bytes(self) -> int:
        return len(self.tree) * (4 * self.dims + 4)

    def stored_bytes(self) -> int:
        return os.path.getsize(self.path)

    # -- calls -----------------------------------------------------------
    def expected(self, kind: str, i: int):
        a = self.a
        if kind == "knn":
            return a["knn_oids"][i], a["knn_d"][i]
        lo, hi = a[f"{kind}_off"][i], a[f"{kind}_off"][i + 1]
        if kind == "range":
            return a["range_oids"][lo:hi]
        return a["dist_oids"][lo:hi], a["dist_d"][lo:hi]

    def check(self, rec: Recorder, kind: str, idx, results) -> None:
        same = {"range": oracle.same_oids, "dist": oracle.same_scored,
                "knn": oracle.same_ranked}[kind]
        bad = 0
        for i, got in zip(idx, results):
            want = self.expected(kind, i)
            bad += not (same(got, want) if kind == "range" else same(got, *want))
        rec.mismatch(bad)

    def batch_call(self, rec: Recorder, kind: str, engine, idx, check: bool = True):
        if kind == "range":
            args = ([self.boxes[i] for i in idx],)
            fn = engine.range_search_many
        elif kind == "dist":
            args = (self.a["dist_centers"][idx], self.a["dist_radii"][idx], L1)
            fn = engine.distance_range_many
        else:
            args = (self.a["knn_centers"][idx], inputs.KNN_K, L2)
            fn = engine.knn_many
        out = rec.call(kind, len(idx), fn, *args, return_metrics=True)
        if out is FAILED:
            return
        results, metrics = out
        rec.rounds[-1].pages.extend(metrics.pages.tolist())
        if check:
            self.check(rec, kind, idx, results)


class Colhist64Batch(Workload):
    """COLHIST 64-d at paper scale, mmap + SOA; range, L1 distance and
    k-NN batches of 64."""

    name, dataset, primary = "colhist64-batch", "colhist64", "dist"

    def __init__(self, arrays, seed, scale):
        super().__init__(arrays, seed, scale)
        self.pools = {"range": len(self.boxes), "dist": len(arrays["dist_centers"]),
                      "knn": len(arrays["knn_centers"])}
        self.size = min(self.scaled_batch(64), *self.pools.values())
        self.first_rounds = math.ceil(max(self.pools.values()) / self.size)
        self.restart_streams()

    def build(self, directory):
        built = HybridTree.bulk_load(self.data)
        built.compile_snapshot()
        self.path = directory / "tree.pages"
        built.save(self.path)
        self.tree = HybridTree.open(self.path, mmap=True)

    def round(self, rec):
        for kind in ("range", "dist", "knn"):
            self.batch_call(rec, kind, self.tree, self.streams[kind].take(self.size))


class Fourier16Parallel(Workload):
    """FOURIER 16-d, mmap + SOA, k-NN and range batches of 256 through a
    two-thread parallel session."""

    name, dataset, primary = "fourier16-parallel", "fourier16", "knn"

    def __init__(self, arrays, seed, scale):
        super().__init__(arrays, seed, scale)
        self.pools = {"range": len(self.boxes), "knn": len(arrays["knn_centers"])}
        self.size = min(self.scaled_batch(256), *self.pools.values())
        self.first_rounds = math.ceil(max(self.pools.values()) / self.size)
        self.restart_streams()
        self.session = None

    def build(self, directory):
        built = HybridTree.bulk_load(self.data)
        built.compile_snapshot()
        self.path = directory / "tree.pages"
        built.save(self.path)
        self.tree = HybridTree.open(self.path, mmap=True)
        self.session = self.tree.session(workers=2, mode="thread")

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None
        super().close()

    def round(self, rec):
        for kind in ("knn", "range"):
            self.batch_call(rec, kind, self.session, self.streams[kind].take(self.size))


class Fourier16SingleCold(Workload):
    """FOURIER 16-d, no snapshot, plain open with a 175-page buffer (~7% of
    the tree); cycles of five single range queries and one single k-NN."""

    name, dataset, primary = "fourier16-single-cold", "fourier16", "range"
    reference = ("python",)  # page decoding and the single-query recursion
    buffer_pages = 175
    ranges_per_cycle = 5

    def __init__(self, arrays, seed, scale):
        super().__init__(arrays, seed, scale)
        # Sub-pools sized so that one pass is a whole number of cycles.
        knn_pool = min(inputs.scaled(64, scale, 4), len(arrays["knn_centers"]))
        self.pools = {"range": min(knn_pool * self.ranges_per_cycle, len(self.boxes)),
                      "knn": knn_pool}
        self.first_rounds = knn_pool
        self.restart_streams()
        self.buffer = max(8, int(self.buffer_pages * scale))

    def build(self, directory):
        built = HybridTree.bulk_load(self.data)
        self.path = directory / "tree.pages"
        built.save(self.path)
        self.tree = HybridTree.open(self.path, buffer_pages=self.buffer)

    def single(self, rec, kind, fn, args, i):
        io = self.tree.io
        io.checkpoint()
        out = rec.call(kind, 1, fn, *args)
        pages = io.since_checkpoint().weighted_cost()
        if out is FAILED:
            return
        rec.rounds[-1].pages.append(pages)
        self.check(rec, kind, [i], [out])

    def round(self, rec):
        for i in self.streams["range"].take(self.ranges_per_cycle):
            self.single(rec, "range", self.tree.range_search, (self.boxes[i],), i)
        i = self.streams["knn"].take(1)[0]
        center = self.a["knn_centers"][i]
        self.single(rec, "knn", self.tree.knn, (center, inputs.KNN_K, L2), i)


class Colhist32WalMixed(Workload):
    """COLHIST 32-d with a write-ahead log: durable inserts and deletes
    beside range and k-NN batches of 64 on the object-walk kernel, and a
    checkpoint after every 10th round."""

    name, dataset, primary = "colhist32-wal-mixed", "colhist32", "insert"
    reference = ("python",)  # the object walk, inserts and deletes
    inserts_per_round = 50
    deletes_per_round = 10
    checkpoint_every = 10

    def __init__(self, arrays, seed, scale):
        super().__init__(arrays, seed, scale)
        self.base = len(self.data) - int(arrays["held_out"])
        self.pools = {"range": len(self.boxes), "knn": len(arrays["knn_centers"])}
        self.size = min(self.scaled_batch(64), *self.pools.values())
        self.first_rounds = math.ceil(max(self.pools.values()) / self.size)
        self.restart_streams()
        self.inserts = inputs.scaled(self.inserts_per_round, scale, 5)
        self.deletes = inputs.scaled(self.deletes_per_round, scale, 1)

    def indexed_points(self) -> int:
        return self.base

    def build(self, directory):
        built = HybridTree.bulk_load(self.data[: self.base])
        built.compile_snapshot()
        self.path = directory / "tree.pages"
        built.save(self.path)
        self.tree = HybridTree.open(self.path, wal=True)
        # The model: live oids (a list for O(1) random removal) and the
        # held-out points still to insert.  The first pass's inserts and
        # deletes come from a fixed generator, so the counts taken over it
        # are the same for every seed; the run seed drives the rest.
        self.live = list(range(self.base))
        self.slot = {oid: oid for oid in self.live}
        self.fixed_rng = np.random.default_rng(inputs.DATA_SEED)
        held = self.fixed_rng.permutation(np.arange(self.base, len(self.data)))
        first = self.first_rounds * self.inserts
        order = np.concatenate([held[:first], self.rng.permutation(held[first:])])
        self.pending = list(order[::-1])
        self.rounds_done = 0
        self.wal_bytes = 0
        self.wal_mark = self.tree.wal.size_bytes

    def _add(self, oid: int) -> None:
        self.slot[oid] = len(self.live)
        self.live.append(oid)

    def _take_random(self) -> int:
        rng = self.fixed_rng if self.rounds_done < self.first_rounds else self.rng
        j = int(rng.integers(len(self.live)))
        oid, last = self.live[j], self.live[-1]
        self.live[j] = last
        self.slot[last] = j
        self.live.pop()
        del self.slot[oid]
        return oid

    def warmup(self, rec):
        for kind in ("range", "knn"):
            self.batch_call(rec, kind, self.tree, self.streams[kind].take(self.size), False)
        self.restart_streams()

    def round(self, rec):
        tree = self.tree
        for _ in range(self.inserts):
            if not self.pending:
                self.exhausted = True
                break
            oid = int(self.pending.pop())
            if rec.call("insert", 1, tree.insert, self.data[oid], oid) is not FAILED:
                self._add(oid)
        for _ in range(self.deletes):
            oid = self._take_random()
            if rec.call("delete", 1, tree.delete, self.data[oid], oid) is False:
                rec.mismatch(1)  # the point was live, so delete must find it
        for kind in ("range", "knn"):
            self.batch_call(rec, kind, tree, self.streams[kind].take(self.size), False)
        self.rounds_done += 1
        if self.rounds_done % self.checkpoint_every == 0:
            self.wal_bytes += tree.wal.size_bytes - self.wal_mark
            rec.call("checkpoint", 0, tree.checkpoint)
            self.wal_mark = tree.wal.size_bytes

    def rounds_until_every_call(self) -> int:
        return self.checkpoint_every - self.rounds_done % self.checkpoint_every

    def stored_bytes(self) -> int:
        # The first pass ends before the first checkpoint, so the log
        # still holds every write of that pass.
        return os.path.getsize(self.path) + self.tree.wal.size_bytes

    def appended_wal_bytes(self) -> int:
        return self.wal_bytes + self.tree.wal.size_bytes - self.wal_mark

    def model(self) -> oracle.Model:
        live = np.zeros(len(self.data), dtype=bool)
        live[self.live] = True
        return oracle.Model(self.data, live)

    def compare(self, tree, model: oracle.Model) -> int:
        """Wrong answers of ``tree`` over every pool query, plus a wrong size."""
        results = tree.range_search_many(self.boxes)
        bad = sum(
            not oracle.same_oids(got, model.box(box.low, box.high))
            for got, box in zip(results, self.boxes)
        )
        centers = self.a["knn_centers"]
        for got, center in zip(tree.knn_many(centers, inputs.KNN_K, L2), centers):
            bad += not oracle.same_ranked(got, *model.knn(center, inputs.KNN_K, L2))
        return bad + (len(tree) != len(model))

    def final_check(self, rec):
        model = self.model()
        bad = self.compare(self.tree, model)
        # Durability: drop the process's state without saving; the reopened
        # tree must replay every acknowledged write from the log.
        self.close()
        reopened = HybridTree.open(self.path)
        try:
            bad += self.compare(reopened, model)
        finally:
            reopened.close()
        rec.mismatch(bad)


WORKLOADS = {
    cls.name: cls
    for cls in (Colhist64Batch, Fourier16Parallel, Fourier16SingleCold, Colhist32WalMixed)
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(wl: Workload, rec: Recorder, seconds: float, min_rounds: int,
            on_round=None) -> None:
    """Closed loop: whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done.  ``on_round(n)`` runs after round ``n``."""
    start = time.perf_counter()
    done = 0
    while (done < min_rounds or time.perf_counter() - start < seconds) and not wl.exhausted:
        rec.rounds.append(Round())
        wl.round(rec)
        done += 1
        if on_round is not None:
            on_round(done)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float) -> dict:
    arrays, gen_s = inputs.load(WORKLOADS[name].dataset, scale)
    wl = WORKLOADS[name](arrays, seed, scale)
    tracer = trace.Tracer() if traced else None
    speed = None
    scratch = inputs.CACHE / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    totals = Recorder()
    setups: list[tuple[float, float]] = []  # (start, seconds)
    try:
        if tracer:
            tracer.install()
        else:
            speed = HostSpeed(wl.reference)
            speed.sample(3)
        for i in range(SETUP_REPEATS):
            wl.close()
            gc.collect()
            directory = scratch / f"setup{i}"
            directory.mkdir()
            span = tracer.begin("setup", request=True) if tracer else None
            start = time.perf_counter()
            wl.build(directory)
            setups.append((start, time.perf_counter() - start))
            if tracer:
                tracer.end(span)
            if speed:
                speed.sample()
        if tracer:
            tracer.uninstall()
        totals.mismatch(int(len(wl.tree) != wl.indexed_points()))
        warm = Recorder()
        warm.rounds.append(Round())
        wl.warmup(warm)
        if tracer:
            info, recorders = traced_loop(wl, tracer, seconds)
        else:
            rec, fixed = timed_loop(wl, speed, seconds)
            recorders = [rec]
        rss = peak_rss_mb()  # before the oracle's own arrays
        wl.final_check(totals)
    finally:
        if tracer:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for r in [warm, *recorders]:
        totals.attempted += r.attempted
        totals.failed += r.failed
    lines: list[tuple[str, float, str]] = []
    if tracer:
        tracer.finish()
        metrics = tracer.per_layer(info)
        units = trace.LAYER_METRICS
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
    else:
        pages = [p for r in rec.rounds[: wl.first_rounds] for p in r.pages]
        passes = len(rec.rounds) // wl.first_rounds * wl.first_rounds
        metrics = timings(rec, passes, wl.primary)
        raw = timings(rec.view(normalized=False), passes, wl.primary)
        raw["setup_s"] = float(np.median([sec for _, sec in setups]))
        metrics.update(
            setup_s=float(np.median([
                sec / speed.factor_at(start + sec / 2) for start, sec in setups
            ])),
            pages_per_query=float(np.mean(pages)) if pages else 0.0,
            bytes_per_user_byte=fixed["stored"] / fixed["user"],
            peak_rss_mb=rss,
        )
        units = E2E
        lines = [("host_factor", speed.factor(), "ratio")]
        lines += [(f"raw_{key}", value, E2E[key]) for key, value in raw.items()]
        lines += informational(rec.view(normalized=False), totals, gen_s, fixed)
    return {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": lines,
    }


def timings(rec: Recorder, passes: int, primary: str) -> dict[str, float]:
    """The timed end-to-end metrics.  Throughput counts the first
    ``passes`` rounds, whole passes: every run then counts the same
    queries, however its batches happened to be composed."""
    head = rec.view(passes)
    return {
        "range_qps": head.qps("range"),
        "knn_qps": head.qps("knn"),
        "ops_per_s": head.ops_per_s(),
        "range_lat_p50_ms": rec.p50_ms("range"),
        "knn_lat_p50_ms": rec.p50_ms("knn"),
        "primary_lat_p50_ms": rec.p50_ms(primary),
    }


def timed_loop(wl: Workload, speed: HostSpeed, seconds: float) -> tuple[Recorder, dict]:
    """The measured loop; also returns the byte counts taken right after
    the first pass."""
    rec = Recorder(speed=speed)
    fixed: dict[str, float] = {}

    def on_round(done: int) -> None:
        if done != wl.first_rounds:
            return
        fixed["stored"] = wl.stored_bytes()
        fixed["user"] = wl.user_bytes()
        if isinstance(wl, Colhist32WalMixed):
            fixed["file"] = os.path.getsize(wl.path)
            fixed["wal"] = wl.appended_wal_bytes()
            fixed["inserted"] = rec.count("insert") * (4 * wl.dims + 4)

    speed.sample(5)
    measure(wl, rec, seconds, wl.first_rounds, on_round)
    speed.sample(5)
    return rec, fixed


def traced_loop(wl: Workload, tracer: trace.Tracer, seconds: float):
    """Half the time untraced, half traced — the traced half at least until
    every kind of call has run, so the mixed workload traces a checkpoint.
    Returns what :meth:`trace.Tracer.per_layer` needs besides the spans,
    and the two recorders."""
    plain, rec = Recorder(), Recorder(tracer)
    measure(wl, plain, seconds / 2, 1)
    before = phase_counters(wl)
    tracer.install()
    start = time.perf_counter()
    measure(wl, rec, seconds / 2, wl.rounds_until_every_call())
    end = time.perf_counter()
    tracer.uninstall()
    after = phase_counters(wl)
    info = {
        "start": start,
        "end": end,
        "queries": {k: rec.count(k) for k in ("range", "dist", "knn")},
        "inserts": rec.count("insert"),
        "pages_added": after["pages"] - before["pages"],
        "wal_commits": after["commits"] - before["commits"],
        "wal_syncs": after["syncs"] - before["syncs"],
        "retries": after["retries"],
        "ops_per_s_untraced": plain.ops_per_s(),
        "ops_per_s_traced": rec.ops_per_s(),
    }
    return info, [plain, rec]


def phase_counters(wl: Workload) -> dict:
    tree = wl.tree
    wal = getattr(tree, "wal", None)
    return {
        "pages": tree.pages(),
        "commits": wal.commit_count if wal is not None else 0,
        "syncs": wal.sync_count if wal is not None else 0,
        "retries": tree.nm.retries_performed,
    }


def informational(rec: Recorder, totals: Recorder, gen_s: float, fixed: dict):
    """Numbers printed for people but not gated: sample counts, measured
    (raw) latencies and tails, the kinds no other workload has, and the
    error rate."""
    lines = [("gen_s", gen_s, "s"), ("rounds", len(rec.rounds), "count")]
    for kind in rec.kinds():
        values = rec.seconds(kind)
        lines.append((f"{kind}_calls", len(values), "count"))
        lines.append((f"{kind}_lat_p50_ms", rec.p50_ms(kind), "ms"))
        q, value = tail(values)
        if q > 50:
            lines.append((f"{kind}_lat_p{q:g}_ms", value * 1e3, "ms"))
    if "dist" in rec.kinds():
        lines.append(("dist_qps", rec.qps("dist"), "1/s"))
    if "wal" in fixed:
        lines.append(("file_bytes_per_user_byte", fixed["file"] / fixed["user"], "B/B"))
        lines.append(("wal_bytes_per_user_byte", fixed["wal"] / fixed["inserted"], "B/B"))
    lines.append(("error_rate", totals.failed / max(totals.attempted, 1), "ratio"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink datasets, pools and batches (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for metric, item in result["metrics"].items():
        print(f"{args.workload} {metric} {item['value']:.6g} {item['unit']}")
    for metric, value, unit in result.pop("info"):
        print(f"{args.workload} info:{metric} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, item in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = item
    print(json.dumps(merged))
    return status or (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
