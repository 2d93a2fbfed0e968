"""Resilient query execution: deadlines, supervision, admission, chaos.

The contracts under test (ISSUE 8):

- every batch API takes ``timeout=`` and raises a typed
  :class:`QueryTimeoutError` (or returns an honest
  :class:`PartialResult` under ``on_timeout="partial"``);
- the supervised parallel engine surfaces every injected failure — worker
  hang, worker death, transient I/O storm — as the right typed error in
  every worker mode, with no leaked threads, processes, or pinned
  snapshot views, and **bit-identical** results on the retried path;
- :class:`QueryAdmissionController` sheds over-budget batches with a
  typed :class:`AdmissionError` before any work runs;
- ``NodeManager`` retries cannot outlive their wall-clock budget or an
  active query deadline;
- degenerate batches (empty / single query / more workers than queries)
  behave across all worker modes and query kinds.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time

import numpy as np
import pytest

from repro.baselines.common import LoopQueryMixin
from repro.core import HybridTree
from repro.engine import ParallelQueryEngine, QuerySession
from repro.geometry.rect import Rect
from repro.resilience import (
    AdmissionError,
    CancelToken,
    Deadline,
    PartialResult,
    QueryAdmissionController,
    QueryCancelledError,
    QueryExecutionError,
    QueryTimeoutError,
    WorkerCrashError,
    active_deadline,
    deadline_scope,
)
from repro.storage.errors import (
    PageCorruptionError,
    TransientIOError,
    TransientStorageError,
)
from repro.storage.faults import (
    FaultInjectingPageStore,
    SimulatedWorkerDeath,
    WorkerFault,
    apply_worker_fault,
)
from repro.storage.nodemanager import NodeManager
from repro.storage.pagestore import InMemoryPageStore
from repro.storage.serialization import HybridNodeCodec
from tests.conftest import ExpiresAfter

DIMS = 6
COUNT = 1500
QUERIES = 12

PROCESS_MODES = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]
ALL_MODES = ["thread"] + PROCESS_MODES


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.random((COUNT, DIMS), dtype=np.float32)


@pytest.fixture(scope="module")
def saved_path(data, tmp_path_factory):
    tree = HybridTree.bulk_load(data)
    path = tmp_path_factory.mktemp("resilience") / "tree.pages"
    tree.save(path)
    return str(path)


@pytest.fixture(scope="module")
def workload(data):
    rng = np.random.default_rng(5)
    centers = data[rng.choice(COUNT, QUERIES, replace=False)].astype(np.float64)
    return {
        "boxes": [Rect(c - 0.15, c + 0.15) for c in centers],
        "centers": centers,
        "radii": rng.uniform(0.3, 0.5, QUERIES),
    }


@pytest.fixture(scope="module")
def serial(saved_path, workload):
    tree = HybridTree.open(saved_path)
    out = {
        "range": tree.range_search_many(workload["boxes"]),
        "distance": tree.distance_range_many(
            workload["centers"], workload["radii"]
        ),
        "knn": tree.knn_many(workload["centers"], 5),
    }
    tree.close()
    return out


def run_kind(engine_or_tree, kind, workload, **kw):
    if kind == "range":
        return engine_or_tree.range_search_many(workload["boxes"], **kw)
    if kind == "distance":
        return engine_or_tree.distance_range_many(
            workload["centers"], workload["radii"], **kw
        )
    return engine_or_tree.knn_many(workload["centers"], 5, **kw)


def run_loop_kind(tree, kind, workload, **kw):
    """``run_kind`` through the measured per-query ``*_loop`` helpers."""
    if kind == "range":
        return LoopQueryMixin.range_search_loop(tree, workload["boxes"], **kw)
    if kind == "distance":
        return LoopQueryMixin.distance_range_loop(
            tree, workload["centers"], workload["radii"], **kw
        )
    return LoopQueryMixin.knn_loop(tree, workload["centers"], 5, **kw)


def charged(index) -> int:
    return index.io.random_reads + index.io.sequential_reads


def assert_no_child_procs():
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


# ======================================================================
# Deadline / CancelToken primitives
# ======================================================================
class TestDeadline:
    def test_coerce(self):
        assert Deadline.coerce(None) is None
        d = Deadline.coerce(1.5)
        assert isinstance(d, Deadline) and d.timeout == 1.5
        assert Deadline.coerce(d) is d
        token_only = Deadline.coerce(None, CancelToken())
        assert token_only is not None and token_only.timeout is None
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_expiry_raises_typed_timeout(self):
        d = Deadline(0.0)
        assert d.expired
        with pytest.raises(QueryTimeoutError) as exc:
            d.check()
        assert isinstance(exc.value, TimeoutError)
        assert isinstance(exc.value, QueryExecutionError)
        assert exc.value.timeout == 0.0
        assert exc.value.elapsed is not None and exc.value.elapsed >= 0

    def test_generous_deadline_passes(self):
        d = Deadline(60.0)
        d.check()
        assert not d.expired
        assert 0 < d.remaining() <= 60.0
        assert d.sleep_budget(1e9) <= 60.0

    def test_cancellation_wins_over_expiry(self):
        token = CancelToken()
        d = Deadline(0.0, token)
        token.cancel("supervisor said stop")
        with pytest.raises(QueryCancelledError, match="supervisor said stop"):
            d.check()

    def test_deadline_scope_is_ambient_and_nested(self):
        assert active_deadline() is None
        outer = Deadline(60.0)
        inner = Deadline(30.0)
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_scope_is_per_thread(self):
        seen = []
        with deadline_scope(Deadline(60.0)):
            t = threading.Thread(target=lambda: seen.append(active_deadline()))
            t.start()
            t.join()
        assert seen == [None]


class TestPartialResult:
    def test_quacks_like_results(self):
        pr = PartialResult([[1], [2], []], [True, True, False])
        assert len(pr) == 3
        assert pr[0] == [1]
        assert list(pr) == [[1], [2], []]
        assert not pr.complete
        assert pr.completed_queries == 2

    def test_mask_must_align(self):
        with pytest.raises(ValueError):
            PartialResult([[1]], [True, False])


# ======================================================================
# Kernel-level deadlines (object walk + SOA), all three query kinds
# ======================================================================
@pytest.mark.parametrize("engine", ["object", "soa"])
@pytest.mark.parametrize("kind", ["range", "distance", "knn"])
class TestKernelDeadlines:
    @pytest.fixture()
    def tree(self, saved_path, engine):
        t = HybridTree.open(saved_path)
        if engine == "soa":
            t.compile_snapshot()
        else:
            t.invalidate_snapshot()
        yield t
        t.close()

    def test_expired_deadline_raises(self, tree, workload, kind, engine):
        with pytest.raises(QueryTimeoutError):
            run_kind(tree, kind, workload, timeout=0)

    def test_partial_envelope_is_honest(self, tree, workload, kind, engine):
        out = run_kind(tree, kind, workload, timeout=0, on_timeout="partial")
        assert isinstance(out, PartialResult)
        assert len(out) == QUERIES
        assert not out.completed.any()  # kernel granularity: conservative
        assert isinstance(out.error, QueryTimeoutError)

    def test_partial_with_metrics_bills_honestly(self, tree, workload, kind, engine):
        reads0 = tree.io.random_reads + tree.io.sequential_reads
        out, metrics = run_kind(
            tree, kind, workload, timeout=0, on_timeout="partial",
            return_metrics=True,
        )
        assert isinstance(out, PartialResult)
        charged = (tree.io.random_reads + tree.io.sequential_reads) - reads0
        # Whatever ran before the deadline stays billed, and the metrics
        # agree with the accountant.
        assert metrics.charged_reads == charged

    @pytest.mark.parametrize("run", [run_kind, run_loop_kind], ids=["batch", "loop"])
    def test_raise_bills_what_partial_bills(self, tree, workload, kind, engine, run):
        """Stopped after its Nth deadline check, a batch (or the per-query
        loop) bills the same pages whether the caller raises or keeps the
        partial results, and the metrics agree with the accountant."""
        full = Deadline(60.0)
        run(tree, kind, workload, timeout=full)
        for limit in sorted({1, full.checks // 2, full.checks - 1}):
            reads0 = charged(tree)
            with pytest.raises(QueryTimeoutError):
                run(tree, kind, workload, timeout=ExpiresAfter(limit))
            raised = charged(tree) - reads0
            reads0 = charged(tree)
            out, metrics = run(
                tree, kind, workload, timeout=ExpiresAfter(limit),
                on_timeout="partial", return_metrics=True,
            )
            assert isinstance(out, PartialResult)
            assert raised == charged(tree) - reads0 == metrics.charged_reads, limit

    def test_ample_timeout_is_bit_identical(
        self, tree, workload, kind, engine, serial
    ):
        out = run_kind(tree, kind, workload, timeout=60.0)
        assert not isinstance(out, PartialResult)
        assert out == serial[kind]

    def test_invalid_on_timeout_rejected(self, tree, workload, kind, engine):
        with pytest.raises(ValueError, match="on_timeout"):
            run_kind(tree, kind, workload, timeout=1.0, on_timeout="explode")

    def test_cancel_token_unwinds_as_cancelled(self, tree, workload, kind, engine):
        token = CancelToken()
        token.cancel("front end went away")
        deadline = Deadline(60.0, token)
        with pytest.raises(QueryCancelledError):
            run_kind(tree, kind, workload, timeout=deadline)


def test_loop_api_partial_prefix(saved_path, workload):
    """The measured per-query loop times out at query granularity: the
    completed prefix is marked complete, the rest incomplete."""
    tree = HybridTree.open(saved_path)
    try:
        from repro.baselines.common import LoopQueryMixin

        out, metrics = LoopQueryMixin.knn_loop(
            tree, workload["centers"], 5, return_metrics=True,
            timeout=0, on_timeout="partial",
        )
        assert isinstance(out, PartialResult)
        assert not out.completed.any()
        with pytest.raises(QueryTimeoutError):
            LoopQueryMixin.range_search_loop(tree, workload["boxes"], timeout=0)
        full = LoopQueryMixin.knn_loop(tree, workload["centers"], 5, timeout=60.0)
        assert full == tree.knn_many(workload["centers"], 5)
    finally:
        tree.close()


# ======================================================================
# NodeManager retry budgets
# ======================================================================
class TestRetryBudget:
    def _nm(self, **kw):
        store = FaultInjectingPageStore(InMemoryPageStore(), seed=3)
        nm = NodeManager(store=store, codec=HybridNodeCodec(DIMS, 64), **kw)
        return nm, store

    def test_wall_clock_budget_caps_backoff(self):
        # 50 allowed retries at exponential backoff would sleep for ages;
        # the budget must cut it off fast.
        nm, store = self._nm(
            max_retries=50, retry_backoff=0.01, retry_budget=0.1
        )
        store.fail_reads(10_000)
        t0 = time.perf_counter()
        with pytest.raises(TransientStorageError):
            nm._store_read(0, charge=False)
        assert time.perf_counter() - t0 < 1.0

    def test_active_deadline_turns_retry_into_timeout(self):
        nm, store = self._nm(max_retries=50, retry_backoff=0.01)
        store.fail_reads(10_000)
        with deadline_scope(Deadline(0.05)):
            with pytest.raises(QueryTimeoutError):
                nm._store_read(0, charge=False)

    def test_recovery_within_budget_still_works(self):
        nm, store = self._nm(max_retries=4, retry_backoff=0.0)
        store.ensure_allocated(0)
        store.write(0, b"\x01" * 16, charge=False)
        store.fail_reads(2)
        assert nm._store_read(0, charge=False)[:16] == b"\x01" * 16
        assert nm.retries_performed == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            NodeManager(retry_budget=0)


# ======================================================================
# Admission control
# ======================================================================
class TestAdmission:
    def test_batch_budget(self):
        ctrl = QueryAdmissionController(max_batches=1)
        with ctrl.admit(10, DIMS):
            with pytest.raises(AdmissionError) as exc:
                ctrl.admit(1, DIMS)
            assert exc.value.reason == "batches"
        ctrl.admit(10, DIMS).release()
        snap = ctrl.snapshot()
        assert snap["in_flight_batches"] == 0
        assert snap["admitted_total"] == 2
        assert snap["rejected_total"] == 1

    def test_query_and_byte_budgets(self):
        ctrl = QueryAdmissionController(max_queries=100)
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit(101, DIMS)
        assert exc.value.reason == "queries"
        ctrl = QueryAdmissionController(max_bytes=1000, bytes_per_query_factor=1.0)
        assert ctrl.estimate_bytes(10, DIMS) == 10 * DIMS * 8
        with pytest.raises(AdmissionError) as exc:
            ctrl.admit(1000, DIMS)
        assert exc.value.reason == "bytes"

    def test_release_is_idempotent(self):
        ctrl = QueryAdmissionController(max_batches=2)
        ticket = ctrl.admit(5, DIMS)
        ticket.release()
        ticket.release()
        assert ctrl.snapshot()["in_flight_batches"] == 0

    def test_session_admission_serial_path(self, saved_path, workload, serial):
        ctrl = QueryAdmissionController(max_queries=QUERIES - 1)
        tree = HybridTree.open(saved_path)
        try:
            with tree.session(admission=ctrl) as session:
                with pytest.raises(AdmissionError):
                    session.knn_many(workload["centers"], 5)
                # A smaller batch passes, and the reservation drains.
                ok = session.knn_many(workload["centers"][:2], 5)
                assert ok == serial["knn"][:2]
            assert ctrl.snapshot()["in_flight_queries"] == 0
        finally:
            tree.close()

    def test_parallel_engine_admission(self, saved_path, workload):
        ctrl = QueryAdmissionController(max_queries=2)
        with ParallelQueryEngine(saved_path, workers=2, admission=ctrl) as eng:
            with pytest.raises(AdmissionError):
                eng.knn_many(workload["centers"], 5)
            assert ctrl.snapshot()["in_flight_queries"] == 0
            assert eng.knn_many(workload["centers"][:2], 5)


# ======================================================================
# Chaos matrix: injected worker failures × modes × query kinds
# ======================================================================
@pytest.mark.parametrize("mode", ALL_MODES)
class TestChaosMatrix:
    @pytest.fixture()
    def engine(self, saved_path, mode):
        eng = ParallelQueryEngine(saved_path, workers=2, mode=mode)
        # Warm up: spawn workers import-and-open lazily, and a cold worker
        # must not eat into the short chaos deadlines below.
        eng.knn_many(np.zeros((2, DIMS)), 1)
        yield eng
        eng.close()
        if mode != "thread":
            assert_no_child_procs()

    @pytest.mark.parametrize("kind", ["range", "distance", "knn"])
    def test_raise_fault_propagates_typed_first_error(
        self, engine, workload, serial, kind, mode
    ):
        engine.inject_faults({0: WorkerFault("raise")})
        with pytest.raises(TransientIOError) as exc:
            run_kind(engine, kind, workload)
        assert "partition 1/2" in exc.value.partition
        # The engine survives: the next (fault-free) call is bit-identical.
        assert run_kind(engine, kind, workload) == serial[kind]

    @pytest.mark.parametrize("kind", ["range", "distance", "knn"])
    def test_worker_death_recovers_bit_identically(
        self, engine, workload, serial, kind, mode
    ):
        engine.inject_faults({1: WorkerFault("die")})
        out = run_kind(engine, kind, workload)
        assert not isinstance(out, PartialResult)
        assert out == serial[kind]
        assert engine.restarts_performed >= 1

    def test_sticky_death_exhausts_retry_budget(
        self, saved_path, workload, mode
    ):
        eng = ParallelQueryEngine(saved_path, workers=2, mode=mode, worker_restarts=1)
        try:
            eng.knn_many(np.zeros((2, DIMS)), 1)  # warm up cold workers
            eng.inject_faults({0: WorkerFault("die", sticky=True)})
            with pytest.raises(WorkerCrashError) as exc:
                run_kind(eng, "knn", workload)
            assert exc.value.attempts == 2  # 1 try + 1 restart
            assert "partition 1/2" in exc.value.partition
            # Survivable: workers were respawned and keep serving.
            assert run_kind(eng, "knn", workload)
        finally:
            eng.close()
            if mode != "thread":
                assert_no_child_procs()

    def test_cooperative_hang_times_out_partially(
        self, engine, workload, serial, mode
    ):
        engine.inject_faults({0: WorkerFault("hang", seconds=30.0)})
        t0 = time.perf_counter()
        out = run_kind(
            engine, "knn", workload, timeout=0.3, on_timeout="partial"
        )
        assert time.perf_counter() - t0 < 10.0  # nowhere near the 30s hang
        assert isinstance(out, PartialResult)
        # Partition granularity: the healthy partition is complete, and its
        # answers are bit-identical to the serial slice.
        half = QUERIES // 2
        assert not out.completed[:half].any()
        assert out.completed[half:].all()
        assert out.results[half:] == serial["knn"][half:]
        assert isinstance(out.error, QueryTimeoutError)

    def test_cooperative_hang_times_out_with_raise(self, engine, workload, mode):
        engine.inject_faults({0: WorkerFault("hang", seconds=30.0)})
        with pytest.raises(QueryTimeoutError):
            run_kind(engine, "knn", workload, timeout=0.3)

    def test_raised_timeout_bills_the_finished_partition(self, engine, workload, mode):
        """The healthy partition's pages reach ``engine.io`` whether the
        caller raises or keeps the partial results."""
        engine.inject_faults({0: WorkerFault("hang", seconds=30.0)})
        reads0 = charged(engine)
        with pytest.raises(QueryTimeoutError):
            run_kind(engine, "knn", workload, timeout=0.3)
        raised = charged(engine) - reads0
        engine.inject_faults({0: WorkerFault("hang", seconds=30.0)})
        reads0 = charged(engine)
        out = run_kind(engine, "knn", workload, timeout=0.3, on_timeout="partial")
        assert isinstance(out, PartialResult)
        assert out.completed[QUERIES // 2:].all()
        assert raised == charged(engine) - reads0 > 0

    def test_noncooperative_hang_reclaimed_by_wall_guard(
        self, engine, workload, serial, mode
    ):
        engine.inject_faults(
            {0: WorkerFault("hang", seconds=1.5, cooperative=False)}
        )
        t0 = time.perf_counter()
        out = run_kind(
            engine, "knn", workload, timeout=0.2, on_timeout="partial"
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.4  # reclaimed at deadline+grace, not the full stall
        assert isinstance(out, PartialResult)
        assert out.completed[QUERIES // 2:].all()
        # Process workers were terminated+respawned; thread workers
        # abandoned.  Either way the engine keeps serving.
        if mode == "thread":
            time.sleep(1.5)  # let the abandoned worker drain before close
        assert run_kind(engine, "knn", workload) == serial["knn"]

    def test_reclaimed_hang_is_replaced_on_a_fresh_handle(
        self, engine, workload, serial, mode
    ):
        """A partition reclaimed from a non-cooperative hang gets a fresh
        worker on a fresh handle in every mode (a thread cannot be killed,
        so it is retired).  The next call runs while the stall is still
        going, and neither its answers nor its bill share anything with
        the reclaimed work."""
        _, clean = run_kind(engine, "knn", workload, return_metrics=True)
        restarts = engine.restarts_performed
        engine.inject_faults(
            {0: WorkerFault("hang", seconds=1.0, cooperative=False)}
        )
        out = run_kind(
            engine, "knn", workload, timeout=0.2, on_timeout="partial"
        )
        assert isinstance(out, PartialResult)
        assert engine.restarts_performed == restarts + 1
        reads = engine.io.random_reads
        again, metrics = run_kind(engine, "knn", workload, return_metrics=True)
        assert again == serial["knn"]
        assert metrics.charged_reads == clean.charged_reads
        assert engine.io.random_reads - reads == clean.charged_reads


@pytest.mark.parametrize("mode", ALL_MODES)
def test_no_leaked_workers_after_close(saved_path, workload, mode):
    threads0 = threading.active_count()
    eng = ParallelQueryEngine(saved_path, workers=2, mode=mode)
    eng.inject_faults({0: WorkerFault("die")})
    assert run_kind(eng, "knn", workload)
    eng.close()
    eng.close()  # idempotent
    if mode == "thread":
        deadline = time.perf_counter() + 5.0
        while threading.active_count() > threads0 and time.perf_counter() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= threads0
    else:
        assert_no_child_procs()


@pytest.mark.parametrize("mode", PROCESS_MODES)
def test_repeated_deaths_never_silence_the_sibling(saved_path, workload, serial, mode):
    """A worker that dies just after a reply must not take its sibling's
    reply channel down with it.  With one result queue shared by all
    workers, a death inside the queue's write lock blocked every later
    reply; the deadline turns such a stall into a failure, not a hang."""
    with ParallelQueryEngine(saved_path, workers=2, mode=mode) as eng:
        for _ in range(6):
            assert eng.knn_many(np.zeros((2, DIMS)), 1, timeout=20.0)
            eng.inject_faults({1: WorkerFault("die")})
            out = eng.knn_many(workload["centers"], 5, timeout=20.0)
            assert not isinstance(out, PartialResult)
            assert out == serial["knn"]
        assert eng.restarts_performed >= 6
    assert_no_child_procs()


def test_close_after_crash_terminates_wedged_pool(saved_path, workload):
    mode = PROCESS_MODES[0] if PROCESS_MODES else None
    if mode is None:
        pytest.skip("no process start methods available")
    eng = ParallelQueryEngine(saved_path, workers=2, mode=mode)
    eng.knn_many(np.zeros((2, DIMS)), 1)  # warm up cold workers
    # Leave a worker wedged in a non-cooperative stall with no deadline
    # guard racing it: close() must still return promptly.
    eng.inject_faults({0: WorkerFault("hang", seconds=30.0, cooperative=False)})
    out = eng.knn_many(workload["centers"], 5, timeout=0.2, on_timeout="partial")
    assert isinstance(out, PartialResult)
    t0 = time.perf_counter()
    eng.close()
    assert time.perf_counter() - t0 < 5.0
    assert_no_child_procs()


def test_thread_mode_snapshot_pins_released_on_failure(tmp_path, data):
    """WAL thread workers run on pinned snapshot views; a failing call and
    a close() after it must release every pin."""
    path = str(tmp_path / "wal_tree.pages")
    tree = HybridTree.bulk_load(data[:600])
    tree.save(path)
    tree.close()
    tree = HybridTree.open(path, wal=True)
    try:
        store = tree.nm.store
        centers = data[:8].astype(np.float64)
        serial = tree.knn_many(centers, 3)
        with tree.session(workers=2, mode="thread") as session:
            assert store.pinned_snapshots > 0
            session._parallel.inject_faults({0: WorkerFault("raise")})
            with pytest.raises(TransientIOError):
                session.knn_many(centers, 3)
            # Engine still serves after the failure, bit-identically.
            assert session.knn_many(centers, 3) == serial
        assert store.pinned_snapshots == 0
    finally:
        tree.close()


def _flip_page_byte(path, page_id, page_size):
    with open(path, "r+b") as f:
        f.seek(page_id * page_size + 100)
        byte = f.read(1)[0]
        f.seek(page_id * page_size + 100)
        f.write(bytes([byte ^ 0xFF]))


def _assert_unpinned(tree):
    """No page stays pinned, and a root visit is charged again."""
    assert tree.nm.pinned_nodes == 0
    before = tree.io.random_reads
    tree.nm.get(tree.root_id)
    assert tree.io.random_reads == before + 1


def test_session_that_cannot_pin_releases_its_pins(tmp_path, data):
    """A corrupt directory page met while pinning: the pages pinned before
    it are released, so later bills on the tree stay honest."""
    path = tmp_path / "tree.pages"
    HybridTree.bulk_load(data).save(path)
    tree = HybridTree.open(path)
    victim = tree.nm.get(tree.root_id, charge=False).child_ids()[1]
    _flip_page_byte(path, victim, tree.layout.page_size)
    try:
        with pytest.raises(PageCorruptionError):
            QuerySession(tree, pin_levels=2)
        _assert_unpinned(tree)
    finally:
        tree.close()


@pytest.mark.parametrize("mode", PROCESS_MODES)
def test_session_that_cannot_pin_stops_its_workers(saved_path, mode, monkeypatch):
    tree = HybridTree.open(saved_path)
    pin = tree.nm.pin
    calls = []

    def failing_pin(page_id, charge=True):
        calls.append(page_id)
        if len(calls) == 2:
            raise TransientIOError("injected pin failure")
        return pin(page_id, charge)

    monkeypatch.setattr(tree.nm, "pin", failing_pin)
    try:
        with pytest.raises(TransientIOError):
            QuerySession(tree, pin_levels=2, workers=2, mode=mode)
        assert_no_child_procs()
        _assert_unpinned(tree)
    finally:
        tree.close()


def test_engine_that_cannot_open_a_worker_closes_the_others(saved_path, monkeypatch):
    import repro.engine.parallel as parallel

    opened, closed = [], []
    real_open = parallel._open_worker_tree

    def open_worker(path, mmap):
        if len(opened) == 2:
            raise TransientIOError("injected open failure")
        tree = real_open(path, mmap)
        real_close = tree.close
        tree.close = lambda: (closed.append(tree), real_close())
        opened.append(tree)
        return tree

    monkeypatch.setattr(parallel, "_open_worker_tree", open_worker)
    with pytest.raises(TransientIOError):
        ParallelQueryEngine(saved_path, workers=3, mode="thread")
    assert len(opened) == 2 and closed == opened


def test_live_tree_thread_death_respawns_view(data):
    """Simulated thread-worker death on a live (unsaved) index source:
    the view is respawned and the retried partition is bit-identical."""
    tree = HybridTree.bulk_load(data[:600])
    centers = data[:8].astype(np.float64)
    serial = tree.knn_many(centers, 3)
    with ParallelQueryEngine(tree, workers=2, mode="thread") as eng:
        eng.inject_faults({1: WorkerFault("die")})
        assert eng.knn_many(centers, 3) == serial
        assert eng.restarts_performed == 1


# ======================================================================
# Degenerate batches: empty / single / workers > n, all modes × kinds
# ======================================================================
class TestDegenerateBatches:
    @pytest.fixture(scope="class", params=ALL_MODES)
    def engine(self, request, saved_path):
        eng = ParallelQueryEngine(saved_path, workers=4, mode=request.param)
        yield eng
        eng.close()

    @pytest.mark.parametrize("kind", ["range", "distance", "knn"])
    def test_empty_batch(self, engine, workload, kind):
        empty = {"boxes": [], "centers": np.empty((0, DIMS)), "radii": []}
        out, metrics = run_kind(engine, kind, empty, return_metrics=True)
        assert out == []
        assert metrics.charged_reads == 0

    @pytest.mark.parametrize("kind", ["range", "distance", "knn"])
    def test_single_query_batch(self, engine, workload, serial, kind):
        single = {
            "boxes": workload["boxes"][:1],
            "centers": workload["centers"][:1],
            "radii": workload["radii"][:1],
        }
        assert run_kind(engine, kind, single) == serial[kind][:1]

    @pytest.mark.parametrize("kind", ["range", "distance", "knn"])
    def test_more_workers_than_queries(self, engine, workload, serial, kind):
        small = {
            "boxes": workload["boxes"][:2],
            "centers": workload["centers"][:2],
            "radii": workload["radii"][:2],
        }
        assert run_kind(engine, kind, small) == serial[kind][:2]

    def test_empty_batch_with_timeout(self, engine, workload):
        assert engine.knn_many(np.empty((0, DIMS)), 5, timeout=60.0) == []


# ======================================================================
# Typed-error regressions
# ======================================================================
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(QueryTimeoutError, TimeoutError)
        assert issubclass(QueryTimeoutError, QueryExecutionError)
        assert issubclass(QueryCancelledError, QueryExecutionError)
        assert issubclass(WorkerCrashError, QueryExecutionError)
        assert issubclass(AdmissionError, QueryExecutionError)
        assert not issubclass(QueryExecutionError, OSError)
        assert TransientIOError is TransientStorageError

    def test_errors_survive_pickling(self):
        # Supervised process workers ship exceptions through a queue.
        e1 = QueryTimeoutError("too slow", timeout=1.0, elapsed=2.0)
        r1 = pickle.loads(pickle.dumps(e1))
        assert (r1.timeout, r1.elapsed) == (1.0, 2.0)
        e2 = WorkerCrashError("dead", partition="knn partition 1/2", attempts=3)
        r2 = pickle.loads(pickle.dumps(e2))
        assert (r2.partition, r2.attempts) == ("knn partition 1/2", 3)
        e3 = AdmissionError("no", reason="bytes")
        assert pickle.loads(pickle.dumps(e3)).reason == "bytes"

    def test_worker_fault_validation(self):
        with pytest.raises(ValueError):
            WorkerFault("explode")

    def test_simulated_death_is_base_exception(self):
        # It must sail past ``except Exception`` like a real SIGKILL.
        assert issubclass(SimulatedWorkerDeath, BaseException)
        assert not issubclass(SimulatedWorkerDeath, Exception)
        with pytest.raises(SimulatedWorkerDeath):
            apply_worker_fault(WorkerFault("die"), None, in_process=False)

    def test_cooperative_hang_obeys_deadline(self):
        t0 = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            apply_worker_fault(
                WorkerFault("hang", seconds=30.0), Deadline(0.05), in_process=False
            )
        assert time.perf_counter() - t0 < 5.0

    def test_closed_engine_refuses_queries(self, saved_path, workload):
        eng = ParallelQueryEngine(saved_path, workers=2)
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            run_kind(eng, "knn", workload)
