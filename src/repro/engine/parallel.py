"""Multi-worker parallel execution of batch queries over any index.

The shared-traversal kernel (:mod:`repro.engine.kernel`) already amortises
page fetches across a batch; this module parallelises across *workers*.  A
checked :class:`~repro.engine.query.QueryBatch` is split into ``workers``
contiguous partitions (``np.array_split`` order, ``batch.take(part)``),
each worker runs its partition through ``execute`` on its **own** read
handle, and the partition outputs are concatenated back — so the merged
result list is positionally identical to the serial call.

Worker isolation is what makes this safe without locks: nothing in the
query path is shared between workers except immutable data.

The ``source`` can be either of:

- a **saved hybrid-tree file** (``str`` / ``PathLike``): every worker opens
  its own :meth:`HybridTree.open` handle;
- a **live index object** (the hybrid tree or any baseline exposing the
  batch-query API): every worker gets a shallow *query view* of the index —
  same pages, same object cache, but a private :class:`IOStats` so the
  per-worker charges can be merged honestly.  Views never write, so
  thread-mode sharing is safe; process modes are rejected for live indexes
  because a view cannot be shipped to another process without copying the
  whole structure.

- ``mode="thread"``: each worker thread holds a private handle/view
  (private :class:`IOStats`).  Python threads interleave under the GIL;
  only the time a kernel spends inside large numpy calls, which release
  it, overlaps.  That pays for the SOA range frontier but hardly for k-NN,
  whose branch-and-bound loop is interpreter-bound: on a 2-core host
  (FOURIER 16-d, N = 100,000, SOA, batches of 256) two threads ran range
  batches at ~1.9x one worker and k-NN at ~1.0x, while two fork workers
  ran k-NN at ~1.7x — which is why the process modes stay.
- ``mode="fork"`` / ``"spawn"`` (saved-file sources only): worker
  *processes*, each reopening the tree in its main loop.  With
  ``mmap=True`` (the default) every worker maps the same file, so the OS
  page cache holds **one** copy of the data no matter how many workers run
  — resident memory does not multiply.

Supervision (the runtime failure story; see INTERNALS "Failure
semantics"):

- every batch call takes ``timeout=`` / ``on_timeout=``.  The deadline is
  shipped to every partition (thread workers share one
  :class:`~repro.resilience.Deadline` + :class:`CancelToken`; process
  workers get the remaining seconds and rebuild it), so in-worker kernels
  cut themselves off cooperatively.  A worker that blows through the
  deadline anyway (a wedged process, a non-cooperative stall) is caught by
  the parent's wall-clock guard after a short grace period and — in
  process modes — terminated and respawned.
- process workers are supervised directly (no ``Pool.map``): each worker
  is a long-lived process with a private task queue and a shared result
  queue.  A worker found dead is respawned and its partition retried up
  to ``worker_restarts`` times; exhaustion surfaces as a typed
  :class:`~repro.resilience.WorkerCrashError` naming the partition.
  Results are tagged with a per-call id, so stragglers from an abandoned
  call can never be mistaken for current answers.
- the first failing partition cancels its siblings (token in thread mode,
  terminate + respawn in process modes) and propagates with the partition
  label attached (``exc.partition``) — no leaked workers, no swallowed
  sibling exceptions.
- ``on_timeout="partial"``: finished partitions come back complete,
  interrupted ones contribute whatever they salvaged, and the merged
  :class:`~repro.resilience.PartialResult` carries an exact per-partition
  completion mask.
- an optional :class:`~repro.resilience.QueryAdmissionController` bounds
  in-flight batches before any partitioning happens.
- :meth:`close` is idempotent, and crash-safe: process workers get a
  bounded join and are terminated (then killed) if wedged; snapshot-view
  pins are released on every path.

Chaos hooks: :meth:`inject_faults` arms one-shot
:class:`~repro.storage.faults.WorkerFault` plans (hang / die / raise) that
ride with the partition tasks — the chaos test matrix drives every
supervision path through them.

Determinism contract (tested in ``tests/test_mmap_parallel.py``):

- results of ``range_search_many`` / ``distance_range_many`` /
  ``knn_many`` are **bit-identical** to the serial batch call (and hence to
  the single-query loop) for every worker count and mode — including after
  a crashed partition is retried on a respawned worker;
- per-query node-visit counts are partition-independent for range and
  distance queries (the alive-set predicates are evaluated row-wise);
  for k-NN they are not — the shared traversal orders children by the best
  bound *over the alive set*, so a query's visit attribution depends on
  its batch companions (the same caveat the serial batch engine documents
  versus the single-query loop);
- ``charged_reads`` is the sum over workers.  It exceeds the serial batch
  figure because every worker re-reads the directory levels for itself:
  parallelism buys wall time with duplicated (cheap, cached) page reads,
  and the accounting reports that honestly rather than pretending the
  batch sharing still spans partitions.  A partition abandoned to a hang
  or a crash contributes zero visits — the parent has no trustworthy
  numbers for work it discarded, and refuses to invent them.

The merged :class:`BatchMetrics` attributes the *whole-call* wall time
(including partition/merge overhead) over the concatenated visit counts,
exactly as the serial engine attributes its own wall time.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import queue as queue_mod
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np

from repro.engine.metrics import BatchMetrics
from repro.engine.query import BatchQueries, QueryBatch, check_on_timeout
from repro.resilience import (
    CancelToken,
    Deadline,
    PartialResult,
    QueryAdmissionController,
    QueryCancelledError,
    QueryTimeoutError,
    WorkerCrashError,
)
from repro.storage.faults import SimulatedWorkerDeath, WorkerFault, apply_worker_fault
from repro.storage.iostats import IOStats

__all__ = ["ParallelQueryEngine", "WORKER_MODES"]

WORKER_MODES = ("thread", "fork", "spawn")

# How long past the deadline the parent waits for a worker to cut itself
# off cooperatively before declaring it wedged and reclaiming it.
_PARTITION_GRACE = 0.25

# Poll tick for the supervision loops: result-queue waits and liveness
# checks run at this cadence.
_TICK = 0.02


def _open_worker_tree(path: str, mmap: bool):
    from repro.core.hybridtree import HybridTree

    return HybridTree.open(path, mmap=mmap)


def _index_view(index):
    """A read-only query view of a live index for one worker thread.

    Shallow copy sharing the pages and object cache, but with a private
    accountant (`IOStats`) so each worker's charges merge cleanly.  Paged
    structures route all I/O through ``index.nm`` (and expose ``io`` as a
    property of it); scan structures (seqscan, VA-file) hold ``io``
    directly.

    A WAL-enabled hybrid tree (``open(..., wal=True)``) gets a *pinned
    snapshot view* instead (:meth:`HybridTree.snapshot_view`): the worker
    keeps answering from the committed state at engine-construction time,
    bit-identically, even while a writer thread mutates the source tree
    underneath.  The engine owns these views and closes (unpins) them.
    """
    if getattr(index, "wal", None) is not None and hasattr(index, "snapshot_view"):
        return index.snapshot_view()
    view = copy.copy(index)
    nm = getattr(index, "nm", None)
    if nm is not None:
        nm_view = copy.copy(nm)
        nm_view.stats = IOStats()
        nm_view._dirty = set()
        nm_view._pinned = set()
        view.nm = nm_view
    else:
        view.io = IOStats()
    return view


def _run_partition(
    tree,
    batch: QueryBatch,
    deadline=None,
    on_timeout: str = "raise",
    fault: WorkerFault | None = None,
    in_process: bool = False,
):
    """Run one partition's sub-batch through ``tree.execute``.

    Returns ``(results, visits, charged_reads, io_delta, completed)`` —
    everything the parent needs to merge, all picklable for the process
    modes.  ``completed`` is the per-query completion mask (all-True
    unless the partition timed out under ``on_timeout="partial"``).
    """
    if fault is not None:
        apply_worker_fault(fault, deadline, in_process)
    io = tree.io
    before = (
        io.random_reads,
        io.random_writes,
        io.sequential_reads,
        io.sequential_writes,
    )
    results, metrics = tree.execute(batch, True, deadline, on_timeout)
    delta = (
        io.random_reads - before[0],
        io.random_writes - before[1],
        io.sequential_reads - before[2],
        io.sequential_writes - before[3],
    )
    if isinstance(results, PartialResult):
        completed = np.asarray(results.completed, dtype=bool)
        results = list(results.results)
    else:
        completed = np.ones(len(results), dtype=bool)
    visits = np.asarray(metrics.pages, dtype=np.int64)
    return results, visits, metrics.charged_reads, delta, completed


def _supervised_worker_main(path: str, mmap: bool, task_q, result_q) -> None:
    """Main loop of a supervised worker process.

    Opens its own tree handle once (caches stay warm across batches), then
    answers ``(call_id, partition, batch, remaining, on_timeout, fault)``
    tasks until it receives ``None``.  Every reply is tagged with
    the call id so the parent can discard stragglers from abandoned calls.
    Failures are shipped back as exception objects; only a death (or an
    injected ``os._exit``) leaves the parent without an answer, which is
    exactly the condition its liveness check exists for.
    """
    tree = _open_worker_tree(path, mmap)
    while True:
        msg = task_q.get()
        if msg is None:
            break
        call_id, part_idx, batch, remaining, on_timeout, fault = msg
        try:
            deadline = Deadline(remaining) if remaining is not None else None
            out = _run_partition(
                tree, batch, deadline, on_timeout, fault, in_process=True
            )
            result_q.put((call_id, part_idx, True, out))
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            try:
                result_q.put((call_id, part_idx, False, exc))
            except Exception:
                result_q.put(
                    (call_id, part_idx, False, RuntimeError(repr(exc)))
                )


class _ProcWorker:
    """One supervised worker process plus its private task queue."""

    __slots__ = ("proc", "task_q")

    def __init__(self, ctx, path: str, mmap: bool, result_q):
        self.task_q = ctx.Queue()
        self.proc = ctx.Process(
            target=_supervised_worker_main,
            args=(path, mmap, self.task_q, result_q),
            daemon=True,
        )
        self.proc.start()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self, join_timeout: float = 1.0) -> None:
        """Bounded shutdown: ask politely, then terminate, then kill."""
        try:
            if self.proc.is_alive():
                self.task_q.put(None)
                self.proc.join(timeout=join_timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=join_timeout)
            if self.proc.is_alive():  # pragma: no cover - last resort
                self.proc.kill()
                self.proc.join(timeout=join_timeout)
        finally:
            self.task_q.close()
            # Release the process object's pipes/sentinel eagerly.
            if not self.proc.is_alive():
                self.proc.close()

    def terminate(self) -> None:
        """Immediate reclaim of a wedged or cancelled worker."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - last resort
            self.proc.kill()
            self.proc.join(timeout=1.0)
        self.task_q.close()
        if not self.proc.is_alive():
            self.proc.close()


def _annotate(exc: BaseException, label: str) -> BaseException:
    """Attach the partition label to a propagating worker error."""
    if getattr(exc, "partition", None) is None:
        try:
            exc.partition = label
        except Exception:  # pragma: no cover - exotic exception slots
            pass
    return exc


class ParallelQueryEngine:
    """Partition query batches across ``workers`` read handles on an index.

    Parameters
    ----------
    source:
        Either a tree file produced by :meth:`HybridTree.save` (every
        worker opens its own handle; ``QuerySession(workers=...)`` wires
        one up from ``tree.source_path``), or a **live index object** —
        the hybrid tree or any baseline exposing the batch-query API —
        in which case every worker queries a read-only view of it
        (thread mode only).
    workers:
        Number of partitions / concurrent handles (>= 1).
    mode:
        ``"thread"`` (default), ``"fork"`` or ``"spawn"`` — see the module
        docstring.  ``"fork"`` is unavailable on platforms without it;
        only ``"thread"`` works with a live index source.
    mmap:
        Reopen handles with ``HybridTree.open(mmap=True)`` (zero-copy
        reads, one shared OS page-cache copy).  Default True; the file
        pays one fsck per handle at open.  Ignored for live sources.
    stats:
        Merged accountant; every worker's I/O delta is added to it after
        each call, so ``engine.io`` totals match what the workers charged.
    admission:
        Optional :class:`~repro.resilience.QueryAdmissionController`; each
        batch call reserves capacity before partitioning and releases it
        on every exit path.
    worker_restarts:
        How many times a partition lost to a dead worker is retried on a
        respawned worker before :class:`WorkerCrashError` (process modes;
        thread mode applies the same budget to simulated deaths).
    """

    def __init__(
        self,
        source,
        workers: int = 2,
        mode: str = "thread",
        mmap: bool = True,
        stats: IOStats | None = None,
        admission: QueryAdmissionController | None = None,
        worker_restarts: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}")
        if mode != "thread" and mode not in multiprocessing.get_all_start_methods():
            raise ValueError(f"start method {mode!r} unavailable on this platform")
        if worker_restarts < 0:
            raise ValueError("worker_restarts must be >= 0")
        self.workers = workers
        self.mode = mode
        self.mmap = mmap
        self.io = stats if stats is not None else IOStats()
        self.admission = admission
        self.worker_restarts = worker_restarts
        self.restarts_performed = 0
        self._closed = False
        self._abandoned_threads = 0
        self._pending_faults: dict[int, WorkerFault] = {}
        self._call_counter = 0
        self._trees: list = []
        self._procs: list[_ProcWorker] = []
        self._source = None
        self._pool = None
        self._ctx = None
        self._result_q = None
        if isinstance(source, (str, os.PathLike)):
            from repro.storage import superblock as superblock_io

            self.path = os.fspath(source)
            self._owns_trees = True
            manifest, _ = superblock_io.read_superblock(self.path)
            self.dims = int(manifest["dims"])
            if mode == "thread":
                self._trees = [
                    _open_worker_tree(self.path, mmap) for _ in range(workers)
                ]
            else:
                self._ctx = multiprocessing.get_context(mode)
                self._result_q = self._ctx.Queue()
                self._procs = [
                    _ProcWorker(self._ctx, self.path, mmap, self._result_q)
                    for _ in range(workers)
                ]
        else:
            if mode != "thread":
                raise ValueError(
                    "a live index can only be parallelised with mode='thread'; "
                    "process workers need a saved tree file to reopen"
                )
            self.path = None
            self._owns_trees = False
            self._source = source
            self.dims = int(source.dims)
            self._trees = [_index_view(source) for _ in range(workers)]
        if mode == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-query"
            )

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def inject_faults(self, faults) -> None:
        """Arm one-shot :class:`WorkerFault` plans for the *next* batch call.

        ``faults`` maps partition index → fault (or is a sequence aligned
        with partition order; ``None`` entries mean no fault).  The plans
        ride with the partition tasks, so they exercise the real
        supervision paths — in-worker timeouts, parent-side hang
        reclamation, death/respawn/retry — rather than test-only seams.
        """
        if not isinstance(faults, dict):
            faults = {
                i: f for i, f in enumerate(faults) if f is not None
            }
        for fault in faults.values():
            if not isinstance(fault, WorkerFault):
                raise TypeError("faults must be WorkerFault instances")
        self._pending_faults = dict(faults)

    def _take_faults(self) -> dict[int, WorkerFault]:
        faults, self._pending_faults = self._pending_faults, {}
        return faults

    # ------------------------------------------------------------------
    # Worker lifecycle helpers
    # ------------------------------------------------------------------
    def _close_view(self, tree) -> None:
        """Close a worker handle/view if (and only if) the engine owns it."""
        if self._owns_trees:
            tree.close()
            return
        # Live-index views share the source's store: never close it.
        # Pinned snapshot views are the exception — closing them releases
        # the page versions the pin kept alive without touching the
        # shared store.
        from repro.storage.pagestore import SnapshotPageStore

        store = getattr(getattr(tree, "nm", None), "store", None)
        if isinstance(store, SnapshotPageStore):
            tree.close()

    def _respawn_thread_view(self, i: int) -> None:
        """Replace a thread worker's handle after a (simulated) death."""
        self._close_view(self._trees[i])
        if self._owns_trees:
            self._trees[i] = _open_worker_tree(self.path, self.mmap)
        else:
            self._trees[i] = _index_view(self._source)
        self.restarts_performed += 1

    def _respawn_proc(self, i: int, terminate: bool) -> None:
        """Reclaim process worker ``i`` and start a fresh one.

        A fresh task queue comes with the fresh process, so a task the
        dead worker never consumed cannot be replayed by its successor.
        """
        worker = self._procs[i]
        if terminate:
            worker.terminate()
        else:
            # Already dead; just reap the process object.
            worker.proc.join(timeout=0.1)
            worker.task_q.close()
            if not worker.proc.is_alive():
                worker.proc.close()
        self._procs[i] = _ProcWorker(self._ctx, self.path, self.mmap, self._result_q)
        self.restarts_performed += 1

    # ------------------------------------------------------------------
    # Dispatch / merge
    # ------------------------------------------------------------------
    def _label(self, kind: str, i: int, total: int) -> str:
        return f"{kind} partition {i + 1}/{total}"

    def _dispatch_thread(self, tasks, deadline, on_timeout):
        """Supervised thread-mode dispatch.

        Returns ``(outs, timeout_err)``: ``outs[i]`` is the partition
        tuple or ``None`` for a partition abandoned to the deadline;
        ``timeout_err`` is the error explaining any ``None``.  First
        failing partition cancels the siblings (shared token) and
        propagates annotated; simulated worker deaths are retried on a
        respawned view within the restart budget.
        """
        total = len(tasks)
        outs = [None] * total
        attempts = [1] * total
        first_err: BaseException | None = None
        timeout_err: QueryTimeoutError | None = None

        def submit(i):
            batch, fault = tasks[i]
            return self._pool.submit(
                _run_partition, self._trees[i], batch, deadline, on_timeout, fault
            )

        futures = {submit(i): i for i in range(total)}
        pending = dict(futures)
        abandon_at = None
        if deadline is not None and deadline.timeout is not None:
            abandon_at = deadline.expires_at + _PARTITION_GRACE
        while pending:
            done, _ = wait(list(pending), timeout=_TICK, return_when=FIRST_COMPLETED)
            for fut in done:
                i = pending.pop(fut)
                batch, fault = tasks[i]
                kind = batch.kind
                try:
                    outs[i] = fut.result()
                except SimulatedWorkerDeath:
                    if attempts[i] > self.worker_restarts:
                        first_err = first_err or _annotate(
                            WorkerCrashError(
                                f"worker for {self._label(kind, i, total)} died "
                                f"{attempts[i]} times; retry budget exhausted",
                                partition=self._label(kind, i, total),
                                attempts=attempts[i],
                            ),
                            self._label(kind, i, total),
                        )
                        continue
                    attempts[i] += 1
                    self._respawn_thread_view(i)
                    if fault is not None and not fault.sticky:
                        tasks[i] = (batch, None)
                    fut2 = submit(i)
                    pending[fut2] = i
                except QueryCancelledError:
                    # Unwound by the sibling-cancel below; the first error
                    # is already captured.
                    pass
                except QueryTimeoutError as exc:
                    if on_timeout == "partial":
                        # Kernels return partial envelopes themselves; a
                        # raise here means a pre-kernel stage (admission
                        # of the partition, a fault) hit the deadline.
                        timeout_err = timeout_err or exc
                    else:
                        first_err = first_err or _annotate(
                            exc, self._label(kind, i, total)
                        )
                except Exception as exc:
                    first_err = first_err or _annotate(
                        exc, self._label(kind, i, total)
                    )
            if first_err is not None and pending:
                # Cancel the siblings: queued futures are dropped, running
                # ones observe the token at their next deadline check.
                if deadline is not None and deadline.token is not None:
                    deadline.token.cancel("sibling partition failed")
                for fut in list(pending):
                    fut.cancel()
                # Bounded drain — cooperative workers unwind promptly; a
                # truly wedged thread is abandoned to the executor.
                drain_until = time.perf_counter() + max(_PARTITION_GRACE, 0.5)
                while pending and time.perf_counter() < drain_until:
                    done, _ = wait(
                        list(pending), timeout=_TICK, return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        pending.pop(fut)
                self._abandoned_threads += len(pending)
                pending.clear()
                break
            if abandon_at is not None and pending and time.perf_counter() > abandon_at:
                # Wedged workers: past deadline + grace they are not going
                # to cut themselves off.  Threads cannot be killed, so
                # abandon their futures (daemonless pool threads finish in
                # the background and their results are discarded).
                timeout_err = timeout_err or QueryTimeoutError(
                    f"deadline of {deadline.timeout:.6g}s exceeded; "
                    f"{len(pending)} partition(s) abandoned past the "
                    f"{_PARTITION_GRACE:.2g}s grace period",
                    timeout=deadline.timeout,
                    elapsed=deadline.elapsed(),
                )
                for fut in list(pending):
                    fut.cancel()
                self._abandoned_threads += len(pending)
                pending.clear()
        if first_err is not None:
            raise first_err
        if timeout_err is not None and on_timeout != "partial":
            raise timeout_err
        return outs, timeout_err

    def _dispatch_proc(self, tasks, deadline, on_timeout):
        """Supervised process-mode dispatch (fork/spawn).

        Same contract as :meth:`_dispatch_thread`.  Liveness is polled on
        every result-queue tick: a dead worker is respawned and its
        partition retried within the restart budget; a worker still
        running past deadline + grace is terminated and — under
        ``"partial"`` — its partition reported incomplete.
        """
        total = len(tasks)
        self._call_counter += 1
        call_id = self._call_counter
        outs = [None] * total
        attempts = [1] * total
        timeout_err: QueryTimeoutError | None = None

        def send(i):
            batch, fault = tasks[i]
            if not self._procs[i].alive():
                # Died while idle (or failed to initialise): give the
                # partition a live worker before dispatching to it.
                self._respawn_proc(i, terminate=False)
            remaining = None
            if deadline is not None and deadline.timeout is not None:
                remaining = deadline.remaining()
            self._procs[i].task_q.put(
                (call_id, i, batch, remaining, on_timeout, fault)
            )

        for i in range(total):
            send(i)
        pending = set(range(total))
        abandon_at = None
        if deadline is not None and deadline.timeout is not None:
            abandon_at = deadline.expires_at + _PARTITION_GRACE

        def fail_siblings(exc):
            """First-error propagation: reclaim every sibling partition's
            worker (its in-flight work is discarded) and raise."""
            for j in pending:
                self._respawn_proc(j, terminate=True)
            pending.clear()
            raise exc

        while pending:
            try:
                msg = self._result_q.get(timeout=_TICK)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                msg_call, i, ok, val = msg
                if msg_call != call_id or i not in pending:
                    continue  # straggler from an abandoned call
                kind = tasks[i][0].kind
                if ok:
                    pending.discard(i)
                    outs[i] = val
                elif isinstance(val, QueryTimeoutError) and on_timeout == "partial":
                    pending.discard(i)
                    timeout_err = timeout_err or val
                else:
                    pending.discard(i)
                    fail_siblings(_annotate(val, self._label(kind, i, total)))
                continue
            # No result this tick: check for dead workers ...
            for i in sorted(pending):
                if self._procs[i].alive():
                    continue
                batch, fault = tasks[i]
                kind = batch.kind
                self._respawn_proc(i, terminate=False)
                if attempts[i] > self.worker_restarts:
                    pending.discard(i)
                    fail_siblings(
                        _annotate(
                            WorkerCrashError(
                                f"worker for {self._label(kind, i, total)} died "
                                f"{attempts[i]} times; retry budget exhausted",
                                partition=self._label(kind, i, total),
                                attempts=attempts[i],
                            ),
                            self._label(kind, i, total),
                        )
                    )
                attempts[i] += 1
                if fault is not None and not fault.sticky:
                    tasks[i] = (batch, None)
                send(i)
            # ... and for wedged ones past the wall-clock guard.
            if abandon_at is not None and pending and time.perf_counter() > abandon_at:
                timeout_err = timeout_err or QueryTimeoutError(
                    f"deadline of {deadline.timeout:.6g}s exceeded; "
                    f"{len(pending)} partition(s) terminated past the "
                    f"{_PARTITION_GRACE:.2g}s grace period",
                    timeout=deadline.timeout,
                    elapsed=deadline.elapsed(),
                )
                for i in list(pending):
                    self._respawn_proc(i, terminate=True)
                pending.clear()
        if timeout_err is not None and on_timeout != "partial":
            raise timeout_err
        return outs, timeout_err

    def execute(
        self, batch: QueryBatch, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        """Run a checked :class:`QueryBatch` across the workers.

        The batch is cut into contiguous partitions (``batch.take``), each
        worker runs its partition through its handle's own ``execute``, and
        the outputs are concatenated back in input order.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        check_on_timeout(on_timeout)
        start = time.perf_counter()
        token = CancelToken()
        deadline = Deadline.coerce(timeout, token)
        faults = self._take_faults()
        tasks = [
            (batch.take(part), faults.get(i))
            for i, part in enumerate(self._partitions(len(batch)))
        ]
        ticket = (
            self.admission.admit(len(batch), self.dims)
            if self.admission is not None
            else None
        )
        try:
            if not tasks:
                outs, timeout_err = [], None
            elif self.mode == "thread":
                outs, timeout_err = self._dispatch_thread(tasks, deadline, on_timeout)
            else:
                outs, timeout_err = self._dispatch_proc(tasks, deadline, on_timeout)
        finally:
            if ticket is not None:
                ticket.release()
        results: list = []
        completed_parts: list[np.ndarray] = []
        visit_parts: list[np.ndarray] = []
        charged = 0
        for i, part in enumerate(outs):
            if part is None:
                # Abandoned/terminated partition: placeholders, honest
                # all-incomplete mask, zero visits (the worker's numbers
                # died with it).
                pn = len(tasks[i][0])
                results.extend([] for _ in range(pn))
                completed_parts.append(np.zeros(pn, dtype=bool))
                visit_parts.append(np.zeros(pn, dtype=np.int64))
                continue
            res, vis, chg, delta, comp = part
            results.extend(res)
            visit_parts.append(np.asarray(vis, dtype=np.int64))
            completed_parts.append(np.asarray(comp, dtype=bool))
            charged += chg
            dr, dw, sr, sw = delta
            self.io.random_reads += dr
            self.io.random_writes += dw
            self.io.sequential_reads += sr
            self.io.sequential_writes += sw
        visits = (
            np.concatenate(visit_parts) if visit_parts else np.empty(0, dtype=np.int64)
        )
        completed = (
            np.concatenate(completed_parts)
            if completed_parts
            else np.ones(0, dtype=bool)
        )
        if timeout_err is not None or not completed.all():
            err = timeout_err or QueryTimeoutError(
                "partition(s) interrupted by the deadline",
                timeout=deadline.timeout if deadline is not None else None,
            )
            results = PartialResult(results, completed, err)
        if not return_metrics:
            return results
        metrics = BatchMetrics.from_batch_run(
            label=f"{batch.label}[{self.workers}x{self.mode}]",
            node_visits=visits,
            charged_reads=charged,
            wall_seconds=time.perf_counter() - start,
        )
        return results, metrics

    def _partitions(self, n: int) -> list[np.ndarray]:
        """Contiguous index partitions: concatenation restores input order."""
        parts = min(self.workers, n) if n else 0
        return [p for p in np.array_split(np.arange(n), parts)] if parts else []

    # The per-kind helpers, as this class's own attributes.
    range_search_many = BatchQueries.range_search_many
    distance_range_many = BatchQueries.distance_range_many
    knn_many = BatchQueries.knn_many

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the engine down; safe to call twice, safe after crashes.

        Thread mode: the executor is drained (without waiting for
        abandoned wedged workers) and every owned handle / pinned snapshot
        view is closed.  Process modes: each worker gets a polite stop
        with a bounded join, then termination — a wedged pool can never
        hang ``close()``.
        """
        if self._closed:
            return
        self._closed = True
        if self.mode == "thread":
            # Abandoned (wedged) workers must not block shutdown; healthy
            # engines drain normally so view closure below is safe.
            self._pool.shutdown(
                wait=self._abandoned_threads == 0, cancel_futures=True
            )
            trees, self._trees = self._trees, []
            for tree in trees:
                self._close_view(tree)
        else:
            procs, self._procs = self._procs, []
            for worker in procs:
                worker.stop()
            if self._result_q is not None:
                self._result_q.close()
                self._result_q = None

    def __enter__(self) -> "ParallelQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
