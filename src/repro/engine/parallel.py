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

One worker model, two transports.  Every worker is long-lived, owns one
handle, reads its own task queue and runs one task loop
(:func:`_supervised_worker_main`), tagging each reply with the call id;
``mode`` only picks what carries a worker:

- ``mode="thread"``: a thread on a handle the engine opens for it.  It
  shares the call's :class:`~repro.resilience.Deadline` and
  :class:`CancelToken`, and replies on one queue shared by all threads (a
  thread only ever ends by leaving its loop, never inside a ``put``).
  Python threads interleave under the GIL; only the time a kernel spends
  inside large numpy calls, which release it, overlaps.  That pays most
  for the SOA range frontier and less for k-NN, whose per-query
  best-first rounds spend more of their time in the interpreter: on a
  2-core host (FOURIER 16-d, N = 100,000, SOA, batches of 256) two
  threads ran range batches at ~1.9x one worker and k-NN at ~1.4x, while
  two fork workers ran k-NN at ~1.7x — which is why the process modes
  stay.
- ``mode="fork"`` / ``"spawn"`` (saved-file sources only): a process that
  opens its handle in its main loop, gets the seconds left of the
  deadline and replies on a private pipe.  Nothing a process writes to
  is shared with a sibling, so one killed mid-write can only break its
  own channel, which is replaced with it — a shared
  ``multiprocessing.Queue`` would keep the dead writer's lock held and
  silence every other worker for good.  With ``mmap=True`` (the default)
  every worker maps the same file, so the OS page cache holds **one**
  copy of the data no matter how many workers run — resident memory does
  not multiply.

Supervision (the runtime failure story; see INTERNALS "Failure
semantics") is one loop, :meth:`ParallelQueryEngine._dispatch`, for both
transports:

- every batch call takes ``timeout=`` / ``on_timeout=``, and in-worker
  kernels cut themselves off cooperatively at the deadline, replying
  with what they finished.  A worker
  that blows through it anyway (a wedged process, a non-cooperative
  stall) is reclaimed by the parent's wall-clock guard after a short
  grace period: a process is terminated, a thread — which cannot be
  killed — is retired (it ends after its current task, whose reply is
  discarded) and replaced on a fresh handle, so no two threads ever share
  one.  Either way it counts in ``restarts_performed``.
- a worker found dead (an exited process, or a thread ended by
  :class:`~repro.storage.faults.SimulatedWorkerDeath`) is respawned and
  its partition retried up to ``worker_restarts`` times; exhaustion
  surfaces as a typed :class:`~repro.resilience.WorkerCrashError` naming
  the partition.  Replies carry the call id, so stragglers from an
  abandoned call can never be mistaken for current answers.
- the first failing partition cancels the call's token, reclaims its
  siblings and propagates with the partition label attached
  (``exc.partition``) — no leaked workers, no swallowed sibling
  exceptions.
- a deadline never fails a partition: finished partitions come back
  complete, interrupted ones contribute whatever they salvaged, and
  :meth:`ParallelQueryEngine.execute` merges every partition's results
  and bill before it applies ``on_timeout`` once — ``"partial"`` returns
  the merged :class:`~repro.resilience.PartialResult`, with an exact
  per-partition completion mask, and ``"raise"`` raises its error with
  the same pages billed to ``engine.io``.
- an optional :class:`~repro.resilience.QueryAdmissionController` bounds
  in-flight batches before any partitioning happens.
- :meth:`close` is idempotent and crash-safe: every worker gets a bounded
  join, a process still running is then terminated (then killed), and
  each thread closes its own handle or snapshot view as it ends.

Chaos hooks: :meth:`inject_faults` arms one-shot
:class:`~repro.storage.faults.WorkerFault` plans (hang / die / raise) that
ride with the partition tasks — the chaos test matrix drives every
supervision path through them.

Determinism contract (tested in ``tests/test_mmap_parallel.py``):

- results of ``range_search_many`` / ``distance_range_many`` /
  ``knn_many`` are **bit-identical** to the serial batch call (and hence to
  the single-query loop) for every worker count and mode — including after
  a crashed partition is retried on a respawned worker;
- per-query node-visit counts are partition-independent for every kind:
  range and distance because the alive-set predicates are evaluated
  row-wise, k-NN because every query runs its own best-first search
  (:mod:`repro.engine.bestfirst`), which pops what the single-query
  ``knn``'s heap pops whatever batch companions it has;
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
import queue
import threading
import time
from functools import partial
from multiprocessing.connection import wait as wait_ready

import numpy as np

from repro.engine.metrics import BatchMetrics
from repro.engine.query import BatchQueries, QueryBatch, check_on_timeout
from repro.resilience import (
    CancelToken,
    Deadline,
    PartialResult,
    QueryAdmissionController,
    QueryTimeoutError,
    WorkerCrashError,
    apply_on_timeout,
)
from repro.storage.faults import SimulatedWorkerDeath, WorkerFault, apply_worker_fault
from repro.storage.iostats import IOStats

__all__ = ["ParallelQueryEngine", "WORKER_MODES"]

WORKER_MODES = ("thread", "fork", "spawn")

# How long past the deadline the parent waits for a worker to cut itself
# off cooperatively before declaring it wedged and reclaiming it.
_PARTITION_GRACE = 0.25

# Poll tick of the supervision loop: reply waits and liveness checks run
# at this cadence.
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
    underneath.  The worker closes (unpins) it when it ends.
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


def _release_handle(tree, owned: bool) -> None:
    """Close a thread worker's handle if the engine opened it.

    A view of a live index shares the source's store and stays open; a
    pinned snapshot view is the exception — closing it releases the page
    versions the pin kept alive without touching the shared store.
    """
    from repro.storage.pagestore import SnapshotPageStore

    store = getattr(getattr(tree, "nm", None), "store", None)
    if owned or isinstance(store, SnapshotPageStore):
        tree.close()


def _run_partition(
    tree,
    batch: QueryBatch,
    deadline=None,
    fault: WorkerFault | None = None,
    in_process: bool = False,
):
    """Run one partition's sub-batch through ``tree.execute``.

    Returns ``(results, visits, charged_reads, io_delta)`` — everything the
    parent needs to merge, all picklable for the process modes.  A
    partition the deadline stopped returns what it finished: ``results``
    is then a :class:`PartialResult`, whose completion mask and error the
    parent merges.
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
    # What the partition finished comes back either way; the parent
    # applies the caller's on_timeout once every partition is merged.
    results, metrics = tree.execute(batch, True, deadline, "partial")
    delta = (
        io.random_reads - before[0],
        io.random_writes - before[1],
        io.sequential_reads - before[2],
        io.sequential_writes - before[3],
    )
    visits = np.asarray(metrics.pages, dtype=np.int64)
    return results, visits, metrics.charged_reads, delta


def _supervised_worker_main(tree, task_q, reply, release, in_process=False) -> None:
    """The task loop of every supervised worker, thread or process.

    Answers ``(call_id, partition, batch, deadline, fault)`` tasks on
    ``tree`` until it reads ``None``, then calls ``release()``.
    ``deadline`` is the call's shared :class:`Deadline` for a thread and
    the seconds left (or ``None``) for a process, which rebuilds it.
    Every reply is tagged with the call id so the parent can discard
    stragglers from abandoned calls; failures go back as exception
    objects.  Only a death leaves the parent without an answer — an
    injected ``os._exit`` in a process, or a thread leaving the loop on
    :class:`SimulatedWorkerDeath` — which is exactly the condition its
    liveness check exists for.  A process replies synchronously on its
    own pipe (``send`` pickles before it writes), so no reply is left
    half-sent by a background thread.
    """
    try:
        while (task := task_q.get()) is not None:
            call_id, part_idx, batch, deadline, fault = task
            try:
                out = _run_partition(
                    tree, batch, Deadline.coerce(deadline), fault, in_process
                )
                reply((call_id, part_idx, True, out))
            except SimulatedWorkerDeath:
                return
            except BaseException as exc:  # noqa: BLE001 - transported to parent
                try:
                    reply((call_id, part_idx, False, exc))
                except Exception:
                    reply((call_id, part_idx, False, RuntimeError(repr(exc))))
    finally:
        release()


def _process_worker_main(path: str, mmap: bool, task_q, result_conn) -> None:
    """Entry point of a worker process: open a handle once (caches stay
    warm across batches) and serve it."""
    tree = _open_worker_tree(path, mmap)
    _supervised_worker_main(tree, task_q, result_conn.send, tree.close, True)


class _ThreadWorker:
    """One supervised worker thread on a handle the engine opened for it."""

    __slots__ = ("thread", "task_q")

    def __init__(self, tree, owned: bool, replies):
        self.task_q = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=_supervised_worker_main,
            args=(tree, self.task_q, replies.put, partial(_release_handle, tree, owned)),
            name="repro-query",
            daemon=True,
        )
        self.thread.start()

    def alive(self) -> bool:
        return self.thread.is_alive()

    def send(self, call_id, part_idx, batch, fault, deadline) -> None:
        self.task_q.put((call_id, part_idx, batch, deadline, fault))

    def stop(self, join_timeout: float = 1.0) -> None:
        """Ask the thread to end after its current task; bounded join."""
        self.task_q.put(None)
        self.thread.join(timeout=join_timeout)

    def reclaim(self) -> bool:
        """Retire a busy thread: it cannot be killed, so it ends after its
        current task and releases its own handle.  True: it lingers."""
        self.task_q.put(None)
        return True


class _ProcWorker:
    """One supervised worker process, its task queue and its result pipe."""

    __slots__ = ("proc", "task_q", "results")

    def __init__(self, ctx, path: str, mmap: bool):
        self.task_q = ctx.Queue()
        self.results, writer = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_process_worker_main,
            args=(path, mmap, self.task_q, writer),
            daemon=True,
        )
        self.proc.start()
        # The worker holds the only write end: its exit reads as EOF here.
        writer.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, call_id, part_idx, batch, fault, deadline) -> None:
        # A token cannot cross processes: ship the seconds left instead.
        remaining = None if deadline.timeout is None else deadline.remaining()
        self.task_q.put((call_id, part_idx, batch, remaining, fault))

    def _release(self) -> None:
        """Drop the channels.  A task the worker never read is discarded
        rather than left for the queue's feeder thread to flush at exit."""
        self.task_q.cancel_join_thread()
        self.task_q.close()
        self.results.close()
        # Release the process object's pipes/sentinel eagerly.
        if not self.proc.is_alive():
            self.proc.close()

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
            self._release()

    def reclaim(self) -> bool:
        """Terminate a busy (wedged or cancelled) worker now.  False: it is
        gone."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - last resort
            self.proc.kill()
            self.proc.join(timeout=1.0)
        self._release()
        return False


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
        respawned worker before :class:`WorkerCrashError` (a thread dies
        by :class:`SimulatedWorkerDeath`).
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
        self._pending_faults: dict[int, WorkerFault] = {}
        self._call_counter = 0
        self._workers: list = []
        # Retired threads still finishing a reclaimed task; close() joins them.
        self._retired: list[_ThreadWorker] = []
        if isinstance(source, (str, os.PathLike)):
            from repro.storage import superblock as superblock_io

            self.path = os.fspath(source)
            self._source = None
            manifest, _ = superblock_io.read_superblock(self.path)
            self.dims = int(manifest["dims"])
        else:
            if mode != "thread":
                raise ValueError(
                    "a live index can only be parallelised with mode='thread'; "
                    "process workers need a saved tree file to reopen"
                )
            self.path = None
            self._source = source
            self.dims = int(source.dims)
        self._replies = queue.SimpleQueue() if mode == "thread" else None
        self._ctx = None if mode == "thread" else multiprocessing.get_context(mode)
        try:
            for _ in range(workers):
                self._workers.append(self._spawn())
        except BaseException:
            self.close()  # close the workers that did start
            raise

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
    def _spawn(self):
        """A fresh worker on a fresh handle.  Thread handles are opened
        here, in the caller; a process opens its own."""
        if self._ctx is not None:
            return _ProcWorker(self._ctx, self.path, self.mmap)
        if self._source is None:
            return _ThreadWorker(
                _open_worker_tree(self.path, self.mmap), True, self._replies
            )
        return _ThreadWorker(_index_view(self._source), False, self._replies)

    def _respawn(self, i: int, busy: bool) -> None:
        """Replace worker ``i``: stop it if it is dead or idle, reclaim it
        if it is ``busy`` (wedged, or working for a failed call)."""
        worker = self._workers[i]
        if not busy:
            worker.stop()
        elif worker.reclaim():
            self._retired = [w for w in self._retired if w.alive()] + [worker]
        self._workers[i] = self._spawn()
        self.restarts_performed += 1

    # ------------------------------------------------------------------
    # Dispatch / merge
    # ------------------------------------------------------------------
    def _receive(self, pending) -> list:
        """The replies ``(call_id, partition, ok, value)`` that arrive
        within one tick."""
        if self._replies is not None:
            try:
                return [self._replies.get(timeout=_TICK)]
            except queue.Empty:
                return []
        replies = []
        conns = {self._workers[i].results: i for i in pending}
        for conn in wait_ready(list(conns), timeout=_TICK):
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                # The worker exited: let the liveness check reap it.
                self._workers[conns[conn]].proc.join(timeout=_TICK)
        return replies

    def _dispatch(self, tasks, deadline):
        """Run every ``(sub-batch, fault)`` task on its worker, supervised.

        Returns ``(outs, timeout_err)``: ``outs[i]`` is the partition
        tuple or ``None`` for a partition abandoned to the deadline;
        ``timeout_err`` is the error explaining any ``None``.  Liveness is
        checked on every tick: a dead worker is respawned and its
        partition retried within the restart budget; a worker that
        replies with a :class:`QueryTimeoutError`, or is still busy past
        deadline + grace (and is reclaimed), leaves its partition
        incomplete.  Any other failure propagates at once.
        """
        total = len(tasks)
        self._call_counter += 1
        call_id = self._call_counter
        outs = [None] * total
        attempts = [1] * total
        timeout_err: QueryTimeoutError | None = None
        pending = set(range(total))

        def label(i):
            return f"{tasks[i][0].kind} partition {i + 1}/{total}"

        def send(i):
            if not self._workers[i].alive():
                # Died while idle (or failed to initialise): give the
                # partition a live worker before dispatching to it.
                self._respawn(i, busy=False)
            batch, fault = tasks[i]
            self._workers[i].send(call_id, i, batch, fault, deadline)

        def fail(i, exc):
            """First-error propagation: cancel the call, reclaim every
            sibling still working (its work is discarded) and raise."""
            pending.discard(i)
            if deadline.token is not None:
                deadline.token.cancel("sibling partition failed")
            for j in sorted(pending):
                self._respawn(j, busy=True)
            raise _annotate(exc, label(i))

        for i in range(total):
            send(i)
        abandon_at = None
        if deadline.timeout is not None:
            abandon_at = deadline.expires_at + _PARTITION_GRACE
        while pending:
            for msg_call, i, ok, val in self._receive(pending):
                if msg_call != call_id or i not in pending:
                    continue  # straggler from an abandoned call
                pending.discard(i)
                if ok:
                    outs[i] = val
                elif isinstance(val, QueryTimeoutError):
                    timeout_err = timeout_err or val
                else:
                    fail(i, val)
            # Check for dead workers ...
            for i in sorted(pending):
                if self._workers[i].alive():
                    continue
                self._respawn(i, busy=False)
                if attempts[i] > self.worker_restarts:
                    fail(i, WorkerCrashError(
                        f"worker for {label(i)} died {attempts[i]} times; "
                        "retry budget exhausted",
                        partition=label(i),
                        attempts=attempts[i],
                    ))
                attempts[i] += 1
                batch, fault = tasks[i]
                if fault is not None and not fault.sticky:
                    tasks[i] = (batch, None)
                send(i)
            # ... and for wedged ones past the wall-clock guard.
            if abandon_at is not None and pending and time.perf_counter() > abandon_at:
                timeout_err = timeout_err or QueryTimeoutError(
                    f"deadline of {deadline.timeout:.6g}s exceeded; "
                    f"{len(pending)} partition(s) reclaimed past the "
                    f"{_PARTITION_GRACE:.2g}s grace period",
                    timeout=deadline.timeout,
                    elapsed=deadline.elapsed(),
                )
                for i in sorted(pending):
                    self._respawn(i, busy=True)
                pending.clear()
        return outs, timeout_err

    def execute(
        self, batch: QueryBatch, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        """Run a checked :class:`QueryBatch` across the workers.

        The batch is cut into contiguous partitions (``batch.take``), each
        worker runs its partition through its handle's own ``execute``, and
        the outputs are concatenated back in input order.  Every finished
        partition's pages are added to ``self.io`` before ``on_timeout`` is
        applied, so a raised timeout bills what a partial one does.
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
            outs, timeout_err = self._dispatch(tasks, deadline) if tasks else ([], None)
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
            res, vis, chg, delta = part
            if isinstance(res, PartialResult):
                timeout_err = timeout_err or res.error
                completed_parts.append(res.completed)
                res = res.results
            else:
                completed_parts.append(np.ones(len(res), dtype=bool))
            results.extend(res)
            visit_parts.append(np.asarray(vis, dtype=np.int64))
            charged += chg
            dr, dw, sr, sw = delta
            self.io.random_reads += dr
            self.io.random_writes += dw
            self.io.sequential_reads += sr
            self.io.sequential_writes += sw
        visits = (
            np.concatenate(visit_parts) if visit_parts else np.empty(0, dtype=np.int64)
        )
        if timeout_err is not None:
            results = PartialResult(results, np.concatenate(completed_parts), timeout_err)
        if return_metrics:
            results = results, BatchMetrics.from_batch_run(
                label=f"{batch.label}[{self.workers}x{self.mode}]",
                node_visits=visits,
                charged_reads=charged,
                wall_seconds=time.perf_counter() - start,
            )
        return apply_on_timeout(results, on_timeout)

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

        Every worker, and every retired thread still finishing a reclaimed
        task, is asked to stop and joined for a bounded time; a process
        still running then is terminated, then killed.  A thread closes
        its own handle or snapshot view as it ends, so a wedged worker can
        never hang ``close()``.
        """
        if self._closed:
            return
        self._closed = True
        workers = self._workers + self._retired
        self._workers, self._retired = [], []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ParallelQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
