"""Resilient query execution: deadlines, cancellation, and admission.

The query stack (traversal kernel → SOA kernel → batch engine →
``ParallelQueryEngine``) is fast and crash-safe at rest, but a production
front end also needs a *runtime* failure story: a query must not run
unbounded when the index has degraded to a sequential scan, a wedged
worker must not hang a batch forever, and an over-admitted burst must be
rejected crisply instead of degrading every in-flight request.  This
module is the shared substrate all of that builds on:

- :class:`Deadline` / :class:`CancelToken` — cooperative cancellation.
  Every batch API accepts ``timeout=`` (seconds, or a ``Deadline`` so one
  budget can span several calls); the kernels check the deadline at
  frontier-round granularity and raise :class:`QueryTimeoutError` /
  :class:`QueryCancelledError`.
- :func:`deadline_scope` / :func:`active_deadline` — a ``contextvars``
  scope the kernels enter around a traversal, so layers that cannot take
  a parameter (``NodeManager`` retry backoff, the degraded sequential
  scan) still honor the caller's budget.
- :class:`PartialResult` — what a timed-out executor returns: the
  per-query results accumulated before the deadline fired, an honest
  per-query completion mask, and the timeout error itself;
  :func:`apply_on_timeout` applies the caller's ``on_timeout`` policy to
  it, once, at the public API.
- :class:`QueryAdmissionController` — bounds concurrent in-flight batches
  and their estimated working-set bytes, raising :class:`AdmissionError`
  for over-budget work instead of letting it degrade everyone.

The error taxonomy (see INTERNALS "Failure semantics"): every runtime
failure surfaces as exactly one of :class:`QueryTimeoutError`,
:class:`QueryCancelledError`, :class:`WorkerCrashError`,
:class:`AdmissionError`, or a storage error from
:mod:`repro.storage.errors` — never a bare hang, a swallowed sibling
exception, or a leaked worker.

This module depends only on the standard library and numpy so both the
engine and the storage layers can import it without cycles.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdmissionError",
    "CancelToken",
    "Deadline",
    "PartialResult",
    "QueryAdmissionController",
    "QueryCancelledError",
    "QueryTimeoutError",
    "WorkerCrashError",
    "active_deadline",
    "apply_on_timeout",
    "deadline_scope",
]


# ----------------------------------------------------------------------
# Typed runtime-failure errors
# ----------------------------------------------------------------------
class QueryExecutionError(Exception):
    """Base class for runtime query-execution failures.

    Distinct from :class:`repro.storage.errors.StorageError`: these are
    about *this execution* (budget, supervision), not about the bytes on
    disk — retrying with a larger budget may succeed.
    """


class QueryTimeoutError(QueryExecutionError, TimeoutError):
    """The query's deadline expired before the traversal finished.

    Carries the budget (``timeout``) and the wall time actually spent
    (``elapsed``).  Under ``on_timeout="raise"`` the batch APIs raise it
    and drop the partial results, but not their bill: pages read before
    the deadline fired stay charged to the index's ``IOStats``, as under
    ``on_timeout="partial"``, where the APIs return a
    :class:`PartialResult` carrying this error instead.
    """

    def __init__(self, message: str, timeout: float | None = None,
                 elapsed: float | None = None):
        super().__init__(message)
        self.timeout = timeout
        self.elapsed = elapsed

    def __reduce__(self):
        # Keep the extra attributes across pickling — supervised process
        # workers ship these back to the parent through a result queue.
        return (type(self), (self.args[0], self.timeout, self.elapsed))


class QueryCancelledError(QueryExecutionError):
    """The query's :class:`CancelToken` was cancelled mid-traversal.

    Raised by sibling partitions when the supervised parallel engine
    propagates another partition's failure: the cancelled workers unwind
    promptly instead of finishing work whose result will be discarded.
    """


class WorkerCrashError(QueryExecutionError):
    """A worker process died and the retry budget could not recover it.

    Carries the partition label and the number of attempts made; the
    batch that observed it has produced no results (supervision retries
    the lost partition on a respawned worker before giving up).
    """

    def __init__(self, message: str, partition: str | None = None,
                 attempts: int = 0):
        super().__init__(message)
        self.partition = partition
        self.attempts = attempts

    def __reduce__(self):
        return (type(self), (self.args[0], self.partition, self.attempts))


class AdmissionError(QueryExecutionError):
    """The admission controller rejected the batch before execution.

    Nothing ran: the caller can shed the request, retry after backoff, or
    split the batch.  ``reason`` is one of ``"batches"``, ``"queries"``
    or ``"bytes"`` — which budget the batch would have blown.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.args[0], self.reason))


# ----------------------------------------------------------------------
# Deadlines and cooperative cancellation
# ----------------------------------------------------------------------
class CancelToken:
    """A thread-safe flag a supervisor sets to unwind cooperative workers.

    Workers never poll it directly — they carry a :class:`Deadline`
    holding the token and call :meth:`Deadline.check` at traversal
    checkpoints.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class Deadline:
    """A wall-clock budget plus an optional cancellation token.

    Constructed once at the batch-API boundary and threaded down through
    every layer, so nested retries/partitions spend from one shared
    budget instead of each restarting the clock.
    """

    __slots__ = ("started_at", "expires_at", "timeout", "token", "checks")

    def __init__(self, timeout: float | None = None,
                 token: CancelToken | None = None):
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be >= 0")
        self.started_at = time.perf_counter()
        self.timeout = timeout
        self.expires_at = (
            self.started_at + timeout if timeout is not None else math.inf
        )
        self.token = token
        # How many cancellation points this budget has passed through —
        # observability for "how responsive would a cancel have been",
        # and the basis for the benchmark's direct overhead accounting.
        self.checks = 0

    @classmethod
    def coerce(cls, timeout, token: CancelToken | None = None) -> "Deadline | None":
        """Normalise a batch API's ``timeout=`` argument.

        ``None`` → no deadline; a number → a fresh budget of that many
        seconds; an existing :class:`Deadline` passes through unchanged
        (so one budget can span several calls).
        """
        if timeout is None:
            return cls(None, token) if token is not None else None
        if isinstance(timeout, Deadline):
            return timeout
        return cls(float(timeout), token)

    # -- queries --------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left (``inf`` when untimed); never negative."""
        return max(0.0, self.expires_at - time.perf_counter())

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    @property
    def expired(self) -> bool:
        return time.perf_counter() >= self.expires_at

    @property
    def cancelled(self) -> bool:
        return self.token is not None and self.token.cancelled

    def check(self) -> None:
        """Raise the matching typed error if the budget is gone.

        Cancellation wins over expiry: a cancelled worker's partial work
        is being discarded by its supervisor, so reporting a timeout
        would be a lie about what happened.
        """
        self.checks += 1
        if self.token is not None and self.token.cancelled:
            reason = self.token.reason or "query cancelled"
            raise QueryCancelledError(reason)
        now = time.perf_counter()
        if now >= self.expires_at:
            raise QueryTimeoutError(
                f"query deadline of {self.timeout:.6g}s exceeded "
                f"({now - self.started_at:.6g}s elapsed)",
                timeout=self.timeout,
                elapsed=now - self.started_at,
            )

    def sleep_budget(self, wanted: float) -> float:
        """Clamp a backoff sleep so it cannot outlive the deadline."""
        return min(wanted, self.remaining())


# The deadline active for the current (thread of) execution.  Kernels set
# it around a traversal; layers without a deadline parameter (NodeManager
# retries, the degraded sequential scan) read it here.  ``contextvars``
# gives each worker thread its own slot, so parallel partitions carrying
# different deadlines never observe each other's.
_ACTIVE_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_active_deadline", default=None
)


def active_deadline() -> Deadline | None:
    """The deadline governing the current execution context, if any."""
    return _ACTIVE_DEADLINE.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make ``deadline`` visible to nested layers for the duration."""
    if deadline is None:
        yield
        return
    token = _ACTIVE_DEADLINE.set(deadline)
    try:
        yield
    finally:
        _ACTIVE_DEADLINE.reset(token)


# ----------------------------------------------------------------------
# Partial results
# ----------------------------------------------------------------------
@dataclass
class PartialResult:
    """What a timed-out batch managed to finish (``on_timeout="partial"``).

    ``results`` is positionally aligned with the request: one entry per
    query, holding the hits accumulated before the deadline fired.
    ``completed`` marks the queries whose entry is *known complete* —
    conservative at kernel granularity (a mid-traversal timeout marks the
    whole partition incomplete) and exact at partition granularity (the
    parallel engine marks finished partitions complete).  A query marked
    incomplete may still hold hits; they are real, just not exhaustive.

    The envelope quacks like the results list (len / index / iterate), so
    ``on_timeout="partial"`` callers that only want best-effort answers
    need not change shape.
    """

    results: list
    completed: np.ndarray
    error: QueryTimeoutError | None = None

    def __post_init__(self) -> None:
        self.completed = np.asarray(self.completed, dtype=bool)
        if len(self.results) != self.completed.size:
            raise ValueError("completed mask must align with results")

    @property
    def complete(self) -> bool:
        return bool(self.completed.all())

    @property
    def completed_queries(self) -> int:
        return int(self.completed.sum())

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartialResult({self.completed_queries}/{len(self.results)} "
            f"queries complete, error={self.error!r})"
        )


def apply_on_timeout(out, on_timeout: str):
    """Apply the caller's ``on_timeout`` policy to an executor's output.

    Every executor below the public API (the kernels, the per-query loop,
    a parallel partition) returns what it finished, already billed: its
    results, or a :class:`PartialResult` when a deadline stopped it, and
    either one paired with its ``BatchMetrics`` when ``out`` is a tuple.
    Under ``"raise"`` a :class:`PartialResult` becomes its error; anything
    else passes through unchanged.
    """
    results = out[0] if isinstance(out, tuple) else out
    if on_timeout == "raise" and isinstance(results, PartialResult):
        raise results.error
    return out


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass
class AdmissionTicket:
    """A context manager releasing an admitted batch's reservation."""

    controller: "QueryAdmissionController"
    queries: int
    est_bytes: int
    _released: bool = field(default=False, repr=False)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.controller._release(self)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class QueryAdmissionController:
    """Bounds the concurrent work a query front end accepts.

    Three independent budgets, any of which may be ``None`` (unlimited):

    ``max_batches``
        Concurrent in-flight batches (one reservation per batch call).
    ``max_queries``
        Total queries across in-flight batches.
    ``max_bytes``
        Estimated working-set bytes across in-flight batches; a batch is
        estimated at ``n_queries × dims × 8`` (the float64 query matrix)
        times ``bytes_per_query_factor`` to account for result buffers.

    :meth:`admit` either returns an :class:`AdmissionTicket` (a context
    manager; the reservation is held until released) or raises
    :class:`AdmissionError` *before any work runs* — shedding load
    crisply beats degrading every in-flight query.  Thread-safe; the
    parallel engine and query sessions share one controller per front
    end.
    """

    def __init__(
        self,
        max_batches: int | None = None,
        max_queries: int | None = None,
        max_bytes: int | None = None,
        bytes_per_query_factor: float = 2.0,
    ):
        for name, value in (
            ("max_batches", max_batches),
            ("max_queries", max_queries),
            ("max_bytes", max_bytes),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None")
        self.max_batches = max_batches
        self.max_queries = max_queries
        self.max_bytes = max_bytes
        self.bytes_per_query_factor = float(bytes_per_query_factor)
        self._lock = threading.Lock()
        self.in_flight_batches = 0
        self.in_flight_queries = 0
        self.in_flight_bytes = 0
        self.admitted_total = 0
        self.rejected_total = 0

    def estimate_bytes(self, n_queries: int, dims: int) -> int:
        return int(n_queries * dims * 8 * self.bytes_per_query_factor)

    def admit(self, n_queries: int, dims: int) -> AdmissionTicket:
        """Reserve capacity for a batch or raise :class:`AdmissionError`."""
        est = self.estimate_bytes(n_queries, dims)
        with self._lock:
            if (
                self.max_batches is not None
                and self.in_flight_batches + 1 > self.max_batches
            ):
                self.rejected_total += 1
                raise AdmissionError(
                    f"admission rejected: {self.in_flight_batches} batches "
                    f"in flight (limit {self.max_batches})",
                    reason="batches",
                )
            if (
                self.max_queries is not None
                and self.in_flight_queries + n_queries > self.max_queries
            ):
                self.rejected_total += 1
                raise AdmissionError(
                    f"admission rejected: batch of {n_queries} queries would "
                    f"exceed the in-flight query budget "
                    f"({self.in_flight_queries}/{self.max_queries} used)",
                    reason="queries",
                )
            if self.max_bytes is not None and self.in_flight_bytes + est > self.max_bytes:
                self.rejected_total += 1
                raise AdmissionError(
                    f"admission rejected: batch estimated at {est} bytes would "
                    f"exceed the memory budget "
                    f"({self.in_flight_bytes}/{self.max_bytes} bytes reserved)",
                    reason="bytes",
                )
            self.in_flight_batches += 1
            self.in_flight_queries += n_queries
            self.in_flight_bytes += est
            self.admitted_total += 1
        return AdmissionTicket(self, n_queries, est)

    def _release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            self.in_flight_batches -= 1
            self.in_flight_queries -= ticket.queries
            self.in_flight_bytes -= ticket.est_bytes

    def snapshot(self) -> dict:
        """Current occupancy, for metrics endpoints and tests."""
        with self._lock:
            return {
                "in_flight_batches": self.in_flight_batches,
                "in_flight_queries": self.in_flight_queries,
                "in_flight_bytes": self.in_flight_bytes,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
            }
