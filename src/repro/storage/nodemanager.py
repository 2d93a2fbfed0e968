"""The node cache every index structure runs through.

``NodeManager`` is the boundary between the in-memory tree objects and the
paged store.  Its contract:

- every *node visit* during a tree operation calls :meth:`get` and is charged
  one random page read (the paper's unit of I/O cost);
- every node mutation calls :meth:`put` and is charged one random page write;
- with a codec attached, :meth:`flush` packs dirty nodes into real pages and
  :meth:`get` faults missing nodes back in through the codec, so a tree can be
  closed, reopened from the file, and queried cold — exercising the same
  serialization a 1999 disk-resident index would.

The object cache means benchmarks do not pay Python ``struct`` costs on every
access while the accounting stays identical to a cold, unbuffered disk.

A *bounded* cache (``max_cached``) evicts by level: it keeps one LRU order
per tree level and evicts the least recently used unpinned page of the
lowest level that has one, so leaf faults do not push out the few index
pages every query passes through.  This is the idea of LRU-K (O'Neil,
O'Neil & Weikum, SIGMOD 1993) reduced to what a tree needs: pages high in
the tree are re-referenced far more often than leaves.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from typing import Any, Protocol

from repro.storage.errors import TransientStorageError
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.pagestore import InMemoryPageStore, PageStore


class NodeCodec(Protocol):
    """Packs tree nodes into page images and back."""

    def encode(self, node: Any) -> bytes:
        """Serialize ``node`` into at most one page worth of bytes."""
        ...

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        ...


class NodeManager:
    """Page-granular node cache with I/O accounting.

    Parameters
    ----------
    store:
        Backing page store.  Defaults to a fresh in-memory store.
    codec:
        Optional node serializer.  Required for :meth:`flush` and for
        faulting nodes in from a persistent store.
    stats:
        Shared I/O accountant.  Defaults to the store's.
    max_cached:
        Bound on the resident *unpinned* nodes; ``None`` (the default)
        caches every node and charges every visit.  Bounded, a hit is free
        and eviction is level-aware: the victim is the least recently used
        unpinned page of the lowest tree level that has one (a node's level
        is its ``level`` attribute, 0 without one), never the page being
        admitted.  :attr:`data_evictions` and :attr:`index_evictions` count
        evictions of level-0 and higher pages.
    max_retries / retry_backoff / retry_budget:
        Transient store faults (:class:`TransientStorageError`) are retried
        up to ``max_retries`` times with exponential backoff starting at
        ``retry_backoff`` seconds, but never past ``retry_budget`` seconds
        of total wall clock — exponential backoff with a generous
        ``max_retries`` must not be able to blow a query timeout.  When an
        ambient query deadline is active (``repro.resilience``), backoff
        sleeps are clamped to the deadline's remaining budget and the
        deadline is checked between attempts, so a timed query surfaces
        its typed ``QueryTimeoutError`` instead of sleeping through it.
        Permanent errors — including
        :class:`~repro.storage.errors.PageCorruptionError` and
        :class:`~repro.storage.errors.CrashError` — are never retried and
        surface unchanged.  A failed attempt is never charged to
        :class:`IOStats` (stores record only on success), so a retried
        operation costs exactly one access.
    """

    def __init__(
        self,
        store: PageStore | None = None,
        codec: NodeCodec | None = None,
        stats: IOStats | None = None,
        max_cached: int | None = None,
        max_retries: int = 4,
        retry_backoff: float = 0.001,
        retry_budget: float = 1.0,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_budget <= 0:
            raise ValueError("retry_budget must be > 0")
        self.store = store if store is not None else InMemoryPageStore()
        self.codec = codec
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_budget = retry_budget
        self.retries_performed = 0
        self.stats = stats if stats is not None else self.store.stats
        if max_cached is not None:
            if max_cached < 1:
                raise ValueError("max_cached must be >= 1")
            if codec is None:
                raise ValueError("bounded caching needs a codec to evict through")
        self.max_cached = max_cached
        self._cache: OrderedDict[int, Any] = OrderedDict()
        # Bounded caches only: one LRU order per tree level (list index =
        # level) over the resident unpinned pages, and each such page's
        # level.  A pinned page is in neither.
        self._lru: list[OrderedDict[int, None]] = []
        self._level_of: dict[int, int] = {}
        self.data_evictions = 0
        self.index_evictions = 0
        self._dirty: set[int] = set()
        self._pinned: set[int] = set()
        self._track_written: set[int] | None = None
        self._track_freed: set[int] | None = None
        # Page ids put since the owner last took the set (a freed page is
        # unreachable, and a reused id is put again); None while nobody
        # listens (the tree's SOA snapshot refresh does).
        self.journal: set[int] | None = None
        # Caches derived from the nodes (the hybrid tree's per-node child
        # boxes) key on this; see :meth:`touch`.
        self._versions = itertools.count()
        self.version = next(self._versions)

    # ------------------------------------------------------------------
    # Core protocol used by the index structures
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a page id for a new node."""
        return self.store.allocate()

    def get(self, page_id: int, charge: bool = True) -> Any:
        """Return the node stored at ``page_id``, charging one page read.

        With a bounded cache (``max_cached``) a cache *hit* is free — the
        page genuinely is in memory — and a miss round-trips through the
        store/codec; with the default unbounded object cache every charged
        visit counts one access, modelling the paper's cold measurements.

        ``charge=False`` is for maintenance traversals (e.g. computing tree
        statistics) that must not pollute query-cost measurements; the store
        read on a cache miss is then uncharged too.

        Pinned pages (see :meth:`pin`) are always free to revisit: a query
        session has already paid to bring them into the buffer.
        """
        node = self._cache.get(page_id)
        if node is not None:
            if page_id in self._pinned:
                return node
            if self.max_cached is not None:
                # None: pinned through a parallel worker's copy of this
                # manager, which shares the cache but not the pin set.
                level = self._level_of.get(page_id)
                if level is not None:
                    self._lru[level].move_to_end(page_id)
            elif charge:
                self.stats.record(AccessKind.RANDOM_READ)
            return node
        if self.codec is None:
            raise KeyError(f"node {page_id} not cached and no codec to fault it in")
        data = self._store_read(page_id, charge=charge)
        node = self.codec.decode(data)
        self._cache[page_id] = node
        if self.max_cached is not None:
            self._list(page_id, node)
            self._evict_if_needed(keep=page_id)
        return node

    def begin_mutation_tracking(self) -> None:
        """Start recording which pages :meth:`put`/:meth:`free` touch.

        The write-ahead-log path brackets every outermost tree mutation
        with this so it knows exactly which page images to log at commit.
        """
        self._track_written = set()
        self._track_freed = set()

    def end_mutation_tracking(self) -> tuple[set[int], set[int]]:
        """Stop tracking; returns ``(written_page_ids, freed_page_ids)``."""
        written, freed = self._track_written, self._track_freed
        self._track_written = None
        self._track_freed = None
        return (written or set(), freed or set())

    def put(self, page_id: int, node: Any, charge: bool = True) -> None:
        """Install/overwrite the node at ``page_id``, charging one page write."""
        if self._track_written is not None:
            self._track_written.add(page_id)
            self._track_freed.discard(page_id)
        if self.journal is not None:
            self.journal.add(page_id)
        self.touch()
        self._cache[page_id] = node
        self._dirty.add(page_id)
        if self.max_cached is None:
            if charge:
                self.stats.record(AccessKind.RANDOM_WRITE)
        elif page_id not in self._pinned:
            self._list(page_id, node)
            self._evict_if_needed(keep=page_id)

    def touch(self) -> None:
        """Take a new :attr:`version`, so caches derived from the nodes
        rebuild.  :meth:`put` and :meth:`free` call it; so does a tree
        mutation that raised, which may have edited a node in place."""
        self.version = next(self._versions)

    # ------------------------------------------------------------------
    # Level-aware eviction (bounded caches)
    # ------------------------------------------------------------------
    def _list(self, page_id: int, node: Any) -> None:
        """Make a resident unpinned page the most recent of its level."""
        self._unlist(page_id)
        level = getattr(node, "level", 0)
        while len(self._lru) <= level:
            self._lru.append(OrderedDict())
        self._lru[level][page_id] = None
        self._level_of[page_id] = level

    def _unlist(self, page_id: int) -> None:
        level = self._level_of.pop(page_id, None)
        if level is not None:
            del self._lru[level][page_id]

    def _evict_if_needed(self, keep: int | None = None) -> None:
        """Evict down to ``max_cached`` unpinned resident pages, never
        ``keep``.  Each victim is the head of the lowest non-empty level's
        LRU (or the entry after it, if that is ``keep``), so finding it
        costs O(levels).  A dirty victim is written back before it leaves
        the cache; a failed write-back leaves it resident and dirty."""
        while len(self._level_of) > self.max_cached:
            victim = next(pid for lru in self._lru for pid in lru if pid != keep)
            if victim in self._dirty:
                self._store_write(victim, self.codec.encode(self._cache[victim]))
                self._dirty.discard(victim)
            level = self._level_of[victim]
            self._unlist(victim)
            del self._cache[victim]
            if level:
                self.index_evictions += 1
            else:
                self.data_evictions += 1

    def free(self, page_id: int) -> None:
        """Release a node's page."""
        if self._track_freed is not None:
            self._track_freed.add(page_id)
            self._track_written.discard(page_id)
        self.touch()
        self._cache.pop(page_id, None)
        self._unlist(page_id)
        self._dirty.discard(page_id)
        self._pinned.discard(page_id)
        self.store.free(page_id)

    # ------------------------------------------------------------------
    # Pinning (query sessions keep hot upper-level nodes resident)
    # ------------------------------------------------------------------
    def pin(self, page_id: int, charge: bool = True) -> Any:
        """Fault the node in (one charged read unless ``charge=False``) and
        keep it resident: later visits are free and a bounded cache never
        evicts it.  Returns the node."""
        node = self.get(page_id, charge=charge)
        self._pinned.add(page_id)
        self._unlist(page_id)
        return node

    def unpin(self, page_id: int) -> None:
        """Release a pin; the page returns to normal charging/eviction, as
        the most recently used page of its level."""
        if page_id not in self._pinned:
            return
        self._pinned.discard(page_id)
        if self.max_cached is not None and page_id in self._cache:
            self._list(page_id, self._cache[page_id])
            self._evict_if_needed()

    def unpin_all(self) -> None:
        for page_id in list(self._pinned):
            self.unpin(page_id)

    @property
    def pinned_nodes(self) -> int:
        return len(self._pinned)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Serialize every dirty node to the store; returns pages written."""
        if self.codec is None:
            raise RuntimeError("flush() requires a codec")
        written = 0
        for page_id in sorted(self._dirty):
            self._store_write(page_id, self.codec.encode(self._cache[page_id]))
            written += 1
        self._dirty.clear()
        return written

    # ------------------------------------------------------------------
    # Retried store I/O (transient faults only)
    # ------------------------------------------------------------------
    def _store_read(self, page_id: int, charge: bool) -> bytes:
        return self._with_retry(lambda: self.store.read(page_id, charge=charge))

    def _store_write(self, page_id: int, data: bytes) -> None:
        self._with_retry(lambda: self.store.write(page_id, data))

    def _with_retry(self, op):
        from repro.resilience import active_deadline

        deadline = active_deadline()
        started = time.perf_counter()
        attempt = 0
        while True:
            try:
                return op()
            except TransientStorageError:
                if attempt >= self.max_retries:
                    raise
                if deadline is not None:
                    # A timed query must surface its typed timeout rather
                    # than sleep through the budget retrying.
                    deadline.check()
                wanted = self.retry_backoff * (2**attempt) if self.retry_backoff > 0 else 0.0
                if wanted > 0:
                    # Wall-clock cap: total retry time (spent + next sleep)
                    # stays within retry_budget and the query deadline.
                    spent = time.perf_counter() - started
                    wanted = min(wanted, max(0.0, self.retry_budget - spent))
                    if deadline is not None:
                        wanted = deadline.sleep_budget(wanted)
                    if wanted > 0:
                        time.sleep(wanted)
                    elif spent >= self.retry_budget:
                        raise
                attempt += 1
                self.retries_performed += 1

    def evict_all(self) -> None:
        """Drop the object cache (dirty nodes must be flushed first).

        Pinned nodes stay resident — they were paid for by a session.
        """
        if self._dirty:
            raise RuntimeError("evict_all() with dirty nodes would lose data; flush() first")
        kept = {pid: self._cache[pid] for pid in self._pinned if pid in self._cache}
        self._cache.clear()
        self._cache.update(kept)
        self._lru.clear()
        self._level_of.clear()

    @property
    def cached_nodes(self) -> int:
        return len(self._cache)

    @property
    def dirty_nodes(self) -> int:
        return len(self._dirty)
