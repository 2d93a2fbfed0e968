"""An LRU buffer pool over a :class:`~repro.storage.pagestore.PageStore`.

A byte-level page cache: hits are served from memory and not charged to the
underlying store's ``IOStats``; misses and dirty evictions are.  It is a
stand-alone building block, not what ``HybridTree.open(buffer_pages=...)``
uses: that option bounds :class:`~repro.storage.nodemanager.NodeManager`'s
node cache, which caches decoded nodes and evicts leaves before index pages.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.storage.iostats import AccessKind
from repro.storage.pagestore import PageStore


class LRUBufferPool:
    """Fixed-capacity write-back page cache with least-recently-used eviction."""

    def __init__(self, store: PageStore, capacity: int):
        if capacity <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.store = store
        self.capacity = capacity
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    def read(self, page_id: int) -> bytes:
        """Return page contents, faulting it in from the store on a miss."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        data = self.store.read(page_id)
        self._admit(page_id, data)
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Buffer a write; it reaches the store on eviction or :meth:`flush`."""
        if len(data) > self.store.page_size:
            raise ValueError(f"page overflow: {len(data)} > {self.store.page_size} bytes")
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self._frames[page_id] = data
        else:
            self._admit(page_id, data)
        self._dirty.add(page_id)

    def _admit(self, page_id: int, data: bytes) -> None:
        while len(self._frames) >= self.capacity:
            victim, victim_data = self._frames.popitem(last=False)
            if victim in self._dirty:
                try:
                    self.store.write(victim, victim_data)
                except Exception:
                    # Write-back failed: the frame holds the only copy of
                    # the page, so losing it here would silently drop the
                    # user's data.  Re-admit the victim (at the MRU end, so
                    # the retry picks a different victim next) still marked
                    # dirty, and surface the fault to the caller.
                    self._frames[victim] = victim_data
                    raise
                self._dirty.discard(victim)
        self._frames[page_id] = data

    def flush(self) -> None:
        """Write back every dirty frame (frames stay resident)."""
        for page_id in sorted(self._dirty):
            self.store.write(page_id, self._frames[page_id], AccessKind.SEQUENTIAL_WRITE)
        self._dirty.clear()

    def invalidate(self, page_id: int) -> None:
        """Drop a frame without writing it back (used after ``free``)."""
        self._frames.pop(page_id, None)
        self._dirty.discard(page_id)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._frames)
