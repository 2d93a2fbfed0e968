"""Encoded Live Space (ELS) — dead-space elimination (paper Section 3.4).

SP-based structures index *dead space*: regions containing no data.  Storing
exact live-space boxes would turn the hybrid tree into a DP structure and
re-couple fanout to dimensionality, so the paper instead quantizes each
child's live-space box onto a ``2^bits``-cell grid spanned by the child's kd
region, using ``bits`` per boundary.  The quantized box is a superset of the
true live box (low boundaries round down, high boundaries round up), so
pruning with it is always safe; with ~4 bits it eliminates most dead space.

Per Section 3.4 the codes live in memory rather than in node pages; this
module provides the quantizer and the in-memory table with its byte-footprint
accounting (reported, never charged against page budgets).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.geometry.rect import Rect


def quantize_live_rect(live: Rect, region: Rect, bits: int) -> Rect:
    """Snap ``live`` outward onto the ``2^bits`` grid of ``region``.

    Models exactly what decoding an ELS code yields: the returned rect
    contains ``live`` and is contained in ``region``.  ``bits == 0`` degrades
    to the region itself (ELS disabled); ``bits`` is capped at 16 as in the
    serialized format.  The one-row case of :func:`quantize_boxes`.
    """
    low, high = quantize_boxes(
        live.low[None], live.high[None], region.low[None], region.high[None], bits
    )
    return Rect(low[0], high[0])


def quantize_boxes(
    live_low: np.ndarray,
    live_high: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`quantize_live_rect`: row ``i`` snaps the live box
    ``(live_low[i], live_high[i])`` onto the grid of the region ``(low[i],
    high[i])``.  Every step is elementwise, so a row comes out the same
    whatever other rows share the call."""
    _check_bits(bits)
    if bits == 0:
        return low, high
    cells = float(1 << bits)
    extent = high - low
    # Degenerate region sides (extent 0) encode trivially to themselves.
    safe = np.where(extent > 0, extent, 1.0)
    lo_cell = np.floor((live_low - low) / safe * cells)
    hi_cell = np.ceil((live_high - low) / safe * cells)
    lo_cell = np.clip(lo_cell, 0, cells)
    hi_cell = np.clip(hi_cell, lo_cell, cells)
    q_low = low + lo_cell / cells * extent
    q_high = low + hi_cell / cells * extent
    # Guard against float round-off pushing boundaries inside the live box.
    q_low = np.minimum(q_low, live_low)
    q_high = np.maximum(q_high, live_high)
    return np.maximum(q_low, low), np.minimum(q_high, high)


def _check_bits(bits: int) -> None:
    if not 0 <= bits <= 16:
        raise ValueError("bits must be in [0, 16]")


def encode_cells(live: Rect, region: Rect, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The integer grid coordinates actually stored: ``2 * dims * bits`` bits."""
    if bits <= 0:
        raise ValueError("encode_cells requires bits >= 1")
    cells = float(1 << bits)
    extent = region.high - region.low
    safe = np.where(extent > 0, extent, 1.0)
    lo = np.clip(np.floor((live.low - region.low) / safe * cells), 0, cells).astype(np.uint32)
    hi = np.clip(np.ceil((live.high - region.low) / safe * cells), 0, cells).astype(np.uint32)
    return lo, hi


class ELSTable:
    """In-memory live-space boxes, one per tree node, quantized on use.

    The table stores exact live boxes (floats) and applies
    :func:`quantize_live_rect` at check time, so the *pruning behaviour*
    matches a ``bits``-per-boundary code while updates stay cheap.  Live
    boxes only ever grow on insert and are left stale (a superset) on delete,
    preserving the superset safety property; ``recompute`` tightens them.

    Boxes live in dense arrays indexed by node id (page ids are small and
    allocated densely), with a mask of the ids that have one, so the boxes
    of all of a node's children are one gather.  :meth:`get` and
    :meth:`end_tracking` hand out fresh ``Rect`` copies.
    """

    def __init__(self, dims: int, bits: int):
        _check_bits(bits)
        self.dims = dims
        self.bits = bits
        self._low = np.empty((0, dims), dtype=np.float64)
        self._high = np.empty((0, dims), dtype=np.float64)
        self._known = np.zeros(0, dtype=bool)
        self._track: set[int] | None = None
        # Node ids changed since the owner last took the set; None while
        # nobody listens (the tree's SOA snapshot refresh does).
        self.journal: set[int] | None = None
        # Taken afresh on every entry change: caches derived from the
        # table (an index node's child boxes) key on it.
        self._versions = itertools.count()
        self.version = next(self._versions)

    @property
    def enabled(self) -> bool:
        return self.bits > 0

    def begin_tracking(self) -> None:
        """Record which node ids :meth:`set`/:meth:`merge_point`/:meth:`drop`
        touch (the write-ahead log commits the delta, not the whole table)."""
        self._track = set()

    def end_tracking(self) -> dict[int, Rect | None]:
        """Stop tracking; map of touched ids to their final live box
        (``None`` for dropped entries)."""
        touched = self._track or set()
        self._track = None
        return {node_id: self.get(node_id) for node_id in touched}

    def set(self, node_id: int, live: Rect) -> None:
        self._note(node_id)
        self._store(node_id, live.low, live.high)

    def set_many(self, node_ids: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> None:
        """:meth:`set` for row ``i`` of ``lows``/``highs`` as node
        ``node_ids[i]``'s live box, for every ``i`` (ids distinct)."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if not len(node_ids):
            return
        if np.any(lows > highs):
            raise ValueError("live box with low exceeding high")
        for node_id in node_ids.tolist():
            self._note(node_id)
        self._reserve(int(node_ids.max()) + 1)
        self._low[node_ids] = lows
        self._high[node_ids] = highs
        self._known[node_ids] = True

    def _note(self, node_id: int) -> None:
        self.version = next(self._versions)
        if self._track is not None:
            self._track.add(node_id)
        if self.journal is not None:
            self.journal.add(node_id)

    def _reserve(self, size: int) -> None:
        if size > len(self._known):
            # An empty table takes what it is asked for (a bulk fill needs
            # no more); a filled one grows to the next power of two, so it
            # ends as large as one filled an entry at a time.
            target = max(size, 64)
            if len(self._known):
                target = 1 << (target - 1).bit_length()
            grow = target - len(self._known)
            pad = np.zeros((grow, self.dims))
            # New arrays are built whole and then published: a reader
            # holding the old ones sees them unchanged.
            self._low = np.concatenate((self._low, pad))
            self._high = np.concatenate((self._high, pad))
            self._known = np.concatenate((self._known, np.zeros(grow, dtype=bool)))

    def _store(self, node_id: int, low, high) -> None:
        self._reserve(node_id + 1)
        self._low[node_id] = low
        self._high[node_id] = high
        self._known[node_id] = True

    def _has(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._known) and bool(self._known[node_id])

    def get(self, node_id: int) -> Rect | None:
        if not self._has(node_id):
            return None
        return Rect.trusted(self._low[node_id].copy(), self._high[node_id].copy())

    def drop(self, node_id: int) -> None:
        self._note(node_id)
        if self._has(node_id):
            self._known[node_id] = False

    def copy(self) -> "ELSTable":
        """An independent table with the same entries."""
        dup = ELSTable(self.dims, self.bits)
        dup._low = self._low.copy()
        dup._high = self._high.copy()
        dup._known = self._known.copy()
        return dup

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot of every entry as ``(node_ids, lows, highs)`` arrays,
        sorted by node id (the form persistence writes)."""
        node_ids = np.flatnonzero(self._known)
        return node_ids, self._low[node_ids], self._high[node_ids]

    def items(self) -> list[tuple[int, Rect]]:
        """Snapshot of ``(node_id, live box)`` pairs, sorted by node id.

        The public view diagnostics iterate — callers never touch the
        underlying table."""
        node_ids, lows, highs = self.arrays()
        return [
            (node_id, Rect.trusted(low, high))
            for node_id, low, high in zip(node_ids.tolist(), lows, highs)
        ]

    def merge_point(self, node_id: int, point: np.ndarray) -> None:
        """Grow a node's live box to absorb a newly inserted point."""
        self._note(node_id)
        point = np.asarray(point, dtype=np.float64)
        if self._has(node_id):
            np.minimum(self._low[node_id], point, out=self._low[node_id])
            np.maximum(self._high[node_id], point, out=self._high[node_id])
        else:
            self._store(node_id, point, point)

    def effective_rect(self, node_id: int, region: Rect) -> Rect:
        """What the search actually prunes with: the quantized live box, or
        the full region when ELS is disabled or the node is unknown.  The
        one-row case of :meth:`effective_boxes`."""
        low, high = self.effective_boxes(
            np.array([node_id]), region.low[None], region.high[None]
        )
        return Rect(low[0], high[0])

    def effective_boxes(
        self, node_ids: np.ndarray, low: np.ndarray, high: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`effective_rect`: row ``i`` is the effective box of
        node ``node_ids[i]`` in the region ``(low[i], high[i])``, as new
        ``(n, dims)`` arrays."""
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        known_ids = self._known
        if not self.enabled or not len(node_ids) or not len(known_ids):
            return low.copy(), high.copy()
        stored_low, stored_high = self._low, self._high
        inside = (node_ids >= 0) & (node_ids < len(known_ids))
        known = known_ids.take(node_ids, mode="clip") & inside
        column = known[:, None]
        live_low = np.where(column, stored_low.take(node_ids, axis=0, mode="clip"), low)
        live_high = np.where(column, stored_high.take(node_ids, axis=0, mode="clip"), high)
        # Clip each live box to its region.  A stale live box can drift
        # outside a shrunk region; such rows fall back to the region.
        np.maximum(live_low, low, out=live_low)
        np.minimum(live_high, high, out=live_high)
        keep = (known & ~np.any(live_low > live_high, axis=1))[:, None]
        q_low, q_high = quantize_boxes(live_low, live_high, low, high, self.bits)
        return np.where(keep, q_low, low), np.where(keep, q_high, high)

    @property
    def memory_bytes(self) -> int:
        """Side-table footprint: ``2 * dims * bits`` bits per node."""
        if not self.enabled:
            return 0
        return (2 * self.dims * self.bits * len(self) + 7) // 8

    def __len__(self) -> int:
        return int(np.count_nonzero(self._known))

    def __contains__(self, node_id: int) -> bool:
        return self._has(node_id)
