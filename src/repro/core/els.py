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

import numpy as np

from repro.geometry.rect import Rect


def quantize_live_rect(live: Rect, region: Rect, bits: int) -> Rect:
    """Snap ``live`` outward onto the ``2^bits`` grid of ``region``.

    Models exactly what decoding an ELS code yields: the returned rect
    contains ``live`` and is contained in ``region``.  ``bits == 0`` degrades
    to the region itself (ELS disabled); ``bits`` is capped at 16 as in the
    serialized format.
    """
    if not 0 <= bits <= 16:
        raise ValueError("bits must be in [0, 16]")
    if bits == 0:
        return region
    cells = float(1 << bits)
    extent = region.high - region.low
    # Degenerate region sides (extent 0) encode trivially to themselves.
    safe = np.where(extent > 0, extent, 1.0)
    lo_cell = np.floor((live.low - region.low) / safe * cells)
    hi_cell = np.ceil((live.high - region.low) / safe * cells)
    lo_cell = np.clip(lo_cell, 0, cells)
    hi_cell = np.clip(hi_cell, lo_cell, cells)
    low = region.low + lo_cell / cells * extent
    high = region.low + hi_cell / cells * extent
    # Guard against float round-off pushing boundaries inside the live box.
    low = np.minimum(low, live.low)
    high = np.maximum(high, live.high)
    return Rect(np.maximum(low, region.low), np.minimum(high, region.high))


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
    """

    def __init__(self, dims: int, bits: int):
        if not 0 <= bits <= 16:
            raise ValueError("bits must be in [0, 16]")
        self.dims = dims
        self.bits = bits
        self._live: dict[int, Rect] = {}
        self._track: set[int] | None = None
        # Node ids changed since the owner last took the set; None while
        # nobody listens (the tree's SOA snapshot refresh does).
        self.journal: set[int] | None = None

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
        return {node_id: self._live.get(node_id) for node_id in touched}

    def set(self, node_id: int, live: Rect) -> None:
        self._note(node_id)
        self._live[node_id] = live

    def _note(self, node_id: int) -> None:
        if self._track is not None:
            self._track.add(node_id)
        if self.journal is not None:
            self.journal.add(node_id)

    def get(self, node_id: int) -> Rect | None:
        return self._live.get(node_id)

    def drop(self, node_id: int) -> None:
        self._note(node_id)
        self._live.pop(node_id, None)

    def copy(self) -> "ELSTable":
        """An independent table with the same entries (``Rect`` values are
        immutable once stored, so sharing them is safe)."""
        dup = ELSTable(self.dims, self.bits)
        dup._live = dict(self._live)
        return dup

    def items(self) -> list[tuple[int, Rect]]:
        """Snapshot of ``(node_id, live box)`` pairs, sorted by node id.

        The public view persistence and diagnostics iterate — callers never
        touch the underlying table."""
        return sorted(self._live.items())

    def merge_point(self, node_id: int, point: np.ndarray) -> None:
        """Grow a node's live box to absorb a newly inserted point."""
        self._note(node_id)
        live = self._live.get(node_id)
        self._live[node_id] = (
            live.merge_point(point)
            if live is not None
            else Rect(np.asarray(point, dtype=np.float64), np.asarray(point, dtype=np.float64))
        )

    def effective_rect(self, node_id: int, region: Rect) -> Rect:
        """What the search actually prunes with: the quantized live box, or
        the full region when ELS is disabled or the node is unknown."""
        if not self.enabled:
            return region
        live = self._live.get(node_id)
        if live is None:
            return region
        clipped = live.intersection(region)
        if clipped is None:
            # A stale live box can drift outside a shrunk region; fall back.
            return region
        return quantize_live_rect(clipped, region, self.bits)

    @property
    def memory_bytes(self) -> int:
        """Side-table footprint: ``2 * dims * bits`` bits per node."""
        if not self.enabled:
            return 0
        return (2 * self.dims * self.bits * len(self._live) + 7) // 8

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._live
