"""Hybrid-tree node types: data nodes and kd-organised index nodes.

Data nodes store raw ``(vector, oid)`` entries in pre-allocated numpy blocks
so that query-time scans (range masks, batch distances) run at numpy speed.
Index nodes hold only their intranode kd-tree, as the split table their page
stores; child regions are derived on demand (see :mod:`repro.core.kdnodes`),
and an index node caches them, with its children's ELS boxes, as
:class:`ChildBoxes` arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import kdnodes
from repro.geometry.rect import Rect


MAX_OID = 2**32 - 1
"""Largest object id a data page can store (oids are packed as uint32)."""


class OidRangeError(ValueError):
    """An object id that cannot be stored losslessly in a data page.

    Data nodes pack oids as uint32; ``numpy`` would silently wrap an
    out-of-range value (``np.uint32(2**32) == 0``), corrupting lookups and
    deletes much later.  The insert and bulk-load paths validate instead
    and raise this typed error up front.
    """


class FrozenNodeError(RuntimeError):
    """A mutation reached a frozen (read-only) data node.

    Zero-copy decoding (``HybridNodeCodec(copy=False)``) wraps a data
    node's vectors and oids as views over the mmapped page instead of
    private arrays; such nodes must never be mutated in place, so ``add``
    and ``remove_at`` raise this instead of silently corrupting — or
    crashing inside — the shared mapping.
    """


class DataNode:
    """A leaf page: up to ``capacity`` feature vectors with object ids.

    Vectors are stored as ``float32`` rows — the same precision the byte
    budget of :func:`repro.storage.page.data_node_capacity` charges for — so
    the in-memory representation and the serialized page hold identical
    values and persistence round trips are exact.

    A node is normally a private, mutable buffer pair.  The zero-copy read
    path constructs *frozen* nodes instead (:meth:`from_views`): the arrays
    are read-only views over the mmapped page, every query kernel works on
    them unchanged, and any mutation attempt raises
    :class:`FrozenNodeError`.
    """

    __slots__ = ("vectors", "oids", "count", "_capacity", "_frozen")

    LEVEL = 0

    def __init__(self, dims: int, capacity: int):
        if capacity < 2:
            raise ValueError("data node capacity must be at least 2")
        self.vectors = np.empty((capacity, dims), dtype=np.float32)
        self.oids = np.empty(capacity, dtype=np.uint32)
        self.count = 0
        self._capacity = capacity
        self._frozen = False

    @classmethod
    def from_views(
        cls, vectors: np.ndarray, oids: np.ndarray, capacity: int | None = None
    ) -> "DataNode":
        """Build a frozen node directly over decoded array views.

        ``vectors`` is the ``(count, dims)`` float32 block and ``oids`` the
        matching uint32 vector — typically ``np.frombuffer`` views into an
        mmapped page, which arrive read-only and are kept that way.  No
        spare capacity is allocated: the node exists to be scanned, never
        grown.
        """
        if vectors.ndim != 2 or oids.shape != (vectors.shape[0],):
            raise ValueError(
                f"mismatched views: vectors {vectors.shape}, oids {oids.shape}"
            )
        node = cls.__new__(cls)
        node.vectors = vectors
        node.oids = oids
        node.count = int(vectors.shape[0])
        node._capacity = int(capacity) if capacity is not None else node.count
        node._frozen = True
        return node

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def points(self) -> np.ndarray:
        """View of the live vector rows (do not mutate)."""
        return self.vectors[: self.count]

    def live_oids(self) -> np.ndarray:
        return self.oids[: self.count]

    def add(self, vector: np.ndarray, oid: int) -> None:
        if self._frozen:
            raise FrozenNodeError(
                "cannot add to a frozen data node (zero-copy mmap read path); "
                "reopen the tree without mmap to mutate it"
            )
        if self.is_full:
            raise RuntimeError("data node overflow; caller must split first")
        self.vectors[self.count] = vector
        self.oids[self.count] = oid
        self.count += 1

    def remove_at(self, index: int) -> None:
        """Remove the entry at ``index`` by swapping in the last entry."""
        if self._frozen:
            raise FrozenNodeError(
                "cannot remove from a frozen data node (zero-copy mmap read "
                "path); reopen the tree without mmap to mutate it"
            )
        if not 0 <= index < self.count:
            raise IndexError(index)
        last = self.count - 1
        if index != last:
            self.vectors[index] = self.vectors[last]
            self.oids[index] = self.oids[last]
        self.count = last

    def find_entry(self, vector: np.ndarray, oid: int) -> int | None:
        """Index of the entry matching ``(vector, oid)`` exactly, or None."""
        matches = np.flatnonzero(self.live_oids() == oid)
        target = np.asarray(vector, dtype=np.float32)
        for idx in matches:
            if np.array_equal(self.vectors[idx], target):
                return int(idx)
        return None

    def live_rect(self) -> Rect:
        """Bounding box of the stored points (the live-space BR)."""
        if self.count == 0:
            raise ValueError("empty data node has no live rect")
        return Rect.from_points(self.points())

    def utilization(self) -> float:
        return self.count / self.capacity


class ChildBoxes(NamedTuple):
    """An index node's children as arrays, derived for one region: row
    ``i`` is the ``i``-th child in kd order.  Built and cached by
    ``HybridTree._child_boxes``; every array is read-only."""

    key: tuple  # what the rows were derived from (region and versions)
    ids: np.ndarray  # int64 (m,)  child page ids
    low: np.ndarray  # float64 (m, d)  kd regions
    high: np.ndarray
    box_low: np.ndarray  # float64 (m, d)  ELS-effective boxes
    box_high: np.ndarray


class IndexNode:
    """An internal page: an intranode kd-tree over child page pointers.

    The node is its :class:`~repro.core.kdnodes.SplitTable` — the form its
    page stores, so encoding and decoding copy columns and nothing else.
    A write step never edits the table: it builds the next one with a
    :mod:`~repro.core.kdnodes` table edit and publishes it in one
    assignment to ``table``, so a thread-mode session sharing the decoded
    node reads either the old table or the new one.

    ``child_boxes`` is the traversal cache (:class:`ChildBoxes`, or None
    until the first traversal); it is never serialized, so it lives and
    dies with the decoded node."""

    __slots__ = ("table", "level", "child_boxes")

    def __init__(self, table: kdnodes.SplitTable, level: int):
        if level < 1:
            raise ValueError("index nodes live at level >= 1")
        self.table = table
        self.level = level
        self.child_boxes: ChildBoxes | None = None

    @property
    def fanout(self) -> int:
        return len(self.table.ids)

    def child_ids(self) -> list[int]:
        return self.table.ids.tolist()

    def children_with_regions(self, region: Rect) -> list[tuple[int, Rect]]:
        """Children and their derived bounding regions (Section 3.1 mapping)."""
        ids, lows, highs = kdnodes.leaf_region_arrays(self.table, region.low, region.high)
        return [(child_id, Rect(lo, hi)) for child_id, lo, hi in zip(ids.tolist(), lows, highs)]

    def utilization(self, capacity: int) -> float:
        return self.fanout / capacity
