"""Byte-level node codecs: packing hybrid-tree nodes into 4096-byte pages.

Every encoded page is *framed*: the 32-byte header of
:func:`repro.storage.page.frame_page` (magic, format version, kind, level,
entry count, payload length, whole-page CRC32, reserved LSN) followed by
the node payload.  ``decode`` verifies the frame before touching the
payload, so a torn write or bit flip anywhere in the page surfaces as a
typed :class:`~repro.storage.errors.PageCorruptionError` instead of
silently decoding garbage.  A page the store already verified (a
:class:`~repro.storage.page.VerifiedPage`) skips the second CRC sweep.

Payload layouts (little-endian):

Data node payload (header kind=1, level=0, entry_count=count)::

    u8  kind (=1)
    u16 count
    u16 dims
    count * dims * f32   vectors
    count * u32          oids

Index node payload (header kind=2, level=level, entry_count=fanout ``m``),
written by ``encode``: the intranode kd-tree as the columns of a
:class:`~repro.core.kdnodes.SplitTable`, splits in preorder::

    u8  kind (=3)
    (m-1) * u16  split dim
    (m-1) * f32  lsp, then (m-1) * f32 rsp
    (m-2) * u16  first leaf row of each non-root split's subtree, then
    (m-2) * u16  one past its last leaf row (the root owns rows 0:m)
    m * u32      child page ids, left to right

Level and fanout come from the page header.  Each column decodes with one
``np.frombuffer``; the left/right row ranges and the clip schedule of
:func:`~repro.core.kdnodes.leaf_region_arrays` follow in array steps, so
an index-page fault builds no Python object per child.  That is 14 bytes
per split and 4 per child minus 3: the budget the capacity model of
:mod:`repro.storage.page` charges (which already reserves the 32 header
bytes), so every node the capacity model admits fits its page, asserted in
``encode``.

Payload kind 2 is the layout before the columnar one, still decoded so
older files and logs open, replay, check and salvage::

    u8  kind (=2)
    u16 level
    then the intranode kd-tree in preorder:
        internal:  u8 tag (=1), u16 dim, f32 lsp, f32 rsp, <left>, <right>
        leaf:      u8 tag (=0), u32 child page id

It is parsed in one pass into the same split table.  Both layouts are
checked before a node is built: a split dim outside the codec's dims,
``lsp < rsp``, row offsets that do not nest as one kd-tree in preorder, a
child count other than the header's, trailing bytes or level 0 raise
``ValueError``.  A page image is always ``page_size`` bytes, so files and
log records are the same size under either layout.

Two decode modes (``copy`` constructor flag):

- ``copy=True`` (default): data-node vectors/oids are copied into private
  mutable arrays — the mode every writable tree runs in.
- ``copy=False``: vectors/oids become read-only ``np.frombuffer`` views
  over the page buffer itself and the node arrives *frozen*
  (:class:`~repro.core.nodes.DataNode.from_views`).  Over an mmapped page
  (:class:`~repro.storage.mmapstore.MmapPageStore`) this makes fault-in
  allocation-free: no vector bytes are copied between the OS page cache
  and the query kernels.

``verify_checksums=False`` additionally skips the per-decode CRC sweep —
only valid when the backing store verified the whole file at open time.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core import kdnodes
from repro.core.nodes import DataNode, IndexNode
from repro.storage.page import (
    PAGE_KIND_DATA,
    PAGE_KIND_INDEX,
    VerifiedPage,
    frame_page,
    unframe_page,
)

_KIND_DATA = 1
_KIND_INDEX = 2
_KIND_INDEX_COLUMNAR = 3

_DATA_HEADER = struct.Struct("<BHH")
_INDEX_HEADER = struct.Struct("<BH")
_INDEX_COLUMNAR_HEADER = struct.Struct("<B")
_KD_INTERNAL = struct.Struct("<BHff")
_KD_LEAF = struct.Struct("<BI")
_MAX_FANOUT = 0xFFFF  # row offsets are u16


class HybridNodeCodec:
    """Encode/decode hybrid-tree nodes (implements
    :class:`repro.storage.nodemanager.NodeCodec`).

    ``copy`` and ``verify_checksums`` select the zero-copy mmap read path
    described in the module docstring; the defaults reproduce the original
    copying, always-verified behaviour bit for bit.
    """

    def __init__(
        self,
        dims: int,
        data_capacity: int,
        page_size: int = 4096,
        *,
        copy: bool = True,
        verify_checksums: bool = True,
    ):
        self.dims = dims
        self.data_capacity = data_capacity
        self.page_size = page_size
        self.copy = copy
        self.verify_checksums = verify_checksums

    # ------------------------------------------------------------------
    def encode(self, node: DataNode | IndexNode) -> bytes:
        """Serialize ``node`` into a full framed, CRC-protected page image."""
        if isinstance(node, DataNode):
            payload = self._encode_data(node)
            kind, level, entries = PAGE_KIND_DATA, 0, node.count
        elif isinstance(node, IndexNode):
            table = node.table
            payload = self._encode_index(table)
            kind, level, entries = PAGE_KIND_INDEX, node.level, len(table.ids)
        else:
            raise TypeError(f"cannot encode {type(node).__name__}")
        if len(payload) > self.page_size - 32:
            raise ValueError(
                f"encoded node ({len(payload)} bytes + 32 header) exceeds "
                f"page size {self.page_size}"
            )
        return frame_page(payload, self.page_size, kind, level, entries)

    def decode(self, page: bytes | memoryview) -> DataNode | IndexNode:
        """Verify the page frame and decode its payload.

        Raises :class:`PageCorruptionError` if the frame check fails and
        ``ValueError`` if an intact frame holds an inconsistent payload.
        A :class:`VerifiedPage` passed its CRC check in the store that
        read it, so only its header is parsed here.
        """
        header, data = unframe_page(
            page,
            verify_crc=self.verify_checksums and not isinstance(page, VerifiedPage),
        )
        kind = data[0] if len(data) else None
        if header.kind == PAGE_KIND_DATA and kind == _KIND_DATA:
            return self._decode_data(data)
        if header.kind == PAGE_KIND_INDEX and kind in (_KIND_INDEX, _KIND_INDEX_COLUMNAR):
            if kind == _KIND_INDEX:
                table = self._decode_preorder(data)
                level = _INDEX_HEADER.unpack_from(data, 0)[1]
            else:
                table = self._decode_columnar(data, header.entry_count)
                level = header.level
            if level < 1:
                raise ValueError(f"index page at level {level}")
            if len(table.ids) != header.entry_count:
                raise ValueError(
                    f"index page holds {len(table.ids)} children, its header "
                    f"{header.entry_count}"
                )
            kdnodes.check_split_table(table, self.dims)
            return IndexNode(table, level)
        raise ValueError(f"unknown node kind {header.kind}")

    # ------------------------------------------------------------------
    def _encode_data(self, node: DataNode) -> bytes:
        header = _DATA_HEADER.pack(_KIND_DATA, node.count, node.dims)
        vectors = np.ascontiguousarray(node.points(), dtype="<f4").tobytes()
        oids = np.ascontiguousarray(node.live_oids(), dtype="<u4").tobytes()
        return header + vectors + oids

    @staticmethod
    def declared_dims(payload: bytes | memoryview) -> int:
        """The dimensionality a data-node payload's header declares: what
        to build a codec for when nothing else says (a salvage without a
        readable superblock).  ``struct.error`` if the payload is shorter
        than its header."""
        return _DATA_HEADER.unpack_from(payload, 0)[2]

    def _decode_data(self, data: bytes | memoryview) -> DataNode:
        _, count, dims = _DATA_HEADER.unpack_from(data, 0)
        if dims != self.dims:
            raise ValueError(f"page dims {dims} != codec dims {self.dims}")
        # A CRC-valid page can still be inconsistent with *this* codec's
        # capacity model (a file produced under different parameters, or a
        # future format revision): reject it with a typed error before the
        # array math turns it into a cryptic broadcast failure.
        if count > self.data_capacity:
            raise ValueError(
                f"data page holds {count} entries, exceeding this codec's "
                f"capacity of {self.data_capacity} ({dims} dims, "
                f"{self.page_size}-byte pages)"
            )
        offset = _DATA_HEADER.size
        vec_bytes = count * dims * 4
        expected = offset + vec_bytes + count * 4
        if len(data) != expected:
            raise ValueError(
                f"data page payload is {len(data)} bytes, expected {expected} "
                f"for {count} entries of {dims} dims"
            )
        vectors = np.frombuffer(data, dtype="<f4", count=count * dims, offset=offset)
        oids = np.frombuffer(data, dtype="<u4", count=count, offset=offset + vec_bytes)
        if not self.copy:
            return DataNode.from_views(
                vectors.reshape(count, dims), oids, capacity=self.data_capacity
            )
        node = DataNode(dims, self.data_capacity)
        node.vectors[:count] = vectors.reshape(count, dims)
        node.oids[:count] = oids
        node.count = count
        return node

    # ------------------------------------------------------------------
    def _encode_index(self, table: kdnodes.SplitTable) -> bytes:
        m = len(table.ids)
        if m > _MAX_FANOUT:
            raise ValueError(f"index node fanout {m} exceeds {_MAX_FANOUT}")
        return b"".join((
            _INDEX_COLUMNAR_HEADER.pack(_KIND_INDEX_COLUMNAR),
            table.dim.astype("<u2").tobytes(),
            np.concatenate((table.lsp, table.rsp)).astype("<f4").tobytes(),
            # The root's rows are always 0:m, so only its descendants'
            # offsets are stored.
            np.concatenate((table.first[1:], table.end[1:])).astype("<u2").tobytes(),
            table.ids.astype("<u4").tobytes(),
        ))

    def _decode_columnar(self, data, fanout: int) -> kdnodes.SplitTable:
        """Kind 3: every column is one ``np.frombuffer``."""
        m, n = fanout, fanout - 1
        if m < 1:
            raise ValueError("index page holds no children")
        expected = _INDEX_COLUMNAR_HEADER.size + 14 * n + 4 * m - 4 * (n > 0)
        if len(data) != expected:
            raise ValueError(
                f"index page payload is {len(data)} bytes, expected "
                f"{expected} for {m} children"
            )
        offset = _INDEX_COLUMNAR_HEADER.size
        dim = np.frombuffer(data, "<u2", n, offset).astype(np.intp)
        offset += 2 * n
        pos = np.frombuffer(data, "<f4", 2 * n, offset).astype(np.float64)
        offset += 8 * n
        rows = np.empty(2 * n, dtype=np.intp)
        if n:
            inner = np.frombuffer(data, "<u2", 2 * n - 2, offset)
            offset += 4 * n - 4
            rows[0], rows[n] = 0, m
            rows[1:n] = inner[: n - 1]
            rows[n + 1 :] = inner[n - 1 :]
        ids = np.frombuffer(data, "<u4", m, offset).astype(np.int64)
        return kdnodes.SplitTable(ids, dim, pos[:n], pos[n:], rows[:n], rows[n:])

    def _decode_preorder(self, data) -> kdnodes.SplitTable:
        """Kind 2 (pages written before the columnar layout): one parse of
        the preorder record stream into the same split table."""
        ids: list[int] = []
        dims: list[int] = []
        lsps: list[float] = []
        rsps: list[float] = []
        first: list[int] = []
        end: list[int] = []
        # Open splits, innermost last: [split index, subtrees finished].
        pending: list[list[int]] = []
        offset, size = _INDEX_HEADER.size, len(data)
        while True:
            if offset >= size:
                raise ValueError("index page payload truncated mid kd-tree")
            tag = data[offset]
            if tag == 1:
                if offset + _KD_INTERNAL.size > size:
                    raise ValueError("index page payload truncated mid kd-tree")
                _, dim, lsp, rsp = _KD_INTERNAL.unpack_from(data, offset)
                offset += _KD_INTERNAL.size
                pending.append([len(dims), 0])
                dims.append(dim)
                lsps.append(lsp)
                rsps.append(rsp)
                first.append(len(ids))
                end.append(0)
                continue
            if tag != 0:
                raise ValueError(f"unknown kd record tag {tag}")
            if offset + _KD_LEAF.size > size:
                raise ValueError("index page payload truncated mid kd-tree")
            _, child_id = _KD_LEAF.unpack_from(data, offset)
            offset += _KD_LEAF.size
            ids.append(child_id)
            # A finished subtree finishes every open split it completes.
            while pending and pending[-1][1] == 1:
                end[pending.pop()[0]] = len(ids)
            if not pending:
                break
            pending[-1][1] = 1
        if offset != size:
            raise ValueError(f"index page has {size - offset} trailing bytes")
        return kdnodes.SplitTable(
            np.array(ids, dtype=np.int64),
            np.array(dims, dtype=np.intp),
            np.array(lsps, dtype=np.float64),
            np.array(rsps, dtype=np.float64),
            np.array(first, dtype=np.intp),
            np.array(end, dtype=np.intp),
        )
