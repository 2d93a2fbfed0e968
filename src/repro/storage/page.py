"""Page-size constants and byte-budget capacity calculations.

The paper's central structural claim (Table 1) is that the fanout of a
kd-tree-organised node is *independent of dimensionality* while the fanout of
bounding-region nodes shrinks linearly with the number of dimensions.  Both
follow directly from the byte cost of one child entry under a fixed page
budget, so we make those byte costs explicit here and derive every node
capacity from them.  All index structures in this repository size their nodes
through this module; nothing hard-codes a fanout.

Byte layout conventions (little-endian, matching
:mod:`repro.storage.serialization`):

- feature coordinates are ``float32`` (4 bytes), as is standard for feature
  vectors;
- object identifiers and page identifiers are ``uint32`` (4 bytes);
- a kd-tree internal node stores the split dimension (``uint16``), the two
  split positions lsp and rsp (``float32`` each), and two intra-node
  offsets (``uint16`` each, the leaf rows its subtree spans): 14 bytes
  total;
- a kd-tree leaf stores the child page id: 4 bytes.  Encoded-live-space codes
  are *not* charged against the page (Section 3.4 of the paper keeps them in
  memory; their footprint is reported separately by ``ELSTable.memory_bytes``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.storage.errors import PageCorruptionError

DEFAULT_PAGE_SIZE = 4096
"""Page size in bytes used throughout the paper's evaluation (Section 4)."""

PAGE_HEADER_SIZE = 32
"""Per-page header, as actually written by :func:`frame_page`:
magic (u32), format version (u16), kind (u8), level (u8), entry count
(u32), payload length (u32), CRC32 (u32), LSN (u64, reserved for a future
write-ahead log, written as 0), 4 bytes padding."""

PAGE_MAGIC = 0x48594254  # "HYBT"
PAGE_FORMAT_VERSION = 1

PAGE_KIND_DATA = 1
PAGE_KIND_INDEX = 2
PAGE_KIND_BLOB = 3
"""Sidecar byte stream spilled across pages (ELS table, free list)."""
PAGE_KIND_SUPERBLOCK = 4
"""The commit record: always the last page of a saved tree file."""

_HEADER = struct.Struct("<IHBBIIIQ4x")
assert _HEADER.size == PAGE_HEADER_SIZE


@dataclass(frozen=True)
class PageHeader:
    """Decoded per-page header (see :data:`PAGE_HEADER_SIZE` for layout)."""

    kind: int
    level: int
    entry_count: int
    payload_length: int
    crc: int
    lsn: int = 0
    version: int = PAGE_FORMAT_VERSION


class VerifiedPage(bytes):
    """A page image whose frame, CRC included, the store that read it has
    just verified (:class:`~repro.storage.pagestore.FilePageStore` with
    ``checksums=True``).  The node codec does not sweep its CRC again;
    pages from anywhere else (overlays, logs, raw reads) arrive as plain
    ``bytes`` and are verified in full."""

    __slots__ = ()


def _page_crc(header_no_crc: bytes, rest: bytes) -> int:
    """CRC32 over the whole page with the CRC field itself zeroed."""
    return zlib.crc32(rest, zlib.crc32(header_no_crc)) & 0xFFFFFFFF


def frame_page(
    payload: bytes,
    page_size: int,
    kind: int,
    level: int = 0,
    entry_count: int = 0,
    lsn: int = 0,
) -> bytes:
    """Wrap ``payload`` into a full self-checking page image.

    The CRC covers *every* byte of the page (header with the CRC field
    zeroed, payload, and zero padding), so any single-bit flip anywhere in
    the stored page — including the header and the unused tail — is
    detected by :func:`unframe_page`.
    """
    if len(payload) > page_size - PAGE_HEADER_SIZE:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds page budget "
            f"{page_size - PAGE_HEADER_SIZE}"
        )
    body = payload.ljust(page_size - PAGE_HEADER_SIZE, b"\x00")
    bare = _HEADER.pack(
        PAGE_MAGIC, PAGE_FORMAT_VERSION, kind, level, entry_count, len(payload), 0, lsn
    )
    crc = _page_crc(bare, body)
    header = _HEADER.pack(
        PAGE_MAGIC, PAGE_FORMAT_VERSION, kind, level, entry_count, len(payload), crc, lsn
    )
    return header + body


def unframe_page(
    page: bytes | memoryview,
    page_id: int | None = None,
    verify_crc: bool = True,
) -> tuple[PageHeader, bytes | memoryview]:
    """Parse and verify a framed page; the inverse of :func:`frame_page`.

    Raises :class:`PageCorruptionError` on bad magic, unknown format
    version, an out-of-range payload length, or a CRC mismatch.

    Accepts any bytes-like buffer and returns the payload as a slice of the
    same type — passing a ``memoryview`` (e.g. over an mmapped page) yields
    a zero-copy payload view.  ``verify_crc=False`` skips only the checksum
    comparison (magic, version and payload bounds are always checked): the
    mode for stores that ran a whole-file CRC sweep at open time
    (:class:`~repro.storage.mmapstore.MmapPageStore`) and must not pay the
    checksum on every steady-state read.
    """
    if len(page) < PAGE_HEADER_SIZE:
        raise PageCorruptionError(
            f"page truncated to {len(page)} bytes", page_id
        )
    magic, version, kind, level, entry_count, payload_len, crc, lsn = (
        _HEADER.unpack_from(page, 0)
    )
    if magic != PAGE_MAGIC:
        raise PageCorruptionError(f"bad magic 0x{magic:08x}", page_id)
    if version != PAGE_FORMAT_VERSION:
        raise PageCorruptionError(f"unsupported format version {version}", page_id)
    if payload_len > len(page) - PAGE_HEADER_SIZE:
        raise PageCorruptionError(
            f"payload length {payload_len} exceeds page", page_id
        )
    if verify_crc:
        # Verify over the page's *actual* header bytes (only the CRC field
        # zeroed), not a re-packed header: re-packing would regenerate the
        # pad bytes as zeros and let a flip there go unnoticed.  The CRC is
        # chained over slices so buffer views need no concatenation copy.
        actual = zlib.crc32(page[:16])
        actual = zlib.crc32(b"\x00\x00\x00\x00", actual)
        actual = zlib.crc32(page[20:PAGE_HEADER_SIZE], actual)
        actual = zlib.crc32(page[PAGE_HEADER_SIZE:], actual) & 0xFFFFFFFF
        if actual != crc:
            raise PageCorruptionError("CRC32 mismatch", page_id)
    header = PageHeader(kind, level, entry_count, payload_len, crc, lsn, version)
    return header, page[PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + payload_len]

FLOAT_SIZE = 4
OID_SIZE = 4
PAGE_ID_SIZE = 4

KD_INTERNAL_SIZE = 2 + FLOAT_SIZE + FLOAT_SIZE + 2 + 2
"""Split dim (u16) + lsp (f32) + rsp (f32) + two intranode offsets (u16):
the first and one-past-last leaf rows of the split's subtree."""

KD_LEAF_SIZE = PAGE_ID_SIZE
"""A kd-tree leaf is just the child page pointer."""


@dataclass(frozen=True)
class PageLayout:
    """Byte budget of a page: total size and the space usable for entries."""

    page_size: int = DEFAULT_PAGE_SIZE
    header_size: int = PAGE_HEADER_SIZE

    def __post_init__(self) -> None:
        if self.page_size <= self.header_size:
            raise ValueError(
                f"page_size ({self.page_size}) must exceed header_size ({self.header_size})"
            )

    @property
    def usable(self) -> int:
        """Bytes available to entries after the header."""
        return self.page_size - self.header_size


DATA_PAYLOAD_HEADER_SIZE = 5
"""Bytes the serialized data-node payload spends before the entries
(``u8 kind + u16 count + u16 dims``, see :mod:`repro.storage.serialization`).
The capacity model must reserve them: an exactly-full data node is a legal,
reachable state (inserts fill to capacity before splitting), and without
this reservation its encoding exceeded the page by exactly these bytes."""


def data_node_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Maximum number of (vector, oid) entries a data page can hold.

    One entry costs ``dims * 4 + 4`` bytes, after reserving the serialized
    payload's own header (:data:`DATA_PAYLOAD_HEADER_SIZE`).  Identical for
    every index structure: data pages always store raw feature vectors.
    """
    layout = layout or PageLayout()
    entry = dims * FLOAT_SIZE + OID_SIZE
    capacity = (layout.usable - DATA_PAYLOAD_HEADER_SIZE) // entry
    if capacity < 2:
        raise ValueError(
            f"page of {layout.page_size} bytes cannot hold 2 entries of {dims} dims"
        )
    return capacity


def kdtree_node_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Maximum number of children of a kd-tree-organised index node.

    A node with ``c`` children stores ``c - 1`` kd internal nodes and ``c``
    kd leaves, so the budget constraint is
    ``(c - 1) * KD_INTERNAL_SIZE + c * KD_LEAF_SIZE <= usable``.

    The result does not depend on ``dims`` — the paper's headline property.
    ``dims`` is accepted (and ignored) so that all capacity functions share a
    signature.
    """
    del dims  # fanout is dimension-independent by construction
    layout = layout or PageLayout()
    capacity = (layout.usable + KD_INTERNAL_SIZE) // (KD_INTERNAL_SIZE + KD_LEAF_SIZE)
    return max(capacity, 2)


def rtree_node_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Maximum children of an R-tree node: entry = bounding box + pointer.

    One entry costs ``2 * dims * 4 + 4`` bytes (low and high corner per
    dimension), so fanout decreases linearly with dimensionality.
    """
    layout = layout or PageLayout()
    entry = 2 * dims * FLOAT_SIZE + PAGE_ID_SIZE
    return max(layout.usable // entry, 2)


def sstree_node_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Maximum children of an SS-tree node: entry = centroid + radius + ptr.

    One entry costs ``dims * 4 + 4 + 4`` bytes.
    """
    layout = layout or PageLayout()
    entry = dims * FLOAT_SIZE + FLOAT_SIZE + PAGE_ID_SIZE
    return max(layout.usable // entry, 2)


def srtree_node_capacity(dims: int, layout: PageLayout | None = None) -> int:
    """Maximum children of an SR-tree node: entry = sphere + rect + ptr.

    Katayama & Satoh store both a bounding sphere (centroid + radius) and a
    bounding rectangle per entry: ``dims*4 + 4 + 2*dims*4 + 4`` bytes.  This
    is why the SR-tree has the lowest fanout of all structures at high
    dimensionality (e.g. 5 children at 64-d on 4K pages).
    """
    layout = layout or PageLayout()
    entry = dims * FLOAT_SIZE + FLOAT_SIZE + 2 * dims * FLOAT_SIZE + PAGE_ID_SIZE
    return max(layout.usable // entry, 2)


def sequential_scan_pages(count: int, dims: int, layout: PageLayout | None = None) -> int:
    """Number of pages a linear scan of ``count`` ``dims``-d vectors reads.

    This is the paper's denominator for the normalized I/O cost:
    ``ceil(num_tuples * tuple_size / page_size)`` with densely packed pages.
    """
    layout = layout or PageLayout()
    per_page = data_node_capacity(dims, layout)
    return -(-count // per_page)  # ceil division
