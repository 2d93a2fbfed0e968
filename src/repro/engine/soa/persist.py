"""Serialize a :class:`SOASnapshot` to a flat, mmap-friendly byte section.

Framing (all integers little-endian)::

    offset 0   4 bytes   magic b"SOA1"
    offset 4   4 bytes   header length H (uint32)
    offset 8   H bytes   header JSON (utf-8)
    ...        padding   zero bytes up to the first 64-byte boundary
    ...        arrays    each array's raw bytes, 64-byte aligned

The header JSON records the snapshot scalars (``kind``, ``dims``,
``dedup``, ``supports_box``) and one descriptor per array —
``{name, dtype, shape, offset}`` with ``offset`` relative to the start of
the section.  Alignment to 64 bytes keeps every array cacheline-aligned
when the section itself starts on a page boundary, which it does in the
single-file format (``HybridTree.save`` writes it as whole pages).

:func:`deserialize_snapshot` builds the arrays with ``np.frombuffer``
directly over the supplied buffer — zero-copy when the buffer is an
``mmap`` view, so parallel query workers share one physical copy of the
snapshot.  Integrity is the caller's job: the single-file format stores a
CRC32 of the section in the superblock manifest and verifies it before
deserializing (a mismatch degrades to the object-walk kernel rather than
failing the open).

Only ``array_only`` snapshots (rect-bounded kinds) can be persisted: the
``edges`` kind evaluates pruning through live ``ChildBound`` objects,
which have no array form (see :mod:`repro.engine.soa.snapshot`).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.engine.soa.snapshot import SOASnapshot

__all__ = ["SNAPSHOT_SECTION_VERSION", "serialize_snapshot", "deserialize_snapshot"]

SNAPSHOT_SECTION_VERSION = 1

_MAGIC = b"SOA1"
_ALIGN = 64

#: Arrays persisted in this order; optional ones are skipped when None.
_ARRAY_FIELDS = (
    "node_ref",
    "node_is_leaf",
    "node_pages",
    "child_start",
    "leaf_start",
    "leaf_end",
    "edge_child",
    "box_low",
    "box_high",
    "dist_low",
    "dist_high",
    "points",
    "oids",
)


class SnapshotFormatError(ValueError):
    """The byte section is not a well-formed snapshot."""


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def serialize_snapshot(snap: SOASnapshot) -> bytearray:
    """Pack ``snap`` into one contiguous byte section.

    The section is allocated once at its final size and each array copied
    into place, so serializing holds one copy of the arrays, not three."""
    if not snap.array_only:
        raise ValueError(
            f"snapshot kind {snap.kind!r} needs live bound objects and "
            "cannot be persisted; only rect-bounded kinds serialize"
        )
    descriptors = []
    arrays = []
    for name in _ARRAY_FIELDS:
        arr = getattr(snap, name)
        if arr is None:
            continue
        arr = np.ascontiguousarray(arr)
        descriptors.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                # Offset patched below, once the header size is known.
                "offset": 0,
            }
        )
        arrays.append(arr)

    # Two passes: descriptor offsets change the header length, which
    # changes the offsets.  Padding the header to alignment first makes the
    # layout insensitive to the exact digit counts in the offsets — one
    # re-encode always converges.
    header = {
        "version": SNAPSHOT_SECTION_VERSION,
        "kind": snap.kind,
        "dims": snap.dims,
        "dedup": snap.dedup,
        "supports_box": snap.supports_box,
        "arrays": descriptors,
    }
    for _ in range(4):
        encoded = json.dumps(header, separators=(",", ":")).encode()
        pos = _align(len(_MAGIC) + 4 + len(encoded))
        changed = False
        for desc, arr in zip(descriptors, arrays):
            if desc["offset"] != pos:
                desc["offset"] = pos
                changed = True
            pos = _align(pos + arr.nbytes)
        if not changed:
            break
    else:  # pragma: no cover - offsets always converge in two passes
        raise AssertionError("snapshot header layout did not converge")

    head = len(_MAGIC) + 4 + len(encoded)
    total = descriptors[-1]["offset"] + arrays[-1].nbytes if arrays else head
    out = bytearray(total)
    out[: len(_MAGIC)] = _MAGIC
    struct.pack_into("<I", out, len(_MAGIC), len(encoded))
    out[len(_MAGIC) + 4 : head] = encoded
    flat = np.frombuffer(out, dtype=np.uint8)
    for desc, arr in zip(descriptors, arrays):
        flat[desc["offset"] : desc["offset"] + arr.nbytes] = arr.reshape(-1).view(np.uint8)
    return out


def deserialize_snapshot(buf) -> SOASnapshot:
    """Rebuild a snapshot over ``buf`` (bytes / memoryview) without copying.

    The returned arrays alias ``buf``; keep the underlying mapping alive
    for the snapshot's lifetime.  Raises :class:`SnapshotFormatError` on
    structural problems (bad magic, truncated section, unknown version).
    """
    view = memoryview(buf)
    if len(view) < 8 or bytes(view[:4]) != _MAGIC:
        raise SnapshotFormatError("bad snapshot magic")
    (header_len,) = struct.unpack("<I", view[4:8])
    if 8 + header_len > len(view):
        raise SnapshotFormatError("truncated snapshot header")
    try:
        header = json.loads(bytes(view[8 : 8 + header_len]))
    except ValueError as exc:
        raise SnapshotFormatError(f"unparseable snapshot header: {exc}") from exc
    if header.get("version") != SNAPSHOT_SECTION_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {header.get('version')!r}"
        )

    arrays: dict[str, np.ndarray] = {}
    for desc in header["arrays"]:
        dtype = np.dtype(desc["dtype"])
        shape = tuple(desc["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = desc["offset"] + count * dtype.itemsize
        if end > len(view):
            raise SnapshotFormatError(
                f"array {desc['name']!r} extends past the section end"
            )
        arr = np.frombuffer(view, dtype=dtype, count=count, offset=desc["offset"])
        arrays[desc["name"]] = arr.reshape(shape)

    required = (
        "node_ref",
        "node_is_leaf",
        "node_pages",
        "child_start",
        "leaf_start",
        "leaf_end",
        "edge_child",
        "points",
        "oids",
    )
    missing = [name for name in required if name not in arrays]
    if missing:
        raise SnapshotFormatError(f"snapshot section missing arrays: {missing}")

    return SOASnapshot(
        kind=header["kind"],
        dims=int(header["dims"]),
        dedup=bool(header["dedup"]),
        supports_box=bool(header["supports_box"]),
        node_ref=arrays["node_ref"],
        node_is_leaf=arrays["node_is_leaf"],
        node_pages=arrays["node_pages"],
        child_start=arrays["child_start"],
        leaf_start=arrays["leaf_start"],
        leaf_end=arrays["leaf_end"],
        edge_child=arrays["edge_child"],
        box_low=arrays.get("box_low"),
        box_high=arrays.get("box_high"),
        dist_low=arrays.get("dist_low"),
        dist_high=arrays.get("dist_high"),
        points=arrays["points"],
        oids=arrays["oids"],
    )
