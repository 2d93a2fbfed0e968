"""Serialize a :class:`SOASnapshot` to a flat, mmap-friendly byte section.

Framing (all integers little-endian)::

    offset 0   4 bytes   magic b"SOA1"
    offset 4   4 bytes   header length H (uint32)
    offset 8   H bytes   header JSON (utf-8)
    ...        padding   zero bytes up to the first 64-byte boundary
    ...        arrays    each array's raw bytes, 64-byte aligned

The header JSON records the snapshot's ``dims``, three scalars fixed for
every snapshot this version writes (``"kind": "rect"``, ``"dedup": false``,
``"supports_box": true``; a section that says otherwise is rejected), and
one descriptor per array — ``{name, dtype, shape, offset}`` with
``offset`` relative to the start of the section.  Alignment to 64 bytes
keeps every array cacheline-aligned when the section itself starts on a
page boundary, which it does in the single-file format
(``HybridTree.save`` writes it as whole pages).

:func:`deserialize_snapshot` builds the arrays with ``np.frombuffer``
directly over the supplied buffer — zero-copy when the buffer is an
``mmap`` view, so parallel query workers share one physical copy of the
snapshot.  Integrity is the caller's job: the single-file format stores a
CRC32 of the section in the superblock manifest and verifies it before
deserializing (a mismatch degrades to the object-walk kernel rather than
failing the open).  Every structural fault a CRC cannot catch — a bad
magic, a truncated section, an unparseable or incomplete header, a missing
array or one whose shape contradicts the others — raises
:class:`SnapshotFormatError`, which the open path and ``repro fsck`` treat
the same way.
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

#: Arrays persisted in this order; every one is required on load.
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
    descriptors = []
    arrays = []
    for name in _ARRAY_FIELDS:
        arr = np.ascontiguousarray(getattr(snap, name))
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
        "kind": "rect",
        "dims": snap.dims,
        "dedup": False,
        "supports_box": True,
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
    total = descriptors[-1]["offset"] + arrays[-1].nbytes
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
    every structural problem (bad magic, truncated section, unknown
    version, a header field or array missing, malformed or of a shape the
    others contradict).
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
    if not isinstance(header, dict):
        raise SnapshotFormatError("snapshot header is not a JSON object")
    if header.get("version") != SNAPSHOT_SECTION_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {header.get('version')!r}"
        )
    for key, want in (("kind", "rect"), ("dedup", False), ("supports_box", True)):
        if header.get(key) != want:
            raise SnapshotFormatError(
                f"snapshot header {key!r} is {header.get(key, 'missing')!r}, "
                f"expected {want!r}"
            )
    try:
        dims = int(header["dims"])
        arrays = _arrays(view, header["arrays"])
    except SnapshotFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"malformed snapshot header: {exc!r}") from exc
    missing = [name for name in _ARRAY_FIELDS if name not in arrays]
    if missing:
        raise SnapshotFormatError(f"snapshot section missing arrays: {missing}")
    # Every array's shape follows from the node, edge and point counts.
    n, e, p = len(arrays["node_ref"]), len(arrays["edge_child"]), len(arrays["oids"])
    shapes = dict.fromkeys(
        ("node_ref", "node_is_leaf", "node_pages", "leaf_start", "leaf_end"), (n,)
    )
    shapes.update(
        child_start=(n + 1,), edge_child=(e,), box_low=(e, dims), box_high=(e, dims),
        points=(p, dims), oids=(p,),
    )
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise SnapshotFormatError(
                f"snapshot array {name!r} has shape {arrays[name].shape}, expected {shape}"
            )
    return SOASnapshot(dims=dims, **{name: arrays[name] for name in _ARRAY_FIELDS})


def _arrays(view: memoryview, descriptors) -> dict[str, np.ndarray]:
    """The arrays the header's descriptors place in ``view``, by name."""
    arrays: dict[str, np.ndarray] = {}
    for desc in descriptors:
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
    return arrays
