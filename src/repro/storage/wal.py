"""Write-ahead logging over the CRC-framed page format.

A WAL-enabled tree (``HybridTree.open(path, wal=True)``) appends every
mutation to a sidecar log at ``<path>.wal`` *before* the pages change in
memory-visible storage, and fsyncs with group commit.  The saved tree file
stays the checkpoint: replaying the log over it reconstructs the committed
state after a crash at any point, and :meth:`~repro.core.hybridtree.HybridTree.checkpoint`
folds the log into a fresh superblock through the existing atomic
tmp+rename save.

On-disk layout — an append-only stream of CRC-framed, LSN-stamped records::

    [HEADER record]  JSON: wal format, page size, base-file generation
    [PAGE   record]* full framed page image for one page id
    [COMMIT record]  transaction metadata (ELS deltas, bounds, count,
                     root/height, allocator state) — the commit point
    [PAGE ...] [COMMIT ...] ...

A COMMIT payload (format 2, :func:`encode_commit` / :func:`decode_commit`)
keeps its floats out of text::

    0x02 | u32 head length | JSON head | float64 rows (little-endian)

The JSON head holds every scalar and list field (``kind``, ``count``,
``root_id``, ``height``, ``free_ids``, ``next_id``, ...).  The bounding box
and the ELS boxes are raw float64 rows after it, in the order the head
lists them: ``"bounds": 1`` means the first two rows are the bounds' low
and high corners, and ``"els"`` lists the node ids whose live box
(low row, high row) follows, in order; ``"els_dropped"`` lists the ids
whose entry was dropped.  The rows copy the floats bit for bit (``-0.0``,
subnormals) in 8 bytes each, where their decimal text took about 20.  A
format-1 payload — the whole metadata as one JSON object, so its first
byte is ``{`` — still decodes, so a log written before format 2 replays.

Every record carries a 32-byte header (magic, type, LSN, page id, payload
length) and a CRC32 over header+payload, so torn tails and bit flips are
detected exactly like torn pages in the main file.  Recovery semantics are
*old-or-new at transaction granularity*: replay applies complete
transactions in order and discards everything at and after the first
record that fails to verify — a kill at any byte boundary recovers the
state after the last wholly-durable commit.

The HEADER record pins the log to one generation of the base file.  A
checkpoint publishes the new superblock first (atomic rename, generation
+1) and resets the log second; if the process dies between the two steps,
the stale log's generation no longer matches and replay ignores it — the
new checkpoint already contains everything the log did.

Group commit: :meth:`WriteAheadLog.commit` durably flushes every record
appended so far.  Concurrent committers coalesce — the first becomes the
fsync leader for everything appended up to that instant, the rest wait on
the flushed LSN — so ``k`` threads committing together cost one fsync,
not ``k`` (``sync_count`` vs ``commit_count`` expose the ratio).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.storage.errors import PageCorruptionError
from repro.storage.page import unframe_page

WAL_MAGIC = 0x4C415748  # "HWAL"
WAL_FORMAT = 2

REC_HEADER = 0
"""First record of every log: JSON ``{"format", "page_size", "base_generation"}``."""
REC_PAGE = 1
"""A full framed page image; ``page_id`` names its slot in the tree file."""
REC_COMMIT = 2
"""Transaction commit point; payload is the metadata delta
(:func:`encode_commit`)."""

_RECORD = struct.Struct("<IBxxxQqII")  # magic, type, lsn, page_id, len, crc
RECORD_HEADER_SIZE = _RECORD.size
assert RECORD_HEADER_SIZE == 32


def _record_crc(bare_header: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bare_header)) & 0xFFFFFFFF


def frame_record(rec_type: int, lsn: int, payload: bytes, page_id: int = -1) -> bytes:
    """Wrap ``payload`` into a self-checking WAL record (header + CRC32)."""
    bare = _RECORD.pack(WAL_MAGIC, rec_type, lsn, page_id, len(payload), 0)
    crc = _record_crc(bare, payload)
    header = _RECORD.pack(WAL_MAGIC, rec_type, lsn, page_id, len(payload), crc)
    return header + payload


_COMMIT_TAG = 0x02
_COMMIT_HEAD = struct.Struct("<BI")  # tag, JSON head length


def encode_commit(meta: dict) -> bytes:
    """The COMMIT payload for ``meta`` (format 2; see the module docstring).

    ``meta["bounds"]`` is a ``(low, high)`` pair of float vectors and
    ``meta["els"]`` maps node ids to a ``(low, high)`` pair or ``None``
    (a dropped entry); both are optional.  Every other field goes into the
    JSON head as it is."""
    head = {key: val for key, val in meta.items() if key not in ("bounds", "els")}
    rows: list = []
    if "bounds" in meta:
        head["bounds"] = 1
        rows.extend(meta["bounds"])
    if "els" in meta:
        kept, dropped = [], []
        for node_id, box in meta["els"].items():
            if box is None:
                dropped.append(int(node_id))
            else:
                kept.append(int(node_id))
                rows.extend(box)
        head["els"] = kept
        head["els_dropped"] = dropped
    text = json.dumps(head, sort_keys=True).encode()
    floats = np.asarray(rows, dtype="<f8").tobytes() if rows else b""
    return _COMMIT_HEAD.pack(_COMMIT_TAG, len(text)) + text + floats


def decode_commit(payload: bytes) -> dict:
    """Inverse of :func:`encode_commit`, also for a format-1 (JSON) payload.

    Either way the result has the format-1 shape: ``"bounds"`` is
    ``[low, high]``, ``"els"`` maps ``str(node_id)`` to ``[low, high]`` or
    ``None``, with every vector a float64 array.  A malformed payload
    raises ``ValueError``."""
    if payload[:1] == b"{":
        meta = json.loads(payload.decode())
        if "bounds" in meta:
            meta["bounds"] = [np.asarray(v, dtype=np.float64) for v in meta["bounds"]]
        if "els" in meta:
            meta["els"] = {
                key: None if box is None else [np.asarray(v, dtype=np.float64) for v in box]
                for key, box in meta["els"].items()
            }
        return meta
    if len(payload) < _COMMIT_HEAD.size or payload[0] != _COMMIT_TAG:
        raise ValueError("not a WAL commit payload")
    _, length = _COMMIT_HEAD.unpack_from(payload)
    start = _COMMIT_HEAD.size + length
    meta = json.loads(payload[_COMMIT_HEAD.size : start].decode())
    kept = meta.pop("els", None)
    dropped = meta.pop("els_dropped", [])
    count = 2 * (int(meta.get("bounds", 0)) + len(kept or ()))
    flat = np.frombuffer(payload, dtype="<f8", offset=start).astype(np.float64)
    if count == 0 and flat.size:
        raise ValueError("WAL commit payload has stray float rows")
    rows = list(flat.reshape(count, -1)) if count else []
    if "bounds" in meta:
        meta["bounds"] = rows[:2]
        rows = rows[2:]
    if kept is not None:
        meta["els"] = {
            str(node_id): rows[2 * i : 2 * i + 2] for i, node_id in enumerate(kept)
        }
        meta["els"].update((str(node_id), None) for node_id in dropped)
    return meta


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record (see the module docstring for the stream)."""

    type: int
    lsn: int
    page_id: int
    payload: bytes
    offset: int
    """Byte offset of the record header in the log file."""

    @property
    def end_offset(self) -> int:
        return self.offset + RECORD_HEADER_SIZE + len(self.payload)


@dataclass
class WalScan:
    """Everything :func:`scan_wal` learned about a log file."""

    path: str
    header: dict | None = None
    records: list[WalRecord] = field(default_factory=list)
    """Records of complete transactions only, in LSN order (header excluded)."""
    transactions: int = 0
    last_lsn: int = 0
    committed_bytes: int = 0
    """Log prefix length covered by complete transactions (replay horizon)."""
    truncated_reason: str | None = None
    """Why scanning stopped early (torn tail, CRC mismatch), or None."""
    discarded_records: int = 0
    """Intact records after the last commit (an in-flight transaction)."""


def scan_wal(path: str | os.PathLike) -> WalScan:
    """Read and verify a log file, stopping at the first torn/corrupt record.

    Never raises on corruption: a bad record simply ends the usable stream
    (``truncated_reason`` says why), and any intact records after the last
    COMMIT are reported as discarded — exactly what replay will do.
    """
    path = os.fspath(path)
    scan = WalScan(path=path)
    with open(path, "rb") as f:
        data = f.read()
    offset = 0
    pending: list[WalRecord] = []
    while offset < len(data):
        if offset + RECORD_HEADER_SIZE > len(data):
            scan.truncated_reason = f"torn record header at byte {offset}"
            break
        magic, rec_type, lsn, page_id, length, crc = _RECORD.unpack_from(data, offset)
        if magic != WAL_MAGIC:
            scan.truncated_reason = f"bad magic 0x{magic:08x} at byte {offset}"
            break
        end = offset + RECORD_HEADER_SIZE + length
        if end > len(data):
            scan.truncated_reason = f"torn record payload at byte {offset}"
            break
        payload = data[offset + RECORD_HEADER_SIZE : end]
        bare = _RECORD.pack(magic, rec_type, lsn, page_id, length, 0)
        if _record_crc(bare, payload) != crc:
            scan.truncated_reason = f"record CRC32 mismatch at byte {offset}"
            break
        record = WalRecord(rec_type, lsn, page_id, payload, offset)
        if rec_type == REC_HEADER:
            if scan.header is not None or offset != 0:
                scan.truncated_reason = f"stray header record at byte {offset}"
                break
            try:
                scan.header = json.loads(payload.decode())
            except ValueError:
                scan.truncated_reason = "undecodable header record"
                break
        elif scan.header is None:
            scan.truncated_reason = "log does not start with a header record"
            break
        elif rec_type == REC_PAGE:
            pending.append(record)
        elif rec_type == REC_COMMIT:
            pending.append(record)
            scan.records.extend(pending)
            pending.clear()
            scan.transactions += 1
            scan.last_lsn = lsn
            scan.committed_bytes = record.end_offset
        else:
            scan.truncated_reason = f"unknown record type {rec_type} at byte {offset}"
            break
        offset = record.end_offset
    scan.discarded_records = len(pending)
    if scan.header is not None and scan.committed_bytes == 0:
        # An intact header still marks a valid (empty) log.
        scan.committed_bytes = RECORD_HEADER_SIZE + len(
            json.dumps(scan.header, sort_keys=True).encode()
        )
    return scan


def committed_transactions(scan: WalScan):
    """Group a scan's records into ``[(page_records, commit_record), ...]``."""
    out = []
    pages: list[WalRecord] = []
    for record in scan.records:
        if record.type == REC_PAGE:
            pages.append(record)
        else:
            out.append((pages, record))
            pages = []
    return out


class WriteAheadLog:
    """Append-only, group-committed log of tree mutations.

    One writer appends (``append_page`` / ``append_commit``); any number of
    threads may call :meth:`commit` — flushes coalesce onto a single fsync
    leader.  The log is pinned to ``base_generation`` of the checkpoint it
    extends; :meth:`reset` re-pins it after the next checkpoint.
    """

    def __init__(self, path: str | os.PathLike, page_size: int, base_generation: int):
        self.path = os.fspath(path)
        self.page_size = page_size
        self.base_generation = int(base_generation)
        self.commit_count = 0
        self.sync_count = 0
        self._cond = threading.Condition()
        self._appended_lsn = 0
        self._flushed_lsn = 0
        self._flushing = False
        existing = scan_wal(self.path) if os.path.exists(self.path) else None
        if (
            existing is not None
            and existing.header is not None
            and int(existing.header.get("base_generation", -1)) == self.base_generation
            and existing.header.get("page_size") == page_size
        ):
            # Continue an existing log: drop any torn/uncommitted tail so
            # new records append right after the last durable commit.
            self._file = open(self.path, "r+b")
            self._file.truncate(existing.committed_bytes)
            self._file.seek(existing.committed_bytes)
            self._appended_lsn = self._flushed_lsn = existing.last_lsn
        else:
            self._file = open(self.path, "w+b")
            self._write_header()

    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        payload = json.dumps(
            {
                "format": WAL_FORMAT,
                "page_size": self.page_size,
                "base_generation": self.base_generation,
            },
            sort_keys=True,
        ).encode()
        self._file.write(frame_record(REC_HEADER, 0, payload))
        self._file.flush()
        os.fsync(self._file.fileno())

    @property
    def last_lsn(self) -> int:
        return self._appended_lsn

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self.path)

    # ------------------------------------------------------------------
    # Appending (single writer)
    # ------------------------------------------------------------------
    def append_page(self, page_id: int, page: bytes) -> int:
        """Log a full page image; returns the record's LSN (not yet durable)."""
        return self._append(REC_PAGE, bytes(page), page_id)

    def append_commit(self, meta: dict) -> int:
        """Log the commit record closing the current transaction
        (``meta`` as :func:`encode_commit` takes it)."""
        return self._append(REC_COMMIT, encode_commit(meta))

    def _append(self, rec_type: int, payload: bytes, page_id: int = -1) -> int:
        with self._cond:
            self._appended_lsn += 1
            lsn = self._appended_lsn
            self._file.write(frame_record(rec_type, lsn, payload, page_id))
        return lsn

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Make every record appended so far durable; returns the LSN covered.

        The first committer to arrive becomes the flush leader and fsyncs on
        behalf of everyone waiting; late arrivals whose LSN is already
        covered return without touching the disk at all.
        """
        with self._cond:
            self.commit_count += 1
            target = self._appended_lsn
            while self._flushed_lsn < target:
                if not self._flushing:
                    self._flushing = True
                    break
                self._cond.wait()
            else:
                return target
        # Leader, outside the lock: flush everything appended up to now.
        try:
            with self._cond:
                covered = self._appended_lsn
            self._file.flush()
            os.fsync(self._file.fileno())
            self.sync_count += 1
        finally:
            with self._cond:
                self._flushed_lsn = max(self._flushed_lsn, covered)
                self._flushing = False
                self._cond.notify_all()
        return target

    # ------------------------------------------------------------------
    # Checkpoint / lifecycle
    # ------------------------------------------------------------------
    def reset(self, base_generation: int, path: str | os.PathLike | None = None) -> None:
        """Empty the log and re-pin it to a fresh checkpoint generation.

        Called *after* the checkpoint's atomic rename published the new
        superblock; a crash before this call leaves a stale-generation log
        that replay ignores.  ``path`` moves the log (a save to a new
        location carries its WAL along).
        """
        with self._cond:
            if path is not None and os.fspath(path) != self.path:
                self._file.close()
                try:
                    os.remove(self.path)
                except OSError:
                    pass
                self.path = os.fspath(path)
                self._file = open(self.path, "w+b")
            self.base_generation = int(base_generation)
            self._file.seek(0)
            self._file.truncate(0)
            self._write_header()
            self._appended_lsn = 0
            self._flushed_lsn = 0

    def close(self) -> None:
        with self._cond:
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def wal_path_for(tree_path: str | os.PathLike) -> str:
    """The sidecar log location for a saved tree file."""
    return os.fspath(tree_path) + ".wal"


def usable_scan(tree_path: str | os.PathLike, generation: int) -> WalScan | None:
    """Scan the tree's sidecar log, if one exists and extends ``generation``.

    Returns ``None`` when there is no log, the log is unreadable, or it is
    pinned to a different base-file generation (a completed checkpoint made
    it stale) — in every such case the tree file alone is the truth.
    """
    path = wal_path_for(tree_path)
    if not os.path.exists(path):
        return None
    scan = scan_wal(path)
    if scan.header is None:
        return None
    if int(scan.header.get("base_generation", -1)) != int(generation):
        return None
    return scan


def apply_scan(scan: WalScan, store, page_size: int) -> dict:
    """Replay a scan's complete transactions into ``store`` (uncharged
    writes), returning the final merged commit metadata.

    Page images are frame-verified before they are written (a record CRC
    already covers them; the page frame check additionally confirms the
    image is a well-formed page).  The returned dict is the union of all
    commit metadata in order, so the caller can apply the *final* count,
    root, bounds and allocator state, plus the accumulated ELS delta.
    """
    merged: dict = {"els": {}}
    for pages, commit in committed_transactions(scan):
        for record in pages:
            if len(record.payload) != page_size:
                raise PageCorruptionError(
                    f"WAL page image of {len(record.payload)} bytes "
                    f"(page size {page_size})",
                    record.page_id,
                )
            unframe_page(record.payload, record.page_id)
            store.ensure_allocated(record.page_id)
            store.write(record.page_id, record.payload, charge=False)
        meta = decode_commit(commit.payload)
        els = merged["els"]
        els.update(meta.pop("els", {}))
        merged.update(meta)
        merged["els"] = els
    return merged
