"""Offline integrity checking (fsck) and salvage for saved tree files.

Two levels of defence against at-rest corruption:

- :func:`verify` is the fsck: it re-derives everything the superblock
  claims — per-page CRC32 frames, reachability of every node page from
  the root, agreement between the reachability holes and the persisted
  free list, and the checksum-of-checksums — and reports every
  discrepancy instead of stopping at the first.
- :func:`salvage` is the disaster path: when the index structure (or the
  superblock itself) is damaged, it scavenges every data page whose frame
  still verifies, and rebuilds a fresh tree from the recovered
  ``(vector, oid)`` entries via bulk load.  Index pages carry no unique
  state, so a tree salvaged this way is complete up to the data pages
  actually lost.

Both operate on the file directly (no live tree needed) and are wired to
``repro fsck`` / ``repro salvage`` in the CLI.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.storage.errors import PageCorruptionError, RecoveryError
from repro.storage.page import (
    PAGE_KIND_BLOB,
    PAGE_KIND_DATA,
    PAGE_KIND_INDEX,
    PAGE_KIND_SUPERBLOCK,
    PageLayout,
    VerifiedPage,
    data_node_capacity,
    unframe_page,
)
from repro.storage.superblock import (
    _CANDIDATE_PAGE_SIZES,
    checksum_of_checksums,
    read_blob,
    read_superblock,
)

_KIND_NAMES = {
    PAGE_KIND_DATA: "data",
    PAGE_KIND_INDEX: "index",
    PAGE_KIND_BLOB: "blob",
    PAGE_KIND_SUPERBLOCK: "superblock",
}


@dataclass
class FsckReport:
    """Everything :func:`verify` learned about a saved tree file."""

    path: str
    page_size: int | None = None
    page_count: int | None = None
    file_pages: int | None = None
    generation: int | None = None
    root_id: int | None = None
    count: int | None = None
    reachable_pages: int = 0
    free_pages: int = 0
    corrupt_pages: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # Problems confined to the optional SOA snapshot section.  Kept out of
    # ``errors`` deliberately: a corrupt snapshot only degrades queries to
    # the object-walk kernel (open() drops it), it does not make the tree
    # itself unsafe to open — so ``ok`` stays True.
    snapshot_errors: list[str] = field(default_factory=list)
    has_snapshot: bool = False
    # Sidecar write-ahead log (``<path>.wal``), when one exists.  A stale
    # or torn log is *normal* (a completed checkpoint, a killed writer) —
    # replay ignores/truncates it — so notes never flip ``ok``; only a
    # committed record whose page image fails its frame check does, since
    # replay on open would raise on it.
    wal_path: str | None = None
    wal_stale: bool = False
    wal_transactions: int = 0
    wal_discarded_records: int = 0
    wal_notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        lines = [f"fsck {self.path}: {'clean' if self.ok else 'CORRUPT'}"]
        if self.page_size is not None:
            lines.append(
                f"  page_size={self.page_size} node_pages={self.page_count} "
                f"file_pages={self.file_pages} generation={self.generation}"
            )
            lines.append(
                f"  root={self.root_id} objects={self.count} "
                f"reachable={self.reachable_pages} free={self.free_pages}"
            )
        if self.has_snapshot:
            lines.append(
                "  soa snapshot: "
                + ("CORRUPT (queries degrade to the object-walk kernel)"
                   if self.snapshot_errors else "clean")
            )
        if self.wal_path is not None:
            if self.wal_stale:
                lines.append(f"  wal {self.wal_path}: stale (ignored on open)")
            else:
                lines.append(
                    f"  wal {self.wal_path}: {self.wal_transactions} committed "
                    f"transaction(s) replayed on open, "
                    f"{self.wal_discarded_records} uncommitted record(s) discarded"
                )
            for note in self.wal_notes:
                lines.append(f"  wal: {note}")
        for err in self.errors:
            lines.append(f"  error: {err}")
        for err in self.snapshot_errors:
            lines.append(f"  snapshot: {err}")
        return "\n".join(lines)


@dataclass
class SalvageReport:
    """What :func:`salvage` recovered (the rebuilt tree rides along)."""

    path: str
    page_size: int
    dims: int
    pages_scanned: int
    data_pages_recovered: int
    objects_recovered: int
    expected_objects: int | None = None
    out_path: str | None = None
    tree: object | None = None
    snapshot_dropped: bool = False
    wal_transactions: int = 0
    wal_pages_applied: int = 0

    def render(self) -> str:
        lines = [
            f"salvage {self.path}: recovered {self.objects_recovered} objects "
            f"from {self.data_pages_recovered} intact data pages "
            f"({self.pages_scanned} pages scanned)"
        ]
        if self.wal_transactions:
            lines.append(
                f"  write-ahead log: {self.wal_pages_applied} committed page "
                f"image(s) from {self.wal_transactions} transaction(s) "
                "took precedence over the base file"
            )
        if self.snapshot_dropped:
            lines.append(
                "  soa snapshot section dropped (recompile with "
                "compile_snapshot() and re-save)"
            )
        if self.expected_objects is not None:
            lost = self.expected_objects - self.objects_recovered
            lines.append(
                f"  manifest expected {self.expected_objects} objects "
                f"({lost} lost)" if lost else
                f"  manifest expected {self.expected_objects} objects (none lost)"
            )
        if self.out_path:
            lines.append(f"  rebuilt tree written to {self.out_path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
def verify(path: str | os.PathLike) -> FsckReport:
    """Full integrity audit of a saved tree file; never raises on
    corruption — every problem found lands in ``report.errors``.

    Checks, in order: superblock frame + manifest, blob pages (ELS/free
    list), per-page CRC of every node page, reachability of the whole
    index from the root, free-list/reachability agreement (orphans,
    free-but-referenced pages), and the checksum-of-checksums.
    """
    path = os.fspath(path)
    report = FsckReport(path=path)
    try:
        manifest, page_size = read_superblock(path)
    except (PageCorruptionError, ValueError) as exc:
        report.errors.append(f"superblock: {exc}")
        return report
    report.page_size = page_size
    report.page_count = int(manifest["page_count"])
    report.file_pages = os.path.getsize(path) // page_size
    report.generation = int(manifest.get("generation", 0))
    report.root_id = int(manifest["root_id"])
    report.count = int(manifest.get("count", 0))

    free_ids: set[int] = set()
    try:
        import io as _io

        blob = np.load(_io.BytesIO(read_blob(path, manifest, "els", page_size)))
        free_ids = {int(pid) for pid in blob["free_ids"]}
    except (PageCorruptionError, ValueError, KeyError) as exc:
        report.errors.append(f"els blob: {exc}")
    report.free_pages = len(free_ids)

    # One sequential pass over the node region reads each page once and
    # sweeps its CRC once, recording its frame header and what its decode
    # gave (children, or an error).  Holes (free pages) are zero-filled
    # and legitimately have no frame.
    page_count = report.page_count
    headers: dict[int, object] = {}
    decoded: dict[int, object] = {}
    codec = _node_codec(manifest, page_size)
    with open(path, "rb") as f:
        for pid in range(min(page_count, report.file_pages)):
            page = f.read(page_size)
            try:
                header, _ = unframe_page(page, pid)
            except PageCorruptionError as exc:
                if pid in free_ids:
                    continue  # a hole; any content is fine
                report.corrupt_pages.append(pid)
                report.errors.append(f"page {pid}: {exc.reason}")
                continue
            headers[pid] = header
            if header.kind not in (PAGE_KIND_DATA, PAGE_KIND_INDEX):
                report.errors.append(
                    f"page {pid}: unexpected kind "
                    f"{_KIND_NAMES.get(header.kind, header.kind)} in node region"
                )
            decoded[pid] = _decode_children(codec, page)
    if page_count > report.file_pages:
        report.errors.append(
            f"file truncated: manifest says {page_count} node pages, "
            f"file holds {report.file_pages}"
        )

    # Reachability: walk the recorded child ids from the root.
    reachable = _walk(manifest, decoded, report)
    report.reachable_pages = len(reachable)

    for pid in sorted(reachable & free_ids):
        report.errors.append(f"page {pid}: on the free list but reachable")
    # Orphan detection is only meaningful when the walk saw the whole
    # index: a corrupt interior page makes its entire subtree "unreachable"
    # without those pages being orphans.
    if not report.corrupt_pages:
        for pid in range(page_count):
            if pid not in reachable and pid not in free_ids:
                report.errors.append(f"page {pid}: orphaned (unreachable, not free)")

    expected_cc = manifest.get("checksum_of_checksums")
    if expected_cc is not None:
        crcs = [
            headers[pid].crc if pid in headers and pid not in free_ids else 0
            for pid in range(page_count)
        ]
        if checksum_of_checksums(crcs) != expected_cc and not report.errors:
            report.errors.append("checksum-of-checksums mismatch")

    _verify_snapshot_section(path, manifest, page_size, report)
    _verify_wal(path, page_size, report)
    return report


def _verify_wal(path: str, page_size: int, report: FsckReport) -> None:
    """Audit the sidecar write-ahead log, if one exists.

    Mirrors exactly what :meth:`HybridTree.open` will do with the log:
    a generation mismatch makes it stale (ignored), a torn tail is
    truncated at the last commit, and the committed page images are
    frame-verified — the one condition that would make replay raise, and
    therefore the one that lands in ``report.errors``.
    """
    from repro.storage import wal as wal_io

    wal_path = wal_io.wal_path_for(path)
    if not os.path.exists(wal_path):
        return
    report.wal_path = wal_path
    scan = wal_io.scan_wal(wal_path)
    if scan.header is None:
        report.wal_stale = True
        if scan.truncated_reason:
            report.wal_notes.append(scan.truncated_reason)
        return
    pinned = int(scan.header.get("base_generation", -1))
    if pinned != (report.generation or 0):
        report.wal_stale = True
        report.wal_notes.append(
            f"pinned to base generation {pinned}, file is generation "
            f"{report.generation} (a completed checkpoint left it behind)"
        )
        return
    report.wal_transactions = scan.transactions
    report.wal_discarded_records = scan.discarded_records
    if scan.truncated_reason:
        report.wal_notes.append(f"tail discarded: {scan.truncated_reason}")
    for record in scan.records:
        if record.type != wal_io.REC_PAGE:
            continue
        if len(record.payload) != page_size:
            report.errors.append(
                f"wal lsn {record.lsn}: page image is {len(record.payload)} "
                f"bytes (page size {page_size})"
            )
            continue
        try:
            unframe_page(record.payload, record.page_id)
        except PageCorruptionError as exc:
            report.errors.append(
                f"wal lsn {record.lsn} (page {record.page_id}): {exc.reason}"
            )


def _verify_snapshot_section(
    path: str, manifest: dict, page_size: int, report: FsckReport
) -> None:
    """Audit the optional SOA snapshot section (raw pages after the node
    region): CRC32 over the whole section, then a structural parse.
    Findings go into ``report.snapshot_errors`` (see the field's note)."""
    import zlib

    loc = manifest.get("soa")
    if loc is None:
        return
    report.has_snapshot = True
    try:
        start = int(loc["start"]) * page_size
        nbytes = int(loc["bytes"])
        expected_crc = int(loc["crc32"])
    except (KeyError, TypeError, ValueError) as exc:
        report.snapshot_errors.append(f"malformed manifest entry: {exc}")
        return
    with open(path, "rb") as f:
        f.seek(start)
        section = f.read(nbytes)
    if len(section) != nbytes:
        report.snapshot_errors.append(
            f"section truncated: manifest says {nbytes} bytes, "
            f"file holds {len(section)}"
        )
        return
    if zlib.crc32(section) & 0xFFFFFFFF != expected_crc:
        report.snapshot_errors.append("section CRC32 mismatch")
        return
    from repro.engine.soa.persist import SnapshotFormatError, deserialize_snapshot

    try:
        deserialize_snapshot(section)
    except SnapshotFormatError as exc:
        report.snapshot_errors.append(f"undeserializable: {exc}")


def _node_codec(manifest: dict, page_size: int):
    from repro.storage.serialization import HybridNodeCodec

    dims = int(manifest["dims"])
    capacity = data_node_capacity(dims, PageLayout(page_size=page_size))
    return HybridNodeCodec(dims, capacity, page_size, copy=False)


def _decode_children(codec, page: bytes):
    """What decoding a page whose frame verified gives the walk: its child
    ids (none for a data page), or the exception decoding raised."""
    from repro.core.nodes import IndexNode

    try:
        node = codec.decode(VerifiedPage(page))
    except (ValueError, struct.error) as exc:  # a payload too short to unpack
        return exc
    return node.child_ids() if isinstance(node, IndexNode) else []


def _walk(manifest: dict, decoded: dict[int, object], report: FsckReport) -> set[int]:
    """Reachability sweep from the root over the recorded child ids;
    decode errors of reachable pages go into the report."""
    page_count = int(manifest["page_count"])
    reachable: set[int] = set()
    stack = [int(manifest["root_id"])]
    while stack:
        pid = stack.pop()
        if pid in reachable:
            report.errors.append(f"page {pid}: referenced more than once")
            continue
        if not 0 <= pid < page_count:
            report.errors.append(f"page {pid}: child id outside node region")
            continue
        reachable.add(pid)
        children = decoded.get(pid)
        if children is None:
            continue  # no frame: already reported by the pass
        if isinstance(children, Exception):
            report.errors.append(f"page {pid}: undecodable ({children})")
            continue
        stack.extend(children)
    return reachable


# ----------------------------------------------------------------------
# salvage
# ----------------------------------------------------------------------
def _wal_salvage_state(path: str, page_size: int, manifest: dict):
    """What the sidecar WAL contributes to a salvage.

    Returns ``(overrides, excluded, transactions)``: ``overrides`` maps
    page id to the decoded ``(vectors, oids)`` of its *last* committed
    data-page image; ``excluded`` is every base-file page id whose base
    version must be ignored — pages the log rewrote as index nodes, and
    pages the final committed allocator state declares free.
    """
    from repro.storage import wal as wal_io

    overrides: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    excluded: set[int] = set()
    if not manifest:
        return overrides, excluded, 0
    scan = wal_io.usable_scan(path, int(manifest.get("generation", 0)))
    if scan is None or not scan.transactions:
        return overrides, excluded, 0
    codec = _node_codec(manifest, page_size)
    last_free: list[int] = []
    for pages, commit in wal_io.committed_transactions(scan):
        for record in pages:
            try:
                header, _ = unframe_page(record.payload, record.page_id)
            except PageCorruptionError:
                continue
            entries = None
            if header.kind == PAGE_KIND_DATA:
                entries = _data_entries(codec, record.payload)
            if entries is not None:
                overrides[record.page_id] = entries
                excluded.discard(record.page_id)
            else:  # an index page, or a data page the codec rejects (lost)
                overrides.pop(record.page_id, None)
                excluded.add(record.page_id)
        try:
            last_free = wal_io.decode_commit(commit.payload).get("free_ids", last_free)
        except ValueError:
            pass
    for pid in last_free:
        overrides.pop(int(pid), None)
        excluded.add(int(pid))
    return overrides, excluded, scan.transactions


def _data_entries(codec, page: bytes):
    """``(vectors, oids)`` of a data page whose frame verified, decoded by
    the node codec (views into ``page``), or None when the codec rejects
    its payload: a count beyond the capacity, a length that does not
    match it, or dims other than the codec's."""
    try:
        node = codec.decode(VerifiedPage(page))
    except (ValueError, struct.error):
        return None
    return node.points(), node.live_oids()


def iter_intact_data_pages(path: str | os.PathLike, page_size: int):
    """Yield ``(page_id, vectors, oids)`` for every page of the file whose
    frame verifies, whose kind is *data* and whose payload the node codec
    for the dims it declares decodes — regardless of whether the index
    above it survived."""
    from repro.storage.serialization import HybridNodeCodec

    path = os.fspath(path)
    size = os.path.getsize(path)
    codecs: dict[int, object] = {}
    with open(path, "rb") as f:
        for pid in range(size // page_size):
            f.seek(pid * page_size)
            page = f.read(page_size)
            try:
                header, payload = unframe_page(page, pid)
                if header.kind != PAGE_KIND_DATA:
                    continue
                dims = HybridNodeCodec.declared_dims(payload)
                if dims not in codecs:
                    codecs[dims] = _node_codec({"dims": dims}, page_size)
                entries = _data_entries(codecs[dims], page)
            except (PageCorruptionError, ValueError, struct.error):
                continue
            if entries is not None:
                yield (pid, *entries)


def _probe_page_size(path: str) -> int:
    """Best-effort page-size discovery when the superblock is gone: the
    size under which the most page frames verify."""
    size = os.path.getsize(path)
    best, best_hits = 0, 0
    with open(path, "rb") as f:
        for page_size in _CANDIDATE_PAGE_SIZES:
            if size < page_size:
                continue
            hits = 0
            for pid in range(size // page_size):
                f.seek(pid * page_size)
                try:
                    unframe_page(f.read(page_size), pid)
                    hits += 1
                except PageCorruptionError:
                    pass
            if hits > best_hits:
                best, best_hits = page_size, hits
    if not best_hits:
        raise RecoveryError(f"{path}: no page size yields a single intact page")
    return best


def salvage(
    path: str | os.PathLike,
    out_path: str | os.PathLike | None = None,
    page_size: int | None = None,
) -> SalvageReport:
    """Scavenge every intact data page and rebuild a fresh tree.

    Works even when the superblock or the whole index level is destroyed:
    tree parameters come from the manifest when it is readable, otherwise
    the page size is probed (:func:`_probe_page_size`) and the
    dimensionality is taken from the surviving data pages themselves.
    Returns a :class:`SalvageReport` whose ``tree`` attribute is the
    rebuilt :class:`~repro.core.hybridtree.HybridTree`; with ``out_path``
    the rebuilt tree is also saved there.
    """
    from repro.core.hybridtree import HybridTree

    path = os.fspath(path)
    manifest: dict = {}
    if page_size is None:
        try:
            manifest, page_size = read_superblock(path)
        except (PageCorruptionError, ValueError):
            page_size = _probe_page_size(path)

    # A matching-generation sidecar WAL holds *newer* committed images of
    # some pages: the last committed image of each page id supersedes the
    # base file's version, and the last commit's free list tells us which
    # base-file pages died (their entries were reinserted elsewhere in the
    # same transaction, so keeping both would duplicate objects).
    wal_overrides, wal_freed, wal_txns = _wal_salvage_state(
        path, page_size, manifest
    )

    vec_parts: list[np.ndarray] = []
    oid_parts: list[np.ndarray] = []
    dims: int | None = int(manifest["dims"]) if "dims" in manifest else None
    data_pages = 0
    for pid, vectors, oids in iter_intact_data_pages(path, page_size):
        if pid in wal_overrides or pid in wal_freed:
            continue
        if dims is None:
            dims = vectors.shape[1]
        if vectors.shape[1] != dims:
            continue  # garbage that happens to frame-verify cannot match dims
        if len(oids):
            vec_parts.append(vectors.copy())
            oid_parts.append(oids.copy())
        data_pages += 1
    wal_data_pages = 0
    for pid in sorted(wal_overrides):
        vectors, oids = wal_overrides[pid]
        if dims is None:
            dims = vectors.shape[1]
        if vectors.shape[1] != dims:
            continue
        if len(oids):
            vec_parts.append(vectors.copy())
            oid_parts.append(oids.copy())
        data_pages += 1
        wal_data_pages += 1
    if dims is None:
        raise RecoveryError(f"{path}: no intact data pages to salvage")

    kwargs = {"page_size": page_size}
    for key in ("min_fill", "split_policy", "split_position", "els_bits",
                "expected_query_side"):
        if key in manifest:
            kwargs[key] = manifest[key]
    if vec_parts:
        all_vecs = np.vstack(vec_parts)
        all_oids = np.concatenate(oid_parts).astype(np.int64)
        tree = HybridTree.bulk_load(all_vecs, all_oids, **kwargs)
    else:
        tree = HybridTree(dims, **kwargs)

    report = SalvageReport(
        path=path,
        page_size=page_size,
        dims=dims,
        pages_scanned=os.path.getsize(path) // page_size,
        data_pages_recovered=data_pages,
        objects_recovered=len(tree),
        expected_objects=int(manifest["count"]) if "count" in manifest else None,
        tree=tree,
        # The rebuilt tree carries no snapshot: a section in the damaged
        # file (however intact) describes the *old* page layout.
        snapshot_dropped="soa" in manifest,
        wal_transactions=wal_txns,
        wal_pages_applied=wal_data_pages,
    )
    if out_path is not None:
        tree.save(out_path)
        report.out_path = os.fspath(out_path)
    return report
