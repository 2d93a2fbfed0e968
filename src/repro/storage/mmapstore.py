"""Zero-copy read-only page store over a saved tree file, backed by mmap.

:class:`MmapPageStore` maps the whole single-file save format of
:mod:`repro.storage.superblock` into the address space once and serves
every :meth:`read` as a :class:`memoryview` slice of the mapping — no
``read()`` syscall, no bytes copy, and no per-read checksum work.  The
integrity contract moves from *per read* to *once at open*:

- ``verify="fsck"`` (what ``HybridTree.open(mmap=True)`` uses via
  :func:`repro.storage.recovery.verify`) audits the entire file — page
  CRCs, reachability, free list, checksum-of-checksums — before the first
  query, so steady-state reads can skip ``unframe_page``'s CRC entirely;
- ``verify="none"`` trusts the caller (e.g. the file was fsck'd moments
  ago by other means).

Because the mapping is shared (``MAP_SHARED`` semantics of
``mmap.ACCESS_READ``), any number of worker threads or forked/spawned
worker processes mapping the same file share one copy of the data in the
OS page cache — the property the parallel query engine
(:mod:`repro.engine.parallel`) relies on to scale readers without
multiplying resident memory.

The store is strictly read-only: :meth:`write` and :meth:`free` raise
:class:`~repro.storage.errors.ReadOnlyStoreError`.  Mutating a tree opened
this way fails loudly at the node layer too (frozen
:class:`~repro.core.nodes.DataNode`).
"""

from __future__ import annotations

import mmap
import os

from repro.storage.errors import PageCorruptionError, ReadOnlyStoreError
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.pagestore import PageStore

VERIFY_MODES = ("fsck", "none")

_ZERO_PAGE_CACHE: dict[int, bytes] = {}


def _zero_page(page_size: int) -> bytes:
    page = _ZERO_PAGE_CACHE.get(page_size)
    if page is None:
        page = _ZERO_PAGE_CACHE[page_size] = b"\x00" * page_size
    return page


class MmapPageStore(PageStore):
    """Read-only :class:`PageStore` serving memoryview slices of an mmap.

    Parameters
    ----------
    path:
        A saved tree file (or any file of framed pages).
    page_size:
        Must match the file's page size; ``HybridTree.open`` passes the
        superblock's value.
    stats:
        Shared I/O accountant; reads are charged exactly like
        :class:`~repro.storage.pagestore.FilePageStore` reads, so the
        paper's access accounting is unchanged by the faster transport.
    verify:
        ``"fsck"`` | ``"none"`` — the at-open integrity policy described
        in the module docstring.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int = DEFAULT_PAGE_SIZE,
        stats: IOStats | None = None,
        verify: str = "none",
    ):
        super().__init__(page_size, stats)
        if verify not in VERIFY_MODES:
            raise ValueError(f"verify must be one of {VERIFY_MODES}")
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        size = os.path.getsize(self.path)
        self._next_id = size // page_size
        if size:
            self._mmap: mmap.mmap | None = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            self._view: memoryview | None = memoryview(self._mmap)
        else:
            self._mmap = None
            self._view = None
        self.verified = False
        if verify == "fsck":
            self._verify_fsck()

    # ------------------------------------------------------------------
    # At-open verification
    # ------------------------------------------------------------------
    def _verify_fsck(self) -> None:
        """Full audit through :func:`repro.storage.recovery.verify`."""
        from repro.storage.recovery import verify as fsck_verify

        report = fsck_verify(self.path)
        if not report.ok:
            self.close()
            raise PageCorruptionError(
                f"{self.path}: mmap open refused, fsck found "
                f"{len(report.errors)} problem(s): " + "; ".join(report.errors[:5])
            )
        self.verified = True

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def _slice(self, page_id: int) -> memoryview | bytes:
        start = page_id * self.page_size
        end = start + self.page_size
        if self._view is None or start >= len(self._view):
            return _zero_page(self.page_size)
        if end > len(self._view):
            # A trailing partial page (never produced by save(); defensive):
            # zero-pad into a private copy, matching FilePageStore.ljust.
            return bytes(self._view[start:]).ljust(self.page_size, b"\x00")
        return self._view[start:end]

    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> memoryview | bytes:
        """Return a read-only buffer view of the page (no copy).

        The view stays valid until :meth:`close`; consumers that outlive
        the store must copy (``bytes(view)``).
        """
        self._validate_id(page_id)
        if charge:
            self.stats.record(kind)
        return self._slice(page_id)

    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        raise ReadOnlyStoreError(
            f"MmapPageStore({self.path!r}) is read-only; "
            "reopen without mmap to mutate the tree"
        )

    def free(self, page_id: int) -> None:
        raise ReadOnlyStoreError(
            f"MmapPageStore({self.path!r}) is read-only; cannot free pages"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the file.

        Zero-copy node views still referencing the mapping keep it alive:
        the map is released when the last view is garbage-collected (the
        ``BufferError`` mmap would raise is deliberately absorbed so a
        tree handle can always be closed).
        """
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Exported node views pin the mapping; the OS reclaims it
                # once they die.  Dropping our reference is enough here.
                pass
            self._mmap = None
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "MmapPageStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
