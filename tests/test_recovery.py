"""Checksums, fsck, salvage, retry, and graceful degradation."""

import os
import random

import numpy as np
import pytest

from repro.core import HybridTree
from repro.datasets import uniform_dataset
from repro.geometry.rect import Rect
from repro.storage.errors import PageCorruptionError, TransientStorageError
from repro.storage.faults import FaultInjectingPageStore
from repro.storage.page import PAGE_KIND_DATA, PAGE_KIND_INDEX, unframe_page
from repro.storage.recovery import iter_intact_data_pages, salvage, verify
from repro.storage.superblock import read_superblock

DIMS = 6
PAGE = 4096


@pytest.fixture()
def saved(tmp_path):
    data = uniform_dataset(1500, DIMS, seed=11)
    tree = HybridTree.bulk_load(data)
    path = str(tmp_path / "t.pages")
    tree.save(path)
    return path, tree, data


def _node_pages(path):
    """(page_id, kind) for every live node page of a saved tree."""
    manifest, page_size = read_superblock(path)
    out = []
    with open(path, "rb") as f:
        for pid in range(manifest["page_count"]):
            f.seek(pid * page_size)
            try:
                header, _ = unframe_page(f.read(page_size), pid)
            except PageCorruptionError:
                continue  # free-list hole
            out.append((pid, header.kind))
    return out


def _flip(path, pid, bit):
    with open(path, "r+b") as f:
        f.seek(pid * PAGE + bit // 8)
        byte = f.read(1)[0]
        f.seek(pid * PAGE + bit // 8)
        f.write(bytes([byte ^ (1 << (bit % 8))]))


class TestBitFlipDetection:
    def test_every_bit_of_a_data_and_an_index_page(self, saved):
        """Exhaustive single-bit-flip matrix: header, payload, padding —
        a whole-page CRC must catch every last one."""
        from repro.storage.pagestore import FilePageStore

        path, _, _ = saved
        pages = _node_pages(path)
        targets = [
            next(pid for pid, kind in pages if kind == PAGE_KIND_DATA),
            next(pid for pid, kind in pages if kind == PAGE_KIND_INDEX),
        ]
        store = FilePageStore(path, PAGE, checksums=True)
        try:
            for pid in targets:
                for bit in range(PAGE * 8):
                    _flip(path, pid, bit)
                    with pytest.raises(PageCorruptionError):
                        store.read(pid, charge=False)
                    _flip(path, pid, bit)  # restore
                store.read(pid, charge=False)  # intact again
        finally:
            store.close()

    def test_sampled_flips_across_every_node_page(self, saved):
        from repro.storage.pagestore import FilePageStore

        path, _, _ = saved
        rng = random.Random(42)
        store = FilePageStore(path, PAGE, checksums=True)
        try:
            for pid, _kind in _node_pages(path):
                for bit in rng.sample(range(PAGE * 8), 25):
                    _flip(path, pid, bit)
                    with pytest.raises(PageCorruptionError):
                        store.read(pid, charge=False)
                    _flip(path, pid, bit)
        finally:
            store.close()

    def test_flip_via_fault_injector_surfaces_on_query(self, saved):
        path, tree, _ = saved
        reopened = HybridTree.open(path)
        injector = FaultInjectingPageStore(reopened.nm.store.base, seed=7)
        injector.flip_bit(tree.root_id)
        # The overlay reads through to the (now corrupt) base file.
        with pytest.raises(PageCorruptionError):
            HybridTree.open(path).range_search(Rect.unit(DIMS))


class TestFsck:
    def test_clean_after_save(self, saved):
        path, tree, _ = saved
        report = verify(path)
        assert report.ok, report.errors
        assert report.reachable_pages == tree.pages()
        assert report.count == len(tree)

    def test_detects_bit_flip(self, saved):
        path, _, _ = saved
        pid, _ = _node_pages(path)[0]
        _flip(path, pid, pid * 8 * 40 + 3)
        report = verify(path)
        assert not report.ok
        assert pid in report.corrupt_pages

    def test_detects_truncation(self, saved):
        path, _, _ = saved
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - PAGE)
        report = verify(path)
        assert not report.ok

    def test_detects_cross_generation_splice(self, saved):
        """A node page swapped in from a different save has a valid frame
        but breaks the checksum-of-checksums."""
        path, tree, data = saved
        other = HybridTree.bulk_load(np.vstack([data, data[:5] * 0.5]))
        other_path = path + ".other"
        other.save(other_path)
        pid = next(pid for pid, kind in _node_pages(path) if kind == PAGE_KIND_DATA)
        with open(other_path, "rb") as f:
            f.seek(pid * PAGE)
            foreign = f.read(PAGE)
        with open(path, "r+b") as f:
            f.seek(pid * PAGE)
            f.write(foreign)
        report = verify(path)
        assert not report.ok

    def test_reports_a_framed_payload_too_short_to_unpack(self, saved):
        """A page whose frame verifies but whose payload is shorter than
        its own header is undecodable, not a crash of the audit."""
        from repro.storage.page import frame_page

        path, _, _ = saved
        pid = next(pid for pid, kind in _node_pages(path) if kind == PAGE_KIND_DATA)
        with open(path, "r+b") as f:
            f.seek(pid * PAGE)
            f.write(frame_page(b"\x01\x00", PAGE, PAGE_KIND_DATA))
        report = verify(path)
        assert any(e.startswith(f"page {pid}: undecodable (") for e in report.errors)

    def test_reads_and_sweeps_each_node_page_once(self, saved, monkeypatch):
        """One sequential pass: every node page is read once and its CRC
        swept once; the walk works from what that pass recorded."""
        import zlib
        from collections import Counter
        from types import SimpleNamespace

        from repro.storage import page as page_mod
        from repro.storage import recovery
        from repro.storage.superblock import read_blob

        path, _, _ = saved
        manifest, page_size = read_superblock(path)
        sweeps = Counter()

        def crc32(data, value=0):
            # The last call of a page's sweep runs over everything after
            # the header.
            if len(data) == page_size - 32:
                sweeps["pages"] += 1
            return zlib.crc32(data, value)

        monkeypatch.setattr(page_mod, "zlib", SimpleNamespace(crc32=crc32))
        read_superblock(path)
        read_blob(path, manifest, "els", page_size)
        manifest_sweeps = sweeps["pages"]

        reads = Counter()

        class CountedFile:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def seek(self, offset, whence=0):
                return self.file.seek(offset, whence)

            def read(self, size=-1):
                reads[self.file.tell()] += 1
                return self.file.read(size)

        monkeypatch.setattr(
            recovery, "open", lambda *a, **k: CountedFile(open(*a, **k)), raising=False
        )
        sweeps.clear()
        report = verify(path)
        assert report.ok, report.errors
        node_offsets = [pid * page_size for pid in range(manifest["page_count"])]
        assert [reads[offset] for offset in node_offsets] == [1] * len(node_offsets)
        assert sweeps["pages"] == manifest_sweeps + len(_node_pages(path))


class TestSalvage:
    def test_recovers_everything_from_intact_file(self, saved, tmp_path):
        path, tree, _ = saved
        report = salvage(path, out_path=str(tmp_path / "rebuilt.pages"))
        assert report.objects_recovered == len(tree)
        rebuilt = HybridTree.open(str(tmp_path / "rebuilt.pages"))
        q = Rect([0.2] * DIMS, [0.7] * DIMS)
        assert sorted(rebuilt.range_search(q)) == sorted(tree.range_search(q))

    def test_survives_destroyed_index_and_superblock(self, saved):
        """Only data pages matter: wreck every index page AND the
        superblock; salvage still recovers every object."""
        path, tree, _ = saved
        index_pids = [p for p, k in _node_pages(path) if k == PAGE_KIND_INDEX]
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            for pid in index_pids:
                f.seek(pid * PAGE)
                f.write(os.urandom(PAGE))
            f.seek(size - PAGE)
            f.write(os.urandom(PAGE))
        with pytest.raises(PageCorruptionError):
            HybridTree.open(path)
        report = salvage(path)
        assert report.objects_recovered == len(tree)
        assert len(report.tree) == len(tree)

    def test_loses_only_the_corrupt_data_page(self, saved):
        path, tree, _ = saved
        victim = next(p for p, k in _node_pages(path) if k == PAGE_KIND_DATA)
        lost = sum(
            len(oids)
            for pid, _, oids in iter_intact_data_pages(path, PAGE)
            if pid == victim
        )
        assert lost > 0
        _flip(path, victim, 12345)
        report = salvage(path)
        assert report.objects_recovered == len(tree) - lost
        assert report.expected_objects == len(tree)

    @pytest.mark.parametrize("superblock", ["intact", "destroyed"])
    def test_skips_a_framed_data_page_the_codec_rejects(self, tmp_path, superblock):
        """A data page whose frame verifies but whose payload claims 300
        entries in 21 bytes is lost, like a corrupt one: fsck calls it
        undecodable, and salvage rebuilds from the other pages instead of
        crashing."""
        import struct

        from repro.storage.page import frame_page

        data = uniform_dataset(1500, 8, seed=3)
        tree = HybridTree.bulk_load(data)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        victim = next(p for p, k in _node_pages(path) if k == PAGE_KIND_DATA)
        lost = next(len(o) for p, _, o in iter_intact_data_pages(path, PAGE) if p == victim)
        forged = struct.pack("<BHH", 1, 300, 8) + bytes(16)
        with open(path, "r+b") as f:
            f.seek(victim * PAGE)
            f.write(frame_page(forged, PAGE, PAGE_KIND_DATA))
            if superblock == "destroyed":
                f.seek(os.path.getsize(path) - PAGE)
                f.write(os.urandom(PAGE))
        if superblock == "intact":
            assert any(
                e.startswith(f"page {victim}: undecodable (data page holds 300 entries")
                for e in verify(path).errors
            )
        assert victim not in [p for p, _, _ in iter_intact_data_pages(path, PAGE)]
        report = salvage(path)
        assert report.objects_recovered == len(tree) - lost
        assert report.dims == 8


class TestRetry:
    def test_transient_faults_retried_without_double_charge(self, saved):
        path, _, _ = saved
        q = Rect([0.1] * DIMS, [0.6] * DIMS)
        clean = HybridTree.open(path)
        want = clean.range_search(q)
        clean_reads = clean.io.random_reads

        faulty = HybridTree.open(path)
        injector = FaultInjectingPageStore(faulty.nm.store, seed=3)
        faulty.nm.store = injector
        injector.fail_reads(3)
        assert faulty.range_search(q) == want
        assert faulty.nm.retries_performed == 3
        assert injector.faults_injected == 3
        # A failed attempt is never charged: same cost as the clean run.
        assert faulty.io.random_reads == clean_reads

    def test_fault_past_retry_budget_surfaces(self, saved):
        path, _, _ = saved
        tree = HybridTree.open(path)
        injector = FaultInjectingPageStore(tree.nm.store, seed=3)
        tree.nm.store = injector
        injector.fail_reads(tree.nm.max_retries + 1)
        with pytest.raises(TransientStorageError):
            tree.range_search(Rect.unit(DIMS))

    def test_corruption_is_never_retried(self, saved):
        path, tree, _ = saved
        _flip(path, tree.root_id, 99)
        reopened = HybridTree.open(path)
        with pytest.raises(PageCorruptionError):
            reopened.range_search(Rect.unit(DIMS))
        assert reopened.nm.retries_performed == 0


class TestDegradedQueries:
    def _corrupt_root(self, path, tree):
        _flip(path, tree.root_id, 7777)

    def test_scan_policy_matches_index_answers(self, saved):
        path, tree, data = saved
        q = Rect([0.25] * DIMS, [0.8] * DIMS)
        want_range = sorted(tree.range_search(q))
        want_count = tree.count_range(q)
        want_knn = tree.knn(data[17], 9)
        want_dr = sorted(tree.distance_range(data[17], 0.4))
        self._corrupt_root(path, tree)
        degraded = HybridTree.open(path, on_corruption="scan")
        assert sorted(degraded.range_search(q)) == want_range
        assert degraded.count_range(q) == want_count
        assert degraded.knn(data[17], 9) == want_knn
        assert sorted(degraded.distance_range(data[17], 0.4)) == want_dr
        assert degraded.degraded_queries == 4

    def test_scan_policy_charges_sequential_reads(self, saved):
        path, tree, _ = saved
        self._corrupt_root(path, tree)
        degraded = HybridTree.open(path, on_corruption="scan")
        degraded.range_search(Rect.unit(DIMS))
        assert degraded.io.sequential_reads >= tree.pages()

    def test_raise_policy_raises(self, saved):
        path, tree, _ = saved
        self._corrupt_root(path, tree)
        reopened = HybridTree.open(path)  # default policy
        with pytest.raises(PageCorruptionError):
            reopened.knn(np.full(DIMS, 0.5), 3)
        assert reopened.degraded_queries == 0

    def test_batch_engine_degrades_too(self, saved):
        path, tree, data = saved
        boxes = [
            Rect([0.1] * DIMS, [0.5] * DIMS),
            Rect([0.4] * DIMS, [0.9] * DIMS),
        ]
        want_range = tree.range_search_many(boxes)
        want_knn = tree.knn_many(data[:4], 5)
        want_dr = tree.distance_range_many(data[:4], 0.3)
        self._corrupt_root(path, tree)
        degraded = HybridTree.open(path, on_corruption="scan")
        assert [sorted(r) for r in degraded.range_search_many(boxes)] == [
            sorted(r) for r in want_range
        ]
        assert degraded.knn_many(data[:4], 5) == want_knn
        assert [sorted(r) for r in degraded.distance_range_many(data[:4], 0.3)] == [
            sorted(r) for r in want_dr
        ]
        with pytest.raises(PageCorruptionError):
            HybridTree.open(path).knn_many(data[:4], 5)

    def test_invalid_policy_rejected(self, saved):
        path, _, _ = saved
        with pytest.raises(ValueError):
            HybridTree.open(path, on_corruption="ignore")
        with pytest.raises(ValueError):
            HybridTree(DIMS, on_corruption="retry")


class TestFreeListPersistence:
    def test_delete_heavy_roundtrip_reuses_holes(self, saved):
        path, tree, data = saved
        reopened = HybridTree.open(path)
        for oid in range(900):
            assert reopened.delete(data[oid], oid)
        reopened.save(path)

        again = HybridTree.open(path)
        assert len(again) == len(tree) - 900
        free_before = set(again.nm.store.free_page_ids)
        assert free_before  # the shrunken tree left real holes
        report = verify(path)
        assert report.ok, report.errors
        assert report.free_pages == len(free_before)

        # New growth must recycle the persisted holes, not extend the file.
        pages_before = again.nm.store._next_id
        for oid in range(900):
            again.insert(data[oid], 10_000 + oid)
        assert again.nm.store._next_id <= pages_before + 1
        again.save(path)
        final = verify(path)
        assert final.ok, final.errors

    def test_roundtrip_queries_after_delete_save_open(self, saved):
        path, _, data = saved
        reopened = HybridTree.open(path)
        for oid in range(0, 1200, 2):
            assert reopened.delete(data[oid], oid)
        reopened.save(path)
        again = HybridTree.open(path)
        again.validate()
        got = sorted(again.range_search(Rect.unit(DIMS)))
        want = sorted(
            oid for oid in range(1500) if not (oid < 1200 and oid % 2 == 0)
        )
        assert got == want
