"""The index-page codec: the columnar split table (payload kind 3), the
kind-2 pages written before it, crafted inconsistent pages, and the dense
ELS table the decoded child boxes are gathered from."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import kdnodes
from repro.core.els import ELSTable
from repro.core.hybridtree import HybridTree
from repro.core.kdnodes import SplitTable
from repro.core.nodes import IndexNode
from repro.datasets import clustered_dataset
from repro.geometry.rect import Rect
from repro.storage.errors import PageCorruptionError
from repro.storage.page import (
    PAGE_KIND_INDEX,
    PageLayout,
    VerifiedPage,
    data_node_capacity,
    frame_page,
    kdtree_node_capacity,
    unframe_page,
)
from repro.storage.pagestore import FilePageStore
from repro.storage.serialization import HybridNodeCodec
from tests import kd_reference as ref
from tests.kd_reference import KDInternal, KDLeaf

DIMS = 4


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _encode_preorder(node: IndexNode, page_size: int) -> bytes:
    """The kind-2 index page, as the encoder before the columnar layout
    wrote it (kept here only to produce such pages)."""
    parts = [struct.pack("<BH", 2, node.level)]
    stack = [ref.kd_from_table(node.table)]
    while stack:
        kd = stack.pop()
        if isinstance(kd, KDLeaf):
            parts.append(struct.pack("<BI", 0, kd.child_id))
            continue
        parts.append(struct.pack("<BHff", 1, kd.dim, kd.lsp, kd.rsp))
        stack.append(kd.right)
        stack.append(kd.left)
    return frame_page(b"".join(parts), page_size, PAGE_KIND_INDEX, node.level, node.fanout)


def _scalar_regions(kd, region: Rect) -> list[tuple[int, Rect]]:
    """The Section 3.1 mapping over kd objects, without recursion (the
    deep chains below are deeper than the recursion limit)."""
    out = []
    stack = [(kd, region)]
    while stack:
        node, reg = stack.pop()
        if isinstance(node, KDLeaf):
            out.append((node.child_id, reg))
            continue
        stack.append((node.right, reg.clip_above(node.dim, node.rsp)))
        stack.append((node.left, reg.clip_below(node.dim, node.lsp)))
    return out


def _shape(kd) -> list:
    """A kd-tree as a flat preorder list, for equality checks."""
    out = []
    stack = [kd]
    while stack:
        node = stack.pop()
        if isinstance(node, KDLeaf):
            out.append(("leaf", node.child_id))
        else:
            out.append(("split", node.dim, node.lsp, node.rsp))
            stack.append(node.right)
            stack.append(node.left)
    return out


def _f32(x: float) -> float:
    return float(np.float32(x))


def _random_kd(rng, n_leaves: int, dims: int, region: Rect):
    """A random kd-tree over ids ``0..n_leaves-1`` (shuffled): splits may
    fall outside the region, overlap, or be clean."""
    ids = rng.permutation(n_leaves * 3)[:n_leaves].tolist()

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return KDLeaf(ids[lo])
        cut = int(rng.integers(lo + 1, hi))
        dim = int(rng.integers(dims))
        span = region.high[dim] - region.low[dim]
        a = _f32(region.low[dim] + rng.uniform(-0.3, 1.3) * span)
        b = _f32(a - rng.choice([0.0, rng.uniform(0, 0.4) * span]))
        return KDInternal(dim, a, b, build(lo, cut), build(cut, hi))

    return build(0, n_leaves)


def _chain(n_splits: int, dims: int):
    """A degenerate kd-tree: every split's right side is the next split."""
    kd = KDLeaf(n_splits)
    for i in reversed(range(n_splits)):
        pos = _f32(1.0 - i / (n_splits + 1))
        kd = KDInternal(i % dims, pos, pos, KDLeaf(i), kd)
    return kd


def _check_round_trip(kd, region: Rect, dims: int, page_size: int, level: int = 1):
    codec = HybridNodeCodec(dims, data_node_capacity(dims, PageLayout(page_size)), page_size)
    node = IndexNode(ref.split_table(kd), level)
    page = codec.encode(node)
    assert len(page) == page_size
    decoded = codec.decode(page)
    assert isinstance(decoded, IndexNode) and decoded.level == level
    assert decoded.child_ids() == ref.child_ids(kd)
    assert decoded.fanout == ref.count_leaves(kd)
    ids, lows, highs = kdnodes.leaf_region_arrays(decoded.table, region.low, region.high)
    want = _scalar_regions(kd, region)
    assert ids.tolist() == [child_id for child_id, _ in want]
    want_low = np.array([r.low for _, r in want])
    want_high = np.array([r.high for _, r in want])
    assert lows.tobytes() == want_low.tobytes()
    assert highs.tobytes() == want_high.tobytes()
    assert _shape(ref.kd_from_table(decoded.table)) == _shape(kd)
    return decoded


# ----------------------------------------------------------------------
# Kind 3 round trips
# ----------------------------------------------------------------------
def test_columnar_round_trip_on_random_kd_trees():
    rng = np.random.default_rng(20)
    for trial in range(250):
        dims = int(rng.integers(1, 7))
        low = rng.uniform(-1, 1, dims)
        high = low + rng.uniform(0, 2, dims) * (rng.random(dims) > 0.2)  # some zero sides
        region = Rect(low, high)
        kd = _random_kd(rng, int(rng.integers(1, 60)), dims, region)
        _check_round_trip(kd, region, dims, 4096, level=int(rng.integers(1, 6)))
        if trial < 40 and not isinstance(kd, KDLeaf):
            want = list(ref.leaves_with_regions(kd, region))
            got = _scalar_regions(kd, region)
            assert [(leaf.child_id, r.low.tobytes(), r.high.tobytes()) for leaf, r in want] == [
                (i, r.low.tobytes(), r.high.tobytes()) for i, r in got
            ]


def test_columnar_round_trip_of_a_chain_beyond_the_recursion_limit():
    page = 65536
    cap = kdtree_node_capacity(DIMS, PageLayout(page))
    kd = _chain(cap - 1, DIMS)
    region = Rect(np.zeros(DIMS), np.ones(DIMS))
    decoded = _check_round_trip(kd, region, DIMS, page)
    assert decoded.fanout == cap
    # A table edit on the deepest row publishes a new table; the next
    # page image is that table's.
    codec = HybridNodeCodec(DIMS, data_node_capacity(DIMS, PageLayout(page)), page)
    table = decoded.table
    decoded.table = kdnodes.widen(table, cap - 1, np.zeros(DIMS), np.zeros(DIMS))
    assert decoded.table.rsp[-1] == 0.0 and table.rsp[-1] > 0.0
    again = codec.decode(codec.encode(decoded))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again.table, decoded.table))


def test_columnar_payload_size_is_the_charged_budget():
    codec = HybridNodeCodec(DIMS, 10)
    for m in (1, 2, 3, 17):
        kd = _chain(m - 1, DIMS)
        header, payload = unframe_page(codec.encode(IndexNode(ref.split_table(kd), 1)))
        assert header.entry_count == m
        assert len(payload) == (5 if m == 1 else 14 * (m - 1) + 4 * m - 3)


# ----------------------------------------------------------------------
# Kind 2 pages
# ----------------------------------------------------------------------
def test_preorder_pages_decode_to_the_same_node():
    rng = np.random.default_rng(21)
    codec = HybridNodeCodec(DIMS, 10)
    region = Rect(np.zeros(DIMS), np.ones(DIMS))
    for _ in range(100):
        kd = _random_kd(rng, int(rng.integers(1, 80)), DIMS, region)
        node = IndexNode(ref.split_table(kd), 2)
        old = codec.decode(_encode_preorder(node, 4096))
        new = codec.decode(codec.encode(node))
        assert old.level == new.level == 2
        for a, b in zip(old.table, new.table):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert _shape(ref.kd_from_table(old.table)) == _shape(kd)


def _save_as_preorder(tree, path, monkeypatch) -> int:
    """Save ``tree`` with every index page in the kind-2 layout, as a tree
    saved before the columnar layout is; returns how many were written."""
    encode = HybridNodeCodec.encode
    written = []

    def preorder_encode(codec, node):
        if isinstance(node, IndexNode):
            written.append(node)
            return _encode_preorder(node, codec.page_size)
        return encode(codec, node)

    with monkeypatch.context() as patch:
        patch.setattr(HybridNodeCodec, "encode", preorder_encode)
        tree.save(path)
    return len(written)


def _child_boxes_of_every_node(tree) -> list:
    out = []
    stack = [(tree.root_id, tree.bounds.low, tree.bounds.high)]
    while stack:
        node_id, low, high = stack.pop()
        node = tree.nm.get(node_id, charge=False)
        if not isinstance(node, IndexNode):
            continue
        kids = tree._child_boxes(node, low, high)
        out.append((node_id, [arr.tobytes() for arr in kids[1:]]))
        stack.extend(zip(kids.ids.tolist(), kids.low, kids.high))
    return out


@pytest.mark.parametrize("mode", ["plain", "mmap", "wal"])
def test_a_tree_of_preorder_pages_opens_and_answers_alike(tmp_path, monkeypatch, mode):
    page = 1024
    points = clustered_dataset(3000, DIMS, clusters=5, seed=21)
    tree = HybridTree.bulk_load(points, page_size=page)
    columnar, preorder = tmp_path / "new.pages", tmp_path / "old.pages"
    tree.save(columnar)
    assert _save_as_preorder(tree, preorder, monkeypatch) > 1
    kwargs = {"plain": {}, "mmap": {"mmap": True}, "wal": {"wal": True}}[mode]
    new = HybridTree.open(columnar, **kwargs)
    old = HybridTree.open(preorder, **kwargs)
    assert _child_boxes_of_every_node(old) == _child_boxes_of_every_node(new)
    rng = np.random.default_rng(3)
    for center in points[rng.choice(len(points), 8)]:
        box = Rect(center - 0.1, center + 0.1)
        new.io.reset()
        old.io.reset()
        assert old.range_search(box) == new.range_search(box)
        assert old.knn(center, 7) == new.knn(center, 7)
        assert old.io.random_reads == new.io.random_reads
    old.validate()
    if mode == "wal":
        # A write through the old pages: the node is re-encoded as kind 3.
        old.insert(points[0], len(points))
        old.validate()
    old.close()
    new.close()


def test_fsck_and_salvage_read_preorder_pages(tmp_path, monkeypatch):
    from repro.storage import recovery

    points = clustered_dataset(2000, DIMS, seed=22)
    path = tmp_path / "old.pages"
    tree = HybridTree.bulk_load(points, page_size=1024)
    assert _save_as_preorder(tree, path, monkeypatch) > 1
    assert recovery.verify(path).ok
    salvaged = tmp_path / "salvaged.pages"
    recovery.salvage(path, salvaged)
    again = HybridTree.open(salvaged)
    assert len(again) == len(points)
    again.close()


# ----------------------------------------------------------------------
# Crafted inconsistent pages
# ----------------------------------------------------------------------
def _columnar_page(table: SplitTable, level: int = 1, entries: int | None = None,
                   extra: bytes = b"") -> bytes:
    payload = b"".join((
        b"\x03",
        table.dim.astype("<u2").tobytes(),
        np.concatenate((table.lsp, table.rsp)).astype("<f4").tobytes(),
        np.concatenate((table.first[1:], table.end[1:])).astype("<u2").tobytes(),
        table.ids.astype("<u4").tobytes(),
        extra,
    ))
    count = len(table.ids) if entries is None else entries
    return frame_page(payload, 4096, PAGE_KIND_INDEX, level, count)


# (0, .5) -> [(5, .25) -> 7, 8], 9: split dim 5 on a 4-d codec.
_BAD_DIM = KDInternal(0, 0.5, 0.5, KDInternal(5, 0.25, 0.25, KDLeaf(7), KDLeaf(8)), KDLeaf(9))
_GOOD = KDInternal(0, 0.5, 0.5, KDInternal(1, 0.25, 0.25, KDLeaf(7), KDLeaf(8)), KDLeaf(9))


def _codec() -> HybridNodeCodec:
    return HybridNodeCodec(DIMS, 10)


@pytest.mark.parametrize("encode", ["columnar", "preorder"])
def test_split_dim_beyond_the_codec_dims_is_rejected(encode):
    node = IndexNode(ref.split_table(_BAD_DIM), 1)
    page = (
        _columnar_page(node.table) if encode == "columnar"
        else _encode_preorder(node, 4096)
    )
    with pytest.raises(ValueError, match="dim 5"):
        _codec().decode(page)


def _table(**changes) -> SplitTable:
    return ref.split_table(_GOOD)._replace(**changes)


@pytest.mark.parametrize(
    "table, entries, match",
    [
        (_table(first=np.array([0, 1])), None, "offsets"),
        (_table(end=np.array([3, 3])), None, "offsets"),
        (_table(end=np.array([3, 9])), None, "offsets"),
        (_table(lsp=np.array([0.25, 0.25]), rsp=np.array([0.5, 0.25])), None, "lsp < rsp"),
        (_table(), 4, "expected"),
        (_table(), 2, "expected"),
    ],
)
def test_inconsistent_columnar_tables_are_rejected(table, entries, match):
    with pytest.raises(ValueError, match=match):
        _codec().decode(_columnar_page(table, entries=entries))


def test_columnar_offsets_that_do_not_form_one_tree_are_rejected():
    # (a) -> [(b) -> 1, 2], [(c) -> 3, 4]: give c the rows of b.
    kd = KDInternal(0, 0.5, 0.5, KDInternal(1, 0.5, 0.5, KDLeaf(1), KDLeaf(2)),
                    KDInternal(2, 0.5, 0.5, KDLeaf(3), KDLeaf(4)))
    table = ref.split_table(kd)
    bad = table._replace(first=np.array([0, 0, 0]), end=np.array([4, 2, 2]))
    with pytest.raises(ValueError):
        _codec().decode(_columnar_page(bad))


def _is_a_kd_tree(table: SplitTable) -> bool:
    """Whether the table is some kd-tree's (rebuild it and compare)."""
    try:
        again = ref.split_table(ref.kd_from_table(table))
    except (AttributeError, IndexError, TypeError):
        return False
    return all(np.array_equal(a, b) for a, b in zip(again, table))


def test_table_check_accepts_exactly_the_tables_of_kd_trees():
    rng = np.random.default_rng(24)
    verdicts = set()
    for _ in range(3000):
        m = int(rng.integers(2, 30))
        table = ref.split_table(_random_kd(rng, m, 1, Rect([0.0], [1.0])))
        first, end = table.first.copy(), table.end.copy()
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(0, m - 1))
            if rng.random() < 0.5:
                first[i] = rng.integers(0, m)
            else:
                end[i] = rng.integers(1, m + 1)
        table = table._replace(first=first, end=end)
        try:
            kdnodes.check_split_table(table, 1)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _is_a_kd_tree(table)
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_columnar_trailing_bytes_and_level_zero_are_rejected():
    table = ref.split_table(_GOOD)
    with pytest.raises(ValueError, match="expected"):
        _codec().decode(_columnar_page(table, extra=b"\x00\x00"))
    with pytest.raises(ValueError, match="level 0"):
        _codec().decode(_columnar_page(table, level=0))
    with pytest.raises(ValueError, match="no children"):
        _codec().decode(_columnar_page(table, entries=0))


def _preorder_payload(page: bytes) -> bytes:
    header, payload = unframe_page(page)
    return bytes(payload)


def _reframe(payload: bytes, entries: int = 3, level: int = 1) -> bytes:
    return frame_page(payload, 4096, PAGE_KIND_INDEX, level, entries)


def test_inconsistent_preorder_pages_are_rejected():
    good = _preorder_payload(_encode_preorder(IndexNode(ref.split_table(_GOOD), 1), 4096))
    codec = _codec()
    assert codec.decode(_reframe(good)).child_ids() == [7, 8, 9]
    with pytest.raises(ValueError, match="trailing"):
        codec.decode(_reframe(good + b"\x00"))
    with pytest.raises(ValueError, match="truncated"):
        codec.decode(_reframe(good[:-1]))
    with pytest.raises(ValueError, match="truncated"):
        codec.decode(_reframe(good[:-5]))
    with pytest.raises(ValueError, match="tag"):
        codec.decode(_reframe(good[:3] + b"\x07" + good[4:]))
    with pytest.raises(ValueError, match="children"):
        codec.decode(_reframe(good, entries=4))
    with pytest.raises(ValueError, match="level 0"):
        codec.decode(_reframe(b"\x02\x00\x00" + good[3:]))
    gap = KDInternal(0, 0.5, 0.5, KDLeaf(1), KDLeaf(2))
    gap_payload = bytearray(
        _preorder_payload(_encode_preorder(IndexNode(ref.split_table(gap), 1), 4096))
    )
    struct.pack_into("<ff", gap_payload, 6, 0.25, 0.75)
    with pytest.raises(ValueError, match="lsp < rsp"):
        codec.decode(_reframe(bytes(gap_payload), entries=2))


def test_an_empty_index_payload_is_rejected():
    with pytest.raises(ValueError):
        _codec().decode(frame_page(b"", 4096, PAGE_KIND_INDEX, 1, 0))


# ----------------------------------------------------------------------
# One CRC sweep per read
# ----------------------------------------------------------------------
def test_a_checked_store_read_is_not_swept_twice(tmp_path, monkeypatch):
    import zlib

    from repro.storage import page as page_module

    codec = _codec()
    image = codec.encode(IndexNode(ref.split_table(_GOOD), 1))
    crc32 = zlib.crc32
    with FilePageStore(tmp_path / "p.bin", 4096, checksums=True) as store:
        pid = store.allocate()
        store.write(pid, image)
        calls = []

        def counting_crc32(*args):
            calls.append(1)
            return crc32(*args)

        monkeypatch.setattr(page_module.zlib, "crc32", counting_crc32)
        read = store.read(pid)
        assert isinstance(read, VerifiedPage)
        swept = len(calls)
        assert codec.decode(read).child_ids() == [7, 8, 9]
        assert len(calls) == swept  # the store's sweep was the only one
        codec.decode(bytes(read))
        assert len(calls) == 2 * swept  # plain bytes are swept in full
    flipped = bytearray(image)
    flipped[100] ^= 1
    with pytest.raises(PageCorruptionError):
        codec.decode(bytes(flipped))


# ----------------------------------------------------------------------
# The dense ELS table against a dict model
# ----------------------------------------------------------------------
def _model_rect(model, node_id):
    box = model.get(node_id)
    return None if box is None else Rect(*box)


def _assert_same(table: ELSTable, model: dict) -> None:
    assert len(table) == len(model)
    got = table.items()
    assert [node_id for node_id, _ in got] == sorted(model)
    for node_id, live in got:
        low, high = model[node_id]
        assert live.low.tobytes() == low.tobytes() and live.high.tobytes() == high.tobytes()
    for node_id in range(-1, 90):
        assert (node_id in table) == (node_id in model)
        live = table.get(node_id)
        assert (live is None) == (node_id not in model)


def _effective_reference(model, bits, node_ids, low, high):
    """The effective boxes as the dict-backed table computed them."""
    from repro.core.els import quantize_boxes

    low, high = np.asarray(low, float), np.asarray(high, float)
    lives = [model.get(i) for i in node_ids.tolist()]
    known = np.array([live is not None for live in lives], dtype=bool)
    live_low, live_high = low.copy(), high.copy()
    if known.any():
        live_low[known] = [live[0] for live in lives if live is not None]
        live_high[known] = [live[1] for live in lives if live is not None]
    np.maximum(live_low, low, out=live_low)
    np.minimum(live_high, high, out=live_high)
    keep = (known & ~np.any(live_low > live_high, axis=1))[:, None]
    q_low, q_high = quantize_boxes(live_low, live_high, low, high, bits)
    return np.where(keep, q_low, low), np.where(keep, q_high, high)


def test_dense_els_table_matches_a_dict_model():
    rng = np.random.default_rng(23)
    dims = 3
    table, model = ELSTable(dims, 4), {}
    tracked: set | None = None
    table.journal = set()
    journal: set = set()
    for step in range(1500):
        op = rng.choice(["set", "merge", "drop", "copy", "track", "end", "query"])
        node_id = int(rng.integers(0, 80 if step < 700 else 300))
        if op == "set":
            low = rng.random(dims)
            box = (low, low + rng.random(dims) * 0.3)
            table.set(node_id, Rect(*box))
            model[node_id] = (box[0].copy(), box[1].copy())
        elif op == "merge":
            point = rng.random(dims).astype(np.float32)
            table.merge_point(node_id, point)
            p = np.asarray(point, dtype=np.float64)
            low, high = model.get(node_id, (p, p))
            model[node_id] = (np.minimum(low, p), np.maximum(high, p))
        elif op == "drop":
            table.drop(node_id)
            model.pop(node_id, None)
        elif op == "copy":
            dup = table.copy()
            _assert_same(dup, model)
            dup.set(node_id, Rect(np.zeros(dims), np.ones(dims)))
            dup.drop(next(iter(model), 0))
            assert dup.journal is None
        elif op == "track":
            table.begin_tracking()
            tracked = set()
        elif op == "end":
            delta = table.end_tracking()
            assert set(delta) == (tracked or set())
            for touched, live in delta.items():
                want = _model_rect(model, touched)
                assert (live is None) == (want is None)
                if live is not None:
                    assert live.low.tobytes() == want.low.tobytes()
            tracked = None
        else:
            ids = rng.integers(-1, 320, size=int(rng.integers(0, 12)))
            low = rng.random((len(ids), dims)) * 0.5
            high = low + rng.random((len(ids), dims)) * 0.6
            got = table.effective_boxes(ids, low, high)
            want = _effective_reference(model, 4, ids, low, high)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        if op in ("set", "merge", "drop"):
            journal.add(node_id)
            if tracked is not None:
                tracked.add(node_id)
        assert table.journal == journal
        if step % 50 == 0:
            _assert_same(table, model)
    _assert_same(table, model)
    assert table.memory_bytes == (2 * dims * 4 * len(model) + 7) // 8


def test_els_boxes_handed_out_are_copies():
    table = ELSTable(2, 4)
    table.set(3, Rect([0.0, 0.0], [0.5, 0.5]))
    live = table.get(3)
    table.merge_point(3, np.array([1.0, 1.0]))
    assert live.high.tolist() == [0.5, 0.5]
    assert table.get(3).high.tolist() == [1.0, 1.0]
    version = table.version
    table.drop(3)
    assert table.version != version and table.get(3) is None and len(table) == 0
