"""The write path's descents against the ``Rect``-based forms they replaced.

``HybridTree._find_entry`` (delete), ``_containment_descent`` (insert) and
``_choose_child`` walk an index node's split table by the point
(``kdnodes.leaves_holding_point``) instead of deriving a ``Rect`` for every
child.  The reference copies below are the derive-every-child forms, over
the kd objects of ``tests/kd_reference.py``.  These tests pin that both
give the same leaves, entries, paths, chosen children and charged reads,
that a long seeded run of inserts and deletes (with underflows) leaves
byte-equal page images, and that a seeded mixed run saves a file whose
SHA-256 was recorded from the write path that edited kd objects:

- on random kd-trees whose splits fall outside their region (the
  ``tests/test_intranode.py`` generator), with points on region faces and
  on split positions;
- on trees holding one ``(vector, oid)`` pair many times, across leaves;
- on grid data, where many points lie on region faces.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.core import HybridTree, kdnodes
from repro.core.nodes import DataNode, IndexNode
from repro.geometry.rect import Rect
from repro.storage.serialization import HybridNodeCodec
from tests import kd_reference as ref
from tests.kd_reference import KDInternal, KDLeaf
from tests.test_intranode import _random_kd, _random_region

DIMS = 4
PAGE = 512  # 23 points per leaf, 27 children per index node


# ----------------------------------------------------------------------
# Reference copies: every child's region derived as a Rect
# ----------------------------------------------------------------------
def ref_find_entry(tree, v, oid):
    stack = [(tree._root_id, tree.bounds, [])]
    target = np.asarray(v, dtype=np.float32)
    while stack:
        node_id, region, path = stack.pop()
        node = tree.nm.get(node_id)
        if isinstance(node, DataNode):
            idx = node.find_entry(target, oid)
            if idx is not None:
                return path, node_id, node, idx
            continue
        new_path = path + [(node_id, node, region)]
        for child_id, child_region in node.children_with_regions(region):
            if not child_region.contains_point(v):
                continue
            live = tree.els.effective_rect(child_id, child_region)
            if live.contains_point(v):
                stack.append((child_id, child_region, new_path))
    return None


def _ref_containing(kd_root, region, point):
    containing = []

    def collect(kd, kd_region):
        if isinstance(kd, KDLeaf):
            containing.append((kd_region.volume(), kd.child_id, kd_region))
            return
        x = point[kd.dim]
        if x <= kd.lsp:
            collect(kd.left, kd_region.clip_below(kd.dim, kd.lsp))
        if x >= kd.rsp:
            collect(kd.right, kd_region.clip_above(kd.dim, kd.rsp))

    collect(kd_root, region)
    return containing


def ref_containment_descent(tree, node_id, region, v):
    node = tree.nm.get(node_id)
    if isinstance(node, DataNode):
        return [(node_id, node, region)]
    containing = _ref_containing(ref.kd_from_table(node.table), region, v)
    containing.sort(key=lambda t: t[0])
    for _, child_id, child_region in containing:
        sub = ref_containment_descent(tree, child_id, child_region, v)
        if sub is not None:
            return [(node_id, node, region)] + sub
    return None


def ref_choose_child(tree, node_id, node, region, point):
    containing = _ref_containing(ref.kd_from_table(node.table), region, point)
    if containing:
        _, child_id, child_region = min(containing, key=lambda t: t[0])
        return child_id, child_region
    best_leaf_id, best_cost = None, (np.inf, np.inf)
    for leaf, leaf_region in ref.leaves_with_regions(ref.kd_from_table(node.table), region):
        cost = (leaf_region.enlargement(point), leaf_region.volume())
        if cost < best_cost:
            best_cost, best_leaf_id = cost, leaf.child_id
    return best_leaf_id, tree._widen_child(
        node_id, node, region, best_leaf_id, point, point
    )


def _reference_tree(**kwargs) -> HybridTree:
    """A tree whose write path runs the reference descents."""
    tree = HybridTree(DIMS, page_size=PAGE, **kwargs)
    tree._find_entry = types.MethodType(ref_find_entry, tree)
    tree._choose_child = types.MethodType(ref_choose_child, tree)
    tree._containment_descent = lambda node_id, low, high, x: ref_containment_descent(
        tree, node_id, Rect(low, high), np.array(x)
    )
    return tree


def _bits(rect: Rect) -> tuple[bytes, bytes]:
    return rect.low.tobytes(), rect.high.tobytes()


def _describe_path(path) -> list:
    return [(node_id, _bits(region)) for node_id, _node, region in path]


def _describe_found(found):
    if found is None:
        return None
    path, node_id, _node, idx = found
    return _describe_path(path), node_id, idx


def _charged(tree, call):
    before = tree.io.random_reads
    out = call()
    return out, tree.io.random_reads - before


# ----------------------------------------------------------------------
# The kd walk against the derived regions
# ----------------------------------------------------------------------
def _probe_points(rng, kd, region: Rect, count: int) -> list[np.ndarray]:
    """Points of ``region``: random ones, its corners, and points moved
    onto every split position that lies inside the region."""
    low, high = region.low, region.high
    points = [rng.uniform(low, high) for _ in range(count)]
    points += [low.copy(), high.copy(), np.where(rng.random(len(low)) < 0.5, low, high)]
    for internal in ref.iter_internals(kd):
        for pos in (internal.lsp, internal.rsp):
            p = rng.uniform(low, high)
            p[internal.dim] = min(max(pos, low[internal.dim]), high[internal.dim])
            points.append(p)
    return points


def test_kd_walk_equals_derived_regions_with_splits_outside_the_region():
    rng = np.random.default_rng(19)
    for _ in range(300):
        dims = int(rng.integers(1, 5))
        kd = _random_kd(rng, list(range(int(rng.integers(1, 24)))), dims)
        region = _random_region(rng, dims)
        table = ref.split_table(kd)
        rows = list(ref.leaves_with_regions(kd, region))
        for p in _probe_points(rng, kd, region, 6):
            x = p.tolist()
            got = kdnodes.leaves_holding_point(
                table, region.low.tolist(), region.high.tolist(), x
            )
            want = [(leaf.child_id, r) for leaf, r in rows if r.contains_point(p)]
            assert [cid for cid, _, _ in got] == [cid for cid, _ in want]
            for (_, lo, hi), (_, r) in zip(got, want):
                assert _bits(Rect(lo, hi)) == _bits(r)
            # The insert rule: raw split tests, no containing region needed.
            got = kdnodes.leaves_holding_point(
                table, region.low.tolist(), region.high.tolist(), x, faces=False
            )
            want = _ref_containing(kd, region, p)
            assert [cid for cid, _, _ in got] == [cid for _, cid, _ in want]
            for (_, lo, hi), (_, _, r) in zip(got, want):
                assert _bits(Rect(lo, hi)) == _bits(r)


def test_faces_rule_differs_only_on_the_face_of_an_outside_split():
    # One split at 0.2, below the region [0.5, 1]: the clamped left clip
    # is the face x = 0.5 itself, which holds a point on that face only.
    kd = ref.split_table(KDInternal(0, 0.2, 0.2, KDLeaf(1), KDLeaf(2)))
    on_face = kdnodes.leaves_holding_point(kd, [0.5], [1.0], [0.5])
    assert [(cid, lo, hi) for cid, lo, hi in on_face] == [(1, [0.5], [0.5]), (2, [0.5], [1.0])]
    raw = kdnodes.leaves_holding_point(kd, [0.5], [1.0], [0.5], faces=False)
    assert [cid for cid, _, _ in raw] == [2]


def test_kd_walk_keeps_signed_zeros_like_the_rect_clips():
    for lsp in (0.0, -0.0):
        for lo in (0.0, -0.0):
            kd = KDInternal(0, lsp, lsp, KDLeaf(1), KDLeaf(2))
            region = Rect([lo], [0.5])
            want = list(ref.leaves_with_regions(kd, region))
            got = kdnodes.leaves_holding_point(ref.split_table(kd), [lo], [0.5], [0.0])
            assert [(cid, _bits(Rect(low, high))) for cid, low, high in got] == [
                (leaf.child_id, _bits(r)) for leaf, r in want
            ]


def _f32_kd(kd) -> None:
    """Round every split position to float32, as pages store them."""
    for internal in ref.iter_internals(kd):
        internal.lsp = float(np.float32(internal.lsp))
        internal.rsp = float(np.float32(internal.rsp))


def test_find_entry_matches_with_splits_outside_the_region():
    """A root whose kd-tree comes from the random generator, so splits lie
    outside the region, over data nodes that each hold a random subset of
    the probe points — most of them on region faces or split positions."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        tree = HybridTree(DIMS, els_bits=int(rng.integers(0, 6)))
        ids = [tree.nm.allocate() for _ in range(int(rng.integers(2, 12)))]
        kd = _random_kd(rng, ids, DIMS)
        _f32_kd(kd)
        region = _random_region(rng, DIMS)
        tree.bounds = Rect(region.low.astype(np.float32), region.high.astype(np.float32))
        root_id = tree.nm.allocate()
        tree.nm.put(root_id, IndexNode(ref.split_table(kd), level=1))
        tree._root_id, tree._height = root_id, 2
        nodes = {cid: DataNode(DIMS, tree.data_capacity) for cid in ids}
        probes = [
            p.astype(np.float32) for p in _probe_points(rng, kd, tree.bounds, 4)
        ]
        for oid, p in enumerate(probes):
            holders = rng.choice(ids, int(rng.integers(1, len(ids) + 1)), replace=False)
            for cid in holders:
                nodes[int(cid)].add(p, oid)
        for cid, node in nodes.items():
            tree.nm.put(cid, node)
            if node.count:
                tree.els.set(cid, node.live_rect())
        for oid, p in enumerate(probes):
            _check_descents_agree(tree, p, oid)


# ----------------------------------------------------------------------
# Whole trees: the descents, their reads, and the pages they leave
# ----------------------------------------------------------------------
def _grid_points(rng, n: int) -> np.ndarray:
    """Coordinates on a 1/16 grid: many points sit on split positions,
    so on the faces of derived regions, and many repeat."""
    return (rng.integers(0, 17, (n, DIMS)) / 16.0).astype(np.float32)


def _page_images(tree) -> dict[int, bytes]:
    codec = HybridNodeCodec(DIMS, tree.data_capacity, PAGE)
    images, stack = {}, [tree._root_id]
    while stack:
        node_id = stack.pop()
        node = tree.nm.get(node_id, charge=False)
        images[node_id] = codec.encode(node)
        if isinstance(node, IndexNode):
            stack.extend(node.child_ids())
    return images


def _subtree_pairs(tree, node_id: int) -> list[tuple[np.ndarray, int]]:
    node = tree.nm.get(node_id, charge=False)
    if isinstance(node, DataNode):
        return [(v.copy(), int(o)) for v, o in zip(node.points(), node.live_oids())]
    return [pair for child in node.child_ids() for pair in _subtree_pairs(tree, child)]


def _state(tree):
    return (
        _page_images(tree),
        [(nid, _bits(rect)) for nid, rect in tree.els.items()],
        _bits(tree.bounds),
        tree._root_id,
        tree._height,
        len(tree),
    )


def _check_descents_agree(tree, v: np.ndarray, oid: int) -> None:
    v = np.asarray(v, dtype=np.float32).astype(np.float64)
    new, new_reads = _charged(tree, lambda: tree._find_entry(v, oid))
    ref, ref_reads = _charged(tree, lambda: ref_find_entry(tree, v, oid))
    assert _describe_found(new) == _describe_found(ref)
    assert new_reads == ref_reads
    if not tree.bounds.contains_point(v):
        return  # an insert grows the bounds first
    low, high = tree.bounds.low.tolist(), tree.bounds.high.tolist()
    new, new_reads = _charged(
        tree, lambda: tree._containment_descent(tree._root_id, low, high, v.tolist())
    )
    ref, ref_reads = _charged(
        tree, lambda: ref_containment_descent(tree, tree._root_id, tree.bounds, v)
    )
    assert (new is None) == (ref is None)
    if new is not None:
        assert _describe_path(new) == _describe_path(ref)
    assert new_reads == ref_reads


def test_seeded_writes_leave_byte_equal_pages_and_equal_reads():
    """2,000 inserts and 400 deletes, with underflows: every operation
    charges the same reads as the reference, and every page image, ELS
    box and the bounds come out byte-equal."""
    rng = np.random.default_rng(2024)
    tree = HybridTree(DIMS, page_size=PAGE)
    ref = _reference_tree()
    underflows = []
    remove_child = tree._remove_child
    tree._remove_child = lambda path, child_id: (
        underflows.append(type(tree.nm.get(child_id, charge=False))),
        remove_child(path, child_id),
    )
    points = np.vstack([_grid_points(rng, 1400), rng.random((560, DIMS)).astype(np.float32)])
    model = [(v, oid) for oid, v in enumerate(points)]
    # One (vector, oid) pair 40 times: more than a leaf holds.
    twin = np.full(DIMS, 0.5, dtype=np.float32)
    model += [(twin, 7777)] * 40
    order = rng.permutation(len(model))
    for step, i in enumerate(order):
        v, oid = model[i]
        if step % 97 == 0:
            _check_descents_agree(tree, v, oid)
        _, reads = _charged(tree, lambda: tree.insert(v, oid))
        _, ref_reads = _charged(ref, lambda: ref.insert(v, oid))
        assert reads == ref_reads
    assert _state(tree) == _state(ref)

    # Deletes: the points under the root's smallest subtree (emptying its
    # leaves underflows them and then the subtree's index node), the
    # repeated pair, random points, and entries that are not there.
    root = tree.nm.get(tree._root_id, charge=False)
    smallest = min(root.child_ids(), key=lambda c: len(_subtree_pairs(tree, c)))
    slab = [(v, oid) for v, oid in _subtree_pairs(tree, smallest) if oid != 7777]
    slab = slab[:260]
    taken = {oid for _, oid in slab}
    rest = [i for i in range(len(points)) if i not in taken]
    victims = slab + [(twin, 7777)] * 25
    victims += [(points[i], int(i)) for i in rng.choice(rest, 395 - len(victims), replace=False)]
    victims += [(np.full(DIMS, 0.3, dtype=np.float32), 10**6)] * 3
    victims += [(np.full(DIMS, 2.0, dtype=np.float32), 1)] * 2
    assert len(victims) == 400
    for step, (v, oid) in enumerate(victims):
        if step % 13 == 0:
            _check_descents_agree(tree, v, oid)
        removed, reads = _charged(tree, lambda: tree.delete(v, oid))
        ref_removed, ref_reads = _charged(ref, lambda: ref.delete(v, oid))
        assert (removed, reads) == (ref_removed, ref_reads)
    assert set(underflows) == {DataNode, IndexNode}  # both kinds underflowed
    assert _state(tree) == _state(ref)
    tree.validate()
    assert len(tree) == len(model) - 395


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_entry_matches_for_every_stored_pair(seed):
    """Every stored pair (the first of its duplicates, in the same leaf
    and slot), points on faces, and missing pairs."""
    rng = np.random.default_rng(seed)
    tree = HybridTree(DIMS, page_size=PAGE, els_bits=int(rng.integers(0, 6)))
    data = _grid_points(rng, 900)
    for oid, v in enumerate(data):
        tree.insert(v, oid % 300)  # each pair up to three times
    for oid, v in enumerate(data):
        _check_descents_agree(tree, v, oid % 300)
        _check_descents_agree(tree, v, 10**6)
    for v in rng.random((40, DIMS)) * 1.4 - 0.2:
        _check_descents_agree(tree, v, 0)


def test_choose_child_matches_on_every_index_node():
    rng = np.random.default_rng(5)
    tree = HybridTree(DIMS, page_size=PAGE)
    for oid, v in enumerate(_grid_points(rng, 1500)):
        tree.insert(v, oid)
    stack = [(tree._root_id, tree.bounds)]
    checked = 0
    while stack:
        node_id, region = stack.pop()
        node = tree.nm.get(node_id)
        if not isinstance(node, IndexNode):
            continue
        for p in _probe_points(rng, ref.kd_from_table(node.table), region, 8):
            if kdnodes.leaves_holding_point(
                node.table, region.low.tolist(), region.high.tolist(),
                p.tolist(), faces=False,
            ):
                got = tree._choose_child(node_id, node, region, p)
                want = ref_choose_child(tree, node_id, node, region, p)
                assert (got[0], _bits(got[1])) == (want[0], _bits(want[1]))
                checked += 1
        stack.extend(node.children_with_regions(region))
    assert checked > 50


# ----------------------------------------------------------------------
# The saved file of a seeded mixed run, pinned
# ----------------------------------------------------------------------
# SHA-256 of the file the run below saves, recorded from the write path
# that edited kd objects (before index nodes were only split tables).
MIXED_RUN_SHA256 = "cc2029ffa4882e7767b18bb72d5888964f503b9b9fd0d6170c8f9bd42ad4ac7a"


def test_a_seeded_mixed_run_saves_the_pinned_file(tmp_path):
    """Inserts, then deletes with data- and index-node underflows and
    subtree reinsertions, more inserts and deletes, on 512-byte pages:
    every table edit lands in the same page bytes as the object edits."""
    import hashlib

    rng = np.random.default_rng(22)
    points = np.vstack([_grid_points(rng, 1200), rng.random((1000, DIMS)).astype(np.float32)])
    tree = HybridTree(DIMS, page_size=PAGE)
    events = []
    remove_child, reinsert = tree._remove_child, tree._reinsert_subtree
    tree._remove_child = lambda path, child_id: (
        events.append(type(tree.nm.get(child_id, charge=False))),
        remove_child(path, child_id),
    )
    tree._reinsert_subtree = lambda subtree_id, level: (
        events.append("reinsert"), reinsert(subtree_id, level)
    )
    for oid, v in enumerate(points[:1600]):
        tree.insert(v, oid)
    order = rng.permutation(1600).tolist()
    for i in order[:1000]:
        assert tree.delete(points[i], i)
    for oid in range(1600, len(points)):
        tree.insert(points[oid], oid)
    for i in order[1000:1200]:
        assert tree.delete(points[i], i)
    assert {DataNode, IndexNode, "reinsert"} <= set(events)
    tree.validate()
    tree.save(tmp_path / "mixed.pages")
    digest = hashlib.sha256((tmp_path / "mixed.pages").read_bytes()).hexdigest()
    assert digest == MIXED_RUN_SHA256
