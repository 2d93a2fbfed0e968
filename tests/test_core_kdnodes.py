"""The dual-position intranode kd-tree as a split table.

Index nodes hold only :class:`~repro.core.kdnodes.SplitTable`\\ s, and each
write step is a table edit.  These tests pin:

- the Section 3.1 mapping on the paper's Figure 1 structure;
- every table edit (child split, removal, prune, widen) and both region
  walks (``region_of_child``, ``leaves_holding_point``) bit for bit against
  the object edit it replaced (``tests/kd_reference.py``) followed by
  ``split_table``: ids, dims, positions, row ranges and derived regions, on
  random tables with splits outside the region and signed zeros;
- every write step, ``validate()`` and ``stats()`` on the deepest legal
  kd-tree of a 64 KiB page, a chain of 3,638 splits, far deeper than the
  interpreter's recursion limit.
"""

import numpy as np
import pytest

from repro.core import HybridTree, compute_stats, kdnodes
from repro.core.kdnodes import SplitTable
from repro.core.nodes import DataNode, IndexNode
from repro.geometry.rect import Rect
from tests import kd_reference as ref
from tests.kd_reference import KDInternal, KDLeaf


def sample_tree():
    """The structure of the paper's Figure 1 (ids stand in for L1..L7)."""
    return KDInternal(
        0, 3.0, 3.0,
        KDInternal(
            1, 3.0, 2.0,
            KDInternal(0, 2.0, 2.0, KDLeaf(1), KDLeaf(2)),
            KDLeaf(3),
        ),
        KDInternal(
            0, 5.0, 4.0,
            KDInternal(1, 4.0, 4.0, KDLeaf(4), KDLeaf(7)),
            KDInternal(1, 1.0, 1.0, KDLeaf(5), KDLeaf(6)),
        ),
    )


SPACE = Rect([0.0, 0.0], [6.0, 6.0])


def sample_table() -> SplitTable:
    return ref.split_table(sample_tree())


def _regions(table: SplitTable, region: Rect) -> dict[int, Rect]:
    ids, lows, highs = kdnodes.leaf_region_arrays(table, region.low, region.high)
    return {cid: Rect(lo, hi) for cid, lo, hi in zip(ids.tolist(), lows, highs)}


class TestBasics:
    def test_counts(self):
        table = sample_table()
        assert len(table.ids) == 7
        assert len(table.dim) == 6
        # Depth: the most splits on one row's path.
        rows = np.arange(7)[:, None]
        assert ((table.first <= rows) & (rows < table.end)).sum(axis=1).max() == 3

    def test_child_ids_in_order(self):
        node = IndexNode(sample_table(), level=1)
        assert node.fanout == 7
        assert node.child_ids() == [1, 2, 3, 4, 7, 5, 6]

    def test_rows_and_splits(self):
        table = sample_table()
        assert table.dim.tolist() == [0, 1, 0, 0, 1, 1]
        assert table.first.tolist() == [0, 0, 0, 3, 3, 5]
        assert table.end.tolist() == [7, 3, 2, 7, 5, 7]
        assert kdnodes.split_mids(table).tolist() == [3, 2, 1, 5, 4, 6]
        assert ref.same_table(ref.split_table(ref.kd_from_table(table)), table)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="coverage gap"):
            kdnodes.split_leaf(sample_table(), 2, 0, 1.0, 2.0, 3, 30)

    def test_overlap_property(self):
        table = sample_table()
        assert (table.lsp - table.rsp).tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]

    def test_split_dimensions(self):
        assert set(sample_table().dim.tolist()) == {0, 1}


class TestMapping:
    """The Section 3.1 mapping, checked against the paper's Figure 1."""

    def test_figure1_style_regions(self):
        """Left region = parent ∩ {x_dim <= lsp}, right = parent ∩ {x_dim >= rsp}."""
        regions = _regions(sample_table(), SPACE)
        assert regions[1] == Rect([0.0, 0.0], [2.0, 3.0])
        assert regions[2] == Rect([2.0, 0.0], [3.0, 3.0])
        # The overlapping sibling (rsp = 2 < lsp = 3) starts at y >= 2.
        assert regions[3] == Rect([0.0, 2.0], [3.0, 6.0])
        assert regions[4] == Rect([3.0, 0.0], [5.0, 4.0])
        assert regions[7] == Rect([3.0, 4.0], [5.0, 6.0])
        assert regions[5] == Rect([4.0, 0.0], [6.0, 1.0])
        assert regions[6] == Rect([4.0, 1.0], [6.0, 6.0])

    def test_overlap_between_siblings(self):
        regions = _regions(sample_table(), SPACE)
        # Children of a split with lsp > rsp have overlapping BRs: here the
        # subtree under lsp=3/rsp=2 (leaves 1, 2) against its sibling leaf 3.
        assert regions[3].overlap_volume(regions[1]) > 0
        assert regions[3].overlap_volume(regions[2]) > 0
        # Clean splits stay disjoint up to shared boundaries.
        assert regions[1].overlap_volume(regions[2]) == 0.0

    def test_region_of_child(self):
        table = sample_table()
        assert kdnodes.region_of_child(table, SPACE, 3) == Rect([0.0, 2.0], [3.0, 6.0])
        with pytest.raises(KeyError):
            kdnodes.region_of_child(table, SPACE, 99)
        with pytest.raises(KeyError):
            kdnodes.row_of(table, 99)

    def test_regions_cover_space_for_clean_tree(self):
        table = ref.split_table(KDInternal(0, 0.5, 0.5, KDLeaf(0), KDLeaf(1)))
        _, lows, highs = kdnodes.leaf_region_arrays(table, np.zeros(1), np.ones(1))
        assert highs[0, 0] == 0.5 and lows[1, 0] == 0.5


class TestSurgery:
    def test_replace_leaf(self):
        table = kdnodes.split_leaf(sample_table(), 2, 1, 2.5, 2.5, 3, 31)
        assert table.ids.tolist() == [1, 2, 3, 31, 4, 7, 5, 6]
        assert len(table.dim) == 7
        kdnodes.check_split_table(table, 2)

    def test_remove_leaf_promotes_sibling(self):
        table = kdnodes.remove_leaf(sample_table(), 2)
        assert table.ids.tolist() == [1, 2, 4, 7, 5, 6]
        # The split that held leaf 3 is gone; leaves 1, 2 lose its clip.
        assert len(table.dim) == 5
        assert _regions(table, SPACE)[1] == Rect([0.0, 0.0], [2.0, 6.0])
        kdnodes.check_split_table(table, 2)

    def test_remove_last_leaf_is_rejected(self):
        alone = ref.split_table(KDLeaf(5))
        with pytest.raises(ValueError):
            kdnodes.remove_leaf(alone, 0)

    def test_prune_to_children_preserves_pairwise_separation(self):
        table = sample_table()
        before = _regions(table, SPACE)
        keep = {4, 5, 6, 7}
        after = _regions(kdnodes.prune(table, keep), SPACE)
        assert set(after) == keep
        # Regions may only widen (dropped constraints), never shrink ...
        for cid in keep:
            assert after[cid].contains_rect(before[cid])
        # ... and kept siblings keep their LCA split.
        assert not after[5].intersects(after[4]) or before[5].intersects(before[4])

    def test_prune_to_nothing(self):
        with pytest.raises(ValueError):
            kdnodes.prune(sample_table(), set())

    def test_prune_single_child(self):
        pruned = kdnodes.prune(sample_table(), {4})
        assert pruned.ids.tolist() == [4] and len(pruned.dim) == 0

    def test_widen_moves_only_the_path(self):
        table = sample_table()
        # Leaf 2 is left of (0, 3), left of (1, 3/2), right of (0, 2).
        point = np.array([1.5, 3.5])
        widened = kdnodes.widen(table, 1, point, point)
        assert widened.lsp.tolist() == [3.0, 3.5, 2.0, 5.0, 4.0, 1.0]
        assert widened.rsp.tolist() == [3.0, 2.0, 1.5, 4.0, 4.0, 1.0]
        assert kdnodes.region_of_child(widened, SPACE, 2).contains_point(point)
        assert table.lsp.tolist() == [3.0, 3.0, 2.0, 5.0, 4.0, 1.0]  # untouched


class TestValidation:
    def test_valid_tree_passes(self):
        kdnodes.check_split_table(sample_table(), 2)

    def test_detects_gap_made_by_mutation(self):
        table = sample_table()
        gap = table._replace(lsp=np.where(np.arange(6) == 0, 2.0, table.lsp))
        gap = gap._replace(rsp=np.where(np.arange(6) == 0, 2.5, table.rsp))
        with pytest.raises(ValueError, match="lsp < rsp"):
            kdnodes.check_split_table(gap, 2)

    def test_detects_bad_dim(self):
        table = sample_table()
        with pytest.raises(ValueError, match="dim 1"):
            kdnodes.check_split_table(table, 1)
        with pytest.raises(ValueError, match="dim -1"):
            kdnodes.check_split_table(table._replace(dim=table.dim - 1), 2)


def test_randomized_mapping_matches_bruteforce(rng):
    """Mapping-derived regions equal the explicit intersection of the
    half-spaces on each child's path, and lie inside the node's region."""
    for _ in range(20):
        dims = int(rng.integers(2, 5))
        space = Rect.unit(dims)
        kd = _random_kd(rng, list(range(int(rng.integers(1, 20)))), dims, space)
        table = ref.split_table(kd)
        kdnodes.check_split_table(table, dims)
        ids, lows, highs = kdnodes.leaf_region_arrays(table, space.low, space.high)
        mid = kdnodes.split_mids(table)
        for row in range(len(ids)):
            low, high = space.low.copy(), space.high.copy()
            for i in range(len(table.dim)):
                if table.first[i] <= row < table.end[i]:
                    d = table.dim[i]
                    if row < mid[i]:
                        high[d] = min(high[d], max(table.lsp[i], low[d]))
                    else:
                        low[d] = max(low[d], min(table.rsp[i], high[d]))
            assert lows[row].tolist() == low.tolist() and highs[row].tolist() == high.tolist()
            assert space.contains_rect(Rect(lows[row], highs[row]))


# ----------------------------------------------------------------------
# Every edit against the object form, bit for bit
# ----------------------------------------------------------------------
def _random_position(rng, low: float, high: float) -> float:
    """A split position: inside, on a face, outside, or a signed zero."""
    kind = rng.random()
    if kind < 0.1:
        return float(rng.choice([0.0, -0.0]))
    if kind < 0.2:
        return float(rng.choice([low, high]))
    if kind < 0.35:
        return float(rng.uniform(low - 1.0, high + 1.0))
    return float(np.float32(rng.uniform(low, high)))


def _random_kd(rng, ids: list[int], dims: int, region: Rect):
    if len(ids) == 1:
        return KDLeaf(ids[0])
    cut = int(rng.integers(1, len(ids)))
    dim = int(rng.integers(dims))
    a = _random_position(rng, region.low[dim], region.high[dim])
    b = a if rng.random() < 0.35 else _random_position(rng, region.low[dim], region.high[dim])
    lsp, rsp = max(a, b), min(a, b)
    return KDInternal(
        dim, lsp, rsp,
        _random_kd(rng, ids[:cut], dims, region), _random_kd(rng, ids[cut:], dims, region),
    )


def _random_region(rng, dims: int) -> Rect:
    low = rng.uniform(-0.5, 0.5, dims)
    high = low + rng.uniform(0.0, 1.0, dims) * (rng.random(dims) > 0.2)
    zeros = rng.random(dims) < 0.2  # a face at a signed zero
    low[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    high[zeros] = np.maximum(high[zeros], 0.0)
    return Rect(low, high)


def _random_case(rng):
    dims = int(rng.integers(1, 5))
    region = _random_region(rng, dims)
    m = int(rng.integers(1, 30))
    ids = rng.permutation(3 * m)[:m].tolist()
    return _random_kd(rng, ids, dims, region), region


def _region_bits(rect: Rect) -> tuple[bytes, bytes]:
    return rect.low.tobytes(), rect.high.tobytes()


def _assert_same_regions(table: SplitTable, kd, region: Rect) -> None:
    ids, lows, highs = kdnodes.leaf_region_arrays(table, region.low, region.high)
    want = list(ref.leaves_with_regions(kd, region))
    assert ids.tolist() == [leaf.child_id for leaf, _ in want]
    for i, (leaf, leaf_region) in enumerate(want):
        assert (lows[i].tobytes(), highs[i].tobytes()) == _region_bits(leaf_region)
        got = kdnodes.region_of_child(table, region, leaf.child_id)
        assert _region_bits(got) == _region_bits(leaf_region)


def test_every_edit_equals_the_object_edit_on_random_tables():
    rng = np.random.default_rng(22)
    for _ in range(400):
        kd, region = _random_case(rng)
        table = ref.split_table(kd)
        _assert_same_regions(table, kd, region)
        ids = table.ids.tolist()
        row = int(rng.integers(len(ids)))
        dims = region.dims

        # Child split: the leaf becomes a split over it and a new child.
        dim = int(rng.integers(dims))
        lsp = _random_position(rng, region.low[dim], region.high[dim])
        rsp = min(lsp, _random_position(rng, region.low[dim], region.high[dim]))
        new_id, swap = max(ids) + 1, rng.random() < 0.5
        pair = (new_id, ids[row]) if swap else (ids[row], new_id)
        got = kdnodes.split_leaf(table, row, dim, lsp, rsp, *pair)
        want_kd = ref.replace_leaf(
            ref.kd_from_table(table), ids[row],
            KDInternal(dim, lsp, rsp, KDLeaf(pair[0]), KDLeaf(pair[1])),
        )
        assert ref.same_table(got, ref.split_table(want_kd))
        _assert_same_regions(got, want_kd, region)

        # Widen: to a point or a box, inside or outside the region.
        low = rng.uniform(region.low - 0.5, region.high + 0.5)
        high = low if rng.random() < 0.5 else low + rng.uniform(0.0, 0.5, dims)
        got = kdnodes.widen(table, row, low, high)
        want_kd = ref.kd_from_table(table)
        ref.widen_path_to(want_kd, ids[row], low, high)
        assert ref.same_table(got, ref.split_table(want_kd))
        _assert_same_regions(got, want_kd, region)

        if len(ids) < 2:
            continue
        # Removal: the sibling subtree takes the parent's place.
        got = kdnodes.remove_leaf(table, row)
        want_kd = ref.remove_leaf(ref.kd_from_table(table), ids[row])
        assert ref.same_table(got, ref.split_table(want_kd))
        _assert_same_regions(got, want_kd, region)

        # Prune: any non-empty subset of the children.
        keep = set(rng.choice(ids, int(rng.integers(1, len(ids) + 1)), replace=False).tolist())
        got = kdnodes.prune(table, keep)
        want_kd = ref.prune_to_children(ref.kd_from_table(table), keep)
        assert ref.same_table(got, ref.split_table(want_kd))
        _assert_same_regions(got, want_kd, region)


def test_point_walk_equals_the_derived_regions_holding_the_point():
    rng = np.random.default_rng(23)
    for _ in range(300):
        kd, region = _random_case(rng)
        table = ref.split_table(kd)
        rows = list(ref.leaves_with_regions(kd, region))
        points = [rng.uniform(region.low, region.high) for _ in range(4)]
        points += [region.low.copy(), region.high.copy()]
        for internal in ref.iter_internals(kd):
            for pos in (internal.lsp, internal.rsp):
                p = rng.uniform(region.low, region.high)
                p[internal.dim] = min(max(pos, region.low[internal.dim]), region.high[internal.dim])
                points.append(p)
        for p in points:
            got = kdnodes.leaves_holding_point(
                table, region.low.tolist(), region.high.tolist(), p.tolist()
            )
            want = [(leaf.child_id, r) for leaf, r in rows if r.contains_point(p)]
            assert [(cid, _region_bits(Rect(lo, hi))) for cid, lo, hi in got] == [
                (cid, _region_bits(r)) for cid, r in want
            ]


def test_stats_read_the_splits_as_the_object_walk_did():
    tree = HybridTree.bulk_load(np.random.default_rng(3).random((3000, 4)), page_size=512)
    # Widen one child of the root to the far corner: overlapping splits.
    root = tree.nm.get(tree.root_id, charge=False)
    corner = tree.bounds.high
    tree._widen_child(tree.root_id, root, tree.bounds, root.child_ids()[0], corner, corner)
    stats = compute_stats(tree)
    internals, dims, overlaps = 0, set(), []
    stack = [(tree.root_id, tree.bounds)]
    while stack:  # the stats walk's order: depth first, children in kd order
        node_id, region = stack.pop()
        node = tree.nm.get(node_id, charge=False)
        if not isinstance(node, IndexNode):
            continue
        for internal in ref.iter_internals(ref.kd_from_table(node.table)):
            internals += 1
            dims.add(internal.dim)
            span = region.high[internal.dim] - region.low[internal.dim]
            overlaps.append(
                internal.overlap / span if internal.overlap > 0 and span > 0 else 0.0
            )
        stack.extend(reversed(node.children_with_regions(region)))
    assert stats.kd_internal_count == internals
    assert stats.overlapping_split_count == sum(o > 0 for o in overlaps) > 0
    assert stats.split_dims_used == dims
    assert stats.avg_normalized_overlap == float(np.mean(overlaps))


# ----------------------------------------------------------------------
# The deepest legal kd-tree: a 3,638-split chain on a 64 KiB page
# ----------------------------------------------------------------------
DIMS = 4
PAGE = 65536


def _chain_tree():
    """A height-2 tree whose root holds a full 64 KiB index page as one
    chain: split ``i`` is on dim ``i % 4`` at ``(i + 1) / (n + 2)``, its
    left side one child and its right side the rest, so the last child is
    3,638 splits deep.  The last child's data node is full; every other
    one holds the minimum fill in a node of twice that capacity (kept
    small, so the 3,639 nodes take a few MB)."""
    rng = np.random.default_rng(0)
    tree = HybridTree(DIMS, page_size=PAGE, min_fill=0.01)
    m = tree.index_capacity
    n = m - 1
    ids = np.array([tree.nm.allocate() for _ in range(m)], dtype=np.int64)
    pos = ((np.arange(n) + 1.0) / (n + 2)).astype(np.float32).astype(np.float64)
    table = SplitTable(
        ids, np.arange(n) % DIMS, pos, pos.copy(), np.arange(n), np.full(n, m)
    )
    root_id = tree.nm.allocate()
    tree.nm.put(root_id, IndexNode(table, level=1))
    tree._root_id, tree._height = root_id, 2
    tree.bounds = Rect.unit(DIMS)
    _, lows, highs = kdnodes.leaf_region_arrays(table, tree.bounds.low, tree.bounds.high)
    fill = max(1, int(np.floor(tree.min_fill * tree.data_capacity)))
    oid = 0
    for row, child_id in enumerate(ids.tolist()):
        # Room for every survivor of an underflow: reinserts split no node.
        capacity = tree.data_capacity if row == n else 2 * fill
        node = DataNode(DIMS, capacity)
        # Region corners are float32 values, so are the rounded points.
        for p in rng.uniform(lows[row], highs[row], (capacity if row == n else fill, DIMS)):
            node.add(p.astype(np.float32), oid)
            oid += 1
        tree.nm.put(child_id, node)
        tree.els.set(child_id, node.live_rect())
    tree._count = oid
    return tree, table


def test_every_write_step_survives_a_chain_deeper_than_the_recursion_limit():
    tree, table = _chain_tree()
    n = len(table.dim)
    assert n == 3638
    tree.validate()
    assert compute_stats(tree).kd_internal_count == n

    # Descent: both walks reach the last child, 3,638 splits down.
    last_id = int(table.ids[n])
    last = tree.nm.get(last_id, charge=False)
    v, v_oid = last.points()[0].astype(np.float64), int(last.live_oids()[0])
    found = tree._find_entry(v, v_oid)
    assert found is not None and found[1] == last_id
    path = tree._containment_descent(
        tree.root_id, tree.bounds.low.tolist(), tree.bounds.high.tolist(), v.tolist()
    )
    assert path[-1][0] == last_id

    # Child split and prune: the last child is full, so an insert into it
    # splits it; the root then overflows and splits into two pruned chains.
    tree.insert(v, 10**6)
    assert tree.height == 3
    assert tree.nm.get(last_id, charge=False).count < tree.data_capacity
    root = tree.nm.get(tree.root_id, charge=False)
    halves = [tree.nm.get(c, charge=False) for c in root.child_ids()]
    assert sum(h.fanout for h in halves) == n + 2
    assert max(len(h.table.dim) for h in halves) > 1000
    tree.validate()

    # Removal: the first child's node drops below the minimum fill; it
    # leaves its parent and its survivors are reinserted down the chains.
    removed = []
    remove_child = tree._remove_child
    tree._remove_child = lambda path, child_id: (
        removed.append(child_id), remove_child(path, child_id)
    )
    first_id = int(table.ids[0])
    first = tree.nm.get(first_id, charge=False)
    count = len(tree)
    assert tree.delete(first.points()[0], int(first.live_oids()[0]))
    assert removed == [first_id] and len(tree) == count - 1
    halves = [tree.nm.get(c, charge=False) for c in root.child_ids()]
    assert sum(h.fanout for h in halves) >= n + 1
    tree.validate()

    # Widen: the deepest child of the deeper half takes in a far corner.
    deep = max(range(2), key=lambda i: len(halves[i].table.dim))
    node_id, node = root.child_ids()[deep], halves[deep]
    region = kdnodes.region_of_child(root.table, tree.bounds, node_id)
    child_id = node.child_ids()[-1]
    corner = region.low.copy()
    before = kdnodes.region_of_child(node.table, region, child_id)
    assert not before.contains_point(corner)
    widened = tree._widen_child(node_id, node, region, child_id, corner, corner)
    assert widened.contains_point(corner) and widened.contains_rect(before)
    tree.validate()
    stats = compute_stats(tree)
    assert stats.kd_internal_count == sum(len(h.table.dim) for h in halves) + 1
    assert stats.overlapping_split_count > 0
