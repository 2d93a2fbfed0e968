"""Tests for top-down bulk loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridTree, bulkload, compute_stats
from repro.core.bulkload import bulk_load_into
from repro.core.splits import choose_data_split
from repro.datasets import clustered_dataset, uniform_dataset
from repro.geometry.rect import Rect
from repro.storage.page import PageLayout, data_node_capacity
from tests import bulk_reference
from tests.conftest import brute_force_range, random_boxes


class TestBulkLoad:
    def test_equivalent_results_to_dynamic(self, rng):
        data = uniform_dataset(4000, 8, seed=20)
        bulk = HybridTree.bulk_load(data)
        dynamic = HybridTree(8)
        for oid, v in enumerate(data):
            dynamic.insert(v, oid)
        for query in random_boxes(rng, 8, 15):
            expected = brute_force_range(data, query)
            assert set(bulk.range_search(query)) == expected
            assert set(dynamic.range_search(query)) == expected

    def test_validates(self):
        data = clustered_dataset(6000, 16, clusters=7, seed=21)
        tree = HybridTree.bulk_load(data)
        tree.validate()
        assert len(tree) == 6000

    def test_zero_overlap_after_bulk(self):
        data = uniform_dataset(5000, 8, seed=22)
        tree = HybridTree.bulk_load(data)
        stats = compute_stats(tree)
        assert stats.overlapping_split_count == 0
        assert stats.data_level_overlap_volume == pytest.approx(0.0)

    def test_custom_oids(self):
        data = uniform_dataset(100, 4, seed=23)
        oids = np.arange(1000, 1100, dtype=np.uint32)
        tree = HybridTree.bulk_load(data, oids=oids)
        assert sorted(tree.range_search(Rect.unit(4))) == list(range(1000, 1100))

    def test_small_datasets(self):
        for n in (0, 1, 2, 5):
            data = uniform_dataset(n, 4, seed=24) if n else np.empty((0, 4), np.float32)
            tree = HybridTree.bulk_load(data)
            assert len(tree) == n
            if n:
                tree.validate()
                assert len(tree.range_search(Rect.unit(4))) == n

    def test_single_data_node(self):
        data = uniform_dataset(10, 64, seed=25)
        tree = HybridTree.bulk_load(data)
        assert tree.height == 1
        assert len(tree.range_search(Rect.unit(64))) == 10

    def test_dynamic_inserts_after_bulk(self, rng):
        data = uniform_dataset(3000, 8, seed=26)
        tree = HybridTree.bulk_load(data)
        extra = uniform_dataset(500, 8, seed=27)
        for i, v in enumerate(extra):
            tree.insert(v, 10_000 + i)
        tree.validate()
        everything = np.vstack([data, extra])
        q = random_boxes(rng, 8, 5)[0]
        assert set(tree.range_search(q)) == {
            (i if i < 3000 else 10_000 + i - 3000)
            for i in brute_force_range(everything, q)
        }

    def test_deletes_after_bulk(self):
        data = uniform_dataset(2000, 8, seed=28)
        tree = HybridTree.bulk_load(data)
        for oid in range(700):
            assert tree.delete(data[oid], oid)
        tree.validate()
        assert len(tree) == 1300

    def test_rejects_nonempty_tree(self):
        data = uniform_dataset(50, 4, seed=29)
        tree = HybridTree(4)
        tree.insert(data[0], 0)
        with pytest.raises(ValueError):
            bulk_load_into(tree, data)

    def test_rejects_misaligned_oids(self):
        data = uniform_dataset(50, 4, seed=30)
        with pytest.raises(ValueError):
            HybridTree.bulk_load(data, oids=np.arange(49))

    def test_rejects_wrong_shape(self):
        tree = HybridTree(4)
        with pytest.raises(ValueError):
            bulk_load_into(tree, np.zeros((10, 5), dtype=np.float32))

    def test_utilization_reasonable(self):
        data = uniform_dataset(8000, 16, seed=31)
        tree = HybridTree.bulk_load(data)
        stats = compute_stats(tree)
        assert stats.avg_data_utilization >= 0.5

    def test_duplicates_bulk(self):
        data = np.tile(np.array([[0.5] * 4], dtype=np.float32), (500, 1))
        tree = HybridTree.bulk_load(data)
        tree.validate()
        assert len(tree.point_search(data[0])) == 500


class TestWritePathFixes:
    """Regression tests for the write-path bugfix sweep."""

    def test_bulk_load_marks_tree_modified(self):
        data = uniform_dataset(200, 4, seed=40)
        tree = HybridTree(4)
        bulk_load_into(tree, data)
        assert tree.modified_since_save
        assert tree._soa_snapshot is None

    def test_bulk_into_reopened_empty_tree_requires_save(self, tmp_path):
        """A bulk load is a mutation like any other: the parallel-session
        guard must see it, or workers would silently serve the stale file."""
        path = str(tmp_path / "empty.pages")
        seed = HybridTree(4)
        seed.save(path)
        seed.close()
        tree = HybridTree.open(path)
        bulk_load_into(tree, uniform_dataset(300, 4, seed=41))
        assert tree.modified_since_save
        assert tree._soa_snapshot is None  # stale SOA kernel dropped
        with pytest.raises(ValueError, match="unsaved"):
            tree.session(workers=2)
        tree.close()

    def test_insert_rejects_out_of_range_oids(self):
        from repro.core import MAX_OID, OidRangeError

        tree = HybridTree(4)
        v = np.full(4, 0.5, dtype=np.float32)
        for bad in (-1, MAX_OID + 1, 2**40):
            with pytest.raises(OidRangeError):
                tree.insert(v, bad)
        with pytest.raises(OidRangeError):
            tree.insert(v, 1.5)  # not an integer at all
        assert len(tree) == 0  # nothing slipped in
        tree.insert(v, MAX_OID)  # the boundary itself is storable
        assert tree.point_search(v) == [MAX_OID]

    def test_bulk_load_rejects_out_of_range_oids(self):
        """np.asarray(..., dtype=np.uint32) used to wrap int64 oids
        silently; every bad id must now raise before the tree mutates."""
        from repro.core import MAX_OID, OidRangeError

        data = uniform_dataset(50, 4, seed=42)
        bad_oid_sets = [
            np.arange(50, dtype=np.int64) - 1,  # negative
            np.arange(50, dtype=np.int64) + MAX_OID - 10,  # > MAX_OID
            np.arange(50, dtype=np.float64),  # non-integer dtype
        ]
        for oids in bad_oid_sets:
            with pytest.raises(OidRangeError):
                HybridTree.bulk_load(data, oids=oids)
        ok = np.arange(50, dtype=np.int64) + (MAX_OID - 49)
        tree = HybridTree.bulk_load(data, oids=ok)
        found = sorted(tree.range_search(Rect([0.0] * 4, [1.0] * 4)))
        assert found == sorted(int(o) for o in ok)

    def test_skewed_split_tree_falls_back_to_dynamic_inserts(self):
        """Geometrically-skewed data at a tiny min_fill produces pack
        partitions with a single leaf on one side; packing used to raise
        NotImplementedError — now those entries defer to dynamic inserts."""
        n = 600
        data = np.empty((n, 2), dtype=np.float32)
        data[:, 0] = 0.9 ** np.arange(n)
        data[:, 0] /= data[:, 0].max()
        data[:, 1] = 0.5
        tree = HybridTree(2, page_size=512, min_fill=0.05)
        deferred = bulk_load_into(tree, data)
        assert deferred > 0  # the skew fallback really fired
        assert len(tree) == n
        tree.validate()
        for i in range(0, n, 37):
            assert i in tree.point_search(data[i])


# SHA-256 of the file the bulk load below saves, recorded from the bulk
# loader that built kd objects (before it emitted split tables).
BULK_SHA256 = "ab18613f7402985eb3992d80ca290f2b4693e4896a2ca771525f0044ef717347"


def test_a_bulk_loaded_tree_saves_the_pinned_file(tmp_path):
    import hashlib

    data = clustered_dataset(3000, 4, seed=0)
    HybridTree.bulk_load(data, page_size=512).save(tmp_path / "bulk.pages")
    digest = hashlib.sha256((tmp_path / "bulk.pages").read_bytes()).hexdigest()
    assert digest == BULK_SHA256


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "beyond-float32"]
)
def test_bulk_load_rejects_non_finite_vectors(bad):
    """``insert`` rejects a non-finite vector; so does a bulk load, before
    it allocates a page (a float64 value beyond float32's range becomes
    inf in the cast, and is caught too)."""
    data = uniform_dataset(5000, 4, seed=3).astype(np.float64)
    data[17, 2] = bad
    data[4000, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        HybridTree.bulk_load(data)
    tree = HybridTree(4)
    pages = tree.pages()
    with pytest.raises(ValueError, match="finite"):
        bulk_load_into(tree, data)
    assert len(tree) == 0 and tree.pages() == pages
    assert tree.bounds.low.tolist() == HybridTree(4).bounds.low.tolist()
    # The tree is untouched: a finite load goes through and answers.
    finite = np.isfinite(data).all(axis=1) & (np.abs(data) < 1e38).all(axis=1)
    bulk_load_into(tree, data[finite])
    tree.validate()
    assert sorted(tree.range_search(Rect.unit(4))) == list(range(int(finite.sum())))


# ----------------------------------------------------------------------
# The level-synchronous data level against the per-node reference
# ----------------------------------------------------------------------
F32_MAX = float(np.finfo(np.float32).max)
KINDS = ("grid", "constant", "signed", "uniform")


def _dataset(kind: str, n: int, dims: int, seed: int) -> np.ndarray:
    """Datasets whose ties and extremes stress the split rule: integer
    grids full of duplicates, constant dimensions, signed zeros next to
    +-float32 max, and plain uniform points."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return rng.integers(0, 4, (n, dims)).astype(np.float32)
    if kind == "constant":
        data = rng.integers(0, 50, (n, dims)).astype(np.float32) / 8
        data[:, rng.random(dims) < 0.5] = 0.25
        return data
    if kind == "signed":
        values = np.array([-0.0, 0.0, 1.0, -1.0, F32_MAX, -F32_MAX], dtype=np.float32)
        return rng.choice(values, (n, dims))
    return rng.random((n, dims), dtype=np.float32)


def _data_level_of(loader, data: np.ndarray, **options):
    """Run a data-level loader on a fresh tree, as ``_bulk_load_inner``
    does; returns the split table, the leaves' bytes and the ELS bytes."""
    tree = HybridTree(data.shape[1], **options)
    tree.nm.free(tree._root_id)
    n = len(data)
    table = loader(tree, data, np.arange(n, dtype=np.uint32) * 3 + 7, n)
    leaves = [tree.nm.get(int(pid), charge=False) for pid in table.ids]
    return (
        [(col.dtype.str, col.tobytes()) for col in table],
        [(leaf.points().tobytes(), leaf.live_oids().tobytes()) for leaf in leaves],
        [part.tobytes() for part in tree.els.arrays()],
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dims=st.integers(1, 6),
    pages=st.integers(1, 12),
    delta=st.sampled_from((-1, 0, 1)),
    seed=st.integers(0, 2**16),
    min_fill=st.sampled_from((0.05, 0.25, 0.4, 0.5)),
    page_size=st.sampled_from((512, 1024, 4096)),
    policy=st.sampled_from(("eda", "vam")),
    position=st.sampled_from(("middle", "median")),
)
def test_data_level_matches_the_per_node_reference(
    kind, dims, pages, delta, seed, min_fill, page_size, policy, position
):
    """Split table, leaf page ids, leaf vectors and oids in order, and
    ELS boxes are bit-equal to the per-node loader's, for ``n`` around
    multiples of the data capacity."""
    capacity = data_node_capacity(dims, PageLayout(page_size=page_size))
    data = _dataset(kind, pages * capacity + delta, dims, seed)
    options = dict(
        page_size=page_size, min_fill=min_fill, split_policy=policy,
        split_position=position,
    )
    assert _data_level_of(bulkload._data_level, data, **options) == _data_level_of(
        bulk_reference._data_level, data, **options
    )


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS + ("few",)),
    n=st.integers(2, 70),
    dims=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    min_fill=st.sampled_from((0.05, 0.25, 0.4, 0.5)),
    policy=st.sampled_from(("eda", "vam")),
    position=st.sampled_from(("middle", "median")),
    as_float64=st.booleans(),
)
def test_one_segment_rule_matches_the_reference_split(
    kind, n, dims, seed, min_fill, policy, position, as_float64
):
    """``choose_data_split`` (the one-segment case of ``split_segments``)
    against the per-node reference on node-sized inputs.  The rule
    computes in float64 whatever the input dtype, as the reference does on
    the float64 copy the loader gave it; ``few`` data (at most two values
    per dimension) often forces the rank split."""
    if kind == "few":
        data = np.random.default_rng(seed).integers(0, 2, (n, dims)).astype(np.float32)
    else:
        data = _dataset(kind, n, dims, seed)
    points = data.astype(np.float64) if as_float64 else data
    got = choose_data_split(points, min_fill, policy, position)
    want = bulk_reference.choose_data_split(
        data.astype(np.float64), min_fill, policy, position
    )
    assert got.dim == want.dim
    assert np.float64(got.position).tobytes() == np.float64(want.position).tobytes()
    assert got.left_indices.tolist() == want.left_indices.tolist()
    assert got.right_indices.tolist() == want.right_indices.tolist()


def test_rank_split_when_every_dimension_is_constant():
    points = np.zeros((9, 3))
    points[:, 1] = -0.0
    for policy in ("eda", "vam"):
        got = choose_data_split(points, 0.4, policy)
        want = bulk_reference.choose_data_split(points, 0.4, policy)
        assert (got.dim, got.left_indices.tolist(), got.right_indices.tolist()) == (
            want.dim, want.left_indices.tolist(), want.right_indices.tolist()
        )
        assert len(got.left_indices) == 4


@pytest.mark.parametrize(
    "generator, dims",
    [("fourier", 16), ("colhist", 32), ("colhist", 64)],
    ids=["fourier16", "colhist32", "colhist64"],
)
def test_saved_file_equals_the_reference_loaders(tmp_path, monkeypatch, generator, dims):
    """The whole pipeline (pack levels, save) on the benchmark's
    generators at N = 5,000: the file is byte-identical to the one the
    per-node loader builds."""
    import hashlib

    from repro.datasets import colhist_dataset, fourier_dataset

    make = fourier_dataset if generator == "fourier" else colhist_dataset
    data = make(5000, dims, seed=0)
    digests = []
    for loader in (bulkload._data_level, bulk_reference._data_level):
        monkeypatch.setattr(bulkload, "_data_level", loader)
        path = tmp_path / f"{len(digests)}.pages"
        HybridTree.bulk_load(data).save(path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_rr_bulk_load_is_exact(rng):
    """``rr`` advances its cycle once per split in level order, so its
    trees differ from the per-node loader's; they stay valid and exact."""
    data = uniform_dataset(3000, 5, seed=64)
    tree = HybridTree.bulk_load(data, split_policy="rr")
    tree.validate()
    for query in random_boxes(rng, 5, 5):
        assert set(tree.range_search(query)) == brute_force_range(data, query)


# Traced peak of HybridTree.bulk_load on the dataset below, in a fresh
# process: 19,839,372 bytes with the per-node loader (a float64 copy of
# every partition it split, the root's whole dataset first); 15,563,408
# with the level-synchronous loader (numpy 2.4, CPython 3.11).
PER_NODE_LOADER_PEAK = 19_839_372


def test_bulk_load_traced_peak_is_at_most_the_per_node_loaders():
    import tracemalloc

    data = uniform_dataset(50_000, 32, seed=7)
    assert data.dtype == np.float32
    tracemalloc.start()
    try:
        HybridTree.bulk_load(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_NODE_LOADER_PEAK, f"traced peak {peak / 2**20:.1f} MiB"
