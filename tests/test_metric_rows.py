"""Every metric's row-wise primitives, and the checks in front of them.

Each metric in :mod:`repro.distances` writes its formula once, as the
row-wise ``pair_distances(a, b)`` and ``pair_mindist(q, low, high)``; the
scalar ``distance`` / ``mindist_rect`` and the broadcast ``distance_batch``
are their one-row and broadcast cases, and every engine calls the
primitives unconditionally.  These tests pin:

- the primitives equal reference copies of the L_p and weighted-Euclidean
  formulas the engines used before (an ``axis=1`` reduction of the
  elementwise difference), bit for bit, and the quadratic-form bound is
  ``sqrt(lambda_min) * sqrt(sum d^2)``;
- the scalar forms equal the one-row case, and a row's result does not
  depend on how many rows share the call (1, 7, and a batch straddling
  the SOA kernel's ``_BLOCK_ELEMS`` block boundary) or on their layout:
  ``(E, 1, d)`` boxes against ``(1, Q, d)`` queries give the per-pair
  rows bit for bit, queries on box faces and at signed zeros included;
- ``distance_batch``, ``distance``, ``mindist_rect`` and ``pair_mindist``
  leave their arguments alone (``pair_distances`` may overwrite only its
  scratch operand ``b``);
- a non-finite ``approximation_factor`` and a metric of the wrong
  dimensionality (or no metric at all) are rejected before any page is
  read, on the single-query search, the object kernel and the SOA kernel;
- the VA-file, whose cell bounds now come from ``pair_mindist``, answers
  like a brute force under weighted and quadratic-form metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScan
from repro.baselines.vafile import VAFile
from repro.core import HybridTree
from repro.datasets.synthetic import clustered_dataset
from repro.distances import (
    L1,
    L2,
    LINF,
    LpMetric,
    Metric,
    QuadraticFormMetric,
    UserMetric,
    WeightedEuclidean,
)
from repro.engine.soa import kernel as soa_kernel


def _metrics(dims: int) -> dict[str, Metric]:
    rng = np.random.default_rng(dims)
    basis = rng.normal(size=(dims, dims))
    return {
        "L1": L1,
        "L2": L2,
        "Linf": LINF,
        "L3": LpMetric(3.0),
        "weighted": WeightedEuclidean(np.linspace(0.5, 2.0, dims)),
        "quadratic": QuadraticFormMetric(basis @ basis.T + dims * np.eye(dims)),
        "user": UserMetric(lambda a, b: float(np.abs(a - b).sum() ** 0.5)),
        "user-bound": UserMetric(
            lambda a, b: float(np.abs(a - b).max()),
            rect_lower_bound=lambda q, lo, hi: float(np.abs(q - np.clip(q, lo, hi)).max()),
        ),
    }


NAMES = list(_metrics(2))


# ----------------------------------------------------------------------
# Reference copies of the formulas the engines evaluated before
# ----------------------------------------------------------------------
def _ref_lp(p: float, diff: np.ndarray, axis=None):
    diff = np.abs(diff)
    if np.isinf(p):
        return diff.max(axis=axis)
    if p == 1.0:
        return diff.sum(axis=axis)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=axis))
    return (diff**p).sum(axis=axis) ** (1.0 / p)


def _ref_weighted(weights: np.ndarray, diff: np.ndarray, axis=None):
    return np.sqrt((weights * diff * diff).sum(axis=axis))


def _reference_rows(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Row ``i`` of the pre-refactor row-wise formula, or None when the
    metric had none."""
    diff = np.asarray(a, dtype=np.float64) - b
    if isinstance(metric, LpMetric):
        return _ref_lp(metric.p, diff, axis=1)
    if isinstance(metric, WeightedEuclidean):
        return _ref_weighted(metric.weights, diff, axis=1)
    return None


def _reference_scalar(metric: Metric, a: np.ndarray, b: np.ndarray) -> float | None:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if isinstance(metric, LpMetric):
        return float(_ref_lp(metric.p, diff))
    if isinstance(metric, WeightedEuclidean):
        return float(_ref_weighted(metric.weights, diff))
    return None


def _data(n: int, dims: int, seed: int = 0):
    """Float32 points (as leaves store them), float64 queries, boxes of
    which some contain their query and some have zero-extent sides."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, dims)).astype(np.float32)
    qs = rng.uniform(-0.2, 1.2, size=(n, dims))
    c1, c2 = rng.random((n, dims)), rng.random((n, dims))
    low, high = np.minimum(c1, c2), np.maximum(c1, c2)
    high[:, 0] = low[:, 0]
    return points, qs, low, high


def _bits_equal(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# ----------------------------------------------------------------------
# The primitives against the reference formulas and the scalar forms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [1, 5, 16, 64])
@pytest.mark.parametrize("name", NAMES)
def test_pair_forms_equal_reference_and_scalar_forms(name, dims):
    metric = _metrics(dims)[name]
    points, qs, low, high = _data(40, dims, seed=dims)
    dists = metric.pair_distances(points, qs.copy())
    bounds = metric.pair_mindist(qs, low, high)
    assert dists.dtype == bounds.dtype == np.float64
    assert dists.shape == bounds.shape == (40,)

    ref = _reference_rows(metric, points, qs)
    if ref is not None:
        assert _bits_equal(dists, ref)
        assert _bits_equal(bounds, _reference_rows(metric, qs, np.clip(qs, low, high)))
        scalar = [_reference_scalar(metric, p, q) for p, q in zip(points, qs)]
        if getattr(metric, "p", 2.0) in (1.0, 2.0, np.inf):
            assert _bits_equal(dists, scalar)
        else:
            # numpy's scalar and array power paths differ in the last bit,
            # so the 1-d formula is only close for a general p (the scalar
            # ``distance`` is the one-row case, checked below).
            assert np.allclose(dists, scalar, rtol=1e-14, atol=0)
    if isinstance(metric, QuadraticFormMetric):
        lam = np.linalg.eigvalsh(metric.matrix)[0]
        d = qs - np.clip(qs, low, high)
        assert _bits_equal(bounds, np.sqrt(lam) * np.sqrt((d * d).sum(axis=1)))
    if isinstance(metric, UserMetric):
        assert _bits_equal(dists, [metric.fn(p.astype(np.float64), q) for p, q in zip(points, qs)])
        if metric._rect_lower_bound is not None:
            expect = [metric._rect_lower_bound(*row) for row in zip(qs, low, high)]
            assert _bits_equal(bounds, expect)

    # The scalar forms are the one-row case.
    for i in range(len(qs)):
        assert _bits_equal(metric.distance(points[i], qs[i]), dists[i])
        assert _bits_equal(metric.mindist_rect(qs[i], low[i], high[i]), bounds[i])
        assert _bits_equal(
            metric.pair_distances(points[i], qs[i : i + 1].copy()), dists[i : i + 1]
        )
    # distance_batch is the broadcast case, from either side.
    q = qs[0]
    assert _bits_equal(
        metric.distance_batch(points, q),
        metric.pair_distances(points, np.repeat(q[None], len(points), axis=0)),
    )
    assert _bits_equal(
        metric.distance_batch(points, q), [metric.distance(p, q) for p in points]
    )
    # One box against many queries, and one query against many boxes.
    assert _bits_equal(
        metric.pair_mindist(qs, low[0], high[0]),
        [metric.mindist_rect(x, low[0], high[0]) for x in qs],
    )
    assert _bits_equal(
        metric.pair_mindist(q, low, high),
        [metric.mindist_rect(q, lo, hi) for lo, hi in zip(low, high)],
    )


@pytest.mark.parametrize("name", NAMES)
def test_bound_is_a_lower_bound(name):
    dims = 3
    metric = _metrics(dims)[name]
    rng = np.random.default_rng(5)
    _, qs, low, high = _data(25, dims, seed=9)
    bounds = metric.pair_mindist(qs, low, high)
    for i in range(len(qs)):
        members = rng.uniform(low[i], high[i], size=(50, dims))
        assert np.all(metric.distance_batch(members, qs[i]) >= bounds[i] - 1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_rows_do_not_depend_on_batch_size(name):
    # 64-d: one SOA block is _BLOCK_ELEMS // 64 rows, so the big batch
    # straddles a block boundary while staying cheap for user metrics.
    dims = 64
    metric = _metrics(dims)[name]
    n = soa_kernel._BLOCK_ELEMS // dims + 5
    points, qs, low, high = _data(n, dims, seed=3)
    whole_d = metric.pair_distances(points, qs.copy())
    whole_b = metric.pair_mindist(qs, low, high)
    blocks = soa_kernel._row_blocks(n, dims)
    assert len(blocks) == 2
    assert _bits_equal(
        whole_d, np.concatenate([metric.pair_distances(points[b], qs[b].copy()) for b in blocks])
    )
    assert _bits_equal(
        whole_b, np.concatenate([metric.pair_mindist(qs[b], low[b], high[b]) for b in blocks])
    )
    edge = blocks[0].stop
    for size in (1, 7):
        for lo in (0, edge - 3, n - size):
            rows = slice(lo, lo + size)
            assert _bits_equal(
                metric.pair_distances(points[rows], qs[rows].copy()), whole_d[rows]
            )
            assert _bits_equal(metric.pair_mindist(qs[rows], low[rows], high[rows]), whole_b[rows])


def _grouped_data(dims: int, n_edges: int = 5, n_queries: int = 6):
    """Boxes and queries with degenerate sides, queries on box faces and
    coordinates at +0.0 and -0.0 on both sides."""
    rng = np.random.default_rng(100 + dims)
    c1 = rng.uniform(-1.0, 1.0, size=(n_edges, dims))
    c2 = rng.uniform(-1.0, 1.0, size=(n_edges, dims))
    low, high = np.minimum(c1, c2), np.maximum(c1, c2)
    low[0], high[0] = -0.0, 0.0  # a point box at the origin
    low[1, ::2], high[1, ::2] = 0.0, 0.5  # faces at +0.0 ...
    low[2, 1::2], high[2, 1::2] = -0.5, -0.0  # ... and at -0.0
    high[3, 0] = low[3, 0]
    qs = rng.uniform(-1.2, 1.2, size=(n_queries, dims))
    qs[0] = 0.0
    qs[1] = -0.0
    qs[2] = low[3]  # on a box's low corner
    qs[3] = high[4]  # on a box's high corner
    qs[4, ::2] = low[1, ::2]  # on some faces, inside or outside others
    qs[4, 1::2] = high[2, 1::2]
    points = rng.uniform(-1.0, 1.0, size=(n_edges, dims)).astype(np.float32)
    points[0] = -0.0
    return points, qs, low, high


@pytest.mark.parametrize("dims", [1, 7, 8, 9, 16, 64, 128, 129])
@pytest.mark.parametrize("name", NAMES)
def test_grouped_rows_equal_pair_rows(name, dims):
    # The SOA frontier bounds every child of a parent against every live
    # query in one broadcast call; each (edge, query) entry must be the
    # bits of that pair's own row.
    metric = _metrics(dims)[name]
    points, qs, low, high = _grouped_data(dims)
    n_e, n_q = len(low), len(qs)
    e, q = np.divmod(np.arange(n_e * n_q), n_q)  # edge-major pairs

    grouped = metric.pair_mindist(qs[None], low[:, None], high[:, None])
    assert grouped.dtype == np.float64 and grouped.shape == (n_e, n_q)
    assert _bits_equal(grouped.ravel(), metric.pair_mindist(qs[q], low[e], high[e]))
    for i, j in zip(e, q):
        assert _bits_equal(grouped[i, j], metric.mindist_rect(qs[j], low[i], high[i]))

    scratch = np.broadcast_to(qs, (n_e, n_q, dims)).copy()
    dists = metric.pair_distances(points[:, None], scratch)
    assert dists.shape == (n_e, n_q)
    assert _bits_equal(dists.ravel(), metric.pair_distances(points[e], qs[q].copy()))


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_left_alone(name):
    dims = 6
    metric = _metrics(dims)[name]
    points, qs, low, high = _data(12, dims, seed=1)
    rows = points.astype(np.float64)
    args = [rows, qs, low, high, points]
    before = [x.copy() for x in args]
    metric.distance_batch(rows, rows[3])
    metric.distance_batch(points, qs[0])
    metric.distance(rows[0], qs[0])
    metric.mindist_rect(qs[0], low[0], high[0])
    metric.pair_mindist(qs, low, high)
    metric.pair_distances(points, qs.copy())  # ``a`` is read only
    for x, x0 in zip(args, before):
        assert _bits_equal(x, x0)


# ----------------------------------------------------------------------
# The float32 stage: a certified lower bound on pair_mindist
# ----------------------------------------------------------------------
F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
CERTIFIED = ["L1", "L2", "Linf", "weighted"]


def _certified_metrics(dims: int) -> dict[str, Metric]:
    """The certified metrics, plus weighted metrics whose weights span
    float32's range: subnormal and sub-float32 weights, and large ones."""
    out = {name: m for name, m in _metrics(dims).items() if name in CERTIFIED}
    spread = np.array([1e-42, 1e-300, 1.0, 3.0, 1e30, 1e-20])
    out["weighted-spread"] = WeightedEuclidean(np.resize(spread, dims))
    return out


def _f32(x) -> np.ndarray:
    """Round to float32 (beyond its range to +-inf), back as float64."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float64)


def _certificate_cases(dims: int, seed: int):
    """Float32-exact queries against float64 boxes covering every rounding
    hazard of the float32 stage: boxes that are not float32-exact, queries
    on box faces and at +-0.0, gaps that are float32 subnormals or round to
    zero in float32, squares that underflow, coordinates at and beyond
    float32's maximum, and infinite corners."""
    rng = np.random.default_rng(seed)
    n_q = 12
    # Gaps at every magnitude, from float64 subnormals to beyond float32.
    scale = 10.0 ** rng.integers(-320, 40, size=(n_q, dims)).astype(np.float64)
    qs = _f32(rng.uniform(-1.0, 1.0, size=(n_q, dims)) * np.minimum(scale, F32_MAX))
    qs[0] = 0.0
    qs[1] = -0.0
    qs[2] = F32_MAX * np.sign(rng.uniform(-1, 1, dims))
    qs[3] = F32_TINY
    qs[4] = _f32(rng.uniform(-1.0, 1.0, dims))
    qs[5] = qs[4]

    lows, highs = [], []

    def box(lo, hi):
        lo, hi = np.broadcast_to(lo, dims), np.broadcast_to(hi, dims)
        lows.append(np.minimum(lo, hi))
        highs.append(np.maximum(lo, hi))

    for q in qs:
        # Boxes just off the query: float64 steps, float32 subnormal steps,
        # and gaps whose squares underflow float32.
        box(np.nextafter(q, np.inf), q + 1e-300)
        box(q + 3 * F32_TINY, q + 7 * F32_TINY)
        box(q - 1e-22, q - 3e-23)
        box(q, q + rng.uniform(0, 1, dims))  # the query on a low face
        box(q - rng.uniform(0, 1, dims), q)  # ... and on a high face
        # Float32-exact boxes: no outward rounding hides a rounding error
        # of the float32 gaps or sums.
        side = np.where(rng.random(dims) < 0.5, -1.0, 1.0)
        near = _f32(q + side * rng.uniform(0.0, 1.0, dims) * np.maximum(np.abs(q), 1e-3))
        box(near, near)
        box(near, _f32(near + side * rng.uniform(0.0, 1.0, dims)))
    c1 = rng.uniform(-1.0, 1.0, size=(8, dims)) * 10.0 ** rng.integers(-40, 39, size=(8, 1))
    c2 = c1 + rng.uniform(0.0, 1.0, size=(8, dims)) * np.abs(c1)
    for lo, hi in zip(c1, c2):
        box(lo, hi)  # not float32-exact
    box(-0.0, 0.0)
    box(0.0, 0.5)
    box(-0.5, -0.0)
    box(1e39, 2e39)  # beyond float32, above
    box(-2e39, -1e39)  # ... and below
    box(-np.inf, -1e39)
    box(1e39, np.inf)
    box(-np.inf, np.inf)
    box(F32_MAX, np.inf)
    box(-np.inf, -F32_MAX)
    box(-F32_MAX, -F32_MAX / 2)
    box(np.inf, np.inf)
    return qs, np.array(lows), np.array(highs)


@pytest.mark.parametrize("dims", [1, 7, 8, 9, 16, 64, 128, 129])
def test_float32_stage_bound_is_below_exact_bound(dims):
    from repro.distances import round_out_f32

    for seed in range(3):
        qs, low, high = _certificate_cases(dims, seed)
        low32, high32 = round_out_f32(low, high)
        assert low32.dtype == high32.dtype == np.float32
        assert np.all(low32 <= low) and np.all(high <= high32)
        q32 = qs.astype(np.float32)
        assert np.array_equal(q32.astype(np.float64), qs)
        n_e, n_q = len(low), len(qs)
        e, q = np.divmod(np.arange(n_e * n_q), n_q)
        for name, metric in _certified_metrics(dims).items():
            with np.errstate(all="ignore"):
                exact = metric.pair_mindist(qs[None], low[:, None], high[:, None])
            grouped = metric.pair_mindist_lower32(q32[None], low32[:, None], high32[:, None])
            rows = metric.pair_mindist_lower32(q32[q], low32[e], high32[e])
            assert grouped.dtype == rows.dtype == np.float64, name
            assert grouped.shape == exact.shape and rows.shape == (n_e * n_q,), name
            assert not np.isnan(exact).any(), name
            # Compared as floats: no tolerance.
            bad = ~(grouped <= exact)
            assert not bad.any(), (name, seed, grouped[bad][:3], exact[bad][:3])
            assert not (~(rows <= exact.ravel())).any(), (name, seed)
            assert np.all(grouped >= 0) and np.all(rows >= 0), name


@pytest.mark.parametrize("dims", [1, 8, 64, 129])
def test_float32_stage_bound_is_tight(dims):
    # On data in float32's normal range the bound is within the rounding
    # margin and one float32 ulp of the box corners per dimension of the
    # exact one: loose enough to be safe, tight enough that the float32
    # stage prunes what the exact test prunes.
    from repro.distances import round_out_f32

    rng = np.random.default_rng(dims)
    qs = _f32(rng.uniform(0.0, 1.0, size=(20, dims)))
    low = rng.uniform(0.0, 1.0, size=(30, dims))
    high = low + rng.uniform(0.0, 0.2, size=(30, dims))
    low32, high32 = round_out_f32(low, high)
    for name, metric in _certified_metrics(dims).items():
        if name == "weighted-spread":
            continue
        exact = metric.pair_mindist(qs[None], low[:, None], high[:, None])
        bound = metric.pair_mindist_lower32(
            qs.astype(np.float32)[None], low32[:, None], high32[:, None]
        )
        assert np.all(bound <= exact), name
        slack = exact * 20 * (dims + 4) * 2.0**-24 + 4 * dims * 2.0**-23
        assert np.all(bound >= exact - slack), name
        assert (exact > 0).mean() > 0.5, name


@pytest.mark.parametrize("name", [n for n in NAMES if n not in CERTIFIED])
def test_float32_stage_is_none_without_certificate(name):
    dims = 5
    metric = _metrics(dims)[name]
    _, qs, low, high = _data(6, dims, seed=2)
    f32 = [x.astype(np.float32) for x in (qs, low, high)]
    assert metric.pair_mindist_lower32(*f32) is None
    empty = np.empty((0, dims), dtype=np.float32)
    assert metric.pair_mindist_lower32(empty, empty, empty) is None
    # A weighted metric with a non-finite weight has no certificate either.
    assert WeightedEuclidean([1.0, np.inf]).pair_mindist_lower32(
        np.zeros((1, 2), np.float32), np.zeros((1, 2), np.float32), np.ones((1, 2), np.float32)
    ) is None


def test_float32_stage_centers_round_trip_through_float32():
    # The frontier casts batch centers to float32 for its first stage; the
    # cast is exact because QueryBatch canonicalizes them to float32.
    from repro.engine.query import QueryBatch

    rng = np.random.default_rng(4)
    raw = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-40, 38, size=(50, 1))
    raw[0] = np.nextafter(1.0, 2.0)  # not float32-exact
    raw[1] = -0.0
    for batch in (
        QueryBatch.distance(raw, 1.0, L1, 7),
        QueryBatch.knn(raw, 3, L2, 0.0, 7),
    ):
        assert batch.centers.dtype == np.float64
        assert np.array_equal(batch.centers.astype(np.float32).astype(np.float64), batch.centers)
        assert _bits_equal(batch.centers, raw.astype(np.float32))


# ----------------------------------------------------------------------
# Checks in front of every engine
# ----------------------------------------------------------------------
DIMS = 4


@pytest.fixture(scope="module")
def tree():
    data = clustered_dataset(600, DIMS, seed=2)
    return HybridTree.bulk_load(data, page_size=512)


def _engines(tree):
    """Single-query search, object-kernel batch and SOA-kernel batch, each
    as ``(knn, distance_range)`` for one query."""
    def single():
        tree.invalidate_snapshot()
        return tree.knn, tree.distance_range

    def batch(soa: bool):
        def prep():
            if soa:
                tree.compile_snapshot()
            else:
                tree.invalidate_snapshot()
            knn = lambda q, k, metric, **kw: tree.knn_many([q], k, metric, **kw)
            dist = lambda q, r, metric: tree.distance_range_many([q], r, metric)
            return knn, dist

        return prep

    return {"single": single, "object": batch(False), "soa": batch(True)}


ENGINES = ["single", "object", "soa"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("eps", [np.inf, float("nan"), -0.5])
def test_non_finite_or_negative_approximation_is_rejected(tree, engine, eps):
    knn, _ = _engines(tree)[engine]()
    q = np.full(DIMS, 0.5)
    reads = tree.io.random_reads
    with pytest.raises(ValueError, match="approximation_factor"):
        knn(q, 3, L2, approximation_factor=eps)
    assert tree.io.random_reads == reads
    # A huge finite factor still answers (it prunes all but the first leaves).
    assert len(np.asarray(knn(q, 3, L2, approximation_factor=1e300), dtype=object).ravel())


BAD_METRICS = {
    "weighted-1": WeightedEuclidean([4.0]),
    "weighted-3": WeightedEuclidean(np.ones(DIMS - 1)),
    "weighted-5": WeightedEuclidean(np.ones(DIMS + 1)),
    "quadratic-3": QuadraticFormMetric(np.eye(DIMS - 1)),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", list(BAD_METRICS))
def test_metric_of_another_dimensionality_is_rejected(tree, engine, bad):
    knn, dist = _engines(tree)[engine]()
    metric = BAD_METRICS[bad]
    q = np.full(DIMS, 0.5)
    reads = tree.io.random_reads
    with pytest.raises(ValueError, match="dimensional"):
        knn(q, 3, metric)
    with pytest.raises(ValueError, match="dimensional"):
        dist(q, 0.3, metric)
    if engine == "single":
        with pytest.raises(ValueError, match="dimensional"):
            next(tree.nearest_iter(q, metric))
    assert tree.io.random_reads == reads


@pytest.mark.parametrize("engine", ENGINES)
def test_non_metric_is_a_type_error(tree, engine):
    knn, dist = _engines(tree)[engine]()
    q = np.full(DIMS, 0.5)
    for bad in ("L2", lambda a, b: 0.0, None):
        with pytest.raises(TypeError, match="Metric"):
            knn(q, 3, bad)
        with pytest.raises(TypeError, match="Metric"):
            dist(q, 0.3, bad)


@pytest.mark.parametrize("engine", ENGINES)
def test_metric_of_the_right_dimensionality_answers(tree, engine):
    knn, dist = _engines(tree)[engine]()
    q = np.full(DIMS, 0.5)
    metric = WeightedEuclidean(np.full(DIMS, 4.0))
    # 2 * L2, for weights of 4 in every dimension.
    got = knn(q, 5, metric)
    want = knn(q, 5, L2)
    if engine != "single":
        got, want = got[0], want[0]
    assert [o for o, _ in got] == [o for o, _ in want]
    assert np.allclose([d for _, d in got], [2 * d for _, d in want])


@pytest.mark.parametrize("cls", [SequentialScan, VAFile])
def test_scans_check_the_metric_first(cls):
    index = cls(DIMS)
    for i, v in enumerate(clustered_dataset(200, DIMS, seed=4)):
        index.insert(v, i)
    q = np.full(DIMS, 0.5)
    io = index.io
    reads = (io.random_reads, io.sequential_reads)
    for metric in BAD_METRICS.values():
        with pytest.raises(ValueError, match="dimensional"):
            index.knn(q, 3, metric)
        with pytest.raises(ValueError, match="dimensional"):
            index.distance_range(q, 0.3, metric)
    with pytest.raises(TypeError, match="Metric"):
        index.knn(q, 3, "L2")
    assert (io.random_reads, io.sequential_reads) == reads


# ----------------------------------------------------------------------
# The VA-file's cell bounds under non-L_p metrics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["weighted", "quadratic", "L1", "Linf"])
def test_vafile_equals_brute_force(name):
    metric = _metrics(DIMS)[name]
    data = clustered_dataset(500, DIMS, seed=6)
    va = VAFile(DIMS, bits=3)
    for i, v in enumerate(data):
        va.insert(v, i)
    stored = data.astype(np.float32).astype(np.float64)
    oids = np.arange(len(data))
    rng = np.random.default_rng(8)
    for q in rng.random((12, DIMS)).astype(np.float32).astype(np.float64):
        dists = metric.distance_batch(stored, q)
        order = np.lexsort((oids, dists))[:6]
        assert va.knn(q, 6, metric) == [(int(oids[i]), float(dists[i])) for i in order]
        radius = float(np.quantile(dists, 0.05))
        got = sorted(va.distance_range(q, radius, metric))
        want = sorted((int(i), float(dists[i])) for i in np.flatnonzero(dists <= radius))
        assert got == want
