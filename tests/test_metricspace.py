import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import distance
from scipy.spatial.distance import cdist, pdist, squareform

from ecdkit import metricspace
from ecdkit.errors import (
    AsymmetryError,
    DimensionMismatch,
    EmptySet,
    InvalidSpec,
    NegativeDistanceError,
    NonFiniteInput,
    NonSquareError,
    NonzeroDiagonalError,
    SchemaError,
    SizeMismatch,
)
from ecdkit.metricspace import (
    DistanceMatrix,
    FeatureSet,
    PooledLabels,
    cross_distances,
    load_distance_csv,
    load_feature_csv,
    pairwise_distances,
    validate_distance_matrix,
)

ecd_module = importlib.import_module("ecdkit.ecd")  # the package exports a function `ecd`

STRIP = metricspace._STRIP_ROWS
# the gates pin pairwise_distances, bit for bit, to scipy under this metric
# name, and their test ids carry it
REFERENCE = pytest.mark.parametrize("metric", ["euclidean"])


def test_feature_set_coerces_1d_to_column():
    fs = FeatureSet(np.array([1.0, 2.0, 3.0]))
    assert fs.points.shape == (3, 1)
    assert fs.n_points == 3
    assert fs.dim == 1


def test_feature_set_rejects_bad_input():
    with pytest.raises(EmptySet):
        FeatureSet(np.empty((0, 2)))
    with pytest.raises(NonFiniteInput):
        FeatureSet(np.array([[0.0], [np.nan]]))
    with pytest.raises(DimensionMismatch):
        FeatureSet(np.zeros((2, 2, 2)))


def test_pairwise_distances_worked_values():
    a = FeatureSet(np.array([0.0, 1.0]))
    b = FeatureSet(np.array([10.0, 11.0]))
    d = pairwise_distances(a, b)
    expected = np.array([
        [0.0, 1.0, 10.0, 11.0],
        [1.0, 0.0, 9.0, 10.0],
        [10.0, 9.0, 0.0, 1.0],
        [11.0, 10.0, 1.0, 0.0],
    ])
    assert np.allclose(d.values, expected)


def test_pairwise_distances_bitwise_symmetric():
    rng = np.random.default_rng(3)
    a = FeatureSet(rng.standard_normal((15, 4)))
    b = FeatureSet(rng.standard_normal((11, 4)))
    d = pairwise_distances(a, b)
    assert np.array_equal(d.values, d.values.T)
    assert np.all(np.diagonal(d.values) == 0.0)


def mirrored_cdist(a, b, metric):
    """The pooled matrix as cdist -> upper triangle -> mirror builds it."""
    pooled = np.vstack([a.points, b.points])
    upper = np.triu(cdist(pooled, pooled, metric=metric), k=1)
    return upper + upper.T


@REFERENCE
@pytest.mark.parametrize(
    "n, m, dim", [(15, 11, 4), (8, 9, 1), (100, 77, 32), (3, 2, 300), (500, 500, 1000)]
)
def test_pairwise_distances_bitwise_gate(metric, n, m, dim):
    rng = np.random.default_rng(n * m + dim)
    a = FeatureSet(rng.standard_normal((n, dim)))
    b = FeatureSet(rng.standard_normal((m, dim)) * 1.7 + 0.3)
    d = pairwise_distances(a, b).values
    assert d.tobytes() == mirrored_cdist(a, b, metric).tobytes()
    # the cross block is what coverage and MMD compute on their own
    assert d[:n, n:].tobytes() == cross_distances(a, b).tobytes()


@REFERENCE
def test_pairwise_distances_overflow_is_not_finite(metric):
    # finite features whose distance overflows to inf
    a = FeatureSet(np.array([[1e200]]))
    b = FeatureSet(np.array([[-1e200]]))
    assert np.isinf(cdist(a.points, b.points, metric)).all()
    with pytest.raises(NonFiniteInput, match=r"^distances must be finite$"):
        pairwise_distances(a, b)


def strip_inputs(kind, n, dim=5):
    rng = np.random.default_rng(n)
    if kind == "duplicate":
        return rng.standard_normal((4, dim))[rng.integers(0, 4, n)]
    if kind == "binary":
        return rng.choice([-1.0, 1.0], size=(n, dim))
    return rng.choice([0.0, -0.0, 0.75, -1.5], size=(n, dim))  # signed zeros


@REFERENCE
@pytest.mark.parametrize("kind", ["duplicate", "binary", "signed_zero"])
@pytest.mark.parametrize("n", [2, 3, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1])
def test_pairwise_distances_strips_equal_whole_pdist(metric, kind, n):
    pts = strip_inputs(kind, n)
    d = pairwise_distances(FeatureSet(pts[:n // 2]), FeatureSet(pts[n // 2:])).values
    assert d.tobytes() == squareform(pdist(pts, metric)).tobytes()


@REFERENCE
@pytest.mark.parametrize("layout", ["C", "F", "int"])
@pytest.mark.parametrize("m", [1, 2, STRIP + 3])
@pytest.mark.parametrize("n", [1, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 5])
def test_pairwise_distances_strips_never_cross_the_split(metric, layout, m, n):
    # strips walk a, then b: wherever the split falls in the pooled strip
    # grid, every entry is still bitwise the whole pool's pdist
    rng = np.random.default_rng(n * 1000 + m)
    if layout == "int":
        pa, pb = rng.integers(-4, 5, (n, 6)), rng.integers(-4, 5, (m, 6))
    else:
        pa, pb = rng.standard_normal((n, 6)), rng.standard_normal((m, 6)) * 1.7 + 0.3
        if layout == "F":
            pa, pb = np.asfortranarray(pa), np.asfortranarray(pb)
    d = pairwise_distances(FeatureSet(pa), FeatureSet(pb)).values
    pooled = np.vstack([pa, pb]).astype(np.float64)
    assert d.tobytes() == squareform(pdist(pooled, metric)).tobytes()


@REFERENCE
@pytest.mark.parametrize("i, j", [
    (99, 100),  # across the split: the last row of a and the first row of b
    (2 * STRIP - 1, 2 * STRIP),  # in the last off-diagonal strip
    (STRIP, 2 * STRIP - 1),  # inside a diagonal block
    (0, 1),  # inside the first diagonal block
])
def test_pairwise_distances_overflow_in_one_block(metric, i, j):
    n = 2 * STRIP + 1
    pts = np.random.default_rng(9).standard_normal((n, 2))
    # only the distance between rows i and j overflows
    pts[i, 0], pts[j, 0] = 1e154, -1e154
    whole = squareform(pdist(pts, metric))
    assert np.argwhere(~np.isfinite(whole)).tolist() == [[i, j], [j, i]]
    with pytest.raises(NonFiniteInput, match=r"^distances must be finite$"):
        pairwise_distances(FeatureSet(pts[:100]), FeatureSet(pts[100:]))


@pytest.mark.parametrize("kernel", ["pdist", "cdist"])
def test_pairwise_distances_nan_is_not_finite(monkeypatch, kernel):
    # the check takes the max of each strip: a NaN must not hide under it;
    # pairwise_distances looks the kernels up in scipy at call time
    original = getattr(distance, kernel)

    def with_nan(*args, **kwargs):
        out = original(*args, **kwargs)
        out.flat[-1] = np.nan
        return out

    monkeypatch.setattr(distance, kernel, with_nan)
    pts = np.random.default_rng(10).standard_normal((2 * STRIP + 1, 3))
    with pytest.raises(NonFiniteInput, match=r"^distances must be finite$"):
        pairwise_distances(FeatureSet(pts[:100]), FeatureSet(pts[100:]))


def assert_passes_validation(d):
    checked = DistanceMatrix(d.values.copy())
    assert checked.values.dtype == d.values.dtype == np.float64
    assert checked.values.tobytes() == d.values.tobytes()


@REFERENCE
@pytest.mark.parametrize("kind", ["gaussian", "binary", "duplicate"])
def test_pairwise_distances_pass_validation(metric, kind):
    rng = np.random.default_rng(21)
    if kind == "gaussian":
        pts = rng.standard_normal((40, 6))
    elif kind == "binary":
        pts = rng.choice([-1.0, 1.0], size=(40, 6))
    else:
        pts = rng.standard_normal((8, 6))[rng.integers(0, 8, 40)]
    d = pairwise_distances(FeatureSet(pts[:25]), FeatureSet(pts[25:]))
    assert d.values.tobytes() == squareform(pdist(pts, metric)).tobytes()
    assert_passes_validation(d)


def test_subsample_gather_passes_validation(monkeypatch):
    rng = np.random.default_rng(22)
    pts = rng.standard_normal((30, 4))
    d = pairwise_distances(FeatureSet(pts[:18]), FeatureSet(pts[18:]))
    gathered = []
    score = ecd_module.ecd_from_distances

    def spy(sub, labels, k):
        gathered.append(sub)
        return score(sub, labels, k)

    monkeypatch.setattr(ecd_module, "ecd_from_distances", spy)
    ecd_module.ecd_subsampled_from_distances(d, PooledLabels(18, 12), k=2, rounds=3, seed=4)
    assert [sub.n_points for sub in gathered] == [24, 24, 24]
    for sub in gathered:
        assert_passes_validation(sub)


def test_pairwise_distances_peak_memory():
    # the result plus one strip: no condensed copy, no N x N temporary
    n = 1500
    pts = np.stack([np.arange(n) * 0.5 ** k for k in range(8)], axis=1)
    a, b = FeatureSet(pts[:700]), FeatureSet(pts[700:])
    tracemalloc.start()
    try:
        pairwise_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def test_pairwise_distances_makes_no_pooled_copy():
    # high-dimensional sets: a pooled copy of the points (9.6 MB here) would
    # outweigh the strip's distances; the sets are read in place
    rng = np.random.default_rng(23)
    a = FeatureSet(rng.standard_normal((300, 2000)))
    b = FeatureSet(rng.standard_normal((300, 2000)))
    tracemalloc.start()
    try:
        values = pairwise_distances(a, b).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < 2 * 2**20


def test_dimension_mismatch():
    a = FeatureSet(np.zeros((3, 2)))
    b = FeatureSet(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        pairwise_distances(a, b)
    with pytest.raises(DimensionMismatch):
        cross_distances(a, b)


def test_cross_distances_shape_and_values():
    a = FeatureSet(np.array([1.0]))
    b = FeatureSet(np.array([0.0, 5.0]))
    c = cross_distances(a, b)
    assert c.shape == (1, 2)
    assert np.allclose(c, [[1.0, 4.0]])


def test_triangle_inequality_on_random_sets():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((12, 5))
    d = pairwise_distances(FeatureSet(pts[:7]), FeatureSet(pts[7:])).values
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


def test_distance_matrix_validation():
    with pytest.raises(NonSquareError):
        DistanceMatrix(np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(AsymmetryError):
        DistanceMatrix(bad)
    with pytest.raises(NonzeroDiagonalError):
        DistanceMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(NegativeDistanceError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(NonFiniteInput):
        DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_validate_distance_matrix_repairs_noise():
    base = np.array([[0.0, 2.0], [2.0, 0.0]])
    noisy = base.copy()
    noisy[0, 1] += 3e-10
    noisy[0, 0] = 1e-10
    d = validate_distance_matrix(noisy)
    assert d.values[0, 0] == 0.0
    assert d.values[0, 1] == d.values[1, 0]
    assert abs(d.values[0, 1] - 2.0) < 1e-9


def test_validate_distance_matrix_rejects_gross_violations():
    with pytest.raises(AsymmetryError):
        validate_distance_matrix(np.array([[0.0, 1.0], [1.1, 0.0]]))
    with pytest.raises(NonzeroDiagonalError):
        validate_distance_matrix(np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(NegativeDistanceError):
        validate_distance_matrix(np.array([[0.0, -0.5], [-0.5, 0.0]]))


@pytest.mark.filterwarnings("error")
def test_validate_distance_matrix_rejects_overflowing_symmetrization():
    # symmetric and finite, but each entry plus its mirror overflows to inf
    raw = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
    with pytest.raises(NonFiniteInput, match=r"^distances must be finite$"):
        validate_distance_matrix(raw)


def test_validate_distance_matrix_checks_tolerance(tmp_path):
    asym = np.array([[0.0, 1.0, 5.0], [3.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    for bad in (np.nan, -1e-9):
        with pytest.raises(InvalidSpec):
            validate_distance_matrix(asym, tolerance=bad)
        # the tolerance is rejected even for an exactly symmetric matrix
        with pytest.raises(InvalidSpec):
            validate_distance_matrix(np.zeros((3, 3)), tolerance=bad)
        # before the file is read: a missing file is not reached
        with pytest.raises(InvalidSpec):
            load_distance_csv(tmp_path / "missing.csv", tolerance=bad)
    # inf accepts any finite matrix and averages it
    d = validate_distance_matrix(asym, tolerance=np.inf)
    assert np.array_equal(d.values, [[0.0, 2.0, 7.0], [2.0, 0.0, 1.0], [7.0, 1.0, 0.0]])
    assert np.array_equal(validate_distance_matrix(d.values, tolerance=0.0).values, d.values)


def test_pooled_labels():
    labels = PooledLabels(3, 4)
    assert labels.n == 3
    assert labels.n_total == 7
    with pytest.raises(SizeMismatch):
        PooledLabels(1, 5)


def test_load_feature_csv_with_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    fs = load_feature_csv(p)
    assert fs.points.shape == (2, 2)
    assert np.allclose(fs.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_feature_csv_without_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    assert load_feature_csv(p).n_points == 2


@pytest.mark.parametrize("first", ["l,2", "0x1p3,2", "\ufeff1,2", "x,1"],
                         ids=["letter-for-digit", "hex-float", "utf8-bom", "half-header"])
def test_load_feature_csv_mixed_first_row_is_an_error(tmp_path, first):
    # a header is a first row in which no field is a number; a first row
    # that mixes the two is a bad data row, not a header to drop
    p = tmp_path / "a.csv"
    p.write_text(first + "\n3,4\n5,6\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="non-numeric value on line 1"):
        load_feature_csv(p)


_BAD_CSV = (
    ("ragged", b"1.0,2.0\n3.0\n", SchemaError),
    ("empty", b"", EmptySet),
    ("non-numeric", b"1.0,2.0\n3.0,abc\n", SchemaError),
    ("undecodable", b"1,2\n3,\xff\n", SchemaError),
)


@pytest.mark.parametrize("loader, text, error", [
    *(pytest.param(loader, text, error, id=f"{loader.__name__}-{case}")
      for loader in (load_feature_csv, load_distance_csv)
      for case, text, error in _BAD_CSV),
    # distance files have no header row to skip
    pytest.param(load_distance_csv, b"a,b\n0.0,1.0\n1.0,0.0\n", SchemaError,
                 id="load_distance_csv-header"),
])
def test_load_csv_errors(tmp_path, loader, text, error):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(error):
        loader(path)


def test_load_distance_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 2))
    d = pairwise_distances(FeatureSet(pts[:3]), FeatureSet(pts[3:]))
    p = tmp_path / "d.csv"
    with open(p, "w") as fh:
        for row in d.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    loaded = load_distance_csv(p)
    assert np.array_equal(loaded.values, d.values)
