"""Feature sets, distance matrices, and pairwise-distance computation.

Every downstream statistic consumes one canonical structure: a dense,
exactly symmetric, zero-diagonal :class:`DistanceMatrix` over the pooled
points of the two sets being compared. Matrices are kept dense; pool
sizes of interest are at most a few thousand points. The pooled matrix
is filled in place one strip of rows at a time, each unordered pair
computed once and written to both of its entries, so the only N x N
array ever held is the result.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import (
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
from .numerics import _as_symmetric

METRICS = ("euclidean", "squared_euclidean")

#: Default slack when ingesting externally produced distance matrices;
#: descriptor pipelines routinely emit rounding noise of this order.
INGEST_TOLERANCE = 1e-9

_CDIST_NAME = {"euclidean": "euclidean", "squared_euclidean": "sqeuclidean"}

#: Rows per strip of the pooled matrix; a strip's distances are the only
#: temporary beside the result.
_STRIP_ROWS = 128


@dataclass(frozen=True)
class FeatureSet:
    """N x d matrix of real-valued feature vectors, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D point array, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise EmptySet(f"feature set must be non-empty, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteInput("feature values must be finite (no NaN/Inf)")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative N x N dissimilarity matrix with zero diagonal.

    The invariants are enforced exactly as stored: ``values[i, j] ==
    values[j, i]`` bitwise, ``values[i, i] == 0``, all entries finite and
    nonnegative. Use :func:`validate_distance_matrix` to ingest raw
    matrices that only satisfy these up to rounding noise.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _as_symmetric(self.values)
        if np.any(np.diagonal(v) != 0.0):
            raise NonzeroDiagonalError("distance matrix diagonal must be exactly zero")
        if np.any(v < 0.0):
            raise NegativeDistanceError("distances must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def _by_construction(values: np.ndarray) -> DistanceMatrix:
    """DistanceMatrix over a float64 matrix built to hold the invariants.

    Only for matrices the library builds that way: the pooled matrix of
    :func:`pairwise_distances`, whose every pair is computed once and
    written to both of its entries, with a zero diagonal and finite
    entries checked strip by strip; a symmetric gather
    ``v[np.ix_(r, r)]`` of a valid matrix; and the repaired matrix of
    :func:`validate_distance_matrix`, ``(a + a.T) / 2`` (IEEE addition
    commutes) with a zeroed diagonal, negatives clipped and finiteness
    checked. ``__post_init__``'s checks could not fail and are skipped.
    """
    d = object.__new__(DistanceMatrix)
    object.__setattr__(d, "values", values)
    return d


def _integer(value, name: str) -> int:
    """value as an int by operator.index; anything else raises InvalidSpec."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PooledLabels:
    """Split of a pooled matrix: the first `n` rows form the first set.

    The one split rule: `n` and `m` are integers by ``operator.index``
    (else InvalidSpec), stored as ``int``, and each is at least 2 (else
    SizeMismatch). Every function that takes a split checks it here.
    """

    n: int
    m: int

    def __post_init__(self):
        n, m = _integer(self.n, "n"), _integer(self.m, "m")
        if n < 2 or m < 2:
            raise SizeMismatch(f"each set needs at least 2 points, got sizes ({n}, {m})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def split_index(self) -> int:
        return self.n

    @property
    def n_total(self) -> int:
        return self.n + self.m


def _check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise InvalidSpec(f"unknown metric {metric!r}; choose from {METRICS}")
    return _CDIST_NAME[metric]


def pairwise_distances(a: FeatureSet, b: FeatureSet, metric: str = "euclidean") -> DistanceMatrix:
    """Dense distance matrix over the pooled rows ``[a; b]``.

    The matrix is filled in place, one strip of ``_STRIP_ROWS`` rows at
    a time: the strip's diagonal block from ``pdist`` mirrored by
    ``squareform``, and its distances to every later row from ``cdist``,
    written once as rows and once, transposed, as columns. Each
    unordered pair is computed once, so the two halves are bitwise
    identical, the diagonal is zero and no entry is negative; only
    finiteness is checked, strip by strip, since finite features far
    apart overflow to inf. Each entry is bitwise what ``pdist`` over the
    whole pool gives, and does not depend on any parallel execution
    schedule.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"feature dimensions differ: {a.dim} vs {b.dim}")
    name = _check_metric(metric)
    pooled = np.vstack([a.points, b.points])
    n = pooled.shape[0]
    values = np.empty((n, n))
    for i0 in range(0, n, _STRIP_ROWS):
        i1 = min(i0 + _STRIP_ROWS, n)
        rows = pooled[i0:i1]
        values[i0:i1, i0:i1] = squareform(pdist(rows, metric=name))
        if i1 < n:
            strip = cdist(rows, pooled[i1:], metric=name)
            values[i0:i1, i1:] = strip
            values[i1:, i0:i1] = strip.T
        # entries are nonnegative and max propagates NaN: one pass, no mask
        if not np.isfinite(values[i0:i1, i0:].max()):
            raise NonFiniteInput("distances must be finite")
    return _by_construction(values)


def cross_distances(a: FeatureSet, b: FeatureSet, metric: str = "euclidean") -> np.ndarray:
    """|a| x |b| matrix of distances from each a-point to each b-point."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"feature dimensions differ: {a.dim} vs {b.dim}")
    name = _check_metric(metric)
    return cdist(a.points, b.points, metric=name)


def _check_tolerance(tolerance: float) -> None:
    if not tolerance >= 0.0:  # also rejects NaN
        raise InvalidSpec(f"tolerance must be nonnegative, got {tolerance!r}")


def validate_distance_matrix(raw, tolerance: float = INGEST_TOLERANCE) -> DistanceMatrix:
    """Ingest a raw square matrix as a DistanceMatrix.

    Accepts the matrix when asymmetry, diagonal magnitude, and negative
    entries all stay within `tolerance`; the stored result is the exact
    symmetrization ``(raw + raw.T) / 2`` with the diagonal forced to zero
    and residual negatives clamped to zero. Violations beyond the
    tolerance raise the matching error instead of being repaired. A NaN
    or negative tolerance raises InvalidSpec; ``inf`` accepts any finite
    matrix.
    """
    _check_tolerance(tolerance)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("distance entries must be finite")
    # one scratch matrix beside the raw one: asymmetry, then the symmetrized sum
    scratch = arr - arr.T
    asym = np.max(np.abs(scratch, out=scratch), initial=0.0)
    if asym > tolerance:
        raise AsymmetryError(f"max |d[i,j] - d[j,i]| = {asym:g} exceeds tolerance {tolerance:g}")
    diag = np.max(np.abs(np.diagonal(arr))) if arr.size else 0.0
    if diag > tolerance:
        raise NonzeroDiagonalError(f"max |d[i,i]| = {diag:g} exceeds tolerance {tolerance:g}")
    low = np.min(arr) if arr.size else 0.0
    if low < -tolerance:
        raise NegativeDistanceError(f"min entry {low:g} below -tolerance {-tolerance:g}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        sym = np.add(arr, arr.T, out=scratch)
    sym /= 2.0
    np.fill_diagonal(sym, 0.0)
    np.clip(sym, 0.0, None, out=sym)
    # two finite entries near the float64 maximum can sum to inf
    if not np.isfinite(sym.max(initial=0.0)):
        raise NonFiniteInput("distances must be finite")
    return _by_construction(sym)


# --- file ingestion ---------------------------------------------------------

def _read_csv(path, header: bool) -> np.ndarray:
    """Numeric rows of a comma-separated file; blank lines are skipped.

    With `header`, a first row whose first field fails numeric parsing
    is skipped as a header. A seekable file goes to numpy's C tokenizer
    first; any text it refuses is read again by the exact parser, which
    alone decides what else is accepted and how each rejection reads.
    """
    with open(path, newline="") as fh:
        if fh.seekable():  # the exact parser may have to read it again
            values = _read_fast(fh)
            if values is not None:
                return values
            fh.seek(0)
        return _read_exact(fh, path, header)


def _read_fast(fh) -> np.ndarray | None:
    """The rows of fh by ``np.loadtxt``, or None when it refuses the text.

    Its fields are a subset of what float() accepts, with no quoting and
    no comments, and it converts them with the same C routine, so what it
    returns is bitwise what the exact parser would return. It refuses
    whitespace-only lines, quotes, underscores and non-ASCII digits,
    which the exact parser accepts, and everything the exact parser
    rejects.
    """
    with warnings.catch_warnings():
        # an empty result goes to the exact parser, which raises EmptySet
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        try:
            values = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None,
                                quotechar=None, ndmin=2)
        except ValueError:  # undecodable bytes too: the exact parser reports them
            return None
    return values if values.size else None


def _read_exact(fh, path, header: bool) -> np.ndarray:
    """The rows of fh by the csv module and float(): the reference parse."""
    rows: list[list[float]] = []
    first_line = ragged = None
    for lineno, rec in _records(fh, path):
        if header:
            header = False
            try:
                float(rec[0])
            except ValueError:
                continue  # header row
        try:
            rows.append([float(f) for f in rec])
        except ValueError as exc:
            raise SchemaError(f"{path}: non-numeric value on line {lineno}: {exc}") from None
        if first_line is None:
            first_line = lineno
        elif ragged is None and len(rec) != len(rows[0]):
            ragged = lineno, len(rec)
    if not rows:
        raise EmptySet(f"{path}: no data rows")
    if ragged is not None:
        raise SchemaError(
            f"{path}: rows have inconsistent column counts: {ragged[1]} on line "
            f"{ragged[0]}, {len(rows[0])} on line {first_line}"
        )
    return np.array(rows, dtype=np.float64)


def _records(fh, path):
    """(line number, fields) of each CSV record of fh that has a non-blank
    field: the one record reader of numeric files and experiment tables.
    Bytes fh's encoding cannot decode raise SchemaError."""
    try:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if any(f.strip() for f in rec):
                yield lineno, rec
    except UnicodeDecodeError:
        # the decoder counts offsets from the chunk it was handed, so a
        # seekable file is decoded again whole to place the first bad byte
        where = ""
        if fh.seekable():
            fh.buffer.seek(0)
            data = fh.buffer.read()
            try:
                data.decode(fh.encoding)
            except UnicodeDecodeError as exc:
                where = f": byte {data[exc.start]:#04x} at offset {exc.start}"
        raise SchemaError(f"{path}: not valid {fh.encoding} text{where}") from None


def load_feature_csv(path) -> FeatureSet:
    """Read a feature CSV: one point per row, comma-separated numerals.

    A single leading header row is auto-detected: if the first field of
    the first row fails numeric parsing, that row is skipped.
    """
    return FeatureSet(_read_csv(path, header=True))


def load_distance_csv(path, tolerance: float = INGEST_TOLERANCE) -> DistanceMatrix:
    """Read an N x N distance matrix CSV (no header) and validate it."""
    _check_tolerance(tolerance)  # before the file is parsed
    return validate_distance_matrix(_read_csv(path, header=False), tolerance)
