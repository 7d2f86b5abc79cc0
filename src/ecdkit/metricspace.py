"""Feature sets, distance matrices, and pairwise-distance computation.

Every downstream statistic consumes one canonical structure: a dense,
exactly symmetric, zero-diagonal :class:`DistanceMatrix` over the pooled
points of the two sets being compared. Matrices are kept dense; pool
sizes of interest are at most a few thousand points. The pooled matrix
is filled in place one strip of rows at a time, each unordered pair
computed once and written to both of its entries. Strips read the two
sets where they are and never cross the split between them, so no
pooled copy of the points is made: a comparison holds its two sets, the
N x N result and one strip's distances. From `_FLOAT32_MIN_POINTS`
pooled points, a continuous comparison stores that result in float32,
half the memory, and its consumers settle equal entries on exact
distances of the two sets.

At `_GRAM_MIN_DIM` features and above, a comparison takes its pooled
matrix from one BLAS Gram product instead (:func:`_pooled_distances`):
exact on integer features, else within one proven band of the exact
value, and its consumers decide an order only where that band proves it.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    DimensionMismatch,
    EmptySet,
    InputError,
    InvalidSpec,
    NegativeDistanceError,
    NonFiniteInput,
    NonzeroDiagonalError,
    SchemaError,
    SizeMismatch,
)
from .numerics import _as_symmetric, _real_array

#: Default slack when ingesting externally produced distance matrices;
#: descriptor pipelines routinely emit rounding noise of this order.
INGEST_TOLERANCE = 1e-9

#: Rows per strip of the pooled matrix; a strip's distances are the only
#: temporary beside the result.
_STRIP_ROWS = 128

#: Feature dimension from which a comparison's pooled matrix comes from one
#: Gram product (see `_pooled_distances`): the measured crossover. Distances
#: plus a k = 10 k-MST of 1000 pooled Gaussian points, BLAS at one thread,
#: 2-vCPU VM, best of 5 in three runs: strips 0.08-0.11 s against the Gram
#: path's 0.11-0.13 s at dim 100, about even at dim 200, 0.12-0.13 s
#: against 0.08-0.10 s at dim 256, and 0.29-0.36 s against 0.10-0.16 s at
#: dim 1000.
_GRAM_MIN_DIM = 256

#: Pooled points from which a continuous comparison below `_GRAM_MIN_DIM`
#: features stores its matrix in float32 (see `_float32_probe`): the
#: measured crossover. `ecd` (k = 10) time, float32 over float64, 2-vCPU
#: VM: 1.11 at N = 1000 (dim 100), 1.00 at 2000 (dim 100), 1.06 at 2000
#: (dim 32), 0.93 at 3000 (dim 32), 0.90 at 4000 (dim 32).
_FLOAT32_MIN_POINTS = 3000

#: A probe row whose float32 roundings repeat in more than one entry in
#: this many keeps the pool in float64. Probe rows of 3200-4000 entries
#: repeated 0-3 times on Gaussian and uniform pools and 10-11 times on a
#: 0.01 grid, where float32 still ran faster; on 0.1-grid pools at least
#: one probe row repeated 238-2361 times.
_FLOAT32_REPEATS = 64

#: A band wider than this share of the largest distance is not used: it
#: is what duplicates (a band of sqrt(E), see `_band`) or data far from the
#: origin give, and with half the digits in doubt nearly every order a
#: result needs would be refused.
_BAND_LIMIT = 2.0 ** -26

#: Rows per strip when Gram products become distances; ``q_i + q_j`` of
#: one strip is the only temporary beside the result.
_GRAM_ROWS = 32

_UNIT_ROUNDOFF = 2.0 ** -53

#: Rows per block while an ingested matrix is repaired in place; two
#: blocks' worth of temporaries sit beside it.
_REPAIR_BLOCK = 256


@dataclass(frozen=True)
class FeatureSet:
    """N x d matrix of real-valued feature vectors, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = _real_array(self.points, "feature values", (1, 2), nonempty=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
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
        v = _as_symmetric(self.values, "distance entries")
        if np.any(np.diagonal(v) != 0.0):
            raise NonzeroDiagonalError("distance matrix diagonal must be exactly zero")
        if np.any(v < 0.0):
            raise NegativeDistanceError("distances must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def _by_construction(values: np.ndarray, kind=DistanceMatrix, **extra) -> DistanceMatrix:
    """A `kind`, with `extra` fields, over a matrix built to hold the invariants.

    Only for matrices the library builds that way: the pooled matrices of
    :func:`pairwise_distances` and `_pooled_distances`, whose every pair
    is computed once, or from commuting sums, and written to both of its
    entries, with a zero diagonal and finite entries; a symmetric gather
    ``v[np.ix_(r, r)]`` of a valid matrix; and the repaired matrix of
    :func:`validate_distance_matrix`, ``(a + a.T) / 2`` (IEEE addition
    commutes) with a zeroed diagonal, negatives clipped and finiteness
    checked. ``__post_init__``'s checks could not fail and are skipped.
    """
    d = object.__new__(kind)
    for name, value in {"values": values, **extra}.items():
        object.__setattr__(d, name, value)
    return d


def _integer(value, name: str, low: int | None = None, error=InvalidSpec) -> int:
    """The one integer rule: value as an int by operator.index, anything
    else raising InvalidSpec; below `low`, when given, it raises `error`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise error(f"{name} must be at least {low}, got {n}")
    return n


def _real(value, name: str) -> float:
    """The one real-number rule: value as a float by float(), else InvalidSpec."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidSpec(f"{name} must be a real number, got {value!r}") from None


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
    def n_total(self) -> int:
        return self.n + self.m


def pairwise_distances(a: FeatureSet, b: FeatureSet) -> DistanceMatrix:
    """Dense Euclidean distance matrix over the pooled rows ``[a; b]``.

    The matrix is filled in place by `_strips`, so no strip crosses the
    split and both sets are read in place, with no pooled copy. Each
    unordered pair is computed once, so the two halves are bitwise
    identical, the diagonal is zero and no entry is negative; only
    finiteness is checked, once the matrix is filled, since finite
    features far apart overflow to inf. Each entry is bitwise what
    ``pdist`` over the whole pool gives, and does not depend on any
    parallel execution schedule.
    """
    _check_dims(a, b)
    # once per set, a no-op for the usual input: scipy would copy each strip
    values = _strips(np.ascontiguousarray(a.points), np.ascontiguousarray(b.points), np.float64)
    # entries are nonnegative and max propagates NaN: one pass, no mask;
    # one call, as each numpy or scipy call that lets the GIL go may wait
    # for it beside a runner thread running Python
    if not np.isfinite(values.max()):
        raise NonFiniteInput("distances must be finite")
    return _by_construction(values)


def _strips(x: np.ndarray, y: np.ndarray, dtype) -> np.ndarray:
    """The pooled distance matrix of contiguous sets x and y, stored as
    `dtype`: each float64 distance, rounded to it when it is narrower.

    The matrix is filled one strip of at most ``_STRIP_ROWS`` rows at a
    time, walking the rows of x and then the rows of y. A strip gets its
    diagonal block from ``pdist`` mirrored by ``squareform``, then its
    distances to every later row from ``cdist``: for a strip of x, one
    call against the rest of x and one against all of y; for a strip of
    y, one against the rest of y. Each such block passes through one
    float64 buffer, reused for the whole fill, and is written once as
    rows and once, transposed, as columns.
    """
    # scipy loads on the first distance call: importing ecdkit needs numpy alone
    from scipy.spatial.distance import cdist, pdist, squareform

    n, total = len(x), len(x) + len(y)
    values = np.empty((total, total), dtype=dtype)
    buf = np.empty(total * _STRIP_ROWS)  # room for any strip's block, reused block to block
    for pts, start, others in ((x, 0, (y,)), (y, n, ())):
        for s0 in range(0, len(pts), _STRIP_ROWS):
            s1 = min(s0 + _STRIP_ROWS, len(pts))
            rows = pts[s0:s1]
            i0, i1 = start + s0, start + s1
            values[i0:i1, i0:i1] = squareform(pdist(rows))
            # the later rows lie in order: the rest of this set, then y after a strip of x
            j0 = i1
            for later in (pts[s1:], *others):
                j1 = j0 + len(later)
                if j1 > j0:  # the last strip of a set has no rest of it
                    block = buf[:(i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
                    cdist(rows, later, out=block)
                    values[i0:i1, j0:j1] = block
                    values[j0:j1, i0:i1] = block.T
                j0 = j1
    return values


def _check_dims(a: FeatureSet, b: FeatureSet) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"feature dimensions differ: {a.dim} vs {b.dim}")


def _pooled_distances(a: FeatureSet, b: FeatureSet) -> DistanceMatrix:
    """The pooled matrix of one comparison: below `_GRAM_MIN_DIM`
    features, the strip matrix, stored in float32 as a band-0
    :class:`_BandedDistances` from `_FLOAT32_MIN_POINTS` pooled points
    when `_float32_probe` passes, else `pairwise_distances`; from
    `_GRAM_MIN_DIM` features, a :class:`_BandedDistances` from one Gram
    product.

    The products ``a a^T``, ``a b^T`` and ``b b^T`` are written block by
    block into the N x N result and ``b a^T`` is copied as the transpose
    of its block, so no pooled or centred copy of the points is made. One
    strip of rows at a time, each entry becomes ``sqrt(max((q_i + q_j) -
    2 g_ij, 0))``, where q is the products' diagonal; ``q_i + q_j``
    commutes, so the matrix is exactly symmetric, and its diagonal is
    zero. The strip path serves instead when a squared norm is so large
    that an intermediate could overflow, or when the band (see `_band`)
    exceeds `_BAND_LIMIT` of the largest entry. On integer sets with
    ``4 max q < 2^53`` every intermediate is an integer below 2^53, exact
    in any summation order, so a plain `DistanceMatrix` has scipy's bits.
    """
    _check_dims(a, b)
    # once per set, a no-op for the usual input: scipy would copy each
    # strip, and BLAS forms a a^T and b b^T as symmetric products, which a
    # strided set would not get
    x, y = np.ascontiguousarray(a.points), np.ascontiguousarray(b.points)
    n, total = len(x), len(x) + len(y)
    if a.dim < _GRAM_MIN_DIM:
        if total >= _FLOAT32_MIN_POINTS and _float32_probe(x, y):
            return _by_construction(_strips(x, y, np.float32), _BandedDistances,
                                    band=0.0, sets=(a, b))
        return pairwise_distances(a, b)
    values = np.empty((total, total))
    with np.errstate(over="ignore", invalid="ignore"):  # huge norms fall back below
        np.matmul(x, x.T, out=values[:n, :n])
        np.matmul(x, y.T, out=values[:n, n:])
        np.matmul(y, y.T, out=values[n:, n:])
    values[n:, :n] = values[:n, n:].T
    q = values.diagonal().copy()
    top = float(q.max())
    # every intermediate is at most 4 max q (see `_band`); NaN fails too
    if not math.isfinite(8.0 * top):
        return pairwise_distances(a, b)
    low = math.inf
    for s0 in range(0, total, _GRAM_ROWS):
        s1 = min(s0 + _GRAM_ROWS, total)
        strip, own = values[s0:s1], values[s0:s1, s0:s1]
        strip *= -2.0
        strip += np.add.outer(q[s0:s1], q)
        np.maximum(strip, 0.0, out=strip)
        np.sqrt(strip, out=strip)
        np.fill_diagonal(own, np.inf)
        low = min(low, float(strip.min()))
        np.fill_diagonal(own, 0.0)
    if 4.0 * top < 2.0 ** 53 and _integral(x) and _integral(y):
        return _by_construction(values)
    high = float(values.max())
    band = _band(x.shape[1], top, low, high)
    # divided, not multiplied: an infinite limit then keeps every band, an
    # all-zero matrix's too, where inf * 0 would be NaN
    if not band / _BAND_LIMIT <= high:
        return pairwise_distances(a, b)
    return _by_construction(values, _BandedDistances, band=band, sets=(a, b))


def _float32_probe(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the pool of x and y may store its distances in float32.

    Rows 0 and n of the pooled matrix (the first point of each set) are
    computed in float64. The pool passes when neither row's float32
    roundings repeat in more than one entry in `_FLOAT32_REPEATS`, since
    each repeat is a tie that the k-MST settles on exact distances, and
    when four times row 0's largest entry is below the float32 maximum:
    by the triangle inequality every distance then fits, with room for
    the rounding of its computed value. Integer, quantised and mixed
    pools repeat far more often, and keep float64. A row 0 that overflows
    fails too, and the float64 fill reports it.
    """
    from scipy.spatial.distance import cdist

    firsts = np.concatenate((x[:1], y[:1]))
    rows = np.concatenate((cdist(firsts, x), cdist(firsts, y)), axis=1)
    if not 4.0 * rows[0].max() < np.finfo(np.float32).max:  # NaN fails too
        return False
    limit = rows.shape[1] // _FLOAT32_REPEATS
    return all(row.size - np.unique(row).size <= limit for row in rows.astype(np.float32))


def _integral(x: np.ndarray) -> bool:
    """Whether x is integer-valued, by row 0 and then blocks of `_GRAM_ROWS` rows."""
    cuts = [0, *range(1, len(x), _GRAM_ROWS), len(x)]
    return all(np.array_equal(np.rint(x[r0:r1]), x[r0:r1]) for r0, r1 in zip(cuts, cuts[1:]))


def _band(dim: int, top: float, low: float, high: float) -> float:
    """Bound on |Gram entry - strip entry| over one matrix of
    `_pooled_distances`, from the dimension, the largest product diagonal
    `top` and the smallest and largest off-diagonal entries.

    With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1), take two pooled
    points x, y with Q = |x|^2, R = |y|^2, G = x.y and S = |x - y|^2:

    1. BLAS forms q_x = Q (1 + t) with |t| <= gamma_d, and g with
       |g - G| <= gamma_d sum |x_k y_k| <= gamma_d (Q + R) / 2, in any
       summation order, FMA or not, so at any thread count. Every exact
       squared norm is at most M = top / (1 - gamma_d).
    2. r = fl(fl(q_x + q_y) - 2 g) then satisfies |r - S| <=
       (2 gamma_d + 3u (1 + gamma_d)(1 + u)) (Q + R) <= E, with Q + R <=
       2M. Clipping r at 0 moves it toward S >= 0.
    3. |sqrt(r) - sqrt(S)| <= min(sqrt(E), E / sqrt(r)), and sqrt(r) >=
       low (1 - 2u) off the diagonal.
    4. scipy sums the d terms fl((x_k - y_k)^2), each carrying at most
       d + 2 roundings, so its value is sqrt(S (1 + t)) rounded, |t| <=
       gamma_{d+2}: within (gamma_{d+2} (1 + u) + u) sqrt(S) of sqrt(S),
       and sqrt(S) <= high (1 + 2u) + step 3's bound.

    4u high more covers the rounded sqrt of step 3 and leaves 3u high per
    entry for each comparison on the band. `spanning._prim` stores key k
    as fl(k + w), w = 2 band <= 2^-25 high (`_BAND_LIMIT`); each of its
    tests r <= fl(k + w), r < fl(fl(k + w) - 2w) and fl(k2' - k1') <= w
    rounds at most twice, by u (high + 2w) < 2u high each: under 4u high,
    within the 6u high of its two entries. The factor 1 + 2^-20 covers
    the rounding of this evaluation.
    """
    u = _UNIT_ROUNDOFF
    gamma_d, gamma_s = dim * u / (1.0 - dim * u), (dim + 2) * u / (1.0 - (dim + 2) * u)
    squared = 2.0 * top / (1.0 - gamma_d) * (2.0 * gamma_d + 3.0 * u * (1.0 + gamma_d) * (1.0 + u))
    root = math.sqrt(squared)
    if low > 0.0:
        root = min(root, squared / (low * (1.0 - 2.0 * u)))
    scipy = (gamma_s * (1.0 + u) + u) * (high * (1.0 + 2.0 * u) + root)
    return (root + scipy + 4.0 * u * high) * (1.0 + 2.0 ** -20)


@dataclass(frozen=True)
class _BandedDistances(DistanceMatrix):
    """A pooled matrix made by `_pooled_distances` whose entries stand in
    for the entries `pairwise_distances` gives the same pairs. It keeps
    the two sets for exact look-ups. A consumer decides an order on it
    only where two values differ by more than twice the band, reads the
    values it reports exactly, and where the band decides nothing reads
    exact distances of the two sets.

    From one Gram product, every float64 entry lies within `band` of the
    exact one. With band 0 the entries are the exact ones rounded to
    float32: rounding is monotone, so two entries that differ order as
    the exact ones do, and only two equal entries leave the order open."""

    band: float
    sets: tuple

    def pairs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The strip path's entry of each pooled pair (lo[e], hi[e]),
        bitwise: one ``cdist`` call per first endpoint and set holding
        the second ones."""
        from scipy.spatial.distance import cdist

        x, y = (s.points for s in self.sets)
        n = len(x)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        second = hi >= n
        cut = np.flatnonzero((lo[1:] != lo[:-1]) | (second[1:] != second[:-1])) + 1
        bounds = [0, *cut.tolist(), lo.size]
        got = np.empty(lo.size)
        for s0, s1 in zip(bounds[:-1], bounds[1:]):
            if s0 == s1:  # no pairs at all
                break
            i = int(lo[s0])
            row = x[i:i + 1] if i < n else y[i - n:i - n + 1]
            got[s0:s1] = cdist(row, y[hi[s0:s1] - n] if second[s0] else x[hi[s0:s1]])[0]
        out = np.empty(lo.size)
        out[order] = got
        return out


def cross_distances(a: FeatureSet, b: FeatureSet) -> np.ndarray:
    """|a| x |b| matrix of Euclidean distances from each a-point to each b-point."""
    from scipy.spatial.distance import cdist

    _check_dims(a, b)
    return cdist(a.points, b.points)


def _check_tolerance(tolerance) -> float:
    value = _real(tolerance, "tolerance")
    if not value >= 0.0:  # also rejects NaN
        raise InvalidSpec(f"tolerance must be nonnegative, got {tolerance!r}")
    return value


def validate_distance_matrix(raw, tolerance: float = INGEST_TOLERANCE) -> DistanceMatrix:
    """Ingest a raw square matrix as a DistanceMatrix.

    Accepts the matrix when asymmetry, diagonal magnitude, and negative
    entries all stay within `tolerance`; the stored result is the exact
    symmetrization ``(raw + raw.T) / 2`` with the diagonal forced to zero
    and residual negatives clamped to zero. Violations beyond the
    tolerance raise the matching error instead of being repaired. A
    tolerance that float() refuses, is NaN or is negative raises
    InvalidSpec; ``inf`` accepts any finite matrix. `raw` itself is never
    written: the repair runs on a copy.
    """
    tolerance = _check_tolerance(tolerance)
    return _repaired(_real_array(raw, "distance entries", square=True).copy(), tolerance)


def _repaired(arr: np.ndarray, tolerance: float) -> DistanceMatrix:
    """`validate_distance_matrix` of a checked square float64 array,
    repaired in place, so that ingest holds one matrix.

    One pass over the pairs of `_REPAIR_BLOCK`-row blocks I <= J reads
    both blocks A_IJ and A_JI, takes ``|A_IJ - A_JI^T|`` and the raw
    minimum, and writes ``(A_IJ + A_JI^T) / 2``, clipped at zero, to both;
    IEEE addition commutes, so the bits are those of ``(raw + raw.T) /
    2``. The largest asymmetry, the largest diagonal entry and the
    smallest entry are taken over the whole raw matrix and checked, in
    that order, once the pass is done; then a repaired entry that
    overflowed.
    """
    n = len(arr)
    diag = float(np.max(np.abs(np.diagonal(arr)))) if n else 0.0  # before it is zeroed
    asym, low, top = 0.0, math.inf, 0.0
    # two finite entries near the float64 maximum can sum or differ to inf
    with np.errstate(over="ignore"):
        for i0 in range(0, n, _REPAIR_BLOCK):
            for j0 in range(i0, n, _REPAIR_BLOCK):
                upper = arr[i0:i0 + _REPAIR_BLOCK, j0:j0 + _REPAIR_BLOCK]
                lower = arr[j0:j0 + _REPAIR_BLOCK, i0:i0 + _REPAIR_BLOCK]
                low = min(low, float(upper.min()), float(lower.min()))
                gap = upper - lower.T
                asym = max(asym, float(np.abs(gap, out=gap).max()))
                sym = np.add(upper, lower.T, out=gap)
                sym /= 2.0
                if i0 == j0:
                    np.fill_diagonal(sym, 0.0)
                np.clip(sym, 0.0, None, out=sym)
                top = max(top, float(sym.max()))
                upper[...] = sym
                lower[...] = sym.T
    if asym > tolerance:
        raise AsymmetryError(f"max |d[i,j] - d[j,i]| = {asym:g} exceeds tolerance {tolerance:g}")
    if diag > tolerance:
        raise NonzeroDiagonalError(f"max |d[i,i]| = {diag:g} exceeds tolerance {tolerance:g}")
    if low < -tolerance:
        raise NegativeDistanceError(f"min entry {low:g} below -tolerance {-tolerance:g}")
    if not math.isfinite(top):
        raise NonFiniteInput("distances must be finite")
    return _by_construction(arr)


# --- file ingestion ---------------------------------------------------------

def _read_csv(path, header: bool) -> np.ndarray:
    """Numeric rows of a comma-separated file; blank lines are skipped.

    With `header`, a first row of two or more fields, none of them a
    number, is skipped as a header. The text is UTF-8, and a leading
    byte-order mark is not part of it, so neither reader sees one. A
    seekable file goes to numpy's C tokenizer first; any text it refuses
    is read again by the exact parser, which alone decides what else is
    accepted and how each rejection reads.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if len(rec) > 1 and not any(map(_numeral, rec)):
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


def _numeral(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _records(fh, path):
    """(line number, fields) of each CSV record of fh that has a non-blank
    field: the one record reader of numeric files and experiment tables.
    Bytes fh's encoding cannot decode, and a record the csv module refuses
    (a field beyond its size limit, say), raise SchemaError."""
    lineno = 0
    try:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if any(f.strip() for f in rec):
                yield lineno, rec
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {lineno + 1}: {exc}") from None
    except UnicodeDecodeError:
        # the decoder counts offsets from the chunk it was handed, so a
        # seekable file is decoded again whole to place the first bad byte;
        # a byte-order mark decodes as text in plain utf-8, so offsets count it
        encoding = fh.encoding.removesuffix("-sig")
        where = ""
        if fh.seekable():
            fh.buffer.seek(0)
            data = fh.buffer.read()
            try:
                data.decode(encoding)
            except UnicodeDecodeError as exc:
                where = f": byte {data[exc.start]:#04x} at offset {exc.start}"
        raise SchemaError(f"{path}: not valid {encoding} text{where}") from None


def load_feature_csv(path) -> FeatureSet:
    """Read a feature CSV: one point per row, comma-separated numerals.

    A single leading header row is auto-detected: a first row of two or
    more fields, none of them a number, is skipped. Any other first row
    is data, so one that mixes numbers and other text, or a one-field
    row that is not a number, raises SchemaError naming line 1.
    """
    return _from_file(path, FeatureSet, _read_csv(path, header=True))


def load_distance_csv(path, tolerance: float = INGEST_TOLERANCE) -> DistanceMatrix:
    """Read an N x N distance matrix CSV (no header) and validate it as
    `validate_distance_matrix` does, repairing the parsed matrix in place."""
    tolerance = _check_tolerance(tolerance)  # before the file is parsed
    raw = _read_csv(path, header=False)
    return _from_file(path, lambda: _repaired(_real_array(raw, "distance entries", square=True),
                                              tolerance))


def _from_file(path, build, *args):
    """build(*args), whose InputError keeps its class and starts with path."""
    try:
        return build(*args)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None
