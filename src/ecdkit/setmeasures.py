"""Baseline set-comparison measures: coverage, matching distance, Fréchet.

Coverage marks, for every point of the first set, its nearest neighbor in
the second and reports the marked fraction. The matching distance is the
mean distance from each second-set point to its nearest first-set
neighbor. The Fréchet measure compares Gaussians fitted to the two sets
(squared-distance convention, the one used for descriptor networks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NumericError, TooFewSamples
from .metricspace import DistanceMatrix, FeatureSet, _BandedDistances, cross_distances
from .numerics import _as_symmetric, _psd_sqrt_trace, _real_array, psd_sqrt


@dataclass(frozen=True)
class GaussianSummary:
    """Sample mean and covariance of a feature set."""

    mean: np.ndarray
    covariance: np.ndarray
    sample_count: int

    def __post_init__(self):
        mu = _real_array(self.mean, "mean entries", 1, nonempty=True)
        cov = _as_symmetric(self.covariance, "covariance entries")
        if cov.shape != (mu.size, mu.size):
            raise DimensionMismatch(
                f"mean of size {mu.shape} does not match covariance {cov.shape}"
            )
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MeasureResult:
    """Bundle of the three baseline measures; frechet is None when the
    inputs were bare distances (no coordinates to fit Gaussians to)."""

    coverage: float
    mmd: float
    frechet: float | None

    def to_json_dict(self) -> dict:
        return {"coverage": self.coverage, "mmd": self.mmd, "frechet": self.frechet}


def coverage(a: FeatureSet, b: FeatureSet) -> float:
    """Fraction of b-points marked as euclidean nearest neighbor of some a-point."""
    return measures_from_cross(cross_distances(a, b)).coverage


def mmd(a: FeatureSet, b: FeatureSet) -> float:
    """Mean euclidean distance from each b-point to its closest a-point."""
    return measures_from_cross(cross_distances(a, b)).mmd


def fit_gaussian(x: FeatureSet) -> GaussianSummary:
    """Sample mean and unbiased (n-1) covariance of a feature set.

    Finite features whose mean or covariance overflows float64 raise
    NumericError: the input is valid, the arithmetic is not.
    """
    if x.n_points < 2:
        raise TooFewSamples(f"covariance needs at least 2 samples, got {x.n_points}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mean = x.points.mean(axis=0)
        dev = x.points - mean
        # einsum keeps the contraction order fixed and the result exactly
        # symmetric (products commute bitwise)
        cov = np.einsum("ni,nj->ij", dev, dev) / (x.n_points - 1.0)
    for name, value in (("mean", mean), ("covariance", cov)):
        if not np.isfinite(value).all():
            raise NumericError(f"the feature {name} overflows float64 on finite input")
    return GaussianSummary(mean=mean, covariance=cov, sample_count=x.n_points)


def frechet_gaussian(p: GaussianSummary, q: GaussianSummary) -> float:
    """Squared Fréchet distance between two Gaussian summaries.

    ||mu_p - mu_q||^2 + Tr(S_p + S_q - 2 (S_p^{1/2} S_q S_p^{1/2})^{1/2}),
    clamped below at zero.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"summary dimensions differ: {p.dim} vs {q.dim}")
    diff = p.mean - q.mean
    mean_term = float(np.einsum("i,i->", diff, diff))
    root_p = psd_sqrt(p.covariance)
    inner = np.einsum("ij,jk->ik", np.einsum("ij,jk->ik", root_p, q.covariance), root_p)
    # only the trace of the second root is needed: eigenvalues suffice
    cross_trace = _psd_sqrt_trace((inner + inner.T) / 2.0)
    trace_term = float(
        np.trace(p.covariance) + np.trace(q.covariance) - 2.0 * cross_trace
    )
    return max(mean_term + trace_term, 0.0)


def measures_from_features(a: FeatureSet, b: FeatureSet) -> MeasureResult:
    """All three measures from coordinates."""
    fre = frechet_gaussian(fit_gaussian(a), fit_gaussian(b))
    return replace(measures_from_cross(cross_distances(a, b)), frechet=fre)


def measures_from_cross(cross) -> MeasureResult:
    """Coverage and matching distance from a precomputed cross block whose
    rows cover its columns; the Fréchet slot stays empty. Coverage is the
    fraction of columns nearest to at least one row (argmin ties go to the
    smallest column index); the matching distance is the mean over columns
    of the distance to their nearest row."""
    c = _real_array(cross, "cross distances", 2, nonempty=True, nonnegative=True)
    marked = np.unique(np.argmin(c, axis=1))
    mean_nearest = float(np.mean(np.min(c, axis=0)))
    return MeasureResult(coverage=float(marked.size) / c.shape[1], mmd=mean_nearest, frechet=None)


def _measures_from_pooled(d: DistanceMatrix, n: int) -> MeasureResult:
    """`measures_from_cross` of the cross block of pooled matrix d, whose
    first n rows are the first set.

    On a Gram-product matrix (`metricspace._BandedDistances`) each row's
    and each column's argmin must beat its runner-up by more than twice
    the band, else both values come from the sets' `cross_distances`; the
    m matching distances are read exactly, so both are the exact block's.
    """
    cross = d.values[:n, n:]
    if not isinstance(d, _BandedDistances):
        return measures_from_cross(cross)
    if not (_certified_argmin(cross, 1, d.band) and _certified_argmin(cross, 0, d.band)):
        return measures_from_cross(cross_distances(*d.sets))
    m = cross.shape[1]
    matched = d.pairs(np.argmin(cross, axis=0), np.arange(n, n + m))
    coverage = float(np.unique(np.argmin(cross, axis=1)).size) / m
    return MeasureResult(coverage=coverage, mmd=float(np.mean(matched)), frechet=None)


def _certified_argmin(block: np.ndarray, axis: int, band: float) -> bool:
    """Whether the argmin of block along axis is certain: no other entry
    lies within twice `band` of any minimum."""
    lowest = block.min(axis=axis, keepdims=True)
    return not np.any(np.count_nonzero(block <= lowest + 2.0 * band, axis=axis) > 1)
