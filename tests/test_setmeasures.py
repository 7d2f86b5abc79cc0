"""Coverage, matching distance, and the Gaussian Fréchet score."""

import importlib
import warnings

import numpy as np
import pytest

from ecdkit import (
    AsymmetryError,
    DimensionMismatch,
    DistributionSpec,
    EmptySet,
    FeatureSet,
    GaussianSummary,
    NegativeDistanceError,
    NonFiniteInput,
    NotPSD,
    NumericError,
    TooFewSamples,
    coverage,
    fit_gaussian,
    frechet_gaussian,
    measures_from_cross,
    measures_from_features,
    mmd,
    sample,
)
from ecdkit.experiments import GRID_PAIRS


def fs(values):
    return FeatureSet(np.asarray(values, dtype=float))


def lapack_frechet(p, q):
    """(Fréchet distance, ||dmu||^2 + tr Sp + tr Sq) from numpy's LAPACK
    eigensolvers, an independent reference."""
    w, v = np.linalg.eigh(p.covariance)
    root_p = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    inner = root_p @ q.covariance @ root_p
    ev = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    diff = p.mean - q.mean
    scale = float(diff @ diff + np.trace(p.covariance) + np.trace(q.covariance))
    value = scale - 2.0 * float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))
    return max(value, 0.0), scale


class TestCoverage:
    def test_identical_sets(self):
        pts = fs([0.0, 1.0, 2.0, 3.0])
        assert coverage(pts, pts) == 1.0

    def test_half_marked(self):
        a = fs([0.0, 0.1])
        b = fs([0.0, 5.0])
        assert coverage(a, b) == 0.5

    def test_single_attractor(self):
        a = fs([0.0, 0.1, 0.2, -0.1])
        b = fs([0.0, 50.0, 100.0, 150.0, 200.0])
        assert coverage(a, b) == pytest.approx(1 / 5)

    def test_tie_goes_to_smaller_index(self):
        # a point equidistant from both b points must mark only column 0
        cross = np.array([[2.0, 2.0]])
        assert measures_from_cross(cross).coverage == 0.5

    def test_superset_is_fully_marked(self):
        rng = np.random.default_rng(5)
        b_pts = rng.standard_normal((6, 2))
        extra = rng.standard_normal((4, 2)) + 10.0
        a = FeatureSet(np.vstack([b_pts, extra]))
        assert coverage(a, FeatureSet(b_pts)) == 1.0


class TestMmd:
    def test_identical_sets(self):
        pts = fs([0.0, 1.0, 2.0])
        assert mmd(pts, pts) == 0.0

    def test_hand_value(self):
        assert mmd(fs([1.0]), fs([0.0, 5.0])) == 2.5

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        a = FeatureSet(rng.standard_normal((8, 3)))
        b = FeatureSet(rng.standard_normal((5, 3)))
        base = mmd(a, b)
        scaled = mmd(FeatureSet(a.points * 4.0), FeatureSet(b.points * 4.0))
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_monotone_under_first_set_growth(self):
        rng = np.random.default_rng(17)
        a = FeatureSet(rng.standard_normal((6, 2)))
        b = FeatureSet(rng.standard_normal((7, 2)))
        grown = FeatureSet(np.vstack([a.points, rng.standard_normal((5, 2))]))
        assert mmd(grown, b) <= mmd(a, b) + 1e-15


class TestFitGaussian:
    def test_two_point_line(self):
        summary = fit_gaussian(fs([0.0, 2.0]))
        assert summary.mean[0] == 1.0
        assert summary.covariance[0, 0] == 2.0
        assert summary.sample_count == 2

    def test_constant_set(self):
        summary = fit_gaussian(fs([3.0, 3.0, 3.0]))
        assert summary.covariance[0, 0] == 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_gaussian(fs([1.0]))

    def test_large_sample_band(self):
        rng = np.random.default_rng(0)
        x = FeatureSet(rng.standard_normal((10_000, 5)))
        summary = fit_gaussian(x)
        assert np.abs(summary.mean).max() < 0.05
        assert np.abs(summary.covariance - np.eye(5)).max() < 0.1

    @pytest.mark.parametrize("points, name", [
        ([[1e300, 1.0], [-1e300, 2.0], [0.0, 3.0]], "covariance"),
        ([[1e308, 1.0], [1e308, 2.0]], "mean"),
    ], ids=["covariance", "mean"])
    def test_overflow_on_finite_input_is_numeric(self, points, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"^the feature {name} overflows float64"):
                fit_gaussian(FeatureSet(np.array(points)))

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(AsymmetryError):
            GaussianSummary(mean=np.zeros(2), covariance=cov, sample_count=5)

    def test_empty_summary_rejected(self):
        # by the array rule, before frechet_gaussian could index its spectrum
        with pytest.raises(EmptySet, match="mean entries must be non-empty"):
            GaussianSummary(mean=np.zeros(0), covariance=np.zeros((0, 0)), sample_count=3)

    @pytest.mark.parametrize("mean, cov", [
        ([np.nan, 0.0], np.eye(2)),
        ([np.inf, 0.0], np.eye(2)),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
    ], ids=["nan-mean", "inf-mean", "nan-covariance"])
    def test_non_finite_summary_rejected(self, mean, cov):
        with pytest.raises(NonFiniteInput):
            GaussianSummary(mean=np.array(mean), covariance=np.array(cov), sample_count=5)


class TestFrechet:
    def test_equal_summaries(self):
        rng = np.random.default_rng(21)
        x = FeatureSet(rng.standard_normal((50, 4)))
        p = fit_gaussian(x)
        assert frechet_gaussian(p, p) <= 1e-9

    def test_one_dim_variance_gap(self):
        p = GaussianSummary(np.zeros(1), np.array([[1.0]]), 10)
        q = GaussianSummary(np.zeros(1), np.array([[4.0]]), 10)
        assert frechet_gaussian(p, q) == pytest.approx(1.0, abs=1e-9)

    def test_pure_mean_shift(self):
        rng = np.random.default_rng(29)
        cov = np.eye(3) * 1.7
        v = rng.standard_normal(3)
        p = GaussianSummary(np.zeros(3), cov, 10)
        q = GaussianSummary(v, cov.copy(), 10)
        assert frechet_gaussian(p, q) == pytest.approx(float(v @ v), rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        p = fit_gaussian(FeatureSet(rng.standard_normal((60, 4))))
        q = fit_gaussian(FeatureSet(rng.standard_normal((80, 4)) * 1.4 + 0.3))
        assert frechet_gaussian(p, q) == pytest.approx(frechet_gaussian(q, p), rel=1e-9)

    def test_commuting_diagonal_closed_form(self):
        lam = np.array([0.5, 1.0, 2.5])
        nu = np.array([1.5, 0.25, 3.0])
        mu_p = np.array([1.0, -2.0, 0.5])
        mu_q = np.array([0.0, 1.0, 0.5])
        p = GaussianSummary(mu_p, np.diag(lam), 10)
        q = GaussianSummary(mu_q, np.diag(nu), 10)
        expected = float(((mu_p - mu_q) ** 2).sum() + ((np.sqrt(lam) - np.sqrt(nu)) ** 2).sum())
        assert frechet_gaussian(p, q) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "binary"])
    def test_matches_lapack_at_dim_100(self, kind):
        p = fit_gaussian(sample(DistributionSpec(kind, 100), 500, 1))
        q = fit_gaussian(sample(DistributionSpec("gaussian", 100), 500, 2))
        ref, scale = lapack_frechet(p, q)
        assert abs(frechet_gaussian(p, q) - ref) <= 1e-9 * scale

    @pytest.mark.parametrize("kinds", GRID_PAIRS, ids="-".join)
    def test_matches_lapack_to_1e_12_on_grid_pairs(self, kinds):
        # the tridiagonal QL converges to working precision: within 1e-12
        # of the LAPACK value relative to the score's scale
        p = fit_gaussian(sample(DistributionSpec(kinds[0], 100), 500, 1))
        q = fit_gaussian(sample(DistributionSpec(kinds[1], 100), 500, 2))
        ref, scale = lapack_frechet(p, q)
        assert abs(frechet_gaussian(p, q) - ref) <= 1e-12 * scale

    def test_indefinite_cross_term_rejected(self):
        # S_p^{1/2} S_q S_p^{1/2} = diag(1, -0.5): the eigenvalues-only
        # root keeps psd_sqrt's NotPSD rule
        p = GaussianSummary(np.zeros(2), np.eye(2), 10)
        q = GaussianSummary(np.zeros(2), np.diag([1.0, -0.5]), 10)
        with pytest.raises(NotPSD):
            frechet_gaussian(p, q)

    def test_dimension_mismatch(self):
        p = GaussianSummary(np.zeros(2), np.eye(2), 10)
        q = GaussianSummary(np.zeros(3), np.eye(3), 10)
        with pytest.raises(DimensionMismatch):
            frechet_gaussian(p, q)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = fit_gaussian(FeatureSet(rng.standard_normal((30, 6))))
            q = fit_gaussian(FeatureSet(rng.standard_normal((30, 6))))
            assert frechet_gaussian(p, q) >= 0.0


class TestBundles:
    def test_feature_bundle(self):
        rng = np.random.default_rng(43)
        a = FeatureSet(rng.standard_normal((25, 3)))
        result = measures_from_features(a, a)
        assert result.coverage == 1.0
        assert result.mmd == 0.0
        assert result.frechet == pytest.approx(0.0, abs=1e-9)

    def test_cross_bundle_has_no_frechet(self):
        cross = np.array([[1.0, 2.0], [0.5, 3.0], [2.0, 0.1]])
        result = measures_from_cross(cross)
        assert result.frechet is None
        assert result.coverage == 1.0
        assert result.mmd == pytest.approx(0.3)

    def test_cross_bundle_validates_once(self, monkeypatch):
        module = importlib.import_module("ecdkit.setmeasures")
        real = module._real_array
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "_real_array", counting)
        cross = np.abs(np.random.default_rng(53).standard_normal((6, 4)))
        measures_from_cross(cross)
        assert len(calls) == 1

    def test_cross_orientation(self):
        # rows scan the first set, columns the second: row count must not
        # change which side coverage normalizes by
        cross = np.array([[0.1, 9.0, 9.0], [0.2, 9.0, 9.0]])
        assert measures_from_cross(cross).coverage == pytest.approx(1 / 3)
        assert measures_from_cross(cross).mmd == pytest.approx((0.1 + 9.0 + 9.0) / 3)

    def test_negative_distance_rejected(self):
        cross = np.array([[1.0, -0.5]])
        with pytest.raises(NegativeDistanceError):
            measures_from_cross(cross)

    def test_json_shape(self):
        rng = np.random.default_rng(47)
        a = FeatureSet(rng.standard_normal((10, 2)))
        b = FeatureSet(rng.standard_normal((12, 2)))
        payload = measures_from_features(a, b).to_json_dict()
        assert set(payload) == {"coverage", "mmd", "frechet"}
        payload_no_f = measures_from_cross(np.abs(rng.standard_normal((4, 5)))).to_json_dict()
        assert payload_no_f["frechet"] is None
