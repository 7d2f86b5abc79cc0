"""Edge-count statistic and its permutation-null moments."""

import importlib
import json

import numpy as np
import pytest

from ecdkit import (
    DisconnectedError,
    DistanceMatrix,
    FeatureSet,
    GeneratedSetTooSmall,
    InvalidTrials,
    PooledLabels,
    SingularCovariance,
    SizeMismatch,
    TooFewPoints,
    degree_statistic,
    ecd,
    ecd_from_distances,
    ecd_statistic,
    ecd_subsampled,
    ecd_subsampled_from_distances,
    edge_counts,
    exhaustive_moments,
    kmst,
    null_moments,
    pairwise_distances,
    permutation_moments,
    permutation_samples,
)
from ecdkit.ecd import subsample_round_indices


def two_pair_sets():
    return FeatureSet(np.array([0.0, 1.0])), FeatureSet(np.array([10.0, 11.0]))


def random_graph(seed, k_want=2):
    """Random pooled graph with a split, falling back to one layer when
    the greedy construction runs out of edges."""
    rng = np.random.default_rng(seed)
    n_total = int(rng.integers(5, 11))
    n = int(rng.integers(2, n_total - 1))
    m = n_total - n
    pts = rng.standard_normal((n_total, 3))
    d = pairwise_distances(FeatureSet(pts[:n]), FeatureSet(pts[n:]))
    try:
        g = kmst(d, k=k_want)
    except DisconnectedError:
        g = kmst(d, k=1)
    return g, n, m


class TestWorkedInstance:
    def test_full_pipeline_statistic(self):
        a, b = two_pair_sets()
        report = ecd(a, b, k=1)
        assert report.statistic == pytest.approx(1.5, rel=1e-12)
        assert (report.counts.r1, report.counts.r2, report.counts.r12) == (1, 1, 1)
        assert report.moments.mu1 == 0.5
        assert report.moments.mu2 == 0.5
        assert report.moments.sigma[0, 0] == 0.25
        assert report.moments.sigma[1, 1] == 0.25
        assert report.moments.sigma[0, 1] == pytest.approx(1 / 12, rel=1e-12)
        assert report.k == 1 and report.n == 2 and report.m == 2

    def test_moments_from_graph(self):
        a, b = two_pair_sets()
        d = pairwise_distances(a, b)
        g = kmst(d, k=1)
        assert degree_statistic(g) == 2.0
        mom = null_moments(g, 2, 2)
        assert mom.mu1 == 0.5
        assert mom.sigma[1, 0] == mom.sigma[0, 1]
        assert mom.n_edges == 3

    def test_zero_deviation_gives_zero(self):
        a, b = two_pair_sets()
        d = pairwise_distances(a, b)
        g = kmst(d, k=1)
        mom = null_moments(g, 2, 2)
        # impossible as an observed count, but the form must still vanish
        counts = edge_counts(g, PooledLabels(2, 2))
        shifted = type(counts)(r1=0, r2=0, r12=3)
        val = ecd_statistic(shifted, mom)
        assert val > 0
        # deviations (0,0) via a moments object centered on the counts
        centered = type(mom)(
            mu1=float(counts.r1), mu2=float(counts.r2),
            sigma=mom.sigma, c=mom.c, n_edges=mom.n_edges,
        )
        assert ecd_statistic(counts, centered) == 0.0


class TestEdgeCounts:
    def test_k4_counts(self):
        a = FeatureSet(np.array([0.0, 1.0]))
        b = FeatureSet(np.array([2.0, 3.0]))
        g = kmst(pairwise_distances(a, b), k=2)
        counts = edge_counts(g, PooledLabels(2, 2))
        assert (counts.r1, counts.r2, counts.r12) == (1, 1, 4)
        assert counts.total == g.n_edges

    def test_partition_invariant(self):
        g, n, m = random_graph(101)
        counts = edge_counts(g, PooledLabels(n, m))
        assert counts.r1 + counts.r2 + counts.r12 == g.n_edges
        assert counts.r1 >= 0 and counts.r2 >= 0 and counts.r12 >= 0

    def test_label_size_mismatch(self):
        g, n, m = random_graph(102)
        with pytest.raises(SizeMismatch):
            edge_counts(g, PooledLabels(n + 1, m))


class TestNullMoments:
    def test_k4_is_degenerate(self):
        # both trees together use every K4 edge, so the counts are
        # constant under relabeling and the covariance collapses
        a = FeatureSet(np.array([0.0, 1.0]))
        b = FeatureSet(np.array([2.0, 3.0]))
        with pytest.raises(SingularCovariance):
            ecd(a, b, k=2)

    def test_too_few_points(self):
        pts = FeatureSet(np.array([0.0, 1.0, 2.0]))
        d = pairwise_distances(FeatureSet(np.array([0.0, 1.0])), FeatureSet(np.array([2.0])))
        g = kmst(d, k=1)
        with pytest.raises(TooFewPoints):
            null_moments(g, 2, 1)

    def test_tiny_side_rejected(self):
        g, n, m = random_graph(103)
        with pytest.raises(SizeMismatch):
            null_moments(g, 1, n + m - 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_exhaustive_enumeration_agrees(self, seed):
        g, n, m = random_graph(seed)
        analytic = null_moments(g, n, m)
        exact = exhaustive_moments(g, n, m)
        assert analytic.mu1 == pytest.approx(exact.mu1, rel=1e-12)
        assert analytic.mu2 == pytest.approx(exact.mu2, rel=1e-12)
        np.testing.assert_allclose(analytic.sigma, exact.sigma, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("seed", range(12))
    def test_expected_counts_partition_edge_total(self, seed):
        g, n, m = random_graph(seed)
        mom = null_moments(g, n, m)
        N = n + m
        cross = g.n_edges * 2 * n * m / (N * (N - 1))
        assert mom.mu1 + mom.mu2 + cross == pytest.approx(g.n_edges, rel=1e-12)

    def test_enumeration_rejects_nearby_variant(self):
        # the exhaustive oracle is sharp enough to separate the correct
        # four-distinct-node weight from a lookalike with one factor off
        rng = np.random.default_rng(77)
        pts = rng.standard_normal((9, 3))
        d = pairwise_distances(FeatureSet(pts[:5]), FeatureSet(pts[5:]))
        g = kmst(d, k=2)
        n, m = 5, 4
        N = n + m
        exact = exhaustive_moments(g, n, m).sigma[0, 0]
        good = null_moments(g, n, m).sigma[0, 0]
        G = g.n_edges
        C = degree_statistic(g)
        mu1 = G * n * (n - 1) / (N * (N - 1))
        p3 = n * (n - 1) * (n - 2) / (N * (N - 1) * (N - 2))
        p4_variant = (
            n * (n - 2) * (n - 2) * (n - 3) / (N * (N - 1) * (N - 2) * (N - 3))
        )
        variant = mu1 * (1 - mu1) + 2 * C * p3 + (G * (G - 1) - 2 * C) * p4_variant
        assert abs(good - exact) / exact < 1e-12
        assert abs(variant - exact) / exact > 0.5


class TestPermutationOracle:
    def test_sample_shape_and_range(self):
        g, n, m = random_graph(7)
        samples = permutation_samples(g, n, m, trials=50, seed=3)
        assert samples.shape == (50, 2)
        assert (samples >= 0).all()
        assert (samples.sum(axis=1) <= g.n_edges).all()

    def test_deterministic_in_seed(self):
        g, n, m = random_graph(8)
        one = permutation_samples(g, n, m, trials=40, seed=5)
        two = permutation_samples(g, n, m, trials=40, seed=5)
        other = permutation_samples(g, n, m, trials=40, seed=6)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_trial_count_validation(self):
        g, n, m = random_graph(9)
        with pytest.raises(InvalidTrials):
            permutation_samples(g, n, m, trials=0, seed=1)
        with pytest.raises(InvalidTrials):
            permutation_moments(g, n, m, trials=1, seed=1)

    def test_monte_carlo_matches_analytic(self):
        a, b = two_pair_sets()
        g = kmst(pairwise_distances(a, b), k=1)
        trials = 20000
        emp = permutation_moments(g, 2, 2, trials=trials, seed=5)
        ana = null_moments(g, 2, 2)
        se_mean = np.sqrt(np.diag(ana.sigma) / trials)
        assert abs(emp.mu1 - ana.mu1) < 3 * se_mean[0]
        assert abs(emp.mu2 - ana.mu2) < 3 * se_mean[1]
        # covariance entries converge at the same root-trials rate; the
        # constant is order one for this bounded statistic
        assert np.abs(emp.sigma - ana.sigma).max() < 0.02


class TestSymmetriesAndInvariance:
    @pytest.mark.parametrize("seed", [1, 2, 42])
    def test_label_swap(self, seed):
        rng = np.random.default_rng(seed)
        a = FeatureSet(rng.standard_normal((17, 3)))
        b = FeatureSet(rng.standard_normal((13, 3)))
        fwd = ecd(a, b, k=2)
        rev = ecd(b, a, k=2)
        assert fwd.statistic == rev.statistic
        assert (fwd.counts.r1, fwd.counts.r2) == (rev.counts.r2, rev.counts.r1)
        assert fwd.counts.r12 == rev.counts.r12
        assert fwd.moments.mu1 == rev.moments.mu2
        assert fwd.moments.sigma[0, 0] == rev.moments.sigma[1, 1]
        assert fwd.moments.sigma[0, 1] == rev.moments.sigma[1, 0]

    def test_distance_scale_invariance(self):
        rng = np.random.default_rng(58)
        pts = rng.standard_normal((16, 4))
        a, b = FeatureSet(pts[:9]), FeatureSet(pts[9:])
        d = pairwise_distances(a, b)
        labels = PooledLabels(9, 7)
        base = ecd_from_distances(d, labels, k=2)
        scaled = ecd_from_distances(DistanceMatrix(d.values * 37.5), labels, k=2)
        assert scaled.statistic == base.statistic
        assert scaled.counts == base.counts

    def test_metric_choice_is_topology_only(self):
        rng = np.random.default_rng(59)
        a = FeatureSet(rng.standard_normal((12, 5)))
        b = FeatureSet(rng.standard_normal((10, 5)))
        eu = ecd(a, b, k=2, metric="euclidean")
        sq = ecd(a, b, k=2, metric="squared_euclidean")
        assert eu.statistic == sq.statistic
        assert eu.counts == sq.counts

    def test_nonnegative_over_many_inputs(self):
        for seed in range(25):
            g, n, m = random_graph(1000 + seed)
            counts = edge_counts(g, PooledLabels(n, m))
            try:
                val = ecd_statistic(counts, null_moments(g, n, m))
            except SingularCovariance:
                continue
            assert val >= 0.0

    def test_oversized_k_propagates(self):
        rng = np.random.default_rng(61)
        a = FeatureSet(rng.standard_normal((4, 2)))
        b = FeatureSet(rng.standard_normal((4, 2)))
        with pytest.raises(DisconnectedError):
            ecd(a, b, k=5)


class TestReport:
    def test_json_dict_shape(self):
        a, b = two_pair_sets()
        report = ecd(a, b, k=1)
        payload = report.to_json_dict()
        assert set(payload) == {
            "statistic", "r1", "r2", "mu1", "mu2", "sigma", "C",
            "edges", "k", "n", "m", "seed", "rounds",
        }
        assert payload["seed"] is None and payload["rounds"] is None
        assert payload["sigma"][0][1] == payload["sigma"][1][0]
        json.dumps(payload)

    def test_recomputation_agrees(self):
        g, n, m = random_graph(202)
        counts = edge_counts(g, PooledLabels(n, m))
        mom = null_moments(g, n, m)
        try:
            ecd_statistic(counts, mom)
        except SingularCovariance:
            pytest.skip("degenerate draw")
        rng = np.random.default_rng(202)
        a = FeatureSet(rng.standard_normal((9, 3)))
        b = FeatureSet(rng.standard_normal((8, 3)))
        report = ecd(a, b, k=2)
        assert abs(report.recomputed_statistic() - report.statistic) <= 1e-9


def subsample_distances(a, b, **kwargs):
    labels = PooledLabels(a.n_points, b.n_points)
    return ecd_subsampled_from_distances(pairwise_distances(a, b), labels, **kwargs)


SUBSAMPLE_ROUTES = [
    pytest.param(ecd_subsampled, id="features"),
    pytest.param(subsample_distances, id="distances"),
]


class TestSubsampling:
    def test_single_round_equals_plain(self):
        rng = np.random.default_rng(301)
        a = FeatureSet(rng.standard_normal((15, 3)))
        b = FeatureSet(rng.standard_normal((15, 3)))
        plain = ecd(a, b, k=2)
        sub = ecd_subsampled(a, b, k=2, rounds=1, seed=9)
        assert sub.statistic == plain.statistic
        assert sub.subsample_rounds == 1
        assert sub.seed == 9
        assert abs(sub.recomputed_statistic() - sub.statistic) <= 1e-9

    def test_mean_decomposition(self):
        rng = np.random.default_rng(302)
        a = FeatureSet(rng.standard_normal((40, 3)))
        b = FeatureSet(rng.standard_normal((20, 3)))
        rounds, seed = 3, 11
        sub = ecd_subsampled(a, b, k=2, rounds=rounds, seed=seed)
        per_round = []
        for r in range(rounds):
            idx = subsample_round_indices(seed, r, 40, 20)
            per_round.append(ecd(FeatureSet(a.points[idx]), b, k=2).statistic)
        assert sub.statistic == pytest.approx(np.mean(per_round), rel=1e-15)
        assert sub.n == 20 and sub.m == 20

    def test_round_indices_are_sorted_and_unique(self):
        idx = subsample_round_indices(4, 2, 50, 18)
        assert idx.shape == (18,)
        assert (np.diff(idx) > 0).all()
        assert idx.min() >= 0 and idx.max() < 50

    def test_distance_route_matches_feature_route(self):
        rng = np.random.default_rng(303)
        big = rng.standard_normal((30, 3))
        small = rng.standard_normal((12, 3))
        a, b = FeatureSet(big), FeatureSet(small)
        d = pairwise_distances(a, b)
        from_features = ecd_subsampled(a, b, k=2, rounds=4, seed=21)
        from_dist = ecd_subsampled_from_distances(
            d, PooledLabels(30, 12), k=2, rounds=4, seed=21
        )
        assert from_dist.statistic == from_features.statistic

    @pytest.mark.parametrize("subsample", SUBSAMPLE_ROUTES)
    def test_equal_sizes_score_once(self, subsample, monkeypatch):
        # every round would draw the whole first set: one k-MST, and the
        # mean is the round-0 statistic added `rounds` times
        rng = np.random.default_rng(306)
        a = FeatureSet(rng.standard_normal((20, 3)))
        b = FeatureSet(rng.standard_normal((20, 3)))
        rounds = 7
        once = ecd(a, b, k=2).statistic
        ecd_module = importlib.import_module("ecdkit.ecd")
        real_kmst = ecd_module.kmst
        calls = []

        def counting_kmst(d, k):
            calls.append(k)
            return real_kmst(d, k)

        monkeypatch.setattr(ecd_module, "kmst", counting_kmst)
        sub = subsample(a, b, k=2, rounds=rounds, seed=5)
        assert len(calls) == 1
        total = 0.0
        for _ in range(rounds):
            total += once
        assert sub.statistic == total / rounds
        assert sub.subsample_rounds == rounds

    @pytest.mark.parametrize("subsample", SUBSAMPLE_ROUTES)
    def test_generated_set_too_small(self, subsample):
        rng = np.random.default_rng(304)
        a = FeatureSet(rng.standard_normal((5, 2)))
        b = FeatureSet(rng.standard_normal((8, 2)))
        with pytest.raises(GeneratedSetTooSmall):
            subsample(a, b, k=1, rounds=2, seed=0)

    @pytest.mark.parametrize("subsample", SUBSAMPLE_ROUTES)
    def test_round_count_validation(self, subsample):
        rng = np.random.default_rng(305)
        a = FeatureSet(rng.standard_normal((8, 2)))
        b = FeatureSet(rng.standard_normal((8, 2)))
        with pytest.raises(InvalidTrials):
            subsample(a, b, k=1, rounds=0, seed=0)
        # a bad round count is reported ahead of an undersized first set
        with pytest.raises(InvalidTrials):
            subsample(FeatureSet(a.points[:5]), b, k=1, rounds=0, seed=0)
