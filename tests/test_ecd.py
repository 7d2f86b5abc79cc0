"""Edge-count statistic and its permutation-null moments."""

import importlib
import json
import tracemalloc
from dataclasses import replace

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moments_reference import reference_null_moments

from ecdkit import (
    DisconnectedError,
    DistanceMatrix,
    FeatureSet,
    GeneratedSetTooSmall,
    InvalidSpec,
    InvalidTrials,
    PooledLabels,
    SingularCovariance,
    SizeMismatch,
    SpanningGraph,
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
    validate_distance_matrix,
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


def test_scoring_reads_no_edge_tuples(monkeypatch):
    def refuse(_graph):
        raise AssertionError("scoring built the per-edge tuple view")

    monkeypatch.setattr(SpanningGraph, "edges", property(refuse))
    rng = np.random.default_rng(8)
    a = FeatureSet(rng.standard_normal((40, 3)))
    b = FeatureSet(rng.standard_normal((30, 3)))
    rep = ecd(a, b, k=3)
    d = pairwise_distances(a, b)
    assert ecd_from_distances(d, PooledLabels(40, 30), k=3).to_json_dict() == rep.to_json_dict()
    ecd_subsampled(a, b, k=3, rounds=2, seed=1)


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
        with pytest.raises(SingularCovariance, match="3-regular") as exc:
            ecd(a, b, k=2)
        assert exc.value.determinant == 0.0

    def test_too_few_points(self):
        # a split of fewer than 4 points has a side below 2, so the split
        # rule rejects it before any moment is formed
        d = pairwise_distances(FeatureSet(np.array([0.0, 1.0])), FeatureSet(np.array([2.0])))
        g = kmst(d, k=1)
        for n, m in ((2, 1), (1, 2), (0, 3), (5, -3)):
            with pytest.raises(SizeMismatch, match=rf"^each set needs at least 2 points, "
                                                   rf"got sizes \({n}, {m}\)$"):
                null_moments(g, n, m)

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


def assert_same_bits(got, want):
    """Every number of two NullMoments equal to the bit."""
    assert got.n_edges == want.n_edges
    for a, b in ((got.mu1, want.mu1), (got.mu2, want.mu2), (got.c, want.c)):
        assert type(a) is type(b) and a.hex() == b.hex()
    assert got.sigma.dtype == want.sigma.dtype and got.sigma.shape == want.sigma.shape
    assert got.sigma.tobytes() == want.sigma.tobytes()


class TestMatchesFrozenFormula:
    """null_moments against the frozen hand-expanded formula of
    moments_reference, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        pool=st.sampled_from(["gaussian", "binary", "duplicates"]),
        n_total=st.integers(4, 60),
        first_share=st.floats(0.0, 1.0),
        k_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kmst_graphs(self, pool, n_total, first_share, k_share, seed):
        rng = np.random.default_rng(seed)
        if pool == "gaussian":
            pts = rng.standard_normal((n_total, 3))
        elif pool == "binary":
            pts = rng.choice([-1.0, 1.0], (n_total, 4))
        else:
            pts = rng.standard_normal((3, 2))[rng.integers(0, 3, n_total)]
        n = 2 + int(first_share * (n_total - 4))  # 2..N-2, equal or not
        k = 1 + int(k_share * (n_total // 4 - 1))  # 1..N/4
        d = pairwise_distances(FeatureSet(pts[:n]), FeatureSet(pts[n:]))
        try:
            g = kmst(d, k)
        except DisconnectedError:
            g = kmst(d, 1)
        for first, second in ((n, n_total - n), (n_total - n, n)):
            assert_same_bits(null_moments(g, first, second),
                             reference_null_moments(g, first, second))

    @pytest.mark.parametrize("n_total", [10**6, 2 * 10**6 + 1, 10**7 + 3, 2 * 10**7])
    @pytest.mark.parametrize("k", [1, 10])
    def test_large_synthetic(self, n_total, k):
        # null_moments reads a graph's node count, edge count and degrees
        # (through C) only. A short degree array whose squares sum to a
        # k-MST's order of magnitude on N nodes stands in for the full one.
        rng = np.random.default_rng([n_total, k])
        scale = np.sqrt(n_total / 1000)
        degrees = np.rint(rng.integers(1, 4 * k + 1, 1000) * scale).astype(np.int64)
        g = SimpleNamespace(n_nodes=n_total, n_edges=k * (n_total - 1), degrees=degrees)
        for n in (2, 3, 4, n_total // 3, n_total // 2, n_total - 4, n_total - 3, n_total - 2):
            m = n_total - n
            assert_same_bits(null_moments(g, n, m), reference_null_moments(g, n, m))


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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_invalid_seed_is_typed(self, seed):
        g, n, m = random_graph(9)
        with pytest.raises(InvalidSpec):
            permutation_samples(g, n, m, trials=3, seed=seed)
        with pytest.raises(InvalidSpec):
            permutation_moments(g, n, m, trials=3, seed=seed)
        # the trial count is still checked first
        with pytest.raises(InvalidTrials):
            permutation_samples(g, n, m, trials=0, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, True, np.uint64(2**64 - 1), 2**70])
    def test_accepted_seeds_keep_their_stream(self, seed):
        g, n, m = random_graph(10)
        want = np.empty((5, 2))
        for t in range(5):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, t])))
            in_first = np.zeros(n + m, dtype=bool)
            in_first[rng.permutation(n + m)[:n]] = True
            want[t] = (np.sum(in_first[g.ei] & in_first[g.ej]),
                       np.sum(~in_first[g.ei] & ~in_first[g.ej]))
        assert np.array_equal(permutation_samples(g, n, m, trials=5, seed=seed), want)

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

    @pytest.mark.parametrize("pool", ["gaussian", "binary"])
    def test_squared_distances_give_the_same_report(self, pool):
        # a spanning tree reads only the order of its edge weights, so
        # Euclidean is the one distance ecd needs to compute
        rng = np.random.default_rng(59)
        if pool == "gaussian":
            pts = rng.standard_normal((40, 5))
        else:
            pts = rng.choice([-1.0, 1.0], (40, 8))  # tie-heavy: Hamming distances
        a, b = FeatureSet(pts[:22]), FeatureSet(pts[22:])
        plain = ecd(a, b, k=3)
        squared = validate_distance_matrix(pairwise_distances(a, b).values ** 2)
        rep = ecd_from_distances(squared, PooledLabels(22, 18), k=3)
        assert json.dumps(rep.to_json_dict()) == json.dumps(plain.to_json_dict())
        for name in ("ei", "ej", "layer"):
            assert getattr(rep.graph, name).tobytes() == getattr(plain.graph, name).tobytes()

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

    @pytest.mark.parametrize("route", ["features", "distances"])
    def test_holds_one_round_matrix_at_a_time(self, route):
        # a round's pooled matrix is freed before the next round fills its
        # own, so more rounds do not raise the peak
        rng = np.random.default_rng(309)
        a = FeatureSet(rng.standard_normal((400, 20)))
        b = FeatureSet(rng.standard_normal((200, 20)))
        if route == "features":
            def run(rounds):
                return ecd_subsampled(a, b, k=1, rounds=rounds, seed=2)
        else:
            d = pairwise_distances(a, b)

            def run(rounds):
                return ecd_subsampled_from_distances(d, PooledLabels(400, 200), k=1,
                                                     rounds=rounds, seed=2)
        run(1)  # scipy's first import is not part of the peak
        peaks = []
        for rounds in (1, 3):
            tracemalloc.start()
            try:
                run(rounds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("subsample", SUBSAMPLE_ROUTES)
    def test_invalid_seed_is_typed(self, subsample, seed):
        rng = np.random.default_rng(307)
        a = FeatureSet(rng.standard_normal((10, 2)))
        b = FeatureSet(rng.standard_normal((6, 2)))
        with pytest.raises(InvalidSpec):
            subsample(a, b, k=1, rounds=2, seed=seed)
        with pytest.raises(InvalidSpec):
            subsample_round_indices(seed, 0, 10, 6)
        # the round count is still checked first, and the seed before the set sizes
        with pytest.raises(InvalidTrials):
            subsample(a, b, k=1, rounds=0, seed=seed)
        with pytest.raises(InvalidSpec):
            subsample(b, a, k=1, rounds=2, seed=seed)

    @pytest.mark.parametrize("subsample", SUBSAMPLE_ROUTES)
    def test_round_count_checked_once(self, subsample, monkeypatch):
        rng = np.random.default_rng(308)
        a = FeatureSet(rng.standard_normal((10, 2)))
        b = FeatureSet(rng.standard_normal((6, 2)))
        ecd_module = importlib.import_module("ecdkit.ecd")
        real_check = ecd_module._check_rounds
        calls = []

        def counting_check(rounds):
            calls.append(rounds)
            real_check(rounds)

        monkeypatch.setattr(ecd_module, "_check_rounds", counting_check)
        subsample(a, b, k=1, rounds=2, seed=0)
        assert calls == [2]

    @pytest.mark.parametrize("seed", [0, 7, True, np.uint64(2**64 - 1), 2**70])
    def test_accepted_seeds_keep_their_stream(self, seed):
        for r in range(3):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
            want = np.sort(rng.permutation(30)[:12])
            assert np.array_equal(subsample_round_indices(seed, r, 30, 12), want)


def _plain_features(a, b, k):
    return ecd(a, b, k=k)


def _plain_distances(a, b, k):
    return ecd_from_distances(pairwise_distances(a, b), PooledLabels(a.n_points, b.n_points), k=k)


def _subsampled_features(a, b, k):
    return ecd_subsampled(a, b, k=k, rounds=3, seed=13)


def _subsampled_distances(a, b, k):
    return subsample_distances(a, b, k=k, rounds=3, seed=13)


class TestReportGraph:
    """Every report carries the k-MST its counts and moments came from."""

    @pytest.mark.parametrize("score, subsampled", [
        pytest.param(_plain_features, False, id="ecd"),
        pytest.param(_plain_distances, False, id="ecd_from_distances"),
        pytest.param(_subsampled_features, True, id="ecd_subsampled"),
        pytest.param(_subsampled_distances, True, id="ecd_subsampled_from_distances"),
    ])
    def test_graph_is_the_scored_graph(self, score, subsampled):
        rng = np.random.default_rng(401)
        big = rng.standard_normal((18 if subsampled else 12, 3))
        small = rng.standard_normal((10, 3))
        k = 3
        rep = score(FeatureSet(big), FeatureSet(small), k)
        g = rep.graph
        assert isinstance(g, SpanningGraph)
        assert g.k == rep.k == k
        assert edge_counts(g, PooledLabels(rep.n, rep.m)) == rep.counts
        mom = null_moments(g, rep.n, rep.m)
        assert (mom.mu1, mom.mu2, mom.c, mom.n_edges) == (
            rep.moments.mu1, rep.moments.mu2, rep.moments.c, rep.moments.n_edges)
        assert mom.sigma.tobytes() == rep.moments.sigma.tobytes()

        # round 0 keeps first-set rows idx and every second-set row
        idx = subsample_round_indices(13, 0, len(big), len(small)) if subsampled else slice(None)
        want = kmst(pairwise_distances(FeatureSet(big[idx]), FeatureSet(small)), k)
        for name in ("ei", "ej", "weight", "layer"):
            assert getattr(g, name).tobytes() == getattr(want, name).tobytes()
        assert g.n_nodes == want.n_nodes

        payload = rep.to_json_dict()
        assert "graph" not in payload
        assert "graph" not in repr(rep)
        assert replace(rep, graph=None) == rep
