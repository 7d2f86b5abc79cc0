"""Edge Count Difference statistic with analytic permutation-null moments.

For a pooled k-MST over N = n + m points, count the edges falling within
the first set (R1), within the second (R2), and across. Under random
relabeling the pair (R1, R2) has closed-form mean and covariance; the
statistic is the squared Mahalanobis deviation of the observed counts
from that null. Large values say the two sets occupy space differently.

Closed forms (G = edge count of the union graph, C = pairs of edges
sharing a node, N = n + m):

    mu1      = G n(n-1) / (N(N-1))
    Sigma11  = mu1 (1 - mu1)
               + 2C n(n-1)(n-2) / (N(N-1)(N-2))
               + (G(G-1) - 2C) n(n-1)(n-2)(n-3) / (N(N-1)(N-2)(N-3))
    Sigma12  = (G(G-1) - 2C) nm(n-1)(m-1) / (N(N-1)(N-2)(N-3)) - mu1 mu2

with mu2 and Sigma22 obtained by swapping n and m. These follow from
splitting E[R1^2] over identical, node-sharing, and disjoint edge pairs;
the exhaustive enumeration oracle in this module reproduces them exactly
on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    GeneratedSetTooSmall,
    InvalidTrials,
    SingularCovariance,
    SizeMismatch,
    TooFewPoints,
)
from .metricspace import DistanceMatrix, FeatureSet, PooledLabels, pairwise_distances
from .numerics import quadratic_form_2x2
from .spanning import DEFAULT_K, SpanningGraph, degree_statistic, kmst

#: Number of subsample rounds when the first set is larger than the second.
DEFAULT_ROUNDS = 10

#: Negative quadratic-form values above this magnitude cannot be rounding.
_NEGATIVE_STAT_TOL = 1e-12


@dataclass(frozen=True)
class EdgeCounts:
    """Edge classification of a pooled spanning graph: within-first,
    within-second, crossing."""

    r1: int
    r2: int
    r12: int

    @property
    def total(self) -> int:
        return self.r1 + self.r2 + self.r12


@dataclass(frozen=True)
class NullMoments:
    """Mean and covariance of (R1, R2) under random relabeling.

    c is the node-sharing edge-pair count of the graph and n_edges its
    edge total; both are carried along for reporting.
    """

    mu1: float
    mu2: float
    sigma: np.ndarray
    c: float
    n_edges: int

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])


@dataclass(frozen=True)
class EcdReport:
    """Statistic plus every intermediate needed to recompute it.

    For subsampled runs (subsample_rounds > 1) the statistic is the mean
    over rounds and counts/moments describe the first round only.
    """

    statistic: float
    counts: EdgeCounts
    moments: NullMoments
    k: int
    n: int
    m: int
    seed: int | None = None
    subsample_rounds: int | None = None

    def recomputed_statistic(self) -> float:
        return ecd_statistic(self.counts, self.moments)

    def to_json_dict(self) -> dict:
        s = self.moments.sigma
        return {
            "statistic": self.statistic,
            "r1": self.counts.r1,
            "r2": self.counts.r2,
            "mu1": self.moments.mu1,
            "mu2": self.moments.mu2,
            "sigma": [[float(s[0, 0]), float(s[0, 1])],
                      [float(s[1, 0]), float(s[1, 1])]],
            "C": self.moments.c,
            "edges": self.moments.n_edges,
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "rounds": self.subsample_rounds,
        }


def edge_counts(g: SpanningGraph, labels: PooledLabels) -> EdgeCounts:
    """Classify graph edges by the side of the split their endpoints fall on."""
    if labels.n_total != g.n_nodes:
        raise SizeMismatch(
            f"label split covers {labels.n_total} nodes, graph has {g.n_nodes}"
        )
    in_first = np.arange(g.n_nodes) < labels.split_index
    r1, r2 = _within_counts(*g.edge_index_arrays(), in_first)
    return EdgeCounts(r1=r1, r2=r2, r12=g.n_edges - r1 - r2)


def _within_counts(ei: np.ndarray, ej: np.ndarray, in_first: np.ndarray) -> tuple:
    """(R1, R2) of the edges (ei, ej): both endpoints in the first set, or
    both outside it, where in_first is the per-node membership mask."""
    a_i = in_first[ei]
    a_j = in_first[ej]
    return int(np.sum(a_i & a_j)), int(np.sum(~a_i & ~a_j))


def null_moments(g: SpanningGraph, n: int, m: int) -> NullMoments:
    """Analytic mean and covariance of (R1, R2) over uniform relabelings."""
    big_n = n + m
    if big_n < 4:
        raise TooFewPoints(f"null covariance needs n + m >= 4, got {big_n}")
    if n < 2 or m < 2:
        raise SizeMismatch(f"each set needs at least 2 points, got ({n}, {m})")
    if g.n_nodes != big_n:
        raise SizeMismatch(f"graph has {g.n_nodes} nodes, labels cover {big_n}")
    edges = float(g.n_edges)
    c = degree_statistic(g)
    nn = float(big_n)
    # probability that 2, 3, 4 specific distinct nodes all land in the
    # first set, and the within-first/within-second pair probability
    p2a = (n * (n - 1)) / (nn * (nn - 1))
    p2b = (m * (m - 1)) / (nn * (nn - 1))
    p3a = (n * (n - 1) * (n - 2)) / (nn * (nn - 1) * (nn - 2))
    p3b = (m * (m - 1) * (m - 2)) / (nn * (nn - 1) * (nn - 2))
    p4a = (n * (n - 1) * (n - 2) * (n - 3)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    p4b = (m * (m - 1) * (m - 2) * (m - 3)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    pcross = (n * (n - 1) * m * (m - 1)) / (nn * (nn - 1) * (nn - 2) * (nn - 3))
    mu1 = edges * p2a
    mu2 = edges * p2b
    disjoint_pairs = edges * (edges - 1.0) - 2.0 * c
    s11 = mu1 * (1.0 - mu1) + 2.0 * c * p3a + disjoint_pairs * p4a
    s22 = mu2 * (1.0 - mu2) + 2.0 * c * p3b + disjoint_pairs * p4b
    s12 = disjoint_pairs * pcross - mu1 * mu2
    sigma = np.array([[s11, s12], [s12, s22]])
    return NullMoments(mu1=mu1, mu2=mu2, sigma=sigma, c=c, n_edges=g.n_edges)


def ecd_statistic(counts: EdgeCounts, moments: NullMoments) -> float:
    """Squared Mahalanobis deviation of (R1, R2) from its null moments."""
    dev = np.array([counts.r1 - moments.mu1, counts.r2 - moments.mu2])
    value = quadratic_form_2x2(dev, moments.sigma)
    if value < 0.0:
        if value < -_NEGATIVE_STAT_TOL:
            raise SingularCovariance(
                f"covariance is numerically indefinite (quadratic form {value:g})"
            )
        value = 0.0
    return value


def _check_cover(d: DistanceMatrix, labels: PooledLabels) -> None:
    if labels.n_total != d.n_points:
        raise SizeMismatch(
            f"split sizes {labels.n}+{labels.m} do not cover the {d.n_points}-point matrix"
        )


def _score(d: DistanceMatrix, labels: PooledLabels, k: int):
    """(report, k-MST) for a pooled distance matrix whose first n rows are set one."""
    _check_cover(d, labels)
    g = kmst(d, k)
    counts = edge_counts(g, labels)
    moments = null_moments(g, labels.n, labels.m)
    stat = ecd_statistic(counts, moments)
    report = EcdReport(
        statistic=stat, counts=counts, moments=moments,
        k=int(k), n=labels.n, m=labels.m,
    )
    return report, g


def ecd_from_distances(
    d: DistanceMatrix, labels: PooledLabels, k: int = DEFAULT_K
) -> EcdReport:
    """Statistic from a pooled distance matrix whose first n rows are set one."""
    return _score(d, labels, k)[0]


def ecd(
    a: FeatureSet, b: FeatureSet, k: int = DEFAULT_K, metric: str = "euclidean"
) -> EcdReport:
    """Full pipeline: pooled distances, k-MST, edge counts, statistic."""
    d = pairwise_distances(a, b, metric)
    labels = PooledLabels(n=a.n_points, m=b.n_points)
    return ecd_from_distances(d, labels, k)


# --- permutation oracles ----------------------------------------------------

def permutation_samples(
    g: SpanningGraph, n: int, m: int, trials: int, seed: int
) -> np.ndarray:
    """(trials, 2) array of (R1, R2) under independent random relabelings.

    Trial t draws its permutation from a generator seeded by the pair
    (seed, t), so any execution order yields the same rows.
    """
    if trials < 1:
        raise InvalidTrials(f"need at least 1 trial, got {trials}")
    if g.n_nodes != n + m:
        raise SizeMismatch(f"graph has {g.n_nodes} nodes, labels cover {n + m}")
    ei, ej = g.edge_index_arrays()
    out = np.empty((trials, 2), dtype=np.float64)
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, t])))
        perm = rng.permutation(n + m)
        in_first = np.zeros(n + m, dtype=bool)
        in_first[perm[:n]] = True
        out[t] = _within_counts(ei, ej, in_first)
    return out


def permutation_moments(
    g: SpanningGraph, n: int, m: int, trials: int, seed: int
) -> NullMoments:
    """Monte-Carlo estimate of the null moments (sample covariance, trials - 1)."""
    if trials < 2:
        raise InvalidTrials(f"sample covariance needs at least 2 trials, got {trials}")
    samples = permutation_samples(g, n, m, trials, seed)
    mean = samples.mean(axis=0)
    dev = samples - mean
    # fixed-order contraction; avoids thread-count-dependent summation
    sigma = np.einsum("ti,tj->ij", dev, dev) / (trials - 1.0)
    return NullMoments(
        mu1=float(mean[0]), mu2=float(mean[1]), sigma=sigma,
        c=degree_statistic(g), n_edges=g.n_edges,
    )


def exhaustive_moments(g: SpanningGraph, n: int, m: int) -> NullMoments:
    """Exact null moments by enumerating all (n+m choose n) splits.

    Population covariance over the full enumeration; feasible for small
    node counts only.
    """
    big_n = n + m
    if g.n_nodes != big_n:
        raise SizeMismatch(f"graph has {g.n_nodes} nodes, labels cover {big_n}")
    ei, ej = g.edge_index_arrays()
    rows = []
    for subset in itertools.combinations(range(big_n), n):
        in_first = np.zeros(big_n, dtype=bool)
        in_first[list(subset)] = True
        rows.append(_within_counts(ei, ej, in_first))
    samples = np.array(rows, dtype=np.float64)
    mean = samples.mean(axis=0)
    dev = samples - mean
    sigma = np.einsum("ti,tj->ij", dev, dev) / samples.shape[0]
    return NullMoments(
        mu1=float(mean[0]), mu2=float(mean[1]), sigma=sigma,
        c=degree_statistic(g), n_edges=g.n_edges,
    )


# --- subsample averaging ----------------------------------------------------

def subsample_round_indices(seed: int, round_index: int, pool: int, take: int) -> np.ndarray:
    """Sorted indices of the subset drawn in one subsample round.

    Round r draws from a PCG64 generator seeded by the pair (seed, r), so
    any round can be reconstructed in isolation.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, round_index])))
    idx = rng.permutation(pool)[:take]
    idx.sort()
    return idx


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise InvalidTrials(f"need at least 1 subsample round, got {rounds}")


def _subsample(pooled, n_large: int, m: int, k: int, rounds: int, seed: int):
    """(report, round-0 k-MST) averaged over size-m subsets of the first set.

    `pooled(idx)` returns the pooled distance matrix of first-set rows idx
    followed by all m rows of the second set. Round r draws idx from a
    generator seeded by (seed, r); the report keeps the first round's
    counts and moments and the mean statistic across rounds.
    """
    _check_rounds(rounds)
    if n_large < m:
        raise GeneratedSetTooSmall(
            f"first set has {n_large} points, cannot subsample to {m}"
        )
    total = 0.0
    for r in range(rounds):
        # with equal sizes every round draws the whole first set, so the
        # round-0 statistic is added again instead of rescored
        if r == 0 or n_large > m:
            d = pooled(subsample_round_indices(seed, r, n_large, m))
            # labels after the matrix: a dimension mismatch is reported first
            rep, g = _score(d, PooledLabels(n=m, m=m), k)
        if r == 0:
            first, first_graph = rep, g
        total += rep.statistic
    report = replace(
        first, statistic=total / rounds, seed=int(seed), subsample_rounds=int(rounds)
    )
    return report, first_graph


def _feature_pool(a: FeatureSet, b: FeatureSet, metric: str):
    """`pooled(idx)` over feature sets: rows idx of a (all of a when idx is
    None) then all of b. Distances are computed per call, so an oversized
    first set is never pooled whole."""
    def pooled(idx=None):
        return pairwise_distances(a if idx is None else FeatureSet(a.points[idx]), b, metric)
    return pooled


def _distance_pool(d: DistanceMatrix, labels: PooledLabels):
    """`pooled(idx)` over a pooled matrix: first-set rows idx (all of them
    when idx is None) then the labels.m second-set rows."""
    b_rows = np.arange(labels.n, labels.n_total)

    def pooled(idx=None):
        if idx is None:
            return d
        keep = np.concatenate([idx, b_rows])
        return DistanceMatrix(d.values[np.ix_(keep, keep)])
    return pooled


def ecd_subsampled(
    a_large: FeatureSet,
    b: FeatureSet,
    k: int = DEFAULT_K,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
    metric: str = "euclidean",
) -> EcdReport:
    """Average the statistic over random size-|b| subsets of the first set.

    Evens out the size advantage a larger generated set would otherwise
    have. Round r draws its subset from a generator seeded by (seed, r);
    the report keeps the first round's counts and moments and the mean
    statistic across rounds.
    """
    pooled = _feature_pool(a_large, b, metric)
    return _subsample(pooled, a_large.n_points, b.n_points, k, rounds, seed)[0]


def ecd_subsampled_from_distances(
    d: DistanceMatrix,
    labels: PooledLabels,
    k: int = DEFAULT_K,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> EcdReport:
    """Subsample-averaged statistic from a pooled distance matrix.

    The first labels.n rows form the oversized set; each round keeps a
    random size-m subset of them together with all m rows of the second
    set and rescores the induced submatrix.
    """
    _check_rounds(rounds)  # a bad round count is reported before a bad split
    _check_cover(d, labels)
    pooled = _distance_pool(d, labels)
    return _subsample(pooled, labels.n, labels.m, k, rounds, seed)[0]
