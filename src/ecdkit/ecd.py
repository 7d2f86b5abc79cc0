"""Edge Count Difference statistic with analytic permutation-null moments.

For a pooled k-MST over N = n + m points, count the edges falling within
the first set (R1), within the second (R2), and across. Under random
relabeling the pair (R1, R2) has closed-form mean and covariance; the
statistic is the squared Mahalanobis deviation of the observed counts
from that null. Large values say the two sets occupy space differently.

Closed forms (G = edge count of the union graph, C = pairs of edges
sharing a node, N = n + m, perm(n, r) = n(n-1)...(n-r+1)). Under a
uniform relabeling, r given distinct nodes take one of `count` given
label patterns with probability

    share(count, r) = count / (N(N-1)...(N-r+1))

and the moments are

    mu1      = G share(perm(n, 2), 2)
    Sigma11  = mu1 (1 - mu1)
               + 2C share(perm(n, 3), 3)
               + (G(G-1) - 2C) share(perm(n, 4), 4)
    Sigma12  = (G(G-1) - 2C) share(perm(n, 2) perm(m, 2), 4) - mu1 mu2

with mu2 and Sigma22 obtained by swapping n and m. These follow from
splitting E[R1^2] over identical, node-sharing, and disjoint edge pairs;
the exhaustive enumeration oracle in this module reproduces them exactly
on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    GeneratedSetTooSmall,
    InvalidTrials,
    SingularCovariance,
    SizeMismatch,
)
from .metricspace import (
    DistanceMatrix,
    FeatureSet,
    PooledLabels,
    _by_construction,
    _integer,
    _pooled_distances,
)
from .numerics import quadratic_form_2x2
from .spanning import DEFAULT_K, SpanningGraph, _check_k, degree_statistic, kmst

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

    `graph` is the k-MST the counts and moments were taken from; it is
    left out of equality, repr and JSON. For subsampled runs
    (subsample_rounds > 1) the statistic is the mean over rounds while
    graph, counts and moments describe the first round only, so
    recomputed_statistic() gives round 0's statistic, not the reported
    mean, and n and m are the round's sizes: both are the second set's.
    """

    statistic: float
    counts: EdgeCounts
    moments: NullMoments
    k: int
    n: int
    m: int
    seed: int | None = None
    subsample_rounds: int | None = None
    graph: SpanningGraph | None = field(default=None, repr=False, compare=False)

    def recomputed_statistic(self) -> float:
        """Statistic of the stored counts and moments. On a subsampled
        report that is round 0's statistic, not the reported mean."""
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
    _check_cover(g.n_nodes, labels)
    r1, r2 = _within_counts(g, np.arange(labels.n))
    return EdgeCounts(r1=r1, r2=r2, r12=g.n_edges - r1 - r2)


def _within_counts(g: SpanningGraph, first) -> tuple:
    """(R1, R2) of g's edges: both endpoints in the first set, or both
    outside it, where first holds the first set's node indices. The one
    counting kernel of the observed split and of every relabeling."""
    in_first = np.zeros(g.n_nodes, dtype=bool)
    in_first[np.asarray(first)] = True
    a_i = in_first[g.ei]
    a_j = in_first[g.ej]
    return int(np.sum(a_i & a_j)), int(np.sum(~a_i & ~a_j))


def null_moments(g: SpanningGraph, n: int, m: int) -> NullMoments:
    """Analytic mean and covariance of (R1, R2) over uniform relabelings:
    the module docstring's closed form."""
    labels = PooledLabels(n, m)
    _check_cover(g.n_nodes, labels)
    n, m, nn = labels.n, labels.m, float(labels.n_total)

    def share(count, r):
        # the denominator is multiplied as floats from the left, N first:
        # every report's bytes depend on that rounding order
        return count / math.prod(nn - i for i in range(r))

    edges = float(g.n_edges)
    c = degree_statistic(g)
    mu1 = edges * share(math.perm(n, 2), 2)
    mu2 = edges * share(math.perm(m, 2), 2)
    disjoint_pairs = edges * (edges - 1.0) - 2.0 * c
    s11 = (mu1 * (1.0 - mu1) + 2.0 * c * share(math.perm(n, 3), 3)
           + disjoint_pairs * share(math.perm(n, 4), 4))
    s22 = (mu2 * (1.0 - mu2) + 2.0 * c * share(math.perm(m, 3), 3)
           + disjoint_pairs * share(math.perm(m, 4), 4))
    s12 = disjoint_pairs * share(math.perm(n, 2) * math.perm(m, 2), 4) - mu1 * mu2
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


def _check_cover(n_points: int, labels: PooledLabels) -> None:
    """The one cover rule: a split must label every pooled point."""
    if labels.n_total != n_points:
        raise SizeMismatch(
            f"split sizes {labels.n}+{labels.m} do not cover the {n_points} pooled points"
        )


def ecd_from_distances(
    d: DistanceMatrix, labels: PooledLabels, k: int = DEFAULT_K
) -> EcdReport:
    """Statistic from a pooled distance matrix whose first n rows are set
    one; the report carries the k-MST it scored."""
    _check_cover(d.n_points, labels)
    g = kmst(d, k)
    counts = edge_counts(g, labels)
    moments = null_moments(g, labels.n, labels.m)
    try:
        stat = ecd_statistic(counts, moments)
    except SingularCovariance as exc:
        deg = g.degrees
        if deg.min() != deg.max():
            raise
        # summing degrees over each side gives 2 R1 + R12 = d n and
        # 2 R2 + R12 = d m, so no relabeling can move R1 - R2
        raise SingularCovariance(
            f"{exc}: the k-MST is {deg[0]}-regular, so R1 - R2 is fixed at {deg[0]}(n - m)/2",
            determinant=exc.determinant,
        ) from None
    return EcdReport(
        statistic=stat, counts=counts, moments=moments,
        k=g.k, n=labels.n, m=labels.m, graph=g,
    )


def ecd(a: FeatureSet, b: FeatureSet, k: int = DEFAULT_K) -> EcdReport:
    """Full pipeline: pooled Euclidean distances, k-MST, edge counts, statistic.

    A spanning tree depends only on the order of its edge weights, so any
    strictly increasing function of the distances (their squares, say)
    gives this report too, up to float rounding; :func:`ecd_from_distances`
    scores such a matrix. High-dimensional sets take that order from a
    certified Gram product, and the report is the one the exact pooled
    matrix gives, to the bit.
    """
    _check_k(k)  # the k and split rules, before the pooled matrix is computed
    labels = PooledLabels(n=a.n_points, m=b.n_points)
    return ecd_from_distances(_pooled_distances(a, b), labels, k)


# --- seeds, random streams and permutation oracles --------------------------

def _seed(value) -> int:
    """The one seed rule: a non-negative integer by operator.index, else InvalidSpec."""
    return _integer(value, "seed", 0)


def _stream(*entropy) -> np.random.Generator:
    """PCG64 generator seeded by SeedSequence(entropy), each word a seed: the
    one stream behind sampling, permutation trials and subsample rounds."""
    words = [_seed(w) for w in entropy]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def permutation_samples(
    g: SpanningGraph, n: int, m: int, trials: int, seed: int
) -> np.ndarray:
    """(trials, 2) array of (R1, R2) under independent random relabelings.

    Trial t draws its permutation from a generator seeded by the pair
    (seed, t), so any execution order yields the same rows.
    """
    trials = _integer(trials, "trials", 1, InvalidTrials)
    labels = PooledLabels(n, m)
    _check_cover(g.n_nodes, labels)
    out = np.empty((trials, 2), dtype=np.float64)
    for t in range(trials):
        perm = _stream(seed, t).permutation(labels.n_total)
        out[t] = _within_counts(g, perm[:labels.n])
    return out


def permutation_moments(
    g: SpanningGraph, n: int, m: int, trials: int, seed: int
) -> NullMoments:
    """Monte-Carlo estimate of the null moments (sample covariance, trials - 1)."""
    trials = _integer(trials, "trials", 2, InvalidTrials)  # a sample covariance
    return _sample_moments(g, permutation_samples(g, n, m, trials, seed), ddof=1)


def exhaustive_moments(g: SpanningGraph, n: int, m: int) -> NullMoments:
    """Exact null moments by enumerating all (n+m choose n) splits.

    Population covariance over the full enumeration; feasible for small
    node counts only.
    """
    labels = PooledLabels(n, m)
    _check_cover(g.n_nodes, labels)
    splits = itertools.combinations(range(labels.n_total), labels.n)
    rows = [_within_counts(g, subset) for subset in splits]
    return _sample_moments(g, np.array(rows, dtype=np.float64), ddof=0)


def _sample_moments(g: SpanningGraph, samples: np.ndarray, ddof: int) -> NullMoments:
    """Mean and covariance (divisor len(samples) - ddof) of (R1, R2) rows."""
    mean = samples.mean(axis=0)
    dev = samples - mean
    # fixed-order contraction; avoids thread-count-dependent summation
    sigma = np.einsum("ti,tj->ij", dev, dev) / (samples.shape[0] - ddof)
    return NullMoments(
        mu1=float(mean[0]), mu2=float(mean[1]), sigma=sigma,
        c=degree_statistic(g), n_edges=g.n_edges,
    )


# --- subsample averaging ----------------------------------------------------

def subsample_round_indices(seed: int, round_index: int, pool: int, take: int) -> np.ndarray:
    """Sorted indices of the subset drawn in one subsample round.

    Round r draws from a PCG64 generator seeded by the pair (seed, r), so
    any round can be reconstructed in isolation. The one size rule of a
    draw: `take` is at least 0 and at most `pool`.
    """
    pool, take = _integer(pool, "pool"), _integer(take, "take", 0)
    if take > pool:
        raise GeneratedSetTooSmall(f"first set has {pool} points, cannot subsample to {take}")
    idx = _stream(seed, round_index).permutation(pool)[:take]
    idx.sort()
    return idx


def _check_rounds(rounds: int) -> None:
    _integer(rounds, "rounds", 1, InvalidTrials)


def _subsample(pooled, n_large: int, m: int, k: int, rounds: int, seed: int) -> EcdReport:
    """Report averaged over size-m subsets of the first set.

    `pooled(idx)` returns the pooled distance matrix of first-set rows idx
    followed by all m rows of the second set. Round r draws idx from a
    generator seeded by (seed, r); the report keeps the first round's
    graph, counts and moments and the mean statistic across rounds.
    Callers check the round count first; the seed, k and the split of a
    round are checked here, in that order, before round 0, whose draw
    checks the size before any distance.
    """
    seed, k, labels = _seed(seed), _check_k(k), PooledLabels(n=m, m=m)
    total = 0.0
    for r in range(rounds):
        # with equal sizes every round draws the whole first set, so the
        # round-0 statistic is added again instead of rescored
        if r == 0 or n_large > m:
            # one expression, so no name keeps this round's matrix alive
            # while the next round fills its own
            rep = ecd_from_distances(
                pooled(subsample_round_indices(seed, r, n_large, m)), labels, k
            )
        if r == 0:
            first = rep
        total += rep.statistic
    return replace(first, statistic=total / rounds, seed=seed, subsample_rounds=int(rounds))


def ecd_subsampled(
    a_large: FeatureSet,
    b: FeatureSet,
    k: int = DEFAULT_K,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> EcdReport:
    """Average the statistic over random size-|b| subsets of the first set.

    Evens out the size advantage a larger generated set would otherwise
    have. Round r draws its subset from a generator seeded by (seed, r);
    the report keeps the first round's graph, counts and moments and the
    mean statistic across rounds. Distances are computed per round, so an
    oversized first set is never pooled whole.
    """
    def pooled(idx):
        return _pooled_distances(FeatureSet(a_large.points[idx]), b)

    _check_rounds(rounds)
    return _subsample(pooled, a_large.n_points, b.n_points, k, rounds, seed)


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
    _check_cover(d.n_points, labels)
    b_rows = np.arange(labels.n, labels.n_total)

    def pooled(idx):
        keep = np.concatenate([idx, b_rows])
        return _by_construction(d.values[np.ix_(keep, keep)])

    return _subsample(pooled, labels.n, labels.m, k, rounds, seed)
