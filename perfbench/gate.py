"""Correctness gate applied to every benchmark item.

Checks, per item:

- edge total: ``r1 + r2 + r12 == k (N - 1)`` (a k-fold spanning graph);
- ``recomputed_statistic() == statistic`` bitwise, for reports that are
  not subsampled (subsampled reports carry the round-0 counts next to the
  mean statistic, so the equality does not hold for them by design);
- CLI JSON equal to the library report for the same inputs;
- Fréchet within ``FRECHET_RTOL`` of an independent LAPACK
  (``numpy.linalg.eigh``) evaluation.

A mismatch fails the item; failed items count in ``ok_ratio``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Allowed |Fréchet - LAPACK Fréchet|, relative to
#: ``||mu_p - mu_q||^2 + tr S_p + tr S_q`` (the size of the terms that
#: cancel). Jacobi and LAPACK agree to ~3e-14 on the grid inputs.
FRECHET_RTOL = 1e-9

#: How many problem messages a run keeps for its report.
MAX_PROBLEMS = 10


class Gate:
    """Counts attempted and failed items and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def item(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])
        return not problems


def edge_total_problems(r1: int, r2: int, edges: int, n_points: int, k: int) -> list:
    r12 = edges - r1 - r2
    if min(r1, r2, r12) < 0 or r1 + r2 + r12 != k * (n_points - 1):
        return [f"edge counts r1={r1} r2={r2} r12={r12} do not sum to k(N-1)={k * (n_points - 1)}"]
    return []


def report_problems(rep, k: int, subsampled: bool) -> list:
    """Invariants of one library EcdReport."""
    n_points = rep.n + rep.m
    problems = edge_total_problems(rep.counts.r1, rep.counts.r2, rep.counts.total, n_points, k)
    if rep.moments.n_edges != rep.counts.total:
        problems.append(f"moments cover {rep.moments.n_edges} edges, counts {rep.counts.total}")
    if not subsampled and rep.recomputed_statistic() != rep.statistic:
        problems.append(
            f"recomputed statistic {rep.recomputed_statistic()!r} != reported {rep.statistic!r}"
        )
    return problems


def json_equal_problems(label: str, got: dict, want: dict) -> list:
    if got != want:
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"{label}: CLI output differs from the library report in {keys}"]
    return []


def lapack_frechet(mean_p, cov_p, mean_q, cov_q) -> tuple:
    """(Fréchet distance, scale) computed with LAPACK eigensolvers."""
    w, v = np.linalg.eigh(cov_p)
    root_p = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    inner = root_p @ cov_q @ root_p
    ev = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    diff = np.asarray(mean_p) - np.asarray(mean_q)
    mean_term = float(diff @ diff)
    trace_sum = float(np.trace(cov_p) + np.trace(cov_q))
    value = mean_term + trace_sum - 2.0 * float(np.sum(np.sqrt(np.clip(ev, 0.0, None))))
    return max(value, 0.0), mean_term + trace_sum


def frechet_problems(p, q, value: float) -> list:
    """Compare a Fréchet value against LAPACK on the same Gaussian summaries."""
    ref, scale = lapack_frechet(p.mean, p.covariance, q.mean, q.covariance)
    if not abs(value - ref) <= FRECHET_RTOL * max(scale, 1.0):
        return [f"Fréchet {value!r} vs LAPACK {ref!r} exceeds rtol {FRECHET_RTOL:g} of {scale:g}"]
    return []


def self_test(ecdkit) -> None:
    """Feed the gate one perturbed statistic and one perturbed Fréchet
    value and confirm each counts as a failure; raises if not."""
    rng = np.random.default_rng([7, 7])
    a = ecdkit.FeatureSet(rng.standard_normal((20, 3)))
    b = ecdkit.FeatureSet(rng.standard_normal((20, 3)) * 1.5)
    rep = ecdkit.ecd(a, b, k=3)
    bumped = dataclasses.replace(rep, statistic=float(np.nextafter(rep.statistic, np.inf)))
    p, q = ecdkit.fit_gaussian(a), ecdkit.fit_gaussian(b)
    fre = ecdkit.frechet_gaussian(p, q)
    _, scale = lapack_frechet(p.mean, p.covariance, q.mean, q.covariance)
    gate = Gate()
    gate.item(report_problems(rep, 3, subsampled=False))
    gate.item(frechet_problems(p, q, fre))
    clean = gate.failed
    gate.item(report_problems(bumped, 3, subsampled=False))
    gate.item(frechet_problems(p, q, fre + 1e3 * FRECHET_RTOL * scale))
    if clean != 0 or gate.failed != 2 or gate.attempted != 4:
        raise RuntimeError(
            f"gate self-test: clean items failed {clean}, perturbed items failed "
            f"{gate.failed - clean} of 2; problems: {gate.problems}"
        )
