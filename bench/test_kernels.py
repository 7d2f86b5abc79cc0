"""Micro-benchmarks of the eigensolver, pooled-distance (strips and the
certified Gram product), k-MST (exact, banded and integer-keyed), tie-rank,
edge-count, null-moment, COV/MMD and CSV-ingest kernels, of whole `ecd`
comparisons (Gaussian, 0.1-grid and occupancy features) and one
subsampled one, of the two experiment runners at one and two workers, and
of the CLI: start-up and one whole `ecdkit ecd` run, each in a fresh
interpreter.

Run from the repository root with

    python -m pytest bench --benchmark-only

This directory sits outside the test suite's `testpaths`, so a plain
`pytest` never collects it.

To compare two checkouts, run this command from inside each one.
`pyproject.toml` sets pytest's `pythonpath = ["src"]`, which takes
precedence over `PYTHONPATH`, so pointing `PYTHONPATH` at another
checkout's `src` still times this checkout's code. That setting does not
reach child processes, so the CLI cases put this checkout's `src` on the
child's `PYTHONPATH` themselves.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecdkit import (
    DistributionSpec,
    FeatureSet,
    PooledLabels,
    coverage,
    distribution_grid,
    ecd,
    ecd_subsampled,
    edge_counts,
    fit_gaussian,
    frechet_gaussian,
    kmst,
    load_distance_csv,
    load_feature_csv,
    measures_from_cross,
    mmd,
    null_moments,
    pairwise_distances,
    sample,
    variance_sweep,
)
from ecdkit.metricspace import _BandedDistances, _pooled_distances
from ecdkit.numerics import sym_eig
from ecdkit.spanning import _pair_rank

DIM = 100


@pytest.fixture(scope="module")
def summaries():
    p = fit_gaussian(sample(DistributionSpec("gaussian", DIM), 500, 0))
    q = fit_gaussian(sample(DistributionSpec("uniform", DIM), 500, 1))
    return p, q


def test_sym_eig_dim_100(benchmark, summaries):
    w, _ = benchmark(sym_eig, summaries[0].covariance)
    assert np.all(np.diff(w) >= 0)


def test_frechet_dim_100(benchmark, summaries):
    value = benchmark(frechet_gaussian, *summaries)
    assert value > 0.0


def pooled(kind, n, dim):
    return sample(DistributionSpec(kind, dim), n, 0), sample(DistributionSpec(kind, dim), n, 1)


def time_pairwise_distances(benchmark, a, b):
    assert benchmark(pairwise_distances, a, b).n_points == a.n_points + b.n_points
    # one more call, untimed, for the peak of what numpy and scipy allocate
    tracemalloc.start()
    try:
        pairwise_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 1)


def test_pairwise_distances_4000_dim_32(benchmark):
    time_pairwise_distances(benchmark, *pooled("gaussian", 2000, 32))


def test_pairwise_distances_1000_dim_1000(benchmark):
    # a variance-sweep cell's pooled matrix: at dim 1000 the sets weigh as much as it
    time_pairwise_distances(benchmark, *pooled("gaussian", 500, 1000))


# A variance-sweep cell's shape at dim 1000 (N = 1000, k = 10): the strip
# fill above against the Gram order, and the exact k-MST against the banded
# one, whose certified tree edges are then read exactly.
@pytest.fixture(scope="module")
def sets_1000_dim_1000():
    return pooled("gaussian", 500, 1000)


def test_gram_order_1000_dim_1000(benchmark, sets_1000_dim_1000):
    d = benchmark(_pooled_distances, *sets_1000_dim_1000)
    assert isinstance(d, _BandedDistances)


def test_kmst_exact_1000_dim_1000(benchmark, sets_1000_dim_1000):
    d = pairwise_distances(*sets_1000_dim_1000)
    g = benchmark.pedantic(kmst, (d, 10), rounds=5)
    assert g.n_edges == 10 * 999


def test_kmst_banded_1000_dim_1000(benchmark, sets_1000_dim_1000):
    d = _pooled_distances(*sets_1000_dim_1000)
    g = benchmark.pedantic(kmst, (d, 10), rounds=5)
    assert g.n_edges == 10 * 999


@pytest.mark.parametrize("dim", [300, 1000])
def test_ecd_1000(benchmark, dim):
    # one whole comparison; dim 300 lies just above the Gram threshold
    a, b = pooled("gaussian", 500, dim)
    report = benchmark.pedantic(ecd, (a, b), {"k": 10}, rounds=3)
    assert report.counts.total == 10 * 999


@pytest.fixture(scope="module")
def gaussian_4000_dim_32():
    return pairwise_distances(*pooled("gaussian", 2000, 32))


@pytest.fixture(scope="module")
def graph_4000_dim_32(gaussian_4000_dim_32):
    return kmst(gaussian_4000_dim_32, 10)


def test_kmst_gaussian_4000_dim_32(benchmark, gaussian_4000_dim_32):
    g = benchmark.pedantic(kmst, (gaussian_4000_dim_32, 10), rounds=3)
    assert g.n_edges == 10 * 3999


def test_edge_counts_4000_dim_32(benchmark, graph_4000_dim_32):
    counts = benchmark(edge_counts, graph_4000_dim_32, PooledLabels(2000, 2000))
    assert counts.total == graph_4000_dim_32.n_edges


def test_null_moments_4000_dim_32(benchmark, graph_4000_dim_32):
    moments = benchmark(null_moments, graph_4000_dim_32, 2000, 2000)
    assert moments.n_edges == graph_4000_dim_32.n_edges


def test_kmst_binary_1000_dim_100(benchmark):
    d = pairwise_distances(*pooled("binary", 500, 100))
    g = benchmark.pedantic(kmst, (d, 10), rounds=5)
    assert g.n_edges == 10 * 999


def test_kmst_mixed_1000_dim_100(benchmark):
    # Gaussian against +-1 binary: the mixed cells of the distribution grid
    a = sample(DistributionSpec("gaussian", DIM), 500, 0)
    b = sample(DistributionSpec("binary", DIM), 500, 1)
    d = pairwise_distances(a, b)
    g = benchmark.pedantic(kmst, (d, 10), rounds=5)
    assert g.n_edges == 10 * 999


def integer_pool(values, n, dim, p=None):
    """Pooled exact matrix of n points whose features are drawn from
    `values` (with probabilities p): integer-valued distances, which
    order the k-MST by one integer key."""
    rng = np.random.default_rng(0)
    pts = rng.choice(np.array(values, dtype=float), size=(n, dim), p=p)
    return pairwise_distances(FeatureSet(pts[:n // 2]), FeatureSet(pts[n // 2:]))


@pytest.mark.parametrize("values, n, dim, p", [
    ((0, 1, 2), 1000, 100, None),
    ((0, 1), 2000, 512, (0.9, 0.1)),  # sparse occupancy, as a voxel grid gives
    ((-1, 1), 2000, 100, None),
], ids=["ternary-1000-dim-100", "occupancy-2000-dim-512", "binary-2000-dim-100"])
def test_kmst_integer(benchmark, values, n, dim, p):
    d = integer_pool(values, n, dim, p)
    g = benchmark.pedantic(kmst, (d, 10), rounds=3)
    assert g.n_edges == 10 * (n - 1)
    # one more call, untimed, for the peak beside the matrix: the N x N uint32 key
    tracemalloc.start()
    try:
        kmst(d, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 1)


@pytest.mark.parametrize("size", [4, 66])
def test_pair_rank(benchmark, size):
    # tie ranks come in few-entry arrays, so the per-call cost dominates
    lo = np.arange(size, dtype=np.int64)
    z = benchmark(_pair_rank, 4000, lo, lo + 1000)
    assert z.dtype == np.uint64 and z.size == size


def test_ecd_4000_dim_32(benchmark):
    # one whole comparison at the size of the benchmark's pair-large item
    a = FeatureSet(np.random.default_rng(0).standard_normal((2000, 32)))
    b = FeatureSet(np.random.default_rng(1).standard_normal((2000, 32)) * np.sqrt(1.1))
    report = benchmark.pedantic(ecd, (a, b), {"k": 10}, rounds=3)
    assert report.counts.total == 10 * 3999


def test_ecd_grid_3200_dim_8(benchmark):
    # Gaussian features on a 0.1 grid, 1600 + 1600 points: above the size
    # from which continuous pools store float32, but their many repeated
    # distances keep this one in float64
    rng = np.random.default_rng(0)
    a, b = (FeatureSet(np.round(rng.standard_normal((1600, 8)), 1)) for _ in range(2))
    report = benchmark.pedantic(ecd, (a, b), {"k": 10}, rounds=3)
    assert report.counts.total == 10 * 3199


def test_ecd_occupancy_2000_dim_4096(benchmark):
    # occupancy features (Bernoulli 0.1), as a voxel grid gives: integer
    # features above the Gram threshold, whose Gram product is exact
    pts = (np.random.default_rng(0).random((2000, 4096)) < 0.1).astype(np.float64)
    a, b = FeatureSet(pts[:1000]), FeatureSet(pts[1000:])
    report = benchmark.pedantic(ecd, (a, b), {"k": 10}, rounds=3)
    assert report.counts.total == 10 * 1999
    # one more run, untimed, for the peak beside the two sets
    tracemalloc.start()
    try:
        ecd(a, b, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 1)


def test_ecd_subsampled_2000_vs_1000_dim_100(benchmark):
    # the cli-files shape: ten rounds, each pooling a 1000-point subset with b
    a = sample(DistributionSpec("gaussian", DIM), 2000, 0)
    b = sample(DistributionSpec("gaussian", DIM), 1000, 1)
    report = benchmark.pedantic(ecd_subsampled, (a, b), {"k": 10, "rounds": 10}, rounds=3)
    assert report.subsample_rounds == 10
    # one more run, untimed, for the peak of what the rounds hold at once
    tracemalloc.start()
    try:
        ecd_subsampled(a, b, k=10, rounds=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 1)


def test_measures_from_cross_500(benchmark):
    # COV and MMD of one sweep cell: the cross block of its pooled matrix
    a, b = pooled("gaussian", 500, DIM)
    cross = pairwise_distances(a, b).values[:500, 500:]
    result = benchmark(measures_from_cross, cross)
    assert 0.0 < result.coverage <= 1.0 and result.mmd > 0.0


def test_coverage_and_mmd_1000_dim_100(benchmark):
    # the two public measures, each computing its own cross distances
    a, b = pooled("gaussian", 1000, DIM)
    cov, dist = benchmark.pedantic(lambda: (coverage(a, b), mmd(a, b)), rounds=5)
    assert 0.0 < cov <= 1.0 and dist > 0.0


def write_csv(path, values):
    # 17 significant digits, as descriptor pipelines that round-trip float64 write them
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    return path


@pytest.fixture(scope="module")
def distance_csv_2000(tmp_path_factory):
    values = pairwise_distances(*pooled("gaussian", 1000, 32)).values
    return write_csv(tmp_path_factory.mktemp("ingest") / "d.csv", values), values


def test_load_distance_csv_2000(benchmark, distance_csv_2000):
    path, values = distance_csv_2000
    d = benchmark.pedantic(load_distance_csv, (path,), rounds=3)
    assert np.array_equal(d.values, values)


def test_load_feature_csv_2000_dim_100(benchmark, tmp_path_factory):
    points = sample(DistributionSpec("gaussian", 100), 2000, 0).points
    path = write_csv(tmp_path_factory.mktemp("ingest") / "f.csv", points)
    fs = benchmark.pedantic(load_feature_csv, (path,), rounds=5)
    assert np.array_equal(fs.points, points)


# Runner threads overlap only sampling and, at high dimension, the Gram
# products: scoring takes turns, and scipy's strip distances hold the GIL.
# Comparing the workers=1 and workers=2 cases shows what the second thread
# buys (set OPENBLAS_NUM_THREADS=1 so BLAS adds no threads of its own).
@pytest.mark.parametrize("workers", [1, 2])
def test_distribution_grid_dim_100(benchmark, workers):
    table = benchmark.pedantic(distribution_grid, kwargs={
        "dim": 100, "n": 500, "k": 10, "seed": 0, "workers": workers}, rounds=3)
    assert len(table) == 12


@pytest.mark.parametrize("workers", [1, 2])
def test_variance_sweep_dim_1000(benchmark, workers):
    table = benchmark.pedantic(variance_sweep, kwargs={
        "dims": (1000,), "variances": (0.5, 1.0, 1.5), "n": 500, "k": 10, "seed": 0,
        "workers": workers}, rounds=3)
    assert len(table) == 9


SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(*args):
    """A fresh interpreter running `args` on this checkout's ecdkit."""
    subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdout=subprocess.DEVNULL, check=True)


# The CLI stage: start-up alone, then one whole distance-mode run on the
# 2000-point matrix, start-up, ingest and scoring included.
def test_cli_import(benchmark):
    benchmark.pedantic(run_child, ("-c", "import ecdkit.cli"), rounds=10)


def test_cli_ecd_distances_2000(benchmark, distance_csv_2000):
    path, _ = distance_csv_2000
    benchmark.pedantic(run_child, ("-m", "ecdkit.cli", "ecd", "--distances", str(path),
                                   "--split", "1000", "--k", "10"), rounds=3)
