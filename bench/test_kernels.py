"""Micro-benchmarks of the eigensolver kernels at dim 100.

Run from the repository root with

    python -m pytest bench --benchmark-only

This directory sits outside the test suite's `testpaths`, so a plain
`pytest` never collects it.
"""

import numpy as np
import pytest

from ecdkit import DistributionSpec, fit_gaussian, frechet_gaussian, sample
from ecdkit.numerics import sym_eig

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
