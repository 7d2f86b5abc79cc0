import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import ecdkit
from ecdkit.errors import NoConvergence, NonSquareError, NotPSD, SingularCovariance
from ecdkit.numerics import _psd_sqrt_trace, psd_sqrt, quadratic_form_2x2, sym_eig


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def binary_covariance(n):
    # +-1 features: a covariance with near-repeated eigenvalues
    rng = np.random.default_rng(n)
    x = rng.choice([-1.0, 1.0], size=(500, n))
    dev = x - x.mean(axis=0)
    return np.einsum("ni,nj->ij", dev, dev) / 499.0


def identity_plus_rank_one(n):
    # eigenvalue 1 repeated n - 1 times
    u = np.random.default_rng(n).standard_normal(n)
    return np.eye(n) + np.einsum("i,j->ij", u, u)


DEGENERATE = {
    "zero-100": lambda: np.zeros((100, 100)),
    "identity-plus-rank-one-100": lambda: identity_plus_rank_one(100),
    "binary-covariance-100": lambda: binary_covariance(100),
}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 40, 41, 100, 101, *DEGENERATE])
def test_sym_eig_matches_lapack(n):
    # numpy's eigh is the independent reference; production code never
    # calls it
    if n in DEGENERATE:
        m = DEGENERATE[n]()
        n = m.shape[0]
    else:
        m = random_symmetric(np.random.default_rng(n), n)
    w, v = sym_eig(m)
    w_ref, _ = np.linalg.eigh(m)
    assert np.allclose(w, w_ref, atol=1e-10)
    assert np.all(np.diff(w) >= 0)
    # columns are eigenvectors: m v = v diag(w)
    assert np.allclose(m @ v, v * w, atol=1e-9)
    # orthonormal basis
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("vectors", [True, False], ids=["dstev", "dstev-values-only"])
def test_sym_eig_no_convergence(vectors, monkeypatch):
    # LAPACK reports info > 0 when QL leaves off-diagonal entries unconverged;
    # the eigensolver looks dstev up in scipy's lapack module at call time
    real = lapack.dstev

    def unconverged(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 3)

    monkeypatch.setattr(lapack, "dstev", unconverged)
    m = binary_covariance(20)
    with pytest.raises(NoConvergence):
        sym_eig(m) if vectors else _psd_sqrt_trace(m)


@pytest.mark.parametrize("exponent", [600, -600])
def test_sym_eig_power_of_two_scaling_is_exact(exponent):
    for m in (binary_covariance(100), random_symmetric(np.random.default_rng(5), 41)):
        w, v = sym_eig(m)
        w_scaled, v_scaled = sym_eig(2.0**exponent * m)
        assert np.all(np.isfinite(w_scaled))
        assert np.array_equal(w_scaled, 2.0**exponent * w)
        assert np.array_equal(v_scaled, v)


def test_sym_eig_tiny_column():
    # squares of 1e-170 underflow to zero; the reflector must still be
    # finite and orthogonal
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 2] = m[2, 0] = m[0, 3] = m[3, 0] = 1e-170
    m[0, 1] = m[1, 0] = 1e-200
    w, v = sym_eig(m)
    assert np.all(np.isfinite(v))
    assert np.allclose(w, [1.0, 2.0, 3.0, 4.0], rtol=1e-14, atol=0.0)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(4), atol=1e-14)


# one child interpreter per BLAS thread setting; it prints a digest of the
# eigensolver's and the Fréchet score's bytes
BYTES_CHILD = """
import hashlib
import numpy as np
from test_numerics import binary_covariance
from ecdkit import DistributionSpec, fit_gaussian, frechet_gaussian, sample
from ecdkit.numerics import psd_sqrt, sym_eig

digest = hashlib.sha256()
# np.linalg.eigh's bytes depend on the OpenBLAS thread count at dim 150
# (seen with OpenBLAS 0.3.31), not at dim 100
for dim in (100, 150):
    m = binary_covariance(dim)
    w, v = sym_eig(m)
    digest.update(w.tobytes() + v.tobytes() + psd_sqrt(m).tobytes())
    p = fit_gaussian(sample(DistributionSpec("gaussian", dim), 500, 1))
    q = fit_gaussian(sample(DistributionSpec("binary", dim), 500, 2))
    digest.update(np.float64(frechet_gaussian(p, q)).tobytes())
print(digest.hexdigest())
"""


def test_bytes_do_not_depend_on_blas_threads():
    paths = [str(Path(ecdkit.__file__).parents[1]), str(Path(__file__).parent)]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        child = subprocess.run(
            [sys.executable, "-c", BYTES_CHILD],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(child.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_sym_eig_same_bytes_in_concurrent_threads():
    m = binary_covariance(100)
    results = [None, None]

    def solve(slot):
        results[slot] = sym_eig(m)

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    (w0, v0), (w1, v1) = results
    assert w0.tobytes() == w1.tobytes()
    assert v0.tobytes() == v1.tobytes()


def test_sym_eig_trace_and_determinant():
    rng = np.random.default_rng(77)
    for _ in range(10):
        m = random_symmetric(rng, 6)
        w, _ = sym_eig(m)
        assert abs(w.sum() - np.trace(m)) < 1e-10
        assert np.isclose(np.prod(w), np.linalg.det(m), atol=1e-9, rtol=1e-9)


def test_sym_eig_diagonal_passthrough():
    w, v = sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NonSquareError):
        sym_eig(np.zeros((2, 3)))


def test_psd_sqrt_round_trip():
    rng = np.random.default_rng(9)
    for n in (2, 5, 20):
        a = rng.standard_normal((n, n))
        m = a @ a.T
        s = psd_sqrt(m)
        assert np.allclose(s @ s, m, atol=1e-8 * max(1.0, np.abs(m).max()))
        assert np.array_equal(s, s.T)


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)


def test_psd_sqrt_clamps_rounding_negatives():
    # eigenvalue -1e-12 is rounding noise relative to the unit eigenvalue
    m = np.diag([1.0, -1e-12])
    s = psd_sqrt(m)
    assert s[1, 1] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_quadratic_form_worked_instance():
    sigma = np.array([[0.25, 1.0 / 12.0], [1.0 / 12.0, 0.25]])
    v = np.array([0.5, 0.5])
    assert abs(quadratic_form_2x2(v, sigma) - 1.5) < 1e-12


def test_quadratic_form_matches_solve():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        sigma = a @ a.T + 0.1 * np.eye(2)
        v = rng.standard_normal(2)
        want = float(v @ np.linalg.solve(sigma, v))
        assert np.isclose(quadratic_form_2x2(v, sigma), want, rtol=1e-9)


def test_quadratic_form_singular():
    with pytest.raises(SingularCovariance):
        quadratic_form_2x2(np.ones(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance):
        quadratic_form_2x2(np.ones(2), np.zeros((2, 2)))


def test_quadratic_form_shape_check():
    with pytest.raises(NonSquareError):
        quadratic_form_2x2(np.ones(3), np.eye(2))
