import threading

import numpy as np
import pytest

from ecdkit.errors import NoConvergence, NonSquareError, NotPSD, SingularCovariance
from ecdkit.numerics import psd_sqrt, quadratic_form_2x2, sym_eig


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


def test_sym_eig_sweep_limit():
    m = random_symmetric(np.random.default_rng(20), 20)
    with pytest.raises(NoConvergence):
        sym_eig(m, max_sweeps=1)


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
