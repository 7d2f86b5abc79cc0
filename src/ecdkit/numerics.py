"""Self-contained numerical kernels.

Symmetric eigendecomposition, the PSD matrix square root built on it, and
the explicit 2x2 quadratic form used by the edge-count statistic. The
eigensolver reduces the matrix to tridiagonal form with Householder
reflectors (elementwise numpy and `np.einsum` without `optimize`), then
solves the tridiagonal with LAPACK's implicit QL/QR (`dstev`, which runs
`dsterf` itself for eigenvalues alone; Golub & Van Loan, Matrix
Computations, section 8.3). None of these calls threaded BLAS, so the bits
do not depend on the linked BLAS's thread count or a surrounding pool.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (AsymmetryError, DimensionMismatch, EmptySet, NegativeDistanceError,
                     NoConvergence, NonFiniteInput, NonSquareError, NotPSD, SingularCovariance)

#: Eigenvalues of a nominally PSD matrix may round slightly negative; anything
#: below -PSD_SLACK * lambda_max is treated as materially negative.
PSD_SLACK = 1e-9
#: A 2x2 covariance with |det| at or below this (relative) threshold is
#: considered singular.
SINGULAR_DET_RTOL = 1e-12


def _real_array(values, what: str, ndim=None, *, square=False, nonempty=False,
                nonnegative=False) -> np.ndarray:
    """The one real-array rule: values as float64 (not copied when they are),
    checked in this order, each error naming `what`: the cast (a complex
    array included), the rank (`ndim`, an int or a tuple of ints, or
    `square`), an empty axis, finiteness, then the sign."""
    try:  # np.iscomplexobj raises on ragged nesting as the cast does
        if np.iscomplexobj(values):
            raise NonFiniteInput(f"{what} must be real, got dtype {np.asarray(values).dtype}")
        a = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise NonFiniteInput(f"{what} must be an array of real numbers") from None
    if square and (a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise NonSquareError(f"{what} must form a square matrix, got shape {a.shape}")
    ranks = (ndim,) if isinstance(ndim, int) else ndim
    if ranks is not None and a.ndim not in ranks:
        expected = " or ".join(f"{r}-D" for r in ranks)
        raise DimensionMismatch(f"{what} must form a {expected} array, got shape {a.shape}")
    if nonempty and a.size == 0:
        raise EmptySet(f"{what} must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{what} must be finite (no NaN/Inf)")
    if nonnegative and np.any(a < 0.0):
        raise NegativeDistanceError(f"{what} must be nonnegative")
    return a


def _as_symmetric(m, what: str = "matrix entries") -> np.ndarray:
    a = _real_array(m, what, square=True)
    if not np.array_equal(a, a.T):
        raise AsymmetryError("matrix must be exactly symmetric")
    return a


def _tridiagonalize(a: np.ndarray):
    """Householder reduction of a symmetric matrix, A = Q T Q^T, in place.

    Returns the diagonal and subdiagonal of T and the reflectors
    ``(k, v, tau)``, each meaning H = I - tau v v^T on rows k+1.. with
    v[0] = 1 (LAPACK's dlarfg convention). A column that is already
    reduced (zeros below its subdiagonal) gets no reflector, so diagonal
    and zero matrices pass through exactly. Each column's norm is taken
    after dividing by its largest entry, so a tiny column cannot underflow
    to a zero norm.
    """
    d = a.shape[0]
    reflectors = []
    for k in range(d - 2):
        x = a[k + 1:, k]
        s = np.max(np.abs(x[1:]))
        if s == 0.0:
            continue
        alpha = x[0]
        c = max(abs(alpha), s)
        xc = x / c
        beta = -math.copysign(c * math.sqrt(float(np.einsum("i,i->", xc, xc))), alpha)
        tau = (beta - alpha) / beta
        v = x / (alpha - beta)
        v[0] = 1.0
        # H A22 H = A22 - v w^T - w v^T; entry (j, i) adds the same two
        # products as entry (i, j), so the block stays exactly symmetric
        block = a[k + 1:, k + 1:]
        p = tau * np.einsum("ij,j->i", block, v)
        w = p - (0.5 * tau * float(np.einsum("i,i->", p, v))) * v
        block -= np.multiply.outer(v, w) + np.multiply.outer(w, v)
        a[k + 1, k] = a[k, k + 1] = beta
        reflectors.append((k, v, tau))
    return a.diagonal().copy(), a.diagonal(-1).copy(), reflectors


def _eig(a: np.ndarray, vectors: bool):
    """Ascending eigenvalues of a validated symmetric matrix and, when
    `vectors`, the eigenvector matrix (columns), else None.

    Householder tridiagonalisation in numpy, then LAPACK's implicit QL/QR
    on the tridiagonal (dstev). Neither step calls threaded BLAS, so the
    bits do not depend on a thread count.
    """
    from scipy.linalg import lapack  # on the first call, as in metricspace

    d = a.shape[0]
    if d < 2:
        return a.diagonal().copy(), (np.eye(d) if vectors else None)
    # scaling by a power of two is exact: the largest entry lands in
    # [0.5, 1), so no product in the reduction overflows, and the
    # eigenvalues scale back bit for bit
    amax = float(np.max(np.abs(a)))
    shift = math.frexp(amax)[1] if amax > 0.0 else 0
    diag, off, reflectors = _tridiagonalize(np.ldexp(a, -shift))
    w, z, info = lapack.dstev(diag, off, compute_v=int(vectors))
    if info > 0:
        raise NoConvergence(f"tridiagonal QL failed to converge ({info} off-diagonal entries left)")
    w = np.ldexp(w, shift)
    if not vectors:
        return w, None
    # eigenvectors of A are Q Z: apply the reflectors to Z, last first
    for k, v, tau in reversed(reflectors):
        rows = z[k + 1:]
        rows -= np.multiply.outer(tau * v, np.einsum("i,ij->j", v, rows))
    return w, z


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the matching columns of an orthogonal matrix, so that
    ``V @ diag(w) @ V.T`` reconstructs the input.

    Raises NoConvergence if LAPACK's tridiagonal QL does not converge.
    """
    return _eig(_as_symmetric(m), vectors=True)


def _psd_spectrum(m, vectors: bool):
    """Eigenvalues clamped at zero, and eigenvectors when asked, under the
    NotPSD rule of `psd_sqrt`."""
    w, v = _eig(_as_symmetric(m), vectors)
    floor = -PSD_SLACK * float(w.max(initial=0.0))
    if w.size and w[0] < floor:  # a 0 x 0 matrix has no eigenvalue to refuse
        raise NotPSD(f"eigenvalue {w[0]:g} below PSD slack {floor:g}")
    return np.clip(w, 0.0, None), v


def psd_sqrt(m) -> np.ndarray:
    """Symmetric square root of a numerically PSD matrix.

    Eigenvalues within ``PSD_SLACK * lambda_max`` below zero are clamped
    to zero; anything lower raises NotPSD.
    """
    w, v = _psd_spectrum(m, vectors=True)
    roots = np.sqrt(w)
    # fixed-order contraction keeps the result byte-stable under any
    # surrounding thread pool
    scaled = v * roots
    out = np.einsum("ik,jk->ij", scaled, v)
    return (out + out.T) / 2.0


def _psd_sqrt_trace(m) -> float:
    """Trace of ``psd_sqrt(m)`` from the eigenvalues alone (same NotPSD
    rule), summed exactly rounded."""
    w, _ = _psd_spectrum(m, vectors=False)
    return math.fsum(np.sqrt(w))


def quadratic_form_2x2(vec, sigma) -> float:
    """Evaluate ``v^T Sigma^{-1} v`` for a symmetric 2x2 matrix.

    Inverts through the explicit adjugate; raises SingularCovariance when
    |det| falls at or below ``SINGULAR_DET_RTOL * max(s11*s22, 1)``.
    """
    v = np.asarray(vec, dtype=np.float64)
    s = np.asarray(sigma, dtype=np.float64)
    if v.shape != (2,) or s.shape != (2, 2):
        raise NonSquareError(f"expected a 2-vector and 2x2 matrix, got {v.shape} and {s.shape}")
    s11, s12 = float(s[0, 0]), float(s[0, 1])
    s21, s22 = float(s[1, 0]), float(s[1, 1])
    det = s11 * s22 - s12 * s21
    if abs(det) <= SINGULAR_DET_RTOL * max(s11 * s22, 1.0):
        raise SingularCovariance(f"covariance determinant {det:g} is numerically singular", determinant=det)
    x = (s22 * v[0] - s12 * v[1]) / det
    y = (s11 * v[1] - s21 * v[0]) / det
    return float(v[0] * x + v[1] * y)
