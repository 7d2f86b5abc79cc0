"""Self-contained numerical kernels.

Symmetric eigendecomposition by Jacobi rotations in round-robin
(Brent-Luk) parallel order, the PSD matrix square root built on it, and
the explicit 2x2 quadratic form used by the edge-count statistic. Each
round applies d/2 disjoint rotations as a few whole-array numpy
operations; sizes of interest are small (covariances of a few hundred
dimensions at most), where Jacobi is simple and very accurate. The solver
uses elementwise IEEE arithmetic only, no BLAS, so its bits do not depend
on the linked BLAS or its thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteInput, NonSquareError, AsymmetryError, NoConvergence, NotPSD, SingularCovariance

#: Convergence target: off-diagonal Frobenius norm relative to the input norm.
EIG_TOL = 1e-12
#: Jacobi converges quadratically; sweeps above this signal a bug.
EIG_MAX_SWEEPS = 100
#: Eigenvalues of a nominally PSD matrix may round slightly negative; anything
#: below -PSD_SLACK * lambda_max is treated as materially negative.
PSD_SLACK = 1e-9
#: A 2x2 covariance with |det| at or below this (relative) threshold is
#: considered singular.
SINGULAR_DET_RTOL = 1e-12


def _as_symmetric(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise AsymmetryError("matrix must be exactly symmetric")
    return a


def _offdiag_norm(a: np.ndarray) -> float:
    sq = a * a
    np.fill_diagonal(sq, 0.0)
    return math.sqrt(float(np.sum(sq)))


def _schedule(n: int):
    """Round-robin (circle method) ordering for an even size n.

    Each round rotates position i against position i + n/2. `start` is the
    index held by each position in the first round of a sweep; gathering
    rows and columns by `step` after a round sets up the next one. After
    n - 1 rounds every pair has met once and the positions are back at
    `start`.
    """
    h = n // 2
    # position -> slot on the circle: first half in order, second half reversed,
    # so position i faces slot n - 1 - i
    start = np.concatenate([np.arange(h), np.arange(n - 1, h - 1, -1)])
    # slot 0 stays put; slots 1..n-1 advance one place per round
    advance = np.concatenate([[0], np.arange(2, n), [1]])
    step = np.argsort(start)[advance[start]]
    return start, step


def _tangents(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray) -> np.ndarray:
    """Rotation tangent t for each 2x2 block; 0 where apq is already 0."""
    zero = apq == 0.0
    theta = (aqq - app) / np.where(zero, 1.0, 2.0 * apq)
    # smaller-magnitude root of t^2 + 2t*theta - 1 = 0; keeps rotation
    # angles <= 45 degrees for stability. theta * theta overflows only past
    # |theta| ~ 1e154, giving t = 0 where the true t is below 1e-154.
    with np.errstate(over="ignore"):
        t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    t[zero] = 0.0
    return t


def _rotate_rows(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Rows (i, i + h) <- (c x_i - s x_{i+h}, s x_i + c x_{i+h}), in place.

    `c` and `s` hold each pair's cosine and sine repeated along its row,
    in the shape of one half of `x`.
    """
    h = c.shape[0]
    top, bottom = x[:h], x[h:]
    s_top = s * top
    s_bottom = s * bottom
    top *= c
    bottom *= c
    top -= s_bottom
    bottom += s_top


def _jacobi(a: np.ndarray, tol: float, max_sweeps: int, vectors: bool):
    """Round-robin Jacobi on a validated symmetric matrix.

    Returns ascending eigenvalues and, when `vectors`, the eigenvector
    matrix (columns), else None. Odd sizes are padded with one zero row
    and column; its off-diagonal entries stay exactly zero, so it never
    rotates, and it is dropped before sorting. Only elementwise numpy
    arithmetic is used (no BLAS), so the bits do not depend on a thread
    pool.
    """
    d = a.shape[0]
    if d < 2:
        return a.diagonal().copy(), (np.eye(d) if vectors else None)
    n = d + d % 2
    h = n // 2
    start, step = _schedule(n)
    x = np.zeros((n, n))
    x[:d, :d] = a
    x = x[start][:, start]
    # rows are the eigenvector estimates, in position order
    vt = np.eye(n)[start] if vectors else None
    pp, qq = np.arange(h), np.arange(h, n)

    target = tol * math.sqrt(float(np.sum(a * a)))
    for _ in range(max_sweeps):
        if _offdiag_norm(x) <= target:
            break
        for _ in range(n - 1):
            diag = x.diagonal()
            app, aqq = diag[:h], diag[h:]
            apq = x[pp, qq]
            t = _tangents(app, aqq, apq)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            new_pp = app - t * apq
            new_qq = aqq + t * apq
            # full-width factors: numpy multiplies these faster than
            # broadcast columns
            c = np.repeat(c, n).reshape(h, n)
            s = np.repeat(s, n).reshape(h, n)

            # row update J^T X; the column update X J is done as a row
            # update of the contiguous transpose (the same elementwise
            # operations), leaving y = (J^T X J)^T
            _rotate_rows(x, c, s)
            y = x.T.copy()
            _rotate_rows(y, c, s)
            # exact update of the rotated 2x2 blocks
            y[pp, pp] = new_pp
            y[qq, qq] = new_qq
            y[pp, qq] = 0.0
            y[qq, pp] = 0.0
            # transpose back and regather for the next round's pairing
            x = y[step].T[step]
            if vectors:
                _rotate_rows(vt, c, s)
                vt = vt[step]
    else:
        if _offdiag_norm(x) > target:
            raise NoConvergence(
                f"Jacobi sweep limit {max_sweeps} reached; off-diagonal norm "
                f"{_offdiag_norm(x):g} above target {target:g}"
            )

    # positions are back at `start`: put them in index order, drop the pad
    w = np.empty(n)
    w[start] = x.diagonal()
    order = np.argsort(w[:d], kind="stable")
    if not vectors:
        return w[order], None
    v = np.empty((n, n))
    v[:, start] = vt.T
    return w[order], v[:d, :d][:, order]


def sym_eig(m, tol: float = EIG_TOL, max_sweeps: int = EIG_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the matching columns of an orthogonal matrix, so that
    ``V @ diag(w) @ V.T`` reconstructs the input. One sweep rotates every
    index pair once, in d - 1 rounds of d/2 disjoint rotations each.
    Convergence is declared when the off-diagonal Frobenius norm drops to
    ``tol`` times the Frobenius norm of the input.

    Raises NoConvergence if `max_sweeps` full sweeps do not reach `tol`.
    """
    return _jacobi(_as_symmetric(m), tol, max_sweeps, vectors=True)


def _psd_spectrum(m, vectors: bool):
    """Eigenvalues clamped at zero, and eigenvectors when asked, under the
    NotPSD rule of `psd_sqrt`."""
    w, v = _jacobi(_as_symmetric(m), EIG_TOL, EIG_MAX_SWEEPS, vectors)
    lam_max = float(max(w[-1], 0.0))
    floor = -PSD_SLACK * lam_max
    if w[0] < floor:
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
