"""Dense complex linear-algebra kernels.

Thin, contract-pinning wrappers around LAPACK: symmetrization on return and
the stability and symmetry tests (thresholds from :mod:`paraunit.tolerances`)
are fixed here so the rest of the package can rely on them.  Every kernel is
O(n^3) in time and O(n^2) in memory, with no size cap, except the Stein
solve up to order ``STEIN_DENSE_ORDER_LIMIT = 8``: one dense Kronecker
system, O(n^6) time and O(n^4) memory at most 64 unknowns.  All functions
are pure and take 2-D complex arrays.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotIsometric,
    NotSchurStable,
)
from .tolerances import (
    HERMITIAN_RTOL,
    ISOMETRY_TOL,
    SCHUR_MARGIN,
    STEIN_DENSE_ORDER_LIMIT,
    STEIN_HERMITIAN_RTOL,
)


@functools.cache
def _lapack():
    """The complex Schur (``zgees``) and triangular-solve (``ztrtrs``) drivers.

    Raw LAPACK calls: scipy.linalg.schur / solve_triangular checks cost more
    than a whole column solve at small n, and as_complex_matrix has already
    rejected NaN / Inf.  Imported on first use, because loading scipy.linalg
    costs more than most CLI commands, and only the Stein solve's column loop
    (order above ``STEIN_DENSE_ORDER_LIMIT``) and the Schur form of a matrix
    that is not upper triangular (:func:`_schur_form`) need it.
    """
    from scipy.linalg.lapack import zgees, ztrtrs

    return zgees, ztrtrs


def _schur(a: np.ndarray):
    """Complex Schur form ``A = U T U*`` of a square matrix: returns ``(T, U)``."""
    t, _, _, u, _, info = _lapack()[0](lambda z: None, a)
    if info != 0:  # pragma: no cover - LAPACK failures are rare
        raise ConvergenceFailure(f"Schur iteration failed: LAPACK gees info {info}")
    return t, u


def _is_upper_triangular(a: np.ndarray) -> bool:
    """Whether the square matrix ``a`` has no nonzero entry below its diagonal."""
    return not np.tril(a, -1).any()


def _schur_form(a: np.ndarray):
    """``(T, U)`` with ``A = U T U*`` and ``T`` upper triangular; ``U`` is ``None`` when ``T is a``.

    The one place that decides a matrix's structure: an upper triangular
    matrix (every realization the package writes) is its own Schur form, and
    any other takes one ``zgees``.
    """
    return (a, None) if _is_upper_triangular(a) else _schur(a)


def as_complex_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str) -> int:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def isometry_residual(v: np.ndarray) -> float:
    """Frobenius deviation ``||V*V - I||_F`` of a 2-D array from an isometry.

    Entries large enough to overflow the Gram matrix give ``inf``, never a
    ``nan`` that every ``residual > tol`` test would let pass.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = v.conj().T @ v
        gram.ravel()[:: v.shape[1] + 1] -= 1.0  # a view: the product is contiguous
        return _finite_norm(gram)


def _finite_norm(x: np.ndarray) -> float:
    """Frobenius norm of ``x``, or ``inf`` where entries overflowed (never ``nan``)."""
    value = float(np.linalg.norm(x))
    return value if math.isfinite(value) else math.inf


def unitary_completion(v, tol: float = ISOMETRY_TOL) -> np.ndarray:
    """Append columns extending an isometry to a full unitary matrix.

    Parameters
    ----------
    v : (k, r) array_like
        Matrix with orthonormal columns, ``v* v = I_r``, ``r <= k``.
    tol : float
        Largest allowed Frobenius deviation of ``v* v`` from ``I_r``.

    Returns
    -------
    (k, k - r) ndarray
        ``w`` such that ``[v w]`` is unitary and ``w* v = 0``.  For ``r == k``
        this is an empty ``k x 0`` matrix.

    Notes
    -----
    Computed from a full Householder QR of ``v``: the completion is the
    trailing ``k - r`` columns of the square orthogonal factor.  Any unitary
    remix of those columns would be equally valid; QR fixes a deterministic
    choice.
    """
    v = as_complex_matrix(v, "v")
    k, r = v.shape
    if r > k:
        raise DimensionMismatch(f"cannot complete a {k}x{r} matrix with r > k")
    residual = isometry_residual(v)
    if residual > tol:
        raise NotIsometric(
            f"columns are not orthonormal: residual {residual:.3e} exceeds {tol:.1e}"
        )
    if r == 0:
        return np.eye(k, dtype=complex)
    if r == k:
        return np.zeros((k, 0), dtype=complex)
    q, _ = np.linalg.qr(v, mode="complete")
    return q[:, r:]


def solve_stein(a, q, side: str = "cont") -> np.ndarray:
    """Solve a discrete-time Stein equation with a Schur-stable matrix.

    Parameters
    ----------
    a : (n, n) array_like
        Schur-stable matrix (spectral radius strictly below one).
    q : (n, n) array_like
        Hermitian right-hand side, within ``STEIN_HERMITIAN_RTOL`` relative
        to ``max(1, ||Q||_F)``.
    side : {"cont", "obs"}
        ``"cont"`` solves ``W - A W A* = Q`` (controllability convention),
        ``"obs"`` solves ``W - A* W A = Q`` (observability convention).

    Returns
    -------
    (n, n) ndarray
        The unique solution, symmetrized as ``(W + W*) / 2`` on return.

    Notes
    -----
    Bartels-Stewart / Kitagawa: with ``A = U T U*`` and ``T`` upper
    triangular, ``X = U* W U`` solves ``X - T X T* = U* Q U``.  Up to order
    ``STEIN_DENSE_ORDER_LIMIT = 8`` that is one dense numpy solve of the
    ``n^2`` system ``(I - T kron conj T) vec X = vec Q`` (row-major ``vec``;
    the system is upper triangular), which needs no scipy.  Larger orders
    solve column by column from the last, each an upper-triangular LAPACK
    solve with ``I - conj(t_jj) T``: O(n^3) time, O(n^2) memory.  The
    stability test reads ``max |diag T|``.  ``A`` is classified once by
    :func:`_schur_form`: an upper triangular ``A`` (every realization the
    package writes) is its own ``T`` and runs no Schur step.  The ``"obs"``
    side flips the same form, ``A* = (U J)(J T* J)(U J)*`` with ``J`` the
    order-reversing permutation, since ``J T* J`` is upper triangular too.
    """
    a = as_complex_matrix(a, "a")
    q = as_complex_matrix(q, "q")
    n = _require_square(a, "a")
    if q.shape != (n, n):
        raise DimensionMismatch(f"q must be {n}x{n}, got {q.shape}")
    if side not in ("cont", "obs"):
        raise ValueError(f"side must be 'cont' or 'obs', got {side!r}")
    herm_residual = float(np.linalg.norm(q - q.conj().T))
    if herm_residual > STEIN_HERMITIAN_RTOL * max(1.0, float(np.linalg.norm(q))):
        raise NotHermitian(f"q is not Hermitian: residual {herm_residual:.3e}")
    return _solve_stein_schur(*_schur_form(a), q, side=side)


def _solve_stein_schur(t: np.ndarray, u, q: np.ndarray, side: str) -> np.ndarray:
    """:func:`solve_stein` on the Schur form ``(T, U)`` of ``A`` (:func:`_schur_form`).

    Makes the stability test but none of the input checks, so a caller that
    already holds the form of ``A`` (a realization's Schur view) solves
    both sides without factoring ``A`` again.  Orders up to
    ``STEIN_DENSE_ORDER_LIMIT`` take one dense solve and larger ones the
    column loop (the bound's reason is in :mod:`paraunit.tolerances`).
    """
    n = t.shape[0]
    if n == 0:
        return q.copy()
    rev = slice(None, None, -1 if side == "obs" else 1)
    if side == "obs":  # A* = (U J)(J T* J)(U J)*, where rev applies J
        t = np.ascontiguousarray(t.conj().T[rev, rev])
    if u is None:
        x = q[rev, rev].copy()
    else:
        u = u[:, rev]
        x = u.conj().T @ q @ u
    rho = float(np.max(np.abs(np.diagonal(t))))
    if not rho < 1.0 - SCHUR_MARGIN:  # a NaN fails too
        raise NotSchurStable(f"spectral radius {rho:.12f} is not below 1 - {SCHUR_MARGIN:.0e}")
    tc = t.conj()
    if n <= STEIN_DENSE_ORDER_LIMIT:  # row-major vec(T X T*) = (T kron conj T) vec X
        kron = (t[:, None, :, None] * -tc[None, :, None, :]).reshape(n * n, n * n)
        kron.flat[:: n * n + 1] += 1.0
        x = np.linalg.solve(kron, x.reshape(n * n)).reshape(n, n)
    else:
        eye = np.eye(n, dtype=complex)
        t_rows = np.ascontiguousarray(t.T)  # I - c T^T in C order is I - c T in Fortran order
        ztrtrs = _lapack()[1]
        for j in range(n - 1, -1, -1):  # column j is overwritten by its solution, last first
            rhs = x[:, j] + t @ (x[:, j + 1 :] @ tc[j, j + 1 :])
            x[:, j], info = ztrtrs((eye - tc[j, j] * t_rows).T, rhs)
            if info != 0:  # pragma: no cover - the margin keeps every pivot nonzero
                raise ConvergenceFailure(f"triangular solve failed: LAPACK trtrs info {info}")
    w = x[rev, rev] if u is None else u @ x @ u.conj().T
    return 0.5 * (w + w.conj().T)


def hermitian_eig(m):
    """Eigen-decomposition of a Hermitian matrix.

    Parameters
    ----------
    m : (n, n) array_like
        Matrix with ``||M - M*||_F <= HERMITIAN_RTOL * ||M||_F``.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues in ascending order and a unitary matrix whose
        columns are the matching eigenvectors.
    """
    m = as_complex_matrix(m, "m")
    _require_square(m, "m")
    norm = float(np.linalg.norm(m))
    if float(np.linalg.norm(m - m.conj().T)) > HERMITIAN_RTOL * norm:
        raise NotHermitian("matrix deviates from Hermitian symmetry beyond tolerance")
    values, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    return values, vectors


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix of any size ``n >= 1``.

    Read off the diagonal of its Schur form (:func:`_schur_form`): an upper
    triangular matrix (every realization the package writes) is its own.
    """
    a = as_complex_matrix(a, "a")
    n = _require_square(a, "a")
    if n < 1:
        raise DimensionMismatch("matrix must be at least 1x1")
    return float(np.max(np.abs(np.diagonal(_schur_form(a)[0]))))
