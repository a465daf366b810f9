"""Conversions and structural moves between the representations.

The key building block is a one-state realization of a single Blaschke
factor whose realization matrix is exactly unitary; cascading such blocks
(series interconnection) keeps the realization matrix (co)isometric, which
is what makes the realization-based certificate hold for converted product
forms without any balancing step.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    ImproperFunction,
    InconsistentPair,
    NotCoIsometricRealization,
    NotFIR,
    NotIsometricConstant,
    PoleNotInDisk,
)
from .forms import (
    COISO,
    ISO,
    LEFT,
    RIGHT,
    BlaschkePotapovForm,
    LaurentPolyForm,
    MFDForm,
    Pole,
    StateSpaceRealization,
    _fold_left,
    _fold_right,
    _phase_correction,
)
from .linalg import unitary_completion

#: A realization must satisfy its (co)isometry condition this well before
#: all-pass embedding is attempted.
EMBED_RESIDUAL_TOL = 1e-8
#: Reconstruction tolerance when splitting off the constant (co)isometry.
EXTRACT_TOL = 1e-9


def factor_realization(pole, v, validate: bool = True) -> StateSpaceRealization:
    """One-state realization of ``I + (phi(z) - 1) v v*`` with unitary R.

    Parameters
    ----------
    pole : Pole or complex
        Finite pole strictly inside the open unit disk.
    v : (p,) array_like
        Unit direction vector.
    validate : bool
        With ``validate=False`` a non-unit ``v`` is accepted verbatim; the
        formulas stay faithful to the (then non-lossless) rank-one factor.

    Returns
    -------
    StateSpaceRealization
        ``A = [alpha]``, ``B = s v*``, ``C = s v``,
        ``D = I - (1 + conj(alpha)) v v*`` with ``s = sqrt(1 - |alpha|^2)``.
        For unit ``v`` the realization matrix is unitary to machine precision.
    """
    if not isinstance(pole, Pole):
        pole = Pole(pole)
    if pole.is_infinity:
        raise PoleNotInDisk("pole at infinity has no one-state realization")
    alpha = pole.value
    if abs(alpha) >= 1.0 - 1e-9:
        raise PoleNotInDisk(f"|{alpha}| is not strictly below one")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if validate:
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"direction norm {norm} is not one")
        if abs(norm - 1.0) > 1e-14:
            v = v / norm
    p = v.size
    scale = np.sqrt(1.0 - abs(alpha) ** 2)
    a = np.array([[alpha]], dtype=complex)
    b = scale * v.conj()[None, :]
    c = scale * v[:, None]
    d = np.eye(p, dtype=complex) - (1.0 + alpha.conjugate()) * np.outer(v, v.conj())
    return StateSpaceRealization(a, b, c, d)


def series_cascade(outer: StateSpaceRealization, inner: StateSpaceRealization) -> StateSpaceRealization:
    """Realization of the matrix product ``outer(z) @ inner(z)``.

    Standard series interconnection: the inner system feeds the outer one,
    the outer state comes first in the composite state vector.
    """
    if outer.m != inner.p:
        raise DimensionMismatch(
            f"outer has {outer.m} inputs but inner has {inner.p} outputs"
        )
    n2, n1 = outer.n, inner.n
    a = np.block(
        [
            [outer.a, outer.b @ inner.c],
            [np.zeros((n1, n2), dtype=complex), inner.a],
        ]
    )
    b = np.block([[outer.b @ inner.d], [inner.b]])
    c = np.block([[outer.c, outer.d @ inner.c]])
    d = outer.d @ inner.d
    return StateSpaceRealization(a, b, c, d)


def constant_system(d) -> StateSpaceRealization:
    """Zero-state realization of a constant matrix."""
    d = np.asarray(d, dtype=complex)
    p, m = d.shape
    return StateSpaceRealization(
        np.zeros((0, 0), dtype=complex),
        np.zeros((0, m), dtype=complex),
        np.zeros((p, 0), dtype=complex),
        d,
    )


def bp_to_realization(f: BlaschkePotapovForm, validate: bool = True) -> StateSpaceRealization:
    """Cascade realization of a product form with all poles inside the disk.

    The state dimension equals the factor count, and by factor-level
    unitarity the realization matrix is isometric (iso side) or coisometric
    (coiso side) to machine precision.  ``validate=False`` realizes forms
    with out-of-contract directions faithfully (their realization matrix
    then fails the (co)isometry certificate, as it should).
    """
    for pole in f.poles:
        if pole.is_infinity or abs(pole.value) >= 1.0:
            raise ImproperFunction(
                "all poles must lie strictly inside the open unit disk; "
                "flip offending poles first"
            )
    if f.side == ISO:
        ss = constant_system(f.constant)
        for pole, v in reversed(f.factors):
            ss = series_cascade(factor_realization(pole, v, validate=validate), ss)
        return ss
    ss = constant_system(np.eye(f.m, dtype=complex))
    for pole, v in reversed(f.factors):
        ss = series_cascade(factor_realization(pole, v, validate=validate), ss)
    return StateSpaceRealization(ss.a, ss.b, f.constant @ ss.c, f.constant @ ss.d)


def allpass_embed(ss: StateSpaceRealization, tol: float = EMBED_RESIDUAL_TOL) -> StateSpaceRealization:
    """Complete a (co)isometric realization matrix to a unitary one.

    For ``p > m`` extra input columns are appended (``B`` and ``D`` widen),
    for ``m > p`` extra output rows (``C`` and ``D`` grow); ``p == m``
    returns the input unchanged.  The original blocks are preserved
    verbatim and the output realization matrix is unitary.
    """
    r = ss.realization_matrix
    p, m, n = ss.p, ss.m, ss.n
    if p == m:
        return ss
    if p > m:
        residual = float(np.linalg.norm(r.conj().T @ r - np.eye(n + m)))
        if residual > tol:
            raise NotCoIsometricRealization(
                f"realization matrix is not isometric: residual {residual:.3e}"
            )
        w = unitary_completion(r, tol=max(tol, 1e-10))
        b = np.hstack([ss.b, w[:n]])
        d = np.hstack([ss.d, w[n:]])
        return StateSpaceRealization(ss.a, b, ss.c, d)
    residual = float(np.linalg.norm(r @ r.conj().T - np.eye(n + p)))
    if residual > tol:
        raise NotCoIsometricRealization(
            f"realization matrix is not coisometric: residual {residual:.3e}"
        )
    w = unitary_completion(r.conj().T, tol=max(tol, 1e-10))
    rows = w.conj().T
    c = np.vstack([ss.c, rows[:, :n]])
    d = np.vstack([ss.d, rows[:, n:]])
    return StateSpaceRealization(ss.a, ss.b, c, d)


def extract_constant(r_big, ss: StateSpaceRealization, tol: float = EXTRACT_TOL) -> np.ndarray:
    """Recover the constant (co)isometry linking ``ss`` to its embedding.

    Given a unitary ``r_big`` and a realization whose matrix ``R`` satisfies
    ``R = r_big @ diag(I_n, U)`` (tall case) or ``R = diag(I_n, U) @ r_big``
    (wide case), returns the ``p x m`` block ``U`` and verifies the
    reconstruction within ``tol``.
    """
    r_big = np.asarray(r_big, dtype=complex)
    r = ss.realization_matrix
    n, p, m = ss.n, ss.p, ss.m
    k = r_big.shape[0]
    if r_big.shape != (k, k):
        raise DimensionMismatch(f"embedding matrix must be square, got {r_big.shape}")
    unitarity = float(np.linalg.norm(r_big.conj().T @ r_big - np.eye(k)))
    if unitarity > 1e-10:
        raise InconsistentPair(
            f"embedding matrix is not unitary: residual {unitarity:.3e}"
        )
    if k == n + p:
        u = (r_big.conj().T @ r)[n:, n:]
        padded = np.block(
            [
                [np.eye(n, dtype=complex), np.zeros((n, m), dtype=complex)],
                [np.zeros((p, n), dtype=complex), u],
            ]
        )
        residual = float(np.linalg.norm(r - r_big @ padded))
    elif k == n + m:
        u = (r @ r_big.conj().T)[n:, n:]
        padded = np.block(
            [
                [np.eye(n, dtype=complex), np.zeros((n, m), dtype=complex)],
                [np.zeros((p, n), dtype=complex), u],
            ]
        )
        residual = float(np.linalg.norm(r - padded @ r_big))
    else:
        raise DimensionMismatch(
            f"embedding size {k} matches neither n+p={n + p} nor n+m={n + m}"
        )
    if residual > tol:
        raise InconsistentPair(
            f"reconstruction residual {residual:.3e} exceeds {tol:.1e}"
        )
    return u


def embed_to_square(f: BlaschkePotapovForm):
    """Split a rectangular product form into a square one and its constant.

    Returns ``(f_sq, constant)`` where ``f_sq`` keeps the factors with an
    identity constant, so ``F(z) = f_sq(z) @ constant`` on the iso side and
    ``F(z) = constant @ f_sq(z)`` on the coiso side, exactly.
    """
    k = f.factor_dimension
    f_sq = BlaschkePotapovForm(
        f.side, k, k, f.factors, np.eye(k, dtype=complex)
    )
    return f_sq, np.array(f.constant)


def truncate_to_rect(
    f_sq: BlaschkePotapovForm, constant, side: str | None = None
) -> BlaschkePotapovForm:
    """Absorb a constant (co)isometry into a square product form.

    Inverse of :func:`embed_to_square`.  ``side`` picks where the constant
    multiplies for a square constant (``"iso"`` on the right, ``"coiso"`` on
    the left); rectangular constants determine it from their shape.
    """
    if f_sq.p != f_sq.m:
        raise DimensionMismatch("f_sq must be square")
    k = f_sq.p
    constant = np.asarray(constant, dtype=complex)
    if constant.ndim != 2:
        raise DimensionMismatch("constant must be 2-D")
    rows, cols = constant.shape
    if side is None:
        side = ISO if rows >= cols else COISO
    if side == ISO:
        if rows != k or cols > k:
            raise DimensionMismatch(
                f"iso constant must be {k}x(m<={k}), got {constant.shape}"
            )
        gram = constant.conj().T @ constant - np.eye(cols)
        if float(np.linalg.norm(gram)) > 1e-10:
            raise NotIsometricConstant("constant columns are not orthonormal")
        return BlaschkePotapovForm(ISO, k, cols, f_sq.factors, constant)
    if cols != k or rows > k:
        raise DimensionMismatch(
            f"coiso constant must be (p<={k})x{k}, got {constant.shape}"
        )
    gram = constant @ constant.conj().T - np.eye(rows)
    if float(np.linalg.norm(gram)) > 1e-10:
        raise NotIsometricConstant("constant rows are not orthonormal")
    return BlaschkePotapovForm(COISO, rows, k, f_sq.factors, constant)


def _is_offending(pole: Pole) -> bool:
    return pole.is_infinity or abs(pole.value) > 1.0


def flip_poles(f: BlaschkePotapovForm) -> BlaschkePotapovForm:
    """Multiply by a scalar all-pass so every pole moves inside the disk.

    Each offending pole ``alpha`` (outside the closed disk or at infinity)
    contributes a scalar factor ``1/phi_alpha(z)``, which cancels the pole
    and re-creates it at ``1/conj(alpha)``; the rank-one factor is replaced
    by ``k - 1`` factors at the reflected pole spanning the orthogonal
    complement of its direction, plus a constant phase that is folded into
    the remaining factors and the constant block.  The output evaluates to
    ``F(z) * psi(z)`` with ``psi`` the product of the scalar flips, so its
    circle (co)isometry verdict matches the input's.
    """
    k = f.factor_dimension
    items = []
    for pole, v in f.factors:
        if not _is_offending(pole):
            items.append((pole, v))
            continue
        beta = pole.flipped()
        c = _phase_correction(pole)
        basis = unitary_completion(v[:, None])
        for column in range(k - 1):
            items.append((beta, basis[:, column]))
        if c != 1.0:
            complement = np.eye(k, dtype=complex) - np.outer(v, v.conj())
            items.append(np.eye(k, dtype=complex) + (c - 1.0) * complement)
    if f.side == ISO:
        factors, g = _fold_right(items, k)
        return BlaschkePotapovForm(ISO, f.p, f.m, factors, g @ f.constant)
    factors, g = _fold_left(items, k)
    return BlaschkePotapovForm(COISO, f.p, f.m, factors, f.constant @ g)


def flip_scalar(f: BlaschkePotapovForm, z: complex) -> complex:
    """The scalar all-pass ``psi(z)`` that :func:`flip_poles` multiplies in."""
    value = 1.0 + 0.0j
    for pole in f.poles:
        if _is_offending(pole):
            if pole.is_infinity:
                value /= complex(z)
            else:
                alpha = pole.value
                value *= (complex(z) - alpha) / (1.0 - alpha.conjugate() * complex(z))
    return value


def _leverrier_faddeev(a: np.ndarray):
    """Characteristic polynomial and adjugate coefficients of ``zI - A``.

    Returns ``(chi, adj)`` where ``chi[j]`` is the coefficient of ``z^j`` in
    ``det(zI - A)`` and ``adj[j]`` the matrix coefficient of ``z^j`` in
    ``adj(zI - A)`` (``j = 0 .. n-1``).  Exact in exact arithmetic.
    """
    n = a.shape[0]
    chi = np.zeros(n + 1, dtype=complex)
    chi[n] = 1.0
    adj = [np.zeros((n, n), dtype=complex) for _ in range(n)]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        adj[n - k] = mk
        ck = -np.trace(a @ mk) / k
        chi[n - k] = ck
        mk = a @ mk + ck * np.eye(n, dtype=complex)
    return chi, adj


def ss_to_mfd(ss: StateSpaceRealization, side: str = RIGHT) -> MFDForm:
    """Matrix fraction with scalar characteristic-polynomial denominator.

    ``N(z) = C adj(zI - A) B + D chi_A(z)`` and ``Delta(z) = chi_A(z) I``,
    both padded to degree ``n``.  No attempt is made to reduce the fraction;
    the certificate tests downstream do not require coprimeness.
    """
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be {RIGHT!r} or {LEFT!r}, got {side!r}")
    n, p, m = ss.n, ss.p, ss.m
    if n == 0:
        eye = np.eye(m if side == RIGHT else p, dtype=complex)
        return MFDForm(side, [np.array(ss.d)], [eye])
    chi, adj = _leverrier_faddeev(ss.a)
    num = []
    for j in range(n + 1):
        coeff = chi[j] * ss.d
        if j < n:
            coeff = coeff + ss.c @ adj[j] @ ss.b
        num.append(coeff)
    eye = np.eye(m if side == RIGHT else p, dtype=complex)
    den = [chi[j] * eye for j in range(n + 1)]
    return MFDForm(side, num, den)


def bp_to_laurent(f: BlaschkePotapovForm) -> LaurentPolyForm:
    """Expand a product of pole-at-zero/infinity factors into Laurent form.

    Each factor contributes one polynomial degree; factors with a pole at
    the origin additionally shift the exponent offset down by one.  The
    coefficient list always has ``d + 1`` entries even when leading or
    trailing blocks vanish.
    """
    k = f.factor_dimension
    for pole in f.poles:
        if not pole.is_infinity and pole.value != 0:
            raise NotFIR(f"pole {pole.value} is neither zero nor infinity")
    shift = 0
    coeffs = [np.eye(k, dtype=complex)]
    for pole, v in f.factors:
        projector = np.outer(v, v.conj())
        complement = np.eye(k, dtype=complex) - projector
        if pole.is_infinity:
            # I + (z - 1) v v* = complement + z * projector
            factor_coeffs = [complement, projector]
        else:
            # I + (1/z - 1) v v* = z^{-1} (projector + z * complement)
            factor_coeffs = [projector, complement]
            shift -= 1
        coeffs = _poly_multiply(coeffs, factor_coeffs)
    if f.side == ISO:
        coeffs = [c @ f.constant for c in coeffs]
    else:
        coeffs = [f.constant @ c for c in coeffs]
    return LaurentPolyForm(shift, coeffs)


def _poly_multiply(left, right):
    """Coefficient convolution of matrix polynomials (left factors on the left)."""
    rows, inner = left[0].shape
    cols = right[0].shape[1]
    out = [
        np.zeros((rows, cols), dtype=complex)
        for _ in range(len(left) + len(right) - 1)
    ]
    for i, li in enumerate(left):
        for j, rj in enumerate(right):
            out[i + j] += li @ rj
    return out
