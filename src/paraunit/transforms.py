"""Conversions and structural moves between the representations.

A product form is realized as the series cascade of one-state realizations
of its Blaschke factors.  Each has an exactly unitary realization matrix, so
the cascade's is (co)isometric, which is what makes the realization-based
certificate hold for converted product forms without any balancing step.
:func:`bp_to_realization` writes the cascade's blocks down directly, in one
backward sweep of rank-one updates over the factors (lossless cascade
synthesis).

The coefficient forms of a product form come from one product expansion,
:func:`_expand`, which multiplies the factors out over a scalar
denominator: :func:`bp_to_mfd` keeps both, and :func:`bp_to_laurent` is its
case with poles at the origin and infinity only.  No realization is built,
so the poles may lie anywhere off the circle.  :func:`ss_to_mfd` multiplies
a realization out over a scalar denominator the same way, one state at a
time along its upper triangular (Schur) state matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    EvalAtPole,
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
    StateSpaceRealization,
    _blaschke_values,
    _fold_right,
    _phase_correction,
    _transposed_factors,
    _unit_direction,
)
from .linalg import isometry_residual, unitary_completion
from .tolerances import (
    EMBED_RESIDUAL_TOL,
    EVAL_POLE_MARGIN,
    EXTRACT_TOL,
    ISOMETRY_TOL,
    SCHUR_MARGIN,
)


def bp_to_realization(f: BlaschkePotapovForm, validate: bool = True) -> StateSpaceRealization:
    """Cascade realization of a product form with all poles inside the disk.

    The result equals the series cascade of the factors' one-state unitary
    realizations, outer factor first, so state ``j`` belongs to factor ``j``.
    With ``s_i = sqrt(1 - |alpha_i|^2)``,
    ``D_i = I - (1 + conj(alpha_i)) v_i v_i*`` and ``K`` the constant, the
    iso blocks are

    * ``A = diag(alpha)`` plus, above the diagonal,
      ``A[i, j] = s_i v_i* D_{i+1} ... D_{j-1} v_j s_j``;
    * ``B[i] = s_i v_i* D_{i+1} ... D_d K``;
    * ``C[:, j] = D_1 ... D_{j-1} s_j v_j``;
    * ``D = D_1 ... D_d K``,

    built by one backward sweep of rank-one updates (see
    :func:`_cascade_blocks`).  The state dimension equals the factor count,
    and by factor-level unitarity the realization matrix is isometric (iso
    side) or coisometric (coiso side) to machine precision.
    ``validate=False`` realizes forms with out-of-contract directions
    faithfully (their realization matrix then fails the (co)isometry
    certificate, as it should).  A coiso form gets the transposed cascade of
    its transposed factor list.
    """
    if not all(pole.is_schur for pole in f.poles):
        raise ImproperFunction(
            "all poles must lie strictly inside the open unit disk; flip offending poles first"
        )
    if f.side == COISO:
        blocks = _cascade_blocks(_transposed_factors(f.factors), f.constant.T, validate)
        return StateSpaceRealization(*blocks).transpose()
    return StateSpaceRealization(*_cascade_blocks(f.factors, f.constant, validate))


def _cascade_blocks(factors, constant: np.ndarray, validate: bool):
    """Blocks ``(A, B, C, D)`` of the iso cascade ``B_1 ... B_d @ constant``.

    The sweep runs from the innermost factor outwards and keeps the
    ``p x (d + m)`` work array ``[C | D]`` of the cascade built so far.  Step
    ``i`` projects the work array onto ``v_i`` once: the projection times
    ``s_i`` is row ``i`` of ``[A | B]`` right of the diagonal, and it gives
    the rank-one update by ``D_i``; column ``i`` of ``C`` is then
    ``s_i v_i``.  Poles are checked against ``SCHUR_MARGIN`` and (with
    ``validate``) directions against unit norm in the order
    a factor-by-factor cascade would meet them.
    """
    d = len(factors)
    p, m = constant.shape
    top = np.zeros((d, d + m), dtype=complex)
    work = np.empty((p, d + m), dtype=complex)
    work[:, d:] = constant
    for i in range(d - 1, -1, -1):
        pole, v = factors[i]
        alpha = pole.value
        if abs(alpha) >= 1.0 - SCHUR_MARGIN:
            raise PoleNotInDisk(f"|{alpha}| is not strictly below one")
        if validate:
            v = _unit_direction(v)
        scale = np.sqrt(1.0 - abs(alpha) ** 2)
        tail = work[:, i + 1:]
        projected = v.conj() @ tail
        top[i, i] = alpha
        top[i, i + 1:] = scale * projected
        tail -= ((1.0 + alpha.conjugate()) * v)[:, None] * projected
        work[:, i] = scale * v
    return top[:, :d], top[:, d:], work[:, :d], work[:, d:]


def allpass_embed(ss: StateSpaceRealization) -> StateSpaceRealization:
    """Complete a (co)isometric realization matrix to a unitary one.

    For ``p > m`` extra input columns are appended (``B`` and ``D`` widen),
    for ``m > p`` extra output rows (``C`` and ``D`` grow); ``p == m``
    returns the input unchanged once it is found unitary.  The input must
    pass within ``EMBED_RESIDUAL_TOL``.  The original blocks are preserved
    verbatim and the output realization matrix is unitary.
    """
    if ss.m > ss.p:
        return allpass_embed(ss.transpose()).transpose()
    r = ss.realization_matrix
    n, m = ss.n, ss.m
    residual = isometry_residual(r)
    if residual > EMBED_RESIDUAL_TOL:
        raise NotCoIsometricRealization(
            f"realization matrix is not (co)isometric: residual {residual:.3e}"
        )
    if ss.p == m:
        return ss
    w = unitary_completion(r, tol=EMBED_RESIDUAL_TOL)
    b = np.hstack([ss.b, w[:n]])
    d = np.hstack([ss.d, w[n:]])
    return StateSpaceRealization(ss.a, b, ss.c, d)


def extract_constant(r_big, ss: StateSpaceRealization) -> np.ndarray:
    """Recover the constant (co)isometry linking ``ss`` to its embedding.

    Given a unitary ``r_big`` and a realization whose matrix ``R`` satisfies
    ``R = r_big @ diag(I_n, U)`` (tall case) or ``R = diag(I_n, U) @ r_big``
    (wide case), returns the ``p x m`` block ``U`` and verifies the
    reconstruction within ``EXTRACT_TOL``.  The size of ``r_big`` tells the cases
    apart unless ``p == m``; then the tall reconstruction is tried first and
    the wide one if it fails, and ``InconsistentPair`` is raised only when
    both fail.
    """
    r_big = np.asarray(r_big, dtype=complex)
    n, p, m = ss.n, ss.p, ss.m
    k = r_big.shape[0]
    if r_big.shape != (k, k):
        raise DimensionMismatch(f"embedding matrix must be square, got {r_big.shape}")
    if k not in (n + p, n + m):
        raise DimensionMismatch(
            f"embedding size {k} matches neither n+p={n + p} nor n+m={n + m}"
        )
    r = ss.realization_matrix
    if k == n + p:
        try:
            return _extract_tall(r_big, r, n)
        except InconsistentPair:
            if p != m:
                raise
    # R = diag(I, U) r_big transposes to the tall case R^T = r_big^T diag(I, U^T)
    return _extract_tall(r_big.T, r.T, n).T


def _extract_tall(r_big: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """``U`` with ``r = r_big @ diag(I_n, U)``, for a square ``r_big`` with as many rows as ``r``."""
    unitarity = isometry_residual(r_big)
    if unitarity > ISOMETRY_TOL:
        raise InconsistentPair(
            f"embedding matrix is not unitary: residual {unitarity:.3e}"
        )
    u = (r_big.conj().T @ r)[n:, n:]
    padded = np.zeros_like(r)
    padded[:n, :n] = np.eye(n)
    padded[n:, n:] = u
    residual = float(np.linalg.norm(r - r_big @ padded))
    if residual > EXTRACT_TOL:
        raise InconsistentPair(
            f"reconstruction residual {residual:.3e} exceeds {EXTRACT_TOL:.1e}"
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

    Inverse of :func:`embed_to_square`: the result evaluates to
    ``f_sq(z) @ constant`` (iso) or ``constant @ f_sq(z)`` (coiso), so the
    constant of ``f_sq`` is kept.  ``side`` picks where the constant
    multiplies for a square constant (``"iso"`` on the right, ``"coiso"`` on
    the left) and defaults to the side of ``f_sq``, so that
    ``truncate_to_rect(*embed_to_square(f))`` rebuilds ``f``; rectangular
    constants determine it from their shape.
    """
    if f_sq.p != f_sq.m:
        raise DimensionMismatch("f_sq must be square")
    k = f_sq.p
    constant = np.asarray(constant, dtype=complex)
    if constant.ndim != 2:
        raise DimensionMismatch("constant must be 2-D")
    rows, cols = constant.shape
    if side is None:
        side = f_sq.side if rows == cols else ISO if rows > cols else COISO
    if side == COISO:
        return truncate_to_rect(f_sq.transpose(), constant.T, ISO).transpose()
    if rows != k or cols > k:
        raise DimensionMismatch(f"constant must be {k}x(m<={k}) (coiso: transposed), got {rows}x{cols}")
    if isometry_residual(constant) > ISOMETRY_TOL:
        raise NotIsometricConstant("constant is not a (co)isometry")
    if f_sq.side == ISO:
        factors, g = f_sq.factors, f_sq.constant
    else:
        # K B_1 ... B_d with K unitary equals B_1' ... B_d' K, v_i' = K v_i
        factors, g = _fold_right([f_sq.constant, *f_sq.factors], k)
    return BlaschkePotapovForm(ISO, k, cols, factors, g @ constant)


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
    if f.side == COISO:
        return flip_poles(f.transpose()).transpose()
    k = f.factor_dimension
    items = []
    for pole, v in f.factors:
        if pole.is_schur:
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
    factors, g = _fold_right(items, k)
    return BlaschkePotapovForm(ISO, f.p, f.m, factors, g @ f.constant)


def flip_scalar(f: BlaschkePotapovForm, z: complex) -> complex:
    """The scalar all-pass ``psi(z)`` that :func:`flip_poles` multiplies in:
    the product of ``1 / phi_alpha(z)`` over the offending poles.

    A point within ``EVAL_POLE_MARGIN`` of a zero of one of these ``phi``
    (``1/conj(alpha)``, or the origin for a pole at infinity) or of an
    offending pole raises ``EvalAtPole``, as every ``eval_many`` does.
    """
    z = complex(z)
    offending = [pole for pole in f.poles if not pole.is_schur]
    for pole in offending:
        zero = 0.0 if pole.is_infinity else 1.0 / pole.value.conjugate()
        if abs(z - zero) <= EVAL_POLE_MARGIN:
            raise EvalAtPole(f"{z} is within {EVAL_POLE_MARGIN:.0e} of the zero {zero} of phi for {pole}")
    return complex(1.0 / np.prod(_blaschke_values(offending, np.array([z]))))


def ss_to_mfd(ss: StateSpaceRealization, side: str = RIGHT) -> MFDForm:
    """Matrix fraction of a realization over a scalar denominator.

    The realization is multiplied out in one forward sweep over the states
    of its Schur view ``(T, U, U* B, C U)`` (:attr:`StateSpaceRealization.schur`),
    which is the realization itself when ``A`` is upper triangular.  The work
    polynomial ``W`` starts as ``[C | D]``.  Peeling state ``j`` (pole
    ``t = T[j, j]``) turns it into
    ``(z - t) W[:, 1:] + W[:, :1] [T | B][j, j+1:]`` and multiplies the
    denominator by ``z - t``, both scaled by ``1 / max(1, |t|)`` as in
    :func:`_expand`.  After ``n`` steps ``W`` is the numerator ``N`` over
    ``den(z) I`` (``I_m`` right, ``I_p`` left), in O(n^2 p (n + m)) time.
    No attempt is made to reduce the fraction; the certificate tests
    downstream do not require coprimeness.  Entries too large for the
    sweep raise ``ValueError``: the fraction overflowed.
    """
    a, _, b, c = ss.schur
    top = np.hstack([a, b])
    work = np.hstack([c, ss.d])[None]
    den = np.ones(1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        for j in range(ss.n):
            t = a[j, j]
            scale = 1.0 / max(1.0, abs(t))
            # multiply by z - t and add the peeled state: one coefficient more per state
            out = np.zeros((len(work) + 1, ss.p, work.shape[2] - 1), dtype=complex)
            out[1:] = work[:, :, 1:]
            out[:-1] += work[:, :, :1] * top[j, j + 1:] - t * work[:, :, 1:]
            work = scale * out
            den = np.convolve(den, [-scale * t, scale])
    return MFDForm._over_scalar(side, work, den)


def _expand(f: BlaschkePotapovForm):
    """Coefficients ``(num, den)`` of ``F(z) = num(z) / den(z)``, constant term first.

    Each factor ``B(z)`` of the iso chain is multiplied out over a scalar
    denominator: a finite pole ``a`` contributes
    ``(z - a)(I - vv*) + (1 - conj(a) z) vv*`` over ``z - a``, both scaled by
    ``1 / max(1, |a|)`` so the coefficients stay bounded for poles outside
    the disk, and a pole at infinity contributes ``(I - vv*) + z vv*`` over
    1 (a zero leading coefficient keeps ``num`` and ``den`` of equal
    length).  ``num`` is the ``(d + 1, p, m)`` array of the chain times the
    constant and ``den`` the ``d + 1`` scalars.  A coiso form is expanded as
    its transpose.
    """
    if f.side == COISO:
        num, den = _expand(f.transpose())
        return num.swapaxes(1, 2), den
    k = f.factor_dimension
    num = np.eye(k, dtype=complex)[None]
    den = np.ones(1, dtype=complex)
    for pole, v in f.factors:
        projector = np.outer(v, v.conj())
        complement = np.eye(k, dtype=complex) - projector
        if pole.is_infinity:
            low, high, den_factor = complement, projector, [1.0, 0.0]
        else:
            a = pole.value
            scale = 1.0 / max(1.0, abs(a))
            low = scale * (projector - a * complement)
            high = scale * (complement - a.conjugate() * projector)
            den_factor = [-scale * a, scale]
        # multiply by low + z * high: one coefficient more per factor
        out = np.zeros((len(num) + 1, k, k), dtype=complex)
        out[:-1] = num @ low
        out[1:] += num @ high
        num = out
        den = np.convolve(den, den_factor)
    return num @ f.constant, den


def bp_to_mfd(f: BlaschkePotapovForm, side: str = RIGHT) -> MFDForm:
    """Matrix fraction of a product form with poles anywhere off the circle.

    The numerator is the multiplied-out factor chain times the constant and
    the denominator ``den(z) I`` (``I_m`` for a right fraction, ``I_p`` for
    a left one), with the scalar ``den`` the product of the factors' pole
    terms (see :func:`_expand`).  No realization is built, so poles outside
    the disk, at the origin and at infinity are all allowed.
    """
    return MFDForm._over_scalar(side, *_expand(f))


def bp_to_laurent(f: BlaschkePotapovForm) -> LaurentPolyForm:
    """Expand a product of pole-at-zero/infinity factors into Laurent form.

    The numerator of :func:`_expand`: each factor contributes one polynomial
    degree, and each pole at the origin shifts the exponent offset down by
    one.  The coefficient list always has ``d + 1`` entries even when
    leading or trailing blocks vanish.
    """
    for pole in f.poles:
        if not pole.is_infinity and pole.value != 0:
            raise NotFIR(f"pole {pole.value} is neither zero nor infinity")
    num, _ = _expand(f)
    return LaurentPolyForm(-sum(not pole.is_infinity for pole in f.poles), num)
