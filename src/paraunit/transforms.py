"""Conversions and structural moves between the representations.

Every move of a product form's factors lives here.  Its reflected adjoint
(:func:`conjugate`) and its pole flips (:func:`flip_poles`) both invert a
Blaschke factor through one identity,
``1/phi_alpha = c phi_{1/conj(alpha)}`` with the unimodular
``c = alpha / conj(alpha)``: on a subspace with projector ``P``,
``I + (1/phi_alpha - 1) P`` is one factor at the reflected pole per
orthonormal vector of the subspace, times the constant ``I + (c - 1) P``
(:func:`_reflection`).  The constants are pushed to the right end of the
chain and folded into the directions and the constant block
(:func:`_fold_right`).

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
    Pole,
    StateSpaceRealization,
    _blaschke_values,
    _off_unit,
    _transposed_blocks,
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
    certificate, as it should).  A coiso form gets the transposed blocks of
    the cascade of its transposed chain
    (:meth:`~paraunit.forms.BlaschkePotapovForm._transposed_chain`).
    """
    if not all(pole.is_schur for pole in f.poles):
        raise ImproperFunction(
            "all poles must lie strictly inside the open unit disk; flip offending poles first"
        )
    if f.side == ISO:
        return StateSpaceRealization(*_cascade_blocks(f.poles, f.directions, f.constant, validate))
    blocks = _cascade_blocks(*f._transposed_chain(), validate)
    return StateSpaceRealization(*_transposed_blocks(*blocks))


def _cascade_blocks(poles, directions: np.ndarray, constant: np.ndarray, validate: bool):
    """Blocks ``(A, B, C, D)`` of the iso cascade ``B_1 ... B_d @ constant``.

    The factors are checked first, in the order a factor-by-factor cascade
    meets them: innermost first, and each pole against ``SCHUR_MARGIN``
    before (with ``validate``) its direction against unit norm, which
    renormalizes or refuses it as :func:`_unit_direction` does.  One pass
    over the poles and one batched norm per direction (:func:`_off_unit`)
    find the factors to look at.

    The sweep then runs from the innermost factor outwards and keeps the
    ``p x (d + m)`` work array ``[C | D]`` of the cascade built so far.  Step
    ``i`` projects the work array right of column ``i`` onto ``v_i`` once:
    the projection times ``s_i`` is row ``i`` of ``[A | B]`` right of the
    diagonal, and it gives the rank-one update by ``D_i``.  Column ``i`` of
    ``C``, ``s_i v_i``, is written before the sweep, which changes only the
    columns right of the step's own.  Directions too large for the sweep
    overflow silently, and ``StateSpaceRealization`` refuses the non-finite
    blocks.
    """
    d = len(poles)
    p, m = constant.shape
    alphas = np.array([pole.value for pole in poles], dtype=complex)
    # hypot and float_power call the C library as Python's abs and ** do,
    # where numpy's complex abs and square may round otherwise
    moduli = np.hypot(alphas.real, alphas.imag)
    outside = moduli >= 1.0 - SCHUR_MARGIN
    flagged = (outside | _off_unit(directions)) if validate else outside
    if flagged.any():
        directions = np.array(directions)
        for i in flagged.nonzero()[0][::-1]:
            if outside[i]:
                raise PoleNotInDisk(f"|{poles[i].value}| is not strictly below one")
            directions[i] = _unit_direction(directions[i])
    scales = np.sqrt(1.0 - np.float_power(moduli, 2))
    weights = 1.0 + alphas.conj()
    top = np.zeros((d, d + m), dtype=complex)
    top[range(d), range(d)] = alphas
    work = np.empty((p, d + m), dtype=complex)
    work[:, :d] = (scales[:, None] * directions).T
    work[:, d:] = constant
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d - 1, -1, -1):
            v = directions[i]
            tail = work[:, i + 1:]
            projected = v.conj() @ tail
            top[i, i + 1:] = scales[i] * projected
            tail -= (weights[i] * v)[:, None] * projected
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


def truncate_to_rect(f_sq: BlaschkePotapovForm, constant) -> BlaschkePotapovForm:
    """Absorb a constant (co)isometry into a square product form.

    Inverse of :func:`embed_to_square`: the result evaluates to
    ``f_sq(z) @ constant`` (iso) or ``constant @ f_sq(z)`` (coiso), so the
    constant of ``f_sq`` is kept.  A rectangular constant's shape sets the
    side (tall iso, wide coiso); a square constant goes on the side of
    ``f_sq``, so that ``truncate_to_rect(*embed_to_square(f))`` rebuilds
    ``f``.
    """
    if f_sq.p != f_sq.m:
        raise DimensionMismatch("f_sq must be square")
    k = f_sq.p
    constant = np.asarray(constant, dtype=complex)
    if constant.ndim != 2:
        raise DimensionMismatch("constant must be 2-D")
    rows, cols = constant.shape
    if rows < cols or (rows == cols and f_sq.side == COISO):
        return truncate_to_rect(f_sq.transpose(), constant.T).transpose()
    if rows != k:
        raise DimensionMismatch(f"constant must be {k}x(m<={k}) (coiso: transposed), got {rows}x{cols}")
    if isometry_residual(constant) > ISOMETRY_TOL:
        raise NotIsometricConstant("constant is not a (co)isometry")
    if f_sq.side == ISO:
        factors, g = f_sq.factors, f_sq.constant
    else:
        # K B_1 ... B_d with K unitary equals B_1' ... B_d' K, v_i' = K v_i
        factors, g = _fold_right([f_sq.constant, *f_sq.factors], k)
    return BlaschkePotapovForm(ISO, k, cols, factors, g @ constant)


def _fold_right(items, k: int):
    """Normalize a mixed factor/constant chain, pushing constants rightward.

    ``items`` is a sequence of ``(Pole, direction)`` factors and ``k x k``
    unitary constants, read left to right as a matrix product.  Returns
    ``(factors, g)`` with the product equal to ``factors`` applied in order
    followed by the constant ``g``.
    """
    g = np.eye(k, dtype=complex)
    factors = []
    for item in items:
        if isinstance(item, tuple):
            pole, v = item
            factors.append((pole, g @ v))
        else:
            g = g @ item
    return factors, g


def _reflection(pole: Pole, vectors, projector: np.ndarray) -> list:
    """Chain items of ``I + (1/phi_alpha - 1) P`` for the projector ``P``
    onto the span of the orthonormal ``vectors``.

    One factor at the reflected pole ``1/conj(alpha)`` per vector, then the
    constant ``I + (c - 1) P`` with ``c = alpha / conj(alpha)``, left out
    when ``c`` is one (a real pole, the origin or infinity).
    """
    beta = pole.flipped()
    items = [(beta, v) for v in vectors]
    c = 1.0 if pole.is_infinity or pole.value == 0 else pole.value / pole.value.conjugate()
    if c != 1.0:
        items.append(np.eye(len(projector), dtype=complex) + (c - 1.0) * projector)
    return items


def conjugate(f: BlaschkePotapovForm) -> BlaschkePotapovForm:
    """Reflected adjoint ``F#(z) = (F(1/conj(z)))*`` as a product form.

    The result swaps iso and coiso sides, reverses the factor order and
    reflects every pole through the unit circle (``0 <-> infinity``).
    Inverting a factor with a non-real pole leaves behind a unimodular
    constant; those constants are folded into the directions and the final
    constant block, so the returned form matches ``F#`` exactly pointwise.
    On the unit circle ``F#`` coincides with the entrywise adjoint of ``F``.
    """
    if f.side == COISO:
        # (F^T)# = (F#)^T, and F^T is iso
        return conjugate(f.transpose()).transpose()
    # Factor j of the iso form of conj(F(1/conj(z))) = F#(z)^T is
    # I + (1/phi_alpha - 1) w w* with w = conj(v)
    items = []
    for pole, v in f.factors:
        w = v.conj()
        items += _reflection(pole, [w], np.outer(w, v))
    factors, g = _fold_right(items, f.factor_dimension)
    return BlaschkePotapovForm(ISO, f.p, f.m, factors, g @ f.constant.conj()).transpose()


def flip_poles(f: BlaschkePotapovForm) -> BlaschkePotapovForm:
    """Multiply by a scalar all-pass so every pole moves inside the disk.

    Each offending pole ``alpha`` (outside the closed disk or at infinity)
    contributes a scalar factor ``1/phi_alpha(z)``, which cancels the pole
    and re-creates it at ``1/conj(alpha)``: the rank-one factor times it is
    ``I + (1/phi_alpha - 1)`` on the orthogonal complement of its direction,
    ``k - 1`` factors at the reflected pole plus a constant phase that is
    folded into the remaining factors and the constant block
    (:func:`_reflection`).  The output evaluates to ``F(z) * psi(z)`` with
    ``psi`` the product of the scalar flips, so its circle (co)isometry
    verdict matches the input's.
    """
    if f.side == COISO:
        return flip_poles(f.transpose()).transpose()
    k = f.factor_dimension
    items = []
    for pole, v in f.factors:
        if pole.is_schur:
            items.append((pole, v))
        else:
            complement = np.eye(k, dtype=complex) - np.outer(v, v.conj())
            items += _reflection(pole, unitary_completion(v[:, None]).T, complement)
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
        zero = pole.flipped().value
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
