"""Certification tests for unit-circle (co)isometry.

Three independent characterizations are implemented:

* direct sampling of ``F*F - I`` (or ``F F* - I``) on the unit circle,
* the realization-matrix (co)isometry condition for Schur-stable
  state-space forms, together with the gramian certificates,
* block-Hankel conditions on matrix-fraction and Laurent coefficients.

The Hankel and realization tests are exact certificates.  For a form of
degree ``g``, ``F*F - I`` on the circle is a ratio of trigonometric
polynomials of degree at most ``g``, so in exact arithmetic a zero defect at
its ``>= 2 g + 1`` sample points proves that the defect vanishes on
the whole circle; a positive tolerance still does not bound the defect
between samples.  Every test returns a :class:`Certificate` carrying the raw
residual so callers can re-threshold; default tolerances come from
:mod:`paraunit.tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SideMismatch
from .forms import (
    LEFT,
    RIGHT,
    BlaschkePotapovForm,
    LaurentPolyForm,
    MFDForm,
    StateSpaceRealization,
)
# perfbench/tracing.py shims analysis.evaluate, analysis.spectral_radius and
# analysis.hermitian_eig, so these names stay importable here
from .forms import evaluate  # noqa: F401
from .linalg import _finite_norm, hermitian_eig, solve_stein, spectral_radius  # noqa: F401
from .tolerances import (
    CIRCLE_SAMPLES,
    CIRCLE_TOL,
    DEGREE_RANK_TOL,
    GRAMIAN_TOL,
    HANKEL_TOL,
    REALIZATION_TOL,
)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a single certification test.

    ``verdict`` is ``"Pass"`` exactly when ``residual <= tolerance`` and the
    residual is finite: an infinite residual marks products that overflowed,
    and fails even a tolerance that overflowed with them.  The raw residual
    is always kept so callers can apply their own threshold.
    ``witness`` optionally carries the residual matrix or an eigenvalue list.
    """

    name: str
    residual: float
    tolerance: float
    witness: object = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tolerance

    @property
    def verdict(self) -> str:
        return "Pass" if self.passed else "Fail"


def _circle_degree(form) -> int:
    """Degree that sets the default circle sample count of ``form``."""
    if isinstance(form, BlaschkePotapovForm):
        return form.d
    if isinstance(form, StateSpaceRealization):
        return form.n
    if isinstance(form, MFDForm):
        return form.degree * form.den[0].shape[0]
    if isinstance(form, LaurentPolyForm):
        return form.gamma
    raise TypeError(f"cannot sample object of type {type(form).__name__}")


def circle_residual(form, tol: float = CIRCLE_TOL) -> Certificate:
    """Worst deviation from (co)isometry over equispaced circle points.

    Evaluates the form at ``z_k = exp(2 pi i k / N)`` in one ``eval_many``
    call and reports the largest Frobenius norm of ``F*F - I_m`` (tall case)
    or ``F F* - I_p`` (wide case); the witness is that matrix at the last
    point reaching the maximum.

    ``N`` is ``max(CIRCLE_SAMPLES, 2 * degree + 1)``, with the degree ``d``
    of a product form, ``n`` of a realization, ``gamma`` of a Laurent
    polynomial, and the polynomial degree times the denominator size of a
    matrix fraction.  For such a degree ``g``, ``F*F - I`` on the circle is
    a ratio of trigonometric polynomials of degree at most ``g`` (a
    trigonometric polynomial for a Laurent form): its numerator cannot
    vanish at ``2 g + 1`` equispaced points unless it vanishes everywhere,
    while ``2 g`` or fewer points can alias a failing form to a pass.
    """
    samples = max(CIRCLE_SAMPLES, 2 * _circle_degree(form) + 1)
    values = form.eval_many(np.exp(2j * np.pi * np.arange(samples) / samples))
    adjoints = values.conj().swapaxes(1, 2)
    if form.p >= form.m:
        grams = adjoints @ values - np.eye(form.m)
    else:
        grams = values @ adjoints - np.eye(form.p)
    deviations = np.linalg.norm(grams, axis=(1, 2))
    worst = samples - 1 - int(np.argmax(deviations[::-1]))
    return Certificate("circle_residual", float(deviations[worst]), tol, witness=grams[worst])


def realization_check(ss: StateSpaceRealization, tol: float = REALIZATION_TOL) -> Certificate:
    """(Co)isometry of the realization matrix ``R = [[A, B], [C, D]]``.

    Tall systems must satisfy ``R* R = I``, wide systems ``R R* = I``;
    square systems are held to both (the reported residual is the larger
    one).  For a Schur-stable system this is the exact losslessness
    certificate.  Entries too large for the Gram products give an ``inf``
    residual.
    """
    r = ss.realization_matrix
    n, p, m = ss.n, ss.p, ss.m
    with np.errstate(over="ignore", invalid="ignore"):
        if p >= m:
            iso_gram = r.conj().T @ r - np.eye(n + m)
            iso_res = _finite_norm(iso_gram)
        if m >= p:
            coiso_gram = r @ r.conj().T - np.eye(n + p)
            coiso_res = _finite_norm(coiso_gram)
    if p > m:
        return Certificate("realization_isometry", iso_res, tol, witness=iso_gram)
    if m > p:
        return Certificate("realization_coisometry", coiso_res, tol, witness=coiso_gram)
    return Certificate(
        "realization_unitary",
        max(iso_res, coiso_res),
        tol,
        witness=np.array([iso_res, coiso_res]),
    )


def _gramians(ss: StateSpaceRealization):
    """``(w_cont, w_obs)`` of ``ss``, solved on first use and kept, read-only, on ``ss``.

    ``solve_stein`` raises ``NotSchurStable`` near the circle, and then nothing
    is kept.  The blocks of ``ss`` are read-only, so the pair cannot go stale.
    """
    if ss._gramians is None:
        w_cont = solve_stein(ss.a, ss.b @ ss.b.conj().T, side="cont")
        w_obs = solve_stein(ss.a, ss.c.conj().T @ ss.c, side="obs")
        w_cont.setflags(write=False)
        w_obs.setflags(write=False)
        ss._gramians = w_cont, w_obs
    return ss._gramians


def gramian_certificate(ss: StateSpaceRealization, tol: float = GRAMIAN_TOL):
    """Gramians of a Schur-stable realization plus the losslessness tests.

    Solves ``W_cont - A W_cont A* = B B*`` and ``W_obs - A* W_obs A = C* C``.
    A lossless tall system in this realization class has ``W_obs = I`` and
    ``I - W_cont`` positive semidefinite; wide systems mirror the roles, and
    square systems have both gramians equal to the identity.  A contraction
    certificate's witness is the eigenvalue list of ``I - W``.

    Returns ``(w_cont, w_obs, certificates)``.  The gramians are solved once
    per realization and shared with later calls and with
    :func:`mcmillan_degree`, so both arrays are read-only.
    """
    n, p, m = ss.n, ss.p, ss.m
    w_cont, w_obs = _gramians(ss)
    eye = np.eye(n)

    def identity_cert(name, w):
        return Certificate(name, float(np.linalg.norm(w - eye)), tol, witness=w - eye)

    def contraction_cert(name, w):
        if n == 0:
            return Certificate(name, 0.0, tol, witness=np.zeros(0))
        values = np.linalg.eigvalsh(eye - w)  # solve_stein returns w exactly Hermitian
        return Certificate(name, max(0.0, -float(values[0])), tol, witness=values)

    if p > m:
        certs = [
            identity_cert("gramian_obs_identity", w_obs),
            contraction_cert("gramian_cont_contraction", w_cont),
        ]
    elif m > p:
        certs = [
            identity_cert("gramian_cont_identity", w_cont),
            contraction_cert("gramian_obs_contraction", w_obs),
        ]
    else:
        certs = [
            identity_cert("gramian_cont_identity", w_cont),
            identity_cert("gramian_obs_identity", w_obs),
        ]
    return w_cont, w_obs, certs


def _autocorrelation(coeffs) -> np.ndarray:
    """Lags ``sum_i c_{i+j}* c_i`` (``j = 0 .. L``) of a coefficient list, stacked.

    This is the first block column of ``H* H`` for the anti-diagonal block
    Hankel matrix ``H`` with block ``(i, j)`` equal to ``c_{i+j}`` (zero past
    the last coefficient), computed without building ``H``: block column
    ``j`` of ``H`` is a window of the zero-padded coefficient stack, and all
    windows are one strided view of it.
    """
    c = np.asarray(coeffs, dtype=complex)
    count, rows, cols = c.shape
    size = count * rows
    stacked = np.zeros((2 * size, cols), dtype=complex)
    stacked[:size] = c.reshape(size, cols)
    step, inner = stacked.strides
    # windows[j] is the transpose of rows j * rows .. j * rows + size - 1 of stacked
    windows = np.ndarray((count, cols, size), complex, buffer=stacked, strides=(rows * step, inner, step))
    return (windows @ stacked[:size].conj()).conj().reshape(-1, cols)


def _hankel_certificate(name, num, den, tol) -> Certificate:
    """Certificate on the first block column of ``H_den* H_den - H_num* H_num``.

    Overflowing coefficients give an ``inf`` residual.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        witness = _autocorrelation(den) - _autocorrelation(num)
        residual = _finite_norm(witness)
    return Certificate(name, residual, tol, witness=witness)


def mfd_check(mfd: MFDForm, tol: float | None = None) -> Certificate:
    """Hankel certificate for a matrix-fraction description.

    Right fractions (``p >= m``) must satisfy
    ``(H_den* H_den - H_num* H_num) @ [I_m; 0] = 0`` and left fractions
    (``m >= p``) the same condition on the conjugate-transposed
    coefficients, i.e. the first block column of
    ``H_den H_den* - H_num H_num*``.  Coprimeness of the fraction is not
    required.  The default tolerance scales with the squared Frobenius mass
    of the denominator coefficients.  Coefficients too large for the
    products give an ``inf`` residual.
    """
    p, m = mfd.p, mfd.m
    if mfd.side == RIGHT and p < m:
        raise SideMismatch(f"right-side test requires p >= m, got p={p}, m={m}")
    if mfd.side == LEFT and m < p:
        raise SideMismatch(f"left-side test requires m >= p, got p={p}, m={m}")
    num, den = np.array(mfd.num), np.array(mfd.den)
    if mfd.side == LEFT:
        num, den = num.conj().swapaxes(1, 2), den.conj().swapaxes(1, 2)
    if tol is None:
        with np.errstate(over="ignore"):
            tol = HANKEL_TOL * (1.0 + float(np.linalg.norm(den) ** 2))
    return _hankel_certificate(f"mfd_hankel_{mfd.side}", num, den, tol)


def laurent_check(lp: LaurentPolyForm, tol: float = HANKEL_TOL) -> Certificate:
    """Hankel certificate for a Laurent polynomial.

    The Laurent form is the fraction with denominator ``[I, 0, ...]``, so
    this tests ``(I - H0* H0) @ [I_m; 0] = 0`` for ``p >= m`` and the same
    condition on the conjugate-transposed coefficients for ``m > p``.  The
    verdict does not depend on the exponent offset ``q``.
    """
    coeffs = np.array(lp.coeffs)
    name = "laurent_hankel_tall"
    if lp.p < lp.m:
        coeffs, name = coeffs.conj().swapaxes(1, 2), "laurent_hankel_wide"
    den = np.zeros((len(coeffs), coeffs.shape[2], coeffs.shape[2]), dtype=complex)
    den[0] = np.eye(coeffs.shape[2])
    return _hankel_certificate(name, coeffs, den, tol)


def mcmillan_degree(ss: StateSpaceRealization) -> int:
    """Hankel rank of a Schur-stable realization.

    Counts the squared Hankel singular values exceeding ``DEGREE_RANK_TOL``:
    the eigenvalues of ``F* W_obs F`` for the factor ``F = V diag(sqrt(l))``
    of ``W_cont = V diag(l) V*`` (negative rounding in ``l`` clipped to
    zero).  They are those of ``W_cont^{1/2} W_obs W_cont^{1/2}``, which is
    ``F* W_obs F`` conjugated by the unitary ``V``.
    """
    if ss.n == 0:
        return 0
    w_cont, w_obs = _gramians(ss)
    values, vectors = np.linalg.eigh(w_cont)
    factor = vectors * np.sqrt(np.clip(values, 0.0, None))
    product_values = np.linalg.eigvalsh(factor.conj().T @ w_obs @ factor)
    return int(np.count_nonzero(product_values > DEGREE_RANK_TOL))
