"""Lossless approximation by nonlinear least squares over the angle chart.

Fits a Schur-stable unit-circle (co)isometry of prescribed degree and
dimensions to target samples.  Candidates always live inside the feasible
set (the chart maps onto it), so the search never needs a penalty term:
origin poles of the starting point stay at the origin, every other pole
moves in polar coordinates whose radius runs through a smooth bijection
from the real line onto ``(0, 1 - RADIUS_MARGIN)``, and all angles are
unconstrained reals wrapped modulo ``2 pi`` when decoded.

A coiso member is the transpose of an iso one, so the search runs on iso
chains alone: :func:`fit_lossless` fits a coiso target as its transpose
and transposes the result back.  The degree fixes a member's poles by its
samples, and the poles fix its directions, so the first start is the
identified product: the poles a Loewner pencil identifies from one SVD
of ``x L - S`` and one standard eigenproblem (:func:`_loewner_poles`)
and the directions the samples then determine
(:func:`_identified_directions`), which usually recovers the target with
no search at all.  The ``restarts`` seeded starts follow only if it does
not, so a fit makes up to ``restarts + 1`` searches, and
``FitResult.iterations`` counts all of them.  The identification needs
numpy alone; scipy is loaded by :func:`minimize`, on the first search.
An identified pole within ``LOEWNER_ORIGIN_RADIUS`` of the origin starts
at the origin and stays there (:func:`_identified_start`): the pencil
spreads an origin pole of multiplicity ``k`` to radius about
``eps^(1/k)``, where a searched pole's radius and phase columns of the
Jacobian are proportional to that radius, so the search would crawl.

Each start builds one :class:`_ChartKernel` from its frozen template and
the samples; the kernel states the coordinate layout and encodes the
template in it, and :func:`_chart_point` decodes it.  Every finite point
of the chart is a lossless function, so the decoding makes one check: the
decoded poles and angles must be finite.  The search evaluates
:func:`_chart_residual`, which takes the coordinate vector straight to the
real view of ``values - targets`` with array operations: the origin-pole
gains are computed once, the searched poles' gains come from the product
form's own Blaschke kernel (:func:`~paraunit.forms._finite_blaschke_values`,
which also refuses a sample at a pole), the directions from one batched
chart call, and the constant from the Householder chain of
:func:`~paraunit.params.isometry_from_angles`.  It builds no parameter
object and no product form, yet refuses what :func:`objective` refuses at
the decoded parameters (:func:`_decode` reads :func:`_chart_point` too);
the objective is its squared norm.  :func:`_chart_jacobian` gives the exact
Jacobian of the residual from one prefix and one suffix sweep over the same
factor chain, so the search spends no residual evaluation on finite
differences.  :func:`objective` stays the public path; the reported
objective of a fit comes from it.
"""

from __future__ import annotations

import cmath
import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .forms import COISO, ISO, Pole, _blaschke_values, _finite_blaschke_values, _iso_product
from .params import (
    ParaunitaryParam,
    _angles_for_unit_vector,
    _isometry_derivatives,
    _unit_vector_derivatives,
    _with_leading_phase,
    angles_for_isometry,
    build_paraunitary,
    isometry_from_angles,
    random_params,
    unit_vector_from_angles,
)
from .tolerances import (
    CONVERGED_OBJECTIVE,
    FIT_EVAL_BUDGET,
    LOEWNER_ORIGIN_RADIUS,
    LOEWNER_RANK_RTOL,
    RADIUS_CHART_MARGIN,
    RADIUS_MARGIN,
)


class SampleSet:
    """Target samples ``(z_k, G_k)`` with all values sharing one shape.

    The shapes are checked before finiteness, so a set with both faults
    raises :class:`~paraunit.errors.DimensionMismatch`.  A non-finite
    sample raises ``ValueError`` naming the first one, and its point before
    its value.
    """

    def __init__(self, pairs):
        zs = []
        values = []
        for z, g in pairs:
            zs.append(complex(z))
            values.append(np.asarray(g, dtype=complex))
        if not zs:
            raise DimensionMismatch("sample set must be non-empty")
        shape = values[0].shape
        if len(shape) != 2:
            raise DimensionMismatch("sample values must be matrices")
        if any(g.shape != shape for g in values):
            raise DimensionMismatch("all sample values must share dimensions")
        self.zs = np.asarray(zs, dtype=complex)
        self.targets = np.stack(values)
        finite_points = np.isfinite(self.zs)
        finite_values = np.isfinite(self.targets).all(axis=(1, 2))
        if not (finite_points.all() and finite_values.all()):
            index = int(np.argmin(finite_points & finite_values))
            if not finite_points[index]:
                raise ValueError(f"sample {index}: point {zs[index]} is not finite")
            raise ValueError(f"sample {index}: value is not finite")

    @property
    def p(self) -> int:
        return self.targets.shape[1]

    @property
    def m(self) -> int:
        return self.targets.shape[2]

    def __len__(self) -> int:
        return self.zs.size

    def pairs(self):
        return [(complex(z), np.array(g)) for z, g in zip(self.zs, self.targets)]


@dataclass(frozen=True)
class FitResult:
    """Best parameter vector found, with the achieved objective value."""

    params: ParaunitaryParam
    objective: float
    iterations: int
    converged: bool


def objective(params: ParaunitaryParam, samples: SampleSet) -> float:
    """Sum of squared Frobenius deviations from the targets."""
    if params.p != samples.p or params.m != samples.m:
        raise DimensionMismatch(
            f"params are {params.p}x{params.m} but samples are "
            f"{samples.p}x{samples.m}"
        )
    values = build_paraunitary(params).eval_many(samples.zs)
    return float(np.sum(np.abs(values - samples.targets) ** 2))


def _chart_radius(r: float) -> float:
    """``r`` clamped to where its radius coordinate is finite."""
    return min(max(r, RADIUS_CHART_MARGIN), 1.0 - RADIUS_MARGIN - RADIUS_CHART_MARGIN)


def _radius_to_real(r: float) -> float:
    r = _chart_radius(r)
    return float(np.log(r / (1.0 - RADIUS_MARGIN - r)))


def _real_to_radius(x):
    """Logistic map of one coordinate or an array onto ``(0, 1 - RADIUS_MARGIN)``.

    Saturation-safe: extreme search steps must not underflow the radius to
    an invalid 0, so the exponent is never positive.
    """
    scale = np.exp(-np.abs(x))
    r = (1.0 - RADIUS_MARGIN) * np.where(np.greater_equal(x, 0.0), 1.0, scale) / (1.0 + scale)
    # the quotient never exceeds 1 - RADIUS_MARGIN; it can underflow to 0
    return np.maximum(r, RADIUS_CHART_MARGIN)


def _identified_start(a: complex) -> Pole:
    """The start of an identified pole ``a``: the origin, which the search
    keeps fixed, when ``|a| <= LOEWNER_ORIGIN_RADIUS``, and otherwise ``a``
    with its radius clamped into the radius chart."""
    if abs(a) <= LOEWNER_ORIGIN_RADIUS:
        return Pole(0.0)
    return Pole(_chart_radius(abs(a)) * np.exp(1j * cmath.phase(a)))


def _searched(pole: Pole) -> bool:
    """Whether the search moves ``pole``: origin poles stay where they are."""
    return not pole.is_infinity and pole.value != 0


class _ChartKernel:
    """What :func:`_chart_residual` needs of one start, computed once, and
    the one statement of the coordinate layout.

    The template is iso, and the ``(N, p, m)`` targets at the points ``zs``
    are those of the function it fits (:func:`fit_lossless` hands a coiso
    fit over as its transpose).  The coordinates of a template run: the
    radius and phase coordinates of each searched pole, interleaved, then
    one row of ``2 (p - 1)`` angles per factor direction, then the frame
    angles; the slices ``radii``, ``thetas``, ``directions`` and ``frame``
    read them, and ``start`` is the template's own coordinate vector, built
    through the same slices.  The search moves no origin or infinite pole
    of the template, so their gains ``phi - 1`` are the same at every call;
    only the rows of searched poles are recomputed.  A start builds one
    factor chain from its kernel (:func:`_start_values`), which gives the
    start's value, its Procrustes frame and the value of the snapped trial.
    """

    def __init__(self, template: ParaunitaryParam, zs: np.ndarray, targets: np.ndarray):
        self.template = template
        self.zs = zs
        self.targets = targets
        self.k = template.p
        searched = [_searched(pole) for pole in template.poles]
        self.searched_rows = np.flatnonzero(searched)
        fixed = np.flatnonzero(np.logical_not(searched))
        self.gains = np.empty((template.d, zs.size), dtype=complex)
        self.gains[fixed] = _blaschke_values([template.poles[j] for j in fixed], zs) - 1.0
        radii_end = 2 * self.searched_rows.size
        self.radii = slice(0, radii_end, 2)
        self.thetas = slice(1, radii_end, 2)
        self.direction_shape = (template.d, 2 * (self.k - 1))
        self.directions = slice(radii_end, radii_end + template.d * 2 * (self.k - 1))
        self.frame = slice(self.directions.stop, None)
        self.size = self.directions.stop + len(template.frame)
        self.start = np.empty(self.size)
        alphas = [template.poles[j].value for j in self.searched_rows]
        self.start[self.radii] = [_radius_to_real(abs(alpha)) for alpha in alphas]
        self.start[self.thetas] = [cmath.phase(alpha) for alpha in alphas]
        self.start[self.directions] = np.ravel(template.directions)
        self.start[self.frame] = template.frame


def _chart_point(x, kernel: _ChartKernel):
    """What the coordinates ``x`` decode to in the kernel's layout:
    ``(radii, turns, alphas, rows, frame)``.

    ``radii``, ``turns = exp(i theta)`` and ``alphas = radii * turns``
    belong to the searched poles, ``rows`` is the ``(d, 2 (k - 1))`` array
    of direction angles and ``frame`` holds the frame angles; every angle is
    wrapped modulo ``2 pi``.

    This is the chart's one check.  A ``ValueError`` refuses coordinates
    that decode to a non-finite ``alpha``, direction angle or frame angle:
    a nan coordinate, or an infinite phase or angle.  It is raised before
    any gain is computed, and no numpy warning precedes it.  An infinite
    radius coordinate decodes to a legal radius.  Finite coordinates need
    no other test: the radius chart keeps every radius at least
    ``RADIUS_MARGIN`` inside the circle, and
    ``RADIUS_MARGIN > POLE_CIRCLE_MARGIN``; the angle charts give unit
    directions and an isometric constant.
    """
    x = np.asarray(x, dtype=float)
    # an infinite angle wraps to nan, which the test below refuses
    with np.errstate(invalid="ignore"):
        wrapped = np.mod(x, 2.0 * np.pi)
    radii = _real_to_radius(x[kernel.radii])
    turns = np.exp(1j * wrapped[kernel.thetas])
    alphas = radii * turns
    if not (np.isfinite(alphas).all() and np.isfinite(wrapped[kernel.directions.start :]).all()):
        raise ValueError("chart coordinates decode to a non-finite pole or angle")
    rows = wrapped[kernel.directions].reshape(kernel.direction_shape)
    return radii, turns, alphas, rows, wrapped[kernel.frame]


def _decode(x: np.ndarray, kernel: _ChartKernel) -> ParaunitaryParam:
    """The parameters of the kernel's template at the coordinates ``x``."""
    _, _, alphas, rows, frame = _chart_point(x, kernel)
    poles = list(kernel.template.poles)
    for j, alpha in zip(kernel.searched_rows, alphas):
        poles[j] = Pole(alpha)
    return replace(kernel.template, poles=tuple(poles), directions=rows, frame=frame)


def _chart_chain(point, kernel: _ChartKernel):
    """``(gains, directions, constant)`` of the iso product that
    :func:`_chart_residual` evaluates at the decoded ``point``
    (:func:`_chart_point`, which has refused a non-finite point).

    ``gains`` is the ``(d, N)`` array of ``phi_j - 1`` at the samples, the
    searched rows from the product form's own Blaschke kernel.
    """
    _, _, alphas, rows, frame = point
    k = kernel.k
    directions = unit_vector_from_angles(k, rows[:, : k - 1], _with_leading_phase(rows[:, k - 1 :]))
    constant = isometry_from_angles(k, kernel.template.m, frame)
    gains = kernel.gains.copy()
    gains[kernel.searched_rows] = _finite_blaschke_values(alphas, kernel.zs) - 1.0
    return gains, directions, constant


def _chart_residual(x, kernel: _ChartKernel) -> np.ndarray:
    """Real view of ``values - targets`` at ``_decode(x, kernel)``, computed
    with array operations."""
    values = _iso_product(*_chart_chain(_chart_point(x, kernel), kernel))
    return (values - kernel.targets).ravel().view(float)


def _chart_jacobian(x, kernel: _ChartKernel) -> np.ndarray:
    """Exact real Jacobian of :func:`_chart_residual` at ``x``, one column
    per coordinate; it refuses what :func:`_chart_residual` refuses.

    With the prefix ``L_j = B_1 ... B_{j-1}`` and the suffix
    ``R_j = B_{j+1} ... B_d U`` of the factor chain
    ``B_j = I + g_j v_j v_j*``, a coordinate of factor ``j`` moves the
    product by ``L_j dB_j R_j`` and a frame angle by ``B_1 ... B_d dU``.
    A pole moves ``g = (1 - conj(a) z) / (z - a) - 1`` by
    ``dg/da = (g + 1) / (z - a)`` and ``dg/d conj(a) = -z / (z - a)``; its
    radius coordinate also carries the logistic factor
    ``r (1 - r / (1 - RADIUS_MARGIN))``, zero where the radius is clamped.
    A direction moves ``v v*`` by ``dv v* + v dv*``.  The wrap modulo
    ``2 pi`` has derivative 1.
    """
    point = _chart_point(x, kernel)
    gains, directions, constant = _chart_chain(point, kernel)
    radii, turns, alphas, rows, frame_angles = point
    d, n = gains.shape
    k, width = constant.shape
    # a_j = L_j v_j and b_j = v_j* R_j
    prefix = np.empty((d + 1, n, k, k), dtype=complex)
    prefix[0] = np.eye(k)
    suffix = np.empty((d, n, k, width), dtype=complex)
    a = np.empty((d, n, k), dtype=complex)
    b = np.empty((d, n, width), dtype=complex)
    for j in range(d):
        a[j] = prefix[j] @ directions[j]
        prefix[j + 1] = prefix[j] + (gains[j, :, None] * a[j])[:, :, None] * directions[j].conj()
    right = constant
    for j in range(d - 1, -1, -1):
        suffix[j] = right
        b[j] = directions[j].conj() @ suffix[j]
        right = suffix[j] + (gains[j, :, None] * b[j])[:, None, :] * directions[j][:, None]
    jac = np.empty((kernel.size, n, k, width), dtype=complex)

    by_gain = a[kernel.searched_rows, :, :, None] * b[kernel.searched_rows, :, None, :]
    turn, alphas = turns[:, None], alphas[:, None]
    phis = gains[kernel.searched_rows] + 1.0
    offsets = kernel.zs - alphas
    scale = np.exp(-np.abs(np.asarray(x, dtype=float)[kernel.radii]))
    # the logistic factor, written without its cancellation near the top
    slopes = np.where(radii > RADIUS_CHART_MARGIN, (1.0 - RADIUS_MARGIN) * scale / (1.0 + scale) ** 2, 0.0)
    by_radius = slopes[:, None] * (phis * turn - kernel.zs * turn.conj()) / offsets
    by_theta = 1j * (alphas * phis + alphas.conj() * kernel.zs) / offsets
    jac[kernel.radii] = by_radius[:, :, None, None] * by_gain
    jac[kernel.thetas] = by_theta[:, :, None, None] * by_gain

    by_angle = _unit_vector_derivatives(k, rows[:, : k - 1], _with_leading_phase(rows[:, k - 1 :]))
    # the leading phase is fixed to zero, so it has no coordinate
    dv = np.delete(by_angle, k - 1, axis=1)
    # L_j dv and dv* R_j as (d, angles, N, k) and (d, angles, N, width),
    # each one matrix product per factor
    angles = dv.shape[1]
    left = dv @ prefix[:d].transpose(0, 3, 1, 2).reshape(d, k, n * k)
    right = dv.conj() @ suffix.transpose(0, 2, 1, 3).reshape(d, k, n * width)
    left = left.reshape(d, angles, n, k, 1)
    right = right.reshape(d, angles, n, 1, width)
    by_direction = left * b[:, None, :, None, :] + a[:, None, :, :, None] * right
    by_direction *= gains[:, None, :, None, None]
    jac[kernel.directions] = by_direction.reshape(-1, n, k, width)

    frame = _isometry_derivatives(k, width, frame_angles)
    # B_1 ... B_d dU for every frame angle, as one matrix product
    by_frame = prefix[d].reshape(n * k, k) @ frame.transpose(1, 0, 2).reshape(k, -1)
    jac[kernel.frame] = by_frame.reshape(n, k, -1, width).transpose(2, 0, 1, 3)
    return jac.reshape(kernel.size, -1).view(float).T


def minimize(x: np.ndarray, kernel: _ChartKernel):
    """One restart's local search from ``x``: a ``dogbox`` trust-region
    least-squares solve of the kernel's residual, with the exact Jacobian of
    :func:`_chart_jacobian` and at most
    :data:`~paraunit.tolerances.FIT_EVAL_BUDGET` residual evaluations.
    scipy.optimize is imported here, on the first search, because loading
    it costs more than most CLI commands and only the fit calls it."""
    from scipy.optimize import least_squares

    return least_squares(
        _chart_residual, x, jac=_chart_jacobian, args=(kernel,), method="dogbox",
        max_nfev=FIT_EVAL_BUDGET,
    )


def _squared_distance(chain: np.ndarray, constant: np.ndarray, targets: np.ndarray) -> float:
    """``||chain constant - targets||^2`` for the ``(N, k, k)`` values of a
    factor chain, with one ``(N k x k) @ (k x m)`` matrix product."""
    values = (chain.reshape(-1, constant.shape[0]) @ constant).reshape(targets.shape)
    residual = (values - targets).ravel().view(float)
    return float(residual @ residual)


def _start_values(x, kernel: _ChartKernel):
    """``(value, frame, trial_value)`` of a start ``x``, from one factor chain.

    ``value`` is the objective at ``x``.  ``frame`` holds the chart angles
    of the closed-form best constant block for the chain at ``x``: on (or
    near) the unit circle the chain is pointwise unitary, so minimizing over
    the constant alone is an orthogonal Procrustes problem (Schonemann,
    1966), solved by the polar factor of ``sum_z P(z)* T(z)`` for the chain
    values ``P`` and the targets ``T``.  ``trial_value`` is the objective
    with the frame angles of ``x`` replaced by ``frame``.  The chain is
    built once, and ``x`` is refused as :func:`_chart_residual` refuses it;
    ``frame`` has passed the isometry test of
    :func:`~paraunit.params.angles_for_isometry`.
    """
    gains, directions, constant = _chart_chain(_chart_point(x, kernel), kernel)
    chain = _iso_product(gains, directions, np.eye(kernel.k, dtype=complex))
    value = _squared_distance(chain, constant, kernel.targets)
    accumulated = np.einsum("nij,nil->jl", chain.conj(), kernel.targets)
    w, _, vh = np.linalg.svd(accumulated)
    frame = angles_for_isometry(w[:, : accumulated.shape[1]] @ vh)
    # wrapped as _chart_point wraps the trial's coordinates
    trial = isometry_from_angles(kernel.k, kernel.template.m, np.mod(frame, 2.0 * np.pi))
    return value, frame, _squared_distance(chain, trial, kernel.targets)


def _identified_directions(kernel: _ChartKernel):
    """The direction rows, in the kernel's layout, of the product with the
    template's poles that the kernel's samples determine, or ``None``.

    The samples walk the chain of :func:`_chart_chain` one factor at a
    time.  The pole ``a`` of the first factor left is a pole of order ``q``
    of what is left, its multiplicity among the poles left (only exactly
    equal values repeat, as origin poles do), and the coefficient of
    ``(z - a)^-q`` has the range of the factor's direction ``v``.  One
    least-squares solve of the samples on ``{1}`` and each ``(z - b)^-s`` of
    the poles left gives that coefficient (the fixed-pole residue step of
    vector fitting, Gustavsen & Semlyen 1999), ``v`` is its leading left
    singular vector, and the samples are multiplied by the factor's inverse
    ``I + (1/phi - 1) v v*``.
    ``None`` means a step was not finite or a coefficient was zero.
    """
    alphas = np.array([pole.value for pole in kernel.template.poles], dtype=complex)
    phis = _finite_blaschke_values(alphas, kernel.zs)
    if not phis.all():
        return None
    inverse_gains = 1.0 / phis - 1.0
    zs, values = kernel.zs, kernel.targets
    rows = np.empty(kernel.direction_shape)
    for j, alpha in enumerate(alphas):
        # alpha is the first key, so columns 1 to q hold its powers
        multiplicity = Counter(alphas[j:].tolist())
        basis = [np.ones_like(zs)]
        basis += [(zs - b) ** -s for b, q in multiplicity.items() for s in range(1, q + 1)]
        solution = np.linalg.lstsq(np.stack(basis, axis=1), values.reshape(zs.size, -1), rcond=None)[0]
        coefficient = solution[multiplicity[alpha]].reshape(values.shape[1:])
        if not (np.isfinite(coefficient).all() and coefficient.any()):
            return None
        v = np.linalg.svd(coefficient)[0][:, 0]
        values = values + (inverse_gains[j, :, None] * (v.conj() @ values))[:, None, :] * v[:, None]
        polar, phases = _angles_for_unit_vector(v * np.exp(-1j * np.angle(v[0])))
        rows[j] = np.concatenate([polar, phases[1:]])
    return rows


def _loewner_poles(samples: SampleSet, d: int):
    """The ``d`` poles a degree-``d`` target's samples determine, from a
    tangential Loewner pencil (Mayo & Antoulas, 2007), or ``None``.

    The even samples are the right points ``lam_i``, the odd ones the left
    points ``mu_j``, with the cycled unit directions ``r_i = e_{i mod m}``
    and ``l_j = e_{j mod p}``.  The Loewner and shifted Loewner matrices

        ``L_ji = l_j (G(mu_j) - G(lam_i)) r_i / (mu_j - lam_i)``
        ``S_ji = l_j (mu_j G(mu_j) - lam_i G(lam_i)) r_i / (mu_j - lam_i)``

    are projected onto the numerical rank of ``x L - S`` at the first right
    point ``x = lam_0``, built directly as
    ``l_j ((x - mu_j) G(mu_j) - (x - lam_i) G(lam_i)) r_i / (mu_j - lam_i)``,
    so ``S`` itself is never formed.  When the samples fix the member,
    ``x L - S`` has the rank of ``[L S]`` and of ``[L; S]`` (Antoulas,
    Lefteriu & Ionita, 2017), so its one SVD gives both projections, its
    leading left singular vectors ``U_r`` for the rows and right ones
    ``V_r`` for the columns.  Then
    ``U_r* (x L - S) V_r = diag(s_r)``, so the projected pencil's
    eigenvalues are ``a = x - 1/nu`` for the eigenvalues ``nu`` of the
    standard problem ``diag(s_r)^-1 U_r* L V_r`` (the shift-invert
    transform; Saad, 2011), and ``nu = 0`` is an infinite one.  The ``d``
    finite eigenvalues of smallest modulus come back, in that order.
    A constant term adds at most ``min(p, m)`` to the rank, as infinite
    eigenvalues, so a degree-``d`` member's pencil has rank at most
    ``d + min(p, m)``.  The projection keeps no more than that, which drops
    the directions noise adds, and the pencil must have more rows and
    columns than that to fix the poles.  ``None`` means nothing was
    identified: ``d = 0``, a pencil that small, a right point equal to a
    left one, or fewer than ``d`` finite eigenvalues.
    """
    lam, mu = samples.zs[0::2], samples.zs[1::2]
    bound = d + min(samples.p, samples.m)
    if d == 0 or min(lam.size, mu.size) <= bound:
        return None
    gaps = mu[:, None] - lam
    if not gaps.all():
        return None
    right = np.arange(lam.size) % samples.m
    left = np.arange(mu.size) % samples.p
    # l_j G(lam_i) r_i and l_j G(mu_j) r_i, rows j and columns i
    at_lam = samples.targets[0::2][np.arange(lam.size), :, right][:, left].T
    at_mu = samples.targets[1::2][np.arange(mu.size), left, :][:, right]
    x = lam[0]
    loewner = (at_mu - at_lam) / gaps
    pencil = ((x - mu)[:, None] * at_mu - (x - lam) * at_lam) / gaps  # x L - S
    rows, singular, columns = np.linalg.svd(pencil, full_matrices=False)
    rank = min(int(np.count_nonzero(singular > LOEWNER_RANK_RTOL * singular[0])), bound)
    rows, columns = rows[:, :rank].conj().T, columns[:rank].conj().T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = x - 1.0 / np.linalg.eigvals(rows @ loewner @ columns / singular[:rank, None])
    finite = values[np.isfinite(values)]
    if finite.size < d:
        return None
    return finite[np.argsort(np.abs(finite), kind="stable")[:d]]


def fit_lossless(
    samples: SampleSet,
    d: int,
    p: int,
    m: int,
    side: str | None = None,
    seed: int = 0,
    restarts: int = 8,
) -> FitResult:
    """Best-of-starts least-squares fit over the Schur-stable chart.

    A coiso fit runs as the iso fit of the transposed targets, and its best
    parameters are transposed back (:meth:`ParaunitaryParam.transpose`), so
    every search runs on an iso chain.  When :func:`_loewner_poles`
    identifies the ``d`` poles from the samples, the first start is the
    identified product: the frame of restart 0's seeded draw (drawn once,
    for both starts), every pole
    from the identification (:func:`_identified_start`: a pole of modulus
    at most ``LOEWNER_ORIGIN_RADIUS`` starts at the origin, where it stays,
    and any other with its radius clamped into the radius chart), and the
    directions the samples determine for these poles
    (:func:`_identified_directions`), or the draw's own when that finds
    nothing.  The ``restarts`` seeded draws follow (their origin poles stay
    at the origin for the whole search), so a fit makes at most
    ``restarts + 1`` searches.  Each start evaluates its factor chain once
    (:func:`_start_values`), which gives its objective, the frame of its
    closed-form (Procrustes) constant block and the objective with that
    frame; the start snaps to that frame when it lowers the objective, and
    runs one :func:`minimize` from there unless the start already
    converged.  The loop stops at the first objective below
    ``CONVERGED_OBJECTIVE``.  The overall best candidate wins, and any
    returned candidate is (co)isometric on the circle by construction,
    whatever the fit quality.  ``iterations`` counts the residual
    evaluations of every search (scipy's ``nfev``; the Jacobian is exact
    and evaluates no residual), and ``converged`` means the reported
    objective, that of the returned parameters on ``samples``, is below
    ``CONVERGED_OBJECTIVE``.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if side is None:
        side = ISO if p >= m else COISO
    if samples.p != p or samples.m != m:
        raise DimensionMismatch(
            f"samples are {samples.p}x{samples.m}, requested {p}x{m}"
        )
    if len(samples) < 2 * d + 1:
        raise DimensionMismatch(
            f"need at least {2 * d + 1} samples for degree {d}, got {len(samples)}"
        )
    transposed = side != ISO
    targets = samples.targets.swapaxes(1, 2) if transposed else samples.targets

    def draw(restart):
        template = random_params(seed + restart, side, p, m, d, schur_only=True)
        return template.transpose() if transposed else template

    # (template, whether it is the identified product), drawn one at a
    # time: most fits stop at the first start, which takes restart 0's frame
    first = draw(0)
    starts = ((draw(restart) if restart else first, False) for restart in range(restarts))
    identified = _loewner_poles(samples, d)
    if identified is not None:
        poles = tuple(_identified_start(a) for a in identified)
        starts = itertools.chain([(replace(first, poles=poles), True)], starts)
    best_x = None
    best_kernel = None
    best_value = np.inf
    evaluations = 0
    for template, product in starts:
        kernel = _ChartKernel(template, samples.zs, targets)
        x = kernel.start.copy()
        rows = _identified_directions(kernel) if product else None
        if rows is not None:
            x[kernel.directions] = rows.ravel()
        # every chart has at least one frame angle, as m (2p - m) >= 1
        value, frame, trial_value = _start_values(x, kernel)
        if trial_value < value:
            x[kernel.frame], value = frame, trial_value
        if value >= CONVERGED_OBJECTIVE:
            result = minimize(x, kernel)
            evaluations += int(result.nfev)
            # scipy's cost is half the squared residual norm
            if 2.0 * result.cost < value:
                x, value = result.x, 2.0 * float(result.cost)
        if value < best_value:
            best_value = value
            best_x = x
            best_kernel = kernel
        if best_value < CONVERGED_OBJECTIVE:
            break
    best_params = _decode(best_x, best_kernel)
    if transposed:
        best_params = best_params.transpose()
    best_value = objective(best_params, samples)
    return FitResult(
        params=best_params,
        objective=best_value,
        iterations=evaluations,
        converged=bool(best_value < CONVERGED_OBJECTIVE),
    )
