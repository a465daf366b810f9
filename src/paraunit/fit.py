"""Lossless approximation by nonlinear least squares over the angle chart.

Fits a Schur-stable unit-circle (co)isometry of prescribed degree and
dimensions to target samples.  Candidates always live inside the feasible
set (the chart maps onto it), so the search never needs a penalty term:
origin poles of the starting point stay at the origin, every other pole
moves in polar coordinates whose radius runs through a smooth bijection
from the real line onto ``(0, 1 - RADIUS_MARGIN)``, and all angles are
unconstrained reals wrapped modulo ``2 pi`` when decoded.

The degree fixes a member's poles by its samples, so the first restarts
start from the poles a Loewner pencil identifies (:func:`_loewner_poles`),
with seeded directions and frame; the plain seeded restarts follow only if
none of those recovers the target.  ``restarts`` may therefore mean up to
``2 * restarts`` searches, and ``FitResult.iterations`` counts all of them.
An identified pole within ``LOEWNER_ORIGIN_RADIUS`` of the origin starts
at the origin and stays there (:func:`_identified_start`): the pencil
spreads an origin pole of multiplicity ``k`` to radius about
``eps^(1/k)``, where a searched pole's radius and phase columns of the
Jacobian are proportional to that radius, so the search would crawl.

Each restart builds one :class:`_ChartKernel` from its frozen template and
the samples; the kernel states the coordinate layout, which
:func:`_chart_point` decodes.  The search evaluates :func:`_chart_residual`,
which takes the coordinate vector straight to the real view of
``values - targets`` with array operations: the origin-pole gains and the
(transposed, for coiso) targets are computed once, the searched poles'
gains come from the product form's own Blaschke kernel
(:func:`~paraunit.forms._finite_blaschke_values`, which also refuses a
sample at a pole), the directions from one batched chart call, and the
constant from the Householder chain of
:func:`~paraunit.params.isometry_from_angles`.  It builds no parameter
object and no product form, yet makes every check that path makes; the
objective is its squared norm.  :func:`_chart_jacobian` gives the exact
Jacobian of the residual from one prefix and one suffix sweep over the same
factor chain, so the search spends no residual evaluation on finite
differences.  :func:`objective` stays the public path; the reported
objective of a fit comes from it.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import AngleCountMismatch, DimensionMismatch
from .forms import COISO, ISO, Pole, _blaschke_values, _finite_blaschke_values, _iso_product
from .linalg import isometry_residual
from .params import (
    ParaunitaryParam,
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
    DIRECTION_NORM_SLACK,
    FIT_EVAL_BUDGET,
    ISOMETRY_TOL,
    LOEWNER_ORIGIN_RADIUS,
    LOEWNER_RANK_RTOL,
    POLE_CIRCLE_MARGIN,
    RADIUS_CHART_MARGIN,
    RADIUS_MARGIN,
)


class SampleSet:
    """Target samples ``(z_k, G_k)`` with all values sharing one shape."""

    def __init__(self, pairs):
        zs = []
        values = []
        for index, (z, g) in enumerate(pairs):
            zs.append(complex(z))
            values.append(np.asarray(g, dtype=complex))
            if not cmath.isfinite(zs[-1]):
                raise ValueError(f"sample {index}: point {zs[-1]} is not finite")
            if not np.isfinite(values[-1]).all():
                raise ValueError(f"sample {index}: value is not finite")
        if not zs:
            raise DimensionMismatch("sample set must be non-empty")
        shape = values[0].shape
        if len(shape) != 2:
            raise DimensionMismatch("sample values must be matrices")
        for g in values:
            if g.shape != shape:
                raise DimensionMismatch("all sample values must share dimensions")
        self.zs = np.asarray(zs, dtype=complex)
        self.targets = np.stack(values)

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


def _encode(params: ParaunitaryParam) -> np.ndarray:
    coords = []
    for pole in params.poles:
        if _searched(pole):
            coords.append(_radius_to_real(abs(pole.value)))
            coords.append(cmath.phase(pole.value))
    coords.extend(params.angle_vector())
    return np.asarray(coords, dtype=float)


class _ChartKernel:
    """What :func:`_chart_residual` needs of one restart, computed once, and
    the one statement of the coordinate layout.

    The coordinates of a template run: the radius and phase coordinates of
    each searched pole, interleaved, then one row of ``2 (k - 1)`` angles
    per factor direction, then the frame angles; the slices ``radii``,
    ``thetas``, ``directions`` and ``frame`` read them.  The search moves no
    origin or infinite pole of the template, so their gains ``phi - 1`` are
    the same at every call; only the rows of searched poles are recomputed.
    A coiso form is evaluated as its transpose, an iso product, against
    targets transposed here.
    """

    def __init__(self, template: ParaunitaryParam, samples: SampleSet):
        if template.p != samples.p or template.m != samples.m:
            raise DimensionMismatch(
                f"params are {template.p}x{template.m} but samples are "
                f"{samples.p}x{samples.m}"
            )
        self.template = template
        self.iso = template.side == ISO
        self.zs = samples.zs
        self.targets = samples.targets if self.iso else samples.targets.swapaxes(1, 2).copy()
        self.k = template.factor_dimension
        self.frame_shape = (template.p, template.m) if self.iso else (template.m, template.p)
        searched = [_searched(pole) for pole in template.poles]
        self.searched_rows = np.flatnonzero(searched)
        fixed = np.flatnonzero(np.logical_not(searched))
        self.gains = np.empty((template.d, samples.zs.size), dtype=complex)
        self.gains[fixed] = _blaschke_values([template.poles[j] for j in fixed], samples.zs) - 1.0
        radii_end = 2 * self.searched_rows.size
        self.radii = slice(0, radii_end, 2)
        self.thetas = slice(1, radii_end, 2)
        self.direction_shape = (template.d, 2 * (self.k - 1))
        self.directions = slice(radii_end, radii_end + template.d * 2 * (self.k - 1))
        self.frame = slice(self.directions.stop, None)
        self.size = self.directions.stop + len(template.frame)


def _chart_point(x, kernel: _ChartKernel):
    """What the coordinates ``x`` decode to in the kernel's layout:
    ``(radii, turns, alphas, rows, frame)``.

    ``radii``, ``turns = exp(i theta)`` and ``alphas = radii * turns``
    belong to the searched poles, ``rows`` is the ``(d, 2 (k - 1))`` array
    of direction angles and ``frame`` holds the frame angles; every angle is
    wrapped modulo ``2 pi``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (kernel.size,):
        raise AngleCountMismatch(f"need {kernel.size} coordinates, got shape {x.shape}")
    wrapped = np.mod(x, 2.0 * np.pi)
    radii = _real_to_radius(x[kernel.radii])
    turns = np.exp(1j * wrapped[kernel.thetas])
    rows = wrapped[kernel.directions].reshape(kernel.direction_shape)
    return radii, turns, radii * turns, rows, wrapped[kernel.frame]


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
    (:func:`_chart_point`), with the checks of :func:`objective` in the
    same order.

    ``gains`` is the ``(d, N)`` array of ``phi_j - 1`` at the samples, the
    searched rows from the product form's own Blaschke kernel.  For a coiso
    template the chain is already reversed and conjugated, and the constant
    is the transpose of the coiso constant, so the iso product yields
    ``F(z)^T``.
    """
    radii, _, alphas, rows, frame = point
    if (np.abs(radii - 1.0) <= POLE_CIRCLE_MARGIN).any():
        raise ValueError("polar radius must stay off the unit circle")
    k = kernel.k
    directions = unit_vector_from_angles(k, rows[:, : k - 1], _with_leading_phase(rows[:, k - 1 :]))
    if not (np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= DIRECTION_NORM_SLACK).all():
        raise ValueError(f"a direction norm is further than {DIRECTION_NORM_SLACK:.0e} from one")
    constant = isometry_from_angles(*kernel.frame_shape, frame)
    residual = isometry_residual(constant)
    if not residual <= ISOMETRY_TOL:
        raise ValueError(f"constant is not a (co)isometry: residual {residual:.3e}")
    gains = kernel.gains.copy()
    gains[kernel.searched_rows] = _finite_blaschke_values(alphas, kernel.zs) - 1.0
    if kernel.iso:
        return gains, directions, constant
    # the coiso constant is the adjoint of the chart's isometry
    return gains[::-1], directions[::-1].conj(), constant.conj()


def _chart_residual(x, kernel: _ChartKernel) -> np.ndarray:
    """Real view of ``values - targets`` at ``_decode(x, kernel)``, computed
    with array operations."""
    values = _iso_product(*_chart_chain(_chart_point(x, kernel), kernel))
    return (values - kernel.targets).ravel().view(float)


def _chart_jacobian(x, kernel: _ChartKernel) -> np.ndarray:
    """Exact real Jacobian of :func:`_chart_residual` at ``x``, one column
    per coordinate, with the checks of :func:`_chart_chain`.

    With the prefix ``L_j = B_1 ... B_{j-1}`` and the suffix
    ``R_j = B_{j+1} ... B_d U`` of the factor chain
    ``B_j = I + g_j v_j v_j*``, a coordinate of factor ``j`` moves the
    product by ``L_j dB_j R_j`` and a frame angle by ``B_1 ... B_d dU``.
    A pole moves ``g = (1 - conj(a) z) / (z - a) - 1`` by
    ``dg/da = (g + 1) / (z - a)`` and ``dg/d conj(a) = -z / (z - a)``; its
    radius coordinate also carries the logistic factor
    ``r (1 - r / (1 - RADIUS_MARGIN))``, zero where the radius is clamped.
    A direction moves ``v v*`` by ``dv v* + v dv*``.  The wrap modulo
    ``2 pi`` has derivative 1.  A coiso chain is reversed and conjugated as
    :func:`_chart_chain` builds it, and the columns are mapped back.
    """
    point = _chart_point(x, kernel)
    gains, directions, constant = _chart_chain(point, kernel)
    radii, turns, alphas, rows, frame_angles = point
    d, n = gains.shape
    k, width = constant.shape
    # a_j = L_j v_j and b_j = v_j* R_j, in chain order
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
    # back to the template's factor order, as the coordinates run
    order = slice(None) if kernel.iso else slice(None, None, -1)
    gains, prefix_t, suffix, a, b = gains[order], prefix[:d][order], suffix[order], a[order], b[order]
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
    if not kernel.iso:
        dv = dv.conj()
    # L_j dv and dv* R_j as (d, angles, N, k) and (d, angles, N, width),
    # each one matrix product per factor
    angles = dv.shape[1]
    left = dv @ prefix_t.transpose(0, 3, 1, 2).reshape(d, k, n * k)
    right = dv.conj() @ suffix.transpose(0, 2, 1, 3).reshape(d, k, n * width)
    left = left.reshape(d, angles, n, k, 1)
    right = right.reshape(d, angles, n, 1, width)
    by_direction = left * b[:, None, :, None, :] + a[:, None, :, :, None] * right
    by_direction *= gains[:, None, :, None, None]
    jac[kernel.directions] = by_direction.reshape(-1, n, k, width)

    frame = _isometry_derivatives(*kernel.frame_shape, frame_angles)
    if not kernel.iso:
        frame = frame.conj()
    # B_1 ... B_d dU for every frame angle, as one matrix product
    by_frame = prefix[d].reshape(n * k, k) @ frame.transpose(1, 0, 2).reshape(k, -1)
    jac[kernel.frame] = by_frame.reshape(n, k, -1, width).transpose(2, 0, 1, 3)
    return jac.reshape(kernel.size, -1).view(float).T


def _chart_objective(x, kernel: _ChartKernel) -> float:
    """``objective(_decode(x, kernel), samples)``: the squared norm of the residual."""
    residual = _chart_residual(x, kernel)
    return float(residual @ residual)


def minimize(x: np.ndarray, kernel: _ChartKernel):
    """One restart's local search from ``x``: a ``dogbox`` trust-region
    least-squares solve of the kernel's residual, with the exact Jacobian of
    :func:`_chart_jacobian` and at most
    :data:`~paraunit.tolerances.FIT_EVAL_BUDGET` residual evaluations.
    scipy.optimize is imported here, on the first fit, because loading it
    costs more than most CLI commands and only the fit calls it."""
    from scipy.optimize import least_squares

    return least_squares(
        _chart_residual, x, jac=_chart_jacobian, args=(kernel,), method="dogbox",
        max_nfev=FIT_EVAL_BUDGET,
    )


def _optimal_frame_angles(x: np.ndarray, kernel: _ChartKernel) -> np.ndarray:
    """Closed-form best constant block for the current factor chain.

    On (or near) the unit circle the factor chain is pointwise unitary, so
    minimizing over the constant alone is an orthogonal Procrustes problem;
    its polar-factor solution is converted back to chart angles.  A coiso
    form ``U C(z)`` is fitted as its transpose ``C(z)^T U^T``, as the
    kernel holds it.
    """
    gains, directions, _ = _chart_chain(_chart_point(x, kernel), kernel)
    values = _iso_product(gains, directions, np.eye(kernel.k, dtype=complex))
    accumulated = np.einsum("nij,nil->jl", values.conj(), kernel.targets)
    w, _, vh = np.linalg.svd(accumulated)
    best = w[:, : accumulated.shape[1]] @ vh
    # the coiso chart holds the adjoint U*, the conjugate of the U^T found here
    return angles_for_isometry(best if kernel.iso else best.conj())


def _splice_optimal_frame(x: np.ndarray, kernel: _ChartKernel) -> np.ndarray:
    if kernel.size == kernel.directions.stop:
        return x
    out = np.array(x, dtype=float)
    out[kernel.frame] = _optimal_frame_angles(x, kernel)
    return out


def _loewner_poles(samples: SampleSet, d: int):
    """The ``d`` poles a degree-``d`` target's samples determine, from a
    tangential Loewner pencil (Mayo & Antoulas, 2007), or ``None``.

    The even samples are the right points ``lam_i``, the odd ones the left
    points ``mu_j``, with the cycled unit directions ``r_i = e_{i mod m}``
    and ``l_j = e_{j mod p}``.  The Loewner and shifted Loewner matrices

        ``L_ji = l_j (G(mu_j) - G(lam_i)) r_i / (mu_j - lam_i)``
        ``S_ji = l_j (mu_j G(mu_j) - lam_i G(lam_i)) r_i / (mu_j - lam_i)``

    are projected onto the numerical rank of ``[L S]`` (its left singular
    vectors) and of ``[L; S]`` (the right ones), and the ``d`` finite
    generalized eigenvalues of smallest modulus come back, in that order.
    A constant term adds at most ``min(p, m)`` to the rank, as infinite
    eigenvalues, so a degree-``d`` member's pencil has rank at most
    ``d + min(p, m)``.  The projection keeps no more than that, which drops
    the directions noise adds, and the pencil must have more rows and
    columns than that to fix the poles.  ``None`` means nothing was
    identified: ``d = 0``, a pencil that small, a right point equal to a
    left one, or fewer than ``d`` finite eigenvalues.  scipy.linalg is
    imported here, as :func:`minimize` imports its solver.
    """
    lam, mu = samples.zs[0::2], samples.zs[1::2]
    bound = d + min(samples.p, samples.m)
    if d == 0 or min(lam.size, mu.size) <= bound:
        return None
    gaps = mu[:, None] - lam
    if not gaps.all():
        return None
    from scipy.linalg import eig

    right = np.arange(lam.size) % samples.m
    left = np.arange(mu.size) % samples.p
    # l_j G(lam_i) r_i and l_j G(mu_j) r_i, rows j and columns i
    at_lam = samples.targets[0::2][np.arange(lam.size), :, right][:, left].T
    at_mu = samples.targets[1::2][np.arange(mu.size), left, :][:, right]
    loewner = (at_mu - at_lam) / gaps
    shifted = (mu[:, None] * at_mu - lam * at_lam) / gaps
    rows, row_values, _ = np.linalg.svd(np.hstack([loewner, shifted]), full_matrices=False)
    _, column_values, columns = np.linalg.svd(np.vstack([loewner, shifted]), full_matrices=False)
    rank = min(
        int(np.count_nonzero(row_values > LOEWNER_RANK_RTOL * row_values[0])),
        int(np.count_nonzero(column_values > LOEWNER_RANK_RTOL * column_values[0])),
        bound,
    )
    rows, columns = rows[:, :rank].conj().T, columns[:rank].conj().T
    values = eig(rows @ shifted @ columns, rows @ loewner @ columns, right=False)
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
    """Best-of-restarts least-squares fit over the Schur-stable chart.

    Each restart draws a fresh seeded starting point (its origin poles stay
    at the origin for the whole search), snaps the constant block to its
    closed-form (Procrustes) optimum when that lowers the objective, and
    runs one :func:`minimize` from there.  When :func:`_loewner_poles`
    identifies the ``d`` poles from the samples, ``restarts`` identified
    restarts come first: each takes the directions and frame of its seeded
    draw and every pole from the identification
    (:func:`_identified_start`): a pole of modulus at most
    ``LOEWNER_ORIGIN_RADIUS`` starts at the origin, where it stays, and any
    other with its radius clamped into the radius chart.  The
    ``restarts`` seeded restarts of the plain draws follow, so a target the
    identified starts do not recover is searched at least as widely as
    without them, by up to ``2 * restarts`` searches.  The loop stops at
    the first objective below ``CONVERGED_OBJECTIVE``.  The overall best
    candidate wins, and any returned candidate is (co)isometric on the
    circle by construction, whatever the fit quality.  ``iterations``
    counts the residual evaluations of every search, identified and seeded
    (scipy's ``nfev``; the Jacobian is exact and evaluates no residual),
    and ``converged`` means the reported objective is below
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
    best_x = None
    best_kernel = None
    best_value = np.inf
    evaluations = 0
    identified = _loewner_poles(samples, d)
    # None keeps the seeded draw's own poles
    pole_sets = [None]
    if identified is not None:
        pole_sets.insert(0, tuple(_identified_start(a) for a in identified))
    for poles, restart in itertools.product(pole_sets, range(restarts)):
        template = random_params(seed + restart, side, p, m, d, schur_only=True)
        if poles is not None:
            template = replace(template, poles=poles)
        kernel = _ChartKernel(template, samples)
        x = _encode(template)
        value = _chart_objective(x, kernel)
        if x.size:
            trial = _splice_optimal_frame(x, kernel)
            trial_value = _chart_objective(trial, kernel)
            if trial_value < value:
                x, value = trial, trial_value
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
    best_value = objective(best_params, samples)
    return FitResult(
        params=best_params,
        objective=best_value,
        iterations=evaluations,
        converged=bool(best_value < CONVERGED_OBJECTIVE),
    )
