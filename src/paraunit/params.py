"""Real-angle parametrization of unit-circle (co)isometric product forms.

A degree-``d`` ``p x m`` form is described by ``d`` poles (each a
:class:`~paraunit.forms.Pole` anywhere off the unit circle, the origin and
infinity included), ``2(k - 1)`` angles per factor direction (``k = p``
tall, ``k = m`` wide; the global phase of a direction is redundant because
only ``v v*`` enters the factor), and ``m(2p - m)`` (tall) or ``p(2m - p)``
(wide) angles for the constant block.  Every point of the parameter set
maps to a function that is (co)isometric on the circle by construction, so
optimization over the set never needs a feasibility penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleCountMismatch, DimensionMismatch, NotIsometric
from .forms import COISO, ISO, BlaschkePotapovForm, Pole, _factor_dimension
from .linalg import isometry_residual
from .tolerances import ISOMETRY_TOL, RADIUS_MARGIN

#: Upper bound on random outside-the-disk radii (infinity covers the far limit).
RADIUS_MAX = 10.0


def param_count(side: str, p: int, m: int, d: int):
    """Pole and angle counts of the parametrization.

    Tall (iso) forms need ``2 d (p - 1) + m (2 p - m)`` angles, wide (coiso)
    forms ``2 d (m - 1) + p (2 m - p)``; both need ``d`` poles.
    """
    if p < 1 or m < 1 or d < 0:
        raise DimensionMismatch("require p, m >= 1 and d >= 0")
    if side == ISO:
        if p < m:
            raise DimensionMismatch("iso side requires p >= m")
        return d, 2 * d * (p - 1) + m * (2 * p - m)
    if side == COISO:
        if m < p:
            raise DimensionMismatch("coiso side requires m >= p")
        return d, 2 * d * (m - 1) + p * (2 * m - p)
    raise ValueError(f"side must be {ISO!r} or {COISO!r}, got {side!r}")


@dataclass(frozen=True)
class ParaunitaryParam:
    """Full parameter vector for one product form.

    ``poles[j]`` is the :class:`~paraunit.forms.Pole` of factor ``j``.
    ``directions[j]`` holds the ``2(k - 1)`` angles of factor ``j`` (first
    the ``k - 1`` polar angles, then the ``k - 1`` free phases; the leading
    phase is fixed to zero).  ``frame`` holds the constant-block angles.
    """

    side: str
    p: int
    m: int
    d: int
    poles: tuple
    directions: tuple
    frame: tuple

    def __post_init__(self):
        pole_slots, angle_count = param_count(self.side, self.p, self.m, self.d)
        if len(self.poles) != pole_slots:
            raise AngleCountMismatch(
                f"expected {pole_slots} poles, got {len(self.poles)}"
            )
        for pole in self.poles:
            if not isinstance(pole, Pole):
                raise TypeError("poles must be Pole instances")
        per_factor = 2 * (self.factor_dimension - 1)
        object.__setattr__(
            self,
            "directions",
            tuple(tuple(float(a) for a in row) for row in self.directions),
        )
        object.__setattr__(self, "frame", tuple(float(a) for a in self.frame))
        if len(self.directions) != self.d:
            raise AngleCountMismatch(
                f"expected {self.d} direction rows, got {len(self.directions)}"
            )
        for row in self.directions:
            if len(row) != per_factor:
                raise AngleCountMismatch(
                    f"each direction row needs {per_factor} angles, got {len(row)}"
                )
        if len(self.frame) + per_factor * self.d != angle_count:
            raise AngleCountMismatch(
                f"frame needs {angle_count - per_factor * self.d} angles, "
                f"got {len(self.frame)}"
            )

    @property
    def factor_dimension(self) -> int:
        """Size of each factor direction, by the product form's rule."""
        return _factor_dimension(self.side, self.p, self.m)

    def angle_vector(self) -> np.ndarray:
        """All angles flattened: direction rows in order, then the frame."""
        flat = [a for row in self.directions for a in row]
        flat.extend(self.frame)
        return np.asarray(flat, dtype=float)

    def transpose(self) -> "ParaunitaryParam":
        """Parameters of ``F(z)^T``: the other side, ``p`` and ``m`` swapped,
        the poles and direction rows reversed, and every phase angle negated.

        Negating a phase conjugates its vector exactly, so
        ``build_paraunitary(P.transpose())`` equals
        ``build_paraunitary(P).transpose()`` entry for entry (a zero
        imaginary part may differ in sign), and transposing twice returns
        ``P``.  The phases are the ``k - 1`` free phases of each direction
        row, and the trailing ``big - j`` angles of frame column ``j``'s
        block of ``2 (big - j) - 1``, ``big = max(p, m)``.
        """
        k = self.factor_dimension
        rows = np.reshape(self.directions, (self.d, 2 * (k - 1)))
        rows[:, k - 1 :] *= -1.0
        frame = np.array(self.frame)
        position = 0
        for dim in range(max(self.p, self.m), abs(self.p - self.m), -1):
            frame[position + dim - 1 : position + 2 * dim - 1] *= -1.0
            position += 2 * dim - 1
        side = COISO if self.side == ISO else ISO
        return ParaunitaryParam(side, self.m, self.p, self.d, self.poles[::-1], rows[::-1], frame)


def unit_vector_from_angles(k, polar, phases) -> np.ndarray:
    """Hyperspherical unit vector in ``C^k``, or a stack of them.

    Component ``j`` has magnitude ``cos(t_j) * prod_{i<j} sin(t_i)`` (the
    last one is the pure sine product) and phase ``phases[j]``.  A zero
    first phase leaves the ``2(k - 1)`` angles that matter for the rank-one
    projector ``v v*``.  ``polar`` of shape ``(..., k - 1)`` and ``phases``
    of shape ``(..., k)`` give vectors of shape ``(..., k)``.
    """
    k = int(k)
    polar = np.asarray(polar, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if polar.ndim == 0 or polar.shape[-1] != k - 1:
        raise AngleCountMismatch(f"need {k - 1} polar angles, got shape {polar.shape}")
    if phases.ndim == 0 or phases.shape != polar.shape[:-1] + (k,):
        raise AngleCountMismatch(f"need {k} phases, got shape {phases.shape}")
    magnitudes = np.empty(phases.shape)
    magnitudes[..., :-1] = np.cos(polar)
    magnitudes[..., -1] = 1.0
    magnitudes[..., 1:] *= np.multiply.accumulate(np.sin(polar), axis=-1)
    return magnitudes * np.exp(1j * phases)


def _unit_vector_derivatives(k, polar, phases) -> np.ndarray:
    """Derivatives of :func:`unit_vector_from_angles` by each of its
    ``2k - 1`` angles, the ``k - 1`` polar angles first: shape
    ``(..., 2k - 1, k)``.

    Component ``i`` holds polar angle ``t_l`` through one factor, ``cos t_l``
    for ``i = l`` and ``sin t_l`` for ``i > l``, and none for ``i < l``.  As
    ``cos' t = cos(t + pi/2)`` and ``sin' t = sin(t + pi/2)``, the derivative
    by ``t_l`` is the vector at ``t_l + pi/2`` with its first ``l``
    components zeroed (the product rule, with no division by a sine).  A
    phase turns its own component by ``i``.
    """
    polar = np.asarray(polar, dtype=float)
    phases = np.asarray(phases, dtype=float)
    # row 0 is the vector itself, row l + 1 the vector at t_l + pi/2
    shifts = np.zeros((k, k - 1))
    shifts[1:] = 0.5 * np.pi * np.eye(k - 1)
    shifted = polar[..., None, :] + shifts
    rows = unit_vector_from_angles(
        k, shifted, np.broadcast_to(phases[..., None, :], shifted.shape[:-1] + (k,))
    )
    by_phase = 1j * rows[..., :1, :] * np.eye(k)
    return np.concatenate([np.triu(rows[..., 1:, :]), by_phase], axis=-2)


def _angles_for_unit_vector(v: np.ndarray):
    """Invert the hyperspherical chart for one unit vector.

    ``t_j = atan2(||v[j+1:]||, |v_j|)``: the sines of the earlier angles
    multiply to ``||v[j:]||``, so no division by their product is needed.
    """
    magnitudes = np.abs(v)
    tails = np.sqrt(np.cumsum(magnitudes[::-1] ** 2)[::-1])
    polar = np.arctan2(tails[1:], magnitudes[:-1])
    return polar, np.mod(np.angle(v), 2.0 * np.pi)


def _reflector(u: np.ndarray):
    """Householder reflector ``H = I - tau w w*`` with ``H* u = beta e_1``.

    LAPACK ``zlarfg`` convention: ``beta = -sign(Re u_0) ||u||``,
    ``tau = (beta - u_0) / beta`` and ``w = [1; u[1:] / (u_0 - beta)]``.
    For a unit ``u``, ``|u_0 - beta| >= 1``, so the division is safe.
    """
    a = u[0]
    beta = -math.copysign(math.sqrt(np.vdot(u, u).real), a.real)
    w = u / (a - beta)
    w[0] = 1.0
    return (beta - a) / beta, w


def isometry_from_angles(p: int, m: int, angles) -> np.ndarray:
    """Isometry ``U`` (``U* U = I_m``) from ``m (2p - m)`` angles.

    Column ``j`` is ``H_0 ... H_{j-1} [0; u_j]``: ``u_j`` is a
    hyperspherical unit vector in ``C^{p-j}`` and ``H_i``, acting on rows
    ``i:``, the Householder reflector of ``u_i`` (see :func:`_reflector`).
    The trailing columns of ``H_0 ... H_{j-1}`` span the
    complement of the earlier columns, and they are the ones a complete QR
    of those columns returns, so the chart is the sequential-completion
    chart with no factorization per column.  The angle budget telescopes:
    ``sum_j (2(p - j) - 1) = m(2p - m)``.  Every isometry is reachable.
    """
    _, _, u = _columns(p, m, angles)
    # column j needs H_{j-1} first, so apply the reflectors last to first
    for i in range(m - 2, -1, -1):
        tau, w = _reflector(u[i:, i])
        block = u[i:, i + 1 :]
        block -= (tau * w)[:, None] * (w.conj() @ block)
    return u


def _columns(p, m, angles):
    """The chart's polar and phase rows, and the ``p x m`` matrix of columns
    ``[0; u_j]`` before any reflection.

    Column ``j``'s unit vector sits in rows ``j:`` of a ``p``-vector whose
    leading ``j`` polar angles are ``pi/2`` (their sines are exactly 1, so
    the trailing magnitudes are those of ``u_j``) and whose leading entries
    are then zeroed.
    """
    p, m = int(p), int(m)
    if p < m or m < 1:
        raise DimensionMismatch(f"need p >= m >= 1, got p={p}, m={m}")
    angles = np.asarray(angles, dtype=float).reshape(-1)
    needed = m * (2 * p - m)
    if angles.size != needed:
        raise AngleCountMismatch(f"need {needed} angles, got {angles.size}")
    polar = np.full((m, p - 1), 0.5 * np.pi)
    phases = np.zeros((m, p))
    position = 0
    for j in range(m):
        dim = p - j
        polar[j, j:] = angles[position : position + dim - 1]
        phases[j, j:] = angles[position + dim - 1 : position + 2 * dim - 1]
        position += 2 * dim - 1
    u = unit_vector_from_angles(p, polar, phases).T
    for j in range(1, m):
        u[:j, j] = 0.0
    return polar, phases, u


def _isometry_derivatives(p: int, m: int, angles) -> np.ndarray:
    """Derivatives of :func:`isometry_from_angles` by each of its angles,
    in their order: shape ``(m (2p - m), p, m)``.

    Forward mode through the same reflector chain.  Column ``i``'s angles
    move only ``u_i``, so they reach column ``i`` directly and the later
    columns through ``H_i = I - tau w w*``.  For the unit vector ``u_i``
    (first entry ``a``), ``beta`` is locally constant, so
    ``d tau = -da / beta`` and ``dw = (du - w da) / (a - beta)``, whose
    first entry is zero as ``w_0 = 1`` is.
    """
    polar, phases, u = _columns(p, m, angles)
    per_column = _unit_vector_derivatives(p, polar, phases)
    out = np.zeros((m * (2 * p - m), p, m), dtype=complex)
    position = 0
    for j in range(m):
        # the free angles of column j: polar angles j: and phases j:
        dim = p - j
        out[position : position + dim - 1, :, j] = per_column[j, j : p - 1]
        out[position + dim - 1 : position + 2 * dim - 1, :, j] = per_column[j, p - 1 + j :]
        position += 2 * dim - 1
    for i in range(m - 2, -1, -1):
        a = u[i, i]
        beta = -math.copysign(1.0, a.real)
        tau, w = _reflector(u[i:, i])
        du = out[:, i:, i]
        dtau = -du[:, 0] / beta
        dw = (du - w * du[:, :1]) / (a - beta)
        block = u[i:, i + 1 :]
        dblock = out[:, i:, i + 1 :]
        projected = w.conj() @ block
        dblock -= tau * w[:, None] * (w.conj() @ dblock)[:, None, :]
        dblock -= (dtau[:, None, None] * w[:, None] + tau * dw[:, :, None]) * projected
        dblock -= tau * w[:, None] * (dw.conj() @ block)[:, None, :]
        block -= (tau * w)[:, None] * projected
    return out


def angles_for_isometry(u) -> np.ndarray:
    """Chart angles reproducing a given isometry (inverse of
    :func:`isometry_from_angles`).

    Applies the adjoints of the chart's reflectors in turn, as a QR
    factorization would, and reads each column's unit vector off the
    remaining rows.  Useful for warm-starting searches at a known constant
    block: ``isometry_from_angles(p, m, angles_for_isometry(u))`` rebuilds
    ``u`` to machine precision.
    """
    u = np.array(u, dtype=complex)
    p, m = u.shape
    if p < m:
        raise DimensionMismatch(f"need p >= m, got p={p}, m={m}")
    residual = isometry_residual(u)
    if residual > ISOMETRY_TOL:
        raise NotIsometric(f"columns are not orthonormal: residual {residual:.3e}")
    angles = []
    for j in range(m):
        coords = u[j:, j]
        polar, phases = _angles_for_unit_vector(coords)
        angles.extend(polar)
        angles.extend(phases)
        if j + 1 < m:
            tau, w = _reflector(coords)
            block = u[j:, j + 1 :]
            block -= (np.conj(tau) * w)[:, None] * (w.conj() @ block)
    return np.asarray(angles, dtype=float)


def build_paraunitary(params: ParaunitaryParam) -> BlaschkePotapovForm:
    """Realize a parameter vector as a concrete product form.

    The result is (co)isometric on the unit circle by construction for any
    admissible parameter values.
    """
    k = params.factor_dimension
    rows = np.reshape(params.directions, (params.d, 2 * (k - 1)))
    directions = unit_vector_from_angles(k, rows[:, : k - 1], _with_leading_phase(rows[:, k - 1 :]))
    factors = list(zip(params.poles, directions))
    if params.side == ISO:
        constant = isometry_from_angles(params.p, params.m, params.frame)
    else:
        constant = isometry_from_angles(params.m, params.p, params.frame).conj().T
    return BlaschkePotapovForm(params.side, params.p, params.m, factors, constant)


def _with_leading_phase(phases: np.ndarray) -> np.ndarray:
    """Direction phase rows with the redundant leading phase fixed to zero."""
    return np.concatenate([np.zeros((phases.shape[0], 1)), phases], axis=1)


def random_params(
    seed: int,
    side: str,
    p: int,
    m: int,
    d: int,
    schur_only: bool = False,
) -> ParaunitaryParam:
    """Deterministic random parameter draw.

    Each pole is the origin, infinity, or ``r e^{i theta}`` with a radius
    ``r`` in ``(0, 1 - RADIUS_MARGIN) u (1 + RADIUS_MARGIN, RADIUS_MAX]``;
    with ``schur_only`` it is the origin or has a radius below one, so every
    pole is inside the open disk.  All angles, ``theta`` included, are
    uniform on ``[0, 2 pi)``.
    """
    pole_slots, angle_count = param_count(side, p, m, d)
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * np.pi
    poles = []
    for _ in range(pole_slots):
        if schur_only:
            kind = rng.choice(["zero", "finite"], p=[0.25, 0.75])
            inside = True
        else:
            kind = rng.choice(["zero", "infinity", "finite"], p=[0.2, 0.2, 0.6])
            inside = bool(rng.uniform() < 0.5)
        if kind == "zero":
            poles.append(Pole(0.0))
        elif kind == "infinity":
            poles.append(Pole.infinity())
        else:
            if inside:
                r = rng.uniform(0.0, 1.0 - RADIUS_MARGIN)
                while r <= 0.0:  # zero-measure guard
                    r = rng.uniform(0.0, 1.0 - RADIUS_MARGIN)
            else:
                r = rng.uniform(1.0 + RADIUS_MARGIN, RADIUS_MAX)
            poles.append(Pole(r * np.exp(1j * rng.uniform(0.0, two_pi))))
    per_factor = 2 * (_factor_dimension(side, p, m) - 1)
    directions = tuple(
        tuple(rng.uniform(0.0, two_pi, size=per_factor)) for _ in range(d)
    )
    frame = tuple(rng.uniform(0.0, two_pi, size=angle_count - per_factor * d))
    return ParaunitaryParam(side, p, m, d, tuple(poles), directions, frame)
