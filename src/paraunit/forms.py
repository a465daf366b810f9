"""Concrete representations of rational matrix functions.

Four interchangeable forms are provided, each evaluable at any finite point
of the complex plane away from its poles:

* :class:`BlaschkePotapovForm` -- an ordered product of degree-one
  circle-unitary factors ``I + (phi(z) - 1) v v*`` times a constant
  (co)isometry,
* :class:`StateSpaceRealization` -- ``F(z) = C (zI - A)^{-1} B + D``,
* :class:`MFDForm` -- a right or left matrix fraction
  ``N(z) Delta(z)^{-1}`` / ``Delta(z)^{-1} N(z)`` with polynomial blocks,
* :class:`LaurentPolyForm` -- ``z^q (B_0 + z B_1 + ... + z^g B_g)``.

This module holds the representations only: construction, validation and
evaluation.  Moves between them, and moves of a product form's factors
(its reflected adjoint, pole flips, square embedding), live in
:mod:`paraunit.transforms`.

Every form evaluates a batch of points at once with ``eval_many(zs)``,
which returns an ``(N, p, m)`` array and checks the whole batch against the
form's poles (or, for a matrix fraction, its denominator's condition number)
before computing; ``form(z)`` is the one-point case of ``eval_many``.

Evaluation costs what the structure requires.  A product form computes
every factor's gain ``phi_j(z) - 1`` in one broadcast over its poles and
points, :func:`_blaschke_values`.  That is the package's one Blaschke
kernel: :func:`blaschke_scalar` is its one-pole case, and the lossless fit
calls it for the poles it searches.  A coiso product form is evaluated,
transposed and realized through one chain, the iso factor chain of its
transpose (:meth:`BlaschkePotapovForm._transposed_chain`).  A realization
decides its structure once, in its Schur view
:attr:`StateSpaceRealization.schur`, and reads its poles off the view's
diagonal.  An upper triangular ``A`` (every realization the package writes)
is its own Schur form, and its evaluation back-substitutes
``(zI - A) X = B`` one state at a time, vectorized across the points; any
other ``A`` takes one ``zgees`` for the view and an LU of ``zI - A`` per
point.

Forms are immutable: constructors validate and copy their inputs and the
stored arrays are marked read-only.  A product form keeps its directions as
one read-only ``(d, k)`` array, validated once in one pass, and its factor
pairs hold row views of it; a matrix fraction keeps one read-only stack per
coefficient list.  Matrix fractions that the package's conversions build
over a scalar denominator skip the checks that such a denominator makes
redundant (see :meth:`MFDForm._over_scalar`).
"""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EvalAtPole, SingularDenominator
from .linalg import _schur_form, as_complex_matrix, isometry_residual
from .tolerances import (
    DIRECTION_NORM_SLACK,
    DIRECTION_RENORM_SKIP,
    EVAL_POLE_MARGIN,
    ISOMETRY_TOL,
    MFD_COND_LIMIT,
    POLE_CIRCLE_MARGIN,
)

ISO = "iso"
COISO = "coiso"
RIGHT = "right"
LEFT = "left"

#: Probe points of the MFD rank test: a denominator must be invertible at one.
MFD_RANK_PROBES = (0.3 + 0.4j, 1.7 + 0.0j, -0.9j)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


class Pole:
    """Pole of a Blaschke factor: a finite point off the unit circle, or infinity."""

    __slots__ = ("_value",)

    def __init__(self, value: complex | None):
        if value is not None:
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValueError(f"pole {value} is not finite")
            if abs(abs(value) - 1.0) <= POLE_CIRCLE_MARGIN:
                raise ValueError(
                    f"pole {value} is within {POLE_CIRCLE_MARGIN:.0e} of the unit circle"
                )
        self._value = value

    @classmethod
    def infinity(cls) -> "Pole":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def is_schur(self) -> bool:
        """Whether the pole lies inside the open unit disk."""
        return self._value is not None and abs(self._value) < 1.0

    @property
    def value(self) -> complex:
        if self._value is None:
            raise ValueError("pole at infinity has no finite value")
        return self._value

    def flipped(self) -> "Pole":
        """Reflect through the unit circle: alpha -> 1/conj(alpha), 0 <-> infinity."""
        if self.is_infinity:
            return Pole(0.0)
        if self._value == 0:
            return Pole.infinity()
        return Pole(1.0 / self._value.conjugate())

    def __eq__(self, other):
        return isinstance(other, Pole) and self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return "Pole(infinity)" if self.is_infinity else f"Pole({self._value!r})"


def blaschke_scalar(pole: Pole, z):
    """Scalar Blaschke factor ``phi(z) = (1 - conj(alpha) z) / (z - alpha)``.

    ``z`` is one point or an array of points; the result has its shape.
    The pole-at-infinity limit is ``phi(z) = z``.  On the unit circle
    ``|phi(z)| = 1`` for every admissible pole.  Points within
    ``EVAL_POLE_MARGIN`` of the pole raise ``EvalAtPole``, as in every
    form's ``eval_many``.  This is the one-pole case of
    :func:`_blaschke_values`.
    """
    zs = np.asarray(z, dtype=complex)
    return _blaschke_values([pole], zs.reshape(-1)).reshape(zs.shape)[()]


def _blaschke_values(poles, zs: np.ndarray) -> np.ndarray:
    """The ``(d, N)`` array of ``phi_j(z)`` for every pole and point.

    Finite poles go through :func:`_finite_blaschke_values`; a pole at
    infinity gives ``z``.
    """
    finite = np.array([not pole.is_infinity for pole in poles], dtype=bool)
    values = np.empty((finite.size, zs.size), dtype=complex)
    values[finite] = _finite_blaschke_values([pole.value for pole in poles if not pole.is_infinity], zs)
    values[~finite] = zs
    return values


def _finite_blaschke_values(alphas, zs: np.ndarray) -> np.ndarray:
    """``phi(z) = (1 - conj(alpha) z) / (z - alpha)`` for finite pole values.

    Row ``j`` of the ``(d, N)`` result holds the factor of ``alphas[j]`` at
    every point of ``zs``.  A point within ``EVAL_POLE_MARGIN`` of a pole
    raises ``EvalAtPole`` naming the first such pole in the order given.

    When a point has a real or imaginary part of modulus 2 or more, the
    batch scales numerator and denominator at each point by the power of
    two that brings the point's larger part below 2, so that neither they
    nor the division overflow at any finite point; a point whose parts are
    below 2 (the closed unit disk included) keeps its bits either way.
    """
    alphas = np.asarray(alphas, dtype=complex)[:, None]
    # the points enter as a row: numpy runs a (1, 1) by (1,) product through
    # a loop that rounds otherwise than a batch's (which may fuse
    # multiply-adds), so a lone point would not match its batch value
    zs = np.ascontiguousarray(zs)[None, :]
    parts = np.abs(zs.view(float))
    scale, shifted = 1.0, alphas
    if not parts.max(initial=0.0) < 2.0:
        exponents = np.frexp(parts.reshape(1, -1, 2).max(axis=2))[1]
        scale = np.ldexp(1.0, np.minimum(1 - exponents, 0))
        zs, shifted = zs * scale, alphas * scale
    offsets = zs - shifted
    near = (np.abs(offsets) <= EVAL_POLE_MARGIN * scale).any(axis=1)
    if near.any():
        alpha = complex(alphas[np.argmax(near), 0])
        raise EvalAtPole(f"a point is within {EVAL_POLE_MARGIN:.0e} of pole {alpha}")
    return (scale - alphas.conj() * zs) / offsets


def _points(zs) -> np.ndarray:
    return np.asarray(zs, dtype=complex).reshape(-1)


class _Form:
    """Shared one-point evaluation; every form defines ``eval_many`` and
    ``_circle_degree``, the degree that sets its circle sample count."""

    def __call__(self, z: complex) -> np.ndarray:
        """Value at one point: the one-point case of ``eval_many``."""
        return self.eval_many([complex(z)])[0]


def _require_form(form, action: str) -> None:
    """Raise ``TypeError`` unless ``form`` is one of the four forms."""
    if not isinstance(form, _Form):
        raise TypeError(f"cannot {action} object of type {type(form).__name__}")


def _unit_direction(v: np.ndarray) -> np.ndarray:
    """``v`` at unit norm; raises if its norm is further than ``DIRECTION_NORM_SLACK`` from one."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > DIRECTION_NORM_SLACK:
        raise ValueError(
            f"direction norm {norm} is further than {DIRECTION_NORM_SLACK:.0e} from one"
        )
    if abs(norm - 1.0) > DIRECTION_RENORM_SKIP:
        v = v / norm
    return v


def _factor_dimension(side: str, p: int, m: int) -> int:
    """Size of the factors of a ``p x m`` product form: ``p`` iso, ``m`` coiso."""
    return p if side == ISO else m


def _off_unit(directions: np.ndarray) -> np.ndarray:
    """Rows of a ``(d, k)`` direction stack that :func:`_unit_direction` may
    not leave as they are, non-finite rows included.

    A row is flagged unless its squared norm, summed in one batch, lies
    within ``DIRECTION_RENORM_SKIP`` of one.  A row the per-vector rule
    renormalizes has a squared norm about twice that far off, so the few
    units in the last place by which the two sums round apart cannot hide
    it.  ``einsum`` checks no floating-point flags: an overflowing row sums
    to ``inf``, silently, and is flagged.
    """
    flat = directions.view(float)
    return ~(np.abs(np.einsum("ij,ij->i", flat, flat) - 1.0) <= DIRECTION_RENORM_SKIP)


def _direction_stack(rows, k: int, validate: bool) -> np.ndarray:
    """Read-only ``(d, k)`` stack of the length-``k`` direction ``rows``.

    Every row must be finite and, with ``validate``, meet
    :func:`_unit_direction`'s rule.  One batched squared norm per row
    screens them (:func:`_off_unit`), and only the flagged rows are looked
    at one by one, in order: the first faulty row raises what it raises
    alone, and a renormalized row is ``_unit_direction``'s result, bit for
    bit.
    """
    stack = np.array(rows, dtype=complex).reshape(len(rows), k)
    # a form without factors skips the screen, which costs as much as a constant's check
    for j in _off_unit(stack).nonzero()[0] if rows else ():
        if not np.isfinite(stack[j]).all():
            raise ValueError("direction contains non-finite entries")
        if validate:
            stack[j] = _unit_direction(stack[j])
    stack.setflags(write=False)
    return stack


class BlaschkePotapovForm(_Form):
    """Ordered product of rank-one Blaschke factors times a constant (co)isometry.

    ``side="iso"`` (p >= m) represents ``F(z) = B_1(z) ... B_d(z) @ constant``
    with ``p``-dimensional factors; ``side="coiso"`` (m >= p) represents
    ``F(z) = constant @ B_1(z) ... B_d(z)`` with ``m``-dimensional factors.
    ``factors[0]`` is always the leftmost factor of the product, and each
    factor is ``B(z) = I + (phi(z) - 1) v v*`` for a unit vector ``v``.
    Product-form operations are written for the iso side; a coiso form is
    evaluated and realized through the iso chain of its transpose,
    :meth:`_transposed_chain`, and its other moves run through
    :meth:`transpose`.

    The directions are kept as one read-only ``(d, k)`` array,
    :attr:`directions`, validated once in one pass
    (:func:`_direction_stack`); :attr:`poles` is stored as a tuple, and
    ``factors`` pairs each pole with a row view of the array.  With
    ``validate`` a direction is renormalized when its norm is off one by
    more than ``DIRECTION_RENORM_SKIP`` and refused when it is off by more
    than ``DIRECTION_NORM_SLACK``.

    Pass ``validate=False`` to store out-of-contract data verbatim (used by
    tests that need deliberately broken inputs).
    """

    def __init__(self, side, p, m, factors, constant, validate: bool = True):
        if side not in (ISO, COISO):
            raise ValueError(f"side must be {ISO!r} or {COISO!r}, got {side!r}")
        p, m = int(p), int(m)
        if p < 1 or m < 1:
            raise DimensionMismatch("dimensions must be at least 1")
        if validate and side == ISO and p < m:
            raise DimensionMismatch(f"iso side requires p >= m, got p={p}, m={m}")
        if validate and side == COISO and m < p:
            raise DimensionMismatch(f"coiso side requires m >= p, got p={p}, m={m}")
        self.side = side
        self.p = p
        self.m = m
        k = self.factor_dimension
        poles, rows = [], []
        try:
            for pole, v in factors:
                poles.append(pole if isinstance(pole, Pole) else Pole(pole))
                v = np.asarray(v, dtype=complex).reshape(-1)
                if v.shape != (k,):
                    raise DimensionMismatch(f"direction must have length {k}, got {v.shape}")
                rows.append(v)
        except Exception:
            # a fault in an earlier direction is met first, as factor by factor
            _direction_stack(rows, k, validate)
            raise
        self.poles = tuple(poles)
        self.directions = _direction_stack(rows, k, validate)
        self.factors = tuple(zip(self.poles, self.directions))
        constant = as_complex_matrix(constant, "constant")
        if constant.shape != (p, m):
            raise DimensionMismatch(
                f"constant must be {p}x{m}, got {constant.shape}"
            )
        if validate:
            residual = isometry_residual(constant if side == ISO else constant.T)
            if residual > ISOMETRY_TOL:
                raise ValueError(
                    f"constant is not a (co)isometry: residual {residual:.3e}"
                )
        self.constant = _readonly(constant)

    @property
    def d(self) -> int:
        """Number of degree-one factors."""
        return len(self.factors)

    _circle_degree = d

    @property
    def factor_dimension(self) -> int:
        return _factor_dimension(self.side, self.p, self.m)

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array."""
        zs = _points(zs)
        gains = _blaschke_values(self.poles, zs) - 1.0
        if self.side == ISO:
            return _iso_product(gains, self.directions, self.constant)
        _, directions, constant = self._transposed_chain()
        return _iso_product(gains[::-1], directions, constant).swapaxes(1, 2)

    def _transposed_chain(self) -> tuple:
        """``(poles, directions, constant)`` of ``F(z)^T``: poles reversed,
        directions reversed and conjugated, constant transposed, all read-only.

        The iso factor chain of a coiso form, read without building a form.
        """
        directions = self.directions[::-1].conj()
        directions.setflags(write=False)
        return self.poles[::-1], directions, self.constant.T

    def transpose(self) -> "BlaschkePotapovForm":
        """Product form of ``F(z)^T`` (:meth:`_transposed_chain`), side and
        ``p``/``m`` swapped.

        The map is exact and neither revalidates nor renormalizes, so a
        ``validate=False`` form stays broken and transposing twice is bit-exact.
        """
        poles, directions, constant = self._transposed_chain()
        side = COISO if self.side == ISO else ISO
        return BlaschkePotapovForm(side, self.m, self.p, zip(poles, directions), constant, validate=False)


def _iso_product(gains, directions, constant: np.ndarray) -> np.ndarray:
    """Values of ``B_1(z) ... B_d(z) @ constant`` at ``N`` points.

    Row ``j`` of the ``(d, N)`` array ``gains`` holds ``phi_j(z) - 1`` at
    every point, and row ``j`` of the ``(d, k)`` array ``directions`` is the
    unit vector ``v_j`` of factor ``j``; points and poles enter only through
    the gains.

    The values are kept as one ``(k, N m)`` work matrix, point ``n``'s
    ``k x m`` value in columns ``n m`` to ``n m + m - 1``.  Each factor,
    from the right end of the product outwards, makes one vector-matrix
    product ``v* @ work`` and one broadcast rank-one update with its gains
    repeated per column.  The result is an ``(N, k, m)`` view of the work
    matrix.
    """
    k, m = constant.shape
    n_points = gains.shape[1]
    # C order whatever the layout of constant, so equal forms give equal bits
    work = np.empty((k, n_points, m), dtype=complex)
    work[:] = constant[:, None, :]
    work = work.reshape(k, n_points * m)
    for gain, v in zip(np.repeat(gains[::-1], m, axis=1), directions[::-1]):
        work += (gain * (v.conj() @ work)) * v[:, None]
    return work.reshape(k, n_points, m).swapaxes(0, 1)


class StateSpaceRealization(_Form):
    """State-space form ``F(z) = C (zI - A)^{-1} B + D``.

    The blocks assemble into the ``(n+p) x (n+m)`` realization matrix
    ``R = [[A, B], [C, D]]``.  ``n = 0`` (constant functions) is allowed; the
    state blocks are then empty.
    """

    def __init__(self, a, b, c, d):
        a = as_complex_matrix(a, "a")
        b = as_complex_matrix(b, "b")
        c = as_complex_matrix(c, "c")
        d = as_complex_matrix(d, "d")
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionMismatch(f"a must be square, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionMismatch(f"b must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"c must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(
                f"d must be {c.shape[0]}x{b.shape[1]}, got {d.shape}"
            )
        self.a = _readonly(a)
        self.b = _readonly(b)
        self.c = _readonly(c)
        self.d = _readonly(d)
        # filled on first use by the schur property and analysis._gramians
        self._schur = None
        self._gramians = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    _circle_degree = n

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def realization_matrix(self) -> np.ndarray:
        n = self.n
        r = np.empty((n + self.p, n + self.m), dtype=complex)
        r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:] = self.a, self.b, self.c, self.d
        return r

    @property
    def schur(self):
        """Schur view ``(T, U, U* B, C U)`` with ``A = U T U*``, computed on first use.

        The one structure test of a realization (:func:`linalg._schur_form`):
        an upper triangular ``A`` gives ``(A, None, B, C)``, the identity
        change with no copy; any other ``A`` takes one ``zgees``.  The arrays
        are read-only and kept on the object.
        """
        if self._schur is None:
            t, u = _schur_form(self.a)
            if u is None:
                self._schur = t, u, self.b, self.c
            else:
                self._schur = tuple(_readonly(x) for x in (t, u, u.conj().T @ self.b, self.c @ u))
        return self._schur

    def pole_candidates(self) -> np.ndarray:
        """Eigenvalues of A (a superset of the poles when non-minimal): the diagonal of ``T``."""
        return np.diagonal(self.schur[0])

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array.

        An upper triangular ``A`` is back-substituted, O(n^2 m N); any other
        ``A`` takes one LU of ``zI - A`` per point, O(n^3 N), which is more
        accurate inside the disk than back-substituting its Schur form.
        """
        zs = _points(zs)
        out = np.broadcast_to(self.d, (zs.size, self.p, self.m)).copy()
        if self.n == 0:
            return out
        near = np.abs(zs[:, None] - self.pole_candidates()) <= EVAL_POLE_MARGIN
        if np.any(near):
            z = zs[np.argmax(near.any(axis=1))]
            raise EvalAtPole(f"{z} is within {EVAL_POLE_MARGIN:.0e} of a pole of A")
        if self.schur[1] is None:
            return out + _triangular_transfer(self.a, self.b, self.c, zs)
        # numpy's complex product z * I raises the overflow flag once |z|
        # nears the float range, though every entry it writes is exact
        with np.errstate(over="ignore"):
            shifts = zs[:, None, None] * np.eye(self.n)
        resolvent = np.linalg.solve(shifts - self.a, self.b)
        return out + self.c @ resolvent

    def transpose(self) -> "StateSpaceRealization":
        """Realization ``(J A^T J, J C^T, B^T J, D^T)`` of ``F(z)^T``.

        ``J`` reverses the state order.  Plain ``(A^T, C^T, B^T, D^T)`` also
        realizes ``F^T``, but the flip keeps a cascade's upper triangular ``A``
        upper triangular; the coiso ``bp_to_realization`` built this way is
        accurate to 1e-14 off the circle at degree 32, against up to 3e-10
        without the flip.
        """
        return StateSpaceRealization(*_transposed_blocks(self.a, self.b, self.c, self.d))


def _transposed_blocks(a, b, c, d) -> tuple:
    """Blocks ``(J A^T J, J C^T, B^T J, D^T)`` of the transposed realization,
    ``J`` the state-order reversal (see :meth:`StateSpaceRealization.transpose`)."""
    return a.T[::-1, ::-1], c.T[::-1], b.T[:, ::-1], d.T


def _triangular_transfer(a, b, c, zs: np.ndarray) -> np.ndarray:
    """``C (zI - A)^{-1} B`` at every point for an upper triangular ``A``.

    ``X = (zI - A)^{-1} B`` is back-substituted from the last state, each
    row ``X[i] = (B[i] + A[i, i+1:] X[i+1:]) / (z - A[i, i])`` for all
    points at once: the ``(n, m, N)`` work array is one ``n x mN`` matrix,
    so each row costs one matrix-vector product.  Returns ``(N, p, m)``.
    """
    n, m = b.shape
    x = np.empty((n, m, zs.size), dtype=complex)
    flat = x.reshape(n, -1)
    # a point so far out that |z - a_ii| nears the float range overflows
    # the divisor's scaling inside numpy's division; that row of X, at most
    # 2 |B[i] + A[i, i+1:] X[i+1:]| / 1.8e308 in modulus, then reads 0
    with np.errstate(over="ignore"):
        for i in range(n - 1, -1, -1):
            coupled = (a[i, i + 1:] @ flat[i + 1:]).reshape(m, zs.size)
            x[i] = (b[i][:, None] + coupled) / (zs - a[i, i])
    return (c @ flat).reshape(c.shape[0], m, zs.size).transpose(2, 0, 1)


def _check_fraction_side(side: str) -> None:
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be {RIGHT!r} or {LEFT!r}, got {side!r}")


class MFDForm(_Form):
    """Right or left matrix fraction with numerator/denominator of equal degree.

    ``side="right"``: ``F(z) = N(z) Delta(z)^{-1}`` with ``Delta`` of size
    ``m x m``.  ``side="left"``: ``F(z) = Delta(z)^{-1} N(z)`` with ``Delta``
    of size ``p x p``.  Coefficient lists run from the constant term upward
    and must have equal length (pad with zero matrices as needed).  The
    denominator must have full normal rank: at one of three fixed probe
    points at least its condition number must not exceed
    ``MFD_COND_LIMIT`` (a pole may sit on the others).  The test is
    relative, so a well-conditioned denominator with a small determinant
    (such as ``den(z) I`` of a high-degree realization) is accepted.
    Evaluation applies the same test at every point.

    The coefficients are views of one read-only copy of each stacked
    coefficient array.  The package's conversions build their fractions
    over a scalar denominator through :meth:`_over_scalar`, which skips the
    rank probes and the per-coefficient coercion.
    """

    def __init__(self, side, num: Sequence, den: Sequence):
        _check_fraction_side(side)
        num = [as_complex_matrix(x, "num coefficient") for x in num]
        den = [as_complex_matrix(x, "den coefficient") for x in den]
        if not num or not den:
            raise DimensionMismatch("coefficient lists must be non-empty")
        if len(num) != len(den):
            raise DimensionMismatch(
                f"num and den must have equal length, got {len(num)} and {len(den)}"
            )
        p, m = num[0].shape
        for x in num:
            if x.shape != (p, m):
                raise DimensionMismatch("numerator coefficients must share dimensions")
        dk = m if side == RIGHT else p
        for x in den:
            if x.shape != (dk, dk):
                raise DimensionMismatch(
                    f"denominator coefficients must be {dk}x{dk}, got {x.shape}"
                )
        self._store(side, num, den)
        # full normal rank: det Delta is not identically zero, which one
        # nonsingular probe proves
        probes = np.array(MFD_RANK_PROBES)
        if (np.linalg.cond(_poly_at(self.den, probes)) > MFD_COND_LIMIT).all():
            raise SingularDenominator(
                f"denominator is singular at every probe, first at probe point {probes[0]}"
            )

    @classmethod
    def _over_scalar(cls, side: str, num: np.ndarray, den: np.ndarray) -> "MFDForm":
        """The ``(N, p, m)`` numerator over ``den(z) I`` as a right or left fraction.

        For the package's own conversions: ``den`` holds the ``N`` scalar
        coefficients, and ``I`` is ``I_m`` (right) or ``I_p`` (left).  A
        scalar denominator that is not all zero has full normal rank, so
        the rank probes of the public constructor are skipped.  A bad side,
        an all-zero ``den`` and non-finite coefficients (an overflowed
        conversion) are still refused.
        """
        _check_fraction_side(side)
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("matrix fraction overflowed: its coefficients are not all finite")
        if not den.any():
            raise SingularDenominator("scalar denominator is identically zero")
        eye = np.eye(num.shape[2] if side == RIGHT else num.shape[1], dtype=complex)
        form = cls.__new__(cls)
        form._store(side, num, den[:, None, None] * eye)
        return form

    def _store(self, side: str, num, den) -> None:
        """Keep one read-only copy of each coefficient stack, as ``_stacks``;
        the coefficients are views of it."""
        self.side = side
        num, den = self._stacks = _readonly(num), _readonly(den)
        self.num, self.den = tuple(num), tuple(den)
        self.p, self.m = self.num[0].shape

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def _circle_degree(self) -> int:
        return self.degree * self.den[0].shape[0]

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array."""
        zs = _points(zs)
        den = _poly_at(self.den, zs)
        z0 = _singular_point(den, zs)
        if z0 is not None:
            raise SingularDenominator(f"denominator is not invertible at {z0}")
        num = _poly_at(self.num, zs)
        if self.side == RIGHT:
            return np.linalg.solve(den.swapaxes(1, 2), num.swapaxes(1, 2)).swapaxes(1, 2)
        return np.linalg.solve(den, num)


def _poly_at(coeffs, zs: np.ndarray) -> np.ndarray:
    """Horner evaluation of a matrix polynomial at every point of ``zs``."""
    out = np.zeros((zs.size, *coeffs[0].shape), dtype=complex)
    for coeff in reversed(coeffs):
        out *= zs[:, None, None]
        out += coeff
    return out


def _singular_point(den: np.ndarray, zs: np.ndarray) -> complex | None:
    """First point whose denominator value exceeds ``MFD_COND_LIMIT``, if any."""
    singular = np.linalg.cond(den) > MFD_COND_LIMIT
    return complex(zs[np.argmax(singular)]) if singular.any() else None


class LaurentPolyForm(_Form):
    """Laurent polynomial ``F(z) = z^q (B_0 + z B_1 + ... + z^g B_g)``.

    Leading or trailing coefficients may be zero; no normalization is
    applied.  ``q < 0`` puts a pole at the origin.
    """

    def __init__(self, q: int, coeffs: Sequence):
        coeffs = [as_complex_matrix(x, "coefficient") for x in coeffs]
        if not coeffs:
            raise DimensionMismatch("coefficient list must be non-empty")
        p, m = coeffs[0].shape
        for x in coeffs:
            if x.shape != (p, m):
                raise DimensionMismatch("coefficients must share dimensions")
        self.q = int(q)
        self.p = p
        self.m = m
        self.coeffs = tuple(_readonly(x) for x in coeffs)

    @property
    def gamma(self) -> int:
        return len(self.coeffs) - 1

    _circle_degree = gamma

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array."""
        zs = _points(zs)
        if self.q < 0 and np.any(np.abs(zs) <= EVAL_POLE_MARGIN):
            raise EvalAtPole("Laurent form with q < 0 has a pole at the origin")
        return (zs ** self.q)[:, None, None] * _poly_at(self.coeffs, zs)


def evaluate(form, z: complex) -> np.ndarray:
    """Evaluate any of the four forms at a finite point ``z``."""
    _require_form(form, "evaluate")
    return form(z)
