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

Every form evaluates a batch of points at once with ``eval_many(zs)``,
which returns an ``(N, p, m)`` array and checks the whole batch against the
form's poles (or, for a matrix fraction, its denominator's condition number)
before computing; ``form(z)`` is the one-point case of ``eval_many``.

Evaluation costs what the structure requires.  A product form computes
every factor's gain ``phi_j(z) - 1`` in one broadcast over its poles and
points, :func:`_blaschke_values`.  That is the package's one Blaschke
kernel: :func:`blaschke_scalar` is its one-pole case, and the lossless fit
calls it for the poles it searches.  A realization decides its structure
once, in its Schur view :attr:`StateSpaceRealization.schur`, and reads its
poles off the view's diagonal.  An upper triangular ``A`` (every
realization the package writes) is its own Schur form, and its evaluation
back-substitutes ``(zI - A) X = B`` one state at a time, vectorized across
the points; any other ``A`` takes one ``zgees`` for the view and an LU of
``zI - A`` per point.

Forms are immutable: constructors validate and copy their inputs and the
stored arrays are marked read-only.  Matrix fractions that the package's
conversions build over a scalar denominator skip the checks that such a
denominator makes redundant (see :meth:`MFDForm._over_scalar`).
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
    """
    alphas = np.asarray(alphas, dtype=complex)[:, None]
    # the points enter as a row: numpy runs a (1, 1) by (1,) product through
    # a loop that rounds otherwise than a batch's (which may fuse
    # multiply-adds), so a lone point would not match its batch value
    zs = zs[None, :]
    offsets = zs - alphas
    near = (np.abs(offsets) <= EVAL_POLE_MARGIN).any(axis=1)
    if near.any():
        alpha = complex(alphas[np.argmax(near), 0])
        raise EvalAtPole(f"a point is within {EVAL_POLE_MARGIN:.0e} of pole {alpha}")
    return (1.0 - alphas.conj() * zs) / offsets


def _points(zs) -> np.ndarray:
    return np.asarray(zs, dtype=complex).reshape(-1)


class _Form:
    """Shared one-point evaluation; every form defines ``eval_many``."""

    def __call__(self, z: complex) -> np.ndarray:
        """Value at one point: the one-point case of ``eval_many``."""
        return self.eval_many([complex(z)])[0]


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


def _as_direction(v, k: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (k,):
        raise DimensionMismatch(f"direction must have length {k}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("direction contains non-finite entries")
    return v


class BlaschkePotapovForm(_Form):
    """Ordered product of rank-one Blaschke factors times a constant (co)isometry.

    ``side="iso"`` (p >= m) represents ``F(z) = B_1(z) ... B_d(z) @ constant``
    with ``p``-dimensional factors; ``side="coiso"`` (m >= p) represents
    ``F(z) = constant @ B_1(z) ... B_d(z)`` with ``m``-dimensional factors.
    ``factors[0]`` is always the leftmost factor of the product, and each
    factor is ``B(z) = I + (phi(z) - 1) v v*`` for a unit vector ``v``.
    Product-form operations are written for the iso side; the coiso side
    runs through :meth:`transpose`.

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
        packed = []
        for pole, v in factors:
            if not isinstance(pole, Pole):
                pole = Pole(pole)
            v = _as_direction(v, k)
            if validate:
                v = _unit_direction(v)
            packed.append((pole, _readonly(v)))
        self.factors = tuple(packed)
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

    @property
    def factor_dimension(self) -> int:
        return _factor_dimension(self.side, self.p, self.m)

    @property
    def poles(self) -> tuple:
        return tuple(pole for pole, _ in self.factors)

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array."""
        zs = _points(zs)
        gains = _blaschke_values(self.poles, zs) - 1.0
        directions = [v for _, v in self.factors]
        if self.side == ISO:
            return _iso_product(gains, directions, self.constant)
        # F(z)^T is the iso product of transpose(); no form is built per call
        transposed = _iso_product(gains[::-1], [v.conj() for v in reversed(directions)], self.constant.T)
        return transposed.swapaxes(1, 2)

    def transpose(self) -> "BlaschkePotapovForm":
        """Product form of ``F(z)^T``: factors reversed, directions conjugated,
        constant transposed, side and ``p``/``m`` swapped.

        The map is exact and neither revalidates nor renormalizes, so a
        ``validate=False`` form stays broken and transposing twice is bit-exact.
        """
        side = COISO if self.side == ISO else ISO
        return BlaschkePotapovForm(
            side, self.m, self.p, _transposed_factors(self.factors), self.constant.T,
            validate=False,
        )


def _transposed_factors(factors) -> list:
    """Factors of the transposed product: reversed, with conjugated directions."""
    return [(pole, v.conj()) for pole, v in reversed(factors)]


def _iso_product(gains, directions, constant: np.ndarray) -> np.ndarray:
    """Values of ``B_1(z) ... B_d(z) @ constant`` at ``N`` points.

    Row ``j`` of the ``(d, N)`` array ``gains`` holds ``phi_j(z) - 1`` at
    every point, and ``directions[j]`` is the unit vector ``v_j`` of factor
    ``j``; points and poles enter only through the gains.
    """
    out = np.empty((gains.shape[1], *constant.shape), dtype=complex)
    out[:] = constant
    # Apply factors from the right end of the product outwards.
    for gain, v in zip(gains[::-1], directions[::-1]):
        projected = v.conj() @ out
        out += (gain[:, None] * projected)[:, None, :] * v[:, None]
    return out


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

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def realization_matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

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
        resolvent = np.linalg.solve(zs[:, None, None] * np.eye(self.n) - self.a, self.b)
        return out + self.c @ resolvent

    def transpose(self) -> "StateSpaceRealization":
        """Realization ``(J A^T J, J C^T, B^T J, D^T)`` of ``F(z)^T``.

        ``J`` reverses the state order.  Plain ``(A^T, C^T, B^T, D^T)`` also
        realizes ``F^T``, but the flip keeps a cascade's upper triangular ``A``
        upper triangular; the coiso ``bp_to_realization`` built this way is
        accurate to 1e-14 off the circle at degree 32, against up to 3e-10
        without the flip.
        """
        return StateSpaceRealization(
            self.a.T[::-1, ::-1], self.c.T[::-1], self.b.T[:, ::-1], self.d.T
        )


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
        """Keep one read-only copy of each coefficient stack; coefficients are views of it."""
        self.side = side
        self.num = tuple(_readonly(num))
        self.den = tuple(_readonly(den))
        self.p, self.m = self.num[0].shape

    @property
    def degree(self) -> int:
        return len(self.num) - 1

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

    def eval_many(self, zs) -> np.ndarray:
        """Evaluate at a batch of points; returns an ``(N, p, m)`` array."""
        zs = _points(zs)
        if self.q < 0 and np.any(np.abs(zs) <= EVAL_POLE_MARGIN):
            raise EvalAtPole("Laurent form with q < 0 has a pole at the origin")
        return (zs ** self.q)[:, None, None] * _poly_at(self.coeffs, zs)


def evaluate(form, z: complex) -> np.ndarray:
    """Evaluate any of the four forms at a finite point ``z``."""
    if not isinstance(
        form, (BlaschkePotapovForm, StateSpaceRealization, MFDForm, LaurentPolyForm)
    ):
        raise TypeError(f"cannot evaluate object of type {type(form).__name__}")
    return form(z)


def _phase_correction(pole: Pole) -> complex:
    """Unimodular constant c with 1/phi_alpha = c * phi_{1/conj(alpha)}."""
    if pole.is_infinity or pole.value == 0:
        return 1.0 + 0.0j
    return pole.value / pole.value.conjugate()


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
    # I + (1/phi_alpha - 1) w w* with w = conj(v): the factor at the reflected
    # pole times the unimodular constant I + (c - 1) w w*.
    k = f.factor_dimension
    items = []
    for pole, v in f.factors:
        w = v.conj()
        items.append((pole.flipped(), w))
        c = _phase_correction(pole)
        if c != 1.0:
            items.append(np.eye(k, dtype=complex) + (c - 1.0) * np.outer(w, v))
    factors, g = _fold_right(items, k)
    return BlaschkePotapovForm(ISO, f.p, f.m, factors, g @ f.constant.conj()).transpose()
