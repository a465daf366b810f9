"""Seeded workload inputs, built with the benchmark's own numpy code.

Nothing here calls the package under test: directions, poles and
isometries are drawn with numpy, and target sample values come from the
product formula in :func:`product_values`.  Each input is a plain
:class:`Spec`; the workloads turn specs into package objects only through
the public constructors (``Pole``, ``BlaschkePotapovForm``,
``LaurentPolyForm``, ``SampleSet``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: Share of Schur poles placed at the origin.
ZERO_POLE_SHARE = 0.2
#: Radii of nonzero Schur poles are uniform on this interval.
SCHUR_RADII = (0.1, 0.9)
#: Radii of poles outside the disk (before flipping) are uniform on this interval.
OUTSIDE_RADII = (1.2, 5.0)
#: Equispaced circle samples per fit target.
FIT_SAMPLES = 64
#: Norm given to one direction of every negative control.
NEGATIVE_SCALE = 1.01


@dataclass(frozen=True)
class Spec:
    """A product form as plain data: ``None`` marks a pole at infinity."""

    side: str
    p: int
    m: int
    poles: tuple
    directions: tuple
    constant: np.ndarray

    @property
    def d(self) -> int:
        return len(self.poles)

    @property
    def k(self) -> int:
        return self.p if self.side == "iso" else self.m

    def label(self) -> str:
        return f"{self.side} {self.p}x{self.m} d{self.d}"


def unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def schur_pole(rng: np.random.Generator) -> complex:
    if rng.uniform() < ZERO_POLE_SHARE:
        return 0j
    return rng.uniform(*SCHUR_RADII) * np.exp(2j * np.pi * rng.uniform())


def outside_pole(rng: np.random.Generator):
    """A pole at infinity (one in three) or outside the closed disk."""
    if rng.uniform() < 1.0 / 3.0:
        return None
    return rng.uniform(*OUTSIDE_RADII) * np.exp(2j * np.pi * rng.uniform())


def isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed ``rows x cols`` isometry from a QR factorization."""
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_spec(rng: np.random.Generator, side: str, p: int, m: int, poles) -> Spec:
    k = p if side == "iso" else m
    directions = tuple(unit_vector(rng, k) for _ in poles)
    if side == "iso":
        constant = isometry(rng, p, m)
    else:
        constant = isometry(rng, m, p).conj().T
    return Spec(side, p, m, tuple(poles), directions, constant)


def schur_spec(rng: np.random.Generator, side: str, p: int, m: int, d: int) -> Spec:
    return random_spec(rng, side, p, m, [schur_pole(rng) for _ in range(d)])


def side_for(rng: np.random.Generator, p: int, m: int) -> str:
    if p != m:
        return "iso" if p > m else "coiso"
    return "iso" if rng.uniform() < 0.5 else "coiso"


def negative_of(spec: Spec, index: int) -> Spec:
    """The same form with direction ``index`` scaled off the unit sphere."""
    directions = list(spec.directions)
    directions[index] = directions[index] * NEGATIVE_SCALE
    return Spec(spec.side, spec.p, spec.m, spec.poles, tuple(directions), spec.constant)


def blaschke(pole, zs: np.ndarray) -> np.ndarray:
    if pole is None:
        return zs
    return (1.0 - np.conj(pole) * zs) / (zs - pole)


def product_values(spec: Spec, zs) -> np.ndarray:
    """``F(z)`` at every point, as an ``(n, p, m)`` array.

    ``F = B_1 ... B_d U`` (iso) or ``U B_1 ... B_d`` (coiso) with
    ``B_j(z) = I + (phi_j(z) - 1) v_j v_j*``; the directions are used as
    given, so negative controls evaluate faithfully.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    chain = np.broadcast_to(np.eye(spec.k, dtype=complex), (zs.size, spec.k, spec.k)).copy()
    for pole, v in zip(spec.poles, spec.directions):
        factor = np.eye(spec.k, dtype=complex) + (blaschke(pole, zs) - 1.0)[:, None, None] * np.outer(v, v.conj())
        chain = chain @ factor
    if spec.side == "iso":
        return chain @ spec.constant
    return spec.constant @ chain


def circle_points(count: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / count)


def flip_scalar(spec: Spec, z: complex) -> complex:
    """The all-pass ``psi`` that pole flipping multiplies in, at one point."""
    value = 1.0 + 0.0j
    for pole in spec.poles:
        if pole is None:
            value /= z
        elif abs(pole) > 1.0:
            value *= (z - pole) / (1.0 - np.conj(pole) * z)
    return value


class Digest:
    """SHA-256 over every array and label fed to the program."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, Spec):
                self.add(item.side, item.p, item.m, item.constant)
                for pole, v in zip(item.poles, item.directions):
                    self.add("inf" if pole is None else complex(pole), v)
            elif isinstance(item, np.ndarray):
                self._hash.update(np.ascontiguousarray(item, dtype=complex).tobytes())
            else:
                self._hash.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
