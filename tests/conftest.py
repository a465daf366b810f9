import numpy as np
import pytest

from paraunit import (
    COISO,
    ISO,
    BlaschkePotapovForm,
    Pole,
    build_paraunitary,
    random_params,
)


def random_form(seed, side, p, m, d, schur_only=False):
    """Seeded random product form via the angle chart."""
    return build_paraunitary(random_params(seed, side, p, m, d, schur_only=schur_only))


def random_unitary(rng, k):
    x = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fir_form(seed, p=3, m=3):
    """Iso product form with poles at infinity, the origin and infinity."""
    rng = np.random.default_rng(seed)
    factors = []
    for pole in [Pole.infinity(), Pole(0.0), Pole.infinity()]:
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        factors.append((pole, v / np.linalg.norm(v)))
    return BlaschkePotapovForm(ISO, p, m, factors, random_unitary(rng, p)[:, :m])


def perturb_direction(form, scale=1.01, index=0):
    """Rescale one factor direction, bypassing validation (negative control)."""
    factors = [(pole, np.array(v)) for pole, v in form.factors]
    pole, v = factors[index]
    factors[index] = (pole, scale * v)
    return BlaschkePotapovForm(
        form.side, form.p, form.m, factors, form.constant, validate=False
    )


def circle_points(count):
    return np.exp(2j * np.pi * np.arange(count) / count)


def off_circle_probes(seed, count):
    """Random probe points away from the unit circle (both sides)."""
    rng = np.random.default_rng(seed)
    radii = np.concatenate(
        [
            rng.uniform(0.2, 0.75, size=(count + 1) // 2),
            rng.uniform(1.3, 3.0, size=count // 2),
        ]
    )
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
