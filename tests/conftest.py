import numpy as np
import pytest

from paraunit import (
    COISO,
    ISO,
    BlaschkePotapovForm,
    DimensionMismatch,
    Pole,
    PoleNotInDisk,
    StateSpaceRealization,
    build_paraunitary,
    random_params,
)
from paraunit.forms import _unit_direction
from paraunit.tolerances import LOEWNER_RANK_RTOL, SCHUR_MARGIN


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


# The factor-by-factor series cascade: the reference that bp_to_realization's
# one-sweep block formulas are tested against.


def factor_realization(pole, v, validate: bool = True) -> StateSpaceRealization:
    """One-state realization of ``I + (phi(z) - 1) v v*`` with unitary R.

    Parameters
    ----------
    pole : Pole or complex
        Finite pole strictly inside the open unit disk.
    v : (p,) array_like
        Unit direction vector.
    validate : bool
        With ``validate=False`` a non-unit ``v`` is accepted verbatim; the
        formulas stay faithful to the (then non-lossless) rank-one factor.

    Returns
    -------
    StateSpaceRealization
        ``A = [alpha]``, ``B = s v*``, ``C = s v``,
        ``D = I - (1 + conj(alpha)) v v*`` with ``s = sqrt(1 - |alpha|^2)``.
        For unit ``v`` the realization matrix is unitary to machine precision.
    """
    if not isinstance(pole, Pole):
        pole = Pole(pole)
    if pole.is_infinity:
        raise PoleNotInDisk("pole at infinity has no one-state realization")
    alpha = pole.value
    if abs(alpha) >= 1.0 - SCHUR_MARGIN:
        raise PoleNotInDisk(f"|{alpha}| is not strictly below one")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if validate:
        v = _unit_direction(v)
    p = v.size
    scale = np.sqrt(1.0 - abs(alpha) ** 2)
    a = np.array([[alpha]], dtype=complex)
    b = scale * v.conj()[None, :]
    c = scale * v[:, None]
    d = np.eye(p, dtype=complex) - (1.0 + alpha.conjugate()) * np.outer(v, v.conj())
    return StateSpaceRealization(a, b, c, d)


def series_cascade(outer: StateSpaceRealization, inner: StateSpaceRealization) -> StateSpaceRealization:
    """Realization of the matrix product ``outer(z) @ inner(z)``.

    Standard series interconnection: the inner system feeds the outer one,
    the outer state comes first in the composite state vector.
    """
    if outer.m != inner.p:
        raise DimensionMismatch(
            f"outer has {outer.m} inputs but inner has {inner.p} outputs"
        )
    n2, n1 = outer.n, inner.n
    a = np.block(
        [
            [outer.a, outer.b @ inner.c],
            [np.zeros((n1, n2), dtype=complex), inner.a],
        ]
    )
    b = np.block([[outer.b @ inner.d], [inner.b]])
    c = np.block([[outer.c, outer.d @ inner.c]])
    d = outer.d @ inner.d
    return StateSpaceRealization(a, b, c, d)


def constant_system(d) -> StateSpaceRealization:
    """Zero-state realization of a constant matrix."""
    d = np.asarray(d, dtype=complex)
    p, m = d.shape
    return StateSpaceRealization(
        np.zeros((0, 0), dtype=complex),
        np.zeros((0, m), dtype=complex),
        np.zeros((p, 0), dtype=complex),
        d,
    )


# The two-sided Loewner projection: the reference that the one SVD of
# fit._loewner_poles is tested against.


def two_sided_loewner_poles(samples, d):
    """The ``d`` smallest finite poles of the tangential Loewner pencil of
    ``fit._loewner_poles``, projected from two rectangular SVDs: onto the
    numerical rank of ``[L S]`` (its left singular vectors) and of
    ``[L; S]`` (the right ones), each cut at ``LOEWNER_RANK_RTOL`` and at
    ``d + min(p, m)``.  The reference that the one SVD of ``x L - S`` is
    tested against; ``None`` in the same cases."""
    from scipy.linalg import eig

    lam, mu = samples.zs[0::2], samples.zs[1::2]
    bound = d + min(samples.p, samples.m)
    if d == 0 or min(lam.size, mu.size) <= bound:
        return None
    gaps = mu[:, None] - lam
    if not gaps.all():
        return None
    right = np.arange(lam.size) % samples.m
    left = np.arange(mu.size) % samples.p
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


# The dense block Hankel matrix: the reference that the autocorrelation
# kernel of mfd_check and laurent_check is tested against.


def block_hankel(coeffs) -> np.ndarray:
    """Anti-diagonal block Hankel matrix of a coefficient list.

    Block ``(i, j)`` is ``coeffs[i + j]`` when ``i + j <= L`` (zero
    otherwise), where ``L + 1`` is the number of coefficients.
    """
    coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
    if not coeffs:
        raise DimensionMismatch("coefficient list must be non-empty")
    k1, k2 = coeffs[0].shape
    for c in coeffs:
        if c.shape != (k1, k2):
            raise DimensionMismatch("all coefficient blocks must share dimensions")
    count = len(coeffs)
    out = np.zeros((k1 * count, k2 * count), dtype=complex)
    for i in range(count):
        for j in range(count - i):
            out[i * k1 : (i + 1) * k1, j * k2 : (j + 1) * k2] = coeffs[i + j]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
