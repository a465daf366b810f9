"""The certificate suite on the structure every package realization has.

``bp_to_realization`` writes an upper triangular ``A``, and the package's
conversions write fractions over ``den(z) I`` with a scalar ``den``.  A
realization decides its structure once, in its Schur view ``ss.schur``
(``linalg._schur_form``); for a triangular ``A`` the view is the identity
change, so the Stein solve, the spectral radius, the realization's
evaluation and its fraction run neither a Schur form nor an eigenvalue
solver.  The guards below make sure no certificate on such a realization
reaches either one, and that the suite solves one Stein pair per realization
and no eigenvectors for the contraction certificate.  The table pins every
verdict and McMillan degree on a seeded set of forms, as computed before
these structural paths existed (with the Schur step and the per-point LU).
A dense realization, the same cascade after a unitary state change, takes
the view's Schur step and must give the same verdicts and degree.
"""

import numpy as np
import pytest

import paraunit.analysis
import paraunit.linalg
from paraunit import (
    COISO,
    ISO,
    LEFT,
    RIGHT,
    SideMismatch,
    StateSpaceRealization,
    bp_to_mfd,
    bp_to_realization,
    circle_residual,
    gramian_certificate,
    mcmillan_degree,
    mfd_check,
    realization_check,
    spectral_radius,
    ss_to_mfd,
)
from conftest import circle_points, perturb_direction, random_form, random_unitary

SHAPES = {"4x2": (ISO, 4, 2), "2x4": (COISO, 2, 4), "3x3": (ISO, 3, 3)}

#: ``(shape, d) -> (degree, perturbed verdicts)``.  The verdict columns are
#: ``circle_residual`` and ``realization_check`` of the realization, its two
#: gramian certificates, and ``mfd_check`` of ``ss_to_mfd`` and of
#: ``bp_to_mfd`` on the fitting side.  Every positive verdict is Pass, and the
#: perturbed form (one direction scaled by 1.01) has the positive form's
#: McMillan degree.  The undercounts from d32 on are the known rank-threshold
#: defect of ``mcmillan_degree`` (ROADMAP), kept here as they were.
PINNED = {
    ("4x2", 1): (1, "FFFPFF"), ("2x4", 1): (1, "FFFPFF"), ("3x3", 1): (1, "FFFFFF"),
    ("4x2", 3): (3, "FFFPFF"), ("2x4", 3): (3, "FFFPFF"), ("3x3", 3): (3, "FFFFFF"),
    ("4x2", 8): (8, "FFFFFF"), ("2x4", 8): (8, "FFFPFF"), ("3x3", 8): (8, "FFFFFF"),
    ("4x2", 16): (16, "FFFFFF"), ("2x4", 16): (16, "FFFFFF"), ("3x3", 16): (16, "FFFFFF"),
    ("4x2", 32): (32, "FFFFFF"), ("2x4", 32): (31, "FFFFFF"), ("3x3", 32): (32, "FFFFFF"),
    ("4x2", 64): (60, "FFFFFF"), ("2x4", 64): (60, "FFFFFF"), ("3x3", 64): (64, "FFFFFF"),
    ("4x2", 128): (109, "FFFFFF"), ("2x4", 128): (109, "FFFFFF"), ("3x3", 128): (128, "FFFFFF"),
}


def seeded_form(shape, d):
    side, p, m = SHAPES[shape]
    return random_form(1000 + d, side, p, m, d, schur_only=True)


def verdicts(form, ss=None):
    """Verdict letters of the six columns of ``PINNED`` and the McMillan degree.

    ``ss`` realizes ``form``; by default it is the cascade realization.
    """
    if ss is None:
        ss = bp_to_realization(form, validate=False)
    side = RIGHT if form.p >= form.m else LEFT
    certs = [
        circle_residual(ss), realization_check(ss), *gramian_certificate(ss)[2],
        mfd_check(ss_to_mfd(ss, side)), mfd_check(bp_to_mfd(form, side)),
    ]
    return "".join(cert.verdict[0] for cert in certs), mcmillan_degree(ss)


def wrong_side_verdict(form):
    """``mfd_check`` of the fraction on the other side: ``S`` for ``SideMismatch``."""
    ss = bp_to_realization(form, validate=False)
    try:
        return mfd_check(ss_to_mfd(ss, LEFT if form.p >= form.m else RIGHT)).verdict[0]
    except SideMismatch:
        return "S"


@pytest.mark.parametrize("shape, d", sorted(PINNED, key=lambda key: (key[1], key[0])))
def test_verdicts_and_degrees_are_pinned(shape, d):
    degree, perturbed = PINNED[shape, d]
    form = seeded_form(shape, d)
    broken = perturb_direction(form, 1.01, d // 2)
    assert verdicts(form) == ("PPPPPP", degree)
    assert verdicts(broken) == (perturbed, degree)
    square = shape == "3x3"
    assert wrong_side_verdict(form) == ("P" if square else "S")
    assert wrong_side_verdict(broken) == ("F" if square else "S")


@pytest.fixture
def no_schur_or_eigvals(monkeypatch):
    """Make the Schur step and the dense eigenvalue solver raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a triangular realization reached a Schur or eigenvalue solver")

    monkeypatch.setattr(paraunit.linalg, "_schur", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)


@pytest.mark.parametrize("d", [1, 7, 64])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_suite_on_a_cascade_runs_no_schur_step(no_schur_or_eigvals, shape, d):
    form = seeded_form(shape, d)
    ss = bp_to_realization(form)
    side = RIGHT if form.p >= form.m else LEFT
    certs = [circle_residual(ss), realization_check(ss), *gramian_certificate(ss)[2], mfd_check(ss_to_mfd(ss, side))]
    assert all(cert.passed for cert in certs)
    assert mcmillan_degree(ss) <= d
    assert spectral_radius(ss.a) < 1.0
    assert ss.eval_many(circle_points(16)).shape == (16, form.p, form.m)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_suite_solves_one_stein_pair(monkeypatch, shape):
    solves = []
    solve_stein = paraunit.analysis.solve_stein

    def counted(*args, **kwargs):
        solves.append(kwargs["side"])
        return solve_stein(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the contraction certificate computed eigenvectors")

    monkeypatch.setattr(paraunit.analysis, "solve_stein", counted)
    form = seeded_form(shape, 16)
    ss = bp_to_realization(form)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", refuse)
        patch.setattr(paraunit.analysis, "hermitian_eig", refuse)
        certs = gramian_certificate(ss)[2]
    side = RIGHT if form.p >= form.m else LEFT
    certs += [circle_residual(ss), realization_check(ss), mfd_check(ss_to_mfd(ss, side))]
    assert mcmillan_degree(ss) == PINNED[shape, 16][0]
    certs += gramian_certificate(ss)[2]
    assert all(cert.passed for cert in certs)
    assert solves == ["cont", "obs"]


def rotated(ss, seed):
    """``ss`` after a seeded unitary state change ``A -> U* A U``: a dense ``A`` for ``n > 1``."""
    u = random_unitary(np.random.default_rng(seed), ss.n)
    return StateSpaceRealization(u.conj().T @ ss.a @ u, u.conj().T @ ss.b, ss.c @ u, ss.d)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("d", [1, 8, 64])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_dense_realization_keeps_verdicts_and_poles(shape, d, perturbed):
    form = seeded_form(shape, d)
    if perturbed:
        form = perturb_direction(form, 1.01, d // 2)
    ss = bp_to_realization(form, validate=False)
    dense = rotated(ss, d)
    assert (dense.schur[1] is None) == (d == 1)
    assert verdicts(form, dense) == verdicts(form)
    # each pole candidate is an eigenvalue of A within 1e-12 backward; a forward
    # comparison cannot hold, because the cascade's origin poles form Jordan
    # chains, which a rounding error of 1e-16 splits by up to 0.2 at d64
    for pole in dense.pole_candidates():
        assert np.linalg.svd(pole * np.eye(d) - ss.a, compute_uv=False)[-1] <= 1e-12
    assert abs(spectral_radius(dense.a) - spectral_radius(ss.a)) <= 1e-12
