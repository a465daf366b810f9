import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from paraunit import (
    COISO,
    ISO,
    LEFT,
    RIGHT,
    BlaschkePotapovForm,
    Certificate,
    DimensionMismatch,
    LaurentPolyForm,
    MFDForm,
    NotSchurStable,
    Pole,
    SideMismatch,
    StateSpaceRealization,
    bp_to_laurent,
    bp_to_realization,
    circle_residual,
    flip_poles,
    gramian_certificate,
    laurent_check,
    mcmillan_degree,
    mfd_check,
    realization_check,
    ss_to_mfd,
)
import paraunit.analysis
from paraunit.analysis import _autocorrelation
from paraunit.linalg import solve_stein
from paraunit.tolerances import CIRCLE_SAMPLES, SCHUR_MARGIN
from conftest import (
    block_hankel,
    constant_system,
    fir_form,
    overflowing_realization,
    perturb_direction,
    random_form,
    random_unitary,
)
from golden import (
    SQRT2,
    row_example_bp,
    row_example_ss_normalized,
    row_example_ss_unnormalized,
)


def degree_80_realizations():
    """Schur-stable cascade realizations of degree 80 (more than 64 states)."""
    return [
        bp_to_realization(random_form(80, ISO, 4, 2, 80, schur_only=True)),
        bp_to_realization(random_form(81, COISO, 2, 4, 80, schur_only=True)),
    ]


def scipy_hankel_rank(ss, rank_tol):
    """Hankel rank from gramians computed by scipy's own Lyapunov solver."""
    w_cont = scipy.linalg.solve_discrete_lyapunov(ss.a, ss.b @ ss.b.conj().T)
    w_obs = scipy.linalg.solve_discrete_lyapunov(ss.a.conj().T, ss.c.conj().T @ ss.c)
    values, vectors = np.linalg.eigh(0.5 * (w_cont + w_cont.conj().T))
    root = vectors @ np.diag(np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    product = root @ (0.5 * (w_obs + w_obs.conj().T)) @ root
    return int(np.count_nonzero(np.linalg.eigvalsh(product) > rank_tol))


def phase_fir(degree):
    """The 1x1 FIR ``cos(.3) + i sin(.3) z^degree``, which is not lossless."""
    coeffs = [np.zeros((1, 1), dtype=complex) for _ in range(degree + 1)]
    coeffs[0][0, 0] = np.cos(0.3)
    coeffs[-1][0, 0] = 1j * np.sin(0.3)
    return LaurentPolyForm(0, coeffs)


def circle_test_form(kind, broken):
    """A lossless form of the given kind, or its negative control."""
    scale = 1.01 if broken else 1.0
    if kind == "bp_coiso":
        return perturb_direction(random_form(61, COISO, 2, 3, 3), scale)
    if kind == "laurent":
        return bp_to_laurent(perturb_direction(fir_form(62, 3, 2), scale))
    form = perturb_direction(random_form(60, ISO, 3, 2, 4, schur_only=True), scale)
    if kind == "bp":
        return form
    ss = bp_to_realization(form, validate=False)
    return ss if kind == "ss" else ss_to_mfd(ss, RIGHT)


def reference_circle_residual(form, samples):
    """Point-by-point circle sampling: ``(worst deviation, its gram matrix)``.

    Ties go to the last point, as in ``circle_residual``.
    """
    eye = np.eye(min(form.p, form.m))
    worst, witness = 0.0, None
    for k in range(samples):
        value = form(np.exp(2j * np.pi * k / samples))
        if form.p >= form.m:
            gram = value.conj().T @ value - eye
        else:
            gram = value @ value.conj().T - eye
        deviation = float(np.linalg.norm(gram))
        if deviation >= worst:
            worst, witness = deviation, gram
    return worst, witness


def test_certificate_verdict_matches_threshold():
    assert Certificate("x", 1e-12, 1e-10).verdict == "Pass"
    assert Certificate("x", 1e-9, 1e-10).verdict == "Fail"
    assert Certificate("x", 1e-10, 1e-10).passed  # boundary counts as pass


class TestCircleResidual:
    def test_constant_isometry(self, rng):
        u = random_unitary(rng, 3)[:, :2]
        cert = circle_residual(BlaschkePotapovForm(ISO, 3, 2, [], u))
        assert cert.residual <= 1e-14
        assert cert.passed

    def test_worked_example_passes(self):
        assert circle_residual(row_example_bp(0.5)).passed

    @pytest.mark.filterwarnings("error")
    def test_overflowing_values_read_inf(self):
        cert = circle_residual(LaurentPolyForm(0, [[[1e300]], [[1e300]]]))
        assert cert.residual == np.inf
        assert not cert.passed

    def test_rescaled_direction_fails(self):
        form = row_example_bp(0.5)
        broken = BlaschkePotapovForm(
            form.side,
            form.p,
            form.m,
            [(form.poles[0], 0.9 * form.factors[0][1])],
            form.constant,
            validate=False,
        )
        cert = circle_residual(broken)
        assert not cert.passed
        assert cert.residual > 1e-2

    def test_default_samples_track_degree(self):
        # cos(.3) + i sin(.3) z^32 is not lossless; 64 samples would alias it to a pass
        fir = phase_fir(32)
        cert = circle_residual(fir)
        assert not cert.passed
        assert abs(cert.residual - 0.56) <= 0.01

    def test_aliasing_sample_count_raises(self):
        # at degree 8, 8 samples would read 8.9e-16 and the default reads 0.565
        fir = phase_fir(8)
        assert abs(circle_residual(fir).residual - 0.565) <= 0.001

    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("kind", ["bp", "bp_coiso", "ss", "mfd", "laurent"])
    def test_matches_reference_loop(self, kind, broken):
        form = circle_test_form(kind, broken)
        samples = max(CIRCLE_SAMPLES, 2 * form._circle_degree + 1)
        worst, witness = reference_circle_residual(form, samples)
        cert = circle_residual(form)
        assert abs(cert.residual - worst) <= 1e-13
        if broken:
            # the maximum is unique, so both must report the same point
            assert np.linalg.norm(cert.witness - witness) <= 1e-13


class TestRealizationCheck:
    def test_balanced_worked_example_passes(self):
        cert = realization_check(row_example_ss_normalized(0.5))
        assert cert.name == "realization_coisometry"
        assert cert.passed

    def test_unnormalized_equivalent_fails(self):
        cert = realization_check(row_example_ss_unnormalized(0.5))
        assert not cert.passed
        assert cert.residual > 1e-2

    def test_unitary_split_passes_both(self, rng):
        u = random_unitary(rng, 5)
        ss = StateSpaceRealization(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
        cert = realization_check(ss)
        assert cert.name == "realization_unitary"
        assert cert.passed

    @pytest.mark.parametrize("p, m", [(3, 1), (1, 3), (2, 2)])
    def test_matches_explicit_gram_products(self, rng, p, m):
        n = 3
        shapes = [(n, n), (n, m), (p, n), (p, m)]
        ss = StateSpaceRealization(*(rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes))
        r = ss.realization_matrix
        iso = r.conj().T @ r - np.eye(n + m)
        coiso = r @ r.conj().T - np.eye(n + p)
        iso_res, coiso_res = float(np.linalg.norm(iso)), float(np.linalg.norm(coiso))
        if p > m:
            expected = ("realization_isometry", iso_res, iso)
        elif m > p:
            expected = ("realization_coisometry", coiso_res, coiso)
        else:
            expected = ("realization_unitary", max(iso_res, coiso_res), np.array([iso_res, coiso_res]))
        cert = realization_check(ss)
        assert (cert.name, cert.residual) == expected[:2]
        assert cert.witness.tobytes() == expected[2].tobytes()


class TestGramianCertificate:
    def test_worked_example_values(self):
        w_cont, w_obs, certs = gramian_certificate(row_example_ss_normalized(0.5))
        assert abs(w_cont[0, 0] - 1.0) <= 1e-10
        assert abs(w_obs[0, 0] - 0.5) <= 1e-10
        assert [c.name for c in certs] == [
            "gramian_cont_identity",
            "gramian_obs_contraction",
        ]
        assert all(c.passed for c in certs)

    def test_square_identity_case(self):
        ss = StateSpaceRealization(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        w_cont, w_obs, certs = gramian_certificate(ss)
        assert np.allclose(w_cont, np.eye(2), atol=1e-12)
        assert np.allclose(w_obs, np.eye(2), atol=1e-12)
        assert all(c.passed for c in certs)

    def test_tall_pipeline_passes(self):
        form = random_form(7, ISO, 4, 2, 3, schur_only=True)
        _, w_obs, certs = gramian_certificate(bp_to_realization(form))
        assert np.linalg.norm(w_obs - np.eye(3)) <= 1e-8
        assert all(c.passed for c in certs)

    def test_rejects_unstable(self):
        ss = StateSpaceRealization([[1.5]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotSchurStable):
            gramian_certificate(ss)

    def test_degree_80_passes(self):
        for ss in degree_80_realizations():
            assert ss.n == 80
            _, _, certs = gramian_certificate(ss)
            assert all(c.passed for c in certs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "shape, name", [("tall", "gramian_cont_contraction"), ("wide", "gramian_cont_identity")]
    )
    def test_overflowing_gramian_fails_with_inf(self, shape, name):
        certs = {c.name: c for c in gramian_certificate(overflowing_realization(shape))[2]}
        assert certs[name].residual == np.inf
        assert not certs[name].passed
        assert all(not np.isnan(c.residual) for c in certs.values())

    @pytest.mark.parametrize("side", [RIGHT, LEFT])
    def test_stateless_realization(self, rng, side):
        isometry = random_unitary(rng, 3)[:, :2]
        ss = constant_system(isometry if side == RIGHT else isometry.T)
        w_cont, w_obs, certs = gramian_certificate(ss)
        assert w_cont.shape == w_obs.shape == (0, 0)
        assert [c.residual for c in certs] == [0.0, 0.0]
        assert certs[1].name.endswith("_contraction") and certs[1].witness.shape == (0,)
        assert mcmillan_degree(ss) == 0
        assert mfd_check(ss_to_mfd(ss, side)).passed


class TestGramianMemo:
    """A realization solves its gramian pair once; both certificates share it."""

    @pytest.fixture
    def solves(self, monkeypatch):
        sides = []
        solve = paraunit.analysis._solve_stein_schur

        def counted(*args, **kwargs):
            sides.append(kwargs["side"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(paraunit.analysis, "_solve_stein_schur", counted)
        return sides

    def test_pair_is_solved_once(self, solves):
        ss = bp_to_realization(random_form(71, ISO, 4, 2, 6, schur_only=True))
        w_cont, w_obs, certs = gramian_certificate(ss)
        assert mcmillan_degree(ss) == 6
        again = gramian_certificate(ss)
        assert solves == ["cont", "obs"]
        assert again[0] is w_cont and again[1] is w_obs
        assert [c.residual for c in again[2]] == [c.residual for c in certs]

    def test_failure_is_not_kept(self, solves):
        ss = StateSpaceRealization([[1.0 - 0.5 * SCHUR_MARGIN]], [[1e-5]], [[1e-5]], [[1.0]])
        for _ in range(2):
            with pytest.raises(NotSchurStable):
                gramian_certificate(ss)
        with pytest.raises(NotSchurStable):
            mcmillan_degree(ss)
        assert solves == ["cont", "cont", "cont"]

    def test_gramians_are_read_only_and_exact(self):
        ss = bp_to_realization(random_form(72, COISO, 2, 4, 5, schur_only=True))
        w_cont, w_obs, _ = gramian_certificate(ss)
        assert not w_cont.flags.writeable and not w_obs.flags.writeable
        with pytest.raises(ValueError):
            w_obs[0, 0] = 0.0
        assert w_cont.tobytes() == solve_stein(ss.a, ss.b @ ss.b.conj().T, side="cont").tobytes()
        assert w_obs.tobytes() == solve_stein(ss.a, ss.c.conj().T @ ss.c, side="obs").tobytes()

    def test_transpose_solves_its_own_pair(self, solves):
        ss = bp_to_realization(random_form(73, ISO, 3, 2, 5, schur_only=True))
        w_cont, w_obs, _ = gramian_certificate(ss)
        t_cont, t_obs, _ = gramian_certificate(ss.transpose())
        assert solves == ["cont", "obs", "cont", "obs"]
        # (J A^T J, J C^T, B^T J) has the gramians J conj(W_obs) J and J conj(W_cont) J
        assert np.allclose(t_cont, w_obs.conj()[::-1, ::-1], atol=1e-12)
        assert np.allclose(t_obs, w_cont.conj()[::-1, ::-1], atol=1e-12)


class TestBlockHankel:
    def test_single_block(self):
        b0 = np.array([[1.0, 2.0]])
        assert np.array_equal(block_hankel([b0]), b0)

    def test_two_blocks_anti_diagonal(self):
        b0 = np.array([[1.0]])
        b1 = np.array([[2.0]])
        expected = np.array([[1.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(block_hankel([b0, b1]), expected)

    def test_scalar_pattern(self):
        h = block_hankel([np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]])])
        expected = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 0.0], [3.0, 0.0, 0.0]])
        assert np.array_equal(h, expected)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            block_hankel([np.eye(2), np.eye(3)])


class TestHankelKernel:
    """The autocorrelation witness against the dense block Hankel products."""

    @staticmethod
    def random_coeffs(rng, count, rows, cols):
        shape = (count, rows, cols)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("count, rows, cols", [(1, 3, 2), (4, 3, 2), (5, 2, 4), (9, 4, 1)])
    def test_autocorrelation_is_first_block_column(self, count, rows, cols):
        c = self.random_coeffs(np.random.default_rng(count), count, rows, cols)
        h = block_hankel(c)
        assert np.allclose(_autocorrelation(c), (h.conj().T @ h)[:, :cols], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side, p, m", [(RIGHT, 3, 2), (RIGHT, 4, 1), (LEFT, 2, 3), (LEFT, 1, 4)])
    def test_mfd_witness_matches_dense_gap(self, side, p, m):
        rng = np.random.default_rng(p + 10 * m)
        k = m if side == RIGHT else p
        num = self.random_coeffs(rng, 5, p, m)
        den = self.random_coeffs(rng, 5, k, k)
        cert = mfd_check(MFDForm(side, num, den))
        h_num, h_den = block_hankel(num), block_hankel(den)
        if side == RIGHT:
            gap = (h_den.conj().T @ h_den - h_num.conj().T @ h_num)[:, :m]
        else:
            gap = (h_den @ h_den.conj().T - h_num @ h_num.conj().T)[:, :p]
        assert np.allclose(cert.witness, gap, rtol=0, atol=1e-12)
        assert abs(cert.residual - np.linalg.norm(gap)) <= 1e-12 * np.linalg.norm(gap)

    @pytest.mark.parametrize("p, m", [(3, 2), (2, 3), (2, 2)])
    def test_laurent_residual_matches_dense_gap(self, p, m):
        coeffs = self.random_coeffs(np.random.default_rng(p + 10 * m), 4, p, m)
        h = block_hankel(coeffs)
        if p >= m:
            gap = (np.eye(4 * m) - h.conj().T @ h)[:, :m]
        else:
            gap = (np.eye(4 * p) - h @ h.conj().T)[:p, :]
        cert = laurent_check(LaurentPolyForm(0, coeffs))
        assert abs(cert.residual - np.linalg.norm(gap)) <= 1e-12 * np.linalg.norm(gap)


class TestMfdCheck:
    def test_worked_example_hand_expansion(self):
        den = [np.array([[-0.5]]), np.array([[1.0]])]
        num = [
            np.array([[1.0, -0.5]]) / SQRT2,
            np.array([[-0.5, 1.0]]) / SQRT2,
        ]
        mfd = MFDForm(LEFT, num, den)
        h_den = block_hankel(den)
        h_num = block_hankel(num)
        gram_den = h_den @ h_den.conj().T
        gram_num = h_num @ h_num.conj().T
        # leading block mass 1/4 + 1 on both sides, cross term -1/2
        assert abs(gram_den[0, 0] - 1.25) < 1e-14
        assert abs(gram_num[0, 0] - 1.25) < 1e-14
        assert abs(gram_den[1, 0] + 0.5) < 1e-14
        assert abs(gram_num[1, 0] + 0.5) < 1e-14
        cert = mfd_check(mfd)
        assert cert.residual <= 1e-14
        assert cert.passed

    def test_constant_isometry_right(self, rng):
        u = random_unitary(rng, 3)[:, :2]
        mfd = MFDForm(RIGHT, [u], [np.eye(2)])
        assert mfd_check(mfd).passed

    def test_perturbed_numerator_fails(self):
        form = random_form(23, ISO, 3, 2, 3, schur_only=True)
        mfd = ss_to_mfd(bp_to_realization(form), RIGHT)
        num = [np.array(x) for x in mfd.num]
        num[0] = num[0] + 1e-2
        broken = MFDForm(RIGHT, num, mfd.den)
        cert = mfd_check(broken)
        assert not cert.passed
        assert cert.residual >= 1e-3

    def test_side_mismatch(self):
        num = [np.zeros((1, 2)), np.ones((1, 2))]
        den = [np.eye(2), np.zeros((2, 2))]
        mfd = MFDForm(RIGHT, num, den)
        with pytest.raises(SideMismatch):
            mfd_check(mfd)


class TestLaurentCheck:
    def test_diagonal_delay(self):
        lp = LaurentPolyForm(0, [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        cert = laurent_check(lp)
        assert cert.residual <= 1e-15
        assert cert.passed

    def test_constant_block(self, rng):
        u = random_unitary(rng, 2)
        assert laurent_check(LaurentPolyForm(0, [u])).passed
        assert not laurent_check(LaurentPolyForm(0, [0.9 * u])).passed

    def test_fir_pipeline_and_negative_control(self):
        rng = np.random.default_rng(29)
        factors = []
        for _ in range(3):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            factors.append((Pole.infinity(), v / np.linalg.norm(v)))
        form = BlaschkePotapovForm(ISO, 3, 3, factors, random_unitary(rng, 3))
        from paraunit import bp_to_laurent

        assert laurent_check(bp_to_laurent(form)).passed
        coeffs = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4)]
        assert not laurent_check(LaurentPolyForm(0, coeffs)).passed

    def test_shift_invariance(self):
        coeffs = [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]
        verdicts = {laurent_check(LaurentPolyForm(q, coeffs)).verdict for q in range(-3, 4)}
        assert verdicts == {"Pass"}


class TestMcmillanDegree:
    def test_worked_example_is_minimal(self):
        assert mcmillan_degree(row_example_ss_normalized(0.5)) == 1

    def test_constant_and_padded_systems(self, rng):
        u = random_unitary(rng, 2)
        ss = bp_to_realization(BlaschkePotapovForm(ISO, 2, 2, [], u))
        assert mcmillan_degree(ss) == 0
        padded = StateSpaceRealization(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), u
        )
        assert mcmillan_degree(padded) == 0

    def test_telescoping_product_drops_degree(self):
        # phi_alpha * phi_{1/conj(alpha)} is a unimodular constant, so the
        # two-factor scalar form collapses to degree zero; after the pole
        # flip the survivor is a single factor of true degree one.
        alpha = 0.6 + 0.1j
        form = BlaschkePotapovForm(
            ISO,
            1,
            1,
            [(Pole(alpha), [1.0]), (Pole(alpha).flipped(), [1.0])],
            np.eye(1),
        )
        constant = form(0.3 + 0.2j)
        assert abs(abs(constant[0, 0]) - 1.0) < 1e-12  # the product is constant
        flipped = flip_poles(form)
        degree = mcmillan_degree(bp_to_realization(flipped))
        assert degree == 1 < form.d

    def test_rejects_unstable(self):
        ss = StateSpaceRealization([[1.2]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotSchurStable):
            mcmillan_degree(ss)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_overflowing_gramians_raise(self, shape):
        with pytest.raises(ValueError, match="gramians overflowed"):
            mcmillan_degree(overflowing_realization(shape))

    def test_degree_80_within_scipy_rank_band(self):
        # some squared Hankel singular values of a degree-80 cascade lie near
        # the 1e-9 threshold, so the reference is the band between 1e-8 and 1e-10
        for ss in degree_80_realizations():
            low, high = scipy_hankel_rank(ss, 1e-8), scipy_hankel_rank(ss, 1e-10)
            assert low <= mcmillan_degree(ss) <= high


class TestCharacterizationEquivalence:
    def test_pass_and_fail_move_together(self):
        rng = np.random.default_rng(37)
        for case in range(20):
            d = int(rng.integers(1, 7))
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, p + 1))
            form = random_form(1000 + case, ISO, p, m, d, schur_only=True)
            ss = bp_to_realization(form)
            mfd = ss_to_mfd(ss, RIGHT if p >= m else LEFT)
            assert circle_residual(form).residual <= 1e-9
            assert realization_check(ss).residual <= 1e-9
            assert mfd_check(mfd).residual <= 1e-8
            assert mcmillan_degree(ss) <= d

            broken = perturb_direction(form)
            broken_ss = bp_to_realization(broken, validate=False)
            broken_mfd = ss_to_mfd(broken_ss, RIGHT if p >= m else LEFT)
            assert circle_residual(broken).residual >= 1e-4
            assert realization_check(broken_ss).residual >= 1e-4
            assert mfd_check(broken_mfd).residual >= 1e-4

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(1, 96),
        seed=st.integers(0, 2**16),
        fir=st.booleans(),
    )
    def test_transpose_keeps_every_verdict(self, side, dims, d, seed, fir):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        form = random_form(seed, side, p, m, d, schur_only=True)
        if fir:
            poles = [Pole(0.0) if j % 2 else Pole.infinity() for j in range(d)]
            form = BlaschkePotapovForm(
                side, p, m, [(pole, v) for pole, (_, v) in zip(poles, form.factors)], form.constant
            )
        for f, lossless in [(form, True), (perturb_direction(form, index=d // 2), False)]:
            verdicts = []
            for g in (f, f.transpose()):
                certs = [circle_residual(g)]
                if fir:
                    certs.append(laurent_check(bp_to_laurent(g)))
                else:
                    ss = bp_to_realization(g, validate=False)
                    certs.append(realization_check(ss))
                    certs.extend(gramian_certificate(ss)[2])
                    certs.append(mfd_check(ss_to_mfd(ss, RIGHT if g.p >= g.m else LEFT)))
                verdicts.append([cert.passed for cert in certs])
            assert verdicts[0] == verdicts[1]
            if lossless:
                assert all(verdicts[0])
            else:
                assert verdicts[0][:2] == [False, False]
                if not fir:
                    assert not verdicts[0][-1]  # the mfd check fails too

    def test_gramian_identity_without_minimality(self):
        # tall cascade realizations satisfy I - A*A = C*C structurally
        for seed in range(3):
            form = random_form(2000 + seed, ISO, 3, 1, 4, schur_only=True)
            ss = bp_to_realization(form)
            _, w_obs, _ = gramian_certificate(ss)
            assert np.linalg.norm(w_obs - np.eye(ss.n)) <= 1e-8
