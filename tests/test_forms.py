import numpy as np
import pytest

from paraunit import (
    COISO,
    ISO,
    BlaschkePotapovForm,
    DimensionMismatch,
    EvalAtPole,
    LaurentPolyForm,
    MFDForm,
    Pole,
    SingularDenominator,
    StateSpaceRealization,
    blaschke_scalar,
    bp_to_laurent,
    bp_to_realization,
    conjugate,
    evaluate,
    ss_to_mfd,
)
from conftest import circle_points, fir_form, off_circle_probes, random_form, random_unitary
from golden import row_example_bp, row_example_ss_unnormalized, row_example_value


class TestPole:
    def test_rejects_unit_circle_neighborhood(self):
        with pytest.raises(ValueError):
            Pole(1.0)
        with pytest.raises(ValueError):
            Pole(np.exp(0.3j) * (1.0 + 1e-9))
        Pole(np.exp(0.3j) * (1.0 + 1e-7))  # enough margin

    def test_flip(self):
        assert Pole(0.0).flipped() == Pole.infinity()
        assert Pole.infinity().flipped() == Pole(0.0)
        alpha = 0.4 + 0.3j
        assert abs(Pole(alpha).flipped().value - 1.0 / np.conj(alpha)) < 1e-15

    def test_infinity_has_no_value(self):
        assert Pole.infinity().is_infinity
        with pytest.raises(ValueError):
            Pole.infinity().value


class TestBlaschkeScalar:
    def test_infinity_is_identity_map(self):
        assert blaschke_scalar(Pole.infinity(), 2.0) == 2.0

    def test_value_at_one(self):
        assert abs(blaschke_scalar(Pole(0.5), 1.0) - 1.0) < 1e-15

    def test_value_at_i(self):
        # (1 - 0.5i) / (i - 0.5) = -0.8 - 0.6i, modulus one
        value = blaschke_scalar(Pole(0.5), 1j)
        assert abs(value - (-0.8 - 0.6j)) < 1e-15
        assert abs(abs(value) - 1.0) < 1e-15

    def test_maps_circle_to_circle(self):
        for alpha in [Pole(0.5), Pole(-0.3 + 0.7j), Pole(2.0 - 1.0j), Pole.infinity(), Pole(0.0)]:
            for z in circle_points(64):
                assert abs(abs(blaschke_scalar(alpha, z)) - 1.0) <= 1e-12

    def test_eval_at_pole(self):
        with pytest.raises(EvalAtPole):
            blaschke_scalar(Pole(0.5), 0.5)


class TestBlaschkePotapovForm:
    def test_renormalizes_close_directions(self):
        v = np.array([1.0 + 3e-7, 0.0])
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole(0.3), v)], np.eye(2))
        assert abs(np.linalg.norm(form.factors[0][1]) - 1.0) < 1e-14

    def test_rejects_bad_direction_norm(self):
        with pytest.raises(ValueError, match="direction norm"):
            BlaschkePotapovForm(ISO, 2, 2, [(Pole(0.3), [0.9, 0.0])], np.eye(2))

    def test_rejects_non_isometric_constant(self):
        with pytest.raises(ValueError, match="constant"):
            BlaschkePotapovForm(ISO, 2, 1, [], np.array([[0.5], [0.0]]))

    def test_rejects_side_shape_conflicts(self):
        with pytest.raises(DimensionMismatch):
            BlaschkePotapovForm(ISO, 1, 2, [], np.array([[1.0, 0.0]]))

    def test_validation_bypass_keeps_data(self):
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole(0.3), [0.9, 0.0])], np.eye(2), validate=False
        )
        assert abs(np.linalg.norm(form.factors[0][1]) - 0.9) < 1e-14

    def test_constant_form_eval(self, rng):
        u = random_unitary(rng, 3)[:, :2]
        form = BlaschkePotapovForm(ISO, 3, 2, [], u)
        for z in [0.2, 1.5 + 0.5j, -3.0j]:
            assert np.array_equal(form(z), u)

    def test_worked_example_at_one(self):
        form = row_example_bp(0.5)
        assert np.allclose(form(1.0), np.array([[1.0, 1.0]]) / np.sqrt(2), atol=1e-14)

    def test_eval_near_pole_raises(self):
        form = row_example_bp(0.5)
        with pytest.raises(EvalAtPole):
            form(0.5 + 1e-10)
        with pytest.raises(EvalAtPole):
            form.eval_many([0.2, 0.5 + 1e-10, 2.0])

    def test_eval_many_matches_scalar_eval(self):
        forms = [
            random_form(42, ISO, 3, 2, 4),
            random_form(43, COISO, 2, 3, 3),
            bp_to_realization(random_form(44, ISO, 3, 2, 4, schur_only=True)),
            ss_to_mfd(bp_to_realization(random_form(45, COISO, 2, 3, 3, schur_only=True)), "left"),
            bp_to_laurent(fir_form(46)),
        ]
        probes = off_circle_probes(0, 10)
        for form in forms:
            batch = form.eval_many(probes)
            assert batch.shape == (10, form.p, form.m)
            for i, z in enumerate(probes):
                assert np.allclose(batch[i], form(z), atol=1e-13)


class TestStateSpaceRealization:
    def test_worked_example_at_one(self):
        ss = row_example_ss_unnormalized(0.5)
        assert np.allclose(ss(1.0), np.array([[1.0, 1.0]]) / np.sqrt(2), atol=1e-14)

    def test_constant_system(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        ss = StateSpaceRealization(
            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), d
        )
        assert ss.n == 0
        assert np.array_equal(ss(0.7), d)
        assert ss.realization_matrix.shape == (2, 2)

    def test_eval_at_spectrum_raises(self):
        ss = row_example_ss_unnormalized(0.5)
        with pytest.raises(EvalAtPole):
            ss(0.5)
        with pytest.raises(EvalAtPole):
            ss.eval_many([2.0, 0.5, -0.3j])

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceRealization(np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))


class TestMFDForm:
    def test_rank_validation(self):
        with pytest.raises(SingularDenominator):
            MFDForm("right", [np.eye(2)], [np.zeros((2, 2))])

    def test_right_eval(self):
        # F(z) = [[z, 0], [1, 1]] / (z - 0.5) as a right fraction
        num = [np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
        den = [np.eye(2) * -0.5, np.eye(2)]
        mfd = MFDForm("right", num, den)
        z = 2.0
        expected = np.array([[z, 0.0], [1.0, 1.0]]) / (z - 0.5)
        assert np.allclose(mfd(z), expected, atol=1e-14)

    def test_singular_point_raises(self):
        num = [np.zeros((1, 1)), np.array([[1.0]])]
        den = [np.array([[-0.5]]), np.array([[1.0]])]
        mfd = MFDForm("right", num, den)
        with pytest.raises(SingularDenominator):
            mfd(0.5)
        with pytest.raises(SingularDenominator):
            mfd.eval_many([2.0, 0.5, -0.3j])


class TestLaurentPolyForm:
    def test_eval_with_negative_shift(self):
        lp = LaurentPolyForm(-1, [np.array([[1.0]]), np.array([[2.0]])])
        z = 2.0
        assert abs(lp(z)[0, 0] - (1.0 / z + 2.0)) < 1e-14

    def test_pole_at_origin(self):
        lp = LaurentPolyForm(-1, [np.array([[1.0]])])
        with pytest.raises(EvalAtPole):
            lp(0.0)
        with pytest.raises(EvalAtPole):
            lp.eval_many([1.0, 0.0])

    def test_nonnegative_shift_at_origin(self):
        lp = LaurentPolyForm(0, [np.array([[3.0]]), np.array([[1.0]])])
        assert abs(lp(0.0)[0, 0] - 3.0) < 1e-15


class TestCrossFormAgreement:
    @pytest.mark.parametrize("seed,side,p,m,d", [
        (1, ISO, 3, 2, 3),
        (2, COISO, 2, 4, 2),
        (3, ISO, 2, 2, 4),
    ])
    def test_bp_ss_mfd_agree_pointwise(self, seed, side, p, m, d):
        form = random_form(seed, side, p, m, d, schur_only=True)
        ss = bp_to_realization(form)
        mfd = ss_to_mfd(ss, "right" if p >= m else "left")
        probes = off_circle_probes(seed, 9)
        for z in probes:
            reference = form(z)
            assert np.linalg.norm(ss(z) - reference) <= 1e-9
            assert np.linalg.norm(mfd(z) - reference) <= 1e-9
        reference = form.eval_many(probes)
        assert np.max(np.linalg.norm(ss.eval_many(probes) - reference, axis=(1, 2))) <= 1e-9
        assert np.max(np.linalg.norm(mfd.eval_many(probes) - reference, axis=(1, 2))) <= 1e-9

    def test_fir_bp_matches_laurent(self):
        form = fir_form(8)
        lp = bp_to_laurent(form)
        probes = off_circle_probes(80, 16)
        for z in probes:
            assert np.linalg.norm(form(z) - lp(z)) <= 1e-9
        gaps = np.linalg.norm(lp.eval_many(probes) - form.eval_many(probes), axis=(1, 2))
        assert np.max(gaps) <= 1e-9


class TestConjugate:
    def test_constant_becomes_adjoint(self, rng):
        u = random_unitary(rng, 3)[:, :2]
        form = BlaschkePotapovForm(ISO, 3, 2, [], u)
        flipped = conjugate(form)
        assert flipped.side == COISO
        assert flipped.p == 2 and flipped.m == 3
        assert np.allclose(flipped.constant, u.conj().T, atol=1e-14)

    def test_diagonal_delay(self):
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2)
        )
        flipped = conjugate(form)
        assert flipped.poles[0] == Pole(0.0)
        z = 0.7 + 0.2j
        assert np.allclose(flipped(z), np.diag([1.0 / z, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("seed,side,p,m,d", [
        (10, ISO, 3, 2, 3),
        (11, COISO, 2, 3, 4),
        (12, ISO, 2, 2, 2),
    ])
    def test_adjoint_on_circle(self, seed, side, p, m, d):
        form = random_form(seed, side, p, m, d)
        flipped = conjugate(form)
        assert flipped.side == (COISO if side == ISO else ISO)
        assert flipped.d == d
        # factor order reverses and each pole reflects through the circle
        expected = [pole.flipped() for pole, _ in reversed(form.factors)]
        assert list(flipped.poles) == expected
        for z in circle_points(5) * np.exp(0.0731j):
            assert np.linalg.norm(flipped(z) - form(z).conj().T) <= 1e-9

    def test_matches_reflection_identity_off_circle(self):
        form = random_form(13, ISO, 3, 3, 3)
        flipped = conjugate(form)
        for z in off_circle_probes(14, 8):
            reference = form(1.0 / np.conj(z)).conj().T
            assert np.linalg.norm(flipped(z) - reference) <= 1e-10


def test_evaluate_dispatch_rejects_unknown():
    with pytest.raises(TypeError):
        evaluate(np.eye(2), 1.0)


def test_worked_example_forms_agree():
    form = row_example_bp(0.5)
    ss = row_example_ss_unnormalized(0.5)
    for z in off_circle_probes(21, 8):
        reference = row_example_value(0.5, z)
        assert np.linalg.norm(form(z) - reference) <= 1e-12
        assert np.linalg.norm(ss(z) - reference) <= 1e-12
