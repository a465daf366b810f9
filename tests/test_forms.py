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
    circle_residual,
    conjugate,
    evaluate,
    ss_to_mfd,
)
from paraunit.forms import MFD_RANK_PROBES
from conftest import (
    circle_points,
    fir_form,
    off_circle_probes,
    outcome,
    perturb_direction,
    random_form,
    random_unitary,
    reference_factor_checks,
)
from golden import row_example_bp, row_example_ss_unnormalized, row_example_value


class TestPole:
    def test_rejects_unit_circle_neighborhood(self):
        with pytest.raises(ValueError):
            Pole(1.0)
        with pytest.raises(ValueError):
            Pole(np.exp(0.3j) * (1.0 + 1e-9))
        Pole(np.exp(0.3j) * (1.0 + 1e-7))  # enough margin

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="not finite"):
            Pole(value)
        with pytest.raises(ValueError, match="not finite"):
            Pole(complex(0.5, value))

    def test_is_schur(self):
        assert Pole(0.0).is_schur and Pole(0.5j - 0.3).is_schur
        assert not Pole(1.5).is_schur and not Pole.infinity().is_schur

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

    def test_one_point_matches_the_batch(self):
        # the one-pole case of the batched kernel: a point alone and in a
        # batch of any shape take the same arithmetic
        rng = np.random.default_rng(41)
        zs = rng.uniform(0.2, 3.0, 64) * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        for pole in [Pole(0.4 - 0.3j), Pole(-1.5 + 2.0j), Pole(0.0), Pole.infinity()]:
            batch = blaschke_scalar(pole, zs)
            assert np.array_equal(blaschke_scalar(pole, zs.reshape(8, 8)), batch.reshape(8, 8))
            for z, value in zip(zs, batch):
                assert blaschke_scalar(pole, z) == value

    def test_eval_at_pole(self):
        # the same margin as every form's eval_many
        for z in (0.5, 0.5 + 1e-10):
            with pytest.raises(EvalAtPole):
                blaschke_scalar(Pole(0.5), z)


class TestBlaschkePotapovForm:
    def test_renormalizes_close_directions(self):
        v = np.array([1.0 + 3e-7, 0.0])
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole(0.3), v)], np.eye(2))
        assert abs(np.linalg.norm(form.factors[0][1]) - 1.0) < 1e-14

    def test_raw_complex_pole_is_coerced(self):
        v = np.array([0.6, 0.8j])
        raw = BlaschkePotapovForm(ISO, 2, 1, [(0.3 - 0.2j, v)], np.array([[1.0], [0.0]]))
        built = BlaschkePotapovForm(ISO, 2, 1, [(Pole(0.3 - 0.2j), v)], np.array([[1.0], [0.0]]))
        assert isinstance(raw.poles[0], Pole) and raw.poles == built.poles
        assert np.array_equal(raw.factors[0][1], built.factors[0][1])
        assert np.array_equal(raw.eval_many([0.5, 2j]), built.eval_many([0.5, 2j]))

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

    @pytest.mark.parametrize("side", [ISO, COISO])
    def test_eval_at_pole_names_the_first_factor_in_order(self, side):
        # the batch meets the pole 0.3 first, but factor order decides
        rng = np.random.default_rng(8)
        factors = [(pole, random_unitary(rng, 2)[:, 0]) for pole in (Pole(0.5), Pole.infinity(), Pole(0.3))]
        form = BlaschkePotapovForm(side, 2, 2, factors, np.eye(2))
        with pytest.raises(EvalAtPole) as raised:
            form.eval_many([0.1, 0.3 + 1e-10, 0.5, 2.0])
        assert str(raised.value) == "a point is within 1e-09 of pole (0.5+0j)"

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


def faulty_factors(rng, k, d):
    """``d`` factors of dimension ``k`` with faults at one to three random
    factors: a pole on the circle or not finite, a direction of the wrong
    length, with a non-finite entry, or with a norm off one by more than
    ``DIRECTION_NORM_SLACK`` (refused) or by 1e-14 to 1e-6 (renormalized).
    Poles come as ``Pole`` objects or raw numbers."""
    factors = []
    for _ in range(d):
        alpha = rng.uniform(0.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
        v = rng.normal(size=k) + 1j * rng.normal(size=k)
        factors.append((alpha if rng.uniform() < 0.3 else Pole(alpha), v / np.linalg.norm(v)))
    sign = rng.choice([-1.0, 1.0])
    for index in rng.choice(d, size=min(d, int(rng.integers(1, 4))), replace=False):
        pole, v = factors[index]
        fault = rng.choice(["pole", "length", "non_finite", "refused", "renormalized"])
        if fault == "pole":
            pole = rng.choice([np.exp(2j * np.pi * rng.uniform()), complex(np.nan, 0.0)])
        elif fault == "length":
            v = np.append(v, 0.0) if rng.uniform() < 0.5 or k == 1 else v[:-1]
        elif fault == "non_finite":
            v = v.copy()
            v[rng.integers(k)] = rng.choice([np.nan, np.inf, complex(0.0, -np.inf)])
        elif fault == "refused":
            v = v * (1.0 + sign * rng.uniform(2e-6, 0.5))
        else:
            v = v * (1.0 + sign * 10.0 ** rng.uniform(-14.0, -6.0))
        factors[index] = (pole, v)
    return factors


class TestDirectionStack:
    @pytest.mark.parametrize("validate", [True, False])
    def test_one_pass_checks_raise_what_the_per_factor_rule_raises(self, validate):
        rng = np.random.default_rng(3200)
        refusals = 0
        for _ in range(300):
            side = rng.choice([ISO, COISO])
            k, other = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p, m = (k, min(k, other)) if side == ISO else (min(k, other), k)
            factors = faulty_factors(rng, k, int(rng.integers(1, 8)))
            constant = np.eye(p, m)
            expected = outcome(lambda: reference_factor_checks(k, factors, validate))
            actual = outcome(lambda: BlaschkePotapovForm(side, p, m, factors, constant, validate=validate))
            if isinstance(expected, tuple):
                refusals += 1
                assert actual == expected
            else:
                assert actual.directions.tobytes() == expected.tobytes()
        assert 100 <= refusals < 300  # both outcomes are exercised

    def test_factors_are_read_only_views_of_the_stack(self):
        broken = perturb_direction(random_form(62, ISO, 4, 2, 5))
        for form in (random_form(60, ISO, 3, 2, 4), random_form(61, COISO, 2, 3, 3), broken):
            assert form.directions.shape == (form.d, form.factor_dimension)
            for j, (pole, v) in enumerate(form.factors):
                assert pole is form.poles[j]
                assert np.shares_memory(v, form.directions)
                assert v.tobytes() == form.directions[j].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                form.directions[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                form.factors[-1][1][0] = 0.0


def transpose_cases():
    """Product forms of both sides, a negative control, and realizations."""
    coiso = random_form(47, COISO, 2, 3, 3)
    rng = np.random.default_rng(48)
    return [
        random_form(46, ISO, 3, 2, 4),
        coiso,
        perturb_direction(coiso),
        bp_to_realization(random_form(49, COISO, 1, 3, 4, schur_only=True)),
        StateSpaceRealization(*(rng.normal(size=shape) for shape in [(3, 3), (3, 2), (4, 3), (4, 2)])),
    ]


class TestTranspose:
    def test_involution_is_bit_exact(self):
        for form in transpose_cases():
            twice = form.transpose().transpose()
            if isinstance(form, BlaschkePotapovForm):
                assert (twice.side, twice.p, twice.m) == (form.side, form.p, form.m)
                assert twice.poles == form.poles
                assert twice.directions.tobytes() == form.directions.tobytes()
                assert twice.constant.tobytes() == form.constant.tobytes()
            else:
                for x, y in zip((form.a, form.b, form.c, form.d), (twice.a, twice.b, twice.c, twice.d)):
                    assert x.tobytes() == y.tobytes()

    def test_negative_control_stays_broken(self):
        broken = perturb_direction(random_form(47, COISO, 2, 3, 3)).transpose()
        assert abs(np.linalg.norm(broken.factors[-1][1]) - 1.01) < 1e-14

    def test_values_are_transposed(self):
        probes = off_circle_probes(50, 12)
        for form in transpose_cases():
            transposed = form.transpose()
            assert (transposed.p, transposed.m) == (form.m, form.p)
            expected = form.eval_many(probes).swapaxes(1, 2)
            gaps = np.linalg.norm(transposed.eval_many(probes) - expected, axis=(1, 2))
            assert np.max(gaps / np.linalg.norm(expected, axis=(1, 2))) <= 1e-13


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

    @pytest.mark.parametrize("d", [1, 8, 32, 64, 128])
    @pytest.mark.parametrize("side, p, m", [(ISO, 4, 2), (COISO, 2, 4)])
    def test_triangular_back_substitution_matches_lu(self, d, side, p, m):
        ss = bp_to_realization(random_form(700 + d, side, p, m, d, schur_only=True))
        assert not np.tril(ss.a, -1).any()
        zs = np.concatenate([circle_points(2 * d + 1), off_circle_probes(d, 8)])
        reference = ss.d + ss.c @ np.linalg.solve(zs[:, None, None] * np.eye(d) - ss.a, ss.b)
        error = np.abs(ss.eval_many(zs) - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()

    def test_triangular_eval_near_a_diagonal_entry_raises(self):
        ss = bp_to_realization(random_form(9, ISO, 3, 2, 6, schur_only=True))
        pole = ss.a[4, 4]
        assert np.array_equal(ss.pole_candidates(), np.diagonal(ss.a))
        with pytest.raises(EvalAtPole, match="of a pole of A"):
            ss.eval_many([0.0, pole + 1e-10, 2.0])

    def test_dense_a_matches_its_triangular_form(self, rng):
        ss = bp_to_realization(random_form(10, ISO, 3, 2, 6, schur_only=True))
        u = random_unitary(rng, 6)
        dense = StateSpaceRealization(u @ ss.a @ u.conj().T, u @ ss.b, ss.c @ u.conj().T, ss.d)
        zs = off_circle_probes(10, 6)
        assert np.allclose(dense.eval_many(zs), ss.eval_many(zs), rtol=0.0, atol=1e-12)
        assert np.allclose(np.sort_complex(dense.pole_candidates()), np.sort_complex(np.diagonal(ss.a)), atol=1e-12)


class TestMFDForm:
    def test_rank_validation(self):
        with pytest.raises(SingularDenominator):
            MFDForm("right", [np.eye(2)], [np.zeros((2, 2))])

    def test_pole_on_one_probe_point_is_accepted(self):
        # det(z - z0) vanishes at the probe z0 only, so the rank is full
        z0 = MFD_RANK_PROBES[0]
        mfd = MFDForm("left", [np.zeros((1, 2)), np.ones((1, 2))], [[[-z0]], [[1.0]]])
        assert np.allclose(mfd(2.0), np.ones((1, 2)) * 2.0 / (2.0 - z0), atol=1e-15)
        with pytest.raises(SingularDenominator):
            mfd(z0)

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


class TestOverScalar:
    """The fraction the package's conversions build over ``den(z) I``."""

    def scalar_fraction(self, rng):
        num = rng.normal(size=(3, 3, 2)) + 1j * rng.normal(size=(3, 3, 2))
        return num, np.array([0.06, -0.5, 1.0], dtype=complex)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_the_public_constructor(self, rng, side):
        num, den = self.scalar_fraction(rng)
        k = 2 if side == "right" else 3
        trusted = MFDForm._over_scalar(side, num, den)
        public = MFDForm(side, list(num), [c * np.eye(k) for c in den])
        zs = off_circle_probes(3, 6)
        assert np.array_equal(trusted.eval_many(zs), public.eval_many(zs))
        assert (trusted.side, trusted.p, trusted.m, trusted.degree) == (side, 3, 2, 2)

    def test_coefficients_are_read_only_views_of_one_copy(self, rng):
        num, den = self.scalar_fraction(rng)
        mfd = MFDForm._over_scalar("right", num, den)
        num[0, 0, 0] = 99.0
        assert mfd.num[0][0, 0] != 99.0
        assert mfd.num[0].base is mfd.num[2].base and mfd.den[0].base is mfd.den[2].base
        assert not (mfd.num[1].flags.writeable or mfd.den[1].flags.writeable)

    def test_refuses_bad_side_zero_den_and_non_finite(self, rng):
        num, den = self.scalar_fraction(rng)
        with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
            MFDForm._over_scalar("top", num, den)
        with pytest.raises(SingularDenominator):
            MFDForm._over_scalar("right", num, np.zeros(3, dtype=complex))
        bad_num, bad_den = num.copy(), den.copy()
        bad_num[1, 2, 0], bad_den[2] = np.inf, np.nan
        for args in ((bad_num, den), (num, bad_den)):
            with pytest.raises(ValueError, match="overflowed"):
                MFDForm._over_scalar("right", *args)


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


@pytest.mark.parametrize(
    "call", [lambda form: evaluate(form, 1.0), circle_residual], ids=["evaluate", "circle_residual"]
)
def test_evaluate_dispatch_rejects_unknown(call):
    with pytest.raises(TypeError):
        call(np.eye(2))


def test_worked_example_forms_agree():
    form = row_example_bp(0.5)
    ss = row_example_ss_unnormalized(0.5)
    for z in off_circle_probes(21, 8):
        reference = row_example_value(0.5, z)
        assert np.linalg.norm(form(z) - reference) <= 1e-12
        assert np.linalg.norm(ss(z) - reference) <= 1e-12
