import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraunit import (
    AngleCountMismatch,
    COISO,
    DimensionMismatch,
    ISO,
    BlaschkePotapovForm,
    ParaunitaryParam,
    Pole,
    bp_to_realization,
    build_paraunitary,
    circle_residual,
    flip_poles,
    isometry_from_angles,
    mcmillan_degree,
    param_count,
    random_params,
    unit_vector_from_angles,
    unitary_completion,
)
from paraunit.params import angles_for_isometry as package_angles_for_isometry
from conftest import off_circle_probes
from golden import PARAMS_DRAWS, PARAMS_PROBE

TWO_PI = 2.0 * np.pi


def angles_for_unit_vector(v):
    """Invert the hyperspherical chart (oracle for reachability tests)."""
    k = v.size
    phases = np.mod(np.angle(v), TWO_PI)
    polar = np.zeros(k - 1)
    tail = 1.0
    for j in range(k - 1):
        cos_part = np.clip(abs(v[j]) / tail if tail > 0 else 0.0, -1.0, 1.0)
        polar[j] = np.arccos(cos_part)
        tail *= np.sin(polar[j])
    return polar, phases


def angles_for_isometry(u):
    """Column-by-column inversion of the sequential isometry chart."""
    p, m = u.shape
    angles = []
    columns = []
    for j in range(m):
        if j == 0:
            coords = u[:, 0]
        else:
            basis = unitary_completion(np.column_stack(columns))
            coords = basis.conj().T @ u[:, j]
        polar, phases = angles_for_unit_vector(coords)
        angles.extend(polar)
        angles.extend(phases)
        columns.append(u[:, j])
    return np.array(angles)


def isometry_by_completion(p, m, angles):
    """Sequential-completion chart with a QR per column (oracle for the
    Householder chain of ``isometry_from_angles``)."""
    columns = []
    position = 0
    for j in range(m):
        dim = p - j
        u = unit_vector_from_angles(
            dim, angles[position : position + dim - 1], angles[position + dim - 1 : position + 2 * dim - 1]
        )
        position += 2 * dim - 1
        columns.append(u if j == 0 else unitary_completion(np.column_stack(columns)) @ u)
    return np.column_stack(columns)


def two_by_two_unitary(a, b, g, dlt):
    return np.array(
        [
            [np.exp(1j * (g - b)) * np.cos(a), np.exp(1j * dlt) * np.sin(a)],
            [-np.exp(-1j * b) * np.sin(a), np.exp(1j * (dlt - g)) * np.cos(a)],
        ]
    )


class TestUnitVectorFromAngles:
    def test_scalar(self):
        v = unit_vector_from_angles(1, [], [0.7])
        assert abs(v[0] - np.exp(0.7j)) < 1e-15

    def test_first_basis_vector(self):
        v = unit_vector_from_angles(3, [0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            v = unit_vector_from_angles(
                k, rng.uniform(0, TWO_PI, k - 1), rng.uniform(0, TWO_PI, k)
            )
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    def test_stacked_rows_match_single_calls(self):
        rng = np.random.default_rng(5)
        for k in range(1, 6):
            polar = rng.uniform(0, TWO_PI, (4, k - 1))
            phases = rng.uniform(0, TWO_PI, (4, k))
            stacked = unit_vector_from_angles(k, polar, phases)
            for row in range(4):
                single = unit_vector_from_angles(k, polar[row], phases[row])
                assert np.array_equal(stacked[row], single)

    def test_magnitude_pattern(self):
        polar = np.array([0.3, 1.1, 2.0])
        v = unit_vector_from_angles(4, polar, np.zeros(4))
        sines = np.concatenate([[1.0], np.cumprod(np.sin(polar))])
        expected = np.concatenate([np.cos(polar), [1.0]]) * sines
        assert np.allclose(v.real, expected, atol=1e-14)

    def test_count_mismatch(self):
        with pytest.raises(AngleCountMismatch):
            unit_vector_from_angles(3, [0.1], [0.0, 0.0, 0.0])


class TestIsometryFromAngles:
    def test_scalar_phase(self):
        u = isometry_from_angles(1, 1, [0.4])
        assert abs(u[0, 0] - np.exp(0.4j)) < 1e-15

    def test_column_at_zero_angles(self):
        u = isometry_from_angles(2, 1, [0.0, 0.0, 0.0])
        assert np.allclose(u, [[1.0], [0.0]], atol=1e-15)

    def test_random_outputs_are_isometric(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = int(rng.integers(1, 7))
            m = int(rng.integers(1, p + 1))
            angles = rng.uniform(0, TWO_PI, m * (2 * p - m))
            u = isometry_from_angles(p, m, angles)
            assert np.linalg.norm(u.conj().T @ u - np.eye(m)) <= 1e-12
            assert np.linalg.norm(u - isometry_by_completion(p, m, angles)) <= 1e-13
            rebuilt = isometry_from_angles(p, m, package_angles_for_isometry(u))
            assert np.linalg.norm(rebuilt - u) <= 1e-13

    def test_reaches_full_two_by_two_family(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            target = two_by_two_unitary(*rng.uniform(0, TWO_PI, 4))
            angles = angles_for_isometry(target)
            rebuilt = isometry_from_angles(2, 2, angles)
            assert np.linalg.norm(rebuilt - target) <= 1e-8

    def test_count_mismatch(self):
        with pytest.raises(AngleCountMismatch):
            isometry_from_angles(2, 2, [0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            isometry_from_angles(1, 2, [0.0, 0.0, 0.0])


class TestParamCount:
    def test_tall_example(self):
        assert param_count(ISO, 3, 2, 4) == (4, 24)

    def test_degree_zero_scalar(self):
        assert param_count(ISO, 1, 1, 0) == (0, 1)

    def test_wide_example(self):
        assert param_count(COISO, 1, 2, 1) == (1, 5)

    def test_matches_flattened_length(self):
        for p in range(1, 6):
            for m in range(1, 6):
                for d in range(0, 7):
                    if p >= m:
                        params = random_params(11, ISO, p, m, d)
                        slots, angles = param_count(ISO, p, m, d)
                        assert len(params.poles) == slots
                        assert params.angle_vector().size == angles
                    if m >= p:
                        params = random_params(12, COISO, p, m, d)
                        slots, angles = param_count(COISO, p, m, d)
                        assert len(params.poles) == slots
                        assert params.angle_vector().size == angles


class TestBuildParaunitary:
    def test_degree_zero_constant(self):
        params = random_params(5, ISO, 3, 2, 0)
        form = build_paraunitary(params)
        assert form.d == 0
        assert circle_residual(form).residual <= 1e-12

    def test_scalar_delay_inverse(self):
        params = ParaunitaryParam(
            ISO, 1, 1, 1, (Pole(0.0),), ((),), (0.0,)
        )
        form = build_paraunitary(params)
        assert abs(form(2.0)[0, 0] - 0.5) < 1e-14

    def test_seeded_pipeline(self):
        # stable draw: the flip is a no-op and the cascade degree equals d;
        # a flip of an offending pole can raise the degree when k > 2
        params = random_params(40, ISO, 3, 2, 4, schur_only=True)
        form = build_paraunitary(params)
        assert circle_residual(form).residual <= 1e-10
        degree = mcmillan_degree(bp_to_realization(flip_poles(form)))
        assert degree <= 4

    def test_wrong_invariant_raises(self):
        with pytest.raises(AngleCountMismatch):
            ParaunitaryParam(ISO, 2, 2, 1, (Pole(0.0),), ((0.0,),), (0.0,) * 4)


class TestTranspose:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_builds_the_transposed_form_exactly(self, side, dims, d, seed):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        # poles anywhere: the origin, infinity, and either side of the circle
        params = random_params(seed, side, p, m, d)
        transposed = params.transpose()
        assert transposed.transpose() == params
        built, expected = build_paraunitary(transposed), build_paraunitary(params).transpose()
        assert (built.side, built.p, built.m) == (expected.side, expected.p, expected.m)
        assert built.poles == expected.poles
        for (_, v), (_, w) in zip(built.factors, expected.factors, strict=True):
            assert np.array_equal(v, w)
        assert np.array_equal(built.constant, expected.constant)


class TestRandomParams:
    def test_deterministic(self):
        a = random_params(123, COISO, 2, 3, 4)
        b = random_params(123, COISO, 2, 3, 4)
        assert a == b

    def test_schur_only_realizes_directly(self):
        for seed in range(5):
            params = random_params(seed, ISO, 3, 2, 3, schur_only=True)
            assert all(pole.is_schur for pole in params.poles)
            form = build_paraunitary(params)
            assert all(abs(pole.value) < 1.0 for pole in form.poles)
            bp_to_realization(form)

    @pytest.mark.parametrize("args, kwargs, poles, value", PARAMS_DRAWS)
    def test_golden_draws(self, args, kwargs, poles, value):
        params = random_params(*args, **kwargs)
        assert [None if pole.is_infinity else pole.value for pole in params.poles] == poles
        values = build_paraunitary(params).eval_many([PARAMS_PROBE])
        assert np.array_equal(values[0], np.array(value))

    def test_circle_margin(self):
        count = 0
        for seed in range(5):
            params = random_params(seed, ISO, 2, 1, 200)
            for pole in params.poles:
                count += 1
                if not pole.is_infinity:
                    assert abs(abs(pole.value) - 1.0) > 1e-3
        assert count == 1000

    def test_chart_lands_in_feasible_set(self):
        for seed in range(8):
            form = build_paraunitary(random_params(seed, COISO, 2, 4, 3))
            assert circle_residual(form).residual <= 1e-10


class TestPhaseGauge:
    def test_direction_phase_is_invisible(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        base = BlaschkePotapovForm(ISO, 3, 3, [(Pole(0.4 + 0.2j), v)], np.eye(3))
        rotated = BlaschkePotapovForm(
            ISO, 3, 3, [(Pole(0.4 + 0.2j), np.exp(1.3j) * v)], np.eye(3)
        )
        for z in off_circle_probes(10, 8):
            assert np.linalg.norm(base(z) - rotated(z)) <= 1e-14
