import numpy as np
import pytest

from paraunit import (
    COISO,
    DimensionMismatch,
    EvalAtPole,
    ISO,
    SampleSet,
    build_paraunitary,
    circle_residual,
    fit_lossless,
    objective,
    random_params,
)
from paraunit.fit import _ChartKernel, _chart_objective, _decode, _encode
from conftest import circle_points


def samples_from_params(params, count=64):
    form = build_paraunitary(params)
    zs = circle_points(count)
    return SampleSet(list(zip(zs, form.eval_many(zs))))


class TestObjective:
    def test_zero_on_own_samples(self):
        params = random_params(1, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(params)
        assert objective(params, samples) <= 1e-20

    def test_zero_for_matching_constant(self):
        params = random_params(2, ISO, 2, 2, 0, schur_only=True)
        samples = samples_from_params(params, count=8)
        assert objective(params, samples) <= 1e-24

    def test_positive_after_angle_nudge(self):
        params = random_params(3, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(params)
        nudged_frame = (params.frame[0] + 1e-3,) + params.frame[1:]
        nudged = type(params)(
            params.side, params.p, params.m, params.d,
            params.poles, params.directions, nudged_frame,
        )
        assert objective(nudged, samples) > 0.0

    def test_dimension_mismatch(self):
        params = random_params(4, ISO, 2, 1, 0, schur_only=True)
        other = random_params(4, ISO, 3, 1, 0, schur_only=True)
        samples = samples_from_params(other, count=4)
        with pytest.raises(DimensionMismatch):
            objective(params, samples)


def random_template(rng, seed):
    """A Schur-stable template of random side and shape, ``p, m, d <= 4``."""
    side = ISO if seed % 2 else COISO
    small, large = sorted(int(n) for n in rng.integers(1, 5, size=2))
    p, m = (large, small) if side == ISO else (small, large)
    return random_params(seed, side, p, m, int(rng.integers(0, 5)), schur_only=True)


class TestChartKernel:
    def test_matches_public_objective(self):
        rng = np.random.default_rng(31)
        for seed in range(200):
            template = random_template(rng, seed)
            count = 9
            zs = rng.uniform(0.2, 3.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
            targets = rng.normal(size=(count, template.p, template.m)) + 1j * rng.normal(
                size=(count, template.p, template.m)
            )
            samples = SampleSet(list(zip(zs, targets)))
            kernel = _ChartKernel(template, samples)
            start = _encode(template)
            x = start + rng.normal(scale=3.0, size=start.size)
            expected = objective(_decode(x, template), samples)
            assert abs(_chart_objective(x, kernel) - expected) <= 1e-12 * expected

    def test_sample_on_a_decoded_pole_raises_on_both_paths(self):
        rng = np.random.default_rng(32)
        checked = 0
        for seed in range(40):
            template = random_template(rng, seed)
            x = _encode(template) + rng.normal(size=_encode(template).size)
            params = _decode(x, template)
            poles = [pole.to_pole().value for pole in params.poles if pole.kind == "polar"]
            if not poles:
                continue
            zs = np.append(circle_points(8), poles[-1])
            samples = SampleSet([(z, np.zeros((template.p, template.m))) for z in zs])
            with pytest.raises(EvalAtPole):
                objective(params, samples)
            with pytest.raises(EvalAtPole):
                _chart_objective(x, _ChartKernel(template, samples))
            checked += 1
        assert checked >= 20


class TestSampleSet:
    def test_requires_consistent_shapes(self):
        with pytest.raises(DimensionMismatch):
            SampleSet([(1.0, np.eye(2)), (2.0, np.eye(3))])

    def test_pairs_round_trip(self):
        params = random_params(5, COISO, 1, 2, 1, schur_only=True)
        samples = samples_from_params(params, count=8)
        rebuilt = SampleSet(samples.pairs())
        assert np.array_equal(rebuilt.zs, samples.zs)
        assert np.array_equal(rebuilt.targets, samples.targets)


class TestFitLossless:
    def test_recovers_seeded_target(self):
        target = random_params(11, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(target, count=64)
        result = fit_lossless(samples, d=1, p=2, m=1, seed=100, restarts=8)
        assert result.objective <= 1e-8
        assert circle_residual(build_paraunitary(result.params)).residual <= 1e-10

    def test_constant_unitary_target(self):
        target = random_params(12, ISO, 2, 2, 0, schur_only=True)
        samples = samples_from_params(target, count=16)
        result = fit_lossless(samples, d=0, p=2, m=2, seed=7, restarts=4)
        assert result.objective <= 1e-10

    def test_non_lossless_target_has_positive_floor(self):
        zs = circle_points(16)
        samples = SampleSet([(z, 0.5 * np.eye(2)) for z in zs])
        result = fit_lossless(samples, d=1, p=2, m=2, seed=3, restarts=2)
        # circle values of the candidate have unit singular values, so each
        # sample contributes at least (1 - 0.5)^2 per dimension
        assert result.objective >= 0.25 * len(samples)

    def test_requires_enough_samples(self):
        zs = circle_points(4)
        samples = SampleSet([(z, np.eye(2)) for z in zs])
        with pytest.raises(DimensionMismatch):
            fit_lossless(samples, d=2, p=2, m=2, seed=0, restarts=1)

    def test_iterates_stay_feasible(self):
        target = random_params(13, COISO, 1, 2, 1, schur_only=True)
        samples = samples_from_params(target, count=32)
        result = fit_lossless(samples, d=1, p=1, m=2, seed=5, restarts=3)
        form = build_paraunitary(result.params)
        assert circle_residual(form).residual <= 1e-10
        assert all(pole.is_schur for pole in result.params.poles)

    def test_reported_objective_is_reproducible(self):
        target = random_params(14, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(target, count=32)
        result = fit_lossless(samples, d=1, p=2, m=1, seed=2, restarts=2)
        assert abs(result.objective - objective(result.params, samples)) <= 1e-12

    def test_survives_simplex_saturating_the_radius_chart(self):
        # regression: large negative radius coordinates used to underflow
        # the logistic map to an invalid zero radius mid-search
        target = random_params(9, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(target, count=32)
        result = fit_lossless(samples, d=1, p=2, m=1, seed=0, restarts=4)
        assert result.objective <= 1e-6

    def test_best_so_far_never_worse_than_any_start(self):
        target = random_params(15, COISO, 2, 2, 1, schur_only=True)
        samples = samples_from_params(target, count=32)
        result = fit_lossless(samples, d=1, p=2, m=2, side=COISO, seed=21, restarts=4)
        starts = [
            objective(random_params(21 + r, COISO, 2, 2, 1, schur_only=True), samples)
            for r in range(4)
        ]
        assert result.objective <= min(starts) + 1e-12
