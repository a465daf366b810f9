from dataclasses import replace

import numpy as np
import pytest

from paraunit import (
    COISO,
    DimensionMismatch,
    EvalAtPole,
    ISO,
    Pole,
    SampleSet,
    build_paraunitary,
    circle_residual,
    fit_lossless,
    objective,
    random_params,
)
import paraunit.fit as fit
from paraunit.fit import (
    _ChartKernel, _chart_jacobian, _chart_objective, _chart_residual, _decode, _encode, minimize,
)
from paraunit.tolerances import LOEWNER_ORIGIN_RADIUS, RADIUS_CHART_MARGIN
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
            expected = objective(_decode(x, kernel), samples)
            assert abs(_chart_objective(x, kernel) - expected) <= 1e-12 * expected

    def test_sample_on_a_decoded_pole_raises_on_both_paths(self):
        rng = np.random.default_rng(32)
        checked = 0
        for seed in range(40):
            template = random_template(rng, seed)
            x = _encode(template) + rng.normal(size=_encode(template).size)
            zero = np.zeros((template.p, template.m))
            params = _decode(x, _ChartKernel(template, SampleSet([(1.0, zero)])))
            poles = [pole.value for pole in params.poles if fit._searched(pole)]
            if not poles:
                continue
            zs = np.append(circle_points(8), poles[-1])
            samples = SampleSet([(z, zero) for z in zs])
            with pytest.raises(EvalAtPole) as public:
                objective(params, samples)
            with pytest.raises(EvalAtPole) as chart:
                _chart_objective(x, _ChartKernel(template, samples))
            assert str(chart.value) == str(public.value)
            checked += 1
        assert checked >= 20


def central_differences(x, kernel, step=1e-6):
    columns = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        columns.append((_chart_residual(x + e, kernel) - _chart_residual(x - e, kernel)) / (2 * step))
    return np.stack(columns, axis=1)


def random_kernel(rng, seed):
    """A random template's kernel on 9 random samples off the circle, and a
    coordinate vector scattered around its encoding."""
    template = random_template(rng, seed)
    count = 9
    zs = rng.uniform(0.2, 3.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    targets = rng.normal(size=(count, template.p, template.m)) + 1j * rng.normal(
        size=(count, template.p, template.m)
    )
    kernel = _ChartKernel(template, SampleSet(list(zip(zs, targets))))
    start = _encode(template)
    return template, kernel, start + rng.normal(size=start.size)


class TestChartJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(33)
        seen = set()
        for seed in range(120):
            template, kernel, x = random_kernel(rng, seed)
            jacobian = _chart_jacobian(x, kernel)
            expected = central_differences(x, kernel)
            assert jacobian.shape == expected.shape
            assert np.abs(jacobian - expected).max() <= 1e-6 * max(1.0, np.abs(expected).max())
            seen.add(template.side)
            seen.update(
                name
                for name, hit in [
                    ("frame only", template.d == 0),
                    ("no direction angles", template.d > 0 and template.factor_dimension == 1),
                    ("square", template.p == template.m),
                    ("origin pole", Pole(0.0) in template.poles),
                ]
                if hit
            )
        assert seen == {ISO, COISO, "frame only", "no direction angles", "square", "origin pole"}

    def test_saturated_radius_coordinates(self):
        rng = np.random.default_rng(34)
        clamped = 0
        for seed in range(80):
            template, kernel, x = random_kernel(rng, seed)
            radii = x[kernel.radii]
            if not radii.size:
                continue
            x[kernel.radii] = rng.choice([40.0, -40.0, 800.0, -800.0], size=radii.size)
            jacobian = _chart_jacobian(x, kernel)
            assert np.isfinite(jacobian).all()
            expected = central_differences(x, kernel)
            assert np.abs(jacobian - expected).max() <= 1e-6 * max(1.0, np.abs(expected).max())
            columns = np.arange(kernel.size)[kernel.radii]
            for column, coordinate in zip(columns, x[kernel.radii]):
                if fit._real_to_radius(coordinate) == RADIUS_CHART_MARGIN:
                    assert not jacobian[:, column].any()
                    clamped += 1
        assert clamped >= 20

    def test_search_evaluates_no_finite_differences(self, monkeypatch):
        calls = []

        def counted(x, kernel):
            calls.append(1)
            return _chart_residual(x, kernel)

        monkeypatch.setattr(fit, "_chart_residual", counted)
        target = random_params(11, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(target, count=64)
        result = fit_lossless(samples, d=1, p=2, m=1, seed=100, restarts=1)
        assert result.converged and result.iterations > 0
        # the start, the Procrustes splice, then one call per search step
        assert len(calls) == result.iterations + 2


class TestSampleSet:
    def test_refuses_non_finite_value(self):
        values = [np.eye(2) for _ in range(4)]
        values[2] = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sample 2"):
            SampleSet(list(zip(circle_points(4), values)))

    def test_refuses_non_finite_point(self):
        zs = list(circle_points(4))
        zs[3] = complex(np.inf, 0.0)
        with pytest.raises(ValueError, match="sample 3"):
            SampleSet([(z, np.eye(2)) for z in zs])

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


def sweep_cases():
    """30 seeded targets: coiso for even cases, iso for odd, ``p, m, d <= 3``."""
    rng = np.random.default_rng(2026)
    for case in range(30):
        side = COISO if case % 2 == 0 else ISO
        small, large = sorted(int(n) for n in rng.integers(1, 4, size=2))
        p, m = (large, small) if side == ISO else (small, large)
        yield case, side, p, m, int(rng.integers(1, 4))


def sweep_target(case, side, p, m, d):
    """The case's target parameters and its samples at 64 circle points."""
    params = random_params(5000 + case, side, p, m, d, schur_only=True)
    return params, samples_from_params(params)


def test_recovery_sweep():
    missed = []
    for case, side, p, m, d in sweep_cases():
        _, samples = sweep_target(case, side, p, m, d)
        result = fit_lossless(samples, d=d, p=p, m=m, side=side, seed=9000 + case, restarts=8)
        if result.objective > 1e-6:
            missed.append(f"{case} ({side} {p}x{m} d={d}: {result.objective:.2e})")
            assert not result.converged, f"case {case} misses yet reports converged"
    assert not missed, f"missed {len(missed)} of 30: " + "; ".join(missed)


class TestLoewnerPoles:
    def test_identifies_every_sweep_pole(self):
        seen = set()
        for case, side, p, m, d in sweep_cases():
            params, samples = sweep_target(case, side, p, m, d)
            poles = fit._loewner_poles(samples, d)
            assert poles is not None and poles.shape == (d,), f"case {case}"
            for pole in params.poles:
                error = np.abs(poles - pole.value).min()
                assert error <= 1e-7, f"case {case}: pole {pole} missed by {error:.1e}"
                seen.add("origin" if pole.value == 0 else "nonzero")
            seen.add(side)
        assert seen == {ISO, COISO, "origin", "nonzero"}

    @staticmethod
    def fit_both_ways(monkeypatch, samples, d, p, m, **options):
        """The fit as it runs, and with the identification monkeypatched to
        find nothing."""
        with_identification = fit_lossless(samples, d=d, p=p, m=m, **options)
        with monkeypatch.context() as patch:
            patch.setattr(fit, "_loewner_poles", lambda samples, d: None)
            seeded_only = fit_lossless(samples, d=d, p=p, m=m, **options)
        return with_identification, seeded_only

    @pytest.mark.filterwarnings("error")
    def test_degree_zero_falls_back(self, monkeypatch):
        samples = samples_from_params(random_params(12, ISO, 2, 2, 0, schur_only=True), count=16)
        assert fit._loewner_poles(samples, 0) is None
        result, seeded_only = self.fit_both_ways(monkeypatch, samples, 0, 2, 2, seed=7, restarts=4)
        assert result == seeded_only

    @pytest.mark.filterwarnings("error")
    def test_fewest_samples_fall_back(self, monkeypatch):
        samples = samples_from_params(random_params(16, ISO, 2, 1, 2, schur_only=True), count=5)
        assert fit._loewner_poles(samples, 2) is None
        result, seeded_only = self.fit_both_ways(monkeypatch, samples, 2, 2, 1, seed=3, restarts=3)
        assert result == seeded_only

    @pytest.mark.filterwarnings("error")
    def test_coinciding_points_fall_back(self, monkeypatch):
        # each point twice, so every right point equals a left one
        once = samples_from_params(random_params(17, COISO, 1, 2, 1, schur_only=True), count=16)
        samples = SampleSet([pair for pair in once.pairs() for _ in range(2)])
        assert fit._loewner_poles(samples, 1) is None
        result, seeded_only = self.fit_both_ways(monkeypatch, samples, 1, 1, 2, seed=5, restarts=3)
        assert result == seeded_only

    def test_noisy_target_no_worse_than_seeded_starts(self, monkeypatch):
        # case 12 (coiso 1x1 d=1, pole at radius 0.982), which no seeded
        # start recovers even without noise
        case, side, p, m, d = list(sweep_cases())[12]
        _, samples = sweep_target(case, side, p, m, d)
        rng = np.random.default_rng(12)
        noise = rng.normal(size=samples.targets.shape) + 1j * rng.normal(size=samples.targets.shape)
        noise *= 1e-3 * np.linalg.norm(samples.targets) / np.linalg.norm(noise)
        noisy = SampleSet(list(zip(samples.zs, samples.targets + noise)))
        assert fit._loewner_poles(noisy, d) is not None
        searches = []

        def counted(x, kernel):
            searches.append(1)
            return minimize(x, kernel)

        monkeypatch.setattr(fit, "minimize", counted)
        result, seeded_only = self.fit_both_ways(
            monkeypatch, noisy, d, p, m, side=side, seed=9000 + case, restarts=8,
        )
        assert result.objective <= seeded_only.objective
        # the identified starts reach the noise floor; the seeded ones do not
        assert result.objective <= 2.0 * np.linalg.norm(noise) ** 2 < seeded_only.objective
        # neither converges: 16 searches with identification, 8 without
        assert not result.converged and len(searches) == 16 + 8


class TestOriginStarts:
    # (seed, side, p, m, d, origin poles) of seeded targets
    ORIGIN_TARGETS = [
        (311, COISO, 1, 2, 2, 1),
        (306, ISO, 3, 1, 2, 1),
        (309, COISO, 1, 2, 2, 2),
        (536, ISO, 3, 1, 3, 3),
    ]

    @pytest.mark.parametrize("seed, side, p, m, d, origins", ORIGIN_TARGETS)
    def test_origin_poles_recover_on_the_first_search(self, monkeypatch, seed, side, p, m, d, origins):
        target = random_params(seed, side, p, m, d, schur_only=True)
        assert sum(pole.value == 0 for pole in target.poles) == origins
        samples = samples_from_params(target)
        searches = []

        def counted(x, kernel):
            searches.append(1)
            return minimize(x, kernel)

        with monkeypatch.context() as patch:
            patch.setattr(fit, "minimize", counted)
            result = fit_lossless(samples, d=d, p=p, m=m, side=side, seed=seed + 1)
        assert result.converged and len(searches) == 1
        assert sum(pole.value == 0 for pole in result.params.poles) == origins
        with monkeypatch.context() as patch:
            patch.setattr(fit, "LOEWNER_ORIGIN_RADIUS", 0.0)
            clamped = fit_lossless(samples, d=d, p=p, m=m, side=side, seed=seed + 1)
        assert result.iterations < clamped.iterations

    def test_one_origin_pole_costs_few_evaluations(self):
        target = random_params(311, COISO, 1, 2, 2, schur_only=True)
        result = fit_lossless(samples_from_params(target), d=2, p=1, m=2, side=COISO, seed=312)
        assert result.converged and result.iterations <= 20

    def test_loewner_poles_keep_the_raw_cluster(self):
        # the snap to the origin happens in fit_lossless alone
        target = random_params(536, ISO, 3, 1, 3, schur_only=True)
        poles = fit._loewner_poles(samples_from_params(target), 3)
        assert ((0 < np.abs(poles)) & (np.abs(poles) <= LOEWNER_ORIGIN_RADIUS)).all()

    def test_triple_origin_miss_recovers(self):
        # three origin poles, which the pencil identifies at radius 1.2e-6
        target = random_params(7062, COISO, 3, 3, 5, schur_only=True)
        result = fit_lossless(samples_from_params(target), d=5, p=3, m=3, side=COISO, seed=8062)
        assert result.converged

    @pytest.mark.parametrize("radius", [3e-5, 3e-7])
    def test_true_pole_below_the_cut_still_recovers(self, radius):
        target = random_params(311, COISO, 1, 2, 2, schur_only=True)
        target = replace(target, poles=(Pole(radius * np.exp(0.7j)),) + target.poles[1:])
        assert fit._searched(target.poles[0])
        result = fit_lossless(samples_from_params(target), d=2, p=1, m=2, side=COISO, seed=312)
        assert result.converged
