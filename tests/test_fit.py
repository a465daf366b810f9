import itertools
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paraunit import (
    COISO,
    DimensionMismatch,
    EvalAtPole,
    FitResult,
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
    _ChartKernel, _chart_jacobian, _chart_residual, _decode, _start_values, minimize,
)
from paraunit.tolerances import LOEWNER_ORIGIN_RADIUS, RADIUS_CHART_MARGIN
from conftest import circle_points, two_sided_loewner_poles


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


def as_iso(template):
    """The template as the fit hands it to a kernel: a coiso one as its transpose."""
    return template.transpose() if template.side == COISO else template


def random_kernel_inputs(rng, seed, count=9):
    """A random template and random targets at ``count`` random points off
    the circle, as the fit hands them to a kernel: a coiso draw enters as
    its exact transpose, with the targets transposed."""
    template = random_template(rng, seed)
    zs = rng.uniform(0.2, 3.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    targets = rng.normal(size=(count, template.p, template.m)) + 1j * rng.normal(
        size=(count, template.p, template.m)
    )
    if template.side == COISO:
        targets = targets.swapaxes(1, 2)
    return as_iso(template), zs, targets


CHART_BLOCKS = ("radii", "thetas", "directions", "frame")


def searched_kernels(rng, count=40):
    """``count`` kernels of seeded templates with searched poles, each with
    its samples and a coordinate vector scattered around its start."""
    kernels = []
    for seed in itertools.count():
        template, zs, targets = random_kernel_inputs(rng, seed)
        samples = SampleSet(list(zip(zs, targets)))
        kernel = _ChartKernel(template, samples.zs, samples.targets)
        if kernel.searched_rows.size:
            kernels.append((kernel, samples, kernel.start + rng.normal(size=kernel.size)))
        if len(kernels) == count:
            return kernels


class TestChartKernel:
    def test_matches_public_objective(self):
        rng = np.random.default_rng(31)
        origins = 0
        for seed in range(200):
            template, zs, targets = random_kernel_inputs(rng, seed)
            samples = SampleSet(list(zip(zs, targets)))
            kernel = _ChartKernel(template, samples.zs, samples.targets)
            x = kernel.start + rng.normal(scale=3.0, size=kernel.size)
            value, frame, trial_value = _start_values(x, kernel)
            expected = objective(_decode(x, kernel), samples)
            assert abs(value - expected) <= 1e-12 * expected
            trial = x.copy()
            trial[kernel.frame] = frame
            expected = objective(_decode(trial, kernel), samples)
            assert abs(trial_value - expected) <= 1e-12 * expected
            origins += Pole(0.0) in template.poles
        assert origins >= 20

    def test_sample_on_a_decoded_pole_raises_on_both_paths(self):
        rng = np.random.default_rng(32)
        checked = 0
        for seed in range(40):
            template = as_iso(random_template(rng, seed))
            zero = np.zeros((template.p, template.m))
            kernel = _ChartKernel(template, np.ones(1, dtype=complex), zero[None])
            x = kernel.start + rng.normal(size=kernel.size)
            params = _decode(x, kernel)
            poles = [pole.value for pole in params.poles if fit._searched(pole)]
            if not poles:
                continue
            zs = np.append(circle_points(8), poles[-1])
            samples = SampleSet([(z, zero) for z in zs])
            with pytest.raises(EvalAtPole) as public:
                objective(params, samples)
            with pytest.raises(EvalAtPole) as chart:
                _start_values(x, _ChartKernel(template, samples.zs, samples.targets))
            assert str(chart.value) == str(public.value)
            checked += 1
        assert checked >= 20

    def test_non_finite_point_raises_on_every_path(self):
        rng = np.random.default_rng(36)
        refused = Counter()
        for kernel, _, x in searched_kernels(rng):
            for block in CHART_BLOCKS:
                coordinates = np.arange(kernel.size)[getattr(kernel, block)]
                if not coordinates.size:
                    continue
                for value in (np.nan, np.inf, -np.inf):
                    if block == "radii" and np.isinf(value):
                        continue  # decodes to a legal radius
                    point = x.copy()
                    point[rng.choice(coordinates)] = value
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        for path in (_chart_residual, _chart_jacobian, _start_values, _decode):
                            with pytest.raises(ValueError, match="non-finite pole or angle"):
                                path(point, kernel)
                    refused[block] += 1
        assert refused["radii"] == 40 and refused["thetas"] == refused["frame"] == 120
        assert refused["directions"] >= 90

    def test_extreme_coordinates_give_finite_values(self):
        rng = np.random.default_rng(37)
        checked = Counter()
        for kernel, samples, x in searched_kernels(rng):
            for block in CHART_BLOCKS:
                coordinates = np.arange(kernel.size)[getattr(kernel, block)]
                if not coordinates.size:
                    continue
                values = (1e300, -1e300) + ((np.inf, -np.inf) if block == "radii" else ())
                for value in values:
                    point = x.copy()
                    point[rng.choice(coordinates)] = value
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        assert np.isfinite(_chart_residual(point, kernel)).all()
                        assert np.isfinite(_chart_jacobian(point, kernel)).all()
                        start_value, frame, trial_value = _start_values(point, kernel)
                        expected = objective(_decode(point, kernel), samples)
                    assert np.isfinite([start_value, trial_value, *frame]).all()
                    assert abs(start_value - expected) <= 1e-12 * expected
                    checked[block] += 1
        assert checked["radii"] == 160 and checked["thetas"] == checked["frame"] == 80
        assert checked["directions"] >= 60


def central_differences(x, kernel, step=1e-6):
    columns = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        columns.append((_chart_residual(x + e, kernel) - _chart_residual(x - e, kernel)) / (2 * step))
    return np.stack(columns, axis=1)


def random_kernel(rng, seed):
    """The kernel of :func:`random_kernel_inputs`, and a coordinate vector
    scattered around its template's encoding."""
    template, zs, targets = random_kernel_inputs(rng, seed)
    kernel = _ChartKernel(template, zs, targets)
    return template, kernel, kernel.start + rng.normal(size=kernel.size)


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
        assert seen == {"frame only", "no direction angles", "square", "origin pole"}

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
        # the identified product would start at the target and search nothing
        monkeypatch.setattr(fit, "_identified_directions", lambda kernel: None)
        target = random_params(11, ISO, 2, 1, 1, schur_only=True)
        samples = samples_from_params(target, count=64)
        result = fit_lossless(samples, d=1, p=2, m=1, seed=100, restarts=1)
        assert result.converged and result.iterations > 0
        # one call per search step: the start reads its chain through _start_values
        assert len(calls) == result.iterations


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

    def test_names_the_first_bad_sample_and_its_point_first(self):
        zs = list(circle_points(6))
        values = [np.eye(2) for _ in zs]
        zs[4] = complex(np.nan, 0.0)
        values[2] = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sample 2: value is not finite"):
            SampleSet(list(zip(zs, values)))
        zs[2] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="sample 2: point infj is not finite"):
            SampleSet(list(zip(zs, values)))

    def test_shapes_are_checked_before_finiteness(self):
        values = [np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(3)]
        with pytest.raises(DimensionMismatch):
            SampleSet(list(zip(circle_points(3), values)))

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

    def test_matches_the_two_sided_reference(self):
        for case, side, p, m, d in sweep_cases():
            _, samples = sweep_target(case, side, p, m, d)
            poles, reference = fit._loewner_poles(samples, d), two_sided_loewner_poles(samples, d)
            gaps = np.abs(poles[:, None] - reference)
            error = max(gaps.min(axis=0).max(), gaps.min(axis=1).max())
            assert error <= 1e-7, f"case {case}: {error:.1e} from the reference"

    def test_makes_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for case, side, p, m, d in list(sweep_cases())[:6]:
            _, samples = sweep_target(case, side, p, m, d)
            calls.clear()
            assert fit._loewner_poles(samples, d) is not None
            assert len(calls) == 1, f"case {case}: {len(calls)} SVDs"

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
        draws = Counter()

        def drawn(seed, *args, **kwargs):
            draws[seed] += 1
            return random_params(seed, *args, **kwargs)

        monkeypatch.setattr(fit, "random_params", drawn)
        result, seeded_only = self.fit_both_ways(
            monkeypatch, noisy, d, p, m, side=side, seed=9000 + case, restarts=8,
        )
        # each fit draws each seed once: restart 0 reuses the draw the
        # identified start took its frame from
        assert draws == {9000 + case + restart: 2 for restart in range(8)}
        assert result.objective <= seeded_only.objective
        # the identified starts reach the noise floor; the seeded ones do not
        assert result.objective <= 2.0 * np.linalg.norm(noise) ** 2 < seeded_only.objective
        # neither converges: the identified start and the 8 seeded ones with
        # identification, the 8 seeded ones without
        assert not result.converged and len(searches) == 1 + 8 + 8


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
        # the identified product would start at the target and search nothing
        monkeypatch.setattr(fit, "_identified_directions", lambda kernel: None)
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


class TestIdentifiedProduct:
    # (target seed, side, p, m, d, fit seed): misses of the searches from
    # identified poles with seeded directions
    MISSES = [
        (7024, COISO, 4, 4, 4, 8024),
        (7039, ISO, 4, 3, 4, 8039),
        (780, ISO, 4, 2, 6, 781),
        (100, ISO, 4, 2, 12, 100),
        (5, ISO, 3, 2, 20, 5),
    ]

    @pytest.mark.parametrize("seed, side, p, m, d, fit_seed", MISSES)
    def test_recorded_misses_recover_at_the_start(self, seed, side, p, m, d, fit_seed):
        target = random_params(seed, side, p, m, d, schur_only=True)
        result = fit_lossless(samples_from_params(target), d=d, p=p, m=m, side=side, seed=fit_seed)
        assert result.converged and result.iterations <= 10

    @pytest.mark.parametrize(
        "seed, side, p, m, d", [(536, ISO, 3, 1, 3), (309, COISO, 1, 2, 2), (7024, COISO, 4, 4, 4)]
    )
    def test_directions_match_the_target(self, seed, side, p, m, d):
        target = random_params(seed, side, p, m, d, schur_only=True)
        template = replace(random_params(seed + 1, side, p, m, d, schur_only=True), poles=target.poles)
        samples = samples_from_params(as_iso(target))
        template = as_iso(template)
        rows = fit._identified_directions(_ChartKernel(template, samples.zs, samples.targets))
        found = build_paraunitary(replace(template, directions=rows)).factors
        for (_, v), (_, w) in zip(found, build_paraunitary(as_iso(target)).factors):
            assert abs(abs(np.vdot(v, w)) - 1.0) <= 1e-10

    # regression: coiso targets that no start recovered while the coiso
    # chain was peeled from its last factor
    @pytest.mark.parametrize("seed, p, m, d, fit_seed", [(20357, 3, 4, 6, 20358), (20397, 3, 3, 6, 20398)])
    def test_coiso_misses_recover(self, seed, p, m, d, fit_seed):
        target = random_params(seed, COISO, p, m, d, schur_only=True)
        result = fit_lossless(samples_from_params(target), d=d, p=p, m=m, side=COISO, seed=fit_seed)
        assert result.converged

    @pytest.mark.parametrize("seed, side, p, m, d", [(11, ISO, 2, 1, 1), (7024, COISO, 4, 4, 4)])
    def test_start_builds_one_chain(self, monkeypatch, seed, side, p, m, d):
        calls = Counter()

        def counted(name):
            function = getattr(fit, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for name in ("_chart_chain", "_iso_product"):
            monkeypatch.setattr(fit, name, counted(name))
        target = random_params(seed, side, p, m, d, schur_only=True)
        result = fit_lossless(samples_from_params(target), d=d, p=p, m=m, side=side, seed=seed + 1)
        assert result.converged and result.iterations == 0
        assert calls == {"_chart_chain": 1, "_iso_product": 1}

    def test_sample_at_a_zero_of_phi_finds_nothing(self):
        template = replace(random_params(3, ISO, 2, 1, 1, schur_only=True), poles=(Pole(0.5),))
        # phi of the pole 0.5 vanishes at z = 2
        zs = np.append(circle_points(8), 2.0)
        samples = SampleSet([(z, np.ones((2, 1))) for z in zs])
        assert fit._identified_directions(_ChartKernel(template, samples.zs, samples.targets)) is None

    def test_zero_coefficient_finds_nothing(self):
        template = replace(random_params(3, ISO, 3, 2, 2, schur_only=True), poles=(Pole(0.5), Pole(-0.3j)))
        samples = SampleSet([(z, np.zeros((3, 2))) for z in circle_points(64)])
        assert fit._identified_directions(_ChartKernel(template, samples.zs, samples.targets)) is None

    def test_unidentified_directions_keep_the_draw(self, monkeypatch):
        # poles identified from samples whose coefficients are zero: the
        # identified start keeps the directions of restart 0's draw
        monkeypatch.setattr(fit, "_loewner_poles", lambda samples, d: np.array([0.5, -0.3j]))
        starts = []

        def spy(x, kernel):
            starts.append((x.copy(), kernel))
            return _start_values(x, kernel)

        monkeypatch.setattr(fit, "_start_values", spy)
        samples = SampleSet([(z, np.zeros((3, 2))) for z in circle_points(64)])
        result = fit_lossless(samples, d=2, p=3, m=2, seed=5, restarts=1)
        assert isinstance(result, FitResult)
        x, kernel = starts[0]
        np.testing.assert_allclose([pole.value for pole in kernel.template.poles], [0.5, -0.3j], atol=1e-15)
        assert kernel.template.directions == random_params(5, ISO, 3, 2, 2, schur_only=True).directions
        np.testing.assert_array_equal(x[kernel.directions], kernel.start[kernel.directions])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_schur_members_recover(self, side, dims, d, seed):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        target = random_params(seed, side, p, m, d, schur_only=True)
        assume(sum(pole.value == 0 for pole in target.poles) <= 3)
        result = fit_lossless(samples_from_params(target), d=d, p=p, m=m, side=side, seed=seed + 1)
        assert result.converged
