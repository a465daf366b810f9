import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraunit import (
    COISO,
    ISO,
    LEFT,
    RIGHT,
    BlaschkePotapovForm,
    DimensionMismatch,
    EvalAtPole,
    ImproperFunction,
    InconsistentPair,
    MFDForm,
    NotCoIsometricRealization,
    NotFIR,
    NotIsometricConstant,
    Pole,
    PoleNotInDisk,
    StateSpaceRealization,
    allpass_embed,
    blaschke_scalar,
    bp_to_laurent,
    bp_to_mfd,
    bp_to_realization,
    circle_residual,
    embed_to_square,
    extract_constant,
    flip_poles,
    flip_scalar,
    gramian_certificate,
    laurent_check,
    mcmillan_degree,
    mfd_check,
    realization_check,
    ss_to_mfd,
    truncate_to_rect,
)
from conftest import (
    constant_system,
    factor_realization,
    fir_form,
    off_circle_probes,
    outcome,
    perturb_direction,
    random_form,
    random_unitary,
    series_cascade,
)
from paraunit.forms import _unit_direction
from paraunit.tolerances import SCHUR_MARGIN
from golden import (
    FIR_46_LAURENT,
    SQRT2,
    row_example_bp,
    row_example_embedded,
    row_example_ss_normalized,
    square_embedding_value,
)


def random_direction(rng, k):
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def reference_cascade(f, validate=True):
    """Series cascade of one-state factor realizations, outer factor first."""
    if f.side == COISO:
        return reference_cascade(f.transpose(), validate).transpose()
    ss = constant_system(f.constant)
    for pole, v in reversed(f.factors):
        ss = series_cascade(factor_realization(pole, v, validate=validate), ss)
    return ss


def near_circle_pole(radius):
    """A pole object past ``Pole``'s own circle margin (bypasses its check)."""
    pole = Pole.__new__(Pole)
    pole._value = complex(radius)
    return pole


def realizations_built(monkeypatch, form):
    """Number of realizations ``bp_to_realization(form)`` constructs."""
    built = []
    init = StateSpaceRealization.__init__

    def counting_init(self, *blocks):
        built.append(1)
        init(self, *blocks)

    monkeypatch.setattr(StateSpaceRealization, "__init__", counting_init)
    assert bp_to_realization(form).n == form.d
    return len(built)


class TestFactorRealization:
    def test_half_pole_matrix(self):
        ss = factor_realization(Pole(0.5), np.array([1.0, 0.0]))
        expected = np.array(
            [
                [0.5, 0.866025, 0.0],
                [0.866025, -0.5, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(ss.realization_matrix, expected, atol=1e-6)

    def test_pure_delay_inverse(self):
        ss = factor_realization(Pole(0.0), np.array([1.0]))
        assert ss.a[0, 0] == 0.0
        assert ss.b[0, 0] == 1.0
        assert ss.c[0, 0] == 1.0
        assert abs(ss.d[0, 0]) < 1e-15
        assert abs(ss(2.0)[0, 0] - 0.5) < 1e-14

    def test_random_factors_have_unitary_realization(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            alpha = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            v = random_direction(rng, k)
            ss = factor_realization(Pole(alpha), v)
            r = ss.realization_matrix
            assert np.linalg.norm(r.conj().T @ r - np.eye(k + 1)) <= 1e-12
            for z in off_circle_probes(int(rng.integers(1 << 30)), 4):
                expected = np.eye(k) + (blaschke_scalar(Pole(alpha), z) - 1.0) * np.outer(v, v.conj())
                assert np.linalg.norm(ss(z) - expected) <= 1e-10

    def test_rejects_outside_and_infinite_poles(self):
        with pytest.raises(PoleNotInDisk):
            factor_realization(Pole(1.2), np.array([1.0]))
        with pytest.raises(PoleNotInDisk):
            factor_realization(Pole.infinity(), np.array([1.0]))


class TestBpToRealization:
    def test_constant_only(self, rng):
        u = random_unitary(rng, 3)[:, :2]
        ss = bp_to_realization(BlaschkePotapovForm(ISO, 3, 2, [], u))
        assert ss.n == 0
        assert np.array_equal(ss.d, u)
        assert realization_check(ss).passed

    def test_worked_example_recovers_balanced_realization(self):
        ss = bp_to_realization(row_example_bp(0.5))
        reference = row_example_ss_normalized(0.5)
        assert np.allclose(ss.realization_matrix, reference.realization_matrix, atol=1e-14)
        assert realization_check(ss).passed
        form = row_example_bp(0.5)
        for z in off_circle_probes(3, 16):
            assert np.linalg.norm(ss(z) - form(z)) <= 1e-9

    def test_degree_two_iso(self):
        form = random_form(77, ISO, 3, 2, 2, schur_only=True)
        ss = bp_to_realization(form)
        assert ss.n == 2
        assert realization_check(ss).residual <= 1e-10
        assert mcmillan_degree(ss) <= 2
        for z in off_circle_probes(5, 16):
            assert np.linalg.norm(ss(z) - form(z)) <= 1e-9

    def test_coiso_degree_32_matches_product_values(self):
        # the coiso cascade is built through the transpose; a plain
        # (A^T, C^T, B^T, D^T) there loses two to five digits inside the disk
        for seed in range(5, 10):
            for m in (2, 3):
                form = random_form(seed, COISO, 1, m, 32, schur_only=True)
                ss = bp_to_realization(form)
                assert ss.n == 32 and realization_check(ss).passed
                probes = off_circle_probes(seed, 16)
                probes = probes[np.abs(probes) < 1.0]
                reference = form.eval_many(probes)
                gaps = np.linalg.norm(ss.eval_many(probes) - reference, axis=(1, 2))
                assert np.max(gaps / np.linalg.norm(reference, axis=(1, 2))) <= 1e-13

    def test_rejects_improper(self):
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2)
        )
        with pytest.raises(ImproperFunction):
            bp_to_realization(form)
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole(1.5), [1.0, 0.0])], np.eye(2))
        with pytest.raises(ImproperFunction):
            bp_to_realization(form)

    @pytest.mark.parametrize("side,p,m", [(ISO, 4, 2), (ISO, 3, 3), (COISO, 2, 4), (COISO, 1, 3)])
    @pytest.mark.parametrize("d", [0, 1, 6, 64])
    def test_blocks_match_reference_cascade(self, side, p, m, d):
        form = random_form(300 + d, side, p, m, d, schur_only=True)
        ss, reference = bp_to_realization(form), reference_cascade(form)
        for block, expected in [(ss.a, reference.a), (ss.b, reference.b), (ss.c, reference.c), (ss.d, reference.d)]:
            assert block.shape == expected.shape
            assert np.linalg.norm(block - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("side,p,m", [(ISO, 3, 2), (COISO, 2, 3)])
    def test_all_origin_poles(self, side, p, m):
        rng = np.random.default_rng(310)
        k = p if side == ISO else m
        factors = [(Pole(0.0), random_direction(rng, k)) for _ in range(5)]
        constant = random_unitary(rng, k)[:, : min(p, m)]
        form = BlaschkePotapovForm(side, p, m, factors, constant if side == ISO else constant.T)
        ss, reference = bp_to_realization(form), reference_cascade(form)
        assert np.array_equal(np.diag(ss.a), np.zeros(5))
        assert np.array_equal(np.tril(ss.a), np.zeros((5, 5)))
        assert np.linalg.norm(ss.realization_matrix - reference.realization_matrix) <= 1e-13
        assert realization_check(ss).passed

    @pytest.mark.parametrize("side,p,m", [(ISO, 4, 2), (COISO, 2, 4)])
    def test_unvalidated_negative_control_stays_broken(self, side, p, m):
        broken = perturb_direction(random_form(320, side, p, m, 6, schur_only=True), 1.01, index=2)
        check = realization_check(bp_to_realization(broken, validate=False))
        expected = realization_check(reference_cascade(broken, validate=False))
        assert not check.passed
        assert abs(check.residual - expected.residual) <= 1e-12
        with pytest.raises(ValueError):
            bp_to_realization(broken)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side,p,m", [(ISO, 3, 2), (COISO, 2, 3)])
    def test_overflowing_directions_are_refused_silently(self, side, p, m):
        form = random_form(321, side, p, m, 4, schur_only=True)
        huge = [(pole, 1e170 * v) for pole, v in form.factors]
        broken = BlaschkePotapovForm(side, p, m, huge, form.constant, validate=False)
        with pytest.raises(ValueError, match="non-finite"):
            bp_to_realization(broken, validate=False)

    def test_pole_within_schur_margin(self):
        v = np.array([1.0, 0.0])
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole(0.3), 1.01 * v), (near_circle_pole(1.0 - 5e-10), v)], np.eye(2),
            validate=False,
        )
        # the innermost factor is met first, so its pole fails before the direction
        for validate in (True, False):
            with pytest.raises(PoleNotInDisk):
                reference_cascade(form, validate=validate)
            with pytest.raises(PoleNotInDisk):
                bp_to_realization(form, validate=validate)
            with pytest.raises(PoleNotInDisk):
                bp_to_realization(form.transpose(), validate=validate)

    @pytest.mark.parametrize("side,p,m", [(ISO, 4, 2), (COISO, 2, 4)])
    def test_degree_128_is_lossless(self, side, p, m):
        ss = bp_to_realization(random_form(330, side, p, m, 128, schur_only=True))
        assert ss.n == 128
        assert realization_check(ss).residual <= 1e-13

    @pytest.mark.parametrize("side", [ISO, COISO])
    def test_one_pass_checks_raise_what_the_factor_cascade_raises(self, side):
        # faults at random factors of an unvalidated form: a pole in the
        # band 1 - SCHUR_MARGIN <= |alpha| < 1, a norm the cascade refuses,
        # or one it renormalizes
        rng = np.random.default_rng(3300)
        refusals = 0
        for seed in range(150):
            small, large = sorted(int(n) for n in rng.integers(1, 5, size=2))
            p, m = (large, small) if side == ISO else (small, large)
            form = random_form(seed, side, p, m, int(rng.integers(1, 9)), schur_only=True)
            factors, fixed = list(form.factors), list(form.factors)
            for index in rng.choice(form.d, size=min(form.d, int(rng.integers(1, 4))), replace=False):
                pole, v = factors[index]
                fault = rng.choice(["pole", "refused", "renormalized"])
                sign = rng.choice([-1.0, 1.0])
                if fault == "pole":
                    pole = near_circle_pole(1.0 - rng.uniform(0.0, SCHUR_MARGIN))
                    factors[index] = fixed[index] = (pole, v)
                elif fault == "refused":
                    factors[index] = (pole, v * (1.0 + sign * rng.uniform(2e-6, 0.5)))
                else:
                    factors[index] = (pole, v * (1.0 + sign * 10.0 ** rng.uniform(-14.0, -6.0)))
                    # the coiso cascade renormalizes the conjugated row it reads
                    if side == ISO:
                        fixed[index] = (pole, _unit_direction(factors[index][1]))
                    else:
                        fixed[index] = (pole, _unit_direction(factors[index][1].conj()).conj())
            broken = BlaschkePotapovForm(side, p, m, factors, form.constant, validate=False)
            expected = outcome(lambda: reference_cascade(broken))
            actual = outcome(lambda: bp_to_realization(broken))
            if isinstance(expected, tuple):
                refusals += 1
                assert actual == expected
                continue
            # a renormalized row is _unit_direction's, bit for bit
            renormalized = BlaschkePotapovForm(side, p, m, fixed, form.constant, validate=False)
            reference = bp_to_realization(renormalized, validate=False)
            for name in "abcd":
                assert getattr(actual, name).tobytes() == getattr(reference, name).tobytes()
        assert 30 <= refusals < 150  # both outcomes are exercised

    @pytest.mark.parametrize("d", [0, 1, 7, 33])
    def test_coiso_cascade_is_the_transposed_iso_cascade(self, d):
        for seed, (p, m) in enumerate([(1, 2), (2, 3), (2, 2), (1, 4)]):
            form = random_form(350 + seed, COISO, p, m, d, schur_only=True)
            ss = bp_to_realization(form)
            reference = bp_to_realization(form.transpose()).transpose()
            for name in "abcd":
                block, same = getattr(ss, name), getattr(reference, name)
                assert block.shape == same.shape and block.tobytes() == same.tobytes()

    def test_iso_path_builds_one_realization(self, monkeypatch):
        assert realizations_built(monkeypatch, random_form(340, ISO, 3, 2, 16, schur_only=True)) == 1

    def test_coiso_path_builds_one_realization(self, monkeypatch):
        assert realizations_built(monkeypatch, random_form(341, COISO, 2, 3, 16, schur_only=True)) == 1

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(65, 128),
        seed=st.integers(0, 2**16),
        broken=st.booleans(),
    )
    def test_gramian_verdict_follows_realization_verdict(self, side, dims, d, seed, broken):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        form = random_form(seed, side, p, m, d, schur_only=True)
        if broken:
            form = perturb_direction(form, index=d // 2)
        ss = bp_to_realization(form, validate=False)
        gramians_pass = all(cert.passed for cert in gramian_certificate(ss)[2])
        assert gramians_pass == realization_check(ss).passed == (not broken)


class TestAllpassEmbed:
    def test_worked_example_matches_reference_up_to_row_phase(self):
        ss = row_example_ss_normalized(0.5)
        embedded = allpass_embed(ss)
        r = embedded.realization_matrix
        assert np.linalg.norm(r.conj().T @ r - np.eye(3)) <= 1e-10
        reference = row_example_embedded(0.5)
        # first two rows are preserved verbatim, appended row up to phase
        assert np.array_equal(r[:2], ss.realization_matrix)
        ours, theirs = r[2], reference[2]
        phase = np.vdot(ours, theirs)
        assert abs(abs(phase) - 1.0) <= 1e-10
        phase /= abs(phase)
        assert np.linalg.norm(phase * ours - theirs) <= 1e-10

    def test_square_returns_input(self, rng):
        u = random_unitary(rng, 4)
        ss = StateSpaceRealization(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
        assert allpass_embed(ss) is ss

    def test_round_trip_preserves_blocks(self):
        for seed, side, p, m in [(31, ISO, 4, 2, ), (32, COISO, 2, 3)]:
            form = random_form(seed, side, p, m, 3, schur_only=True)
            ss = bp_to_realization(form)
            embedded = allpass_embed(ss)
            r = embedded.realization_matrix
            k = ss.n + max(p, m)
            assert np.linalg.norm(r.conj().T @ r - np.eye(k)) <= 1e-10
            assert np.array_equal(embedded.a, ss.a)
            if p > m:
                assert np.array_equal(embedded.b[:, :m], ss.b)
                assert np.array_equal(embedded.d[:, :m], ss.d)
            else:
                assert np.array_equal(embedded.c[:p], ss.c)
                assert np.array_equal(embedded.d[:p], ss.d)

    def test_rejects_non_isometric_input(self):
        ss = StateSpaceRealization([[0.5]], [[1.0, 0.0]], [[1.0]], [[0.0, 1.0]])
        with pytest.raises(NotCoIsometricRealization):
            allpass_embed(ss)
        # a square input is checked as well before it is returned unchanged
        square = StateSpaceRealization([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert abs(realization_check(square).residual - 0.75) < 1e-15
        with pytest.raises(NotCoIsometricRealization):
            allpass_embed(square)


class TestExtractConstant:
    def test_embedding_pair_gives_identity_pattern(self):
        form = random_form(41, ISO, 4, 2, 2, schur_only=True)
        ss = bp_to_realization(form)
        embedded = allpass_embed(ss)
        u = extract_constant(embedded.realization_matrix, ss)
        expected = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert np.linalg.norm(u - expected) <= 1e-12

    def test_worked_example_row_selector(self):
        ss = row_example_ss_normalized(0.5)
        u = extract_constant(row_example_embedded(0.5), ss)
        assert np.linalg.norm(u - np.array([[1.0, 0.0]])) <= 1e-12

    def test_construct_then_recover(self, rng):
        for _ in range(10):
            n, m, p = 2, 2, 4
            big = random_unitary(rng, n + p)
            v = random_unitary(rng, p)[:, :m]
            padded = np.block(
                [
                    [np.eye(n), np.zeros((n, m))],
                    [np.zeros((p, n)), v],
                ]
            )
            r = big @ padded
            ss = StateSpaceRealization(r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:])
            recovered = extract_constant(big, ss)
            assert np.linalg.norm(recovered - v) <= 1e-10

    def test_inconsistent_pair_raises(self, rng):
        ss = row_example_ss_normalized(0.5)
        with pytest.raises(InconsistentPair):
            extract_constant(random_unitary(rng, 3), ss)

    def test_square_pair_tall_or_wide(self, rng):
        # with p == m the size of r_big cannot tell the embeddings apart
        n, k = 2, 2
        for _ in range(5):
            big = random_unitary(rng, n + k)
            u = random_unitary(rng, k)
            padded = np.block([[np.eye(n), np.zeros((n, k))], [np.zeros((k, n)), u]])
            for r in (big @ padded, padded @ big):
                ss = StateSpaceRealization(r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:])
                assert np.linalg.norm(extract_constant(big, ss) - u) <= 1e-10
            r = random_unitary(rng, n + k)
            ss = StateSpaceRealization(r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:])
            with pytest.raises(InconsistentPair):
                extract_constant(big, ss)


class TestSquareEmbedding:
    def test_worked_example_identity(self):
        # the square member reproduces the row function through (1, 0)
        alpha = 0.5
        form = row_example_bp(alpha)
        for z in off_circle_probes(51, 8):
            full = square_embedding_value(alpha, z)
            assert np.linalg.norm(np.array([[1.0, 0.0]]) @ full - (1 / SQRT2) * np.array([[blaschke_scalar(Pole(alpha), z), 1.0]])) <= 1e-12
        square, constant = embed_to_square(form)
        assert square.p == square.m == 2
        assert np.array_equal(constant, form.constant)
        assert np.array_equal(square.constant, np.eye(2))
        for z in off_circle_probes(52, 8):
            assert np.linalg.norm(constant @ square(z) - form(z)) <= 1e-14
        assert circle_residual(square).passed

    def test_square_input_unchanged(self, rng):
        u = random_unitary(rng, 3)
        form = random_form(61, ISO, 3, 3, 2, schur_only=True)
        form = BlaschkePotapovForm(ISO, 3, 3, form.factors, u)
        square, constant = embed_to_square(form)
        assert [pole for pole, _ in square.factors] == list(form.poles)
        assert np.array_equal(constant, u)

    @pytest.mark.parametrize("seed,side,p,m", [(62, ISO, 4, 2), (63, COISO, 1, 3)])
    def test_pointwise_identity(self, seed, side, p, m):
        form = random_form(seed, side, p, m, 3)
        square, constant = embed_to_square(form)
        for z in off_circle_probes(seed, 8):
            if side == ISO:
                assert np.linalg.norm(square(z) @ constant - form(z)) <= 1e-12
            else:
                assert np.linalg.norm(constant @ square(z) - form(z)) <= 1e-12

    @pytest.mark.parametrize(
        "seed,side,p,m", [(64, ISO, 3, 1), (65, COISO, 2, 4), (66, COISO, 2, 2), (68, COISO, 3, 3)]
    )
    def test_round_trip_is_exact(self, seed, side, p, m):
        form = random_form(seed, side, p, m, 2)
        rebuilt = truncate_to_rect(*embed_to_square(form))
        assert rebuilt.side == side
        for z in off_circle_probes(seed + 1, 6):
            assert np.array_equal(rebuilt(z), form(z))

    def test_square_tie_keeps_the_side_of_f_sq(self):
        form = random_form(66, COISO, 2, 2, 2, schur_only=True)
        square, constant = embed_to_square(form)
        rebuilt = truncate_to_rect(square, constant)
        assert rebuilt.side == COISO
        for z in off_circle_probes(67, 4):
            assert np.array_equal(rebuilt(z), form(z))

    @pytest.mark.parametrize("square_side", [ISO, COISO])
    @pytest.mark.parametrize("side", [ISO, COISO])
    def test_keeps_square_constant(self, rng, square_side, side):
        square = random_form(70, square_side, 3, 3, 3, schur_only=True)
        square = BlaschkePotapovForm(square_side, 3, 3, square.factors, random_unitary(rng, 3))
        constant = random_unitary(rng, 3)[:, :2]
        if side == COISO:
            constant = constant.T
        rebuilt = truncate_to_rect(square, constant)
        assert rebuilt.side == side
        for z in off_circle_probes(71, 8):
            expected = square(z) @ constant if side == ISO else constant @ square(z)
            assert np.linalg.norm(rebuilt(z) - expected) <= 1e-12

    def test_rejects_non_isometric_constant(self):
        form = random_form(68, ISO, 2, 2, 1, schur_only=True)
        square, _ = embed_to_square(form)
        with pytest.raises(NotIsometricConstant):
            truncate_to_rect(square, np.array([[0.5], [0.0]]))

    def test_rejects_rectangular_input(self):
        form = random_form(69, ISO, 3, 2, 1, schur_only=True)
        with pytest.raises(DimensionMismatch):
            truncate_to_rect(form, np.eye(2))


class TestFlipPoles:
    def test_already_inside_is_unchanged(self):
        form = random_form(71, ISO, 3, 2, 3, schur_only=True)
        flipped = flip_poles(form)
        assert list(flipped.poles) == list(form.poles)
        for (_, v1), (_, v2) in zip(flipped.factors, form.factors):
            assert np.allclose(v1, v2, atol=1e-15)
        assert np.allclose(flipped.constant, form.constant, atol=1e-15)

    def test_single_delay_factor(self):
        form = BlaschkePotapovForm(
            ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2)
        )
        flipped = flip_poles(form)
        assert all(pole == Pole(0.0) for pole in flipped.poles)
        assert circle_residual(flipped).passed
        for z in off_circle_probes(72, 8):
            assert np.linalg.norm(flipped(z) - form(z) * flip_scalar(form, z)) <= 1e-9

    def test_outside_pole_reflects(self):
        alpha = 2.0 - 1.0j
        form = BlaschkePotapovForm(
            COISO,
            1,
            2,
            [(Pole(alpha), np.array([1.0, 0.0]))],
            np.array([[1.0, 1.0]]) / SQRT2,
        )
        flipped = flip_poles(form)
        assert all(
            abs(pole.value - 1.0 / np.conj(alpha)) < 1e-14 for pole in flipped.poles
        )
        assert circle_residual(flipped).passed
        for z in off_circle_probes(73, 8):
            assert np.linalg.norm(flipped(z) - flip_scalar(form, z) * form(z)) <= 1e-9

    def test_flip_scalar_refuses_the_zeros_of_its_factors(self):
        # psi = z^-1 (z - 2) / (1 - 2 z) vanishes nowhere but is infinite
        # at the reflected pole 1/conj(2) and, for the pole at infinity, at 0
        form = BlaschkePotapovForm(
            ISO, 2, 1, [(Pole(2.0), [1.0, 0.0]), (Pole.infinity(), [0.0, 1.0])], [[1.0], [0.0]]
        )
        for z in (0.5, 0.0):
            with pytest.raises(EvalAtPole):
                flip_scalar(form, z)
        assert abs(flip_scalar(form, 0.25) - (0.25 - 2.0) / (0.25 * 0.5)) <= 1e-12

    def test_circle_singular_values_unchanged(self):
        # the flip multiplies by a unit-modulus scalar on the circle
        form = BlaschkePotapovForm(
            ISO,
            3,
            2,
            [(Pole(3.0 + 0.5j), [1.0, 0.0, 0.0]), (Pole(0.4), [0.0, 1.0, 0.0])],
            np.vstack([np.eye(2), np.zeros((1, 2))]),
        )
        flipped = flip_poles(form)
        for z in np.exp(2j * np.pi * np.arange(8) / 8):
            original = np.linalg.svd(form(z), compute_uv=False)
            moved = np.linalg.svd(flipped(z), compute_uv=False)
            assert np.max(np.abs(original - moved)) <= 1e-9

    @pytest.mark.parametrize("seed,side,p,m,d", [
        (74, ISO, 3, 2, 4),
        (75, COISO, 2, 3, 3),
        (76, ISO, 1, 1, 3),
    ])
    def test_mixed_poles(self, seed, side, p, m, d):
        form = random_form(seed, side, p, m, d)
        if not any(pole.is_infinity or abs(pole.value) > 1 for pole in form.poles):
            pytest.skip("seed produced no offending poles")
        flipped = flip_poles(form)
        assert all(
            (not pole.is_infinity) and abs(pole.value) < 1.0 for pole in flipped.poles
        )
        assert circle_residual(flipped).verdict == circle_residual(form).verdict
        for z in off_circle_probes(seed, 8):
            target = form(z) * flip_scalar(form, z)
            assert np.linalg.norm(flipped(z) - target) <= 1e-9


class TestSsToMfd:
    def test_constant_system(self, rng):
        u = random_unitary(rng, 2)
        ss = bp_to_realization(BlaschkePotapovForm(ISO, 2, 2, [], u))
        mfd = ss_to_mfd(ss, RIGHT)
        assert mfd.degree == 0
        assert np.array_equal(mfd.num[0], u)
        assert np.array_equal(mfd.den[0], np.eye(2))

    def test_worked_example_left_fraction(self):
        ss = row_example_ss_normalized(0.5)
        mfd = ss_to_mfd(ss, LEFT)
        assert np.allclose(mfd.den[0], [[-0.5]], atol=1e-14)
        assert np.allclose(mfd.den[1], [[1.0]], atol=1e-14)
        assert np.allclose(mfd.num[0], np.array([[1.0, -0.5]]) / SQRT2, atol=1e-14)
        assert np.allclose(mfd.num[1], np.array([[-0.5, 1.0]]) / SQRT2, atol=1e-14)
        assert mfd_check(mfd).passed

    @pytest.mark.parametrize("d", [20, 24, 32])
    def test_high_degree_denominator_is_accepted(self, d):
        # den(z) I has a determinant below 1e-12 at a probe point here, but
        # it is perfectly conditioned
        ss = bp_to_realization(random_form(d, ISO, 4, 2, d, schur_only=True))
        mfd = ss_to_mfd(ss, RIGHT)
        assert mfd.degree == d
        assert mfd_check(mfd).passed

    def test_random_stable_pointwise(self):
        rng = np.random.default_rng(91)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        b = rng.normal(size=(3, 2))
        c = rng.normal(size=(2, 3))
        d = rng.normal(size=(2, 2))
        ss = StateSpaceRealization(a, b, c, d)
        for side in (RIGHT, LEFT):
            mfd = ss_to_mfd(ss, side)
            for z in off_circle_probes(92, 16):
                assert np.linalg.norm(mfd(z) - ss(z)) <= 1e-8

    @pytest.mark.parametrize("side, p, m", [(ISO, 4, 2), (COISO, 2, 4), (ISO, 3, 3)])
    @pytest.mark.parametrize("d", [16, 32, 64])
    def test_matches_product_form(self, side, p, m, d):
        form = random_form(d + p, side, p, m, d, schur_only=True)
        mfd = ss_to_mfd(bp_to_realization(form), RIGHT if p >= m else LEFT)
        assert mfd.degree == d
        probes = TestBpToMfd.PROBES
        expected = form.eval_many(probes)
        errors = np.linalg.norm(mfd.eval_many(probes) - expected, axis=(1, 2))
        assert (errors <= 1e-10 * np.linalg.norm(expected, axis=(1, 2))).all()

    def test_unitary_state_change_goes_through_schur_form(self):
        form = random_form(96, ISO, 4, 2, 8, schur_only=True)
        q = random_unitary(np.random.default_rng(97), 8)
        for broken in (False, True):
            ss = bp_to_realization(perturb_direction(form, index=4) if broken else form, validate=False)
            moved = StateSpaceRealization(q.conj().T @ ss.a @ q, q.conj().T @ ss.b, ss.c @ q, ss.d)
            assert np.tril(moved.a, -1).any()
            mfd = ss_to_mfd(moved, RIGHT)
            probes = off_circle_probes(98, 16)
            expected = moved.eval_many(probes)
            errors = np.linalg.norm(mfd.eval_many(probes) - expected, axis=(1, 2))
            assert (errors <= 1e-10 * np.linalg.norm(expected, axis=(1, 2))).all()
            assert mfd_check(mfd).passed == (not broken)

    def test_pole_outside_the_disk_pointwise(self):
        # a pole at 3 is scaled by 1/3 in numerator and denominator alike
        rng = np.random.default_rng(99)
        a = np.array([[3.0, 0.7, -0.2j], [0.0, 0.4j, 1.1], [0.0, 0.0, -0.5]])
        ss = StateSpaceRealization(
            a, rng.normal(size=(3, 2)), rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        )
        mfd = ss_to_mfd(ss, RIGHT)
        assert np.isclose(mfd.den[-1][0, 0], 1.0 / 3.0)
        for z in off_circle_probes(100, 16):
            assert np.linalg.norm(mfd(z) - ss(z)) <= 1e-12 * np.linalg.norm(ss(z))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(65, 128),
        seed=st.integers(0, 2**16),
        broken=st.booleans(),
    )
    def test_fraction_verdict_follows_realization_verdict(self, side, dims, d, seed, broken):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        form = random_form(seed, side, p, m, d, schur_only=True)
        if broken:
            form = perturb_direction(form, index=d // 2)
        ss = bp_to_realization(form, validate=False)
        mfd = ss_to_mfd(ss, RIGHT if p >= m else LEFT)
        assert mfd_check(mfd).passed == realization_check(ss).passed == (not broken)


class TestBpToLaurent:
    def test_single_advance_factor(self):
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole.infinity(), [1.0, 0.0])], np.eye(2))
        lp = bp_to_laurent(form)
        assert lp.q == 0 and lp.gamma == 1
        assert np.allclose(lp.coeffs[0], np.diag([0.0, 1.0]), atol=1e-15)
        assert np.allclose(lp.coeffs[1], np.diag([1.0, 0.0]), atol=1e-15)

    def test_single_origin_factor(self):
        form = BlaschkePotapovForm(ISO, 2, 2, [(Pole(0.0), [1.0, 0.0])], np.eye(2))
        lp = bp_to_laurent(form)
        assert lp.q == -1 and lp.gamma == 1
        assert np.allclose(lp.coeffs[0], np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(lp.coeffs[1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_three_factor_product(self):
        rng = np.random.default_rng(93)
        factors = [
            (Pole.infinity(), random_direction(rng, 2)),
            (Pole.infinity(), random_direction(rng, 2)),
            (Pole.infinity(), random_direction(rng, 2)),
        ]
        form = BlaschkePotapovForm(COISO, 2, 2, factors, random_unitary(rng, 2))
        lp = bp_to_laurent(form)
        assert lp.q == 0 and lp.gamma == 3
        assert laurent_check(lp).passed
        for z in off_circle_probes(94, 8):
            assert np.linalg.norm(lp(z) - form(z)) <= 1e-12

    def test_matches_stored_expansion(self):
        lp = bp_to_laurent(fir_form(46, 2, 2))
        assert lp.q == -1
        assert np.array_equal(np.array(lp.coeffs), FIR_46_LAURENT)

    def test_rejects_finite_nonzero_pole(self):
        form = random_form(95, ISO, 2, 2, 1, schur_only=True)
        if all(pole.value == 0 for pole in form.poles):
            pytest.skip("seed drew only origin poles")
        with pytest.raises(NotFIR):
            bp_to_laurent(form)


class TestBpToMfd:
    PROBES = np.array([0.3 + 0.2j, 0.05, 1.5, -3.0, 0.9j])

    @pytest.mark.parametrize("side, p, m", [(ISO, 4, 2), (COISO, 2, 4), (ISO, 3, 3)])
    @pytest.mark.parametrize("d", [16, 32, 64])
    @pytest.mark.parametrize("schur", [True, False])
    def test_matches_product_form(self, side, p, m, d, schur):
        form = random_form(d + p, side, p, m, d, schur_only=schur)
        mfd = bp_to_mfd(form, RIGHT if p >= m else LEFT)
        assert mfd.degree == d
        expected = form.eval_many(self.PROBES)
        errors = np.linalg.norm(mfd.eval_many(self.PROBES) - expected, axis=(1, 2))
        assert (errors <= 1e-10 * np.linalg.norm(expected, axis=(1, 2))).all()

    def test_square_form_gives_both_sides(self):
        form = random_form(52, ISO, 3, 3, 6)
        for side in (RIGHT, LEFT):
            mfd = bp_to_mfd(form, side)
            assert mfd.side == side
            assert np.linalg.norm(mfd.eval_many(self.PROBES) - form.eval_many(self.PROBES)) <= 1e-12
        with pytest.raises(ValueError):
            bp_to_mfd(form, "top")

    def test_poles_at_origin_and_infinity(self):
        rng = np.random.default_rng(53)
        factors = [(Pole.infinity(), random_direction(rng, 2)), (Pole(0.0), random_direction(rng, 2)),
                   (Pole(2.5j), random_direction(rng, 2))]
        form = BlaschkePotapovForm(ISO, 2, 1, factors, random_unitary(rng, 2)[:, :1])
        mfd = bp_to_mfd(form)
        # den(z) = z (z - 2.5j) / 2.5, padded by a zero top coefficient for infinity
        assert np.allclose([c[0, 0] for c in mfd.den], [0.0, -1j, 0.4, 0.0], atol=1e-15)
        assert mfd_check(mfd).passed
        for z in off_circle_probes(54, 8):
            assert np.linalg.norm(mfd(z) - form(z)) <= 1e-12 * np.linalg.norm(form(z))

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_scaled_numerator_fails(self, d):
        for side, p, m in [(ISO, 4, 2), (COISO, 2, 4)]:
            for schur in (True, False):
                mfd = bp_to_mfd(random_form(d, side, p, m, d, schur_only=schur), RIGHT if p >= m else LEFT)
                assert mfd_check(mfd).passed
                broken = MFDForm(mfd.side, [1.01 * c for c in mfd.num], mfd.den)
                assert not mfd_check(broken).passed

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        side=st.sampled_from([ISO, COISO]),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
        d=st.integers(65, 128),
        seed=st.integers(0, 2**16),
        broken=st.booleans(),
    )
    def test_fraction_verdict_follows_circle_verdict(self, side, dims, d, seed, broken):
        small, large = dims
        p, m = (large, small) if side == ISO else (small, large)
        form = random_form(seed, side, p, m, d)
        if broken:
            form = perturb_direction(form, index=d // 2)
        mfd = bp_to_mfd(form, RIGHT if p >= m else LEFT)
        assert mfd_check(mfd).passed == circle_residual(form).passed == (not broken)
