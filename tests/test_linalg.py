import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import paraunit.linalg
from paraunit import (
    DimensionMismatch,
    NotHermitian,
    NotIsometric,
    NotSchurStable,
    hermitian_eig,
    solve_stein,
    spectral_radius,
    unitary_completion,
)
from paraunit.linalg import isometry_residual
from conftest import random_unitary


def stein_series(a, q, side, terms=200):
    """Truncated power-series solution, independent of the dense solver."""
    if side == "obs":
        a = a.conj().T
    total = np.zeros_like(q)
    power = np.eye(a.shape[0], dtype=complex)
    for _ in range(terms + 1):
        total = total + power @ q @ power.conj().T
        power = a @ power
    return total


def random_stable(rng, n, rho):
    """Complex Gaussian matrix rescaled to spectral radius ``rho``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a * (rho / spectral_radius(a))


def random_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T


class TestIsometryResidual:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_is_inf_not_nan(self):
        # the off-diagonal Gram entry is inf - inf, so an unguarded norm is
        # nan, and nan passes every `residual > tol` test
        v = np.array([[1e300, 1e300], [1e300, -1e300]], dtype=complex)
        assert isometry_residual(v) == np.inf


class TestUnitaryCompletion:
    def test_standard_basis_column(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        w = unitary_completion(v)
        assert w.shape == (2, 1)
        assert abs(w[0, 0]) < 1e-14
        assert abs(abs(w[1, 0]) - 1.0) < 1e-14
        full = np.hstack([v, w])
        assert np.linalg.norm(full.conj().T @ full - np.eye(2)) < 1e-12

    def test_full_unitary_needs_nothing(self):
        w = unitary_completion(np.eye(4))
        assert w.shape == (4, 0)

    def test_empty_input_gives_identity(self):
        w = unitary_completion(np.zeros((3, 0)))
        assert np.array_equal(w, np.eye(3))

    def test_split_and_recomplete(self):
        rng = np.random.default_rng(7)
        for k in range(2, 11):
            r = int(rng.integers(1, k + 1))
            u = random_unitary(rng, k)
            v = u[:, :r]
            w = unitary_completion(v)
            full = np.hstack([v, w])
            assert np.linalg.norm(full.conj().T @ full - np.eye(k)) <= 1e-12
            assert np.linalg.norm(w.conj().T @ v) <= 1e-12

    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometric, match="residual"):
            unitary_completion(np.array([[0.9], [0.0]]))


class TestSolveStein:
    def test_scalar_closed_form(self):
        w = solve_stein(np.array([[0.5]]), np.array([[0.75]]), side="cont")
        assert abs(w[0, 0] - 1.0) < 1e-12

    def test_zero_dynamics(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = g @ g.conj().T
        w = solve_stein(np.zeros((3, 3)), q, side="cont")
        assert np.linalg.norm(w - q) < 1e-12

    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_matches_series_oracle(self, side):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a *= 0.85 / max(spectral_radius(a), 1e-9)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q = g @ g.conj().T
            w = solve_stein(a, q, side=side)
            assert np.linalg.norm(w - stein_series(a, q, side)) <= 1e-8
            if side == "cont":
                residual = w - a @ w @ a.conj().T - q
            else:
                residual = w - a.conj().T @ w @ a - q
            assert np.linalg.norm(residual) <= 1e-10 * (1 + np.linalg.norm(q))
            assert np.linalg.norm(w - w.conj().T) < 1e-12

    def test_rejects_unstable(self):
        with pytest.raises(NotSchurStable):
            solve_stein(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            solve_stein(np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_rejects_just_inside_margin(self, side):
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 3)
        a = u @ np.diag([1.0 - 5e-10, 0.5, -0.3j]) @ u.conj().T
        with pytest.raises(NotSchurStable):
            solve_stein(a, np.eye(3), side=side)

    @pytest.mark.parametrize("n", [65, 128])
    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_large_n_matches_scipy(self, n, side):
        rng = np.random.default_rng(n)
        a = random_stable(rng, n, 0.95)
        q = random_psd(rng, n)
        w = solve_stein(a, q, side=side)
        reference = scipy.linalg.solve_discrete_lyapunov(a if side == "cont" else a.conj().T, q)
        assert np.linalg.norm(w - reference) <= 1e-10 * np.linalg.norm(reference)
        assert 0.0 < spectral_radius(a) < 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 16),
        rho=st.floats(0.2, 1.0 - 1e-6),
        side=st.sampled_from(["cont", "obs"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relative_residual_property(self, n, rho, side, seed):
        rng = np.random.default_rng(seed)
        a = random_stable(rng, n, rho)
        q = random_psd(rng, n)
        w = solve_stein(a, q, side=side)
        op = a if side == "cont" else a.conj().T
        residual = np.linalg.norm(w - op @ w @ op.conj().T - q)
        scale = np.linalg.norm(q) + np.linalg.norm(a) ** 2 * np.linalg.norm(w)
        assert residual <= 1e-12 * scale

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_stein(np.zeros((2, 2)), np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 40])
    @pytest.mark.parametrize("structure", ["upper", "lower", "dense"])
    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_structures_match_scipy(self, n, structure, side):
        # upper and lower triangular matrices skip the Schur step; dense ones
        # take it; orders up to STEIN_DENSE_ORDER_LIMIT = 8 solve one dense
        # Kronecker system and larger ones column by column
        rng = np.random.default_rng([n, len(structure)])
        diagonal = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        t = np.diag(diagonal) + np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1) / np.sqrt(n)
        u = random_unitary(rng, n)
        a = {"upper": t, "lower": t.T, "dense": u @ t @ u.conj().T}[structure]
        q = random_psd(rng, n)
        w = solve_stein(a, q, side=side)
        reference = scipy.linalg.solve_discrete_lyapunov(a if side == "cont" else a.conj().T, q)
        assert np.linalg.norm(w - reference) <= 1e-10 * np.linalg.norm(reference)
        assert np.array_equal(w, w.conj().T)

    @pytest.mark.parametrize("structure", ["upper", "lower", "diagonal", "dense"])
    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_classifies_the_matrix_once(self, monkeypatch, structure, side):
        # one upper test of the given matrix, whatever its structure and side
        rng = np.random.default_rng(11)
        a = 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = {"upper": np.triu(a), "lower": np.tril(a), "diagonal": np.diag(np.diag(a)), "dense": a}[structure]
        tests = []
        is_upper = paraunit.linalg._is_upper_triangular
        monkeypatch.setattr(paraunit.linalg, "_is_upper_triangular", lambda m: tests.append(1) or is_upper(m))
        solve_stein(a, random_psd(rng, 4), side=side)
        assert len(tests) == 1

    @pytest.mark.parametrize("side", ["cont", "obs"])
    def test_triangular_rejects_just_inside_margin(self, side):
        # the 9-state case is past the dense bound and takes the column loop
        last_of_nine = np.triu(np.full((9, 9), 0.5)) + np.diag([0.0] * 8 + [0.5 - 5e-10])
        for a in (
            np.array([[0.5, 2.0], [0.0, 1.0 - 5e-10]]),
            np.array([[1.0 - 5e-10, 0.0], [2.0, 0.5]]),
            last_of_nine,
        ):
            with pytest.raises(NotSchurStable):
                solve_stein(a, np.eye(len(a)), side=side)


class TestHermitianEig:
    def test_identity(self):
        values, vectors = hermitian_eig(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0])
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(3)) < 1e-12

    def test_symmetric_two_by_two(self):
        values, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [1.0, 3.0])

    def test_construct_then_recover(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            u = random_unitary(rng, n)
            lam = np.sort(rng.normal(size=n))
            m = u @ np.diag(lam) @ u.conj().T
            values, vectors = hermitian_eig(m)
            assert np.max(np.abs(values - lam)) <= 1e-9
            assert abs(np.trace(m).real - values.sum()) <= 1e-9 * max(1, abs(values).max())
            rebuilt = vectors @ np.diag(values) @ vectors.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-8
            for i in range(n):
                residual = m @ vectors[:, i] - values[i] * vectors[:, i]
                assert np.linalg.norm(residual) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralRadius:
    def test_diagonal(self):
        assert abs(spectral_radius(np.diag([0.5, -0.2])) - 0.5) < 1e-12

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-9

    def test_companion_matrix(self):
        # z^2 - 1.5 z + 0.56 has roots 0.7 and 0.8
        companion = np.array([[1.5, -0.56], [1.0, 0.0]])
        assert abs(spectral_radius(companion) - 0.8) <= 1e-9 * 0.8

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.zeros((0, 0)))

    def test_upper_triangular_reads_the_diagonal(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvals called on a triangular matrix")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert spectral_radius(np.array([[0.5, 30.0], [0.0, -0.7j]])) == 0.7
