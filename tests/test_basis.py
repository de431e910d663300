import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgaflow.basis import (BasisSpec, control_grid_max, eval_basis,
                           eval_basis_grid, eval_control, project_admissible)


def trapezoid_gram(basis, n_nodes):
    ts = np.linspace(0.0, basis.t_final, n_nodes)
    vals = eval_basis_grid(basis, ts)
    w = np.full(n_nodes, ts[1] - ts[0])
    w[0] = w[-1] = 0.5 * (ts[1] - ts[0])
    return vals.T @ (vals * w[:, None])


class TestEvalBasis:
    def test_second_legendre_vanishes_at_midpoint(self):
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        assert eval_basis(basis, 0.5)[1] == pytest.approx(0.0, abs=1e-14)

    def test_stated_closed_forms(self):
        T = 2.0
        basis = BasisSpec("legendre_shifted", 3, T)
        for t in (0.0, 0.7, 1.3, 2.0):
            s = t / T
            psi = eval_basis(basis, t)
            assert psi[0] == pytest.approx(np.sqrt(1 / T), rel=1e-13)
            assert psi[1] == pytest.approx(np.sqrt(3 / T) * (2 * s - 1),
                                           rel=1e-12, abs=1e-13)
            assert psi[2] == pytest.approx(
                np.sqrt(5 / T) * (6 * s**2 - 6 * s + 1), rel=1e-12, abs=1e-13)

    def test_normalization_integral(self):
        # trapezoid on 1000 nodes carries ~2e-6 quadrature error itself
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        gram = trapezoid_gram(basis, 1000)
        assert gram[1, 1] == pytest.approx(1.0, abs=1e-5)

    def test_orthogonality_integral(self):
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        gram = trapezoid_gram(basis, 1000)
        assert gram[0, 2] == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("kind", ["legendre_shifted", "fourier"])
    def test_gram_is_identity(self, kind):
        basis = BasisSpec(kind, 8, 1.5)
        np.testing.assert_allclose(trapezoid_gram(basis, 2000), np.eye(8),
                                   atol=1e-4)
        np.testing.assert_allclose(trapezoid_gram(basis, 20000), np.eye(8),
                                   atol=1e-6)

    def test_time_out_of_range(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError):
            eval_basis(basis, -0.1)
        with pytest.raises(ValueError):
            eval_basis(basis, 1.1)

    @pytest.mark.parametrize("kind", ["legendre_shifted", "fourier"])
    def test_matches_grid_row_bitwise(self, kind):
        basis = BasisSpec(kind, 7, 1.5)
        rng = np.random.default_rng(5)
        ts = np.concatenate([[0.0, 1.5], rng.uniform(0.0, 1.5, 20)])
        grid = eval_basis_grid(basis, ts)
        for t, row in zip(ts, grid):
            np.testing.assert_array_equal(eval_basis(basis, t), row)

    def test_fourier_table_matches_per_time_formula_bitwise(self):
        # the constant, then sqrt(2/T) sin and cos of 2 pi k t / T, built
        # one scalar time and one function at a time
        T, n = 1.3, 7
        ts = np.linspace(0.0, T, 9001)
        expect = np.empty((ts.size, n))
        for i, t in enumerate(ts):
            expect[i, 0] = np.sqrt(1.0 / T)
            for j in range(1, n):
                w = 2.0 * np.pi * ((j + 1) // 2) * t / T
                expect[i, j] = np.sqrt(2.0 / T) * (np.sin(w) if j % 2 == 1
                                                   else np.cos(w))
        np.testing.assert_array_equal(
            eval_basis_grid(BasisSpec("fourier", n, T), ts), expect)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BasisSpec("chebyshev", 2, 1.0)
        with pytest.raises(ValueError):
            BasisSpec("fourier", 0, 1.0)
        with pytest.raises(ValueError):
            BasisSpec("fourier", 2, -1.0)

    @pytest.mark.parametrize("t_final", [np.nan, np.inf])
    def test_non_finite_final_time_rejected(self, t_final):
        # a nan or inf T made Psi nan or 0 at every time
        with pytest.raises(ValueError, match="final time must be > 0"):
            BasisSpec("fourier", 2, t_final)


class TestControlCoefficients:
    def test_negative_bound_rejected(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match="u_max must be >= 0"):
            project_admissible(np.zeros((1, 2)), basis, -1e-9, 2010)

    @pytest.mark.parametrize("c", [np.zeros((1, 2)), np.ones((3, 1, 2))])
    def test_nan_bound_rejected(self, c):
        # no gmax > nan holds, so a nan bound let every C through
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match="u_max must be >= 0"):
            project_admissible(c, basis, np.nan, 2010)


class TestEvalControl:
    def test_zero_coefficients(self):
        basis = BasisSpec("legendre_shifted", 4, 1.0)
        c = np.zeros((3, 4))
        for t in (0.0, 0.4, 1.0):
            np.testing.assert_array_equal(eval_control(c, basis, t),
                                          np.zeros(3))

    def test_single_constant_basis(self):
        basis = BasisSpec("legendre_shifted", 1, 2.0)
        c = np.array([[3.0], [-1.0]])
        expect = np.array([3.0, -1.0]) * np.sqrt(1 / 2.0)
        for t in (0.0, 1.0, 2.0):
            np.testing.assert_allclose(eval_control(c, basis, t), expect,
                                       rtol=1e-14)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        basis = BasisSpec("legendre_shifted", 5, 1.0)
        c = rng.standard_normal((4, 5))
        psi = eval_basis(basis, 0.3)
        naive = np.array([sum(c[i, j] * psi[j] for j in range(5))
                          for i in range(4)])
        np.testing.assert_allclose(eval_control(c, basis, 0.3), naive,
                                   atol=1e-14)

    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
           seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_coefficients(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        c1 = rng.standard_normal((2, 3))
        c2 = rng.standard_normal((2, 3))
        t = 0.37
        np.testing.assert_allclose(
            eval_control(alpha * c1 + beta * c2, basis, t),
            alpha * eval_control(c1, basis, t)
            + beta * eval_control(c2, basis, t),
            atol=1e-12)


class TestProjectAdmissible:
    def test_within_bound_is_identity(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        c = np.array([[0.1, 0.05]])
        out = project_admissible(c, basis, 10.0, 2010)
        np.testing.assert_array_equal(out, c)

    def test_constant_control_scaled_to_bound(self):
        # N=1: u = c11 / sqrt(T); pick c11 so u = 2*u_max
        basis = BasisSpec("legendre_shifted", 1, 1.0)
        u_max = 1.5
        out = project_admissible(np.array([[2.0 * u_max]]), basis, u_max,
                                 2010)
        np.testing.assert_allclose(out, [[u_max]], rtol=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_grid_max_within_bound_after_projection(self, seed):
        rng = np.random.default_rng(seed)
        basis = BasisSpec("legendre_shifted", 4, 1.0)
        out = project_admissible(5.0 * rng.standard_normal((3, 4)), basis,
                                 1.0, 500)
        assert np.all(control_grid_max(out, basis, 500) <= 1.0 * (1 + 1e-12))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        once = project_admissible(4.0 * rng.standard_normal((2, 3)), basis,
                                  1.0, 300)
        twice = project_admissible(once, basis, 1.0, 300)
        np.testing.assert_array_equal(twice, once)

    def test_zero_bound_zeroes_rows(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        out = project_admissible(np.array([[1.0, 2.0]]), basis, 0.0, 2010)
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    @pytest.mark.parametrize("kind", ["legendre_shifted", "fourier"])
    @pytest.mark.parametrize("p", [1, 2, 33])
    @pytest.mark.parametrize("b", [1, 5, 45])
    def test_stack_projects_each_member_as_its_own_c(self, kind, p, b):
        basis = BasisSpec(kind, 4, 1.0)
        rng = np.random.default_rng(1000 * p + b)
        # member 0 within the bound, the rest over it on some rows
        cs = rng.uniform(-0.5, 0.5, (b, p, 4)) * np.geomspace(
            0.1, 20.0, b)[:, None, None]
        before = cs.copy()
        out = project_admissible(cs, basis, 1.0, 2010)
        np.testing.assert_array_equal(cs, before)
        assert out.shape == cs.shape
        for c, member in zip(cs, out):
            np.testing.assert_array_equal(
                member, project_admissible(c, basis, 1.0, 2010))
        within = cs * (0.5 / control_grid_max(cs, basis, 2010).max())
        assert project_admissible(within, basis, 1.0, 2010) is within
