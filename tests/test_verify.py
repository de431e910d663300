from dataclasses import replace

import numpy as np
import pytest

from sgaflow import ModelOracle, ProblemData, verify
from sgaflow.basis import BasisSpec, ControlCoefficients, project_admissible
from sgaflow.sga import SolverConfig, cost, sweep
from sgaflow.verify import (check_coefficient_gradient, check_dp_identity,
                            check_rk4_order, fd_gradient)

from conftest import linear_problem, mlp_check_problem, quadratic_datasets


def quad_setup(p=1, steps=100, n=2, eps=0.1, u_max=5.0, **kw):
    z1, zd, zv = quadratic_datasets(p)
    basis = BasisSpec("legendre_shifted", n, 1.0)
    config = SolverConfig(eps=eps, t_final=1.0, steps=steps, basis=basis,
                          u_max=u_max, theta0=np.ones(p), **kw)
    return (ModelOracle("linear_features", p), config,
            ProblemData(z1, zd, zv))


class TestFdGradient:
    def test_quadratic_is_near_exact(self):
        g = fd_gradient(lambda x: 0.5 * x @ x, np.array([1.0, -2.0]), 1e-6)
        np.testing.assert_allclose(g, [1.0, -2.0], atol=1e-9)

    def test_constant_function(self):
        g = fd_gradient(lambda x: 3.0, np.array([1.0, 2.0, 3.0]), 1e-5)
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_bilinear_product(self):
        g = fd_gradient(lambda x: x[0] * x[1], np.array([2.0, 3.0]), 1e-6)
        np.testing.assert_allclose(g, [3.0, 2.0], atol=1e-8)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: 0.0, np.zeros(2), 0.0)

    def test_nonfinite_function_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: np.nan, np.zeros(1), 1e-6)


class TestCheckCoefficientGradient:
    def test_linear_family_passes_tight_tolerance(self):
        o, data = linear_problem(seed=50)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=200,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0)
        report = check_coefficient_gradient(o, config, data, n_probes=3,
                                            tol=1e-5)
        assert report.passed, report.to_dict()

    def test_mlp_family_passes(self):
        o, config, data = mlp_check_problem(seed=51, steps=100, n_basis=2)
        report = check_coefficient_gradient(o, config, data, n_probes=1,
                                            tol=1e-3)
        assert report.passed, report.to_dict()

    @pytest.mark.parametrize("seed,steps,n_basis", [(61, 200, 3),
                                                     (51, 100, 2)])
    def test_mlp_checks_move_every_parameter(self, seed, steps, n_basis):
        # criterion 3's and test_mlp_family_passes' set-ups, at their first
        # probe's coefficients: no row of G may be all zero, or the check
        # would not test that parameter
        o, config, data = mlp_check_problem(seed, steps, n_basis)
        c0 = np.random.default_rng(0).uniform(-0.5, 0.5,
                                              (o.param_dim, n_basis))
        coeffs = project_admissible(
            ControlCoefficients(c0, config.basis, config.u_max),
            config.projection_grid)

        def zero_rows(cfg):
            _, _, g = sweep(o, coeffs, cfg, data)
            return int(np.sum(np.all(g == 0.0, axis=1)))

        assert zero_rows(config) == 0
        # from theta0 = 0 only b2's row moves
        assert zero_rows(replace(config, theta0=None)) == o.param_dim - 1

    @pytest.mark.parametrize("block", [4, 128])
    def test_batched_probes_match_serial_fd_gradient(self, monkeypatch,
                                                     block):
        # block 4 splits the 2*p*n probes into several batches, the last one
        # partial; each batch member must equal its own serial integration
        monkeypatch.setattr(verify, "PROBE_BLOCK", block)
        o, data = linear_problem(d=3, seed=52)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=20, basis=basis,
                              u_max=5.0)
        rng = np.random.default_rng(5)
        coeffs = ControlCoefficients(
            rng.uniform(-0.5, 0.5, (o.param_dim, 3)), basis, 5.0)

        def f(cv):
            return cost(o, ControlCoefficients(cv.reshape(coeffs.c.shape),
                                               basis, 5.0), config, data)

        serial = fd_gradient(f, coeffs.c.ravel(), 1e-5)
        batched = verify._fd_cost_gradient(o, coeffs, config, data, 1e-5)
        np.testing.assert_array_equal(batched, serial.reshape(coeffs.c.shape))

    def test_eps_zero_both_sides_vanish(self):
        o, config, data = quad_setup(eps=0.0, steps=50)
        report = check_coefficient_gradient(o, config, data, n_probes=1,
                                            tol=1e-8)
        assert report.passed


class TestCheckDpIdentity:
    def test_quadratic_reoptimized(self):
        o, config, data = quad_setup(steps=100, max_iters=30)
        report = check_dp_identity(o, config, data)
        assert report.passed, report.to_dict()
        # frozen-control variant is reported alongside
        assert "rel_err_frozen_control" in report.details[0]

    def test_null_control_reduction_is_tight(self):
        o, config, data = quad_setup(steps=100, u_max=0.0, max_iters=3)
        report = check_dp_identity(o, config, data, tol=1e-4)
        assert report.passed, report.to_dict()

    def test_large_probe_step_degrades(self):
        # far outside the linearization regime the identity visibly breaks
        o, config, data = quad_setup(steps=100, max_iters=10)
        small = check_dp_identity(o, config, data, delta=1e-3)
        large = check_dp_identity(o, config, data, delta=1.0)
        assert large.max_rel_err > small.max_rel_err

    def test_refuses_high_dimension(self):
        o, data = linear_problem(d=4, seed=52)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=50,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=1.0)
        with pytest.raises(ValueError, match="p <= 3"):
            check_dp_identity(o, config, data)


class TestCheckRk4Order:
    def test_quadratic_slope_near_four(self):
        o, config, data = quad_setup(steps=100)
        report = check_rk4_order(o, config, data)
        assert report.passed
        d = report.details[0]
        assert 3.7 <= d["forward_slope"] <= 4.3
        assert 3.7 <= d["adjoint_slope"] <= 4.3

    def test_too_few_levels_rejected(self):
        o, config, data = quad_setup(steps=100)
        with pytest.raises(ValueError, match="3 grid levels"):
            check_rk4_order(o, config, data, step_counts=(50,))
