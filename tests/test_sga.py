import pickle
from dataclasses import replace

import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, ProblemData, dynamics, sga
from sgaflow.basis import (BasisSpec, ControlCoefficients, control_grid_max,
                           eval_basis_grid, project_admissible,
                           zero_coefficients)
from sgaflow.dynamics import (AdjointTrajectory, TimeGrid, Trajectory,
                              final_states, hamiltonian, integrate_adjoint,
                              integrate_forward)
from sgaflow.model import loss_gradient, phi_value
from sgaflow.sga import (SolverConfig, coefficient_gradient, cost,
                         pointwise_max_control, solve, sweep)
from sgaflow.verify import fd_gradient

from conftest import linear_problem, mlp_problem, quadratic_datasets


def quad_config(p=1, steps=200, n=2, eps=0.1, u_max=5.0, **kw):
    basis = BasisSpec("legendre_shifted", n, 1.0)
    return SolverConfig(eps=eps, t_final=1.0, steps=steps, basis=basis,
                        u_max=u_max, theta0=np.ones(p), **kw)


@pytest.fixture
def quad1_problem():
    z1, zd, zv = quadratic_datasets(1)
    return ModelOracle("linear_features", 1), ProblemData(z1, zd, zv)


class TestCost:
    def test_closed_form_null_control(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=100)
        coeffs = zero_coefficients(1, config.basis, config.u_max)
        j = cost(o, coeffs, config, data)
        assert j == pytest.approx(0.5 * np.exp(-2.0), abs=1e-8)

    def test_fixed_point_at_joint_optimum(self):
        o, data = linear_problem(seed=13)
        rng = np.random.default_rng(0)
        theta_fit = rng.standard_normal(o.param_dim)
        # rebuild every dataset so theta_fit has zero residual on all of them
        def refit(z, tag):
            return Dataset(z.x, o.predict(theta_fit, z.x), tag)
        data = ProblemData(refit(data.z_train, "train"),
                           refit(data.z_dith, "dithered"),
                           refit(data.z_val, "validation"))
        config = replace(quad_config(), theta0=theta_fit)
        coeffs = zero_coefficients(o.param_dim, config.basis, config.u_max)
        assert cost(o, coeffs, config, data) == pytest.approx(0.0, abs=1e-20)

    def test_invariant_to_u_max_when_control_off(self, quad1_problem):
        o, data = quad1_problem
        costs = []
        for u_max in (1.0, 5.0, 50.0):
            config = quad_config(u_max=u_max)
            coeffs = zero_coefficients(1, config.basis, u_max)
            costs.append(cost(o, coeffs, config, data))
        assert costs[0] == costs[1] == costs[2]


class TestCoefficientGradient:
    def test_zero_costate_gives_zero(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=10)
        grid = TimeGrid(1.0, 10)
        traj = Trajectory(grid, np.ones((41, 1)))
        adj = AdjointTrajectory(grid, np.zeros((21, 1)))
        coeffs = zero_coefficients(1, config.basis, config.u_max)
        g = coefficient_gradient(o, traj, adj, coeffs, config, data)
        np.testing.assert_array_equal(g, np.zeros((1, 2)))

    def test_scales_linearly_in_eps(self, quad1_problem):
        o, data = quad1_problem
        grid = TimeGrid(1.0, 10)
        traj = Trajectory(grid, np.ones((41, 1)))
        adj = AdjointTrajectory(grid, np.ones((21, 1)))
        g = {}
        for eps in (0.5, 0.05):
            config = quad_config(steps=10, eps=eps)
            coeffs = zero_coefficients(1, config.basis, config.u_max)
            g[eps] = coefficient_gradient(o, traj, adj, coeffs, config, data)
        np.testing.assert_allclose(g[0.5], 10.0 * g[0.05], rtol=1e-12,
                                   atol=1e-15)

    def test_matches_finite_differences_quadratic(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=400, n=2)
        rng = np.random.default_rng(1)
        coeffs = project_admissible(
            ControlCoefficients(rng.uniform(-0.5, 0.5, (1, 2)),
                                config.basis, config.u_max),
            config.projection_grid)
        _, _, grad = sweep(o, coeffs, config, data)
        fd = fd_gradient(
            lambda cv: cost(o, replace(coeffs, c=cv.reshape(1, 2)),
                            config, data),
            coeffs.c.ravel(), 1e-5).reshape(1, 2)
        assert np.max(np.abs(-grad - fd)) / np.max(np.abs(fd)) <= 1e-5

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_per_state_loop_bitwise(self, family, monkeypatch):
        # 21 nodes and 20 midpoints in stacks of 7, the last one partial
        monkeypatch.setattr(dynamics, "GRAD_BLOCK", 7)
        if family == "linear":
            o, data = linear_problem(d=3, seed=25)
        else:
            o, data = mlp_problem(d=2, seed=24)
        rng = np.random.default_rng(9)
        config = SolverConfig(eps=0.3, t_final=1.0, steps=20,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0,
                              theta0=0.5 * rng.standard_normal(o.param_dim))
        coeffs = ControlCoefficients(
            rng.uniform(-1.0, 1.0, (o.param_dim, 3)), config.basis, 5.0)
        traj, adj, g = sweep(o, coeffs, config, data)

        def integrand(ts, thetas, ps):
            vals = np.empty((len(ts), o.param_dim))
            for k in range(len(ts)):
                gt = loss_gradient(o, thetas[k], data.z_dith)
                vals[k] = config.eps * ps[k] * (gt * gt)
            return vals, eval_basis_grid(config.basis, ts)

        grid = config.grid
        f_n, psi_n = integrand(grid.nodes, traj.theta_nodes, adj.p_nodes)
        f_m, psi_m = integrand(grid.midpoints, traj.theta_mid, adj.p_mid)
        w = np.full(grid.steps + 1, grid.h / 3.0)
        w[0] = w[-1] = grid.h / 6.0
        expect = ((f_n * w[:, None]).T @ psi_n
                  + (2.0 * grid.h / 3.0) * f_m.T @ psi_m)
        np.testing.assert_array_equal(g, expect)
        assert np.all(g != 0.0)

    def test_grid_mismatch_rejected(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=10)
        traj = Trajectory(TimeGrid(1.0, 10), np.ones((41, 1)))
        adj = AdjointTrajectory(TimeGrid(1.0, 20), np.zeros((41, 1)))
        coeffs = zero_coefficients(1, config.basis, config.u_max)
        with pytest.raises(ValueError, match="grid"):
            coefficient_gradient(o, traj, adj, coeffs, config, data)


def one_step(o, coeffs, config, data):
    """One solver iteration from coeffs: (new coefficients, its record)."""
    report = solve(o, replace(config, c0=coeffs.c, max_iters=1), data)
    return report.final_coeffs, report.iterations[0]


class TestStep:
    def test_zero_gradient_is_fixed_point(self):
        # theta0 = 0 is stationary for J0 and zero-residual for Phi
        z1, zd, zv = quadratic_datasets(1)
        o = ModelOracle("linear_features", 1)
        data = ProblemData(z1, zd, zv)
        config = replace(quad_config(steps=50), theta0=np.zeros(1))
        coeffs = zero_coefficients(1, config.basis, config.u_max)
        new, rec = one_step(o, coeffs, config, data)
        np.testing.assert_array_equal(new.c, coeffs.c)
        assert rec.grad_norm == 0.0

    def test_backtracking_never_increases_cost(self):
        o, data = linear_problem(seed=21)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            coeffs = project_admissible(
                ControlCoefficients(rng.uniform(-1, 1, (o.param_dim, 3)),
                                    config.basis, config.u_max),
                config.projection_grid)
            j0 = cost(o, coeffs, config, data)
            new, rec = one_step(o, coeffs, config, data)
            assert cost(o, new, config, data) <= j0

    def test_projection_triggers_only_beyond_bound(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=50, u_max=1e6, gamma0=1.0)
        coeffs = zero_coefficients(1, config.basis, config.u_max)
        _, rec = one_step(o, coeffs, config, data)
        assert not rec.projected


class TestSolve:
    def test_degenerate_optimum_converges_immediately(self):
        z1, zd, zv = quadratic_datasets(1)
        o = ModelOracle("linear_features", 1)
        data = ProblemData(z1, zd, zv)
        config = replace(quad_config(steps=50), theta0=np.zeros(1))
        report = solve(o, config, data)
        assert report.converged
        assert report.stop_reason == "tolerance"
        assert len(report.iterations) == 1
        assert report.iterations[0].grad_norm == 0.0

    def test_strict_improvement_on_quadratic(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=200, n=2, eps=0.1, u_max=5.0,
                             max_iters=30)
        report = solve(o, config, data)
        coeffs0 = zero_coefficients(1, config.basis, config.u_max)
        j_null = cost(o, coeffs0, config, data)
        assert report.iterations[0].grad_norm > config.eps_tol
        assert report.final_cost < j_null

    def test_cost_sequence_monotone(self):
        o, data = linear_problem(seed=30)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=100,
                              basis=BasisSpec("legendre_shifted", 4, 1.0),
                              u_max=5.0, max_iters=15)
        report = solve(o, config, data)
        costs = [r.cost for r in report.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_divergent_trial_step_backtracks(self):
        # the line search must halve a divergent step rather than abort
        o, config, data = divergent_trial_problem()
        report = solve(o, config, data)
        j_null = cost(o, zero_coefficients(1, config.basis, config.u_max),
                      config, data)
        assert np.isfinite(report.final_cost)
        assert report.final_cost <= j_null
        assert 0.0 < report.iterations[0].gamma < config.gamma0

    def test_every_iterate_admissible(self):
        o, data = linear_problem(seed=31)
        config = SolverConfig(eps=0.5, t_final=1.0, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=0.05, max_iters=10, gamma0=1.0)
        report = solve(o, config, data)
        gmax = control_grid_max(report.final_coeffs, config.projection_grid)
        assert np.all(gmax <= config.u_max * (1 + 1e-12))

    def test_identical_runs_are_bitwise_equal(self):
        o, data = linear_problem(seed=32)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0, max_iters=5)
        a = solve(o, config, data)
        b = solve(o, config, data)
        assert pickle.dumps(a.to_dict()) == pickle.dumps(b.to_dict())

    def test_theta_star_matches_final_forward_pass(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=100, max_iters=5)
        report = solve(o, config, data)
        traj = integrate_forward(o, config.theta0, report.final_coeffs,
                                 config.eps, data.z_train, data.z_dith,
                                 config.grid)
        np.testing.assert_array_equal(report.theta_star, traj.theta_final)


class TestNonFiniteData:
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_integrations_and_solve_reject_it(self, where, bad):
        o, data = linear_problem(seed=33)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=10,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=5.0, max_iters=2)

        def spoiled(z):
            x, y = z.x.copy(), z.y.copy()
            (x if where == "x" else y)[0, ...] = bad
            return Dataset(x, y, z.tag)

        coeffs = config.initial_coefficients(o.param_dim)
        theta0 = np.zeros(o.param_dim)
        with pytest.raises(ValueError, match="train dataset"):
            integrate_forward(o, theta0, coeffs, config.eps,
                              spoiled(data.z_train), data.z_dith, config.grid)
        traj = integrate_forward(o, theta0, coeffs, config.eps, data.z_train,
                                 data.z_dith, config.grid)
        with pytest.raises(ValueError, match="validation dataset"):
            integrate_adjoint(o, traj, coeffs, config.eps, data.z_train,
                              data.z_dith, spoiled(data.z_val))
        with pytest.raises(ValueError, match="dithered dataset"):
            solve(o, config, replace(data, z_dith=spoiled(data.z_dith)))


class TestDitheredInputs:
    @pytest.mark.parametrize("change", ["value", "rows"])
    def test_integrations_and_solve_reject_other_inputs(self, change):
        # the dithered set must hold the training inputs, perturbed targets
        o, data = linear_problem(seed=34)
        config = SolverConfig(eps=0.1, t_final=1.0, steps=10,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=5.0, max_iters=2)
        zd = data.z_dith
        if change == "value":
            x = zd.x.copy()
            x[0, 0] = np.nextafter(x[0, 0], np.inf)
            other = Dataset(x, zd.y, "dithered")
        else:
            other = Dataset(zd.x[1:], zd.y[1:], "dithered")
        coeffs = config.initial_coefficients(o.param_dim)
        theta0 = np.zeros(o.param_dim)
        match = "dithered dataset's inputs differ"
        with pytest.raises(ValueError, match=match):
            integrate_forward(o, theta0, coeffs, config.eps, data.z_train,
                              other, config.grid)
        traj = integrate_forward(o, theta0, coeffs, config.eps, data.z_train,
                                 zd, config.grid)
        with pytest.raises(ValueError, match=match):
            integrate_adjoint(o, traj, coeffs, config.eps, data.z_train,
                              other, data.z_val)
        with pytest.raises(ValueError, match=match):
            final_states(o, theta0, coeffs.c[None], config.basis, config.eps,
                         data.z_train, other, config.grid)
        with pytest.raises(ValueError, match=match):
            solve(o, config, replace(data, z_dith=other))


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts the solver's forward integrations, divergent ones included."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return integrate_forward(*args, **kwargs)

    monkeypatch.setattr(sga, "integrate_forward", counted)
    return calls


def armijo_trials(report, config):
    """Trial steps the line search took, read off the iteration records."""
    n = 0
    for rec in report.iterations:
        if rec.gamma > 0.0:
            n += round(np.log2(config.gamma0 / rec.gamma)) + 1
        elif rec.grad_norm > config.eps_tol:
            n += sga.MAX_BACKTRACKS + 1
    return n


def assert_final_state_is_fresh(o, config, data, report):
    traj = integrate_forward(o, config.initial_theta(o.param_dim),
                             report.final_coeffs, config.eps, data.z_train,
                             data.z_dith, config.grid)
    np.testing.assert_array_equal(report.theta_star, traj.theta_final)
    assert report.final_cost == phi_value(o, traj.theta_final, data.z_val)


def divergent_trial_problem():
    # the first full step (gamma0 = 1) drives the flow past the divergence
    # bound (t = 0.045)
    z1, zd, zv = quadratic_datasets(1)
    data = ProblemData(z1, zd, Dataset(zv.x, [50.0], "validation"))
    o = ModelOracle("linear_features", 1)
    config = quad_config(steps=50, n=4, eps=1.0, u_max=1e4, gamma0=1.0)
    return o, config, data


class TestForwardReuse:
    def test_one_forward_integration_per_trial_without_backtracks(
            self, quad1_problem, forward_calls):
        o, data = quad1_problem
        config = quad_config(steps=100, max_iters=5)
        report = solve(o, config, data)
        assert report.stop_reason == "max_iters"
        assert all(rec.gamma == config.gamma0 for rec in report.iterations)
        assert forward_calls[0] == 1 + len(report.iterations)
        assert_final_state_is_fresh(o, config, data, report)

    def test_one_forward_integration_per_trial_with_backtracks(
            self, forward_calls):
        o, config, data = divergent_trial_problem()
        report = solve(o, config, data)
        assert report.iterations[0].gamma < config.gamma0
        assert forward_calls[0] == 1 + armijo_trials(report, config)

    def test_line_search_failure_keeps_the_sweeps_trajectory(
            self, quad1_problem, forward_calls, monkeypatch):
        o, data = quad1_problem
        monkeypatch.setattr(sga, "ARMIJO_C", 1e30)
        config = quad_config(steps=100, max_iters=5)
        report = solve(o, config, data)
        assert report.stop_reason == "line_search_failure"
        assert len(report.iterations) == 1
        assert forward_calls[0] == 1 + sga.MAX_BACKTRACKS + 1
        assert_final_state_is_fresh(o, config, data, report)


class TestPointwiseMaxControl:
    def test_sign_rule(self):
        # D = diag(1,4) via gradient [1,-2] on the dithered set at theta=0
        x = np.eye(2)
        zd = Dataset(x, [-1.0, 2.0], "dithered")
        o = ModelOracle("linear_features", 2)
        u = pointwise_max_control(o, np.zeros(2), np.array([1.0, -1.0]),
                                  0.1, 2.0, zd)
        np.testing.assert_array_equal(u, [2.0, -2.0])

    def test_zero_costate_gives_zero_control(self):
        o, data = linear_problem()
        u = pointwise_max_control(o, np.zeros(o.param_dim),
                                  np.zeros(o.param_dim), 0.1, 2.0,
                                  data.z_dith)
        np.testing.assert_array_equal(u, np.zeros(o.param_dim))

    def test_dominates_box_corners(self):
        o, data = linear_problem(seed=40)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(o.param_dim)
        p = rng.standard_normal(o.param_dim)
        eps, u_max = 0.2, 1.5
        u_star = pointwise_max_control(o, theta, p, eps, u_max, data.z_dith)
        h_star = hamiltonian(o, theta, p, u_star, eps, data.z_train,
                             data.z_dith)
        # the maximizer of an affine function over a box is at a corner
        for corner in range(2**o.param_dim):
            v = u_max * np.array([1.0 if corner >> i & 1 else -1.0
                                  for i in range(o.param_dim)])
            hv = hamiltonian(o, theta, p, v, eps, data.z_train, data.z_dith)
            assert h_star >= hv - 1e-12


class TestSolverConfig:
    def test_invalid_values_rejected(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=2.0, t_final=1.0, steps=10, basis=basis,
                         u_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, t_final=1.0, steps=10, basis=basis,
                         u_max=1.0, gamma0=1.5)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, t_final=1.0, steps=10, basis=basis,
                         u_max=1.0, eps_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, t_final=2.0, steps=10, basis=basis,
                         u_max=1.0)
