import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, ProblemData, cli, dynamics, sga
from sgaflow.basis import (BasisSpec, control_grid_max, eval_basis_grid,
                           project_admissible)
from sgaflow import model
from sgaflow.dynamics import (AdjointTrajectory, integrate_adjoint,
                              integrate_forward)
from sgaflow.model import loss_gradient, phi_value
from sgaflow.sga import (SolverConfig, backward, coefficient_gradient, cost,
                         forward, solve, sweep)
from sgaflow.verify import CheckProblem, check_coefficient_gradient, probes

from conftest import (fd_gradient, linear_problem, mlp_check_problem,
                      mlp_problem, quadratic_datasets, warnings_as_errors)

ROOT = Path(__file__).resolve().parents[1]


def quad_config(p=1, steps=200, n=2, eps=0.1, u_max=5.0, **kw):
    basis = BasisSpec("legendre_shifted", n, 1.0)
    return SolverConfig(eps=eps, steps=steps, basis=basis,
                        u_max=u_max, theta0=np.ones(p), **kw)


@pytest.fixture
def quad1_problem():
    z1, zd, zv = quadratic_datasets(1)
    return ModelOracle("linear_features", 1), ProblemData(z1, zd, zv)


class TestCost:
    def test_closed_form_null_control(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=100)
        j = cost(o, np.zeros((1, 2)), config, data)
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
        coeffs = np.zeros((o.param_dim, config.basis.n))
        assert cost(o, coeffs, config, data) == pytest.approx(0.0,
                                                              abs=1e-20)

    def test_invariant_to_u_max_when_control_off(self, quad1_problem):
        o, data = quad1_problem
        costs = []
        for u_max in (1.0, 5.0, 50.0):
            config = quad_config(u_max=u_max)
            costs.append(cost(o, np.zeros((1, 2)), config, data))
        assert costs[0] == costs[1] == costs[2]


def quad_trajectory(o, data, eps):
    """The flow from theta0 = 1 under a fixed control on a 10-step grid;
    grad J~0 = theta stays away from zero along it."""
    config = quad_config(steps=10, eps=eps)
    return forward(o, np.array([[0.5, -0.3]]), config, data)


class TestCoefficientGradient:
    def test_zero_costate_gives_zero(self, quad1_problem):
        traj = quad_trajectory(*quad1_problem, 0.1)
        g = coefficient_gradient(AdjointTrajectory(traj, np.zeros((21, 1))))
        np.testing.assert_array_equal(g, np.zeros((1, 2)))

    def test_scales_linearly_in_eps(self, quad1_problem):
        # eps is read off the forward trajectory
        traj = quad_trajectory(*quad1_problem, 0.5)
        ones = np.ones((21, 1))
        g = coefficient_gradient(AdjointTrajectory(traj, ones))
        small = coefficient_gradient(
            AdjointTrajectory(replace(traj, eps=0.05), ones))
        assert np.all(g != 0.0)
        np.testing.assert_allclose(g, 10.0 * small, rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences_quadratic(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=400, n=2)
        rng = np.random.default_rng(1)
        coeffs = project_admissible(rng.uniform(-0.5, 0.5, (1, 2)),
                                    config.basis, config.u_max,
                                    config.projection_grid)
        _, _, grad = sweep(o, coeffs, config, data)
        fd = fd_gradient(
            lambda cv: cost(o, cv.reshape(1, 2), config, data),
            coeffs.ravel(), 1e-5).reshape(1, 2)
        assert np.max(np.abs(-grad - fd)) / np.max(np.abs(fd)) <= 1e-5

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_per_state_loop_bitwise(self, family):
        o, config, data = sweep_problem(family)
        coeffs = np.random.default_rng(9).uniform(-1.0, 1.0,
                                                  (o.param_dim, 3))
        traj, adj, g = sweep(o, coeffs, config, data)

        # Simpson over the half steps i, at the times i*(h/2)
        grid = config.grid
        rows = 2 * grid.steps + 1
        f = np.empty((rows, o.param_dim))
        for i in range(rows):
            gt = loss_gradient(o, traj.theta_fine[2 * i], data.z_dith)
            f[i] = config.eps * adj.p_half[i] * (gt * gt)
        w = np.array([1.0] + [4.0, 2.0] * (grid.steps - 1) + [4.0, 1.0])
        psi = eval_basis_grid(config.basis,
                              np.arange(rows) * (0.5 * grid.h))
        expect = (f * ((grid.h / 6.0) * w)[:, None]).T @ psi
        np.testing.assert_array_equal(g, expect)
        assert np.all(g != 0.0)


def sweep_problem(family):
    """A problem of the family with a 20-step solver config started from a
    seeded random theta0 of scale 0.5."""
    if family == "linear":
        o, data = linear_problem(d=3, seed=25)
    else:
        o, data = mlp_problem(d=2, seed=24)
    config = SolverConfig(
        eps=0.3, steps=20,
        basis=BasisSpec("legendre_shifted", 3, 1.0), u_max=5.0,
        theta0=0.5 * np.random.default_rng(9).standard_normal(o.param_dim))
    return o, config, data


def count_flow_plans(monkeypatch):
    """Patch dynamics.flow_plan so that every plan it builds records the
    states of its grads and hessians calls; returns the two lists."""
    calls = {"grads": [], "hessians": []}

    class Counted:
        def __init__(self, plan):
            self.plan = plan

        def grads(self, theta):
            calls["grads"].append(theta)
            return self.plan.grads(theta)

        def hessians(self, theta):
            calls["hessians"].append(theta)
            return self.plan.hessians(theta)

    def counted_flow(oracle, z1, zd, orig=dynamics.flow_plan):
        return Counted(orig(oracle, z1, zd))

    monkeypatch.setattr(dynamics, "flow_plan", counted_flow)
    return calls["grads"], calls["hessians"]


class TestSweep:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_takes_dithered_gradient_once_per_state(self, family,
                                                    monkeypatch):
        # the forward pass takes grad J~0 at every RK4 stage and keeps the
        # first stage's at each of the 4M+1 states (one more call at the
        # final state); the backward pass along that trajectory reads it
        # there, and builds no dithered loss plan and makes no gradient call
        built = []
        grads, _ = count_flow_plans(monkeypatch)

        def counted(oracle, z, orig=model.loss_plan):
            built.append(z.tag)
            return orig(oracle, z)

        monkeypatch.setattr(model, "loss_plan", counted)
        o, config, data = sweep_problem(family)
        coeffs = config.initial_coefficients(o.param_dim)
        traj = forward(o, coeffs, config, data)
        assert len(grads) == 16 * config.steps + 1
        grads.clear()
        backward(o, traj, data.z_val)
        assert grads == []
        assert built == ["validation"]   # p(T) = -grad Phi

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_forms_costate_matrix_once_per_forward_state(self, family,
                                                         monkeypatch):
        # the forward pass forms no Hessian; the backward pass forms K at
        # each of the 4M+1 forward states once, in at most M+1 stacked
        # calls taken from the last grid step back, and its 8M stages each
        # take one K p
        _, hessians = count_flow_plans(monkeypatch)
        rhs = []

        def counted_rhs(k, p, orig=dynamics.adjoint_rhs):
            rhs.append(k)
            return orig(k, p)

        monkeypatch.setattr(dynamics, "adjoint_rhs", counted_rhs)
        o, config, data = sweep_problem(family)
        coeffs = config.initial_coefficients(o.param_dim)
        traj = forward(o, coeffs, config, data)
        assert hessians == []
        backward(o, traj, data.z_val)
        m = config.steps
        assert len(hessians) <= m + 1
        # the blocks, last first, each in state order: read back to front,
        # they are the trajectory's states, each once
        np.testing.assert_array_equal(np.concatenate(hessians[::-1]),
                                      traj.theta_fine)
        assert len(rhs) == 8 * m
        # k1 of a step and k4 of the step before it share a matrix, and so
        # do k2 and k3
        assert all(rhs[i] is rhs[i - 1] for i in range(4, 8 * m, 4))
        assert all(rhs[i + 1] is rhs[i + 2] for i in range(0, 8 * m, 4))


    def test_evaluates_psi_once_per_stage_time(self, monkeypatch):
        # the forward pass reads Psi at the 8M+1 times i*h/8 and builds one
        # flow plan; the backward pass and G read both off its trajectory
        rows, plans = [], []

        def counted(basis, ts, orig=dynamics.eval_basis_grid):
            rows.append(len(ts))
            return orig(basis, ts)

        def counted_flow(oracle, z1, zd, orig=dynamics.flow_plan):
            plans.append((z1.tag, zd.tag))
            return orig(oracle, z1, zd)

        monkeypatch.setattr(dynamics, "eval_basis_grid", counted)
        monkeypatch.setattr(dynamics, "flow_plan", counted_flow)
        o, config, data = sweep_problem("linear")
        coeffs = config.initial_coefficients(o.param_dim)
        traj = sweep(o, coeffs, config, data)[0]
        m = config.steps
        assert rows == [8 * m + 1]
        assert plans == [("train", "dithered")]
        rows.clear()
        plans.clear()
        backward(o, traj, data.z_val)
        assert rows == plans == []
        cost(o, np.stack([coeffs] * 3), config, data)
        assert rows == [8 * m + 1]


class TestSweeps:
    """Stacked passes: a forward stack, its costs, and backward over a
    slice of its members."""

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_members_equal_sweep_bitwise(self, family):
        # configs/linear.json and criterion 3's mlp problem at the
        # coefficient check's probes: backward over the first b members of
        # a forward stack of 4 gives each member's sweep costate and G, bit
        # for bit
        o, config, data = (linear_json_problem() if family == "linear"
                           else mlp_check_problem(seed=61, steps=200,
                                                  n_basis=3))
        ps = probes(o, config, 4)
        serial = [sweep(o, c, config, data)[1:] for c in ps[:3]]
        traj = forward(o, ps, config, data)
        for b in (1, 3):
            adj, gs = backward(o, replace(
                traj, theta_fine=traj.theta_fine[:, :b],
                gt_fine=traj.gt_fine[:, :b], c=traj.c[:b]), data.z_val)
            assert gs.shape == (b, o.param_dim, config.basis.n)
            assert adj.p_half.shape[1] == b
            for i, (want_adj, want_g) in enumerate(serial[:b]):
                np.testing.assert_array_equal(gs[i], want_g)
                np.testing.assert_array_equal(adj.p_half[:, i],
                                              want_adj.p_half)

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_rejected_as_one_c_is(self, b, bad):
        # configs/linear.json: a nan or inf in a stack's last member ran
        # into the flow and ended as DivergenceError at t=0.00125
        o, config, data = linear_json_problem()
        cs = probes(o, config, b)
        cs[-1, 0, 0] = bad
        for run in (cost, forward):
            with pytest.raises(ValueError, match="C has non-finite entries"):
                run(o, cs, config, data)
        with pytest.raises(ValueError, match="C has non-finite entries"):
            forward(o, cs[-1], config, data)

    def test_cost_of_one_c_is_a_float_of_a_stack_an_array(self):
        # configs/linear.json at the probes: one (p, n) C gives a float,
        # phi_value at forward's final state bit for bit, a (B, p, n) stack
        # an array of its members' own costs, and any other shape is
        # refused, naming it
        o, config, data = linear_json_problem()
        cs = probes(o, config, 3)
        p, n = cs.shape[1:]
        j = cost(o, cs[0], config, data)
        assert type(j) is float
        assert j == phi_value(o, forward(o, cs[0], config, data).theta_final,
                              data.z_val)
        js = cost(o, cs, config, data)
        assert isinstance(js, np.ndarray) and js.shape == (3,)
        assert js.tolist() == [cost(o, c, config, data) for c in cs]
        bad = cs[None]
        msg = re.escape(f"C has shape {bad.shape}, expected ({p}, {n}) or a "
                        f"(B, {p}, {n}) stack")
        with pytest.raises(ValueError, match=msg):
            cost(o, bad, config, data)


def linear_json_problem():
    """configs/linear.json, as `sgaflow run` solves it."""
    cfg = cli.load_config(ROOT / "configs" / "linear.json")
    data = cli.build_data(cfg["data"])
    return (cli.build_oracle(cfg["model"], data.z_train.d),
            cli.build_solver_config(cfg), data)


def one_step(o, coeffs, config, data):
    """One solver iteration from coeffs: (new coefficients, its record)."""
    report = solve(o, replace(config, c0=coeffs, max_iters=1), data)
    return report.final_coeffs, report.iterations[0]


class TestStep:
    def test_zero_gradient_is_fixed_point(self):
        # theta0 = 0 is stationary for J0 and zero-residual for Phi
        z1, zd, zv = quadratic_datasets(1)
        o = ModelOracle("linear_features", 1)
        data = ProblemData(z1, zd, zv)
        config = replace(quad_config(steps=50), theta0=np.zeros(1))
        coeffs = np.zeros((1, 2))
        new, rec = one_step(o, coeffs, config, data)
        np.testing.assert_array_equal(new, coeffs)
        assert rec.grad_norm == 0.0

    def test_backtracking_never_increases_cost(self):
        o, data = linear_problem(seed=21)
        config = SolverConfig(eps=0.1, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            coeffs = project_admissible(rng.uniform(-1, 1, (o.param_dim, 3)),
                                        config.basis, config.u_max,
                                        config.projection_grid)
            j0 = cost(o, coeffs, config, data)
            new, rec = one_step(o, coeffs, config, data)
            assert cost(o, new, config, data) <= j0

    def test_projection_triggers_only_beyond_bound(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=50, u_max=1e6, gamma0=1.0)
        _, rec = one_step(o, np.zeros((1, 2)), config, data)
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
        j_null = cost(o, np.zeros((1, 2)), config, data)
        assert report.iterations[0].grad_norm > config.eps_tol
        assert report.final_cost < j_null

    def test_cost_sequence_monotone(self):
        o, data = linear_problem(seed=30)
        config = SolverConfig(eps=0.1, steps=100,
                              basis=BasisSpec("legendre_shifted", 4, 1.0),
                              u_max=5.0, max_iters=15)
        report = solve(o, config, data)
        costs = [r.cost for r in report.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_divergent_trial_step_backtracks(self):
        # the line search must halve a divergent step rather than abort
        o, config, data = divergent_trial_problem()
        report = solve(o, config, data)
        j_null = cost(o, np.zeros((1, config.basis.n)), config, data)
        assert np.isfinite(report.final_cost)
        assert report.final_cost <= j_null
        assert 0.0 < report.iterations[0].gamma < config.gamma0

    def test_divergent_trial_step_warns_nothing(self):
        # the trial flow runs past the bound to its grid step's end before
        # the guard stops it; no overflow there may reach the caller
        o, config, data = divergent_trial_problem()
        with warnings_as_errors():
            report = solve(o, config, data)
        assert 0.0 < report.iterations[0].gamma < config.gamma0

    def test_every_iterate_admissible(self):
        o, data = linear_problem(seed=31)
        config = SolverConfig(eps=0.5, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=0.05, max_iters=10, gamma0=1.0)
        report = solve(o, config, data)
        gmax = control_grid_max(report.final_coeffs, config.basis,
                                config.projection_grid)
        assert np.all(gmax <= config.u_max * (1 + 1e-12))

    def test_identical_runs_are_bitwise_equal(self):
        o, data = linear_problem(seed=32)
        config = SolverConfig(eps=0.1, steps=50,
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
                                 config.basis, config.eps,
                                 data.z_train, data.z_dith, config.grid)
        np.testing.assert_array_equal(report.theta_star, traj.theta_final)


class TestNonFiniteData:
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_integrations_and_solve_reject_it(self, where, bad):
        o, data = linear_problem(seed=33)
        config = SolverConfig(eps=0.1, steps=10,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=5.0, max_iters=2)

        def spoiled(z):
            x, y = z.x.copy(), z.y.copy()
            (x if where == "x" else y)[0, ...] = bad
            return Dataset(x, y, z.tag)

        coeffs = config.initial_coefficients(o.param_dim)
        theta0 = np.zeros(o.param_dim)
        with pytest.raises(ValueError, match="train dataset"):
            integrate_forward(o, theta0, coeffs, config.basis, config.eps,
                              spoiled(data.z_train), data.z_dith, config.grid)
        traj = integrate_forward(o, theta0, coeffs, config.basis,
                                 config.eps, data.z_train, data.z_dith,
                                 config.grid)
        with pytest.raises(ValueError, match="validation dataset"):
            integrate_adjoint(o, traj, spoiled(data.z_val))
        with pytest.raises(ValueError, match="dithered dataset"):
            solve(o, config, replace(data, z_dith=spoiled(data.z_dith)))


class TestDitheredInputs:
    @pytest.mark.parametrize("change", ["value", "rows"])
    def test_integrations_and_solve_reject_other_inputs(self, change):
        # the dithered set must hold the training inputs, perturbed targets
        o, data = linear_problem(seed=34)
        config = SolverConfig(eps=0.1, steps=10,
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
            integrate_forward(o, theta0, coeffs, config.basis, config.eps,
                              data.z_train, other, config.grid)
        with pytest.raises(ValueError, match=match):
            integrate_forward(o, theta0, coeffs[None], config.basis,
                              config.eps, data.z_train, other, config.grid)
        with pytest.raises(ValueError, match=match):
            solve(o, config, replace(data, z_dith=other))


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts the solver's forward integrations, divergent ones included,
    in [0], and its adjoint integrations in [1]."""
    calls = [0, 0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return integrate_forward(*args, **kwargs)

    def counted_adjoint(*args, **kwargs):
        calls[1] += 1
        return integrate_adjoint(*args, **kwargs)

    monkeypatch.setattr(sga, "integrate_forward", counted)
    monkeypatch.setattr(sga, "integrate_adjoint", counted_adjoint)
    return calls


def test_one_forward_entry_per_pass(forward_calls):
    # forward and cost each integrate once, a stack included, and so does
    # the coefficient check: its probes and their flows are one stack
    o, config, data = sweep_problem("linear")
    cs = probes(o, config, 3)
    for run, c in ((forward, cs[0]), (forward, cs), (cost, cs[0]),
                   (cost, cs)):
        forward_calls[0] = 0
        run(o, c, config, data)
        assert forward_calls[0] == 1
    forward_calls[0] = 0
    check_coefficient_gradient(CheckProblem(o, config, data))
    assert forward_calls[0] == 1


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
                             report.final_coeffs, config.basis,
                             config.eps, data.z_train, data.z_dith,
                             config.grid)
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
        assert forward_calls == [1 + len(report.iterations),
                                 len(report.iterations)]
        assert_final_state_is_fresh(o, config, data, report)

    def test_one_forward_integration_per_trial_with_backtracks(
            self, forward_calls):
        o, config, data = divergent_trial_problem()
        report = solve(o, config, data)
        assert report.iterations[0].gamma < config.gamma0
        assert forward_calls == [1 + armijo_trials(report, config),
                                 len(report.iterations)]

    def test_line_search_failure_keeps_the_sweeps_trajectory(
            self, quad1_problem, forward_calls, monkeypatch):
        o, data = quad1_problem
        monkeypatch.setattr(sga, "ARMIJO_C", 1e30)
        config = quad_config(steps=100, max_iters=5)
        report = solve(o, config, data)
        assert report.stop_reason == "line_search_failure"
        assert len(report.iterations) == 1
        assert forward_calls == [1 + sga.MAX_BACKTRACKS + 1, 1]
        assert_final_state_is_fresh(o, config, data, report)


class TestSolverConfig:
    def test_invalid_values_rejected(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=2.0, steps=10, basis=basis,
                         u_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, steps=10, basis=basis,
                         u_max=1.0, gamma0=1.5)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, steps=10, basis=basis,
                         u_max=1.0, eps_tol=0.0)
        with pytest.raises(ValueError, match="steps"):
            SolverConfig(eps=0.1, steps=0, basis=basis,
                         u_max=1.0)

    @pytest.mark.parametrize("kw,match", [
        ({"max_iters": 0}, "max_iters must be >= 1"),
        ({"u_max": -1.0}, "u_max must be >= 0")])
    def test_counts_and_bound_rejected(self, kw, match):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match=match):
            SolverConfig(**{"eps": 0.1, "steps": 10, "basis": basis,
                            "u_max": 1.0, **kw})

    @pytest.mark.parametrize("rows", [1, 3])
    def test_c0_of_other_row_count_rejected(self, rows):
        config = quad_config(p=2, c0=np.zeros((rows, 2)))
        with pytest.raises(ValueError, match=f"c0 has {rows} rows, "
                                             f"expected 2"):
            config.initial_coefficients(2)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_c0_of_other_column_count_rejected(self, cols):
        config = quad_config(p=2, c0=np.zeros((2, cols)))
        with pytest.raises(ValueError, match=re.escape(
                f"c0 has shape (2, {cols}), expected (2, 2)")):
            config.initial_coefficients(2)

    def test_c0_of_three_axes_rejected(self):
        # p = n = 2: a (2, 2, 2) c0 has p rows and n columns, but is no C
        config = quad_config(p=2, c0=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=re.escape(
                "c0 has shape (2, 2, 2), expected (2, 2)")):
            config.initial_coefficients(2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_c0_with_non_finite_entry_rejected(self, bad):
        config = quad_config(c0=[[0.0, bad]])
        with pytest.raises(ValueError, match="c0: C has non-finite"):
            config.initial_coefficients(1)

    def test_initial_coefficients_are_a_copy_of_c0(self):
        c0 = np.array([[0.5, -0.25]])
        config = quad_config(c0=c0)
        c = config.initial_coefficients(1)
        c0[0, 0] = 3.0
        np.testing.assert_array_equal(c, [[0.5, -0.25]])
        c[0, 1] = 2.0
        np.testing.assert_array_equal(config.initial_coefficients(1),
                                      [[3.0, -0.25]])
