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
from sgaflow.dynamics import (AdjointTrajectory, TimeGrid, Trajectory,
                              integrate_adjoint, integrate_forward)
from sgaflow.model import flow_plan, loss_gradient, loss_value
from sgaflow.sga import (Problem, SolverConfig, backward, coefficient_gradient,
                         cost, forward, solve, sweep)
from sgaflow.verify import check_coefficient_gradient, probes

from conftest import (fd_gradient, linear_problem, mlp_check_problem,
                      mlp_problem, p24_linear_cfg, quadratic_datasets,
                      warnings_as_errors)

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
        j = cost(Problem(o, config, data), np.zeros((1, 2)))
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
        assert cost(Problem(o, config, data), coeffs) == pytest.approx(
            0.0, abs=1e-20)

    def test_invariant_to_u_max_when_control_off(self, quad1_problem):
        o, data = quad1_problem
        costs = []
        for u_max in (1.0, 5.0, 50.0):
            config = quad_config(u_max=u_max)
            costs.append(cost(Problem(o, config, data), np.zeros((1, 2))))
        assert costs[0] == costs[1] == costs[2]


def quad_trajectory(o, data, eps):
    """The flow from theta0 = 1 under a fixed control on a 10-step grid;
    grad J~0 = theta stays away from zero along it."""
    return forward(Problem(o, quad_config(steps=10, eps=eps), data),
                   np.array([[0.5, -0.3]]))


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
        problem = Problem(o, config, data)
        fd = fd_gradient(lambda cv: cost(problem, cv.reshape(1, 2)),
                         coeffs.ravel(), 1e-5).reshape(1, 2)
        assert np.max(np.abs(-grad - fd)) / np.max(np.abs(fd)) <= 1e-5

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_per_state_loop_bitwise(self, family):
        o, config, data = sweep_problem(family)
        coeffs = np.random.default_rng(9).uniform(-1.0, 1.0,
                                                  (o.param_dim, 3))
        traj, adj, g = sweep(o, coeffs, config, data)

        # the rule's weights over the half steps i, at the times i*(h/2),
        # each state's integrand and Psi formed on its own
        grid = traj.grid
        rows = 2 * grid.steps + 1
        f = np.empty((rows, o.param_dim))
        for i in range(rows):
            gt = loss_gradient(o, traj.theta_fine[2 * i], data.z_dith)
            f[i] = config.eps * adj.p_half[i] * (gt * gt)
        psi = eval_basis_grid(config.basis,
                              np.arange(rows) * (0.5 * grid.h))
        expect = (f * rule_weights(grid.steps)[:, None]).T @ psi
        np.testing.assert_array_equal(g, expect)
        assert np.all(g != 0.0)

    @pytest.mark.parametrize("steps, degree", [
        (1, 3), (2, 5), (3, 7), (4, 7), (25, 7), (200, 7)])
    def test_rule_integrates_powers_exactly(self, steps, degree):
        # against int_0^T t^i dt = T^(i+1) / (i+1): 2 * steps half-step
        # intervals give degree 3 at 2, 5 at 4 and 7 from 6 on, and on the
        # fewest intervals of each degree the next power is missed
        t_final = 1.7
        w = rule_weights(steps, t_final)
        t = np.arange(2 * steps + 1) * (0.5 * t_final / steps)
        for i in range(degree + 2):
            exact = t_final ** (i + 1) / (i + 1)
            if i <= degree:
                assert w @ t**i == pytest.approx(exact, rel=1e-14, abs=0.0)
            elif steps <= 3:
                assert abs(w @ t**i - exact) > 1e-5 * exact

    def test_weights_symmetric_and_positive(self):
        # each at least 0.19 of the half step, the least (0.193) at 6
        # intervals; no correction reaches past 6 intervals from an end
        for steps in [*range(1, 41), 100, 200]:
            w = rule_weights(steps) / (0.5 / steps)
            np.testing.assert_array_equal(w, w[::-1])
            assert w.min() >= 0.19
            np.testing.assert_allclose(w[7:-7], 1.0, rtol=1e-14)

    def test_weights_built_once_per_step_count_read_only(self):
        # G at 40 steps reads the 81 weights built at its first call, and a
        # weight cannot be changed under a later G
        w = sga._gregory(80)
        assert sga._gregory(80) is w and w.shape == (81,)
        assert not w.flags.writeable
        np.testing.assert_array_equal(rule_weights(40), (0.5 / 40) * w)

    def test_one_step_is_simpsons_rule(self):
        h = 1.7
        np.testing.assert_allclose(rule_weights(1, h),
                                   (h / 6.0) * np.array([1.0, 4.0, 1.0]),
                                   rtol=1e-15, atol=0.0)


def rule_weights(steps, t_final=1.0):
    """The weights coefficient_gradient integrates with on a steps-step
    grid over [0, t_final], one per half-step row: its G for p_half = I,
    with eps, D and Psi all 1."""
    rows = 2 * steps + 1
    ones = np.ones((4 * steps + 1, rows))
    traj = Trajectory(TimeGrid(t_final, steps), ones, ones,
                      np.zeros((rows, 1)), 1.0, None,
                      np.ones((8 * steps + 1, 1)))
    return coefficient_gradient(AdjointTrajectory(traj, np.eye(rows)))[:, 0]


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
    """Patch sga.flow_plan so that every plan a Problem builds records the
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

    def counted_flow(oracle, z1, zd, orig=sga.flow_plan):
        return Counted(orig(oracle, z1, zd))

    monkeypatch.setattr(sga, "flow_plan", counted_flow)
    return calls["grads"], calls["hessians"]


class TestSweep:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_takes_dithered_gradient_once_per_state(self, family,
                                                    monkeypatch):
        # the forward pass takes grad J~0 at every RK4 stage and keeps the
        # first stage's at each of the 4M+1 states (one more call at the
        # final state); the backward pass along that trajectory reads it
        # there, and builds no loss plan and makes no gradient call: p(T)
        # = -grad Phi reads the problem's validation plan
        built = []
        grads, _ = count_flow_plans(monkeypatch)

        def counted(oracle, z, orig=model.loss_plan):
            built.append(z.tag)
            return orig(oracle, z)

        monkeypatch.setattr(model, "loss_plan", counted)
        o, config, data = sweep_problem(family)
        problem = Problem(o, config, data)
        coeffs = config.initial_coefficients(o.param_dim)
        traj = forward(problem, coeffs)
        assert len(grads) == 16 * config.steps + 1
        grads.clear()
        backward(problem, traj)
        assert grads == []
        assert built == []

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
        problem = Problem(o, config, data)
        coeffs = config.initial_coefficients(o.param_dim)
        traj = forward(problem, coeffs)
        assert hessians == []
        backward(problem, traj)
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
        # the forward pass reads Psi at the 8M+1 times i*h/8 and runs on
        # the flow plan its problem built once; the backward pass and G
        # read both off its trajectory
        rows, plans = [], []

        def counted(basis, ts, orig=dynamics.eval_basis_grid):
            rows.append(len(ts))
            return orig(basis, ts)

        def counted_flow(oracle, z1, zd, orig=sga.flow_plan):
            plans.append((z1.tag, zd.tag))
            return orig(oracle, z1, zd)

        monkeypatch.setattr(dynamics, "eval_basis_grid", counted)
        monkeypatch.setattr(sga, "flow_plan", counted_flow)
        o, config, data = sweep_problem("linear")
        problem = Problem(o, config, data)
        assert plans == [("train", "dithered")]
        plans.clear()
        coeffs = config.initial_coefficients(o.param_dim)
        traj = forward(problem, coeffs)
        m = config.steps
        assert rows == [8 * m + 1]
        rows.clear()
        backward(problem, traj)
        assert rows == []
        cost(problem, np.stack([coeffs] * 3))
        assert rows == [8 * m + 1]
        assert plans == []


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
        problem = Problem(o, config, data)
        traj = forward(problem, ps)
        for b in (1, 3):
            adj, gs = backward(problem, replace(
                traj, theta_fine=traj.theta_fine[:, :b],
                gt_fine=traj.gt_fine[:, :b], c=traj.c[:b]))
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
        problem = Problem(o, config, data)
        cs = probes(o, config, b)
        cs[-1, 0, 0] = bad
        for run in (cost, forward):
            with pytest.raises(ValueError, match="C has non-finite entries"):
                run(problem, cs)
        with pytest.raises(ValueError, match="C has non-finite entries"):
            forward(problem, cs[-1])

    def test_cost_of_one_c_is_a_float_of_a_stack_an_array(self):
        # configs/linear.json at the probes: one (p, n) C gives a float,
        # loss_value on z_val at forward's final state bit for bit, a
        # (B, p, n) stack an array of its members' own costs, and any other
        # shape is refused, naming it
        o, config, data = linear_json_problem()
        problem = Problem(o, config, data)
        cs = probes(o, config, 3)
        p, n = cs.shape[1:]
        j = cost(problem, cs[0])
        assert type(j) is float
        assert j == loss_value(o, forward(problem, cs[0]).theta_final,
                               data.z_val)
        js = cost(problem, cs)
        assert isinstance(js, np.ndarray) and js.shape == (3,)
        assert js.tolist() == [cost(problem, c) for c in cs]
        bad = cs[None]
        msg = re.escape(f"C has shape {bad.shape}, expected ({p}, {n}) or a "
                        f"(B, {p}, {n}) stack")
        with pytest.raises(ValueError, match=msg):
            cost(problem, bad)


def config_problem(cfg):
    """The config dict cfg, as `sgaflow run` solves it."""
    data = cli.build_data(cfg["data"])
    return (cli.build_oracle(cfg["model"], data.z_train.d),
            cli.build_solver_config(cfg), data)


def linear_json_problem():
    """configs/linear.json, as `sgaflow run` solves it."""
    return config_problem(cli.load_config(ROOT / "configs" / "linear.json"))


def one_step(o, coeffs, config, data):
    """One solver iteration from coeffs: (new coefficients, its record)."""
    report = solve(Problem(o, replace(config, c0=coeffs, max_iters=1), data))
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
        problem = Problem(o, config, data)
        rng = np.random.default_rng(2)
        for _ in range(3):
            coeffs = project_admissible(rng.uniform(-1, 1, (o.param_dim, 3)),
                                        config.basis, config.u_max,
                                        config.projection_grid)
            j0 = cost(problem, coeffs)
            new, rec = one_step(o, coeffs, config, data)
            assert cost(problem, new) <= j0

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
        report = solve(Problem(o, config, data))
        assert report.converged
        assert report.stop_reason == "tolerance"
        assert len(report.iterations) == 1
        assert report.iterations[0].grad_norm == 0.0

    def test_strict_improvement_on_quadratic(self, quad1_problem):
        o, data = quad1_problem
        config = quad_config(steps=200, n=2, eps=0.1, u_max=5.0,
                             max_iters=30)
        report = solve(Problem(o, config, data))
        j_null = cost(Problem(o, config, data), np.zeros((1, 2)))
        assert report.iterations[0].grad_norm > config.eps_tol
        assert report.final_cost < j_null

    def test_cost_sequence_monotone(self):
        o, data = linear_problem(seed=30)
        config = SolverConfig(eps=0.1, steps=100,
                              basis=BasisSpec("legendre_shifted", 4, 1.0),
                              u_max=5.0, max_iters=15)
        report = solve(Problem(o, config, data))
        costs = [r.cost for r in report.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_divergent_trial_step_backtracks(self):
        # the line search must halve a divergent step rather than abort
        o, config, data = divergent_trial_problem()
        report = solve(Problem(o, config, data))
        j_null = cost(Problem(o, config, data), np.zeros((1, config.basis.n)))
        assert np.isfinite(report.final_cost)
        assert report.final_cost <= j_null
        assert 0.0 < report.iterations[0].gamma < config.gamma0

    def test_divergent_trial_step_warns_nothing(self):
        # the trial flow runs past the bound to its grid step's end before
        # the guard stops it; no overflow there may reach the caller
        o, config, data = divergent_trial_problem()
        with warnings_as_errors():
            report = solve(Problem(o, config, data))
        assert 0.0 < report.iterations[0].gamma < config.gamma0

    def test_every_iterate_admissible(self):
        o, data = linear_problem(seed=31)
        config = SolverConfig(eps=0.5, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=0.05, max_iters=10, gamma0=1.0)
        report = solve(Problem(o, config, data))
        gmax = control_grid_max(report.final_coeffs, config.basis,
                                config.projection_grid)
        assert np.all(gmax <= config.u_max * (1 + 1e-12))

    def test_identical_runs_are_bitwise_equal(self):
        o, data = linear_problem(seed=32)
        config = SolverConfig(eps=0.1, steps=50,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0, max_iters=5)
        a = solve(Problem(o, config, data))
        b = solve(Problem(o, config, data))
        assert pickle.dumps(a.to_dict()) == pickle.dumps(b.to_dict())

    def test_theta_star_matches_final_forward_pass(self, quad1_problem):
        o, data = quad1_problem
        problem = Problem(o, quad_config(steps=100, max_iters=5), data)
        report = solve(problem)
        traj = forward(problem, report.final_coeffs)
        np.testing.assert_array_equal(report.theta_star, traj.theta_final)


class TestNonFiniteData:
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_integrations_and_solve_reject_it(self, where, bad):
        # the problem refuses it at construction, before any integration
        # or solve; an adjoint given no validation plan checks its set
        o, data = linear_problem(seed=33)
        config = SolverConfig(eps=0.1, steps=10,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=5.0, max_iters=2)

        def spoiled(z):
            x, y = z.x.copy(), z.y.copy()
            (x if where == "x" else y)[0, ...] = bad
            return Dataset(x, y, z.tag)

        for name in ("z_train", "z_dith", "z_val"):
            with pytest.raises(ValueError, match=getattr(data, name).tag
                               + " dataset holds nan or inf"):
                Problem(o, config, replace(data, **{
                    name: spoiled(getattr(data, name))}))
        traj = forward(Problem(o, config, data),
                       config.initial_coefficients(o.param_dim))
        with pytest.raises(ValueError, match="validation dataset"):
            integrate_adjoint(o, traj, spoiled(data.z_val))


class TestDitheredInputs:
    @pytest.mark.parametrize("change", ["value", "rows"])
    def test_integrations_and_solve_reject_other_inputs(self, change):
        # the dithered set must hold the training inputs, perturbed targets;
        # the problem refuses other inputs before any integration or solve
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
        with pytest.raises(ValueError, match="dithered dataset's inputs "
                                             "differ"):
            Problem(o, config, replace(data, z_dith=other))


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
    problem = Problem(o, config, data)
    cs = probes(o, config, 3)
    for run, c in ((forward, cs[0]), (forward, cs), (cost, cs[0]),
                   (cost, cs)):
        forward_calls[0] = 0
        run(problem, c)
        assert forward_calls[0] == 1
    forward_calls[0] = 0
    check_coefficient_gradient(problem)
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
    traj = integrate_forward(flow_plan(o, data.z_train, data.z_dith),
                             config.initial_theta(o.param_dim),
                             report.final_coeffs, config.basis,
                             config.eps, config.steps)
    np.testing.assert_array_equal(report.theta_star, traj.theta_final)
    assert report.final_cost == loss_value(o, traj.theta_final, data.z_val)


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
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "max_iters"
        assert all(rec.gamma == config.gamma0 for rec in report.iterations)
        # the 25-step level, probed first: the fine flow at C0 and the
        # probe, forward and back, a trial per iteration, whose first reads
        # the probe's G, and the fine forward pass that scores C*
        n = len(report.iterations)
        assert [rec.steps for rec in report.iterations] == [25] * n
        assert forward_calls == [1 + 1 + n + 1, 1 + 1 + n - 1]
        assert_final_state_is_fresh(o, config, data, report)

    def test_one_forward_integration_per_trial_with_backtracks(
            self, forward_calls):
        o, config, data = divergent_trial_problem()
        report = solve(Problem(o, config, data))
        assert report.iterations[0].gamma < config.gamma0
        # the fine flow at C0 and the 25-step probe, which qualifies, forward
        # and back; on the level, the recorded trials of iterations 0 and 1
        # and iteration 2's failed search, unrecorded, every G but the
        # probe's swept; the fine flow and G at C2, where iteration 2's
        # search runs again and is recorded
        n = len(report.iterations)
        assert [r.steps for r in report.iterations] == [25, 25, 50]
        trials = armijo_trials(report, config) + sga.MAX_BACKTRACKS + 1
        assert forward_calls == [1 + 1 + trials + 1, 1 + 1 + (n - 1) + 1]

    def test_line_search_failure_keeps_the_sweeps_trajectory(
            self, quad1_problem, forward_calls, monkeypatch):
        o, data = quad1_problem
        monkeypatch.setattr(sga, "ARMIJO_C", 1e30)
        config = quad_config(steps=100, max_iters=5)
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "line_search_failure"
        assert len(report.iterations) == 1
        assert report.iterations[0].steps == config.steps
        # the fine flow at C0 and the 25-step probe, forward and back; the
        # level's search fails and hands over at C0, where the fine grid's
        # search reads the fine flow and G that solve began with
        trials = sga.MAX_BACKTRACKS + 1
        assert forward_calls == [1 + 1 + trials + trials, 1 + 1]
        assert_final_state_is_fresh(o, config, data, report)


class TestArmijoExits:
    """The line search's exits on divergent_trial_problem: a trial accepted
    after backtracks, and every trial diverging or rejected."""

    def test_only_trial_diverges(self, forward_calls, monkeypatch):
        # with no backtrack the one trial, the full step, diverges: C stays
        # zero and J the null control's
        monkeypatch.setattr(sga, "MAX_BACKTRACKS", 0)
        o, config, data = divergent_trial_problem()
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "line_search_failure"
        assert len(report.iterations) == 1
        rec = report.iterations[0]
        assert (rec.gamma, rec.projected) == (0.0, False)
        np.testing.assert_array_equal(report.final_coeffs,
                                      np.zeros((1, config.basis.n)))
        assert report.final_cost == rec.cost == 2474.054662890339
        # the fine flow at C0, the 25-step probe (which qualifies) and the
        # level's trial; the hand-over at C0 reuses the fine flow and G, and
        # the fine grid's trial diverges too
        assert forward_calls == [1 + 1 + 1 + 1, 1 + 1]
        assert_final_state_is_fresh(o, config, data, report)

    def test_search_fails_after_two_accepted_steps(self):
        o, config, data = divergent_trial_problem()
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "line_search_failure"
        assert [(r.k, r.gamma, r.projected) for r in report.iterations] == [
            (0, 0.0625, False), (1, 0.001953125, False), (2, 0.0, False)]
        costs = [r.cost for r in report.iterations]
        assert costs[0] > costs[1] > costs[2] == report.final_cost
        assert_final_state_is_fresh(o, config, data, report)

    def test_one_validation_plan_per_solve(self, monkeypatch):
        # the 26 trials' costs and the first one all read one plan
        built = []

        def counted(oracle, z, orig=sga.loss_plan):
            built.append(z.tag)
            return orig(oracle, z)

        monkeypatch.setattr(sga, "loss_plan", counted)
        o, config, data = divergent_trial_problem()
        report = solve(Problem(o, config, data))
        assert armijo_trials(report, config) == 26
        assert built == ["validation"]


class TestNestedGrids:
    """solve's level: the coarsest of steps/8, /4 and /2 whose G at C0
    matches the fine grid's to GRAD_TOL, and its hand-over to the fine
    grid."""

    @pytest.mark.parametrize("path, steps", [
        ("configs/linear.json", 25), ("perfbench/configs/mlp.json", 25)])
    def test_shipped_configs_choose_their_level(self, path, steps):
        o, config, data = config_problem(cli.load_config(ROOT / path))
        report = solve(Problem(o, replace(config, max_iters=2), data))
        assert report.stop_reason == "max_iters"
        assert [r.steps for r in report.iterations] == [steps, steps]
        assert report.iterations[0].cost == cost(
            Problem(o, config, data), config.initial_coefficients(o.param_dim))
        assert all(0.0 <= gap < 1e-10 for gap in report.grid_gap)
        assert_final_state_is_fresh(o, config, data, report)

    @pytest.mark.parametrize("path", [
        "configs/linear.json", "perfbench/configs/mlp.json"])
    def test_seed_0_solve_leaves_the_level_within_twice_its_gap(self, path):
        # the level is tested at C0 alone; on the shipped configs' seed-0
        # solves the gap where it is left, after all 30 and 8 iterations,
        # reads 3.437e-11 (linear) and 6.776e-11 (MLP) against 3.444e-11
        # and 6.780e-11 at C0
        o, config, data = config_problem(cli.load_config(ROOT / path))
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "max_iters"
        assert [r.steps for r in report.iterations] == [25] * config.max_iters
        assert 0.0 < report.grid_gap[1] <= 2.0 * report.grid_gap[0]

    def test_p24_degree_3_linear_config_chooses_none(self):
        # its G is off from the fine G by 7.3e-3, 2.4e-4 and 3.6e-6 at 25,
        # 50 and 100 steps
        o, config, data = config_problem(p24_linear_cfg())
        assert o.param_dim == 24
        report = solve(Problem(o, replace(config, max_iters=2), data))
        assert report.grid_gap is None
        assert [r.steps for r in report.iterations] == [200, 200]
        assert "grid_gap" not in report.to_dict()
        assert "steps" not in report.to_dict()["iterations"][0]

    def test_steps_without_exact_divisor_chooses_none(self, quad1_problem,
                                                      forward_calls):
        # no probe runs: the counts are those of a solve on one grid
        o, data = quad1_problem
        config = quad_config(steps=5, max_iters=3)
        report = solve(Problem(o, config, data))
        n = len(report.iterations)
        assert (report.stop_reason, n, report.grid_gap) == ("max_iters", 3,
                                                            None)
        assert [r.steps for r in report.iterations] == [5] * n
        assert forward_calls == [1 + n, n]

    def test_level_whose_flow_diverges_does_not_qualify(self,
                                                        forward_calls):
        # J0 = 30 theta^2: RK4's quarter steps are stable at 8 steps, not
        # at 1, 2 or 4, where the flow under C0 = 0 leaves the bound
        x, y = np.array([[np.sqrt(30.0)]]), np.zeros(1)
        data = ProblemData(*(Dataset(x, y, tag) for tag in
                             ("train", "dithered", "validation")))
        o = ModelOracle("linear_features", 1)
        config = quad_config(steps=8, max_iters=2)
        problem = Problem(o, config, data)
        for steps in (1, 2, 4):
            with pytest.raises(dynamics.DivergenceError):
                forward(problem, np.zeros((1, 2)), steps)
        forward_calls[:] = [0, 0]
        with warnings_as_errors():
            report = solve(problem)
        assert report.grid_gap is None
        assert [r.steps for r in report.iterations] == [8]
        # the fine flow and G at C0, the 1-, 2- and 4-step probes, each of
        # which raises, and the fine grid's search
        assert forward_calls == [1 + 3 + sga.MAX_BACKTRACKS + 1, 1]

    def test_level_search_failure_hands_over(self, forward_calls):
        # at 100 steps the 25-step level accepts two steps and its third
        # search fails: the fine grid runs iteration 2 again and fails too
        o, config, data = divergent_trial_problem()
        config = replace(config, steps=100)
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "line_search_failure"
        assert [(r.k, r.steps, r.gamma) for r in report.iterations] == [
            (0, 25, 0.0625), (1, 25, 0.001953125), (2, 100, 0.0)]
        # the fine flow at C0 and the 25-step probe, the first probed and
        # qualifying, forward and back; 5 + 10 + 11 trials on the level,
        # each iteration's G but the first swept; the fine flow and G at
        # C2, and its 11 trials
        assert forward_calls == [1 + 1 + 5 + 10 + 11 + 1 + 11, 1 + 1 + 2 + 1]
        assert len(report.grid_gap) == 2
        assert_final_state_is_fresh(o, config, data, report)

    def test_decrease_within_the_gap_hands_over(self, quad1_problem):
        # a step of gamma0 = 1e-8 lowers J by about 8e-13, inside the
        # 1.1e-11 gap of the 25-step level at C0
        o, data = quad1_problem
        config = quad_config(steps=100, max_iters=3, gamma0=1e-8)
        report = solve(Problem(o, config, data))
        assert report.stop_reason == "max_iters"
        assert [r.steps for r in report.iterations] == [25, 100, 100]
        assert report.iterations[0].cost - report.iterations[1].cost < (
            report.grid_gap[0])
        assert_final_state_is_fresh(o, config, data, report)

    def test_one_validation_plan_over_probes_and_sweeps(self, monkeypatch):
        # every p(T) = -grad Phi, the probes' and the iterations', and every
        # J read solve's plan: no sweep builds its own
        built = []

        def counted(oracle, z, orig=model.loss_plan):
            built.append(z.tag)
            return orig(oracle, z)

        monkeypatch.setattr(model, "loss_plan", counted)
        monkeypatch.setattr(sga, "loss_plan", counted)
        o, config, data = linear_json_problem()
        report = solve(Problem(o, config, data))
        assert len(report.iterations) == config.max_iters
        assert built == ["validation"]


class TestProblem:
    """The record every pass reads: its inputs refused at construction (a
    dataset with nan or inf in TestNonFiniteData, a dithered set with other
    inputs in TestDitheredInputs), and its plans built once there."""

    def test_nonfinite_theta0_rejected(self, quad1_problem):
        o, data = quad1_problem
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="theta0 has non-finite "
                                                 "entries"):
                Problem(o, replace(quad_config(), theta0=[bad]), data)

    @pytest.mark.parametrize("theta0", [[], [1.0, 2.0]])
    def test_theta0_of_other_dimension_rejected(self, quad1_problem, theta0):
        o, data = quad1_problem
        with pytest.raises(ValueError, match=re.escape(
                f"theta0 has shape ({len(theta0)},), expected (1,)")):
            Problem(o, replace(quad_config(), theta0=theta0), data)

    @pytest.mark.parametrize("name", ["z_train", "z_dith", "z_val"])
    def test_dataset_of_other_dimension_rejected(self, quad1_problem, name):
        o, data = quad1_problem
        z = getattr(data, name)
        with pytest.raises(ValueError, match="dataset has d=2, oracle "
                                             "expects input_dim=1"):
            Problem(o, quad_config(), replace(data, **{
                name: Dataset(np.hstack([z.x, z.x]), z.y, z.tag)}))

    @pytest.mark.parametrize("run", ["solve", "run", "gradcheck"])
    def test_plans_built_once(self, run, monkeypatch, tmp_path):
        # configs/linear.json: one flow plan and one validation plan over a
        # whole solve, over `sgaflow run` with its post-solve passes, and
        # over `sgaflow gradcheck`, whose two checks share one problem
        built = []

        def counted_flow(oracle, z1, zd, orig=model.flow_plan):
            built.append((z1.tag, zd.tag))
            return orig(oracle, z1, zd)

        def counted(oracle, z, orig=model.loss_plan):
            built.append(z.tag)
            return orig(oracle, z)

        for mod in (model, dynamics, sga):
            for name, spy in (("flow_plan", counted_flow),
                              ("loss_plan", counted)):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy)
        if run == "solve":
            report = solve(Problem(*linear_json_problem()))
            assert len(report.iterations) == 30
        else:
            assert cli.main([run, "--config", str(ROOT / "configs" /
                                                  "linear.json"),
                             "--out", str(tmp_path), "--quiet"]) == 0
        assert built == [("train", "dithered"), "validation"]


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
        ({"u_max": -1.0}, "u_max must be >= 0"),
        # a nan u_max dropped the box constraint (no gmax > nan holds), and
        # a nan eps_tol the tolerance stop
        ({"u_max": np.nan}, "u_max must be >= 0"),
        ({"eps_tol": np.nan}, "eps_tol must be > 0")])
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
