from dataclasses import replace

import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, ProblemData, dynamics
from sgaflow.basis import BasisSpec, eval_basis_grid, eval_control
from sgaflow.dynamics import (AdjointTrajectory, DivergenceError,
                              NonFiniteCostateError, TimeGrid, Trajectory,
                              adjoint_matrix, adjoint_rhs, forward_rhs,
                              hamiltonian, integrate_adjoint,
                              integrate_forward)
from sgaflow import model
from sgaflow.model import flow_plan, loss_gradient, loss_hvp, loss_plan

from conftest import (linear_problem, mlp_problem, quadratic_datasets,
                      warnings_as_errors, zero_control)


def quad_oracle(p=1):
    z1, zd, zv = quadratic_datasets(p)
    return ModelOracle("linear_features", p), z1, zd, zv


def quad_plan(p=1):
    """The flow plan of quad_oracle's training and dithered sets."""
    o, z1, zd, _ = quad_oracle(p)
    return flow_plan(o, z1, zd)


def data_plan(o, data):
    """The flow plan of data's training and dithered sets."""
    return flow_plan(o, data.z_train, data.z_dith)


class TestForwardRhs:
    def test_scalar_footnote_formula(self):
        # J0 = 0.5*theta^2 on both sets: f = -1 + 0.1 * 1^2 * 1 = -0.9
        o, z1, zd, _ = quad_oracle()
        f, gt = forward_rhs(flow_plan(o, z1, zd), np.array([1.0]),
                            np.array([1.0]), 0.1)
        assert f[0] == pytest.approx(-0.9, rel=1e-14)
        assert gt[0] == pytest.approx(1.0, rel=1e-14)

    def test_control_off_reduces_to_gradient_flow(self):
        o, data = linear_problem()
        theta = np.random.default_rng(0).standard_normal(o.param_dim)
        f, gt = forward_rhs(flow_plan(o, data.z_train, data.z_dith), theta,
                            np.zeros(o.param_dim), 0.7)
        np.testing.assert_array_equal(
            f, -loss_gradient(o, theta, data.z_train))
        np.testing.assert_array_equal(
            gt, loss_gradient(o, theta, data.z_dith))

    def test_matches_componentwise_formula(self):
        o, data = linear_problem(seed=4)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(o.param_dim)
        u = rng.standard_normal(o.param_dim)
        eps = 0.3
        f, f_gt = forward_rhs(flow_plan(o, data.z_train, data.z_dith), theta,
                              u, eps)
        g = loss_gradient(o, theta, data.z_train)
        gt = loss_gradient(o, theta, data.z_dith)
        expect = np.array([-g[i] + eps * gt[i]**2 * u[i]
                           for i in range(o.param_dim)])
        np.testing.assert_allclose(f, expect, atol=1e-14)
        np.testing.assert_array_equal(f_gt, gt)


class TestIntegrateForward:
    def test_exponential_decay_closed_form(self):
        traj = integrate_forward(quad_plan(), np.ones(1), *zero_control(1),
                                 0.0, 100)
        assert traj.theta_final[0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_small_eps_continuity(self):
        plan = quad_plan()
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        coeffs = np.array([[1.0, 0.5]])
        a = integrate_forward(plan, np.ones(1), coeffs, basis, 0.0, 100)
        b = integrate_forward(plan, np.ones(1), coeffs, basis, 1e-9, 100)
        assert np.max(np.abs(a.theta_nodes - b.theta_nodes)) <= 1e-7

    def test_richardson_ratio_is_fourth_order(self):
        exact = np.exp(-1.0)
        errs = []
        for m in (25, 50):
            traj = integrate_forward(quad_plan(), np.ones(1),
                                     *zero_control(1), 0.0, m)
            errs.append(abs(traj.theta_final[0] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_null_control_independent_of_eps_c_and_dither(self):
        o, data = linear_problem()
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        theta0 = np.zeros(o.param_dim)
        runs = []
        for eps, zd in ((0.0, data.z_dith), (0.5, data.z_dith),
                        (0.5, Dataset(data.z_train.x, data.z_train.y + 1.0,
                                      "dithered"))):
            coeffs = np.zeros((o.param_dim, 3))
            runs.append(integrate_forward(flow_plan(o, data.z_train, zd),
                                          theta0, coeffs, basis, eps, 50))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].theta_nodes,
                                          other.theta_nodes)

    def test_eps_perturbation_scaling_is_linear(self):
        o, data = linear_problem(seed=6)
        plan = data_plan(o, data)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        rng = np.random.default_rng(2)
        coeffs = 0.3 * rng.standard_normal((o.param_dim, 3))
        theta0 = 0.5 * rng.standard_normal(o.param_dim)
        base = integrate_forward(plan, theta0, coeffs, basis, 0.0,
                                 100).theta_final
        epss = [1e-1, 1e-2, 1e-3, 1e-4]
        diffs = [np.linalg.norm(
            integrate_forward(plan, theta0, coeffs, basis, e,
                              100).theta_final - base)
            for e in epss]
        slope = np.polyfit(np.log(epss), np.log(diffs), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_divergence_guard_reports_time(self):
        # theta' = -theta + 0.5 * theta^2 * u with u = 20 blows up at
        # t = ln(10/9); the guard stops it within one quarter step
        grid = TimeGrid(1.0, 50)
        with pytest.raises(DivergenceError) as exc:
            integrate_forward(quad_plan(), np.ones(1), np.array([[20.0, 0.0]]),
                              BasisSpec("legendre_shifted", 2, 1.0), 0.5,
                              grid.steps)
        assert abs(exc.value.t - np.log(10.0 / 9.0)) <= 0.25 * grid.h
        assert exc.value.norm > dynamics.DIVERGENCE_BOUND

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_divergence_guard_counts_a_nan_state_as_outside(self, stacked):
        # u = 1e300 overflows the first quarter step's stages, so theta
        # becomes nan there, which compares False against any bound; in a
        # stack, the other members stay finite
        grid = TimeGrid(1.0, 50)
        cs = np.zeros((3, 1, 2))
        cs[1, 0, 0] = 1e300
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            integrate_forward(quad_plan(), np.ones(1),
                              cs if stacked else cs[1],
                              BasisSpec("legendre_shifted", 2, 1.0), 0.5,
                              grid.steps)
        assert exc.value.t == 0.25 * grid.h
        assert exc.value.norm == np.inf

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_nan_state_warns_nothing(self, stacked):
        # the same overflow, with no errstate of the caller's: the guard
        # still reports it, and no warning escapes the integration
        grid = TimeGrid(1.0, 50)
        cs = np.zeros((3, 1, 2))
        cs[1, 0, 0] = 1e300
        with warnings_as_errors(), pytest.raises(DivergenceError) as exc:
            integrate_forward(quad_plan(), np.ones(1),
                              cs if stacked else cs[1],
                              BasisSpec("legendre_shifted", 2, 1.0), 0.5,
                              grid.steps)
        assert (exc.value.t, exc.value.norm) == (0.25 * grid.h, np.inf)

    @pytest.mark.parametrize("us,row", [
        ([20.0], 22), ([0.0, 20.0, 0.0], 22), ([19.0, 0.0, 20.0], 22),
        ([21.0], 21), ([19.5], 23), ([19.0], 24)],
        ids=["one", "member-1", "row-before-member", "row-21", "row-23",
             "row-24"])
    def test_divergence_guard_reports_the_first_bad_quarter_step(self, us,
                                                                 row):
        # theta' = -theta + 0.5 * theta^2 * u: u = 21, 20, 19.5 and 19 first
        # pass the bound at quarter steps 21 to 24, the four rows of grid
        # step 5; the guard, run once per grid step after its four quarter
        # steps, reports the row and member a guard after every quarter
        # step reports, with no warning from the steps run past it
        o, z1, zd, _ = quad_oracle()
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        grid = TimeGrid(1.0, 50)
        cs = np.zeros((len(us), 1, 2))
        cs[:, 0, 0] = us
        c = cs[0] if len(us) == 1 else cs
        with pytest.raises(DivergenceError) as want:
            per_stage_forward(o, [1.0], c, basis, 0.5,
                              ProblemData(z1, zd, None), grid)
        with warnings_as_errors(), pytest.raises(DivergenceError) as got:
            integrate_forward(flow_plan(o, z1, zd), np.ones(1), c, basis, 0.5,
                              grid.steps)
        assert want.value.t == row * (0.25 * grid.h)
        assert (got.value.t, got.value.norm) == (want.value.t,
                                                 want.value.norm)

    def test_trajectory_keeps_the_callers_eps(self):
        # the pass runs on a 0-d array of eps; the trajectory keeps eps
        eps = 0.3
        traj = integrate_forward(quad_plan(), np.ones(1), *zero_control(1),
                                 eps, 2)
        assert traj.eps is eps and type(traj.eps) is float

    @pytest.mark.parametrize("t_final,steps,match", [
        (0.0, 10, "final time must be > 0"), (-1.0, 10, "final time"),
        (1.0, 0, "steps must be >= 1"), (1.0, -3, "steps"),
        # a nan or inf T made h and every node time nan or inf
        (np.nan, 10, "final time must be > 0"),
        (np.inf, 10, "final time must be > 0")])
    def test_grid_bounds(self, t_final, steps, match):
        with pytest.raises(ValueError, match=match):
            TimeGrid(t_final, steps)

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_keeps_dithered_gradient_of_every_state_bitwise(self, family):
        rng = np.random.default_rng(10)
        if family == "linear":
            o, data = linear_problem(d=3, seed=25)
        else:
            o, data = mlp_problem(d=2, seed=24)
        coeffs = rng.uniform(-1.0, 1.0, (o.param_dim, 3))
        traj = integrate_forward(data_plan(o, data),
                                 0.5 * rng.standard_normal(o.param_dim),
                                 coeffs, BasisSpec("legendre_shifted", 3, 1.0),
                                 0.3, 20)
        assert traj.gt_fine.shape == (81, o.param_dim)
        # the final state's row included
        for theta, gt in zip(traj.theta_fine, traj.gt_fine):
            np.testing.assert_array_equal(
                gt, loss_gradient(o, theta, data.z_dith))
        assert not traj.gt_fine.flags.writeable


class TestFinalStates:
    """The final states of integrate_forward under a (B, p, n) stack."""

    @pytest.mark.parametrize("family,kind", [("linear", "legendre_shifted"),
                                             ("mlp", "fourier")])
    def test_rows_match_single_integrations(self, family, kind):
        rng = np.random.default_rng(7)
        if family == "linear":
            o, data = linear_problem(d=3, seed=21)
        else:
            o, data = mlp_problem(d=2, seed=22)
        p = o.param_dim
        # away from zero so that every block of the mlp (W1, b1, w2, b2)
        # moves under the flow
        theta0 = 0.5 * rng.standard_normal(p)
        basis = BasisSpec(kind, 3, 1.0)
        plan = data_plan(o, data)
        cs = rng.uniform(-2.0, 2.0, (5, p, 3))
        finals = integrate_forward(plan, theta0, cs, basis, 0.3,
                                   20).theta_final
        assert finals.shape == (5, p)
        for b in range(5):
            single = integrate_forward(plan, theta0, cs[b], basis, 0.3,
                                       20).theta_final
            err = np.max(np.abs(finals[b] - single))
            assert err <= 1e-13 * np.max(np.abs(single))
        assert np.all(finals != theta0)
        # distinct controls give distinct final states
        assert np.all(np.abs(np.diff(finals, axis=0)) > 0)

    def test_one_divergent_member_raises_its_own_error(self):
        plan, theta0 = quad_plan(), np.ones(1)
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        # theta' = -theta + 0.5 * theta^2 * u with u = 20 blows up; u = 0
        # decays
        cs = np.zeros((3, 1, 2))
        cs[1, 0, 0] = 20.0
        with pytest.raises(DivergenceError) as alone:
            integrate_forward(plan, theta0, cs[1], basis, 0.5, 50)
        with pytest.raises(DivergenceError) as batch:
            integrate_forward(plan, theta0, cs, basis, 0.5, 50)
        assert batch.value.t > 0.0
        assert (batch.value.t, batch.value.norm) == (alone.value.t,
                                                     alone.value.norm)
        finals = integrate_forward(plan, theta0, cs[[0, 2]], basis, 0.5,
                                   50).theta_final
        assert np.all(np.isfinite(finals))

    def test_stack_shape_checked(self):
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match=r"C has shape \(2, 1, 3\)"):
            integrate_forward(quad_plan(), np.ones(1), np.zeros((2, 1, 3)),
                              basis, 0.1, 10)

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 1, 2)], ids=["1-D", "4-D"])
    def test_c_of_other_rank_rejected(self, shape):
        # one (p, n) C or a (B, p, n) stack: a 1-D C is not read as a row,
        # nor a 4-D one as a stack of stacks
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match=r"C has shape \("):
            integrate_forward(quad_plan(), np.ones(1), np.zeros(shape), basis,
                              0.1, 10)


class TestAdjointRhs:
    def test_control_off_is_plain_hvp(self):
        o, data = linear_problem()
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(o.param_dim)
        p = rng.standard_normal(o.param_dim)
        plan = flow_plan(o, data.z_train, data.z_dith)
        _, gt = forward_rhs(plan, theta, np.zeros(o.param_dim), 0.4)
        np.testing.assert_array_equal(gt, loss_gradient(o, theta,
                                                         data.z_dith))
        k = adjoint_matrix(plan, theta, gt, np.zeros(o.param_dim), 0.4)
        out = adjoint_rhs(k, p)
        np.testing.assert_allclose(out, loss_hvp(o, theta, data.z_train, p),
                                   atol=1e-14)

    def test_scalar_case_with_chain_rule_factor(self):
        # df/dtheta = -1 + 2*eps*u*g~ = -1 + 0.2, so pdot = 0.8
        o, z1, zd, _ = quad_oracle()
        # g~ = theta = 1
        k = adjoint_matrix(flow_plan(o, z1, zd), np.array([1.0]),
                           np.array([1.0]), np.array([1.0]), 0.1)
        out = adjoint_rhs(k, np.array([1.0]))
        assert out[0] == pytest.approx(0.8, rel=1e-13)

    def test_matches_finite_difference_jacobian(self):
        o, data = linear_problem(d=3, seed=11)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(3)
        p = rng.standard_normal(3)
        u = rng.standard_normal(3)
        eps = 0.2
        plan = flow_plan(o, data.z_train, data.z_dith)
        _, gt = forward_rhs(plan, theta, u, eps)
        np.testing.assert_array_equal(gt, loss_gradient(o, theta,
                                                        data.z_dith))
        out = adjoint_rhs(adjoint_matrix(plan, theta, gt, u, eps), p)
        jac = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            fp, _ = forward_rhs(plan, theta + e, u, eps)
            fm, _ = forward_rhs(plan, theta - e, u, eps)
            jac[:, k] = (fp - fm) / 2e-6
        expect = -jac.T @ p
        assert np.max(np.abs(out - expect)) / np.max(np.abs(expect)) <= 1e-5

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matrix_matches_central_difference_jacobian(self, family):
        # K = -(df/dtheta)^T, the Jacobian of forward_rhs by a 4th-order
        # central difference in each coordinate
        if family == "linear":
            _, data = linear_problem(d=3, seed=11)
            o = ModelOracle("linear_features", 3, degree=2, include_bias=True)
        else:
            o, data = mlp_problem(d=2, seed=12)
        rng = np.random.default_rng(5)
        theta, u = rng.standard_normal((2, o.param_dim))
        eps, h = 0.3, 1e-3
        plan = flow_plan(o, data.z_train, data.z_dith)
        _, gt = forward_rhs(plan, theta, u, eps)
        k = adjoint_matrix(plan, theta, gt, u, eps)

        def f(s):
            return forward_rhs(plan, theta + s, u, eps)[0]
        e = h * np.eye(o.param_dim)
        jac = np.stack([(8.0 * (f(c) - f(-c)) - (f(2.0 * c) - f(-2.0 * c)))
                        / (12.0 * h) for c in e], axis=1)
        assert np.max(np.abs(k + jac.T)) / np.max(np.abs(jac)) <= 1e-9
        # the control term is part of what is checked
        free = adjoint_matrix(plan, theta, gt, np.zeros(o.param_dim), eps)
        assert np.max(np.abs(k - free)) > 1e-3


def per_stage_adjoint(o, traj, coeffs, basis, eps, data):
    """The half-step costate sweep with u from eval_control at the stage
    times i*(h/4) of forward states i and grad J~0 from a per-state
    loss_gradient call at every stage, forming the costate matrix anew at
    every stage, through a flow plan of its own; returns the costate at the
    half steps."""
    hh = 0.5 * traj.grid.h
    hq = 0.25 * traj.grid.h
    fine = traj.theta_fine
    plan = flow_plan(o, data.z_train, data.z_dith)

    def rhs(t, theta, p):
        k = adjoint_matrix(plan, theta, loss_gradient(o, theta, data.z_dith),
                           eval_control(coeffs, basis, t), eps)
        return adjoint_rhs(k, p)

    p = -loss_gradient(o, traj.theta_final, data.z_val)
    out = [p]
    for j in range(2 * traj.grid.steps, 0, -1):
        i = 2 * j
        k1 = rhs(i * hq, fine[i], p)
        k2 = rhs((i - 1) * hq, fine[i - 1], p - 0.5 * hh * k1)
        k3 = rhs((i - 1) * hq, fine[i - 1], p - 0.5 * hh * k2)
        k4 = rhs((i - 2) * hq, fine[i - 2], p - hh * k3)
        p = p - (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(p)
    return np.array(out[::-1])


class TestIntegrateAdjoint:
    @pytest.mark.parametrize("family,kind", [("linear", "legendre_shifted"),
                                             ("mlp", "fourier")])
    def test_matches_per_stage_control_bitwise(self, family, kind):
        rng = np.random.default_rng(8)
        if family == "linear":
            o, data = linear_problem(d=3, seed=25)
        else:
            o, data = mlp_problem(d=2, seed=24)
        basis = BasisSpec(kind, 3, 1.0)
        coeffs = rng.uniform(-1.0, 1.0, (o.param_dim, 3))
        theta0 = 0.5 * rng.standard_normal(o.param_dim)
        traj = integrate_forward(data_plan(o, data), theta0, coeffs, basis,
                                 0.3, 20)
        adj = integrate_adjoint(o, traj, data.z_val)
        np.testing.assert_array_equal(
            adj.p_half, per_stage_adjoint(o, traj, coeffs, basis, 0.3, data))
        # the trajectory's control moves the costate, so the check covers
        # it: the same states with the control dropped give another p(0)
        free = integrate_adjoint(o, replace(traj, c=np.zeros_like(traj.c)),
                                 data.z_val)
        assert np.all(free.p_nodes[0] != adj.p_nodes[0])

    def test_non_finite_costate_raises_typed_error(self):
        # a training Hessian of 2e200 overflows the backward sweep, while
        # theta0 = 0 with y = 0 keeps the forward state exactly 0
        x = [[1e100]]
        z1, zd = Dataset(x, [0.0], "train"), Dataset(x, [0.0], "dithered")
        zv = Dataset([[1.0]], [1.0], "validation")
        o = ModelOracle("linear_features", 1)
        traj = integrate_forward(flow_plan(o, z1, zd), np.zeros(1),
                                 *zero_control(1), 0.1, 10)
        with (pytest.raises(NonFiniteCostateError) as exc,
              np.errstate(over="ignore", invalid="ignore")):
            integrate_adjoint(o, traj, zv)
        # the CLI reports a RuntimeError with exit code 2
        assert isinstance(exc.value, RuntimeError)
        assert 0.0 <= exc.value.t < 1.0

    @pytest.mark.parametrize("scale,row", [(1e100, 19), (1e30, 18)],
                             ids=["midpoint", "node"])
    def test_non_finite_costate_reports_its_first_row(self, scale, row):
        # K = 2 x^2 makes the sweep grow by about (hh K)^4 / 24 a half
        # step: x = 1e100 overflows the first half step's row 19, the
        # midpoint of the last grid step, and x = 1e30 first its node 18,
        # row 19 staying finite; the check, run once per grid step, names
        # that row, and no warning escapes the sweep
        x = [[scale]]
        z1, zd = Dataset(x, [0.0], "train"), Dataset(x, [0.0], "dithered")
        zv = Dataset([[1.0]], [1.0], "validation")
        o = ModelOracle("linear_features", 1)
        traj = integrate_forward(flow_plan(o, z1, zd), np.zeros(1),
                                 *zero_control(1), 0.1, 10)
        with warnings_as_errors(), \
                pytest.raises(NonFiniteCostateError) as exc:
            integrate_adjoint(o, traj, zv)
        assert exc.value.t == row * (0.5 * traj.grid.h)

    def test_closed_form_adjoint(self):
        o, z1, zd, zv = quad_oracle()
        traj = integrate_forward(flow_plan(o, z1, zd), np.ones(1),
                                 *zero_control(1), 0.0, 200)
        adj = integrate_adjoint(o, traj, zv)
        assert adj.p_nodes[-1][0] == pytest.approx(-np.exp(-1.0), abs=1e-9)
        assert adj.p_nodes[0][0] == pytest.approx(-np.exp(-2.0), abs=1e-8)

    def test_zero_terminal_gradient_gives_zero_costate(self):
        o, data = linear_problem()
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(o.param_dim)
        null = zero_control(o.param_dim)
        traj = integrate_forward(data_plan(o, data), theta0, *null, 0.0, 50)
        zv = Dataset(data.z_val.x, o.predict(traj.theta_final, data.z_val.x),
                     "validation")
        adj = integrate_adjoint(o, traj, zv)
        np.testing.assert_allclose(adj.p_nodes, 0.0, atol=1e-12)

    def test_grid_refinement_fourth_order(self):
        o, z1, zd, zv = quad_oracle()
        exact = -np.exp(-2.0)
        errs = []
        for m in (25, 50):
            traj = integrate_forward(flow_plan(o, z1, zd), np.ones(1),
                                     *zero_control(1), 0.0, m)
            adj = integrate_adjoint(o, traj, zv)
            errs.append(abs(adj.p_nodes[0][0] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0


def per_stage_forward(o, theta0, c, basis, eps, data, grid):
    """The quarter-step RK4 pass with u = c @ psi[i] formed anew at every
    stage and the divergence guard after every quarter step; returns its
    states and the first stage's grad J~0 at each."""
    h = 0.25 * grid.h
    psi = eval_basis_grid(basis, np.arange(8 * grid.steps + 1) * (grid.h / 8))
    plan = flow_plan(o, data.z_train, data.z_dith)
    th = np.broadcast_to(np.asarray(theta0, dtype=float), c.shape[:-1])
    out, gts = [th], []
    for k in range(4 * grid.steps):
        k1, gt = forward_rhs(plan, th, c @ psi[2 * k], eps)
        k2 = forward_rhs(plan, th + 0.5 * h * k1, c @ psi[2 * k + 1], eps)[0]
        k3 = forward_rhs(plan, th + 0.5 * h * k2, c @ psi[2 * k + 1], eps)[0]
        k4 = forward_rhs(plan, th + h * k3, c @ psi[2 * k + 2], eps)[0]
        th = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for row in np.atleast_2d(th):  # the guard, member by member
            nrm = float(np.linalg.norm(row))
            if not nrm <= dynamics.DIVERGENCE_BOUND:
                raise DivergenceError((k + 1) * h,
                                      np.inf if np.isnan(nrm) else nrm)
        out.append(th)
        gts.append(gt)
    gts.append(plan.grads(th)[1])
    return np.array(out), np.array(gts)


class TestGridStepBlocks:
    """Both passes form u, and the backward pass K, one grid step at a
    time; each must equal its per-stage or per-state product bit for
    bit, and so must both passes' rows."""

    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("stack", [None, 3])
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_match_per_stage_and_per_state_bitwise(self, family, stack, steps,
                                                   monkeypatch):
        rng = np.random.default_rng(steps)
        if family == "linear":
            o, data = linear_problem(d=3, seed=25)
        else:
            o, data = mlp_problem(d=2, seed=24)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        shape = (o.param_dim, 3) if stack is None else (stack, o.param_dim, 3)
        c = rng.uniform(-1.0, 1.0, shape)
        theta0 = 0.5 * rng.standard_normal(o.param_dim)
        traj = integrate_forward(data_plan(o, data), theta0, c, basis, 0.3,
                                 steps)
        fine, gts = per_stage_forward(o, theta0, c, basis, 0.3, data,
                                      TimeGrid(1.0, steps))
        np.testing.assert_array_equal(traj.theta_fine, fine)
        np.testing.assert_array_equal(traj.gt_fine, gts)

        blocks = []

        def spy(plan, theta, gt, u, eps, orig=dynamics.adjoint_matrix):
            blocks.append((theta, orig(plan, theta, gt, u, eps)))
            return blocks[-1][1]

        monkeypatch.setattr(dynamics, "adjoint_matrix", spy)
        adj = integrate_adjoint(o, traj, data.z_val)
        np.testing.assert_array_equal(
            adj.p_half, per_stage_adjoint(o, traj, c, basis, 0.3, data))
        # the blocks, last first, each in state order: one per grid step
        # and one for the final state
        assert len(blocks) == steps + 1
        np.testing.assert_array_equal(
            np.concatenate([th for th, _ in blocks[::-1]]), fine)
        ks = np.concatenate([k for _, k in blocks[::-1]])
        for i in range(4 * steps + 1):
            np.testing.assert_array_equal(ks[i], adjoint_matrix(
                traj.plan, fine[i], gts[i], c @ traj.psi[2 * i], 0.3))


class TestPlans:
    @pytest.mark.parametrize("steps", [3, 40])
    def test_integrations_build_no_plan(self, steps, monkeypatch):
        # the forward pass runs on the flow plan it is given, which the
        # trajectory keeps for the backward pass; only a validation plan
        # the caller does not give is built, once per backward pass
        built = []

        def counted_flow(o, z1, zd):
            built.append((z1.tag, zd.tag))
            return flow_plan(o, z1, zd)

        def counted(o, z):
            built.append(z.tag)
            return loss_plan(o, z)

        monkeypatch.setattr(dynamics, "flow_plan", counted_flow)
        monkeypatch.setattr(model, "loss_plan", counted)
        o, data = linear_problem()
        plan = data_plan(o, data)
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        theta0 = np.zeros(o.param_dim)
        traj = integrate_forward(plan, theta0, np.ones((o.param_dim, 2)),
                                 basis, 0.1, steps)
        integrate_forward(plan, theta0, np.ones((3, o.param_dim, 2)), basis,
                          0.1, steps)
        assert traj.plan is plan
        integrate_adjoint(o, traj, data.z_val, loss_plan(o, data.z_val))
        assert built == []
        integrate_adjoint(o, traj, data.z_val)
        assert built == ["validation"]


class TestControlRows:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_both_passes_reject_other_row_counts(self, rows):
        # p = 2: one row would be broadcast to both parameters; the single
        # and the batched forward pass take a C, the backward pass reads
        # the trajectory's
        o, data = linear_problem(d=2)
        plan = data_plan(o, data)
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        bad = np.ones((rows, 2))
        with pytest.raises(ValueError, match=rf"C has shape \({rows}, 2\)"):
            integrate_forward(plan, np.zeros(2), bad, basis, 0.1, 10)
        with pytest.raises(ValueError,
                           match=rf"C has shape \(1, {rows}, 2\)"):
            integrate_forward(plan, np.zeros(2), bad[None], basis, 0.1, 10)


class TestStagePsi:
    @pytest.mark.parametrize("kind", ["legendre_shifted", "fourier"])
    @pytest.mark.parametrize("t_final,steps",
                             [(1.0, 20), (1.0, 200), (0.7, 13), (3.0, 37)])
    def test_tables_nest_bitwise(self, kind, t_final, steps):
        # the forward pass's one table, at the stage times i*(h/8), holds
        # Psi at the backward pass's times i*(h/4) in its even rows and at
        # G's times i*(h/2) in every fourth row, bit for bit
        basis = BasisSpec(kind, 5, t_final)
        h = TimeGrid(t_final, steps).h
        psi = integrate_forward(quad_plan(), np.ones(1), np.zeros((1, 5)),
                                basis, 0.1, steps).psi
        for per_step, rows in ((8, psi), (4, psi[::2]), (2, psi[::4])):
            ts = np.arange(per_step * steps + 1) * (h / per_step)
            np.testing.assert_array_equal(rows, eval_basis_grid(basis, ts))


class TestTrajectoryShape:
    @pytest.mark.parametrize("cls,rows,view", [
        (Trajectory, 41, "theta_nodes"), (AdjointTrajectory, 21, "p_nodes")])
    def test_row_count_checked_and_views_read_only(self, cls, rows, view):
        # for M = 10: 4M+1 quarter-step states and grad J~0 rows and 8M+1
        # rows of Psi at the stage times, or 2M+1 half-step costates
        traj = integrate_forward(quad_plan(2), np.ones(2), *zero_control(2),
                                 0.1, 10)
        assert traj.psi.shape == (81, 1)
        assert not traj.psi.flags.writeable
        if cls is Trajectory:
            arrays = {"theta_fine": rows, "gt_fine": rows, "psi": 81}

            def make(**kw):
                return replace(traj, **kw)
        else:
            arrays = {"p_half": rows}

            def make(**kw):
                return AdjointTrajectory(traj, **kw)
        nodes = getattr(make(**{k: np.ones((n, 2))
                                for k, n in arrays.items()}), view)
        assert nodes.shape == (11, 2)
        assert not nodes.flags.writeable
        for name, n in arrays.items():
            for shape in ((n - 1, 2), (n + 1, 2), (11, 2), (n,)):
                with pytest.raises(ValueError, match="expected"):
                    make(**{name: np.ones(shape)})


class TestHamiltonian:
    def test_direct_evaluation(self):
        # p=[1,0], grad J0=[2,3], D=diag(1,4), u=[1,1], eps=0.1 -> -1.9
        # with x=I and theta=0 the gradient is -y, so pick y accordingly
        x = np.eye(2)
        z1 = Dataset(x, [-2.0, -3.0], "train")
        zd = Dataset(x, [-1.0, -2.0], "dithered")
        o = ModelOracle("linear_features", 2)
        theta = np.zeros(2)
        np.testing.assert_array_equal(loss_gradient(o, theta, z1), [2.0, 3.0])
        h = hamiltonian(o, theta, np.array([1.0, 0.0]), np.ones(2), 0.1,
                        z1, zd)
        assert h == pytest.approx(-1.9, rel=1e-14)

    def test_zero_costate(self):
        o, z1, zd, _ = quad_oracle(2)
        assert hamiltonian(o, np.ones(2), np.zeros(2), np.ones(2), 0.1,
                           z1, zd) == 0.0

    def test_affine_in_control(self):
        o, data = linear_problem()
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(o.param_dim)
        p = rng.standard_normal(o.param_dim)
        u1 = rng.standard_normal(o.param_dim)
        u2 = rng.standard_normal(o.param_dim)
        eps = 0.25
        args = (eps, data.z_train, data.z_dith)
        lhs = (hamiltonian(o, theta, p, u1, *args)
               + hamiltonian(o, theta, p, u2, *args)
               - hamiltonian(o, theta, p, np.zeros(o.param_dim), *args))
        rhs = hamiltonian(o, theta, p, u1 + u2, *args)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        o, z1, zd, _ = quad_oracle(2)
        with pytest.raises(ValueError):
            hamiltonian(o, np.ones(2), np.ones(3), np.ones(2), 0.1, z1, zd)

    @pytest.mark.parametrize("name", ["p", "u"])
    @pytest.mark.parametrize("bad,match", [
        (lambda dim: 1.0, r"shape \(\), expected \(17,\)"),
        (lambda dim: np.ones(1), r"shape \(1,\), expected"),
        (lambda dim: np.ones((2, dim)), r"shape \(2, 17\), expected"),
        (lambda dim: np.full(dim, np.nan), "non-finite"),
        (lambda dim: np.full(dim, np.inf), "non-finite"),
    ], ids=["scalar", "one-entry", "stack", "nan", "inf"])
    def test_refuses_p_or_u_not_a_finite_vector_naming_it(self, name, bad,
                                                           match):
        # a scalar or one-entry vector would broadcast, a stack would give
        # a stack of velocities, and nan or inf would come back as H
        o, data = mlp_problem(d=2, seed=19)
        dim = o.param_dim
        theta = np.random.default_rng(20).standard_normal(dim)
        args = {"p": np.ones(dim), "u": np.ones(dim), name: bad(dim)}
        with pytest.raises(ValueError, match=f"^{name} has " + match):
            hamiltonian(o, theta, args["p"], args["u"], 0.1, data.z_train,
                        data.z_dith)
