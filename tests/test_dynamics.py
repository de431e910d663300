import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, dynamics
from sgaflow.basis import (BasisSpec, ControlCoefficients, eval_control,
                           zero_coefficients)
from sgaflow.dynamics import (AdjointTrajectory, DivergenceError,
                              NonFiniteCostateError, TimeGrid, Trajectory,
                              adjoint_rhs,
                              final_states, forward_rhs, hamiltonian,
                              integrate_adjoint, integrate_forward)
from sgaflow import model
from sgaflow.model import (flow_plan, loss_gradient, loss_hvp, loss_plan,
                           phi_gradient)

from conftest import linear_problem, mlp_problem, quadratic_datasets


def quad_oracle(p=1):
    z1, zd, zv = quadratic_datasets(p)
    return ModelOracle("linear_features", p), z1, zd, zv


class TestForwardRhs:
    def test_scalar_footnote_formula(self):
        # J0 = 0.5*theta^2 on both sets: f = -1 + 0.1 * 1^2 * 1 = -0.9
        o, z1, zd, _ = quad_oracle()
        f = forward_rhs(flow_plan(o, z1, zd), np.array([1.0]),
                        np.array([1.0]), 0.1)
        assert f[0] == pytest.approx(-0.9, rel=1e-14)

    def test_control_off_reduces_to_gradient_flow(self):
        o, data = linear_problem()
        theta = np.random.default_rng(0).standard_normal(o.param_dim)
        f = forward_rhs(flow_plan(o, data.z_train, data.z_dith), theta,
                        np.zeros(o.param_dim), 0.7)
        np.testing.assert_array_equal(
            f, -loss_gradient(o, theta, data.z_train))

    def test_matches_componentwise_formula(self):
        o, data = linear_problem(seed=4)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(o.param_dim)
        u = rng.standard_normal(o.param_dim)
        eps = 0.3
        f = forward_rhs(flow_plan(o, data.z_train, data.z_dith), theta, u,
                        eps)
        g = loss_gradient(o, theta, data.z_train)
        gt = loss_gradient(o, theta, data.z_dith)
        expect = np.array([-g[i] + eps * gt[i]**2 * u[i]
                           for i in range(o.param_dim)])
        np.testing.assert_allclose(f, expect, atol=1e-14)


class TestIntegrateForward:
    def test_exponential_decay_closed_form(self):
        o, z1, zd, _ = quad_oracle()
        grid = TimeGrid(1.0, 100)
        traj = integrate_forward(o, [1.0], None, 0.0, z1, zd, grid)
        assert traj.theta_final[0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_small_eps_continuity(self):
        o, z1, zd, _ = quad_oracle()
        grid = TimeGrid(1.0, 100)
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        coeffs = ControlCoefficients([[1.0, 0.5]], basis, 5.0)
        a = integrate_forward(o, [1.0], coeffs, 0.0, z1, zd, grid)
        b = integrate_forward(o, [1.0], coeffs, 1e-9, z1, zd, grid)
        assert np.max(np.abs(a.theta_nodes - b.theta_nodes)) <= 1e-7

    def test_richardson_ratio_is_fourth_order(self):
        o, z1, zd, _ = quad_oracle()
        exact = np.exp(-1.0)
        errs = []
        for m in (25, 50):
            traj = integrate_forward(o, [1.0], None, 0.0, z1, zd,
                                     TimeGrid(1.0, m))
            errs.append(abs(traj.theta_final[0] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_null_control_independent_of_eps_c_and_dither(self):
        o, data = linear_problem()
        grid = TimeGrid(1.0, 50)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        theta0 = np.zeros(o.param_dim)
        runs = []
        for eps, zd in ((0.0, data.z_dith), (0.5, data.z_dith),
                        (0.5, Dataset(data.z_train.x, data.z_train.y + 1.0,
                                      "dithered"))):
            coeffs = zero_coefficients(o.param_dim, basis, 5.0)
            runs.append(integrate_forward(o, theta0, coeffs, eps,
                                          data.z_train, zd, grid))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].theta_nodes,
                                          other.theta_nodes)

    def test_eps_perturbation_scaling_is_linear(self):
        o, data = linear_problem(seed=6)
        grid = TimeGrid(1.0, 100)
        basis = BasisSpec("legendre_shifted", 3, 1.0)
        rng = np.random.default_rng(2)
        coeffs = ControlCoefficients(
            0.3 * rng.standard_normal((o.param_dim, 3)), basis, 5.0)
        theta0 = 0.5 * rng.standard_normal(o.param_dim)
        base = integrate_forward(o, theta0, coeffs, 0.0, data.z_train,
                                 data.z_dith, grid).theta_final
        epss = [1e-1, 1e-2, 1e-3, 1e-4]
        diffs = [np.linalg.norm(
            integrate_forward(o, theta0, coeffs, e, data.z_train,
                              data.z_dith, grid).theta_final - base)
            for e in epss]
        slope = np.polyfit(np.log(epss), np.log(diffs), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_divergence_guard_reports_time(self):
        o, z1, zd, _ = quad_oracle()
        with pytest.raises(DivergenceError) as exc:
            integrate_forward(o, [1.0], None, 0.0, z1, zd, TimeGrid(1.0, 10),
                              divergence_bound=0.5)
        assert exc.value.t > 0.0

    def test_nonfinite_theta0_rejected(self):
        o, z1, zd, _ = quad_oracle()
        with pytest.raises(ValueError):
            integrate_forward(o, [np.nan], None, 0.0, z1, zd,
                              TimeGrid(1.0, 10))


class TestFinalStates:
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
        grid = TimeGrid(1.0, 20)
        cs = rng.uniform(-2.0, 2.0, (5, p, 3))
        finals = final_states(o, theta0, cs, basis, 0.3, data.z_train,
                              data.z_dith, grid)
        assert finals.shape == (5, p)
        for b in range(5):
            single = integrate_forward(
                o, theta0, ControlCoefficients(cs[b], basis, 5.0), 0.3,
                data.z_train, data.z_dith, grid).theta_final
            err = np.max(np.abs(finals[b] - single))
            assert err <= 1e-13 * np.max(np.abs(single))
        assert np.all(finals != theta0)
        # distinct controls give distinct final states
        assert np.all(np.abs(np.diff(finals, axis=0)) > 0)

    def test_one_divergent_member_raises_its_own_error(self):
        o, z1, zd, _ = quad_oracle()
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        grid = TimeGrid(1.0, 50)
        # theta' = -theta + 0.5 * theta^2 * u with u = 20 blows up; u = 0
        # decays
        cs = np.zeros((3, 1, 2))
        cs[1, 0, 0] = 20.0
        with pytest.raises(DivergenceError) as alone:
            integrate_forward(o, [1.0], ControlCoefficients(cs[1], basis, 50.0),
                              0.5, z1, zd, grid)
        with pytest.raises(DivergenceError) as batch:
            final_states(o, [1.0], cs, basis, 0.5, z1, zd, grid)
        assert batch.value.t > 0.0
        assert (batch.value.t, batch.value.norm) == (alone.value.t,
                                                     alone.value.norm)
        finals = final_states(o, [1.0], cs[[0, 2]], basis, 0.5, z1, zd, grid)
        assert np.all(np.isfinite(finals))

    def test_stack_shape_checked(self):
        o, z1, zd, _ = quad_oracle()
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        with pytest.raises(ValueError, match="coefficient stack"):
            final_states(o, [1.0], np.zeros((2, 1, 3)), basis, 0.1, z1, zd,
                         TimeGrid(1.0, 10))

    def test_grid_beyond_basis_range_rejected(self):
        # the Legendre basis is defined on [0, 1]; a grid to t=2 must not
        # extrapolate it
        o, z1, zd, _ = quad_oracle()
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        grid = TimeGrid(2.0, 10)
        with pytest.raises(ValueError, match="outside"):
            integrate_forward(o, [1.0], ControlCoefficients(
                np.zeros((1, 2)), basis, 1.0), 0.1, z1, zd, grid)
        with pytest.raises(ValueError, match="outside"):
            final_states(o, [1.0], np.zeros((2, 1, 2)), basis, 0.1, z1, zd,
                         grid)


class TestAdjointRhs:
    def test_control_off_is_plain_hvp(self):
        o, data = linear_problem()
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(o.param_dim)
        p = rng.standard_normal(o.param_dim)
        plan = flow_plan(o, data.z_train, data.z_dith)
        out = adjoint_rhs(plan, theta, plan.grads(theta)[1], p,
                          np.zeros(o.param_dim), 0.4)
        np.testing.assert_allclose(out, loss_hvp(o, theta, data.z_train, p),
                                   atol=1e-14)

    def test_scalar_case_with_chain_rule_factor(self):
        # df/dtheta = -1 + 2*eps*u*g~ = -1 + 0.2, so pdot = 0.8
        o, z1, zd, _ = quad_oracle()
        # g~ = theta = 1
        out = adjoint_rhs(flow_plan(o, z1, zd), np.array([1.0]),
                          np.array([1.0]), np.array([1.0]), np.array([1.0]),
                          0.1)
        assert out[0] == pytest.approx(0.8, rel=1e-13)

    def test_matches_finite_difference_jacobian(self):
        o, data = linear_problem(d=3, seed=11)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(3)
        p = rng.standard_normal(3)
        u = rng.standard_normal(3)
        eps = 0.2
        plan = flow_plan(o, data.z_train, data.z_dith)
        out = adjoint_rhs(plan, theta, plan.grads(theta)[1], p, u, eps)
        jac = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            fp = forward_rhs(plan, theta + e, u, eps)
            fm = forward_rhs(plan, theta - e, u, eps)
            jac[:, k] = (fp - fm) / 2e-6
        expect = -jac.T @ p
        assert np.max(np.abs(out - expect)) / np.max(np.abs(expect)) <= 1e-5


def per_stage_adjoint(o, traj, coeffs, eps, data):
    """The half-step costate sweep with u from eval_control and grad J~0
    from a per-state loss_gradient call at every stage, through the same
    flow-plan RHS; returns the costate at the nodes and at the midpoints."""
    hh = 0.5 * traj.grid.h
    fine = traj.theta_fine
    plan = flow_plan(o, data.z_train, data.z_dith)

    def rhs(t, theta, p):
        return adjoint_rhs(plan, theta, loss_gradient(o, theta, data.z_dith),
                           p, eval_control(coeffs, t), eps)

    p = -phi_gradient(o, traj.theta_final, data.z_val)
    out = [p]
    for j in range(2 * traj.grid.steps, 0, -1):
        t_hi = j * hh
        k1 = rhs(t_hi, fine[2 * j], p)
        k2 = rhs(t_hi - 0.5 * hh, fine[2 * j - 1], p - 0.5 * hh * k1)
        k3 = rhs(t_hi - 0.5 * hh, fine[2 * j - 1], p - 0.5 * hh * k2)
        k4 = rhs(t_hi - hh, fine[2 * j - 2], p - hh * k3)
        p = p - (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(p)
    out = np.array(out[::-1])
    return out[::2], out[1::2]


class TestIntegrateAdjoint:
    @pytest.mark.parametrize("family,kind", [("linear", "legendre_shifted"),
                                             ("mlp", "fourier")])
    def test_matches_per_stage_control_bitwise(self, family, kind,
                                               monkeypatch):
        # 40 half steps in blocks of 7: five full Psi tables and a partial;
        # 81 states in gradient stacks of 7, the last one partial
        monkeypatch.setattr(dynamics, "PSI_BLOCK", 7)
        monkeypatch.setattr(dynamics, "GRAD_BLOCK", 7)
        rng = np.random.default_rng(8)
        if family == "linear":
            o, data = linear_problem(d=3, seed=25)
        else:
            o, data = mlp_problem(d=2, seed=24)
        basis = BasisSpec(kind, 3, 1.0)
        coeffs = ControlCoefficients(
            rng.uniform(-1.0, 1.0, (o.param_dim, 3)), basis, 5.0)
        theta0 = 0.5 * rng.standard_normal(o.param_dim)
        traj = integrate_forward(o, theta0, coeffs, 0.3, data.z_train,
                                 data.z_dith, TimeGrid(1.0, 20))
        adj = integrate_adjoint(o, traj, coeffs, 0.3, data.z_train,
                                data.z_dith, data.z_val)
        p_nodes, p_mid = per_stage_adjoint(o, traj, coeffs, 0.3, data)
        np.testing.assert_array_equal(adj.p_nodes, p_nodes)
        np.testing.assert_array_equal(adj.p_mid, p_mid)
        # the control moves the costate, so the check covers it
        free = integrate_adjoint(o, traj, None, 0.3, data.z_train,
                                 data.z_dith, data.z_val)
        assert np.all(free.p_nodes[0] != adj.p_nodes[0])

    def test_grid_beyond_basis_range_rejected(self):
        # a null-control forward pass to t=2 is valid, but the Legendre
        # basis of the control is defined on [0, 1] only
        o, z1, zd, zv = quad_oracle()
        traj = integrate_forward(o, [1.0], None, 0.1, z1, zd,
                                 TimeGrid(2.0, 10))
        coeffs = ControlCoefficients(
            np.zeros((1, 2)), BasisSpec("legendre_shifted", 2, 1.0), 1.0)
        with pytest.raises(ValueError, match="outside"):
            integrate_adjoint(o, traj, coeffs, 0.1, z1, zd, zv)

    def test_non_finite_costate_raises_typed_error(self):
        # a training Hessian of 2e200 overflows the backward sweep, while
        # theta0 = 0 with y = 0 keeps the forward state exactly 0
        x = [[1e100]]
        z1, zd = Dataset(x, [0.0], "train"), Dataset(x, [0.0], "dithered")
        zv = Dataset([[1.0]], [1.0], "validation")
        o = ModelOracle("linear_features", 1)
        grid = TimeGrid(1.0, 10)
        traj = integrate_forward(o, [0.0], None, 0.1, z1, zd, grid)
        with (pytest.raises(NonFiniteCostateError) as exc,
              np.errstate(over="ignore", invalid="ignore")):
            integrate_adjoint(o, traj, None, 0.1, z1, zd, zv)
        # the CLI reports a RuntimeError with exit code 2
        assert isinstance(exc.value, RuntimeError)
        assert 0.0 <= exc.value.t < 1.0

    def test_closed_form_adjoint(self):
        o, z1, zd, zv = quad_oracle()
        grid = TimeGrid(1.0, 200)
        traj = integrate_forward(o, [1.0], None, 0.0, z1, zd, grid)
        adj = integrate_adjoint(o, traj, None, 0.0, z1, zd, zv)
        assert adj.p_nodes[-1][0] == pytest.approx(-np.exp(-1.0), abs=1e-9)
        assert adj.p_nodes[0][0] == pytest.approx(-np.exp(-2.0), abs=1e-8)

    def test_zero_terminal_gradient_gives_zero_costate(self):
        o, data = linear_problem()
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(o.param_dim)
        grid = TimeGrid(1.0, 50)
        traj = integrate_forward(o, theta0, None, 0.0, data.z_train,
                                 data.z_dith, grid)
        zv = Dataset(data.z_val.x, o.predict(traj.theta_final, data.z_val.x),
                     "validation")
        adj = integrate_adjoint(o, traj, None, 0.0, data.z_train,
                                data.z_dith, zv)
        np.testing.assert_allclose(adj.p_nodes, 0.0, atol=1e-12)

    def test_grid_refinement_fourth_order(self):
        o, z1, zd, zv = quad_oracle()
        exact = -np.exp(-2.0)
        errs = []
        for m in (25, 50):
            traj = integrate_forward(o, [1.0], None, 0.0, z1, zd,
                                     TimeGrid(1.0, m))
            adj = integrate_adjoint(o, traj, None, 0.0, z1, zd, zv)
            errs.append(abs(adj.p_nodes[0][0] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0


class TestPlans:
    @pytest.mark.parametrize("steps", [3, 40])
    def test_each_plan_built_once_per_integration(self, steps, monkeypatch):
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
        basis = BasisSpec("legendre_shifted", 2, 1.0)
        coeffs = ControlCoefficients(np.ones((o.param_dim, 2)), basis, 5.0)
        grid = TimeGrid(1.0, steps)
        traj = integrate_forward(o, np.zeros(o.param_dim), coeffs, 0.1,
                                 data.z_train, data.z_dith, grid)
        assert built == [("train", "dithered")]
        built.clear()
        integrate_adjoint(o, traj, coeffs, 0.1, data.z_train, data.z_dith,
                          data.z_val)
        assert built == [("train", "dithered"), "validation"]
        built.clear()
        final_states(o, np.zeros(o.param_dim), np.ones((3, o.param_dim, 2)),
                     basis, 0.1, data.z_train, data.z_dith, grid)
        assert built == [("train", "dithered")]


class TestTrajectoryShape:
    @pytest.mark.parametrize("cls,rows,view", [
        (Trajectory, 41, "theta_nodes"), (AdjointTrajectory, 21, "p_nodes")])
    def test_row_count_checked_and_views_read_only(self, cls, rows, view):
        # 4M+1 quarter-step states and 2M+1 half-step costates for M = 10
        grid = TimeGrid(1.0, 10)
        nodes = getattr(cls(grid, np.ones((rows, 2))), view)
        assert nodes.shape == (11, 2)
        assert not nodes.flags.writeable
        for shape in ((rows - 1, 2), (rows + 1, 2), (11, 2), (rows,)):
            with pytest.raises(ValueError, match="expected"):
                cls(grid, np.ones(shape))


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
