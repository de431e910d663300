import itertools
import runpy
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from sgaflow import ModelOracle, ProblemData, cli, dynamics, sga, verify
from sgaflow.basis import BasisSpec, project_admissible
from sgaflow.dynamics import (adjoint_matrix, forward_rhs, integrate_adjoint,
                              integrate_forward)
from sgaflow.sga import (Problem, SolverConfig, backward, cost, forward,
                         sweep)
from sgaflow.verify import (check_coefficient_gradient, check_dp_identity,
                            check_rk4_order)

from conftest import (fd_gradient, linear_problem, mlp_check_problem,
                      p24_linear_cfg, quadratic_datasets, warnings_as_errors)

ROOT = Path(__file__).resolve().parents[1]


def quad_setup(p=1, steps=100, n=2, eps=0.1, u_max=5.0, **kw):
    z1, zd, zv = quadratic_datasets(p)
    basis = BasisSpec("legendre_shifted", n, 1.0)
    config = SolverConfig(eps=eps, steps=steps, basis=basis,
                          u_max=u_max, theta0=np.ones(p), **kw)
    return (ModelOracle("linear_features", p), config,
            ProblemData(z1, zd, zv))


def linear_json_problem(cfg=None):
    """configs/linear.json, or the config dict cfg, as `sgaflow gradcheck`
    checks it."""
    cfg = cfg or cli.load_config(ROOT / "configs" / "linear.json")
    data = cli.build_data(cfg["data"])
    return (cli.build_oracle(cfg["model"], data.z_train.d),
            cli.build_solver_config(cfg), data)


def count_levels(monkeypatch):
    """Patch verify.forward to record the steps of every pass on a grid of
    the order check's own; returns the list."""
    steps = []

    def counted(problem, c, m=None):
        if m is not None:
            steps.append(m)
        return forward(problem, c, m)

    monkeypatch.setattr(verify, "forward", counted)
    return steps


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
        config = SolverConfig(eps=0.1, steps=200,
                              basis=BasisSpec("legendre_shifted", 3, 1.0),
                              u_max=5.0)
        report = check_coefficient_gradient(Problem(o, config, data),
                                            n_probes=3)
        assert report.passed, report.to_dict()

    def test_p24_degree_3_linear_config_passes(self):
        # at the config's 200 steps: 3.6e-7, where Simpson's rule for G read
        # 1.18e-5
        o, config, data = linear_json_problem(p24_linear_cfg())
        assert (o.param_dim, config.steps) == (24, 200)
        report = check_coefficient_gradient(Problem(o, config, data))
        assert report.passed, report.to_dict()

    def test_mlp_family_passes(self):
        o, config, data = mlp_check_problem(seed=51, steps=100, n_basis=2)
        report = check_coefficient_gradient(Problem(o, config, data),
                                            n_probes=1)
        assert report.passed, report.to_dict()

    @pytest.mark.parametrize("problem", ["linear", "mlp"])
    @pytest.mark.parametrize("corner", ["first", "last"])
    def test_one_percent_error_in_one_entry_of_G_fails(self, monkeypatch,
                                                        problem, corner):
        # configs/linear.json, as `sgaflow gradcheck` checks it, and
        # criterion 3's mlp problem; G[0, 0] or G[p-1, n-1] of the first
        # probe's G scaled by 1.01
        if problem == "linear":
            cfg = cli.load_config(ROOT / "configs" / "linear.json")
            data = cli.build_data(cfg["data"])
            o = cli.build_oracle(cfg["model"], data.z_train.d)
            config = cli.build_solver_config(cfg)
        else:
            o, config, data = mlp_check_problem(seed=61, steps=200, n_basis=3)
        entry = (0, 0) if corner == "first" else (o.param_dim - 1,
                                                  config.basis.n - 1)

        def corrupted(*args):
            adj, grads = backward(*args)
            grads[(0,) + entry] *= 1.01
            return adj, grads

        monkeypatch.setattr(verify, "backward", corrupted)
        report = check_coefficient_gradient(Problem(o, config, data),
                                            n_probes=1)
        assert not report.passed, report.to_dict()

    @pytest.mark.parametrize("seed,steps,n_basis", [(61, 200, 3),
                                                     (51, 100, 2)])
    def test_mlp_checks_move_every_parameter(self, seed, steps, n_basis):
        # criterion 3's and test_mlp_family_passes' set-ups, at their first
        # probe's coefficients: no row of G may be all zero, or the check
        # would not test that parameter
        o, config, data = mlp_check_problem(seed, steps, n_basis)
        c0 = np.random.default_rng(0).uniform(-0.5, 0.5,
                                              (o.param_dim, n_basis))
        coeffs = project_admissible(c0, config.basis, config.u_max,
                                    config.projection_grid)

        def zero_rows(cfg):
            _, _, g = sweep(o, coeffs, cfg, data)
            return int(np.sum(np.all(g == 0.0, axis=1)))

        assert zero_rows(config) == 0
        # from theta0 = 0 only b2's row moves
        assert zero_rows(replace(config, theta0=None)) == o.param_dim - 1

    @pytest.mark.parametrize("problem", ["linear", "mlp"])
    def test_batched_probes_match_serial_probes(self, problem):
        # configs/linear.json and criterion 3's mlp problem: the check
        # integrates the probes and all their flows as one stack, and each
        # probe's entry equals one built by a sweep and a cost call of its
        # own, bit for bit
        o, config, data = (linear_json_problem() if problem == "linear"
                           else mlp_check_problem(seed=61, steps=200,
                                                  n_basis=3))
        k, fd_step, n_probes = verify.DIRECTIONS, 1e-4, 2
        rng = np.random.default_rng(0)
        directions = np.random.default_rng([0, 1])
        p, n = o.param_dim, config.basis.n
        record = Problem(o, config, data)
        serial = []
        for probe in range(n_probes):
            coeffs = project_admissible(rng.uniform(-0.5, 0.5, (p, n)),
                                        config.basis, config.u_max,
                                        config.projection_grid)
            _, _, grad = sweep(o, coeffs, config, data)
            d = directions.standard_normal((k, p, n))
            d /= np.linalg.norm(d, axis=(1, 2), keepdims=True)
            js = cost(record, coeffs + fd_step * np.concatenate([d, -d]))
            fd = (js[:k] - js[k:]) / (2.0 * fd_step)
            analytic = -np.einsum("ij,kij->k", grad, d)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-12)
            serial.append({"probe": probe, "rel_err": float(
                np.max(np.abs(analytic - fd)) / scale)})
        report = check_coefficient_gradient(record, n_probes=n_probes)
        assert report.details == serial
        assert report.max_rel_err == max(e["rel_err"] for e in serial)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_names_the_probe(self, monkeypatch, bad):
        # a flow of probe 1's batch whose final state, so its J, is not
        # finite; the stack's first two members are the probes
        o, config, data = quad_setup(steps=20)

        def broken(*args):
            traj = forward(*args)
            fine = traj.theta_fine.copy()
            fine[-1, 2 + 2 * verify.DIRECTIONS + 3] = bad
            return replace(traj, theta_fine=fine)

        monkeypatch.setattr(verify, "forward", broken)
        with pytest.raises(ValueError, match="non-finite cost near the "
                                             "coefficients of probe 1"):
            check_coefficient_gradient(Problem(o, config, data),
                                       n_probes=2)

    def test_one_forward_and_one_backward_integration(self, monkeypatch):
        # configs/linear.json: the probes and their 2 * DIRECTIONS flows
        # each are one forward stack, and only the probes are swept back
        o, config, data = linear_json_problem()
        fwd, bwd = [], []

        def counted_forward(plan, theta0, c, *args):
            fwd.append(c.shape)
            return integrate_forward(plan, theta0, c, *args)

        def counted_adjoint(oracle, traj, *args):
            bwd.append(traj.c.shape)
            return integrate_adjoint(oracle, traj, *args)

        monkeypatch.setattr(sga, "integrate_forward", counted_forward)
        monkeypatch.setattr(sga, "integrate_adjoint", counted_adjoint)
        p, n = o.param_dim, config.basis.n
        for n_probes in (1, 3):
            fwd.clear()
            bwd.clear()
            check_coefficient_gradient(Problem(o, config, data),
                                       n_probes=n_probes)
            assert fwd == [(n_probes * (1 + 2 * verify.DIRECTIONS), p, n)]
            assert bwd == [(n_probes, p, n)]

    @pytest.mark.parametrize("n_probes", [0, -1])
    def test_refuses_fewer_than_one_probe_before_integrating(
            self, monkeypatch, n_probes):
        # n_probes = 0 ended in numpy's "need at least one array to stack"
        o, config, data = quad_setup(steps=20)

        def never(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(sga, "integrate_forward", never)
        with pytest.raises(ValueError, match=f"n_probes must be >= 1, got "
                                             f"{n_probes}"):
            check_coefficient_gradient(Problem(o, config, data),
                                       n_probes=n_probes)

    def test_eps_zero_both_sides_vanish(self):
        # without eps the control has no effect: G and every difference are
        # exactly 0, which the error's floor read as a pass
        o, config, data = quad_setup(eps=0.0, steps=50)
        with pytest.raises(ValueError, match="differences at probe 0 are "
                                             "all 0"):
            check_coefficient_gradient(Problem(o, config, data),
                                       n_probes=1)


class TestCheckDpIdentity:
    def test_quadratic_reoptimized(self):
        o, config, data = quad_setup(steps=100, max_iters=30)
        report = check_dp_identity(Problem(o, config, data))
        assert report.passed, report.to_dict()
        # the frozen-control variant differences the same J the sweep
        # differentiates, so it resolves the costate far below tol (8.4e-9);
        # a costate matrix without its eps term reads 1.7e-2 here
        assert report.details[0]["rel_err_frozen_control"] <= 1e-6

    def test_null_control_reduction_is_tight(self):
        o, config, data = quad_setup(steps=100, u_max=0.0, max_iters=3)
        report = check_dp_identity(Problem(o, config, data))
        assert report.max_rel_err <= 1e-4, report.to_dict()

    def test_large_probe_step_degrades(self, monkeypatch):
        # far outside the linearization regime the identity visibly breaks
        o, config, data = quad_setup(steps=100, max_iters=10)
        small = check_dp_identity(Problem(o, config, data))
        monkeypatch.setattr(verify, "DP_STEP", 1.0)
        large = check_dp_identity(Problem(o, config, data))
        assert (small.details[0]["delta"], large.details[0]["delta"]) == (
            1e-3, 1.0)
        assert large.max_rel_err > small.max_rel_err

    def test_high_dimension_passes_along_four_directions(self):
        o, data = linear_problem(d=4, seed=52)
        config = SolverConfig(eps=0.1, steps=50,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=1.0)
        report = check_dp_identity(Problem(o, config, data))
        assert report.passed, report.to_dict()
        d = report.details[0]
        for key in ("costate_slopes", "value_slopes_reoptimized",
                    "value_slopes_frozen_control"):
            assert len(d[key]) == 4

    def test_non_finite_value_refused(self, monkeypatch):
        o, config, data = quad_setup(steps=20, max_iters=1)
        monkeypatch.setattr(verify, "cost", lambda *args: np.nan)
        with pytest.raises(ValueError, match="non-finite value function "
                                             "near theta0"):
            check_dp_identity(Problem(o, config, data))

    @pytest.mark.parametrize("problem", ["quad", "mlp"])
    def test_costate_matrix_without_eps_fails_frozen_half(self, monkeypatch,
                                                          problem):
        # the frozen-control half differences the cost the sweep
        # differentiates, so K without its eps term must show there: on the
        # p = 1 quad problem (1.7e-2 against 8.4e-9) and on
        # scripts/run_verification.py's p = 13 tanh network (9.4e-3 against
        # 1.0e-6), whose base solve is cut to 50 steps and 5 iterations
        if problem == "quad":
            o, config, data = quad_setup(steps=100, max_iters=30)
        else:
            o, config, data = runpy.run_path(
                str(ROOT / "scripts" / "run_verification.py"))["mlp_problem"]()
            config = replace(config, steps=50, max_iters=5)
        real = dynamics.adjoint_matrix

        def without_eps(plan, theta, gt, u, eps):
            return real(plan, theta, gt, u, 0.0)

        sound = check_dp_identity(Problem(o, config, data))
        assert sound.details[0]["rel_err_frozen_control"] <= 1e-5
        monkeypatch.setattr(dynamics, "adjoint_matrix", without_eps)
        faulty = check_dp_identity(Problem(o, config, data))
        assert faulty.details[0]["rel_err_frozen_control"] > 1e-4


class TestCheckRk4Order:
    def test_quadratic_slope_near_four(self):
        o, config, data = quad_setup(steps=100)
        report = check_rk4_order(Problem(o, config, data))
        assert report.passed
        d = report.details[0]
        assert 3.7 <= d["forward_slope"] <= 4.3
        assert 3.7 <= d["adjoint_slope"] <= 4.3

    def test_second_order_error_fails(self, monkeypatch):
        # configs/linear.json, as `sgaflow gradcheck` checks it: an O(h^2)
        # term added to every final state must read as slope 2 and fail
        o, config, data = linear_json_problem()
        assert check_rk4_order(Problem(o, config, data)).passed

        def second_order(*args):
            traj = integrate_forward(*args)
            fine = traj.theta_fine.copy()
            fine[-1] += 1e-2 * traj.grid.h ** 2
            return replace(traj, theta_fine=fine)

        monkeypatch.setattr(sga, "integrate_forward", second_order)
        report = check_rk4_order(Problem(o, config, data))
        assert not report.passed
        assert abs(report.details[0]["forward_slope"] - 2.0) <= 0.1

    def test_runs_the_solvers_sweep_at_the_first_probe(self, monkeypatch):
        # configs/linear.json: every level is a forward and a backward pass
        # of the solver at the coefficient check's first probe, on that
        # level's grid
        o, config, data = linear_json_problem()
        fwd, bwd = [], []

        def recorded(problem, coeffs, steps=None):
            fwd.append((coeffs, steps))
            return forward(problem, coeffs, steps)

        def swept(problem, traj):
            bwd.append(traj.c)
            return backward(problem, traj)

        monkeypatch.setattr(verify, "forward", recorded)
        monkeypatch.setattr(verify, "backward", swept)
        check_rk4_order(Problem(o, config, data))
        assert sorted(m for _, m in fwd) == [25, 50, 100, 200, 400]
        first = verify.probes(o, config, 1)[0]
        assert np.any(first != 0.0)
        assert len(bwd) == 5
        for c in [c for c, _ in fwd] + bwd:
            np.testing.assert_array_equal(c, first)
        bwd.clear()
        check_coefficient_gradient(Problem(o, config, data), n_probes=1)
        assert len(bwd) == 1 and len(bwd[0]) == 1   # its one probe
        np.testing.assert_array_equal(bwd[0][0], first)

    @pytest.mark.parametrize("problem", ["linear", "mlp"])
    def test_shared_problem_reads_the_coefficient_checks_level_bitwise(
            self, monkeypatch, problem):
        # configs/linear.json and criterion 3's mlp problem, each at 200
        # steps, an order level: after the coefficient check the order check
        # integrates the four other levels, and its report equals a
        # standalone one's bit for bit
        o, config, data = (linear_json_problem() if problem == "linear"
                           else mlp_check_problem(seed=61, steps=200,
                                                  n_basis=3))
        steps = count_levels(monkeypatch)
        alone = check_rk4_order(Problem(o, config, data))
        assert sorted(steps) == [25, 50, 100, 200, 400]
        shared = Problem(o, config, data)
        check_coefficient_gradient(shared, n_probes=1)
        # copies, not views that would keep the coefficient check's stack
        theta_t, p_0 = shared.levels[200]
        assert theta_t.base is None and p_0.base is None
        traj, adj, _ = sweep(o, verify.probes(o, config, 1)[0], config, data)
        np.testing.assert_array_equal(theta_t, traj.theta_final)
        np.testing.assert_array_equal(p_0, adj.p_nodes[0])
        steps.clear()
        assert check_rk4_order(shared) == alone
        assert sorted(steps) == [25, 50, 100, 400]

    def test_steps_off_the_levels_sweep_all_five(self, monkeypatch):
        # a coefficient check at 30 steps keeps a level the order check
        # does not read
        o, config, data = quad_setup(steps=30)
        problem, steps = Problem(o, config, data), count_levels(monkeypatch)
        check_coefficient_gradient(problem, n_probes=1)
        assert list(problem.levels) == [30]
        report = check_rk4_order(problem)
        assert sorted(steps) == [25, 50, 100, 200, 400]
        assert report == check_rk4_order(Problem(o, config, data))

    def test_problem_levels_are_no_argument_and_the_record_compares(self):
        # levels integrated, or plans built, under another problem cannot
        # be passed in, and filled records compare and hash by identity,
        # not by their arrays
        o, config, data = quad_setup(steps=30)
        for name in ("levels", "theta0", "flow", "val"):
            with pytest.raises(TypeError):
                Problem(o, config, data, **{name: None})
        problem, other = Problem(o, config, data), Problem(o, config, data)
        for record in (problem, other):
            check_coefficient_gradient(record, n_probes=1)
        assert problem == problem and problem != other
        assert hash(problem) != hash(other)
        with pytest.raises(FrozenInstanceError):
            problem.config = replace(config, steps=25)

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    def test_equal_levels_refused_naming_pair_and_side(self, monkeypatch,
                                                        side):
        # a flow or costate that does not move has an error of 0 at every
        # level, whose log was -inf and whose slope was NaN
        o, config, data = quad_setup(steps=20)

        def still_flow(*args):
            traj = forward(*args)
            return replace(traj, theta_fine=np.zeros_like(traj.theta_fine))

        def still_costate(*args):
            adj, g = backward(*args)
            return replace(adj, p_half=np.zeros_like(adj.p_half)), g

        if side == "forward":
            monkeypatch.setattr(verify, "forward", still_flow)
        else:
            monkeypatch.setattr(verify, "backward", still_costate)
        with warnings_as_errors(), pytest.raises(
                ValueError, match=f"the {side} solutions at 25 and 50 steps "
                                  f"are equal"):
            check_rk4_order(Problem(o, config, data))

    def test_forward_midpoint_control_at_step_start_fails(self, monkeypatch):
        # configs/linear.json: the forward pass's k2 taken under the step's
        # start control u1, not its midpoint control u2, is first order in
        # the control, which the null control would not show
        o, config, data = linear_json_problem()
        stage, u1 = itertools.count(), [None]

        def k2_under_u1(plan, theta, u, eps):
            i = next(stage) % 4   # a step's k1, k2, k3 and k4, in turn
            if i == 0:
                u1[0] = u
            return forward_rhs(plan, theta, u1[0] if i == 1 else u, eps)

        monkeypatch.setattr(dynamics, "forward_rhs", k2_under_u1)
        report = check_rk4_order(Problem(o, config, data))
        assert not report.passed, report.to_dict()
        assert abs(report.details[0]["forward_slope"] - 1.0) <= 0.1

    def test_adjoint_end_stage_at_midpoint_fails(self, monkeypatch):
        # configs/linear.json: the adjoint's end-stage K formed at the
        # midpoint row 2j-1, not at row 2j-2, is first order in the control
        o, config, data = linear_json_problem()

        def m4_at_midpoint(plan, theta, gt, u, eps):
            # a sweep forms K at row 4M, then at rows 4a..4a+3 of each grid
            # step a in one call: the end-stage rows 4a and 4a+2 take the
            # K of the midpoint rows 4a+1 and 4a+3
            k = adjoint_matrix(plan, theta, gt, u, eps)
            return k[[1, 1, 3, 3]] if len(theta) == 4 else k

        monkeypatch.setattr(dynamics, "adjoint_matrix", m4_at_midpoint)
        report = check_rk4_order(Problem(o, config, data))
        assert not report.passed, report.to_dict()
        assert abs(report.details[0]["forward_slope"] - 4.0) <= 0.3
        assert abs(report.details[0]["adjoint_slope"] - 1.0) <= 0.1
