import itertools
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from sgaflow import ModelOracle, ProblemData, cli, dynamics, sga, verify
from sgaflow.basis import BasisSpec, project_admissible
from sgaflow.dynamics import (adjoint_matrix, forward_rhs, integrate_adjoint,
                              integrate_forward)
from sgaflow.sga import SolverConfig, backward, cost, forward, sweep
from sgaflow.verify import (CheckProblem, check_coefficient_gradient,
                            check_dp_identity, check_rk4_order, fd_gradient)

from conftest import (linear_problem, mlp_check_problem, quadratic_datasets,
                      warnings_as_errors)

ROOT = Path(__file__).resolve().parents[1]


def quad_setup(p=1, steps=100, n=2, eps=0.1, u_max=5.0, **kw):
    z1, zd, zv = quadratic_datasets(p)
    basis = BasisSpec("legendre_shifted", n, 1.0)
    config = SolverConfig(eps=eps, steps=steps, basis=basis,
                          u_max=u_max, theta0=np.ones(p), **kw)
    return (ModelOracle("linear_features", p), config,
            ProblemData(z1, zd, zv))


def linear_json_problem():
    """configs/linear.json, as `sgaflow gradcheck` checks it."""
    cfg = cli.load_config(ROOT / "configs" / "linear.json")
    data = cli.build_data(cfg["data"])
    return (cli.build_oracle(cfg["model"], data.z_train.d),
            cli.build_solver_config(cfg), data)


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
        report = check_coefficient_gradient(CheckProblem(o, config, data),
                                            n_probes=3)
        assert report.passed, report.to_dict()

    def test_mlp_family_passes(self):
        o, config, data = mlp_check_problem(seed=51, steps=100, n_basis=2)
        report = check_coefficient_gradient(CheckProblem(o, config, data),
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
        report = check_coefficient_gradient(CheckProblem(o, config, data),
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
        serial = []
        for probe in range(n_probes):
            coeffs = project_admissible(rng.uniform(-0.5, 0.5, (p, n)),
                                        config.basis, config.u_max,
                                        config.projection_grid)
            _, _, grad = sweep(o, coeffs, config, data)
            d = directions.standard_normal((k, p, n))
            d /= np.linalg.norm(d, axis=(1, 2), keepdims=True)
            js = cost(o, coeffs + fd_step * np.concatenate([d, -d]),
                      config, data)
            fd = (js[:k] - js[k:]) / (2.0 * fd_step)
            analytic = -np.einsum("ij,kij->k", grad, d)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-12)
            serial.append({"probe": probe, "rel_err": float(
                np.max(np.abs(analytic - fd)) / scale)})
        report = check_coefficient_gradient(CheckProblem(o, config, data),
                                            n_probes=n_probes)
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
            check_coefficient_gradient(CheckProblem(o, config, data),
                                       n_probes=2)

    def test_one_forward_and_one_backward_integration(self, monkeypatch):
        # configs/linear.json: the probes and their 2 * DIRECTIONS flows
        # each are one forward stack, and only the probes are swept back
        o, config, data = linear_json_problem()
        fwd, bwd = [], []

        def counted_forward(oracle, theta0, c, *args):
            fwd.append(c.shape)
            return integrate_forward(oracle, theta0, c, *args)

        def counted_adjoint(oracle, traj, *args):
            bwd.append(traj.c.shape)
            return integrate_adjoint(oracle, traj, *args)

        monkeypatch.setattr(sga, "integrate_forward", counted_forward)
        monkeypatch.setattr(sga, "integrate_adjoint", counted_adjoint)
        p, n = o.param_dim, config.basis.n
        for n_probes in (1, 3):
            fwd.clear()
            bwd.clear()
            check_coefficient_gradient(CheckProblem(o, config, data),
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
            check_coefficient_gradient(CheckProblem(o, config, data),
                                       n_probes=n_probes)

    def test_eps_zero_both_sides_vanish(self):
        o, config, data = quad_setup(eps=0.0, steps=50)
        report = check_coefficient_gradient(CheckProblem(o, config, data),
                                            n_probes=1)
        assert report.max_rel_err <= 1e-8, report.to_dict()


class TestCheckDpIdentity:
    def test_quadratic_reoptimized(self):
        o, config, data = quad_setup(steps=100, max_iters=30)
        report = check_dp_identity(o, config, data)
        assert report.passed, report.to_dict()
        # the frozen-control variant differences the same J the sweep
        # differentiates, so it resolves the costate far below tol (8.4e-9);
        # a costate matrix without its eps term reads 1.7e-2 here
        assert report.details[0]["rel_err_frozen_control"] <= 1e-6

    def test_null_control_reduction_is_tight(self):
        o, config, data = quad_setup(steps=100, u_max=0.0, max_iters=3)
        report = check_dp_identity(o, config, data)
        assert report.max_rel_err <= 1e-4, report.to_dict()

    def test_large_probe_step_degrades(self, monkeypatch):
        # far outside the linearization regime the identity visibly breaks
        o, config, data = quad_setup(steps=100, max_iters=10)
        small = check_dp_identity(o, config, data)
        monkeypatch.setattr(verify, "DP_STEP", 1.0)
        large = check_dp_identity(o, config, data)
        assert (small.details[0]["delta"], large.details[0]["delta"]) == (
            1e-3, 1.0)
        assert large.max_rel_err > small.max_rel_err

    def test_refuses_high_dimension(self):
        o, data = linear_problem(d=4, seed=52)
        config = SolverConfig(eps=0.1, steps=50,
                              basis=BasisSpec("legendre_shifted", 2, 1.0),
                              u_max=1.0)
        with pytest.raises(ValueError, match="p <= 3"):
            check_dp_identity(o, config, data)


class TestCheckRk4Order:
    def test_quadratic_slope_near_four(self):
        o, config, data = quad_setup(steps=100)
        report = check_rk4_order(CheckProblem(o, config, data))
        assert report.passed
        d = report.details[0]
        assert 3.7 <= d["forward_slope"] <= 4.3
        assert 3.7 <= d["adjoint_slope"] <= 4.3

    def test_second_order_error_fails(self, monkeypatch):
        # configs/linear.json, as `sgaflow gradcheck` checks it: an O(h^2)
        # term added to every final state must read as slope 2 and fail
        o, config, data = linear_json_problem()
        assert check_rk4_order(CheckProblem(o, config, data)).passed

        def second_order(*args):
            traj = integrate_forward(*args)
            fine = traj.theta_fine.copy()
            fine[-1] += 1e-2 * traj.grid.h ** 2
            return replace(traj, theta_fine=fine)

        monkeypatch.setattr(sga, "integrate_forward", second_order)
        report = check_rk4_order(CheckProblem(o, config, data))
        assert not report.passed
        assert abs(report.details[0]["forward_slope"] - 2.0) <= 0.1

    def test_runs_the_solvers_sweep_at_the_first_probe(self, monkeypatch):
        # configs/linear.json: every level is a sweep at the coefficient
        # check's first probe, on the config with that level's steps
        o, config, data = linear_json_problem()
        seen = []

        def recorded(oracle, coeffs, cfg, *args):
            seen.append((coeffs, replace(cfg, steps=config.steps)))
            return sweep(oracle, coeffs, cfg, *args)

        def stacked(oracle, traj, *args):
            assert len(traj.c) == 1   # the coefficient check's one probe
            seen.append(traj.c[0])
            return backward(oracle, traj, *args)

        monkeypatch.setattr(verify, "sweep", recorded)
        monkeypatch.setattr(verify, "backward", stacked)
        check_rk4_order(CheckProblem(o, config, data))
        assert len(seen) == 5
        first = verify.probes(o, config, 1)[0]
        assert np.any(first != 0.0)
        for c, cfg in seen:
            np.testing.assert_array_equal(c, first)
            assert cfg == config
        seen.clear()
        check_coefficient_gradient(CheckProblem(o, config, data), n_probes=1)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], first)

    @pytest.mark.parametrize("problem", ["linear", "mlp"])
    def test_shared_problem_reads_the_coefficient_checks_level_bitwise(
            self, monkeypatch, problem):
        # configs/linear.json and criterion 3's mlp problem, each at 200
        # steps, an order level: after the coefficient check the order check
        # sweeps the four other levels, and its report equals a standalone
        # one's bit for bit
        o, config, data = (linear_json_problem() if problem == "linear"
                           else mlp_check_problem(seed=61, steps=200,
                                                  n_basis=3))
        steps = []

        def counted(oracle, coeffs, cfg, *args):
            steps.append(cfg.steps)
            return sweep(oracle, coeffs, cfg, *args)

        monkeypatch.setattr(verify, "sweep", counted)
        alone = check_rk4_order(CheckProblem(o, config, data))
        assert sorted(steps) == [25, 50, 100, 200, 400]
        shared = CheckProblem(o, config, data)
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
        problem, steps = CheckProblem(o, config, data), []

        def counted(oracle, coeffs, cfg, *args):
            steps.append(cfg.steps)
            return sweep(oracle, coeffs, cfg, *args)

        monkeypatch.setattr(verify, "sweep", counted)
        check_coefficient_gradient(problem, n_probes=1)
        assert list(problem.levels) == [30]
        report = check_rk4_order(problem)
        assert sorted(steps) == [25, 50, 100, 200, 400]
        assert report == check_rk4_order(CheckProblem(o, config, data))

    def test_problem_levels_are_no_argument_and_the_record_compares(self):
        # levels integrated under another problem cannot be passed in, and
        # filled records compare and hash by identity, not by their arrays
        o, config, data = quad_setup(steps=30)
        with pytest.raises(TypeError):
            CheckProblem(o, config, data, levels={})
        problem, other = CheckProblem(o, config, data), CheckProblem(o, config,
                                                                     data)
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

        def still(oracle, coeffs, cfg, *args):
            traj, adj, g = sweep(oracle, coeffs, cfg, *args)
            if side == "forward":
                traj = replace(traj,
                               theta_fine=np.zeros_like(traj.theta_fine))
            else:
                adj = replace(adj, p_half=np.zeros_like(adj.p_half))
            return traj, adj, g

        monkeypatch.setattr(verify, "sweep", still)
        with warnings_as_errors(), pytest.raises(
                ValueError, match=f"the {side} solutions at 25 and 50 steps "
                                  f"are equal"):
            check_rk4_order(CheckProblem(o, config, data))

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
        report = check_rk4_order(CheckProblem(o, config, data))
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
        report = check_rk4_order(CheckProblem(o, config, data))
        assert not report.passed, report.to_dict()
        assert abs(report.details[0]["forward_slope"] - 4.0) <= 0.3
        assert abs(report.details[0]["adjoint_slope"] - 1.0) <= 0.1
