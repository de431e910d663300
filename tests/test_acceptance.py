"""End-to-end acceptance suite.

Each test prints one CRITERION line with pass/fail so the whole gate can be
read off a plain `pytest -s tests/test_acceptance.py` run.
"""

import json
import time

import numpy as np
import pytest

import sgaflow as sf
from sgaflow import cli
from sgaflow.basis import BasisSpec, eval_control, project_admissible
from sgaflow.dynamics import hamiltonian, integrate_adjoint, integrate_forward
from sgaflow.model import flow_plan
from sgaflow.sga import (Problem, ProblemData, SolverConfig, cost, forward,
                         solve)
from sgaflow.verify import check_coefficient_gradient, check_dp_identity

from conftest import mlp_check_problem, quadratic_datasets


def report(num, name, ok, detail=""):
    print(f"CRITERION {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def quad_problem(p=1):
    z1, zd, zv = quadratic_datasets(p)
    return sf.ModelOracle("linear_features", p), ProblemData(z1, zd, zv)


@pytest.fixture(scope="module")
def descent_run():
    """Criterion 4's synthetic linear task, shared with criterion 7."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 2))
    y = x @ rng.standard_normal(2)
    z0 = sf.Dataset(x, y)
    z1 = sf.bootstrap(z0, 100, True, 1, tag="train")
    z2 = sf.bootstrap(z0, 100, True, 2, tag="validation")
    zd = sf.dither(z1, 0.05, 3)
    oracle = sf.ModelOracle("linear_features", 2)
    data = ProblemData(z1, zd, z2)
    config = SolverConfig(eps=0.1, steps=200,
                          basis=BasisSpec("legendre_shifted", 4, 1.0),
                          u_max=5.0, max_iters=30)
    problem = Problem(oracle, config, data)
    return problem, solve(problem)


def test_criterion_1_closed_form_flow():
    start = time.time()
    oracle, data = quad_problem()
    basis = BasisSpec("legendre_shifted", 2, 1.0)
    traj = integrate_forward(flow_plan(oracle, data.z_train, data.z_dith),
                             np.ones(1), np.zeros((1, 2)), basis, 0.1, 100)
    adj = integrate_adjoint(oracle, traj, data.z_val)
    err_f = abs(traj.theta_final[0] - np.exp(-1.0))
    err_b = abs(adj.p_nodes[0][0] + np.exp(-2.0))
    elapsed = time.time() - start
    report(1, "closed-form flow",
           err_f <= 1e-9 and err_b <= 1e-8 and elapsed < 1.0,
           f"theta_err={err_f:.2e} costate_err={err_b:.2e} t={elapsed:.2f}s")


def test_criterion_2_rk4_order():
    start = time.time()
    oracle, data = quad_problem()
    plan = flow_plan(oracle, data.z_train, data.z_dith)
    basis = BasisSpec("legendre_shifted", 2, 1.0)
    hs, ef, eb = [], [], []
    for m in (25, 50, 100, 200):
        traj = integrate_forward(plan, np.ones(1), np.zeros((1, 2)), basis,
                                 0.0, m)
        adj = integrate_adjoint(oracle, traj, data.z_val)
        hs.append(1.0 / m)
        ef.append(abs(traj.theta_final[0] - np.exp(-1.0)))
        eb.append(abs(adj.p_nodes[0][0] + np.exp(-2.0)))
    slope_f = np.polyfit(np.log(hs), np.log(ef), 1)[0]
    slope_b = np.polyfit(np.log(hs), np.log(eb), 1)[0]
    elapsed = time.time() - start
    report(2, "RK4 order",
           abs(slope_f - 4.0) <= 0.3 and abs(slope_b - 4.0) <= 0.3
           and elapsed < 5.0,
           f"forward={slope_f:.2f} adjoint={slope_b:.2f} t={elapsed:.2f}s")


def test_criterion_3_gradient_identity():
    start = time.time()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 3))
    y = x @ rng.standard_normal(3)
    z0 = sf.Dataset(x, y)
    z1 = sf.bootstrap(z0, 25, True, 1, tag="train")
    z2 = sf.bootstrap(z0, 25, True, 2, tag="validation")
    zd = sf.dither(z1, 0.05, 3)
    lin = sf.ModelOracle("linear_features", 3)
    lin_cfg = SolverConfig(eps=0.1, steps=400,
                           basis=BasisSpec("legendre_shifted", 4, 1.0),
                           u_max=5.0)
    lin_rep = check_coefficient_gradient(
        Problem(lin, lin_cfg, ProblemData(z1, zd, z2)), n_probes=2)
    mlp_rep = check_coefficient_gradient(
        Problem(*mlp_check_problem(seed=61, steps=200, n_basis=3)),
        n_probes=1)
    elapsed = time.time() - start
    report(3, "gradient identity",
           lin_rep.passed and mlp_rep.passed and elapsed < 30.0,
           f"linear={lin_rep.max_rel_err:.2e} mlp={mlp_rep.max_rel_err:.2e} "
           f"t={elapsed:.1f}s")


def test_criterion_4_monotone_descent(descent_run):
    start = time.time()
    problem, rep = descent_run
    config = problem.config
    j_null = cost(problem, np.zeros((2, config.basis.n)))
    costs = [r.cost for r in rep.iterations]
    monotone = all(b <= a for a, b in zip(costs, costs[1:]))
    dominated = rep.final_cost <= j_null
    strict = (rep.iterations[0].grad_norm <= config.eps_tol
              or rep.final_cost < j_null)
    elapsed = time.time() - start
    report(4, "monotone descent & baseline dominance",
           monotone and dominated and strict and elapsed < 60.0,
           f"J[0]={j_null:.6e} J[u*]={rep.final_cost:.6e} "
           f"iters={len(costs)} t={elapsed:.1f}s")


def test_criterion_5_eps_scaling():
    start = time.time()
    oracle, data = quad_problem()
    plan = flow_plan(oracle, data.z_train, data.z_dith)
    basis = BasisSpec("legendre_shifted", 3, 1.0)
    rng = np.random.default_rng(2)
    coeffs = project_admissible(rng.uniform(-1, 1, (1, 3)), basis, 5.0, 2010)
    base = integrate_forward(plan, np.ones(1), coeffs, basis, 0.0,
                             100).theta_final
    epss = [1e-1, 1e-2, 1e-3, 1e-4]
    diffs = [np.linalg.norm(
        integrate_forward(plan, np.ones(1), coeffs, basis, e,
                          100).theta_final - base)
        for e in epss]
    slope = np.polyfit(np.log(epss), np.log(diffs), 1)[0]
    elapsed = time.time() - start
    report(5, "eps-perturbation scaling",
           abs(slope - 1.0) <= 0.1 and elapsed < 10.0,
           f"slope={slope:.3f} t={elapsed:.1f}s")


def test_criterion_6_dp_identity():
    start = time.time()
    oracle, data = quad_problem()
    basis = BasisSpec("legendre_shifted", 2, 1.0)
    config = SolverConfig(eps=0.1, steps=100, basis=basis,
                          u_max=5.0, theta0=np.array([1.0]), max_iters=30)
    reopt = check_dp_identity(Problem(oracle, config, data))
    null = check_dp_identity(Problem(oracle,
                                     SolverConfig(eps=0.1, steps=100,
                                                  basis=basis, u_max=0.0,
                                                  theta0=np.array([1.0]),
                                                  max_iters=3),
                                     data))
    elapsed = time.time() - start
    report(6, "DP identity at t=0",
           reopt.max_rel_err <= 0.05 and null.max_rel_err <= 1e-4
           and elapsed < 120.0,
           f"reopt={reopt.max_rel_err:.3f} null={null.max_rel_err:.2e} "
           f"t={elapsed:.1f}s")


def test_criterion_7_pmp_dominance(descent_run):
    problem, rep = descent_run
    oracle, config, data = problem.oracle, problem.config, problem.data
    traj = forward(problem, rep.final_coeffs)
    adj = integrate_adjoint(oracle, traj, data.z_val)
    nodes = traj.grid.nodes
    dominant = 0
    for k, t in enumerate(nodes):
        theta = traj.theta_nodes[k]
        p = adj.p_nodes[k]
        u = eval_control(rep.final_coeffs, config.basis, t)
        h_u = hamiltonian(oracle, theta, p, u, config.eps, data.z_train,
                          data.z_dith)
        h_0 = hamiltonian(oracle, theta, p, np.zeros(2), config.eps,
                          data.z_train, data.z_dith)
        if h_u >= h_0 - config.eps_tol:
            dominant += 1
    frac = dominant / len(nodes)
    report(7, "PMP dominance diagnostic", frac >= 0.90, f"fraction={frac:.3f}")


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "data": {"source": {"kind": "linear", "d": 2, "m": 80, "seed": 5},
                 "m_train": 50, "m_val": 50, "noise_level": 0.05},
        "model": {"family": "linear_features"},
        "control": {"eps": 0.1, "t_final": 1.0, "steps": 50, "n_basis": 3,
                    "u_max": 5.0},
        "solver": {"max_iters": 5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(path), "--out", str(out1),
                     "--quiet"]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out2),
                     "--quiet"]) == 0
    names = ("report.json", "metrics.json", "coeffs.csv", "theta_star.csv",
             "trajectory.csv", "adjoint.csv", "manifest.json")
    assert sorted(p.name for p in out1.iterdir()) == sorted(names)
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
               for n in names)
    report(8, "determinism", same, "all seven run artifacts bit-identical")
