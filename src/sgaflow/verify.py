"""Independent numerical oracles: dJ/dC = -G against central differences
of J along random directions in C-space (a Taylor test), the RK4 order of
the forward and backward integrations read off successive grid levels, and
the value-function/costate identity at initial time, whose value gradient
fd_gradient takes entry by entry.  A check's steps, seeds, tolerances and
levels are the constants below.  The checks run the solver's own
forward/backward pair at one seeded (count, p, n) stack of controls
(probes): the coefficient check as one sga.forward stack of the probes and
their difference flows, swept back by sga.backward over the probes alone,
the order check as sga.sweep at the first probe, so the control moves;
the two share the first probe's levels through a CheckProblem."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import project_admissible
from .model import ModelOracle, loss_plan
from .sga import (ProblemData, SolverConfig, backward, cost, forward, solve,
                  sweep)

PROBE_SEED = 0                  # seed of the stream of probe controls
DIRECTION_SEED = (0, 1)         # seed of the gradient check's directions,
DIRECTIONS = 4                  # their number per probe,
FD_STEP = 1e-4                  # its difference step in C
GRAD_TOL = 1e-6                 # and its tolerance
ORDER_LEVELS = (25, 50, 100, 200)   # order check's grids, each run at 2m too
ORDER_TOL = 0.3                 # and its tolerance on |slope - 4|
DP_STEP = 1e-3                  # value-function check's step in theta0
DP_TOL = 0.05                   # and its tolerance


@dataclass(frozen=True, eq=False)
class CheckProblem:
    """One problem the checks run on, and the first probe's final state
    theta(T) and initial costate p(0), by step count, for each grid that a
    check has integrated it on."""

    oracle: ModelOracle
    config: SolverConfig
    data: ProblemData
    levels: dict = field(default_factory=dict, init=False,
                         repr=False)   # steps -> (theta(T), p(0))


@dataclass
class CheckReport:
    name: str
    max_rel_err: float
    tol: float
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verdict(reports: list, quiet: bool = False) -> int:
    """Print each check's PASS/FAIL line unless quiet; 1 if one failed."""
    if not quiet:
        for r in reports:
            print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
                  f"(err={r.max_rel_err:.3e}, tol={r.tol:.1e})")
    return 0 if all(r.passed for r in reports) else 1


def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    if step <= 0:
        raise ValueError("step must be > 0")
    x = np.asarray(x, dtype=float).ravel()
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near component {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g


def probes(oracle: ModelOracle, config: SolverConfig,
           count: int) -> np.ndarray:
    """The first count controls the checks run at, as a (count, p, n) stack:
    C with entries drawn uniform on [-0.5, 0.5] from PROBE_SEED, projected
    onto the admissible set of config."""
    c = np.random.default_rng(PROBE_SEED).uniform(
        -0.5, 0.5, size=(count, oracle.param_dim, config.basis.n))
    return project_admissible(c, config.basis, config.u_max,
                              config.projection_grid)


def check_coefficient_gradient(problem: CheckProblem,
                               n_probes: int = 5) -> CheckReport:
    """Check dJ/dC = -G at the first n_probes >= 1 probes: along each of
    DIRECTIONS random unit directions D, -<G, D> against the central
    difference (J(C + hD) - J(C - hD)) / 2h, h = FD_STEP, to GRAD_TOL.  The
    probes and the 2 * DIRECTIONS flows of every probe are integrated
    forward as one stack, and swept back over the probes' members alone, so
    the check's cost does not depend on the number of coefficients.  The
    first probe's theta(T) and p(0) are kept in problem.levels under
    config.steps, as copies, so the stack is freed when the check returns."""
    oracle, config, data = problem.oracle, problem.config, problem.data
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    cs = probes(oracle, config, n_probes)
    ds = np.random.default_rng(DIRECTION_SEED).standard_normal(
        (n_probes, DIRECTIONS) + cs.shape[1:])
    ds /= np.linalg.norm(ds, axis=(2, 3), keepdims=True)
    trials = cs[:, None] + FD_STEP * np.concatenate([ds, -ds], axis=1)
    traj = forward(oracle, np.concatenate([cs, *trials]), config, data)
    adj, grads = backward(oracle, replace(
        traj, theta_fine=traj.theta_fine[:, :n_probes],
        gt_fine=traj.gt_fine[:, :n_probes], c=traj.c[:n_probes]), data.z_val)
    problem.levels[config.steps] = (traj.theta_final[0].copy(),
                                    adj.p_nodes[0, 0].copy())
    val = loss_plan(oracle, data.z_val)
    js = np.array([val.value(th) for th in traj.theta_final[n_probes:]])
    details = []
    for probe, (grad, d, j) in enumerate(
            zip(grads, ds, js.reshape(n_probes, 2, DIRECTIONS))):
        if not np.all(np.isfinite(j)):
            raise ValueError(f"non-finite cost near the coefficients of "
                             f"probe {probe}")
        a = -np.einsum("ij,kij->k", grad, d)
        fd = (j[0] - j[1]) / (2.0 * FD_STEP)
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        err = float(np.max(np.abs(a - fd)) / scale)
        details.append({"probe": probe, "rel_err": err})
    worst = max(d["rel_err"] for d in details)
    return CheckReport("coefficient_gradient_vs_fd", worst, GRAD_TOL, details)


def check_dp_identity(oracle: ModelOracle, config: SolverConfig,
                      data: ProblemData) -> CheckReport:
    """Check that the costate at t=0 equals minus the value-function
    gradient, to DP_TOL.

    The value function is probed by re-solving the control problem from
    perturbed initial states theta0 +/- DP_STEP*e_i; the frozen-control
    variant (control fixed at the base optimizer) is reported alongside.
    """
    p = oracle.param_dim
    if p > 3:
        raise ValueError(f"p <= 3 required for the value-function probe, got {p}")
    base = solve(oracle, config, data)
    theta0 = config.initial_theta(p)
    p0 = sweep(oracle, base.final_coeffs, config, data)[1].p_nodes[0]

    def v_reopt(th0):
        return solve(oracle, replace(config, theta0=np.asarray(th0)),
                     data).final_cost

    def v_frozen(th0):
        return cost(oracle, base.final_coeffs,
                    replace(config, theta0=np.asarray(th0)), data)

    grad_reopt = fd_gradient(v_reopt, theta0, DP_STEP)
    grad_frozen = fd_gradient(v_frozen, theta0, DP_STEP)
    scale = max(np.max(np.abs(p0)), np.max(np.abs(grad_reopt)), 1e-12)
    err = float(np.max(np.abs(grad_reopt - (-p0))) / scale)
    err_frozen = float(np.max(np.abs(grad_frozen - (-p0))) / scale)
    details = [{
        "costate_t0": p0.tolist(),
        "value_grad_reoptimized": grad_reopt.tolist(),
        "value_grad_frozen_control": grad_frozen.tolist(),
        "rel_err_reoptimized": err,
        "rel_err_frozen_control": err_frozen,
        "delta": DP_STEP,
        "base_converged": base.converged,
    }]
    return CheckReport("dp_identity_t0", err, DP_TOL, details)


def check_rk4_order(problem: CheckProblem) -> CheckReport:
    """Fit the log-log slope of final-state and initial-costate error versus
    step size at the first probe, reading the error of level m's sweep (on
    config with m steps) as |x_m - x_2m| rather than against a finer
    reference run; RK4 should give slope 4, to ORDER_TOL.  A level already
    in problem.levels is read, not swept again.  Refuses exactly equal
    solutions at two levels, as a still flow gives: 0 has no log."""
    oracle, config, data = problem.oracle, problem.config, problem.data
    c, level = probes(oracle, config, 1)[0], dict(problem.levels)
    for m in {*ORDER_LEVELS, *(2 * m for m in ORDER_LEVELS)} - level.keys():
        traj, adj, _ = sweep(oracle, c, replace(config, steps=m), data)
        level[m] = traj.theta_final, adj.p_nodes[0]
    hs = [config.basis.t_final / m for m in ORDER_LEVELS]
    errs = [[np.linalg.norm(x - x2) for x, x2 in zip(level[m], level[2 * m])]
            for m in ORDER_LEVELS]   # (levels, 2): forward, adjoint
    equal = next(((m, side) for m, pair in zip(ORDER_LEVELS, errs)
                  for side, e in zip(("forward", "adjoint"), pair)
                  if e == 0.0), None)
    if equal:
        m, side = equal
        raise ValueError(f"rk4 order check: the {side} solutions at {m} and "
                         f"{2 * m} steps are equal, so they give no order")
    slope_f, slope_b = map(float, np.polyfit(np.log(hs), np.log(errs), 1)[0])
    err = max(abs(slope_f - 4.0), abs(slope_b - 4.0))
    details = [{"forward_slope": slope_f, "adjoint_slope": slope_b,
                "step_counts": list(ORDER_LEVELS)}]
    return CheckReport("rk4_order", err, ORDER_TOL, details)
