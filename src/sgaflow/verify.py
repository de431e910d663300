"""Independent numerical oracles: dJ/dC = -G against central differences
of J along random directions in C-space (a Taylor test), the RK4 order of
the forward and backward integrations read off successive grid levels, and
the value-function/costate identity p(0) = -grad V(theta0) against central
differences of V along orthonormal directions in theta0.  A check's steps,
seeds, tolerances and levels are the constants below.  The first two
checks run the solver's own forward/backward pair at one seeded
(count, p, n) stack of controls (probes): the coefficient check as one
sga.forward stack of the probes and their difference flows, swept back by
sga.backward over the probes alone, the order check as sga.forward and
sga.backward at the first probe on each level's grid, so the control moves.
Every check takes an sga.Problem, whose plans its passes share; the first
two also share the first probe's levels through it."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import project_admissible
from .model import ModelOracle
from .sga import (GRAD_TOL, Problem, SolverConfig, backward, cost, forward,
                  solve)

PROBE_SEED = 0                  # seed of the stream of probe controls
DIRECTION_SEED = (0, 1)         # seed of the directions in C and theta0
DIRECTIONS = 4                  # and their number, per probe and at most p
FD_STEP = 1e-4                  # gradient check's step in C, to GRAD_TOL
ORDER_LEVELS = (25, 50, 100, 200)   # order check's grids, each run at 2m too
ORDER_TOL = 0.3                 # and its tolerance on |slope - 4|
DP_STEP = 1e-3                  # value-function check's step in theta0
DP_TOL = 0.05                   # and its tolerance


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


def probes(oracle: ModelOracle, config: SolverConfig,
           count: int) -> np.ndarray:
    """The first count controls the checks run at, as a (count, p, n) stack:
    C with entries drawn uniform on [-0.5, 0.5] from PROBE_SEED, projected
    onto the admissible set of config."""
    c = np.random.default_rng(PROBE_SEED).uniform(
        -0.5, 0.5, size=(count, oracle.param_dim, config.basis.n))
    return project_admissible(c, config.basis, config.u_max,
                              config.projection_grid)


def check_coefficient_gradient(problem: Problem,
                               n_probes: int = 5) -> CheckReport:
    """Check dJ/dC = -G at the first n_probes >= 1 probes: along each of
    DIRECTIONS random unit directions D, -<G, D> against the central
    difference (J(C + hD) - J(C - hD)) / 2h, h = FD_STEP, to GRAD_TOL.  The
    probes and the 2 * DIRECTIONS flows of every probe are integrated
    forward as one stack, and swept back over the probes' members alone, so
    the check's cost does not depend on the number of coefficients.  The
    first probe's theta(T) and p(0) are kept in problem.levels under
    config.steps, as copies, so the stack is freed when the check returns.
    Refuses a probe whose slopes and differences are all exactly 0, as a
    control without effect gives: it would pass testing nothing."""
    config = problem.config
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    cs = probes(problem.oracle, config, n_probes)
    ds = np.random.default_rng(DIRECTION_SEED).standard_normal(
        (n_probes, DIRECTIONS) + cs.shape[1:])
    ds /= np.linalg.norm(ds, axis=(2, 3), keepdims=True)
    trials = cs[:, None] + FD_STEP * np.concatenate([ds, -ds], axis=1)
    traj = forward(problem, np.concatenate([cs, *trials]))
    adj, grads = backward(problem, replace(
        traj, theta_fine=traj.theta_fine[:, :n_probes],
        gt_fine=traj.gt_fine[:, :n_probes], c=traj.c[:n_probes]))
    problem.levels[config.steps] = (traj.theta_final[0].copy(),
                                    adj.p_nodes[0, 0].copy())
    js = np.array([problem.val.value(th)
                   for th in traj.theta_final[n_probes:]])
    details = []
    for probe, (grad, d, j) in enumerate(
            zip(grads, ds, js.reshape(n_probes, 2, DIRECTIONS))):
        if not np.all(np.isfinite(j)):
            raise ValueError(f"non-finite cost near the coefficients of "
                             f"probe {probe}")
        a = -np.einsum("ij,kij->k", grad, d)
        fd = (j[0] - j[1]) / (2.0 * FD_STEP)
        if not (np.any(a) or np.any(fd)):
            raise ValueError(f"coefficient gradient check: G and the cost "
                             f"differences at probe {probe} are all 0, so "
                             f"they test nothing")
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        err = float(np.max(np.abs(a - fd)) / scale)
        details.append({"probe": probe, "rel_err": err})
    worst = max(d["rel_err"] for d in details)
    return CheckReport("coefficient_gradient_vs_fd", worst, GRAD_TOL, details)


def check_dp_identity(problem: Problem) -> CheckReport:
    """Check that the costate at t=0 equals minus the value-function
    gradient, to DP_TOL: along each of k = min(p, DIRECTIONS) orthonormal
    directions D, the columns of the QR factor of a (p, k) Gaussian drawn
    from DIRECTION_SEED, -<p(0), D> against the central difference
    (V(theta0 + hD) - V(theta0 - hD)) / 2h, h = DP_STEP, with V the final
    cost of the control problem re-solved from each perturbed theta0.  The
    frozen-control variant, V the cost under the base optimizer, is
    reported alongside."""
    theta0, p = problem.theta0, problem.oracle.param_dim
    base = solve(problem)
    p0 = backward(problem, forward(problem, base.final_coeffs))[0].p_nodes[0]
    k = min(p, DIRECTIONS)
    rng = np.random.default_rng(DIRECTION_SEED)
    ds = np.linalg.qr(rng.standard_normal((p, k)))[0].T   # (k, p)
    starts = [replace(problem, config=replace(problem.config, theta0=th))
              for th in (*(theta0 + DP_STEP * ds), *(theta0 - DP_STEP * ds))]
    v = np.array([[solve(s).final_cost for s in starts],
                  [cost(s, base.final_coeffs) for s in starts]])
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite value function near theta0")
    a = -ds @ p0
    fd_reopt, fd_frozen = (v[:, :k] - v[:, k:]) / (2.0 * DP_STEP)
    scale = max(np.max(np.abs(a)), np.max(np.abs(fd_reopt)), 1e-12)
    err = float(np.max(np.abs(a - fd_reopt)) / scale)
    err_frozen = float(np.max(np.abs(a - fd_frozen)) / scale)
    details = [{
        "costate_t0": p0.tolist(),
        "costate_slopes": a.tolist(),
        "value_slopes_reoptimized": fd_reopt.tolist(),
        "value_slopes_frozen_control": fd_frozen.tolist(),
        "rel_err_reoptimized": err,
        "rel_err_frozen_control": err_frozen,
        "delta": DP_STEP,
        "base_converged": base.converged,
    }]
    return CheckReport("dp_identity_t0", err, DP_TOL, details)


def check_rk4_order(problem: Problem) -> CheckReport:
    """Fit the log-log slope of final-state and initial-costate error versus
    step size at the first probe, reading the error of level m's forward
    and backward pass (on m grid steps) as |x_m - x_2m| rather than against
    a finer reference run; RK4 should give slope 4, to ORDER_TOL.  A level
    already in problem.levels is read, not integrated again.  Refuses
    exactly equal solutions at two levels, as a still flow gives: 0 has no
    log."""
    c = probes(problem.oracle, problem.config, 1)[0]
    level = dict(problem.levels)
    for m in {*ORDER_LEVELS, *(2 * m for m in ORDER_LEVELS)} - level.keys():
        traj = forward(problem, c, m)
        level[m] = traj.theta_final, backward(problem, traj)[0].p_nodes[0]
    hs = [problem.config.basis.t_final / m for m in ORDER_LEVELS]
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
