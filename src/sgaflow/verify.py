"""Independent numerical oracles: dJ/dC = -G against central differences
of J along random directions in C-space (a Taylor test), the RK4 order of
the forward and backward integrations read off successive grid levels, and
the value-function/costate identity at initial time, whose value gradient
fd_gradient takes entry by entry."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import ControlCoefficients, project_admissible
from .dynamics import TimeGrid, integrate_adjoint, integrate_forward
from .model import ModelOracle
from .sga import ProblemData, SolverConfig, cost, costs, solve, sweep

# random directions along which each probe differences J
DIRECTIONS = 4


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


def check_coefficient_gradient(oracle: ModelOracle, config: SolverConfig,
                               data: ProblemData, n_probes: int = 5,
                               tol: float = 1e-6, fd_step: float = 1e-4,
                               seed: int = 0) -> CheckReport:
    """Check dJ/dC = -G at random admissible coefficients C: along each of
    DIRECTIONS random unit directions D, -<G, D> against the central
    difference (J(C + hD) - J(C - hD)) / 2h.  The 2 * DIRECTIONS flows of
    every probe are integrated as one batch, so the check's cost does not
    depend on the number of coefficients."""
    if fd_step <= 0:
        raise ValueError("step must be > 0")
    rng = np.random.default_rng(seed)
    directions = np.random.default_rng([seed, 1])
    p, n = oracle.param_dim, config.basis.n
    analytic, trials = [], []
    for _ in range(n_probes):
        c0 = rng.uniform(-0.5, 0.5, size=(p, n))
        coeffs = project_admissible(
            ControlCoefficients(c0, config.basis, config.u_max),
            config.projection_grid)
        _, _, grad = sweep(oracle, coeffs, config, data)
        d = directions.standard_normal((DIRECTIONS, p, n))
        d /= np.linalg.norm(d, axis=(1, 2), keepdims=True)
        analytic.append(-np.einsum("ij,kij->k", grad, d))
        trials.append(coeffs.c + fd_step * np.concatenate([d, -d]))
    js = costs(oracle, np.concatenate(trials), config,
               data).reshape(n_probes, 2, DIRECTIONS)
    details = []
    for probe, (a, j) in enumerate(zip(analytic, js)):
        if not np.all(np.isfinite(j)):
            raise ValueError(f"non-finite cost near the coefficients of "
                             f"probe {probe}")
        fd = (j[0] - j[1]) / (2.0 * fd_step)
        scale = max(np.max(np.abs(a)), np.max(np.abs(fd)), 1e-12)
        err = float(np.max(np.abs(a - fd)) / scale)
        details.append({"probe": probe, "rel_err": err})
    worst = max(d["rel_err"] for d in details)
    return CheckReport("coefficient_gradient_vs_fd", worst, tol, details)


def check_dp_identity(oracle: ModelOracle, config: SolverConfig,
                      data: ProblemData, delta: float = 1e-3,
                      tol: float = 0.05) -> CheckReport:
    """Check that the costate at t=0 equals minus the value-function gradient.

    The value function is probed by re-solving the control problem from
    perturbed initial states theta0 +/- delta*e_i; the frozen-control variant
    (control fixed at the base optimizer) is reported alongside.
    """
    p = oracle.param_dim
    if p > 3:
        raise ValueError(f"p <= 3 required for the value-function probe, got {p}")
    base = solve(oracle, config, data)
    theta0 = config.initial_theta(p)
    p0 = sweep(oracle, base.final_coeffs, config, data)[1].p_nodes[0]

    def v_reopt(th0):
        rep = solve(oracle, replace(config, theta0=np.asarray(th0)), data)
        return rep.final_cost

    def v_frozen(th0):
        return cost(oracle, base.final_coeffs,
                    replace(config, theta0=np.asarray(th0)), data)

    grad_reopt = fd_gradient(v_reopt, theta0, delta)
    grad_frozen = fd_gradient(v_frozen, theta0, delta)
    scale = max(np.max(np.abs(p0)), np.max(np.abs(grad_reopt)), 1e-12)
    err = float(np.max(np.abs(grad_reopt - (-p0))) / scale)
    err_frozen = float(np.max(np.abs(grad_frozen - (-p0))) / scale)
    details = [{
        "costate_t0": p0.tolist(),
        "value_grad_reoptimized": grad_reopt.tolist(),
        "value_grad_frozen_control": grad_frozen.tolist(),
        "rel_err_reoptimized": err,
        "rel_err_frozen_control": err_frozen,
        "delta": delta,
        "base_converged": base.converged,
    }]
    return CheckReport("dp_identity_t0", err, tol, details)


def check_rk4_order(oracle: ModelOracle, config: SolverConfig,
                    data: ProblemData,
                    step_counts=(25, 50, 100, 200)) -> CheckReport:
    """Fit the log-log slope of final-state and initial-costate error versus
    step size, reading level m's error as |x_m - x_2m| rather than against a
    finer reference run; RK4 should give slope 4."""
    if len(step_counts) < 3:
        raise ValueError("need >= 3 grid levels for a slope fit")
    theta0 = config.initial_theta(oracle.param_dim)
    coeffs = config.initial_coefficients(oracle.param_dim)

    def run(steps):
        grid = TimeGrid(config.basis.t_final, steps)
        traj = integrate_forward(oracle, theta0, coeffs, config.eps,
                                 data.z_train, data.z_dith, grid)
        adj = integrate_adjoint(oracle, traj, data.z_val)
        return traj.theta_final, adj.p_nodes[0]

    level = {m: run(m) for m in {*step_counts, *(2 * m for m in step_counts)}}
    hs = [config.basis.t_final / m for m in step_counts]
    errs = [[np.linalg.norm(x - x2) for x, x2 in zip(level[m], level[2 * m])]
            for m in step_counts]   # (levels, 2): forward, adjoint
    slope_f, slope_b = map(float, np.polyfit(np.log(hs), np.log(errs), 1)[0])
    # report deviation from 4 as the error; tolerance 0.3 per the order bound
    err = max(abs(slope_f - 4.0), abs(slope_b - 4.0))
    details = [{"forward_slope": slope_f, "adjoint_slope": slope_b,
                "step_counts": list(step_counts)}]
    return CheckReport("rk4_order", err, 0.3, details)
