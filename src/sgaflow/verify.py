"""Independent numerical oracles: finite-difference checks, RK4 order checks,
and the value-function/costate identity at initial time."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import ControlCoefficients, project_admissible
from .dynamics import TimeGrid, integrate_adjoint, integrate_forward
from .model import ModelOracle
from .sga import ProblemData, SolverConfig, cost, costs, forward, solve, sweep

# flows per batch of finite-difference probes, which bounds the batch's
# memory however many coefficients there are
PROBE_BLOCK = 128


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
        return {"name": self.name, "max_rel_err": self.max_rel_err,
                "tol": self.tol, "passed": self.passed,
                "details": self.details}


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


def _fd_cost_gradient(oracle: ModelOracle, coeffs: ControlCoefficients,
                      config: SolverConfig, data: ProblemData,
                      step: float) -> np.ndarray:
    """Central-difference gradient of cost over the entries of coeffs.c, as
    fd_gradient computes it, with the probes integrated as batches of at most
    PROBE_BLOCK flows."""
    cv = coeffs.c.ravel()
    fd = np.empty_like(cv)
    half = PROBE_BLOCK // 2
    for lo in range(0, cv.shape[0], half):
        idx = np.arange(lo, min(lo + half, cv.shape[0]))
        rows = np.arange(idx.shape[0])
        # rows +step on entry idx[r], then rows -step on the same entries
        cs = np.tile(cv, (2 * idx.shape[0], 1))
        cs[rows, idx] += step
        cs[rows + idx.shape[0], idx] -= step
        js = costs(oracle, cs.reshape((-1,) + coeffs.c.shape), config, data)
        fp, fm = js[:idx.shape[0]], js[idx.shape[0]:]
        bad = ~(np.isfinite(fp) & np.isfinite(fm))
        if np.any(bad):
            i = int(idx[np.argmax(bad)])
            raise ValueError(f"non-finite function value near component {i}")
        fd[idx] = (fp - fm) / (2.0 * step)
    return fd.reshape(coeffs.c.shape)


def check_coefficient_gradient(oracle: ModelOracle, config: SolverConfig,
                               data: ProblemData, n_probes: int = 5,
                               tol: float = 1e-5, fd_step: float = 1e-5,
                               seed: int = 0) -> CheckReport:
    """Compare the analytic coefficient gradient against finite differences
    of the cost over vectorized C, at random admissible coefficients."""
    if fd_step <= 0:
        raise ValueError("step must be > 0")
    rng = np.random.default_rng(seed)
    p = oracle.param_dim
    n = config.basis.n
    details = []
    worst = 0.0
    for probe in range(n_probes):
        c0 = rng.uniform(-0.5, 0.5, size=(p, n))
        coeffs = project_admissible(
            ControlCoefficients(c0, config.basis, config.u_max),
            config.projection_grid)
        _, _, grad = sweep(oracle, coeffs, config, data)
        fd = _fd_cost_gradient(oracle, coeffs, config, data, fd_step)
        scale = max(np.max(np.abs(grad)), np.max(np.abs(fd)), 1e-12)
        err = float(np.max(np.abs(-grad - fd)) / scale)
        details.append({"probe": probe, "rel_err": err})
        worst = max(worst, err)
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
    traj = forward(oracle, base.final_coeffs, config, data)
    adj = integrate_adjoint(oracle, traj, base.final_coeffs, config.eps,
                            data.z_train, data.z_dith, data.z_val)
    p0 = adj.p_nodes[0]

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
    step size against fine-grid references; RK4 should give slope 4."""
    if len(step_counts) < 3:
        raise ValueError("need >= 3 grid levels for a slope fit")
    theta0 = config.initial_theta(oracle.param_dim)
    coeffs = config.initial_coefficients(oracle.param_dim)

    def run(steps):
        grid = TimeGrid(config.t_final, steps)
        traj = integrate_forward(oracle, theta0, coeffs, config.eps,
                                 data.z_train, data.z_dith, grid,
                                 config.divergence_bound)
        adj = integrate_adjoint(oracle, traj, coeffs, config.eps,
                                data.z_train, data.z_dith, data.z_val)
        return traj.theta_final, adj.p_nodes[0]

    ref_theta, ref_p = run(max(step_counts) * 8)
    hs, errs_f, errs_b = [], [], []
    for m in step_counts:
        th, pv = run(m)
        hs.append(config.t_final / m)
        errs_f.append(np.linalg.norm(th - ref_theta))
        errs_b.append(np.linalg.norm(pv - ref_p))
    slope_f = float(np.polyfit(np.log(hs), np.log(errs_f), 1)[0])
    slope_b = float(np.polyfit(np.log(hs), np.log(errs_b), 1)[0])
    # report deviation from 4 as the error; tolerance 0.3 per the order bound
    err = max(abs(slope_f - 4.0), abs(slope_b - 4.0))
    details = [{"forward_slope": slope_f, "adjoint_slope": slope_b,
                "step_counts": list(step_counts)}]
    return CheckReport("rk4_order", err, 0.3, details)
