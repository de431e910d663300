"""Successive Galerkin approximation solver.

Each sweep integrates the state forward and the costate backward, forms the
gradient of the Hamiltonian with respect to the control coefficients,

    G_ij = eps * int_0^T p_i(t) D_ii(theta(t)) psi_j(t) dt,

and updates C <- project(C + gamma G).  With the terminal condition
p(T) = -grad Phi, ascending the Hamiltonian descends the validation cost,
and the variational identity dJ/dC = -G makes the update self-checking: an
Armijo backtracking line search enforces sufficient decrease of J and
backtracks from a trial step whose flow diverges.

Each Armijo trial integrates its control forward, and the accepted trial's
trajectory is the next sweep's forward pass, so a solver iteration runs one
forward integration per trial and one backward integration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import (BasisSpec, ControlCoefficients, eval_basis_grid,
                    project_admissible, zero_coefficients)
from .dataset import Dataset
from .dynamics import (AdjointTrajectory, DivergenceError, TimeGrid,
                       Trajectory, dithered_gradients, final_states,
                       integrate_adjoint, integrate_forward)
from .model import (ModelOracle, flow_plan, loss_gradient, loss_plan,
                    phi_value)

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 10


@dataclass(frozen=True)
class ProblemData:
    """The three datasets the controlled flow is driven by."""

    z_train: Dataset
    z_dith: Dataset
    z_val: Dataset


@dataclass(frozen=True)
class SolverConfig:
    eps: float
    t_final: float
    steps: int
    basis: BasisSpec
    u_max: float
    gamma0: float = 0.5
    eps_tol: float = 1e-6
    max_iters: int = 50
    theta0: np.ndarray | None = None   # default: zeros
    c0: np.ndarray | None = None       # default: zeros
    divergence_bound: float = 1e8

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError("eps must lie in [0, 1.0]")
        if self.t_final <= 0 or self.steps < 1:
            raise ValueError("need t_final > 0 and steps >= 1")
        if not (0.0 < self.gamma0 <= 1.0):
            raise ValueError("gamma0 must lie in (0, 1]")
        if self.eps_tol <= 0:
            raise ValueError("eps_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.u_max < 0:
            raise ValueError("u_max must be >= 0")
        if abs(self.basis.t_final - self.t_final) > 1e-12 * self.t_final:
            raise ValueError("basis t_final must match solver t_final")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.t_final, self.steps)

    @property
    def projection_grid(self) -> int:
        return 10 * (self.steps + 1)

    def initial_theta(self, p: int) -> np.ndarray:
        if self.theta0 is None:
            return np.zeros(p)
        return np.asarray(self.theta0, dtype=float).ravel()

    def initial_coefficients(self, p: int) -> ControlCoefficients:
        if self.c0 is None:
            return zero_coefficients(p, self.basis, self.u_max)
        coeffs = ControlCoefficients(self.c0, self.basis, self.u_max)
        if coeffs.p != p:
            raise ValueError(f"c0 has {coeffs.p} rows, expected {p}")
        return project_admissible(coeffs, self.projection_grid)


@dataclass
class IterationRecord:
    k: int
    cost: float
    grad_norm: float
    gamma: float
    projected: bool

    def to_dict(self) -> dict:
        return {"k": self.k, "cost": self.cost, "grad_norm": self.grad_norm,
                "gamma": self.gamma, "projected": self.projected}


@dataclass
class SolverReport:
    iterations: list[IterationRecord]
    final_coeffs: ControlCoefficients
    theta_star: np.ndarray
    final_cost: float
    converged: bool
    stop_reason: str  # 'tolerance' | 'max_iters' | 'line_search_failure'

    def to_dict(self) -> dict:
        return {
            "iterations": [r.to_dict() for r in self.iterations],
            "final_coeffs": self.final_coeffs.c.tolist(),
            "theta_star": self.theta_star.tolist(),
            "final_cost": self.final_cost,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        }


def costs(oracle: ModelOracle, cs: np.ndarray, config: SolverConfig,
          data: ProblemData) -> np.ndarray:
    """Validation costs at final time of the flows under each coefficient
    matrix of the (B, p, n) stack cs, integrated as one batch; each entry
    equals cost() of that matrix bit for bit."""
    thetas = final_states(oracle, config.initial_theta(oracle.param_dim), cs,
                          config.basis, config.eps, data.z_train, data.z_dith,
                          config.grid, config.divergence_bound)
    val = loss_plan(oracle, data.z_val)
    return np.array([val.value(th) for th in thetas])


def forward(oracle: ModelOracle, coeffs: ControlCoefficients,
            config: SolverConfig, data: ProblemData) -> Trajectory:
    """The controlled flow from config.initial_theta under coeffs."""
    return integrate_forward(oracle, config.initial_theta(oracle.param_dim),
                             coeffs, config.eps, data.z_train, data.z_dith,
                             config.grid, config.divergence_bound)


def cost(oracle: ModelOracle, coeffs: ControlCoefficients,
         config: SolverConfig, data: ProblemData) -> float:
    """Validation cost at final time of the controlled flow."""
    return phi_value(oracle, forward(oracle, coeffs, config, data).theta_final,
                     data.z_val)


def coefficient_gradient(oracle: ModelOracle, traj: Trajectory,
                         adj: AdjointTrajectory, coeffs: ControlCoefficients,
                         config: SolverConfig, data: ProblemData) -> np.ndarray:
    """Hamiltonian gradient with respect to C, integrated on the time grid.

    Satisfies dJ/dC = -G, so +G is the ascent (cost-descent) direction.
    Composite Simpson over the node and midpoint values; the integrand reads
    grad J~0 at the states through dithered_gradients.
    """
    if traj.grid != adj.grid:
        raise ValueError("state and costate live on different grids")
    grid = traj.grid
    plan = flow_plan(oracle, data.z_train, data.z_dith)

    def integrand_at(ts, thetas, ps):
        gt = dithered_gradients(plan, thetas)
        return config.eps * ps * (gt * gt), eval_basis_grid(coeffs.basis, ts)

    f_nodes, psi_nodes = integrand_at(grid.nodes, traj.theta_nodes,
                                      adj.p_nodes)
    f_mid, psi_mid = integrand_at(grid.midpoints, traj.theta_mid, adj.p_mid)
    w_n = np.full(grid.steps + 1, grid.h / 3.0)
    w_n[0] = w_n[-1] = grid.h / 6.0
    g = (f_nodes * w_n[:, None]).T @ psi_nodes
    g += (2.0 * grid.h / 3.0) * f_mid.T @ psi_mid
    return g                                            # (p, N)


def sweep(oracle: ModelOracle, coeffs: ControlCoefficients,
          config: SolverConfig, data: ProblemData,
          traj: Trajectory | None = None):
    """One forward/backward pass; returns (trajectory, adjoint, G).

    traj, when given, must be the forward trajectory under coeffs; the
    forward integration is then skipped.
    """
    if traj is None:
        traj = forward(oracle, coeffs, config, data)
    adj = integrate_adjoint(oracle, traj, coeffs, config.eps, data.z_train,
                            data.z_dith, data.z_val)
    grad = coefficient_gradient(oracle, traj, adj, coeffs, config, data)
    return traj, adj, grad


def _apply_update(oracle, coeffs, config, data, grad, j0, k):
    """C <- project(C + gamma G) by Armijo backtracking from the cost j0;
    returns (new coefficients, record, accepted trial's trajectory or None)."""
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        return coeffs, IterationRecord(k, j0, 0.0, 0.0, False), None
    for q in range(MAX_BACKTRACKS + 1):
        gamma = config.gamma0 * 0.5**q
        cand = replace(coeffs, c=coeffs.c + gamma * grad)
        new = project_admissible(cand, config.projection_grid)
        try:
            traj = forward(oracle, new, config, data)
        except DivergenceError:
            continue  # a divergent trial is backtracked from
        j_new = phi_value(oracle, traj.theta_final, data.z_val)
        if j_new <= j0 - ARMIJO_C * gamma * gnorm * gnorm:
            return (new, IterationRecord(k, j0, gnorm, gamma, new is not cand),
                    traj)
    return coeffs, IterationRecord(k, j0, gnorm, 0.0, False), None


def solve(oracle: ModelOracle, config: SolverConfig,
          data: ProblemData) -> SolverReport:
    """Run the successive approximation loop to a stationary control.

    Stops when the Frobenius norm of the coefficient gradient falls below
    eps_tol, after max_iters sweeps, or when the line search cannot find a
    decreasing step.  The accepted Armijo trial's trajectory is the next
    sweep's forward pass and gives theta_star and final_cost, so nothing is
    integrated forward after an update but its trials.
    """
    coeffs = config.initial_coefficients(oracle.param_dim)
    records: list[IterationRecord] = []
    stop_reason = "max_iters"
    converged = False
    traj = None  # the forward trajectory under coeffs, when one is held
    for k in range(config.max_iters):
        traj, adj, grad = sweep(oracle, coeffs, config, data, traj)
        j0 = phi_value(oracle, traj.theta_final, data.z_val)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.eps_tol:
            records.append(IterationRecord(k, j0, gnorm, 0.0, False))
            converged = True
            stop_reason = "tolerance"
            break
        coeffs, rec, trial = _apply_update(oracle, coeffs, config, data,
                                           grad, j0, k)
        records.append(rec)
        if rec.gamma == 0.0:
            # coeffs did not change, so the sweep's trajectory still holds
            stop_reason = "line_search_failure"
            break
        traj = trial
    final_cost = phi_value(oracle, traj.theta_final, data.z_val)
    return SolverReport(records, coeffs, traj.theta_final.copy(),
                        final_cost, converged, stop_reason)


def pointwise_max_control(oracle: ModelOracle, theta: np.ndarray,
                          p: np.ndarray, eps: float, u_max: float,
                          z_dith: Dataset) -> np.ndarray:
    """Pointwise Hamiltonian maximizer over the box: bang-bang diagnostic.

    The Hamiltonian is affine in u, so each component sits at
    u_max * sign(eps * D_ii * p_i), with 0 for a vanishing coefficient.
    Used only to check how close the Galerkin control is to the maximum
    principle, never inside the solver loop.
    """
    gt = loss_gradient(oracle, theta, z_dith)
    coef = eps * (gt * gt) * np.asarray(p, dtype=float).ravel()
    return u_max * np.sign(coef)
