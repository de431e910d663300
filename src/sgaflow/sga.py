"""Successive Galerkin approximation solver.

Each sweep integrates the state forward and the costate backward along it,
and forms the Hamiltonian's gradient in the coefficients,

    G_ij = eps * int_0^T p_i(t) D_ii(theta(t)) psi_j(t) dt,

and updates C <- project(C + gamma G).  With the terminal condition
p(T) = -grad Phi, ascending the Hamiltonian descends the validation cost,
and the variational identity dJ/dC = -G makes the update self-checking: an
Armijo backtracking line search enforces sufficient decrease of J and
backtracks from a trial step whose flow diverges.

Each iteration sweeps back, with backward, along the forward trajectory the
solver holds: the first forward pass, then the accepted Armijo trial's,
whose cost is the next j0.  So an iteration runs one forward integration per
trial and one backward integration, and J is read once per trajectory,
through one validation plan per solve.
C is a plain (p, n) float array at every layer, and a stack a (B, p, n) one:
forward integrates either and backward sweeps back along either, so cost and
the gradient check run a stack as one pass, each member bit for bit its own
flow's; sweep is forward and backward under one C.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .basis import BasisSpec, control_grid_max, project_admissible
from .dataset import Dataset
from .dynamics import (AdjointTrajectory, DivergenceError, TimeGrid,
                       Trajectory, integrate_adjoint, integrate_forward)
from .model import ModelOracle, loss_plan

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
    steps: int
    basis: BasisSpec
    u_max: float
    gamma0: float = 0.5
    eps_tol: float = 1e-6
    max_iters: int = 50
    theta0: np.ndarray | None = None   # default: zeros
    c0: np.ndarray | None = None       # default: zeros

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError("eps must lie in [0, 1.0]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (0.0 < self.gamma0 <= 1.0):
            raise ValueError("gamma0 must lie in (0, 1]")
        if not (self.eps_tol > 0):
            raise ValueError("eps_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.u_max >= 0):
            raise ValueError("u_max must be >= 0")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.basis.t_final, self.steps)

    @property
    def projection_grid(self) -> int:
        return 10 * (self.steps + 1)

    def initial_theta(self, p: int) -> np.ndarray:
        if self.theta0 is None:
            return np.zeros(p)
        return np.asarray(self.theta0, dtype=float).ravel()

    def initial_coefficients(self, p: int) -> np.ndarray:
        """The (p, n) C a solve starts from: 0, or c0 checked and projected."""
        n = self.basis.n
        if self.c0 is None:
            return np.zeros((p, n))
        c = np.array(self.c0, dtype=float, ndmin=2)
        if c.shape[0] != p:
            raise ValueError(f"c0 has {c.shape[0]} rows, expected {p}")
        if c.shape[1:] != (n,):
            raise ValueError(f"c0 has shape {c.shape}, expected ({p}, {n})")
        with np.errstate(over="ignore", invalid="ignore"):
            gmax = control_grid_max(c, self.basis, self.projection_grid)
        if not np.all(np.isfinite(gmax)):  # as it is if C has an inf or nan
            raise ValueError("c0: C has non-finite entries, or its "
                             "control overflows float64")
        return project_admissible(c, self.basis, self.u_max,
                                  self.projection_grid)


@dataclass
class IterationRecord:
    k: int
    cost: float
    grad_norm: float
    gamma: float
    projected: bool


@dataclass
class SolverReport:
    iterations: list[IterationRecord]
    final_coeffs: np.ndarray
    theta_star: np.ndarray
    final_cost: float
    stop_reason: str  # 'tolerance' | 'max_iters' | 'line_search_failure'

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    def to_dict(self) -> dict:
        return {
            "iterations": [asdict(r) for r in self.iterations],
            "final_coeffs": self.final_coeffs.tolist(),
            "theta_star": self.theta_star.tolist(),
            "final_cost": self.final_cost,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        }


def forward(oracle: ModelOracle, c: np.ndarray, config: SolverConfig,
            data: ProblemData) -> Trajectory:
    """The controlled flow from config.initial_theta under the (p, n)
    coefficient matrix c on config.basis, or the flows under each matrix
    of a (B, p, n) stack c."""
    return integrate_forward(oracle, config.initial_theta(oracle.param_dim),
                             c, config.basis, config.eps, data.z_train,
                             data.z_dith, config.grid)


def cost(oracle: ModelOracle, c: np.ndarray, config: SolverConfig,
         data: ProblemData) -> float | np.ndarray:
    """Validation cost at final time of the controlled flow under the (p, n)
    coefficient matrix c on config.basis, a float, or an array of the costs
    of the flows under each matrix of a (B, p, n) stack c, integrated as one
    forward pass; each value is loss_value on data.z_val at its flow's final
    state bit for bit."""
    val = loss_plan(oracle, data.z_val)
    theta = forward(oracle, c, config, data).theta_final
    if theta.ndim == 1:
        return val.value(theta)
    return np.array([val.value(th) for th in theta])


def coefficient_gradient(adj: AdjointTrajectory) -> np.ndarray:
    """Hamiltonian gradient in the C of adj's forward trajectory, (p, n) or
    (B, p, n) for a stacked one, integrated on its time grid.

    Satisfies dJ/dC = -G, so +G is the ascent (cost-descent) direction.
    Composite Simpson over the half-step rows of the integrand eps * p * D,
    with p from the backward sweep and eps, D = (grad J~0)^2 and Psi (every
    fourth row of its table) from the forward trajectory: one product with
    the weights h/6 * [1, 4, 2, 4, ..., 2, 4, 1].
    """
    grid, traj = adj.grid, adj.traj
    w = np.full(2 * grid.steps + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    g = traj.gt_fine[::2]
    f = traj.eps * adj.p_half * (g * g)
    return (np.moveaxis(f, 0, -1) * ((grid.h / 6.0) * w)) @ traj.psi[::4]


def backward(oracle: ModelOracle, traj: Trajectory, z_val: Dataset):
    """The costate sweep along the forward trajectory traj, one flow or a
    stack, on the validation set z_val, and the G it gives: (adjoint, G),
    each member of a stack bit for bit its own flow's."""
    adj = integrate_adjoint(oracle, traj, z_val)
    return adj, coefficient_gradient(adj)


def sweep(oracle: ModelOracle, c: np.ndarray, config: SolverConfig,
          data: ProblemData):
    """One forward/backward pass under the (p, n) C c; returns (trajectory,
    adjoint, G)."""
    traj = forward(oracle, c, config, data)
    return (traj, *backward(oracle, traj, data.z_val))


def solve(oracle: ModelOracle, config: SolverConfig,
          data: ProblemData) -> SolverReport:
    """Run the successive approximation loop to a stationary control.

    Each iteration calls backward on the trajectory it holds and steps
    C <- project(C + gamma G), halving gamma from gamma0 until the Armijo
    condition holds; the accepted trial's trajectory and cost are the next
    iteration's, and give theta_star and final_cost.  Stops when the
    Frobenius norm of G falls to eps_tol, after max_iters iterations, or
    when no trial step decreases J.
    """
    val = loss_plan(oracle, data.z_val)
    coeffs = config.initial_coefficients(oracle.param_dim)
    records: list[IterationRecord] = []
    stop_reason = "max_iters"
    traj = forward(oracle, coeffs, config, data)
    j0 = val.value(traj.theta_final)
    for k in range(config.max_iters):
        _, grad = backward(oracle, traj, data.z_val)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.eps_tol:
            records.append(IterationRecord(k, j0, gnorm, 0.0, False))
            stop_reason = "tolerance"
            break
        for q in range(MAX_BACKTRACKS + 1):
            gamma = config.gamma0 * 0.5**q
            cand = coeffs + gamma * grad
            new = project_admissible(cand, config.basis, config.u_max,
                                     config.projection_grid)
            try:
                trial = forward(oracle, new, config, data)
            except DivergenceError:
                continue  # a divergent trial is backtracked from
            j_new = val.value(trial.theta_final)
            if j_new <= j0 - ARMIJO_C * gamma * gnorm * gnorm:
                break
        else:
            # coeffs did not change, so the trajectory still holds
            records.append(IterationRecord(k, j0, gnorm, 0.0, False))
            stop_reason = "line_search_failure"
            break
        records.append(IterationRecord(k, j0, gnorm, gamma, new is not cand))
        coeffs, traj, j0 = new, trial, j_new
    return SolverReport(records, coeffs, traj.theta_final.copy(), j0,
                        stop_reason)
