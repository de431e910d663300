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
trial and one backward integration, and J and p(T) read the problem's one
validation plan.  C is the same control on every time grid, so solve iterates on
a coarser grid while its G stands for the fine one's, and answers on the
fine grid: nested iteration, the coarse half of MG/OPT (Nash, 2000).  Its G
is summed by a rule exact to degree 7: a level's G is off by RK4's error.
C is a plain (p, n) float array at every layer, and a stack a (B, p, n) one:
forward integrates either and backward sweeps back along either, so cost and
the gradient check run a stack as one pass, each member bit for bit its own
flow's; sweep is forward and backward under one C.  Every pass takes one
Problem, the (oracle, config, data) triple with theta0 checked and the flow
and validation plans built once; forward hands integrate_forward the plan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, partial
from math import comb

import numpy as np

from .basis import BasisSpec, control_grid_max, project_admissible
from .dataset import Dataset
from .dynamics import (AdjointTrajectory, DivergenceError,
                       NonFiniteCostateError, Trajectory, _vector,
                       integrate_adjoint, integrate_forward)
from .model import LossPlan, ModelOracle, flow_plan, loss_plan

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 10
GRAD_TOL = 1e-6  # relative error of a level's G in solve, of G in gradcheck
GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192)


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
    def projection_grid(self) -> int:
        return 10 * (self.steps + 1)

    def initial_theta(self, p: int) -> np.ndarray:
        theta0 = np.zeros(p) if self.theta0 is None else self.theta0
        return np.array(theta0, dtype=float).ravel()   # a copy

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


@dataclass(frozen=True, eq=False)
class Problem:
    """One control problem and what every pass over it reads, built once:
    config.initial_theta as a finite (p,) theta0, the flow plan of the
    training and dithered sets and the validation plan (ValueError naming
    the cause otherwise).  levels holds the checks' first probe's theta(T)
    and p(0) by step count.  A record compares and hashes by identity."""

    oracle: ModelOracle
    config: SolverConfig
    data: ProblemData
    theta0: np.ndarray = field(init=False, repr=False)
    flow: LossPlan = field(init=False, repr=False)
    val: LossPlan = field(init=False, repr=False)
    levels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        o, data, p = self.oracle, self.data, self.oracle.param_dim
        put("theta0", _vector("theta0", self.config.initial_theta(p), p))
        put("flow", flow_plan(o, data.z_train, data.z_dith))
        put("val", loss_plan(o, data.z_val))


@dataclass
class IterationRecord:
    k: int
    cost: float
    grad_norm: float
    gamma: float
    projected: bool
    steps: int   # the grid the iteration's sweep and trials ran on


@dataclass
class SolverReport:
    iterations: list[IterationRecord]
    final_coeffs: np.ndarray
    theta_star: np.ndarray
    final_cost: float
    stop_reason: str  # 'tolerance' | 'max_iters' | 'line_search_failure'
    grid_gap: list[float] | None = None   # see solve

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    def to_dict(self) -> dict:
        out = {
            "iterations": [asdict(r) for r in self.iterations],
            "final_coeffs": self.final_coeffs.tolist(),
            "theta_star": self.theta_star.tolist(),
            "final_cost": self.final_cost,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        }
        if self.grid_gap is None:  # one grid: every record's is config's
            for r in out["iterations"]:
                del r["steps"]
        else:
            out["grid_gap"] = self.grid_gap
        return out


def forward(problem: Problem, c: np.ndarray,
            steps: int | None = None) -> Trajectory:
    """The controlled flow of problem from its theta0 under the (p, n)
    coefficient matrix c on config.basis, or the flows under each matrix of
    a (B, p, n) stack c, on steps grid steps (config.steps if None)."""
    config = problem.config
    return integrate_forward(problem.flow, problem.theta0, c, config.basis,
                             config.eps,
                             config.steps if steps is None else steps)


def cost(problem: Problem, c: np.ndarray) -> float | np.ndarray:
    """Validation cost at final time of the controlled flow under the (p, n)
    coefficient matrix c on config.basis, a float, or an array of the costs
    of the flows under each matrix of a (B, p, n) stack c, integrated as one
    forward pass; each value is loss_value on data.z_val at its flow's final
    state bit for bit."""
    theta = forward(problem, c).theta_final
    if theta.ndim == 1:
        return problem.val.value(theta)
    return np.array([problem.val.value(th) for th in theta])


def coefficient_gradient(adj: AdjointTrajectory) -> np.ndarray:
    """Hamiltonian gradient in the C of adj's forward trajectory, (p, n) or
    (B, p, n) for a stacked one, integrated on its time grid.

    Satisfies dJ/dC = -G, so +G is the ascent (cost-descent) direction.
    Gregory's end-corrected trapezoid rule (Fornberg, SIAM Rev. 63, 2021)
    over the n = 2M half-step intervals of the integrand eps * p * D, with p
    from the backward sweep and eps, D = (grad J~0)^2 and Psi (every fourth
    row of its table) from the forward trajectory: one product with the
    trapezoid's weights less the corrections GREGORY[k-1] * C(k, j) * (-1)^j
    at j = 0..k from each end, k = 1..min(6, n); exact for polynomials of
    degree 7 when n >= 6, and Simpson's rule when n = 2.
    """
    grid, traj = adj.grid, adj.traj
    g = traj.gt_fine[::2]
    f = traj.eps * adj.p_half * (g * g)
    w = (grid.h / 2.0) * _gregory(2 * grid.steps)
    return (np.moveaxis(f, 0, -1) * w) @ traj.psi[::4]


@cache
def _gregory(n: int) -> np.ndarray:
    """The rule's read-only weights over n unit intervals, built once per n."""
    corr = np.zeros(n + 1)
    for k, gk in enumerate(GREGORY[:n], 1):
        corr[:k + 1] += [gk * comb(k, j) * (-1) ** j for j in range(k + 1)]
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    w -= corr + corr[::-1]   # added in one order at both ends: symmetric
    w.flags.writeable = False
    return w


def backward(problem: Problem, traj: Trajectory):
    """The costate sweep along problem's forward trajectory traj, one flow
    or a stack, from its validation plan, and the G it gives: (adjoint, G),
    each member of a stack bit for bit its own flow's."""
    adj = integrate_adjoint(problem.oracle, traj, problem.data.z_val,
                            problem.val)
    return adj, coefficient_gradient(adj)


def sweep(oracle: ModelOracle, c: np.ndarray, config: SolverConfig,
          data: ProblemData):
    """One forward/backward pass under the (p, n) C c on the Problem of
    (oracle, config, data); returns (trajectory, adjoint, G)."""
    problem = Problem(oracle, config, data)
    traj = forward(problem, c)
    return (traj, *backward(problem, traj))


def solve(problem: Problem) -> SolverReport:
    """Run the successive approximation loop to a stationary control.

    Each iteration calls backward on the trajectory it holds and steps
    C <- project(C + gamma G), halving gamma from gamma0 until the Armijo
    condition holds; the accepted trial's trajectory and cost are the next
    iteration's.  Stops when the Frobenius norm of G falls to eps_tol, after
    max_iters iterations, or when no trial step decreases J.

    It iterates on the coarsest of steps/8, /4 and /2 (exact divisors,
    probed coarsest first, to the first that qualifies) whose flow under C0
    is finite and whose G there is the fine grid's to GRAD_TOL, and moves to
    the fine grid, at its C, when the level's G reaches eps_tol or its
    search fails (the iteration runs again there) or an accepted decrease
    is within grid_gap[0]; at C0 the fine flow and G it began with hold.
    The stops, theta_star, final_cost and record 0's cost are the fine
    grid's, each record names its grid's steps, and grid_gap holds
    |J_level - J_fine| at C0 and where the level was left, or is None.
    """
    config, val = problem.config, problem.val
    coeffs = config.initial_coefficients(problem.oracle.param_dim)
    fine = traj = forward(problem, coeffs)
    j_null = val.value(traj.theta_final)
    _, g0 = backward(problem, traj)
    level, j0, grad = config.steps, j_null, g0
    for m in (config.steps // d for d in (8, 4, 2) if config.steps % d == 0):
        try:
            t = forward(problem, coeffs, m)
            _, g = backward(problem, t)
        except (DivergenceError, NonFiniteCostateError):
            continue
        if np.linalg.norm(g - g0) <= GRAD_TOL * np.linalg.norm(g0):
            level, traj, j0, grad = m, t, val.value(t.theta_final), g
            break
    stop, gaps = None, None if level == config.steps else [abs(j0 - j_null)]
    records: list[IterationRecord] = []
    for steps in (level, config.steps)[level == config.steps:]:  # level, fine
        if steps == config.steps and gaps:  # the hand-over, at solve's C
            traj, grad = ((forward(problem, coeffs), None)
                          if records else (fine, g0))  # at C0: solve's first
            j_level, j0 = j0, val.value(traj.theta_final)
            gaps.append(abs(j_level - j0))
        while len(records) < config.max_iters:
            if grad is None:
                _, grad = backward(problem, traj)
            gnorm = float(np.linalg.norm(grad))
            stop = "tolerance" if gnorm <= config.eps_tol else None
            for q in range(0 if stop else MAX_BACKTRACKS + 1):
                gamma = config.gamma0 * 0.5**q
                cand = coeffs + gamma * grad
                new = project_admissible(cand, config.basis, config.u_max,
                                         config.projection_grid)
                try:
                    trial = forward(problem, new, steps)
                except DivergenceError:
                    continue  # a divergent trial is backtracked from
                j_new = val.value(trial.theta_final)
                if j_new <= j0 - ARMIJO_C * gamma * gnorm * gnorm:
                    break
            else:
                stop = stop or "line_search_failure"
            if stop and steps != config.steps:
                break  # the iteration runs again on the fine grid
            records.append(IterationRecord(
                len(records), j0 if records else j_null, gnorm,
                0.0 if stop else gamma, not stop and new is not cand, steps))
            if stop:  # coeffs did not change, so the trajectory still holds
                break
            coeffs, traj, grad, j0, drop = new, trial, None, j_new, j0 - j_new
            if steps != config.steps and drop <= gaps[0]:
                break
    return SolverReport(records, coeffs, traj.theta_final.copy(), j0,
                        stop or "max_iters", gaps)
