"""Forward state and backward adjoint integration of the controlled flow.

The state obeys theta' = -grad J0(theta, Z_train) + eps * D(theta, Z_dith) u(t)
with D the diagonal of squared loss-gradient entries on the dithered set.  The
adjoint obeys p' = -(df/dtheta)^T p, integrated backward from
p(T) = -grad Phi(theta(T), Z_val).

Integration is classical RK4.  The forward pass runs on quarter steps (4M
substeps of h/4), so theta is available exactly at every node, midpoint and
quarter point; the backward pass runs on half steps and reads its stage
states from those values, so no interpolation is ever done.

The forward kernel advances a stack of B independent flows at once: theta
has shape (B, p), member b runs under its own control u_b = C_b Psi(t) with
C of shape (B, p, n), and each RK4 stage makes one oracle call for the whole
stack.  integrate_forward is the B = 1 case and keeps every state;
final_states keeps only the (B, p) final states.

Both passes read u at a stage time as C @ psi, with psi a row of a Psi table
that _stage_psi evaluates once per stage time, in vectorised blocks of
PSI_BLOCK steps; each pass checks its grid against the basis's range once,
so no stage calls eval_basis or eval_control.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .basis import (BasisSpec, ControlCoefficients, _check_time,
                    eval_basis_grid)
from .dataset import Dataset
from .model import ModelOracle, loss_gradient, loss_hvp, phi_gradient

DEFAULT_DIVERGENCE_BOUND = 1e8
# steps per block of a pass's Psi table, which so holds at most
# 3 * PSI_BLOCK * n values however long the grid
PSI_BLOCK = 512


class DivergenceError(RuntimeError):
    """State norm exceeded the divergence bound during integration."""

    def __init__(self, t: float, norm: float):
        super().__init__(f"state diverged at t={t:.6g} (|theta|={norm:.3e})")
        self.t = t
        self.norm = norm


class NonFiniteCostateError(RuntimeError):
    """The costate became nan or inf during the backward sweep."""

    def __init__(self, t: float):
        super().__init__(f"adjoint became non-finite at t={t:.6g}")
        self.t = t


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/M on [0, T]."""

    t_final: float
    steps: int

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("final time must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def h(self) -> float:
        return self.t_final / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return self.nodes[:-1] + 0.5 * self.h


def _read_only_rows(name: str, a, rows: int) -> np.ndarray:
    """a as a read-only (rows, p) float view; ValueError for other shapes."""
    a = np.asarray(a, dtype=float).view()
    if a.ndim != 2 or a.shape[0] != rows:
        raise ValueError(f"{name} has shape {a.shape}, expected ({rows}, p)")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Trajectory:
    """Forward solution: theta at every quarter step of the grid.

    theta_fine holds the states of the quarter-step integration (4M+1 rows,
    spacing h/4): row 4k is the node t_k and row 4k+2 the midpoint of step k.
    The backward pass reads its stage states from it, so no interpolation is
    ever needed.  theta_nodes, theta_mid and theta_final are read-only views
    of it.
    """

    grid: TimeGrid
    theta_fine: np.ndarray  # (4M+1, p)

    def __post_init__(self):
        object.__setattr__(self, "theta_fine", _read_only_rows(
            "theta_fine", self.theta_fine, 4 * self.grid.steps + 1))

    @property
    def theta_nodes(self) -> np.ndarray:  # (M+1, p)
        return self.theta_fine[::4]

    @property
    def theta_mid(self) -> np.ndarray:  # (M, p)
        return self.theta_fine[2::4]

    @property
    def theta_final(self) -> np.ndarray:  # (p,)
        return self.theta_fine[-1]


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward solution: costate p at every half step of the grid.

    p_half holds the costates of the half-step sweep (2M+1 rows, spacing
    h/2): row 2k is the node t_k and row 2k+1 the midpoint of step k.
    p_nodes and p_mid are read-only views of it.
    """

    grid: TimeGrid
    p_half: np.ndarray  # (2M+1, p)

    def __post_init__(self):
        object.__setattr__(self, "p_half", _read_only_rows(
            "p_half", self.p_half, 2 * self.grid.steps + 1))

    @property
    def p_nodes(self) -> np.ndarray:  # (M+1, p)
        return self.p_half[::2]

    @property
    def p_mid(self) -> np.ndarray:  # (M, p)
        return self.p_half[1::2]


def forward_rhs(oracle: ModelOracle, theta: np.ndarray, u: np.ndarray,
                eps: float, z_train: Dataset, z_dith: Dataset) -> np.ndarray:
    """Controlled gradient-flow velocity at (theta, u); theta and u may be
    (B, p) stacks."""
    g = loss_gradient(oracle, theta, z_train)
    gt = loss_gradient(oracle, theta, z_dith)
    return -g + eps * (gt * gt) * np.asarray(u, dtype=float)


def _stage_psi(basis: BasisSpec, ks: np.ndarray, d: float):
    """Psi at the RK4 stage times t, t + d/2 and t + d of each step, t = k*|d|
    for k in ks (d < 0 steps backward): one triple of (n,) rows per step,
    from tables built PSI_BLOCK steps at a time."""
    for lo in range(0, ks.shape[0], PSI_BLOCK):
        t = ks[lo:lo + PSI_BLOCK] * abs(d)
        yield from zip(*(eval_basis_grid(basis, s)
                         for s in (t, t + 0.5 * d, t + d)))


def _rk4_forward(oracle: ModelOracle, theta0: np.ndarray, c: np.ndarray | None,
                 basis: BasisSpec | None, eps: float, z_train: Dataset,
                 z_dith: Dataset, grid: TimeGrid, divergence_bound: float,
                 keep_states: bool) -> np.ndarray:
    """Fixed-step RK4 on the quarter-step grid for a (B, p) stack theta0.

    Member b runs under u = c[b] Psi(t); c=None is the null control.
    Returns the states at all 4M+1 quarter nodes, shape (4M+1, B, p), if
    keep_states, else the final states, shape (B, p).  Raises ValueError if
    the last stage time lies beyond the basis's range, and DivergenceError
    for the first member whose state leaves the bound.
    """
    h = 0.25 * grid.h
    nsteps = 4 * grid.steps
    if c is not None:
        _check_time(basis, (nsteps - 1) * h + h)

    def rhs(th, u):
        if u is None:
            return -loss_gradient(oracle, th, z_train)
        return forward_rhs(oracle, th, u, eps, z_train, z_dith)

    out = np.empty((nsteps + 1,) + theta0.shape) if keep_states else None
    th = theta0
    if keep_states:
        out[0] = th
    psi = None if c is None else _stage_psi(basis, np.arange(nsteps), h)
    for k in range(nsteps):
        u1, u2, u4 = (None,) * 3 if c is None else (c @ q for q in next(psi))
        k1 = rhs(th, u1)
        k2 = rhs(th + 0.5 * h * k1, u2)
        k3 = rhs(th + 0.5 * h * k2, u2)
        k4 = rhs(th + h * k3, u4)
        th = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inside = np.linalg.norm(th, axis=-1) <= divergence_bound  # nan: False
        if not np.all(inside):
            b = int(np.argmin(inside))
            nrm = float(np.linalg.norm(th[b]))
            raise DivergenceError(k * h + h, inf if np.isnan(nrm) else nrm)
        if keep_states:
            out[k + 1] = th
    return out if keep_states else th


def _initial_state(oracle: ModelOracle, theta0) -> np.ndarray:
    theta0 = np.asarray(theta0, dtype=float).ravel()
    if theta0.shape[0] != oracle.param_dim:
        raise ValueError(
            f"theta0 has dim {theta0.shape[0]}, oracle expects {oracle.param_dim}"
        )
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 must be finite")
    return theta0


def integrate_forward(oracle: ModelOracle, theta0: np.ndarray,
                      coeffs: ControlCoefficients | None, eps: float,
                      z_train: Dataset, z_dith: Dataset, grid: TimeGrid,
                      divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
                      ) -> Trajectory:
    """Integrate the controlled flow from theta0 over the grid.

    coeffs=None means the null control u = 0 (pure gradient flow).
    """
    theta0 = _initial_state(oracle, theta0)
    c, basis = (None, None) if coeffs is None else (coeffs.c[None],
                                                    coeffs.basis)
    fine = _rk4_forward(oracle, theta0[None], c, basis, eps, z_train, z_dith,
                        grid, divergence_bound, keep_states=True)[:, 0]
    return Trajectory(grid, fine)


def final_states(oracle: ModelOracle, theta0: np.ndarray, cs: np.ndarray,
                 basis: BasisSpec, eps: float, z_train: Dataset,
                 z_dith: Dataset, grid: TimeGrid,
                 divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
                 ) -> np.ndarray:
    """Final states of B flows from one theta0, flow b under the control
    u = cs[b] Psi(t); cs has shape (B, p, n), the result (B, p)."""
    theta0 = _initial_state(oracle, theta0)
    cs = np.asarray(cs, dtype=float)
    if cs.ndim != 3 or cs.shape[1:] != (oracle.param_dim, basis.n):
        raise ValueError(f"coefficient stack has shape {cs.shape}, expected "
                         f"(B, {oracle.param_dim}, {basis.n})")
    theta0 = np.broadcast_to(theta0, (cs.shape[0], oracle.param_dim))
    return _rk4_forward(oracle, theta0, cs, basis, eps, z_train, z_dith,
                        grid, divergence_bound, keep_states=False)


def adjoint_rhs(oracle: ModelOracle, theta: np.ndarray, p: np.ndarray,
                u: np.ndarray, eps: float, z_train: Dataset,
                z_dith: Dataset) -> np.ndarray:
    """Time derivative of the costate: -(df/dtheta)^T p.

    Uses only gradient and hvp oracle calls: the Jacobian of the flow is
    -H + 2 eps diag(u) diag(g~) H~ with H, H~ the loss Hessians on the
    training and dithered sets and g~ the gradient on the dithered set.
    """
    p = np.asarray(p, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    hv = loss_hvp(oracle, theta, z_train, p)
    gt = loss_gradient(oracle, theta, z_dith)
    hv_t = loss_hvp(oracle, theta, z_dith, gt * u * p)
    return hv - 2.0 * eps * hv_t


def integrate_adjoint(oracle: ModelOracle, traj: Trajectory,
                      coeffs: ControlCoefficients | None, eps: float,
                      z_train: Dataset, z_dith: Dataset, z_val: Dataset,
                      ) -> AdjointTrajectory:
    """Integrate the costate backward from p(T) = -grad Phi(theta(T)).

    RK4 on half steps; the stage states are the forward trajectory's exact
    quarter-step values, so no re-integration or interpolation happens here,
    and u at the stage times t_hi = j*hh, t_hi - hh/2 and t_hi - hh comes
    from a Psi table.  Raises ValueError if the grid lies beyond the basis's
    range, and NonFiniteCostateError if the costate becomes nan or inf.
    """
    grid = traj.grid
    M = grid.steps
    hh = 0.5 * grid.h
    fine = traj.theta_fine

    def rhs(u, theta, p):
        return adjoint_rhs(oracle, theta, p, u, eps, z_train, z_dith)

    out = np.empty((2 * M + 1, oracle.param_dim))
    p = -phi_gradient(oracle, traj.theta_final, z_val)
    out[2 * M] = p
    if coeffs is None:
        zero = np.zeros(oracle.param_dim)
    else:
        _check_time(coeffs.basis, 2 * M * hh)
        psi = _stage_psi(coeffs.basis, np.arange(2 * M, 0, -1), -hh)
    for j in range(2 * M, 0, -1):
        u1, u2, u4 = ((zero,) * 3 if coeffs is None
                      else (coeffs.c @ q for q in next(psi)))
        k1 = rhs(u1, fine[2 * j], p)
        k2 = rhs(u2, fine[2 * j - 1], p - 0.5 * hh * k1)
        k3 = rhs(u2, fine[2 * j - 1], p - 0.5 * hh * k2)
        k4 = rhs(u4, fine[2 * j - 2], p - hh * k3)
        p = p - (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(p)):
            raise NonFiniteCostateError(j * hh - hh)
        out[j - 1] = p
    return AdjointTrajectory(grid, out)


def hamiltonian(oracle: ModelOracle, theta: np.ndarray, p: np.ndarray,
                u: np.ndarray, eps: float, z_train: Dataset,
                z_dith: Dataset) -> float:
    """Control Hamiltonian: <p, f(theta, u)>."""
    p = np.asarray(p, dtype=float).ravel()
    f = forward_rhs(oracle, theta, u, eps, z_train, z_dith)
    if p.shape != f.shape:
        raise ValueError(f"p has dim {p.shape[0]}, expected {f.shape[0]}")
    return float(p @ f)
