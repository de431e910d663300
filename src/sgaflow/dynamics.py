"""Forward state and backward adjoint integration of the controlled flow.

The state obeys theta' = -grad J0(theta, Z_train) + eps * D(theta, Z_dith) u(t)
with D the diagonal of squared loss-gradient entries on the dithered set.  The
adjoint obeys p' = -(df/dtheta)^T p, integrated backward from
p(T) = -grad Phi(theta(T), Z_val).

Integration is classical RK4.  The forward pass runs on quarter steps (4M
substeps of h/4), so theta is available exactly at every node, midpoint and
quarter point; the backward pass runs on half steps and reads its stage
states from those values, so no interpolation is ever done.

integrate_forward runs one flow under a (p, n) C, or a stack of B independent
flows at once under a (B, p, n) C: theta then has shape (B, p), member b runs
under its own control u_b = C_b Psi(t), and each RK4 stage makes one oracle
call for the whole stack.  C is a plain float array whose shape and finiteness
this pass checks; the null control is a zero C.  The backward pass takes
either Trajectory, K and p gaining the stack's axis, each member bit for bit
its own flow's.  A pass checks a grid step's rows once, after its substeps,
for a state norm beyond DIVERGENCE_BOUND or a nan or inf costate, and names
the first bad row and member; the substeps past it run with overflow warnings
off.  Step fractions, 2 and eps enter the substeps as 0-d float64 arrays made
once per pass, which skip a Python float's conversion and keep its bits.

The forward pass evaluates Psi once, at its 8M+1 stage times i*h/8; a grid
step forms u at its nine stage times in one product, then runs its four
quarter steps.  The training and dithered sets share x, so the pass builds one
loss plan on their targets (model.flow_plan) for forward_rhs, the forward
stage's right-hand side, and a stage takes both gradients in one grads call.
The trajectory keeps what the pass ran on (C, eps, the flow plan and the Psi
table) and the first stage's grad J~0 at each of its 4M+1 states, so the
backward pass takes nothing of its own but the validation set: u at forward
state i is C @ psi[2i].  In the costate equation p' = K p, K = -(df/dtheta)^T
is set by the forward state, its grad J~0 and u, so a backward grid step forms
K in one adjoint_matrix call on its four states, then runs its two half steps;
an adjoint stage is one product K p.  Neither pass keeps u or K beyond the
grid step it is in.  No stage checks its inputs or calls eval_basis or
eval_control.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .basis import BasisSpec, _check_time, eval_basis_grid
from .dataset import Dataset
from .model import LossPlan, ModelOracle, flow_plan, loss_gradient

# |theta| beyond which a forward integration raises DivergenceError
DIVERGENCE_BOUND = 1e8


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
        if not (0 < self.t_final < np.inf):
            raise ValueError("final time must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def h(self) -> float:
        return self.t_final / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)


def _read_only_rows(obj, rows: int, *names: str) -> None:
    """Set each named field of the frozen dataclass obj to a read-only
    float view of it; ValueError unless it is >= 2-D with rows rows."""
    for name in names:
        a = np.asarray(getattr(obj, name), dtype=float).view()
        if a.ndim < 2 or a.shape[0] != rows:
            raise ValueError(
                f"{name} has shape {a.shape}, expected >= 2-D, {rows} rows")
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class Trajectory:
    """Forward solution: theta and grad J~0 at every quarter step of the
    grid, with the control, eps, flow plan and Psi table it ran on.

    theta_fine holds the states of the quarter-step integration (4M+1 rows,
    spacing h/4): row 4k is the node t_k and row 4k+2 the midpoint of step k.
    gt_fine holds grad J~0 at each of those states, as plan computed it.
    psi holds Psi at the stage times i*h/8 (8M+1 rows), so the state
    theta_fine[i] ran under the control u = c @ psi[2i].  theta_nodes and
    theta_final are read-only views of theta_fine.
    """

    grid: TimeGrid
    theta_fine: np.ndarray  # (4M+1, p) or (4M+1, B, p)
    gt_fine: np.ndarray     # (4M+1, p) or (4M+1, B, p)
    c: np.ndarray           # (p, n) or (B, p, n)
    eps: float
    plan: LossPlan
    psi: np.ndarray         # (8M+1, n)

    def __post_init__(self):
        _read_only_rows(self, 4 * self.grid.steps + 1, "theta_fine", "gt_fine")
        _read_only_rows(self, 8 * self.grid.steps + 1, "psi")

    @property
    def theta_nodes(self) -> np.ndarray:  # (M+1, p)
        return self.theta_fine[::4]

    @property
    def theta_final(self) -> np.ndarray:  # (p,)
        return self.theta_fine[-1]


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward solution along the forward trajectory traj: the costate p
    at every half step of its grid.

    p_half holds the costates of the half-step sweep (2M+1 rows, spacing
    h/2): row 2k is the node t_k and row 2k+1 the midpoint of step k.
    p_nodes is a read-only view of p_half.
    """

    traj: Trajectory
    p_half: np.ndarray  # (2M+1, p)

    def __post_init__(self):
        _read_only_rows(self, 2 * self.grid.steps + 1, "p_half")

    @property
    def grid(self) -> TimeGrid:
        return self.traj.grid

    @property
    def p_nodes(self) -> np.ndarray:  # (M+1, p)
        return self.p_half[::2]


def _controls(c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """u = c @ psi[i] at each row i of psi, (rows, p), or (rows, B, p) for a
    (B, p, n) stack c; each row bit for bit its own c @ psi[i] product."""
    return np.matvec(c, psi if c.ndim == 2 else psi[:, None])


def forward_rhs(plan: LossPlan, theta: np.ndarray, u: np.ndarray,
                eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(f, g~): the controlled gradient-flow velocity f at (theta, u), from
    flow_plan's plan of the training and dithered sets, and g~ = grad J~0(theta)
    it was formed from; theta and u may be (B, p) stacks."""
    g, gt = plan.grads(theta)
    return eps * (gt * gt) * u - g, gt


def _state(oracle: ModelOracle, theta) -> np.ndarray:
    """theta as a finite (p,) state; ValueError otherwise."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != oracle.param_dim:
        raise ValueError(
            f"theta has dim {theta.shape[0]}, oracle expects {oracle.param_dim}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return theta


def integrate_forward(oracle: ModelOracle, theta0: np.ndarray, c: np.ndarray,
                      basis: BasisSpec, eps: float, z_train: Dataset,
                      z_dith: Dataset, grid: TimeGrid) -> Trajectory:
    """Integrate the controlled flow from theta0 over the grid by RK4 on its
    quarter steps, in a loop over grid steps, each forming u at its nine
    stage times in one product and running its four quarter steps on it.

    c is one (p, n) matrix or a (B, p, n) stack, member b running under
    u = c[b] Psi(t); theta0 is broadcast to c.shape[:-1], the shape of the
    Trajectory's rows, whose grad J~0 is taken at each step's first stage.
    ValueError unless c is such a finite matrix or stack, or if the grid
    lies beyond the basis's range; DivergenceError at the first quarter
    step (and member) whose state leaves DIVERGENCE_BOUND.
    """
    c = np.asarray(c, dtype=float)
    p = oracle.param_dim
    if c.ndim not in (2, 3) or c.shape[-2:] != (p, basis.n):
        raise ValueError(f"C has shape {c.shape}, expected ({p}, {basis.n}) "
                         f"or a (B, {p}, {basis.n}) stack")
    if not np.all(np.isfinite(c)):
        raise ValueError("C has non-finite entries")
    th = np.broadcast_to(_state(oracle, theta0), c.shape[:-1])
    h = 0.25 * grid.h
    nsteps = 4 * grid.steps
    ts = np.arange(2 * nsteps + 1) * (grid.h / 8)
    _check_time(basis, ts[-1])
    psi = eval_basis_grid(basis, ts)
    plan = flow_plan(oracle, z_train, z_dith)
    out = np.empty((nsteps + 1,) + th.shape)
    gts = np.empty_like(out)
    out[0] = th
    half, full, sixth, two, e = (np.array(x, dtype=float)
                                 for x in (0.5 * h, h, h / 6.0, 2.0, eps))
    with np.errstate(over="ignore", invalid="ignore"):  # see the docstring
        for s in range(0, nsteps, 4):  # a grid step: u at its stage times
            u = _controls(c, psi[2 * s:2 * s + 9])
            for k, u1, u2, u4 in zip(range(s, s + 4), u[::2], u[1::2], u[2::2]):
                k1, gts[k] = forward_rhs(plan, th, u1, e)
                k2 = forward_rhs(plan, th + half * k1, u2, e)[0]
                k3 = forward_rhs(plan, th + half * k2, u2, e)[0]
                k4 = forward_rhs(plan, th + full * k3, u4, e)[0]
                th = np.add(th, sixth * (k1 + two * k2 + two * k3 + k4),
                            out=out[k + 1])
            rows = out[s + 1:s + 5].reshape(4, -1, th.shape[-1])
            inside = np.vecdot(rows, rows) <= DIVERGENCE_BOUND ** 2
            if not np.logical_and.reduce(inside, axis=None):
                i, b = divmod(int(np.argmin(inside)), inside.shape[1])
                nrm = float(np.linalg.norm(rows[i, b]))
                raise DivergenceError((s + 1 + i) * h,
                                      inf if np.isnan(nrm) else nrm)
    gts[nsteps] = plan.grads(th)[1]
    return Trajectory(grid, out, gts, c, eps, plan, psi)


def adjoint_matrix(plan: LossPlan, theta: np.ndarray, gt: np.ndarray,
                   u: np.ndarray, eps: float) -> np.ndarray:
    """K = -(df/dtheta)^T = H - 2 eps H~ diag(g~ u) of p' = K p at (theta, u),
    (p, p) or (B, p, p) at (B, p) stacks, with g~ = gt = grad J~0(theta) and
    H, H~ the loss Hessians on the training and dithered sets."""
    h, ht = plan.hessians(theta)
    return h - ht * ((2.0 * eps) * (gt * u))[..., None, :]


def adjoint_rhs(k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Time derivative of the costate, K p with K from adjoint_matrix."""
    return np.matvec(k, p)


def integrate_adjoint(oracle: ModelOracle, traj: Trajectory,
                      z_val: Dataset) -> AdjointTrajectory:
    """Integrate the costate along traj backward from
    p(T) = -grad Phi(theta(T)), Phi the loss on z_val.

    RK4 on half steps; the stage states are the forward trajectory's exact
    quarter-step values, and grad J~0, u = c @ psi[2i], eps and the flow
    plan at forward state i are the ones the trajectory ran on, so no
    re-integration, interpolation, gradient call or Psi evaluation happens
    here.  K is formed once per forward state, for the two stages that read
    it (k2 and k3; k4 and the next step's k1), in one adjoint_matrix call
    per grid step on its four states before its two half steps, and one
    more for the final state; each K is bit for bit its own state's call.
    NonFiniteCostateError at the first half step whose costate is nan or inf.
    """
    M = traj.grid.steps
    hh = 0.5 * traj.grid.h
    fine, gt, psi = traj.theta_fine, traj.gt_fine, traj.psi

    def matrices(a, b):  # K at the forward states of rows a..b-1
        u = _controls(traj.c, psi[2 * a:2 * b:2])
        return adjoint_matrix(traj.plan, fine[a:b], gt[a:b], u, traj.eps)

    out = np.empty((2 * M + 1,) + traj.theta_final.shape)
    p = -loss_gradient(oracle, traj.theta_final, z_val)  # -grad Phi
    out[2 * M] = p
    m1 = matrices(4 * M, 4 * M + 1)[0]
    half, full, sixth, two = (np.array(x, dtype=float)
                              for x in (0.5 * hh, hh, hh / 6.0, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):  # see the docstring
        for j in range(2 * M, 0, -2):  # a grid step: K at its other states
            ks = matrices(2 * j - 4, 2 * j)
            for i, m2, m4 in zip((j - 1, j - 2), ks[3::-2], ks[2::-2]):
                k1 = adjoint_rhs(m1, p)
                k2 = adjoint_rhs(m2, p - half * k1)
                k3 = adjoint_rhs(m2, p - half * k2)
                k4 = adjoint_rhs(m4, p - full * k3)
                p = np.subtract(p, sixth * (k1 + two * k2 + two * k3 + k4),
                                out=out[i])
                m1 = m4  # the next half step's k1 reads k4's K
            finite = np.isfinite(out[j - 2:j])
            if not np.logical_and.reduce(finite, axis=None):
                raise NonFiniteCostateError(  # its midpoint j - 1 came first
                    (j - 1 - int(finite[1].all())) * hh)
    return AdjointTrajectory(traj, out)


def hamiltonian(oracle: ModelOracle, theta: np.ndarray, p: np.ndarray,
                u: np.ndarray, eps: float, z_train: Dataset,
                z_dith: Dataset) -> float:
    """Control Hamiltonian: <p, f(theta, u)>.  ValueError unless p and u
    are finite (p,) vectors, naming the one that is not."""
    dim = oracle.param_dim
    p, u = (np.asarray(a, dtype=float) for a in (p, u))
    for name, a in (("p", p), ("u", u)):
        if a.shape != (dim,):
            raise ValueError(f"{name} has shape {a.shape}, expected ({dim},)")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")
    f, _ = forward_rhs(flow_plan(oracle, z_train, z_dith),
                       _state(oracle, theta), u, eps)
    return float(p @ f)
