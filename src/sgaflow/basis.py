"""Time basis functions and the control parameterization u(t) = C Psi(t)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal basis of n functions on [0, t_final]."""

    kind: str  # 'legendre_shifted' | 'fourier'
    n: int
    t_final: float

    def __post_init__(self):
        if self.kind not in ("legendre_shifted", "fourier"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("basis size must be >= 1")
        if not (0 < self.t_final < np.inf):
            raise ValueError("final time must be > 0")


def eval_basis(basis: BasisSpec, t: float) -> np.ndarray:
    """Evaluate Psi(t), the vector of n basis functions at time t."""
    tol = 1e-12 * max(1.0, basis.t_final)   # slack for a t rounded past T
    if t < -tol or t > basis.t_final + tol:
        raise ValueError(f"t={t} outside [0, {basis.t_final}]")
    return eval_basis_grid(basis, np.array([t]))[0]


def eval_basis_grid(basis: BasisSpec, ts: np.ndarray) -> np.ndarray:
    """Psi evaluated at each time in ts; shape (len(ts), n)."""
    ts = np.asarray(ts, dtype=float)
    T = basis.t_final
    if basis.kind == "legendre_shifted":
        # orthonormal shifted Legendre: sqrt((2j+1)/T) * P_j(2t/T - 1)
        s = 2.0 * ts / T - 1.0
        vals = npleg.legvander(s, basis.n - 1)
        scale = np.sqrt((2.0 * np.arange(basis.n) + 1.0) / T)
        return vals * scale
    # fourier: constant, then sin/cos pairs of increasing frequency
    j = np.arange(basis.n)
    w = 2.0 * np.pi * ((j + 1) // 2) * ts[:, None] / T
    vals = np.sqrt(2.0 / T) * np.where(j % 2 == 1, np.sin(w), np.cos(w))
    vals[:, 0] = np.sqrt(1.0 / T)
    return vals


def eval_control(c: np.ndarray, basis: BasisSpec, t: float) -> np.ndarray:
    """Control vector u(t) = C Psi(t) of the (p, n) matrix c, shape (p,)."""
    return c @ eval_basis(basis, t)


def control_grid_max(c: np.ndarray, basis: BasisSpec,
                     n_grid: int) -> np.ndarray:
    """Per-row max of |u_i(t)| over a uniform n_grid-point grid on [0, T],
    for a (p, n) C or each member of a (..., p, n) stack c."""
    ts = np.linspace(0.0, basis.t_final, n_grid)
    u = c @ eval_basis_grid(basis, ts).T  # (..., p, n_grid)
    return np.max(np.abs(u), axis=-1)


def project_admissible(c: np.ndarray, basis: BasisSpec, u_max: float,
                       n_grid: int) -> np.ndarray:
    """Rescale each row of C, or of each member of a (..., p, n) stack c, so
    the grid max of each |u_i| is within u_max.

    Rows already within the bound are left untouched, so the projection is
    idempotent, and c itself is returned when no row is over.
    """
    if not (u_max >= 0):
        raise ValueError("u_max must be >= 0")
    gmax = control_grid_max(c, basis, n_grid)
    # slack keeps the projection idempotent under roundoff
    over = gmax > u_max * (1.0 + 1e-12)
    if not np.any(over):
        return c
    scale = np.ones_like(gmax)
    # a row over the bound has gmax > 0, so u_max = 0 scales it to +0.0
    scale[over] = u_max / gmax[over]
    return c * scale[..., None]
