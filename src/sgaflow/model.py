"""Loss oracles for the built-in model families.

* ``linear_features`` -- h(x) = theta . phi(x) with an elementwise polynomial
  feature map.  The squared loss is quadratic in theta: with Phi the feature
  matrix of the dataset, A = (2/m) Phi^T Phi and b = (2/m) Phi^T y, the
  gradient is A theta - b and the Hessian the constant A.
* ``mlp_tanh`` -- one hidden tanh layer of configurable width; gradients are
  analytic, and the Hessian explicit: (2/m) Jac^T Jac plus the curvature of
  each hidden unit's output, which lies in its own W1 row, b1 and w2 entries.
  The plan reads W1 and b1 as one (h, d+1) block against the inputs with a
  ones column, so a gradient is one product for that block, one for w2 and
  b2 and one reorder into theta's order.

The training loss is the mean squared error (1/m) sum (h(x_i) - y_i)^2; the
validation cost uses the same formula on the validation set.  Loops evaluate
it through a plan (loss_plan), one per (oracle, dataset), which checks the
dataset once and holds Phi, A and b for the linear family; its grad, hessian
and value check nothing.  The flow's training set and its dithered version
share x, so one plan per integration (flow_plan) serves both: the family's
plan on the (2, m) target stack (y, y~), whose grads takes both gradients
from one A theta (linear) or one forward pass (mlp), and hessians both
Hessians from one call.  loss_value and loss_hvp are one-shot plan calls at
a (p,) theta, and loss_gradient at a (p,) theta or a (..., p) stack; each
also checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset


@dataclass(frozen=True)
class ModelOracle:
    """Pure evaluator bundle for one model family on a fixed input dimension."""

    family: str  # 'linear_features' | 'mlp_tanh'
    input_dim: int
    degree: int = 1          # linear_features: elementwise powers 1..degree
    include_bias: bool = False
    hidden: int = 4          # mlp_tanh width

    def __post_init__(self):
        if self.family not in ("linear_features", "mlp_tanh"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.family == "linear_features" and self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.family == "mlp_tanh" and not (1 <= self.hidden <= 32):
            raise ValueError("hidden width must be in [1, 32]")

    @property
    def param_dim(self) -> int:
        if self.family == "linear_features":
            return self.input_dim * self.degree + (1 if self.include_bias else 0)
        # W1 (hidden x d), b1 (hidden), w2 (hidden), b2 (1)
        return self.hidden * (self.input_dim + 2) + 1

    # -- linear family -----------------------------------------------------

    def features(self, x: np.ndarray) -> np.ndarray:
        """Feature matrix phi(x), shape (m, p), for the linear family."""
        x = np.atleast_2d(x)
        cols = [x**k for k in range(1, self.degree + 1)]
        if self.include_bias:
            cols.append(np.ones((x.shape[0], 1)))
        return np.concatenate(cols, axis=1)

    # -- mlp family --------------------------------------------------------

    def _unpack(self, theta: np.ndarray):
        """W1, b1, w2, b2 of theta, or of each row of a (B, p) stack."""
        h, d = self.hidden, self.input_dim
        w1 = theta[..., : h * d].reshape(theta.shape[:-1] + (h, d))
        b1 = theta[..., h * d : h * d + h]
        w2 = theta[..., h * d + h : h * d + 2 * h]
        b2 = theta[..., -1]
        return w1, b1, w2, b2

    def predict(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.family == "linear_features":
            return self.features(x) @ theta
        w1, b1, w2, b2 = self._unpack(theta)
        return np.tanh(x @ w1.T + b1) @ w2 + b2


@dataclass(frozen=True)
class LinearPlan:
    """Linear-family loss on one dataset: gradient A theta - b, Hessian A.
    With a (k, m) stack of targets y, b is the (k, p) stack of their b."""

    phi: np.ndarray  # (m, p)
    y: np.ndarray    # (..., m)
    a: np.ndarray    # (p, p)
    b: np.ndarray    # (..., p)
    # b's rows, (b, b~) on flow_plan's (y, y~): grads skips indexing b
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.b))

    def value(self, theta: np.ndarray) -> float:
        r = self.phi @ theta - self.y
        return float(np.mean(r * r))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        # one matrix @ vector product per row: stack rows match (p,) calls
        return np.matvec(self.a, theta) - self.b

    def grads(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = np.matvec(self.a, theta)
        b, b_dith = self.rows
        return at - b, at - b_dith

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return self.a

    def hessians(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.a, self.a


@dataclass(frozen=True)
class MlpPlan:
    """The mlp family's loss on one dataset, or on a (k, m) stack of targets
    for its inputs.

    The hidden layer reads W1 and b1 as one (h, d+1) block [W1|b1] against
    xb = (x, 1), so t = tanh([W1|b1] @ xb^T), and the output reads [w2|b2]
    against [t; 1].  A gradient is then one product for the W1 and b1 block,
    ((1 - t^2) * coef) @ xb scaled by w2, one for [w2|b2], [t; 1] @ coef,
    and one reorder of the concatenated blocks into theta's order."""

    oracle: ModelOracle
    x: np.ndarray  # (m, d)
    y: np.ndarray  # (..., m)
    # xb: (x, 1), (m, d+1); wb: the (h, d+1) theta indices of [W1|b1];
    # order: the permutation from the gradient's block order to theta's
    xb: np.ndarray = field(init=False, repr=False, compare=False)
    wb: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)
    # xx: each sample's products xb_k xb_l; at: the flat (p, p) Hessian
    # entries the model output curves in, those pairing a hidden unit's W1
    # row, b1 and w2 entries
    xx: np.ndarray = field(init=False, repr=False, compare=False)
    at: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, d = self.oracle.hidden, self.oracle.input_dim
        p = self.oracle.param_dim
        xb = np.column_stack([self.x, np.ones(len(self.x))])
        wb = np.column_stack([np.arange(h * d).reshape(h, d),
                              h * d + np.arange(h)])
        w2 = wb[:, -1:] + h
        object.__setattr__(self, "xb", xb)
        object.__setattr__(self, "wb", wb)
        blk = np.arange(h * (d + 1)).reshape(h, d + 1)  # [W1|b1] positions
        object.__setattr__(self, "order", np.concatenate(
            [blk[:, :d].ravel(), blk[:, d], np.arange(h * (d + 1), p)]))
        object.__setattr__(self, "xx", (xb[:, :, None] * xb[:, None, :])
                           .reshape(len(xb), -1))
        object.__setattr__(self, "at", np.concatenate(
            [(wb[:, :, None] * p + wb[:, None, :]).ravel(),
             (wb * p + w2).ravel(), (w2 * p + wb).ravel()]))

    def value(self, theta: np.ndarray) -> float:
        r = self.oracle.predict(theta, self.x) - self.y
        return float(np.mean(r * r))

    def _layer(self, theta: np.ndarray):
        """tb = [t; 1] (..., h+1, m), t the hidden layer, [w2|b2] (..., h+1)
        and the residual weights coef = (2/m) r (..., m) on the targets."""
        h = self.oracle.hidden
        tb = np.empty_like(theta,
                           shape=theta.shape[:-1] + (h + 1, len(self.xb)))
        np.tanh(theta[..., self.wb] @ self.xb.T, out=tb[..., :h, :])
        tb[..., h, :] = 1.0
        w2b = theta[..., -(h + 1):]
        r = (w2b[..., None, :] @ tb)[..., 0, :] - self.y
        return tb, w2b, (2.0 / self.y.shape[-1]) * r

    def grad(self, theta: np.ndarray) -> np.ndarray:
        tb, w2b, coef = self._layer(theta)
        t = tb[..., :-1, :]
        g = ((1.0 - t * t) * coef[..., None, :]) @ self.xb
        g *= w2b[..., :-1, None]
        return np.concatenate([g.reshape(g.shape[:-2] + (-1,)),
                               np.matvec(tb, coef)], axis=-1)[..., self.order]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """The Hessian, (..., p, p) as theta's rows and the targets stack
        broadcast: (2/m) Jac^T Jac, Jac the (m, p) Jacobian of the output,
        plus sum_i coef_i times the Hessian of the output at sample i."""
        xb, d, p = self.xb, self.oracle.input_dim, self.oracle.param_dim
        tb, w2b, coef = self._layer(theta)
        h, rows = self.oracle.hidden, tb.shape[:-2]
        t = tb[..., :h, :]
        dt = 1.0 - t * t
        # filled in place: no temporaries
        jac_t = np.empty(rows + (p, len(xb)))
        q = np.multiply(dt, w2b[..., :h, None],
                        out=jac_t[..., h * d:h * d + h, :])
        np.multiply(q[..., None, :], xb.T[:d],
                    out=jac_t[..., :h * d, :].reshape(rows + (h, d, -1)))
        jac_t[..., h * d + h:, :] = tb
        lead, cw = coef.shape[:-1], coef[..., None, :]
        blocks = (cw * (-2.0 * t * q)) @ self.xx
        cross = (cw * dt) @ xb
        hs = np.empty(lead + (p * p,))
        np.multiply((jac_t @ jac_t.swapaxes(-1, -2)).reshape(rows + (-1,)),
                    2.0 / len(xb), out=hs)
        hs[..., self.at] += np.concatenate(
            [a.reshape(lead + (-1,)) for a in (blocks, cross, cross)], axis=-1)
        return hs.reshape(lead + (p, p))

    def grads(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.grad(theta[..., None, :])
        return g[..., 0, :], g[..., 1, :]

    def hessians(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hs = self.hessian(theta[..., None, :])
        return hs[..., 0, :, :], hs[..., 1, :, :]


LossPlan = LinearPlan | MlpPlan


def _check(oracle: ModelOracle, z: Dataset) -> None:
    if z.d != oracle.input_dim:
        raise ValueError(
            f"dataset has d={z.d}, oracle expects input_dim={oracle.input_dim}"
        )
    if not (np.all(np.isfinite(z.x)) and np.all(np.isfinite(z.y))):
        raise ValueError(f"the {z.tag} dataset holds nan or inf")


def _plan(oracle: ModelOracle, x: np.ndarray, y: np.ndarray) -> LossPlan:
    """The loss of oracle on inputs x with targets y, (m,) or (k, m)."""
    if oracle.family == "mlp_tanh":
        return MlpPlan(oracle, x, y)
    phi = oracle.features(x)
    s = 2.0 / y.shape[-1]
    return LinearPlan(phi, y, s * (phi.T @ phi),
                      s * (phi.T @ y[..., None])[..., 0])


def loss_plan(oracle: ModelOracle, z: Dataset) -> LossPlan:
    """The loss of oracle on z; ValueError if z's input dimension is not the
    oracle's or z holds nan or inf.  The plan's value takes a (p,) theta,
    and its grad and hessian a (p,) theta or a (B, p) stack, each row's
    result equal to that row's alone bit for bit (the linear family's
    Hessian is A whatever theta)."""
    _check(oracle, z)
    return _plan(oracle, z.x, z.y)


def flow_plan(oracle: ModelOracle, z_train: Dataset,
              z_dith: Dataset) -> LossPlan:
    """The losses of oracle on z_train and on its dithered version z_dith:
    the family's plan on the targets (y, y~).  Its grads(theta) is
    (grad J0, grad J~0) at a (p,) theta or at each row of a (B, p) stack,
    and hessians(theta) is (H, H~) at the same (the linear family's A and A
    whatever theta), each equal to the per-dataset plan's call bit for
    bit.  ValueError if either dataset fails loss_plan's checks or z_dith's
    inputs are not z_train's."""
    _check(oracle, z_train)
    _check(oracle, z_dith)
    if not np.array_equal(z_dith.x, z_train.x):
        raise ValueError(f"the {z_dith.tag} dataset's inputs differ from "
                         f"the {z_train.tag} dataset's")
    return _plan(oracle, z_train.x, np.stack([z_train.y, z_dith.y]))


def _params(oracle: ModelOracle, a) -> np.ndarray:
    """a as a (..., p) array; ValueError if its last axis has not p entries."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (oracle.param_dim,):
        raise ValueError(f"shape {a.shape} is not (..., {oracle.param_dim})")
    return a


def loss_value(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> float:
    """Mean squared error of the model on z."""
    return loss_plan(oracle, z).value(_params(oracle, np.ravel(theta)))


def loss_gradient(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> np.ndarray:
    """Gradient of loss_value with respect to theta, at a (p,) theta or at
    each row of a (..., p) stack, each row equal to its own call bit for
    bit; on z_val, grad Phi."""
    return loss_plan(oracle, z).grad(_params(oracle, theta))


def loss_hvp(oracle: ModelOracle, theta: np.ndarray, z: Dataset,
             v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of loss_value at theta in direction v: A v for
    the linear family, the explicit Hessian's product for the mlp."""
    return (loss_plan(oracle, z).hessian(_params(oracle, np.ravel(theta)))
            @ _params(oracle, np.ravel(v)))
