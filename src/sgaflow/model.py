"""Loss oracles for the built-in model families.

* ``linear_features`` -- h(x) = theta . phi(x) with an elementwise polynomial
  feature map.  The squared loss is quadratic in theta: with Phi the feature
  matrix of the dataset, A = (2/m) Phi^T Phi and b = (2/m) Phi^T y, the
  gradient is A theta - b and the Hessian the constant A.
* ``mlp_tanh`` -- one hidden tanh layer of configurable width; gradients are
  analytic, Hessian-vector products use a central difference of the gradient,
  both gradients taken in one stacked call.

The training loss is the mean squared error (1/m) sum (h(x_i) - y_i)^2; the
validation cost uses the same formula on the validation set.  Loops evaluate
it through a plan (loss_plan), one per (oracle, dataset), which checks the
dataset once and holds Phi, A and b for the linear family; its grad, hvp and
value check nothing.  The flow's training set and its dithered version
share x, so one plan per integration (flow_plan) serves both: its targets
are the (2, m) stack (y, y~), one A theta (linear) or one forward pass (mlp)
gives both gradients, and one call both Hessian-vector products.
loss_value, loss_gradient and loss_hvp are one-shot plan calls that also
check theta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# the signs of a central difference's two points, as a (2, 1, 1) factor
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]


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

    def value(self, theta: np.ndarray) -> float:
        r = self.phi @ theta - self.y
        return float(np.mean(r * r))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        # one matrix @ vector product per row: stack rows match (p,) calls
        return (self.a @ theta[..., None])[..., 0] - self.b

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.a @ v


@dataclass(frozen=True)
class MlpPlan:
    """The mlp family's loss on one dataset, or on a (k, m) stack of targets
    for its inputs."""

    oracle: ModelOracle
    x: np.ndarray  # (m, d)
    y: np.ndarray  # (..., m)

    def value(self, theta: np.ndarray) -> float:
        r = self.oracle.predict(theta, self.x) - self.y
        return float(np.mean(r * r))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        x, y = self.x, self.y
        w1, b1, w2, b2 = self.oracle._unpack(theta)
        t = np.tanh(x @ w1.swapaxes(-1, -2) + b1[..., None, :])  # (..., m, h)
        r = (t @ w2[..., None])[..., 0] + b2[..., None] - y       # (..., m)
        coef = (2.0 / y.shape[-1]) * r
        s = coef[..., None] * (1.0 - t * t) * w2[..., None, :]    # (..., m, h)
        g_w1 = s.swapaxes(-1, -2) @ x                             # (..., h, d)
        g_w2 = (coef[..., None, :] @ t)[..., 0, :]
        return np.concatenate([g_w1.reshape(g_w1.shape[:-2] + (-1,)),
                               s.sum(axis=-2), g_w2,
                               coef.sum(axis=-1, keepdims=True)], axis=-1)

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        # per direction v_i, on the targets of the same index, a central
        # difference of step sqrt(eps)*(1+|theta|)/|v_i|, all differences
        # in one stacked gradient call; a zero direction gives 0 uncomputed
        vs = v.reshape(-1, v.shape[-1])
        vnorm = np.array([np.linalg.norm(d) for d in vs])
        live = vnorm != 0.0
        out = np.zeros_like(vs)
        if live.any():
            h = _SQRT_EPS * (1.0 + np.linalg.norm(theta)) / vnorm[live, None]
            ys = self.y.reshape(-1, self.y.shape[-1])[live]
            gp, gm = MlpPlan(self.oracle, self.x, ys).grad(
                theta + _PLUS_MINUS * (h * vs[live]))
            out[live] = (gp - gm) / (2.0 * h)
        return out.reshape(v.shape)


LossPlan = LinearPlan | MlpPlan


@dataclass(frozen=True)
class LinearFlowPlan:
    """The linear family's flow plan: J0 and J~0 share A, so one A theta
    gives both gradients, A theta - b and A theta - b~."""

    a: np.ndarray       # (p, p)
    b: np.ndarray       # (p,)
    b_dith: np.ndarray  # (p,)

    def grads(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = (self.a @ theta[..., None])[..., 0]
        return at - self.b, at - self.b_dith

    def dith_grad(self, theta: np.ndarray) -> np.ndarray:
        return (self.a @ theta[..., None])[..., 0] - self.b_dith

    def hvps(self, theta: np.ndarray, p: np.ndarray,
             v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.a @ p, self.a @ v


@dataclass(frozen=True)
class MlpFlowPlan:
    """The mlp family's flow plan: one MlpPlan on the targets (y, y~), so
    one forward pass gives both gradients and one stacked call both
    Hessian-vector products."""

    plan: MlpPlan

    def grads(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.plan.grad(theta[..., None, :])
        return g[..., 0, :], g[..., 1, :]

    def dith_grad(self, theta: np.ndarray) -> np.ndarray:
        plan = self.plan
        return MlpPlan(plan.oracle, plan.x, plan.y[1]).grad(theta)

    def hvps(self, theta: np.ndarray, p: np.ndarray,
             v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hv = self.plan.hvp(theta, np.stack([p, v]))
        return hv[0], hv[1]


# grads(theta) is (grad J0, grad J~0) at a (p,) theta or at each row of a
# (B, p) stack, and dith_grad(theta) grad J~0 alone; hvps(theta, p, v) is
# (H p, H~ v), H and H~ the Hessians of J0 and J~0, with 0 for a zero
# direction.  Each result equals the per-dataset plan's call bit for bit.
FlowPlan = LinearFlowPlan | MlpFlowPlan


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
    oracle's or z holds nan or inf.  The plan's grad, hvp and value take a
    (p,) theta, grad also a (B, p) stack."""
    _check(oracle, z)
    return _plan(oracle, z.x, z.y)


def flow_plan(oracle: ModelOracle, z_train: Dataset,
              z_dith: Dataset) -> FlowPlan:
    """The losses of oracle on z_train and on its dithered version z_dith;
    ValueError if either fails loss_plan's checks or z_dith's inputs are
    not z_train's."""
    _check(oracle, z_train)
    _check(oracle, z_dith)
    if not np.array_equal(z_dith.x, z_train.x):
        raise ValueError(f"the {z_dith.tag} dataset's inputs differ from "
                         f"the {z_train.tag} dataset's")
    plan = _plan(oracle, z_train.x, np.stack([z_train.y, z_dith.y]))
    if oracle.family == "mlp_tanh":
        return MlpFlowPlan(plan)
    return LinearFlowPlan(plan.a, *plan.b)


def _params(oracle: ModelOracle, a, stack: bool = False) -> np.ndarray:
    """a as a (p,) vector, or with stack=True a 2-d input as a (B, p) stack;
    raises ValueError if the last axis is not p."""
    a = np.asarray(a, dtype=float)
    if not (stack and a.ndim == 2):
        a = a.ravel()
    if a.shape[-1] != oracle.param_dim:
        raise ValueError(f"dim {a.shape[-1]}, expected {oracle.param_dim}")
    return a


def loss_value(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> float:
    """Mean squared error of the model on z."""
    return loss_plan(oracle, z).value(_params(oracle, theta))


def loss_gradient(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> np.ndarray:
    """Gradient of loss_value with respect to theta.

    theta may be a (B, p) stack; the result then has shape (B, p), and each
    row equals the gradient of that row alone bit for bit.  A 2-d theta is
    always read as a stack, so (1, p) gives (1, p) and a (p, 1) column is
    rejected; any other shape is flattened to (p,).  phi_gradient and
    d_matrix, built on it, follow the same rule.
    """
    return loss_plan(oracle, z).grad(_params(oracle, theta, stack=True))


def loss_hvp(oracle: ModelOracle, theta: np.ndarray, z: Dataset,
             v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of loss_value at theta in direction v: A v for
    the linear family, a central difference of the gradient for the mlp."""
    return loss_plan(oracle, z).hvp(_params(oracle, theta),
                                    _params(oracle, v))


def d_matrix(oracle: ModelOracle, theta: np.ndarray, z_dithered: Dataset) -> np.ndarray:
    """Diagonal of the control coupling matrix: squared loss-gradient entries.

    Evaluated on the dithered training set; warns (but proceeds) if the
    dataset is not tagged dithered.
    """
    if z_dithered.tag != "dithered":
        warnings.warn(
            f"d_matrix expects a dithered dataset, got tag={z_dithered.tag!r}",
            stacklevel=2,
        )
    g = loss_gradient(oracle, theta, z_dithered)
    return g * g


def phi_value(oracle: ModelOracle, theta: np.ndarray, z_val: Dataset) -> float:
    """Validation cost: mean squared error on the validation set."""
    return loss_value(oracle, theta, z_val)


def phi_gradient(oracle: ModelOracle, theta: np.ndarray, z_val: Dataset) -> np.ndarray:
    return loss_gradient(oracle, theta, z_val)
