"""Loss oracles for the built-in model families.

Two families are supported:

* ``linear_features`` -- h(x) = theta . phi(x) with an elementwise polynomial
  feature map; squared loss gives a constant Hessian (2/m) Phi^T Phi, so
  value/gradient/hvp are all closed form.  The feature matrix Phi of a
  dataset is built the first time an oracle needs it and kept with the
  dataset, one read-only matrix per feature map (feature_matrix).
* ``mlp_tanh`` -- one hidden tanh layer of configurable width; gradients are
  analytic, Hessian-vector products use a central difference of the gradient,
  both gradients taken in one stacked call.

The training loss is the mean squared error (1/m) sum (h(x_i) - y_i)^2; the
validation cost uses the same formula on the validation set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

_SQRT_EPS = np.sqrt(np.finfo(float).eps)


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


def feature_matrix(oracle: ModelOracle, z: Dataset) -> np.ndarray:
    """phi(z.x) for the linear family, shape (m, p), built on first use and
    kept with z: one read-only matrix per feature map (degree, bias)."""
    key = (oracle.degree, oracle.include_bias)
    phi = z.feature_cache.get(key)
    if phi is None:
        phi = oracle.features(z.x)
        phi.flags.writeable = False
        z.feature_cache[key] = phi
    return phi


def _check_dims(oracle: ModelOracle, theta: np.ndarray, z: Dataset,
                stack: bool = False) -> np.ndarray:
    """theta as a (p,) vector, or with stack=True a 2-d input as a (B, p)
    stack; raises ValueError if the last axis is not p."""
    theta = np.asarray(theta, dtype=float)
    if not (stack and theta.ndim == 2):
        theta = theta.ravel()
    if theta.shape[-1] != oracle.param_dim:
        raise ValueError(
            f"theta has dim {theta.shape[-1]}, oracle expects {oracle.param_dim}"
        )
    if z.d != oracle.input_dim:
        raise ValueError(
            f"dataset has d={z.d}, oracle expects input_dim={oracle.input_dim}"
        )
    return theta


def loss_value(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> float:
    """Mean squared error of the model on z."""
    theta = _check_dims(oracle, theta, z)
    if oracle.family == "linear_features":
        r = feature_matrix(oracle, z) @ theta - z.y
    else:
        r = oracle.predict(theta, z.x) - z.y
    return float(np.mean(r * r))


def loss_gradient(oracle: ModelOracle, theta: np.ndarray, z: Dataset) -> np.ndarray:
    """Analytic gradient of loss_value with respect to theta.

    theta may be a (B, p) stack; the result then has shape (B, p), and each
    row equals the gradient of that row alone bit for bit.  A 2-d theta is
    always read as a stack, so (1, p) gives (1, p) and a (p, 1) column is
    rejected; any other shape is flattened to (p,).  phi_gradient and
    d_matrix, built on it, follow the same rule.
    """
    theta = _check_dims(oracle, theta, z, stack=True)
    if oracle.family == "linear_features":
        phi = feature_matrix(oracle, z)
        # one matrix @ vector product per row, so each row matches a (p,) call
        r = (phi @ theta[..., None])[..., 0] - z.y       # (..., m)
        return (2.0 / z.m) * (phi.T @ r[..., None])[..., 0]
    w1, b1, w2, b2 = oracle._unpack(theta)
    t = np.tanh(z.x @ w1.swapaxes(-1, -2) + b1[..., None, :])   # (..., m, h)
    r = (t @ w2[..., None])[..., 0] + b2[..., None] - z.y       # (..., m)
    coef = (2.0 / z.m) * r
    s = coef[..., None] * (1.0 - t * t) * w2[..., None, :]      # (..., m, h)
    g_w1 = s.swapaxes(-1, -2) @ z.x                             # (..., h, d)
    g_w2 = (coef[..., None, :] @ t)[..., 0, :]
    return np.concatenate([g_w1.reshape(theta.shape[:-1] + (-1,)),
                           s.sum(axis=-2), g_w2,
                           coef.sum(axis=-1, keepdims=True)], axis=-1)


def loss_hvp(oracle: ModelOracle, theta: np.ndarray, z: Dataset,
             v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of loss_value at theta in direction v.

    Closed form for the linear family; central difference of the analytic
    gradient for the mlp, with step sqrt(eps)*(1+|theta|)/|v|, the gradients
    at theta +/- h v taken as one (2, p) stack.
    """
    theta = _check_dims(oracle, theta, z)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != oracle.param_dim:
        raise ValueError(f"v has dim {v.shape[0]}, expected {oracle.param_dim}")
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        return np.zeros_like(v)
    if oracle.family == "linear_features":
        phi = feature_matrix(oracle, z)
        return (2.0 / z.m) * (phi.T @ (phi @ v))
    h = _SQRT_EPS * (1.0 + np.linalg.norm(theta)) / vnorm
    gp, gm = loss_gradient(oracle, np.stack([theta + h * v, theta - h * v]), z)
    return (gp - gm) / (2.0 * h)


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
