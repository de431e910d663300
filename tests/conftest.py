import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, ProblemData, bootstrap, cli, dither
from sgaflow.basis import BasisSpec
from sgaflow.sga import SolverConfig


@contextmanager
def warnings_as_errors():
    """Turn every warning raised in the block into an error, with numpy's
    floating-point error state as the caller left it, and check that the
    block leaves that state as it found it."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
    assert np.geterr() == before


def zero_control(p: int, t_final: float = 1.0):
    """The null control u = 0 of p parameters on [0, t_final]: its C and
    basis, as integrate_forward takes them."""
    return np.zeros((p, 1)), BasisSpec("legendre_shifted", 1, t_final)


def quadratic_datasets(p: int):
    """Datasets on which the linear-family MSE equals 0.5*||theta||^2.

    p points x_i = sqrt(p/2) e_i with y = 0 give
    J0 = (1/p) * sum (sqrt(p/2) theta_i)^2 = 0.5 ||theta||^2,
    so the gradient is theta and the Hessian the identity.
    """
    a = np.sqrt(p / 2.0)
    x = a * np.eye(p)
    y = np.zeros(p)
    return (Dataset(x, y, "train"), Dataset(x, y, "dithered"),
            Dataset(x, y, "validation"))


@pytest.fixture
def quad1():
    """1-d quadratic problem: oracle plus its three datasets."""
    z1, zd, zv = quadratic_datasets(1)
    return ModelOracle("linear_features", 1), ProblemData(z1, zd, zv)


@pytest.fixture
def quad3():
    z1, zd, zv = quadratic_datasets(3)
    return ModelOracle("linear_features", 3), ProblemData(z1, zd, zv)


def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector, the
    entry-by-entry oracle of an exact gradient."""
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


def fd_hvp(grad, theta, v, h):
    """The Hessian-vector product of grad's function at theta along v by a
    4th-order central difference of grad of step h, the independent oracle
    of an exact product; v may be a stack that grad pairs with its targets."""
    def g(s):
        return grad(theta + s * v)
    return (8.0 * (g(h) - g(-h)) - (g(2.0 * h) - g(-2.0 * h))) / (12.0 * h)


def complex_step_hvp(grad, theta, v, h=1e-30):
    """grad's derivative at theta along v by the complex step, exact to
    rounding for a grad analytic in theta (Martins, Sturdza & Alonso, ACM
    TOMS 29, 2003); v may be a stack as for fd_hvp."""
    return grad(theta + 1j * h * v).imag / h


def linear_problem(d=2, m0=40, m=30, seed=0, noise_level=0.05):
    """Random linear regression task with bootstrapped train/val splits."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m0, d))
    theta_true = rng.standard_normal(d)
    z0 = Dataset(x, x @ theta_true)
    z1 = bootstrap(z0, m, True, seed + 1, tag="train")
    z2 = bootstrap(z0, m, True, seed + 2, tag="validation")
    zd = dither(z1, noise_level, seed + 3)
    return ModelOracle("linear_features", d), ProblemData(z1, zd, z2)


def mlp_problem(d=1, m0=30, m=20, seed=0, hidden=4, noise_level=0.05):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m0, d))
    y = np.sin(1.5 * x.sum(axis=1))
    z0 = Dataset(x, y)
    z1 = bootstrap(z0, m, True, seed + 1, tag="train")
    z2 = bootstrap(z0, m, True, seed + 2, tag="validation")
    zd = dither(z1, noise_level, seed + 3)
    return ModelOracle("mlp_tanh", d, hidden=hidden), ProblemData(z1, zd, z2)


def mlp_check_problem(seed, steps, n_basis):
    """An mlp problem and a solver config for a derivative check, started
    from the seeded random theta0 = 0.5 N(0, I).  From theta0 = 0 the check
    would test b2 alone: there D = g~^2 vanishes on W1, b1 and w2, so the
    flow never moves them and their rows of G are 0."""
    o, data = mlp_problem(seed=seed)
    theta0 = 0.5 * np.random.default_rng(seed).standard_normal(o.param_dim)
    config = SolverConfig(eps=0.1, steps=steps,
                          basis=BasisSpec("legendre_shifted", n_basis, 1.0),
                          u_max=5.0, theta0=theta0)
    return o, config, data


def p24_linear_cfg() -> dict:
    """configs/linear.json with source d = 8 and model degree 3, so p = 24:
    the one shipped-size linear problem whose solve moves J by much."""
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "linear.json")
    cfg["data"]["source"]["d"] = 8
    cfg["model"]["degree"] = 3
    return cfg
