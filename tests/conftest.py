import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle, ProblemData, bootstrap, dither
from sgaflow.basis import BasisSpec
from sgaflow.sga import SolverConfig


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
    config = SolverConfig(eps=0.1, t_final=1.0, steps=steps,
                          basis=BasisSpec("legendre_shifted", n_basis, 1.0),
                          u_max=5.0, theta0=theta0)
    return o, config, data
