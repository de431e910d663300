#!/usr/bin/env python3
"""Run the derivative and value-function verification suites on a small
quadratic-style instance, and the coefficient-gradient check on a small
tanh network whose costate sweep takes exact Hessian-vector products; exit
nonzero if any check fails."""

import sys

import numpy as np

from sgaflow import Dataset, ModelOracle, ProblemData, bootstrap, dither
from sgaflow.basis import BasisSpec
from sgaflow.sga import Problem, SolverConfig
from sgaflow.verify import (check_coefficient_gradient, check_dp_identity,
                            check_rk4_order, verdict)


def mlp_problem(seed: int = 61):
    """A 1-d tanh network of width 4 on sine data, started from the seeded
    random theta0 = 0.5 N(0, I), so every parameter moves."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 1))
    z0 = Dataset(x, np.sin(1.5 * x[:, 0]))
    z1 = bootstrap(z0, 20, True, seed + 1, tag="train")
    data = ProblemData(z1, dither(z1, 0.05, seed + 3),
                       bootstrap(z0, 20, True, seed + 2, tag="validation"))
    oracle = ModelOracle("mlp_tanh", 1, hidden=4)
    theta0 = 0.5 * np.random.default_rng(seed).standard_normal(
        oracle.param_dim)
    config = SolverConfig(eps=0.1, steps=200,
                          basis=BasisSpec("legendre_shifted", 3, 1.0),
                          u_max=5.0, theta0=theta0)
    return oracle, config, data


def main() -> int:
    # single-point dataset making the training loss 0.5*theta^2
    a = 2**-0.5
    z = Dataset([[a]], [0.0], "train")
    data = ProblemData(z, Dataset(z.x, z.y, "dithered"),
                       Dataset(z.x, z.y, "validation"))
    oracle = ModelOracle("linear_features", 1)
    config = SolverConfig(eps=0.1, steps=100,
                          basis=BasisSpec("legendre_shifted", 2, 1.0),
                          u_max=5.0, theta0=np.array([1.0]), max_iters=30)
    problem = Problem(oracle, config, data)
    return verdict([
        check_coefficient_gradient(problem),
        check_rk4_order(problem),
        check_dp_identity(problem),
        check_coefficient_gradient(Problem(*mlp_problem()), n_probes=1),
    ])


if __name__ == "__main__":
    sys.exit(main())
