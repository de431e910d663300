#!/usr/bin/env python3
"""Run the derivative and value-function verification suites on a small
quadratic-style instance and exit nonzero if any check fails."""

import sys

import numpy as np

from sgaflow import Dataset, ModelOracle, ProblemData
from sgaflow.basis import BasisSpec
from sgaflow.sga import SolverConfig
from sgaflow.verify import (check_coefficient_gradient, check_dp_identity,
                            check_rk4_order)


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
    reports = [
        check_rk4_order(oracle, config, data),
        check_coefficient_gradient(oracle, config, data, tol=1e-5),
        check_dp_identity(oracle, config, data),
    ]
    ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} (err={rep.max_rel_err:.3e}, "
              f"tol={rep.tol:.1e})")
        ok &= rep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
