"""Optimal-control training dynamics: a weakly controlled gradient flow whose
control minimizes validation cost at final time, solved by successive
Galerkin approximation."""

__version__ = "0.1.0"

from .basis import BasisSpec, eval_basis, eval_control
from .dataset import Dataset, bootstrap, dither, load_csv
from .dynamics import (AdjointTrajectory, TimeGrid, Trajectory, hamiltonian,
                       integrate_adjoint, integrate_forward)
from .model import ModelOracle, loss_gradient, loss_hvp, loss_value
from .sga import (ProblemData, SolverConfig, SolverReport, cost,
                  coefficient_gradient, solve)

__all__ = [
    "BasisSpec", "eval_basis", "eval_control",
    "Dataset", "bootstrap", "dither", "load_csv",
    "AdjointTrajectory", "TimeGrid", "Trajectory", "hamiltonian",
    "integrate_adjoint", "integrate_forward",
    "ModelOracle", "loss_gradient", "loss_hvp", "loss_value",
    "ProblemData", "SolverConfig", "SolverReport", "cost",
    "coefficient_gradient", "solve",
]
