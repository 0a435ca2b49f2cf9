"""Solvers for nonlinear two-point BVPs on semi-infinite intervals,
exercised on the wind-driven ocean circulation boundary-layer model.

Three routes to the missing initial condition beta:
  * shooting on a truncated domain (secant or Newton root-finding),
  * a free-boundary reformulation discretized by the box scheme,
  * direct finite differences on a quasi-uniform logarithmic grid with
    the last node at infinity.
"""

from .model import (BcKind, MeshSolution, ModelParams, approx_missing_init,
                    bc_initial, munk_exact, rhs, rhs_jacobian,
                    rhs_variational)
from .ivp import IvpOptions, IvpStats, integrate
from .shooting import ShootingProblem, ShootingResult, solve_newton, \
    solve_secant
from .free_boundary import FbfProblem, continuation_solve, solve_fbf
from .quasi_uniform import QugProblem, solve_qug

__all__ = [
    "BcKind", "MeshSolution", "ModelParams", "approx_missing_init",
    "bc_initial", "munk_exact", "rhs", "rhs_jacobian", "rhs_variational",
    "IvpOptions", "IvpStats", "integrate",
    "ShootingProblem", "ShootingResult", "solve_newton", "solve_secant",
    "FbfProblem", "continuation_solve", "solve_fbf",
    "QugProblem", "solve_qug",
]
