"""Free-boundary formulation solved by the box scheme.

The far condition u -> 1 is replaced by the pair u = 1, u' = eps at an
unknown finite boundary xi_eps.  With u4 = xi_eps carried as a fourth,
constant unknown and z = xi/u4 the problem lives on [0, 1], where it is
discretized by the midpoint (box) scheme on a uniform z-grid and solved
with the shared block Newton iteration.  Decreasing eps pushes the free
boundary out; a continuation driver warm-starts each solve from the
previous one's converged iterate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blocksolve, model
from .model import BcKind, MeshSolution, ModelParams


class NegativeFreeBoundary(blocksolve.NewtonError):
    """An iterate drove u4 = xi_eps to a non-positive value; the z -> xi
    map is meaningless there, so the solve is aborted."""

    def __init__(self, value):
        super().__init__(f"free boundary iterate became non-positive "
                         f"({value:.6g})")
        self.value = value


@dataclass(frozen=True)
class FbfProblem:
    params: ModelParams = ModelParams()
    kind: BcKind = BcKind.NO_SLIP
    eps: float = 1e-5
    J: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


def default_initial_guess(J):
    """Linear ramp iterate: u1 = z, u2 = z/2, u3 = 1 - z, u4 = 2."""
    z = np.linspace(0.0, 1.0, J + 1)
    return np.column_stack([z, 0.5 * z, 1.0 - z, np.full(J + 1, 2.0)])


def build_system(prob):
    """BlockSystem for the box-scheme equations on the unit z-interval:
    the midpoint scheme for V' = (u4 f(u), 0) with weights 1/2."""
    p = prob.params

    def g(V):
        out = np.zeros(V.shape)
        out[:, :3] = V[:, 3, None] * model.rhs(0.0, V[:, :3], p)
        return out

    def dg(V):
        u, u4 = V[:, :3], V[:, 3, None, None]
        G = np.zeros(V.shape + (4,))
        G[:, :3, :3] = u4 * model.rhs_jacobian(0.0, u, p)
        G[:, :3, 3] = model.rhs(0.0, u, p)
        return G

    return blocksolve.midpoint_system(
        np.full(prob.J, 1.0 / prob.J), np.full(prob.J, 0.5), g, dg,
        *model.boundary_rows(prob.kind, (1.0, prob.eps)))


def _to_solution(V, prob):
    xi_eps = V[0, 3]
    z = np.linspace(0.0, 1.0, prob.J + 1)
    return MeshSolution(xi=z * xi_eps, u=V[:, :3],
                        beta=V[0, model.missing_slot(prob.kind)],
                        free_boundary=xi_eps, iterate=V)


def solve_fbf(prob, initial=None):
    """Solve one free-boundary problem; returns (MeshSolution, NewtonReport).

    ``initial`` is a full (J+1, 4) iterate, such as the ``iterate`` of an
    earlier solution; by default the linear ramp guess is used.  A
    converged beta that is not positive raises NonPositiveBeta.
    """
    sys = build_system(prob)
    V0 = default_initial_guess(prob.J) if initial is None else initial

    def check(V):
        u4 = V[0, 3]
        if u4 <= 0.0:
            raise NegativeFreeBoundary(u4)

    V, report = blocksolve.newton_solve(sys, V0, prob.tol,
                                        iterate_check=check)
    sol = _to_solution(V, prob)
    if not sol.beta > 0.0:
        raise blocksolve.NonPositiveBeta(sol.beta)
    return sol, report


def continuation_solve(prob, eps_sequence):
    """Solve for a strictly decreasing sequence of eps values, each solve
    warm-started from the previous one's converged iterate.

    Returns the list of (MeshSolution, NewtonReport), one per eps.  A
    failing stage raises its NewtonError, and later stages are not
    attempted.
    """
    eps_sequence = list(eps_sequence)
    if any(e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    if any(not 0 < e < 1 for e in eps_sequence):
        raise ValueError("all eps values must lie in (0, 1)")
    results = []
    initial = None
    for eps in eps_sequence:
        step = FbfProblem(params=prob.params, kind=prob.kind, eps=eps,
                          J=prob.J, tol=prob.tol)
        sol, report = solve_fbf(step, initial=initial)
        results.append((sol, report))
        initial = sol.iterate
    return results
