"""Free-boundary formulation solved by the box scheme.

The far condition u -> 1 is replaced by the pair u = 1, u' = eps at an
unknown finite boundary xi_eps.  With u4 = xi_eps carried as a fourth
unknown and z = xi/u4 the problem lives on [0, 1], where the midpoint
(box) scheme on a uniform z-grid gives three rows per interval for
u' = u4 f(u).  u4 has none, so the block solve holds it constant over the
nodes and solves it once per Newton step of ``blocksolve.relax``.
``FbfProblem`` holds what is particular to the method: the ramp guess,
the check that aborts on an iterate with u4 <= 0, and the solution's
z -> xi map.  Decreasing eps pushes the free boundary out; a continuation
driver warm-starts each solve from the previous one's converged iterate.
"""

import math
import numbers
from dataclasses import dataclass, replace

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
    """One free-boundary solve: J uniform z-intervals, iterate (J+1, 4)
    with the u4 = xi_eps column last.  The equations have three rows per
    interval and none for u4, which the block solve therefore holds
    constant over the nodes; an ``initial`` whose u4 column differs
    between nodes is a ValueError."""

    params: ModelParams = ModelParams()
    kind: BcKind = BcKind.NO_SLIP
    eps: float = 1e-5
    J: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        model.check_params(self.params)
        model.check_kind(self.kind)
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if not isinstance(self.J, numbers.Integral) or self.J < 2:
            raise ValueError("J must be at least 2 and an integer")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def system(self):
        return build_system(self)

    def initial_guess(self):
        """Linear ramp iterate: u1 = z, u2 = z/2, u3 = 1 - z, u4 = 2."""
        z = np.linspace(0.0, 1.0, self.J + 1)
        return np.column_stack([z, 0.5 * z, 1.0 - z, np.full_like(z, 2.0)])

    def check_iterate(self, V):
        if V[0, 3] <= 0.0:
            raise NegativeFreeBoundary(V[0, 3])

    def solution(self, V):
        xi_eps = V[0, 3]
        z = np.linspace(0.0, 1.0, self.J + 1)
        return MeshSolution(xi=z * xi_eps, u=V[:, :3],
                            beta=V[0, model.missing_slot(self.kind)],
                            free_boundary=xi_eps, iterate=V)


def build_system(prob):
    """BlockSystem for the box-scheme equations on the unit z-interval:
    the midpoint scheme for u' = u4 f(u) with weights 1/2, three rows per
    interval over the four unknowns (u, u4)."""
    p = prob.params

    def g(V):
        return V[:, 3, None] * model.rhs(0.0, V[:, :3], p)

    def dg(V):
        u, u4 = V[:, :3], V[:, 3, None, None]
        G = np.empty((len(V), 3, 4))
        G[..., :3] = u4 * model.rhs_jacobian(0.0, u, p)
        G[..., 3] = model.rhs(0.0, u, p)
        return G

    return blocksolve.midpoint_system(
        np.full(prob.J, 1.0 / prob.J), np.full(prob.J, 0.5), g, dg,
        *model.boundary_rows(prob.kind, (1.0, prob.eps)))


solve_fbf = blocksolve.relax  # the shared Newton solve, by the method's name


def continuation_solve(prob, eps_sequence):
    """Solve ``replace(prob, eps=e)`` for a non-empty, strictly decreasing
    sequence of eps values, each warm-started from the previous one's
    iterate; returns one (MeshSolution, NewtonReport) per eps.  A failing
    stage raises its NewtonError, and later stages are not attempted."""
    stages = [replace(prob, eps=e) for e in eps_sequence]
    if not stages:
        raise ValueError("eps_sequence must not be empty")
    if any(s2.eps >= s1.eps for s1, s2 in zip(stages, stages[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    results = []
    for stage in stages:
        warm = results[-1][0].iterate if results else None
        results.append(solve_fbf(stage, initial=warm))
    return results
