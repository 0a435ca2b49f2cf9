"""Free-boundary formulation solved by the box scheme.

The far condition u -> 1 is replaced by the pair u = 1, u' = eps at an
unknown finite boundary xi_eps.  With u4 = xi_eps carried as a fourth,
constant unknown and z = xi/u4 the problem lives on [0, 1], where it is
discretized by the midpoint (box) scheme on a uniform z-grid and solved
with the shared block Newton iteration.  Decreasing eps pushes the free
boundary out; a continuation driver warm-starts each solve from the
previous one.
"""

from dataclasses import dataclass

import numpy as np

from . import blocksolve, model
from .model import BcKind, MeshSolution, ModelParams


class NegativeFreeBoundary(Exception):
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
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def default_initial_guess(J):
    """Linear ramp iterate: u1 = z, u2 = z/2, u3 = 1 - z, u4 = 2."""
    z = np.linspace(0.0, 1.0, J + 1)
    return np.column_stack([z, 0.5 * z, 1.0 - z, np.full(J + 1, 2.0)])


def _boundary_blocks(prob):
    m = 4
    A = np.zeros((m, m))
    C = np.zeros((m, m))
    A[0, 0] = 1.0
    if prob.kind is BcKind.NO_SLIP:
        A[1, 1] = 1.0
    else:
        A[1, 2] = 1.0
    C[2, 0] = 1.0
    C[3, 1] = 1.0
    return A, C


def build_system(prob):
    """BlockSystem for the box-scheme equations on the unit z-interval."""
    p = prob.params
    J = prob.J
    dz = 1.0 / J
    A, C = _boundary_blocks(prob)

    def residual(V):
        avg = 0.5 * (V[1:] + V[:-1])
        F = np.zeros((J, 4))
        F[:, :3] = avg[:, 3, None] * model.rhs(0.0, avg[:, :3], p)
        interior = V[1:] - V[:-1] - dz * F
        boundary = np.array([
            V[0, 0],
            V[0, 1] if prob.kind is BcKind.NO_SLIP else V[0, 2],
            V[J, 0] - 1.0,
            V[J, 1] - prob.eps,
        ])
        return interior, boundary

    def jacobian(V):
        # Box-scheme blocks -I - dz/2 G and I - dz/2 G, G the Jacobian of
        # (u4 f(u), 0) at the interval midpoints.
        avg = 0.5 * (V[1:] + V[:-1])
        half = np.zeros((J, 4, 4))
        half[:, :3, :3] = 0.5 * dz * (
            avg[:, 3, None, None] * model.rhs_jacobian(0.0, avg[:, :3], p))
        half[:, :3, 3] = 0.5 * dz * model.rhs(0.0, avg[:, :3], p)
        eye = np.eye(4)
        return -eye - half, eye - half, A, C

    return blocksolve.BlockSystem(J=J, m=4, residual=residual,
                                  jacobian=jacobian)


def fbf_residual(V, prob):
    """Flat residual: J*4 interior box rows, then the 4 boundary rows."""
    return blocksolve.full_residual(build_system(prob), V)


def _to_solution(V, prob):
    xi_eps = V[0, 3]
    z = np.linspace(0.0, 1.0, prob.J + 1)
    beta = V[0, 2] if prob.kind is BcKind.NO_SLIP else V[0, 1]
    return MeshSolution(xi=z * xi_eps, u=V[:, :3].copy(), beta=beta,
                        kind=prob.kind, params=prob.params,
                        free_boundary=xi_eps)


def solve_fbf(prob, initial=None):
    """Solve one free-boundary problem; returns (MeshSolution, NewtonReport).

    ``initial`` is a full (J+1, 4) iterate; by default the linear ramp
    guess is used.
    """
    sys = build_system(prob)
    V0 = default_initial_guess(prob.J) if initial is None else initial

    def check(V):
        u4 = V[0, 3]
        if u4 <= 0.0:
            raise NegativeFreeBoundary(u4)

    V, report = blocksolve.newton_solve(sys, V0, prob.tol,
                                        max_iter=prob.max_iter,
                                        iterate_check=check)
    return _to_solution(V, prob), report


def continuation_solve(prob, eps_sequence):
    """Solve for a strictly decreasing sequence of eps values, each solve
    warm-started from the previous converged state.

    Returns (results, error): ``results`` is the list of
    (MeshSolution, NewtonReport) completed before any failure; ``error``
    is None on full success, otherwise the exception that stopped the
    sequence.
    """
    eps_sequence = list(eps_sequence)
    if any(e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    if any(not 0 < e < 1 for e in eps_sequence):
        raise ValueError("all eps values must lie in (0, 1)")
    results = []
    state = None
    for eps in eps_sequence:
        step = FbfProblem(params=prob.params, kind=prob.kind, eps=eps,
                          J=prob.J, tol=prob.tol, max_iter=prob.max_iter)
        try:
            sol, report = solve_fbf(step, initial=state)
        except Exception as err:  # report completed prefix with the failure
            return results, err
        results.append((sol, report))
        state = iterate_of(sol)
    return results, None


def iterate_of(sol):
    """The full (J+1, 4) iterate behind a solution, to warm-start a solve:
    the nodal states with the constant u4 = xi_eps appended."""
    return np.column_stack([sol.u, np.full(len(sol.u), sol.free_boundary)])
