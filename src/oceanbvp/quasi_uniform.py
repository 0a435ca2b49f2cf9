"""Direct finite differences on a quasi-uniform logarithmic grid.

The map xi = -c*ln(1 - eta) sends the uniform grid eta_j = j/J on [0, 1]
to a grid on [0, inf] whose last node sits exactly at infinity, so the
condition u(inf) = 1 is imposed there without truncation.  The midpoint
scheme only ever needs the value at the last node, never its coordinate:
all scheme coefficients are built from fractional nodes xi(eta) with
eta < 1, and on the last (infinite) interval the interpolation weights are
frozen to those of the penultimate interval to keep the coefficients from
jumping.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blocksolve, model
from .model import BcKind, MeshSolution, ModelParams


@dataclass(frozen=True)
class QuasiUniformGrid:
    """Logarithmic quasi-uniform grid with J intervals on [0, inf]."""

    c: float = 5.0
    J: int = 200

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.J < 3:
            raise ValueError("J must be at least 3")

    def node(self, j):
        """Coordinate of integer node j; node(J) is +inf, a tag that must
        never enter scheme arithmetic."""
        if not 0 <= j <= self.J:
            raise IndexError(f"node index {j} outside 0..{self.J}")
        if j == self.J:
            return math.inf
        return self.fractional_node(float(j))

    def fractional_node(self, position):
        """xi at grid position j + alpha (real, < J); finite by construction."""
        assert position < self.J, "fractional nodes must stay below eta = 1"
        return -self.c * math.log1p(-position / self.J)

    def finite_nodes(self):
        """Nodes 0..J-1 as an array (the infinity node is excluded)."""
        j = np.arange(self.J)
        return -self.c * np.log1p(-j / self.J)

    def interval_width(self, j):
        """Scheme width a = 2*(xi_{j+3/4} - xi_{j+1/4}) of interval j."""
        return 2.0 * (self.fractional_node(j + 0.75)
                      - self.fractional_node(j + 0.25))

    def interval_weights(self, j):
        """Interpolation weights (on u_{j+1}, on u_j) of interval j.

        For the last interval the literal weights would jump to (0, 1);
        the penultimate interval's pair is reused instead.
        """
        if j == self.J - 1:
            j = self.J - 2
        xi_l = self.fractional_node(float(j))
        xi_m = self.fractional_node(j + 0.5)
        xi_r = self.fractional_node(float(j + 1))
        b = (xi_m - xi_l) / (xi_r - xi_l)
        return b, 1.0 - b


def midpoint_value(u_j, u_j1, grid, j):
    """Midpoint interpolation b*u_{j+1} + c*u_j on interval j; the weights
    are a convex pair summing to one."""
    b, c = grid.interval_weights(j)
    return c * np.asarray(u_j) + b * np.asarray(u_j1)


def midpoint_derivative(u_j, u_j1, grid, j):
    """First derivative at the interval midpoint from the two node values;
    finite on every interval because only quarter nodes enter."""
    return (np.asarray(u_j1) - np.asarray(u_j)) / grid.interval_width(j)


def _boundary_blocks(kind):
    A = np.zeros((3, 3))
    C = np.zeros((3, 3))
    A[0, 0] = 1.0
    if kind is BcKind.NO_SLIP:
        A[1, 1] = 1.0
    else:
        A[1, 2] = 1.0
    C[2, 0] = 1.0
    return A, C


def build_system(params, kind, grid, freeze_last_weights=True):
    """BlockSystem for the midpoint scheme on the quasi-uniform grid.

    ``freeze_last_weights=False`` keeps the literal (0, 1) weights on the
    infinite interval; exposed only so the effect of the freeze can be
    measured.
    """
    J = grid.J
    a = np.array([grid.interval_width(j) for j in range(J)])
    bw = np.empty(J)
    cw = np.empty(J)
    for j in range(J):
        bw[j], cw[j] = grid.interval_weights(j)
    if not freeze_last_weights:
        bw[J - 1], cw[J - 1] = 0.0, 1.0
    A, C = _boundary_blocks(kind)
    p = params

    def residual(U):
        avg = bw[:, None] * U[1:] + cw[:, None] * U[:-1]
        interior = U[1:] - U[:-1] - a[:, None] * model.rhs(0.0, avg, p)
        boundary = np.array([
            U[0, 0],
            U[0, 1] if kind is BcKind.NO_SLIP else U[0, 2],
            U[J, 0] - 1.0,
        ])
        return interior, boundary

    def jacobian(U):
        avg = bw[:, None] * U[1:] + cw[:, None] * U[:-1]
        Jf = model.rhs_jacobian(0.0, avg, p)
        eye = np.eye(3)
        return (-eye - (a * cw)[:, None, None] * Jf,
                eye - (a * bw)[:, None, None] * Jf, A, C)

    return blocksolve.BlockSystem(J=J, m=3, residual=residual,
                                  jacobian=jacobian)


def qug_residual(U, params, kind, grid, freeze_last_weights=True):
    """Flat residual: J*3 interior rows then the 3 boundary rows."""
    sys = build_system(params, kind, grid,
                       freeze_last_weights=freeze_last_weights)
    return blocksolve.full_residual(sys, U)


def default_initial_guess(J):
    """Constant iterate u1 = 1, u2 = u3 = 0.1 at every node."""
    U = np.empty((J + 1, 3))
    U[:, 0] = 1.0
    U[:, 1:] = 0.1
    return U


def solve_qug(c, J, params, kind, tol=1e-6, max_iter=100, initial=None):
    """Newton solve of the quasi-uniform scheme; beta is read at node 0 and
    the infinity-node state is reported separately from the finite nodes.

    ``initial`` is a full (J+1, 3) iterate with the infinity node last (see
    ``iterate_of``); by default the constant guess is used.
    """
    grid = QuasiUniformGrid(c=c, J=J)
    sys = build_system(params, kind, grid)
    U0 = default_initial_guess(J) if initial is None else initial
    U, report = blocksolve.newton_solve(sys, U0, tol, max_iter=max_iter)
    beta = U[0, 2] if kind is BcKind.NO_SLIP else U[0, 1]
    sol = MeshSolution(xi=grid.finite_nodes(), u=U[:-1].copy(), beta=beta,
                       kind=kind, params=params,
                       infinity_state=U[J].copy())
    return sol, report


def iterate_of(sol):
    """The full (J+1, 3) iterate behind a solution, to warm-start a solve."""
    return np.vstack([sol.u, sol.infinity_state])
