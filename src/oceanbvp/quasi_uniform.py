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
from .blocksolve import NonPositiveBeta
from .model import MeshSolution


@dataclass(frozen=True)
class QuasiUniformGrid:
    """Logarithmic quasi-uniform grid with J intervals on [0, inf]."""

    c: float = 5.0
    J: int = 200

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.J < 3:
            raise ValueError("J must be at least 3")

    def fractional_node(self, position):
        """xi at grid positions j + alpha (reals or an array, < J); finite
        by construction."""
        position = np.asarray(position, dtype=float)
        assert (position < self.J).all(), \
            "fractional nodes must stay below eta = 1"
        return -self.c * np.log1p(-position / self.J)

    def finite_nodes(self):
        """Nodes 0..J-1 as an array (the infinity node is excluded)."""
        return self.fractional_node(np.arange(self.J))

    def interval_width(self, j):
        """Scheme widths a = 2*(xi_{j+3/4} - xi_{j+1/4}) of intervals j."""
        return 2.0 * (self.fractional_node(np.add(j, 0.75))
                      - self.fractional_node(np.add(j, 0.25)))

    def interval_weights(self, j):
        """Interpolation weights (on u_{j+1}, on u_j) of intervals j.

        For the last interval the literal weights would jump to (0, 1);
        the penultimate interval's pair is reused instead.
        """
        j = np.minimum(j, self.J - 2)
        xi_l = self.fractional_node(j)
        xi_m = self.fractional_node(j + 0.5)
        xi_r = self.fractional_node(j + 1)
        b = (xi_m - xi_l) / (xi_r - xi_l)
        return b, 1.0 - b


def build_system(params, kind, grid):
    """BlockSystem for the midpoint scheme on the quasi-uniform grid, with
    the last interval's weights frozen (see ``interval_weights``)."""
    j = np.arange(grid.J)
    return blocksolve.midpoint_system(
        grid.interval_width(j), grid.interval_weights(j)[0],
        lambda U: model.rhs(0.0, U, params),
        lambda U: model.rhs_jacobian(0.0, U, params),
        *model.boundary_rows(kind, (1.0,)))


def default_initial_guess(J):
    """Constant iterate u1 = 1, u2 = u3 = 0.1 at every node."""
    U = np.empty((J + 1, 3))
    U[:, 0] = 1.0
    U[:, 1:] = 0.1
    return U


def solve_qug(c, J, params, kind, tol=1e-6, initial=None):
    """Newton solve of the quasi-uniform scheme; beta is read at node 0 and
    the infinity-node state is reported separately from the finite nodes.
    A converged beta that is not positive raises NonPositiveBeta.

    ``initial`` is a full (J+1, 3) iterate with the infinity node last,
    such as the ``iterate`` of an earlier solution; by default the constant
    guess is used.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    grid = QuasiUniformGrid(c=c, J=J)
    sys = build_system(params, kind, grid)
    U0 = default_initial_guess(J) if initial is None else initial
    U, report = blocksolve.newton_solve(sys, U0, tol)
    beta = U[0, model.missing_slot(kind)]
    if not beta > 0.0:
        raise NonPositiveBeta(beta)
    sol = MeshSolution(xi=grid.finite_nodes(), u=U[:-1], beta=beta,
                       infinity_state=U[J], iterate=U)
    return sol, report
