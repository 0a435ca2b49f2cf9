"""Direct finite differences on a quasi-uniform logarithmic grid.

The map xi = -c*ln(1 - eta) sends the uniform grid eta_j = j/J on [0, 1]
to a grid on [0, inf] whose last node sits exactly at infinity, so the
condition u(inf) = 1 is imposed there without truncation.  The midpoint
scheme only ever needs the value at the last node, never its coordinate:
all scheme coefficients are built from fractional nodes xi(eta) with
eta < 1, and on the last (infinite) interval the interpolation weights are
frozen to those of the penultimate interval to keep the coefficients from
jumping.  ``QugProblem`` holds the grid and what is particular to the
method, the constant guess and the split of the infinity node from the
finite ones; the shared driver ``blocksolve.relax`` solves it.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import blocksolve, model
from .model import BcKind, MeshSolution, ModelParams


@dataclass(frozen=True)
class QugProblem:
    """One quasi-uniform solve: the logarithmic grid with J intervals on
    [0, inf], iterate (J+1, 3) with the infinity node last."""

    params: ModelParams = ModelParams()
    kind: BcKind = BcKind.NO_SLIP
    c: float = 5.0
    J: int = 200
    tol: float = 1e-6

    check_iterate = None  # every iterate is admissible

    def __post_init__(self):
        model.check_params(self.params)
        model.check_kind(self.kind)
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if not isinstance(self.J, numbers.Integral) or self.J < 3:
            raise ValueError("J must be at least 3 and an integer")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def fractional_node(self, position):
        """xi at grid positions j + alpha (reals or an array, < J); finite
        by construction."""
        position = np.asarray(position, dtype=float)
        if not (position < self.J).all():
            raise ValueError("fractional nodes must stay below eta = 1")
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

    def system(self):
        return build_system(self)

    def initial_guess(self):
        """Constant iterate u1 = 1, u2 = u3 = 0.1 at every node."""
        return np.tile([1.0, 0.1, 0.1], (self.J + 1, 1))

    def solution(self, U):
        return MeshSolution(xi=self.finite_nodes(), u=U[:-1],
                            beta=U[0, model.missing_slot(self.kind)],
                            infinity_state=U[-1], iterate=U)


def build_system(prob):
    """BlockSystem for the midpoint scheme on the quasi-uniform grid, with
    the last interval's weights frozen (see ``interval_weights``)."""
    j = np.arange(prob.J)
    return blocksolve.midpoint_system(
        prob.interval_width(j), prob.interval_weights(j)[0],
        lambda U: model.rhs(0.0, U, prob.params),
        lambda U: model.rhs_jacobian(0.0, U, prob.params),
        *model.boundary_rows(prob.kind, (1.0,)))


def solve_qug(c, J, params, kind, tol=QugProblem.tol, initial=None):
    """Solve ``QugProblem(params, kind, c, J, tol)`` by ``blocksolve.relax``;
    returns (MeshSolution, NewtonReport)."""
    return blocksolve.relax(QugProblem(params, kind, c=c, J=J, tol=tol),
                            initial)
