"""Ocean circulation boundary-layer model.

Third-order ODE  u''' = b*(u'^2 - u*u'') + u - 1  on [0, inf) with u -> 1
at infinity, written as a first-order system u = (u1, u2, u3).  The one
nonlinear term is ``forcing``; the batched RHS of the relaxation schemes,
the float RHS of shooting and the variational RHS are all built on it.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class BcKind(Enum):
    """Boundary-condition variant at the coast (xi = 0).

    NO_SLIP (rigid) fixes u(0) = u'(0) = 0; the missing initial condition
    is beta = u''(0).  SLIP (stress-free) fixes u(0) = u''(0) = 0; the
    missing initial condition is beta = u'(0).
    """

    NO_SLIP = "no-slip"
    SLIP = "slip"


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: b measures the strength of the nonlinearity.

    b = 0 is the linear Munk limit, solvable in closed form.
    """

    b: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.b) or self.b < 0:
            raise ValueError(f"b must be finite and non-negative, got {self.b}")


def forcing(u1, u2, u3, b):
    """The third component of the RHS, b*(u2^2 - u1*u3) + u1 - 1, for
    floats or arrays."""
    return b * (u2 * u2 - u1 * u3) + u1 - 1.0


def rhs(xi, u, p):
    """Right-hand side f(xi, u) of the first-order system (autonomous).

    ``u`` may be one state (3,) or a batch (..., 3); the result has the
    same shape.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    out[..., 0] = u[..., 1]
    out[..., 1] = u[..., 2]
    out[..., 2] = forcing(u[..., 0], u[..., 1], u[..., 2], p.b)
    return out


def rhs_jacobian(xi, u, p):
    """Analytic Jacobian df/du, used by the Newton iterations.

    ``u`` may be one state (3,) or a batch (..., 3); the result has shape
    (..., 3, 3).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 0, 1] = 1.0
    out[..., 1, 2] = 1.0
    out[..., 2, 0] = 1.0 - p.b * u[..., 2]
    out[..., 2, 1] = 2.0 * p.b * u[..., 1]
    out[..., 2, 2] = -p.b * u[..., 0]
    return out


def rhs_variational(xi, U, p):
    """RHS of the six-equation system: base state plus beta-sensitivities.

    The last three components are the variational equations obtained by
    differentiating the system with respect to beta; they equal
    rhs_jacobian(u) @ (s4, s5, s6).  Returns a tuple of floats, the state
    type of the integrator.
    """
    u1, u2, u3, s4, s5, s6 = U
    b = p.b
    return (u2, u3, forcing(u1, u2, u3, b), s5, s6,
            b * (2.0 * u2 * s5 - u3 * s4 - u1 * s6) + s4)


def check_kind(kind):
    """``kind`` if it is a BcKind.  Anything else, the string "no-slip"
    too, is a ValueError: the switches below would take it for slip."""
    if not isinstance(kind, BcKind):
        raise ValueError(f"kind must be a BcKind, got {kind!r}")
    return kind


def check_params(params):
    """A ``params`` that is not a ModelParams is a ValueError, raised where
    it enters rather than at the first read of ``params.b``."""
    if not isinstance(params, ModelParams):
        raise ValueError(f"params must be a ModelParams, got {params!r}")


def missing_slot(kind):
    """Index of beta in the state (u, u', u''): 2 (u''(0)) for no-slip, 1
    (u'(0)) for slip.  The other of slots 1 and 2 is zero at the coast."""
    return 2 if check_kind(kind) is BcKind.NO_SLIP else 1


def boundary_rows(kind, far):
    """Boundary rows A V_0 + C V_J = target of a relaxation scheme: u(0) = 0
    and the fixed coast slot at node 0, then component k of node J equal to
    far[k] for each k.  There is one row per unknown, so a node holds
    m = 2 + len(far) unknowns."""
    m = 2 + len(far)
    A = np.zeros((m, m))
    C = np.zeros((m, m))
    A[0, 0] = 1.0
    A[1, 3 - missing_slot(kind)] = 1.0
    C[2:, :len(far)] = np.eye(len(far))
    return A, C, np.array([0.0, 0.0, *far])


def bc_initial(kind, beta):
    """Initial state of the shooting IVP with beta in the missing slot."""
    y = np.zeros(3)
    y[missing_slot(kind)] = beta
    return y


def sensitivity_initial(kind):
    """Initial condition of the sensitivity block: the beta-derivative of
    bc_initial, i.e. a unit vector in the slot holding beta."""
    return bc_initial(kind, 1.0)


def approx_missing_init(kind, b):
    """Closed-form approximation of the missing initial condition.

    Rigid:    u''(0) ~ sqrt(2 / (1 + sqrt(1 + 4b/3)))
    Slippery: u'(0)  ~ 2 / (1 + sqrt(1 + 10b/3))
    """
    if not 0 <= b < math.inf:
        raise ValueError(f"b must be finite and non-negative, got {b}")
    if check_kind(kind) is BcKind.NO_SLIP:
        return math.sqrt(2.0 / (1.0 + math.sqrt(1.0 + 4.0 * b / 3.0)))
    return 2.0 / (1.0 + math.sqrt(1.0 + 10.0 * b / 3.0))


def _munk_coefficients(kind):
    # Bounded solution of u''' = u - 1 is u = 1 + Re(C e^(r xi)) with
    # r the decaying cube root of unity; solve the 2x2 system at xi = 0
    # for C = A - iB rather than hard-coding A, B.
    r = np.exp(2j * math.pi / 3.0)
    order = 3 - missing_slot(kind)  # the derivative fixed to 0 at xi = 0
    # Re(C r^k) = A*Re(r^k) + B*Im(r^k)
    M = np.array([
        [1.0, 0.0],
        [(r**order).real, (r**order).imag],
    ])
    A, B = np.linalg.solve(M, [-1.0, 0.0])
    return A - 1j * B, r


def munk_exact(kind, xi):
    """Closed-form solution of the b = 0 (Munk) limit, as a (u, u', u'')
    state vector; used as an analytic oracle for all three solvers."""
    C, r = _munk_coefficients(kind)
    e = np.exp(r * xi)
    return np.array([1.0 + (C * e).real, (C * r * e).real, (C * r * r * e).real])


@dataclass
class MeshSolution:
    """Converged nodal solution of one of the solvers.

    xi holds the finite node coordinates; u is the (nodes, 3) state array.
    free_boundary is the computed xi_eps (free-boundary runs only) and
    infinity_state the state at the infinity node (quasi-uniform runs only).
    iterate is the converged Newton unknowns of a relaxation run, shaped
    as ``FbfProblem`` or ``QugProblem`` describes; it is the ``initial``
    that warm-starts another solve of the same problem, and the run's u
    and infinity_state are views into it.
    """

    xi: np.ndarray
    u: np.ndarray
    beta: float
    free_boundary: float = None
    infinity_state: np.ndarray = None
    iterate: np.ndarray = None
