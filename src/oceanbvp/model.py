"""Ocean circulation boundary-layer model.

Third-order ODE  u''' = b*(u'^2 - u*u'') + u - 1  on [0, inf) with u -> 1
at infinity, written as a first-order system u = (u1, u2, u3).  States are
plain numpy arrays of shape (3,), or (6,) when the sensitivity block with
respect to the missing initial condition beta is appended.
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

    @classmethod
    def from_physical(cls, gamma, kappa):
        """Reduce the inertial/viscous layer widths to the single parameter
        b = pi * (gamma / kappa^2)^(1/3)."""
        return cls(b=math.pi * (gamma / kappa**2) ** (1.0 / 3.0))


def rhs(xi, u, p):
    """Right-hand side f(xi, u) of the first-order system (autonomous)."""
    u1, u2, u3 = u
    return np.array([u2, u3, p.b * (u2 * u2 - u1 * u3) + u1 - 1.0])


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
    rhs_jacobian(u) @ (s4, s5, s6).
    """
    u1, u2, u3, s4, s5, s6 = U
    out = np.empty(6)
    out[0] = u2
    out[1] = u3
    out[2] = p.b * (u2 * u2 - u1 * u3) + u1 - 1.0
    out[3] = s5
    out[4] = s6
    out[5] = p.b * (2.0 * u2 * s5 - u3 * s4 - u1 * s6) + s4
    return out


def bc_initial(kind, beta):
    """Initial state of the shooting IVP with beta in the missing slot."""
    if kind is BcKind.NO_SLIP:
        return np.array([0.0, 0.0, beta])
    return np.array([0.0, beta, 0.0])


def sensitivity_initial(kind):
    """Initial condition of the sensitivity block: the beta-derivative of
    bc_initial, i.e. a unit vector in the slot holding beta."""
    if kind is BcKind.NO_SLIP:
        return np.array([0.0, 0.0, 1.0])
    return np.array([0.0, 1.0, 0.0])


def approx_missing_init(kind, b, principal=True):
    """Closed-form approximation of the missing initial condition.

    Rigid:    u''(0) ~ sqrt(2 / (1 +- sqrt(1 + 4b/3)))
    Slippery: u'(0)  ~ 2 / (1 +- sqrt(1 + 10b/3))

    The principal branch takes the "+" sign, which is the one the computed
    solutions agree with at b = 2; ``principal=False`` gives the other
    branch (negative denominator for b > 0, so complex/negative values may
    result; it is reported for completeness, never solved for).
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    if kind is BcKind.NO_SLIP:
        root = math.sqrt(1.0 + 4.0 * b / 3.0)
        denom = 1.0 + root if principal else 1.0 - root
        return math.sqrt(2.0 / denom)
    root = math.sqrt(1.0 + 10.0 * b / 3.0)
    denom = 1.0 + root if principal else 1.0 - root
    return 2.0 / denom


def _munk_coefficients(kind):
    # Bounded solution of u''' = u - 1 is u = 1 + Re(C e^(r xi)) with
    # r the decaying cube root of unity; solve the 2x2 system at xi = 0
    # for C = A - iB rather than hard-coding A, B.
    r = np.exp(2j * math.pi / 3.0)
    order = 1 if kind is BcKind.NO_SLIP else 2
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
    """

    xi: np.ndarray
    u: np.ndarray
    beta: float
    kind: BcKind
    params: ModelParams
    free_boundary: float = None
    infinity_state: np.ndarray = None
