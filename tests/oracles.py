"""Test oracles built on the public solver pieces, independent of the
code paths they check."""

import numpy as np

from oceanbvp import ivp, model
from oceanbvp.blocksolve import dense_jacobian_from_blocks


def shoot_residual(beta, prob):
    """F(beta) = u1(xi_infinity; beta) - 1 of a ShootingProblem.  The RHS
    returns a tuple of floats, the integrator's state type, which takes the
    same steps as ``model.rhs`` at a fraction of its per-call cost."""
    b = prob.params.b
    y, _ = ivp.integrate(lambda t, u: (u[1], u[2], model.forcing(*u, b)),
                         0.0, prob.xi_infinity,
                         model.bc_initial(prob.kind, beta), prob.ivp_opts)
    return y[0] - 1.0


def full_residual(sys, V):
    """Residual as one flat vector: J*m interior rows then m boundary rows."""
    interior, boundary = sys.residual(V)
    return np.concatenate([interior.ravel(), boundary])


def check_jacobian(sys, V, step=1e-6):
    """Max discrepancy between the analytic Jacobian blocks and central
    finite differences of the residual, relative to max(1, |entry|)."""
    V = np.asarray(V, float)
    dense = dense_jacobian_from_blocks(*sys.jacobian(V))
    flat = V.ravel()
    fd = np.empty_like(dense)
    for i in range(flat.size):
        h = step * max(1.0, abs(flat[i]))
        vp = flat.copy()
        vp[i] += h
        vm = flat.copy()
        vm[i] -= h
        shape = V.shape
        fd[:, i] = (full_residual(sys, vp.reshape(shape))
                    - full_residual(sys, vm.reshape(shape))) / (2 * h)
    return np.max(np.abs(dense - fd) / np.maximum(1.0, np.abs(dense)))
