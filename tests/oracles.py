"""Test oracles built on the public solver pieces, independent of the
code paths they check."""

import numpy as np

from oceanbvp import ivp, model
from oceanbvp.blocksolve import dense_jacobian_from_blocks
from oceanbvp.model import BcKind


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


def collocation_beta(b, kind, L, N):
    """beta of the untruncated problem by Chebyshev collocation on the
    algebraic map xi = L(1 + x)/(1 - x) of the N + 1 Lobatto points
    (Trefethen, *Spectral Methods in MATLAB*, ``cheb``; Boyd, *Chebyshev
    and Fourier Spectral Methods*, ch. 17).  The unknown is v = u - 1,
    so x = 1 is xi = infinity with v = 0 and x = -1 is the coast.  Of
    the solver it shares only ``model.forcing``.  Dense Newton from the
    Munk-like v = -exp(-xi) stops at a max update of 1e-10: the
    third-derivative matrix has a condition number of order N^6, and the
    updates stagnate near that level."""
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    Dx = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(N + 1))
    Dx -= np.diag(Dx.sum(axis=1))
    D1 = ((1.0 - x) ** 2 / (2.0 * L))[:, None] * Dx
    D2 = D1 @ D1
    D3 = D2 @ D1
    with np.errstate(divide="ignore"):
        v = -np.exp(-L * (1.0 + x) / (1.0 - x))
    beta_row, coast_row = (D2, D1) if kind is BcKind.NO_SLIP else (D1, D2)
    rows = slice(1, N - 1)
    for _ in range(30):
        v1, v2, v3 = D1 @ v, D2 @ v, D3 @ v
        F = np.concatenate([
            (v3 - model.forcing(v + 1.0, v1, v2, b))[rows],
            [v[0], v[N] + 1.0, coast_row[N] @ v]])
        dG = (np.diag(1.0 - b * v2) + (2.0 * b * v1)[:, None] * D1
              - (b * (v + 1.0))[:, None] * D2)
        Jac = np.vstack([(D3 - dG)[rows], np.eye(N + 1)[[0, N]],
                         coast_row[N]])
        dv = np.linalg.solve(Jac, -F)
        v += dv
        if np.max(np.abs(dv)) < 1e-10:
            return beta_row[N] @ v
    raise RuntimeError(f"collocation did not converge at b = {b}")
