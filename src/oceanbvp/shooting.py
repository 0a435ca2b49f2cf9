"""Truncated-boundary shooting for the ocean model.

The far condition u -> 1 is imposed at a finite xi_infinity, which turns
the BVP into root-finding on the missing initial condition beta through
F(beta) = u1(xi_infinity; beta) - 1.  F is driven to zero either by the
secant method on the three-equation system or by Newton's method on the
six-equation variational system, where F'(beta) = u4(xi_infinity; beta).
"""

from dataclasses import dataclass, field

import numpy as np

from . import ivp, model
from .model import BcKind, MeshSolution, ModelParams

DENSE_SAMPLES = 200


class ShootingError(Exception):
    pass


class MaxIterations(ShootingError):
    def __init__(self, method, limit, beta):
        super().__init__(f"{method} did not converge in {limit} iterations "
                         f"(last beta = {beta:.8g})")
        self.beta = beta


class DegenerateSecant(ShootingError):
    """Two consecutive residuals too close to form a secant step."""


class SingularDerivative(ShootingError):
    """|F'(beta)| below the pivot threshold in a Newton update."""


@dataclass(frozen=True)
class ShootingProblem:
    params: ModelParams = ModelParams()
    kind: BcKind = BcKind.NO_SLIP
    xi_infinity: float = 10.0
    tol: float = 1e-6
    ivp_opts: ivp.IvpOptions = ivp.IvpOptions()
    max_iterations: int = 50

    def __post_init__(self):
        if self.xi_infinity <= 0 or self.tol <= 0:
            raise ValueError("xi_infinity and tol must be positive")


@dataclass
class ShootingResult:
    beta: float
    iterations: int
    residual: float
    trajectory: MeshSolution
    stats: ivp.IvpStats


def _rhs3(prob):
    p = prob.params
    return lambda t, y: model.rhs(t, y, p)


def _rhs6(prob):
    p = prob.params
    return lambda t, y: model.rhs_variational(t, y, p)


def _integrate(prob, rhs, y0, beta, stats):
    """Run one IVP to xi_infinity, accumulating stats; on divergence the
    Overflow is re-raised with the offending beta attached."""
    try:
        y, st = ivp.integrate(rhs, 0.0, prob.xi_infinity, y0, prob.ivp_opts)
    except ivp.Overflow as err:
        err.beta = beta
        raise
    stats.add(st)
    return y


def shoot_residual(beta, prob):
    """F(beta) = u1(xi_infinity; beta) - 1."""
    stats = ivp.IvpStats()
    y = _integrate(prob, _rhs3(prob), model.bc_initial(prob.kind, beta),
                   beta, stats)
    return y[0] - 1.0


def _converged(beta, beta_prev, F, tol):
    # Conjunction of the relative beta-update test and the residual test;
    # neither alone terminates the iteration.  The relative test is taken
    # in multiplied form; at beta = 0 it has no scale and the update is
    # compared with tol directly.
    scale = abs(beta) if beta != 0.0 else 1.0
    return abs(beta - beta_prev) < tol * scale and abs(F) < tol


# Post-processing accuracy: the reported profile is integrated much
# tighter than the root-finding runs, because errors near xi_infinity are
# amplified by the growing mode of the linearization.
_DENSE_OPTS = ivp.IvpOptions(rel_tol=1e-9, abs_tol=1e-11)


def _dense_trajectory(beta, prob):
    """Re-integrate once at the converged beta, sampled at uniform points."""
    xi = np.linspace(0.0, prob.xi_infinity, DENSE_SAMPLES)
    u = np.empty((DENSE_SAMPLES, 3))
    y = model.bc_initial(prob.kind, beta)
    u[0] = y
    rhs = _rhs3(prob)
    for i in range(1, DENSE_SAMPLES):
        y, _ = ivp.integrate(rhs, xi[i - 1], xi[i], y, _DENSE_OPTS)
        u[i] = y
    return MeshSolution(xi=xi, u=u, beta=beta, kind=prob.kind,
                        params=prob.params)


def solve_secant(beta0, beta1, prob):
    """Secant iteration on F(beta); seeds beta0 != beta1 are not counted
    as iterations."""
    if beta0 == beta1:
        raise ValueError("secant seeds must differ")
    stats = ivp.IvpStats()
    rhs = _rhs3(prob)

    def F(beta):
        y = _integrate(prob, rhs, model.bc_initial(prob.kind, beta),
                       beta, stats)
        return y[0] - 1.0

    b_prev, b_cur = beta0, beta1
    f_prev, f_cur = F(beta0), F(beta1)
    for it in range(1, prob.max_iterations + 1):
        if abs(f_cur - f_prev) < 1e-14:
            raise DegenerateSecant(
                f"|F({b_cur:.8g}) - F({b_prev:.8g})| < 1e-14")
        b_next = b_cur - f_cur * (b_cur - b_prev) / (f_cur - f_prev)
        b_prev, f_prev = b_cur, f_cur
        b_cur = b_next
        f_cur = F(b_cur)
        if _converged(b_cur, b_prev, f_cur, prob.tol):
            return ShootingResult(beta=b_cur, iterations=it,
                                  residual=abs(f_cur),
                                  trajectory=_dense_trajectory(b_cur, prob),
                                  stats=stats)
    raise MaxIterations("secant", prob.max_iterations, b_cur)


def solve_newton(beta0, prob):
    """Newton iteration on F(beta), with F and F' obtained from a single
    integration of the six-equation system per iterate."""
    stats = ivp.IvpStats()
    rhs = _rhs6(prob)
    beta = beta0
    beta_prev = None
    for it in range(prob.max_iterations + 1):
        y0 = np.concatenate([model.bc_initial(prob.kind, beta),
                             model.sensitivity_initial(prob.kind)])
        y = _integrate(prob, rhs, y0, beta, stats)
        F, dF = y[0] - 1.0, y[3]
        if beta_prev is not None and _converged(beta, beta_prev, F, prob.tol):
            return ShootingResult(beta=beta, iterations=it,
                                  residual=abs(F),
                                  trajectory=_dense_trajectory(beta, prob),
                                  stats=stats)
        if abs(dF) < 1e-14:
            raise SingularDerivative(f"|F'({beta:.8g})| = {abs(dF):.3g}")
        beta_prev = beta
        beta = beta - F / dF
    raise MaxIterations("newton", prob.max_iterations, beta)
