"""Truncated-boundary shooting for the ocean model.

The far condition u -> 1 is imposed at a finite xi_infinity, which turns
the BVP into root-finding on the missing initial condition beta through
F(beta) = u1(xi_infinity; beta) - 1.  F is driven to zero either by the
secant method on the three-equation system or by Newton's method on the
six-equation variational system, where F'(beta) = u4(xi_infinity; beta).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ivp, model
from .model import BcKind, MeshSolution, ModelParams

DENSE_SAMPLES = 200
MAX_ITERATIONS = 50


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

    def __post_init__(self):
        model.check_params(self.params)
        model.check_kind(self.kind)
        if not isinstance(self.ivp_opts, ivp.IvpOptions):
            raise ValueError(f"ivp_opts must be an IvpOptions, got "
                             f"{self.ivp_opts!r}")
        if not (0 < self.xi_infinity < math.inf and 0 < self.tol < math.inf):
            raise ValueError("xi_infinity and tol must be positive and "
                             "finite")


@dataclass
class ShootingResult:
    """A converged root.  ``stats`` counts the root-finding integrations
    only; ``trajectory``, the dense profile at ``beta``, is integrated on
    its first read and kept."""
    beta: float
    iterations: int
    residual: float
    problem: ShootingProblem
    stats: ivp.IvpStats

    @cached_property
    def trajectory(self):
        return _dense_trajectory(self.beta, self.problem)


def _rhs3(prob):
    # The three-equation system in companion form; only the forcing is
    # evaluated per stage.
    return ivp.ThirdOrder(model.forcing, prob.params.b)


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
    """Re-integrate once at the converged beta, sampled at uniform points
    that the steps land on."""
    xi = np.linspace(0.0, prob.xi_infinity, DENSE_SAMPLES)
    y0 = model.bc_initial(prob.kind, beta)
    u, _ = ivp.integrate(_rhs3(prob), 0.0, prob.xi_infinity, y0,
                         _DENSE_OPTS, t_eval=xi[1:])
    return MeshSolution(xi=xi, u=np.vstack([y0, u]), beta=beta)


def _shoot(method, prob, seeds, y0, step):
    """The one shooting loop.  A point is (beta, F, y), y the state at
    xi_infinity from ``y0(beta)``: three components (secant) or six with
    the sensitivity (Newton).  Iteration k is the k-th ``step`` from the
    last two points, then its integration; seeds are not iterations."""
    p, stats = prob.params, ivp.IvpStats()
    rhs = (_rhs3(prob) if method == "secant"
           else lambda t, y: model.rhs_variational(t, y, p))

    def point(beta):
        try:
            y, st = ivp.integrate(rhs, 0.0, prob.xi_infinity, y0(beta),
                                  prob.ivp_opts)
        except ivp.Overflow as err:
            err.beta = beta
            raise
        stats.add(st)
        return beta, y[0] - 1.0, y

    last = [None, *map(point, seeds)][-2:]  # Newton's seed has no predecessor
    for it in range(1, MAX_ITERATIONS + 1):
        last = [last[1], point(step(*last))]
        (beta_prev, _, _), (beta, F, _) = last
        if _converged(beta, beta_prev, F, prob.tol):
            return ShootingResult(beta=beta, iterations=it, residual=abs(F),
                                  problem=prob, stats=stats)
    raise MaxIterations(method, MAX_ITERATIONS, beta)


def solve_secant(beta0, beta1, prob):
    """Secant iteration on F(beta); seeds beta0 != beta1 are not counted
    as iterations."""
    if beta0 == beta1:
        raise ValueError("secant seeds must differ")

    def step(prev, cur):
        (b_prev, f_prev, _), (b_cur, f_cur, _) = prev, cur
        if abs(f_cur - f_prev) < 1e-14:
            raise DegenerateSecant(
                f"|F({b_cur:.8g}) - F({b_prev:.8g})| < 1e-14")
        return b_cur - f_cur * (b_cur - b_prev) / (f_cur - f_prev)

    return _shoot("secant", prob, (beta0, beta1),
                  lambda beta: model.bc_initial(prob.kind, beta), step)


def solve_newton(beta0, prob):
    """Newton iteration on F(beta), with F and F' obtained from a single
    integration of the six-equation system per iterate."""
    def y0(beta):
        return np.concatenate([model.bc_initial(prob.kind, beta),
                               model.sensitivity_initial(prob.kind)])

    def step(_, cur):
        beta, F, y = cur
        dF = y[3]
        if abs(dF) < 1e-14:
            raise SingularDerivative(f"|F'({beta:.8g})| = {abs(dF):.3g}")
        return beta - F / dF

    return _shoot("newton", prob, (beta0,), y0, step)
