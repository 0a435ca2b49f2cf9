"""Session-scoped solver runs shared between the unit and acceptance tests,
and a spy on the shooting profile's integrations.

The shooting runs at b = 2 are the expensive ones (the secant seed at
beta = 2 alone costs ~3e5 RHS evaluations), so each configuration is
solved once per session.
"""

import numpy as np
import pytest

from oceanbvp import (FbfProblem, ShootingProblem, continuation_solve, ivp,
                      shooting, solve_fbf, solve_newton, solve_qug,
                      solve_secant)
from oceanbvp.benchmarks import SHOOTING_SEEDS
from oceanbvp.model import BcKind, ModelParams

B2 = ModelParams(2.0)
EPS_SEQUENCE = [1e-2, 1e-3, 1e-4, 1e-5]


@pytest.fixture
def dense_integrations(monkeypatch):
    """A list that gains one entry per ``ivp.integrate`` call made with the
    shooting profile's options, ``shooting._DENSE_OPTS``."""
    calls = []
    integrate = ivp.integrate

    def spy(rhs, t0, t_end, y0, opts=ivp.IvpOptions(), **kwargs):
        if opts is shooting._DENSE_OPTS:
            calls.append((t0, t_end))
        return integrate(rhs, t0, t_end, y0, opts, **kwargs)

    monkeypatch.setattr(ivp, "integrate", spy)
    return calls


@pytest.fixture(scope="session")
def secant_b2():
    out = {}
    for kind in BcKind:
        beta0, beta1 = SHOOTING_SEEDS[("shoot-secant", kind)]
        out[kind] = solve_secant(beta0, beta1,
                                 ShootingProblem(params=B2, kind=kind))
    return out


@pytest.fixture(scope="session")
def newton_b2():
    out = {}
    for kind in BcKind:
        beta0, _ = SHOOTING_SEEDS[("shoot-newton", kind)]
        out[kind] = solve_newton(beta0, ShootingProblem(params=B2, kind=kind))
    return out


@pytest.fixture(scope="session")
def fbf_b2():
    """(kind, eps) -> (MeshSolution, NewtonReport), cold starts at J=2000."""
    out = {}
    for kind in BcKind:
        for eps in EPS_SEQUENCE:
            out[(kind, eps)] = solve_fbf(
                FbfProblem(params=B2, kind=kind, eps=eps))
    return out


@pytest.fixture(scope="session")
def fbf_b2_j4000():
    return {kind: solve_fbf(FbfProblem(params=B2, kind=kind, eps=1e-5,
                                       J=4000))
            for kind in BcKind}


@pytest.fixture(scope="session")
def continuation_b2():
    return {kind: continuation_solve(
                FbfProblem(params=B2, kind=kind, eps=EPS_SEQUENCE[0]),
                EPS_SEQUENCE)
            for kind in BcKind}


@pytest.fixture(scope="session")
def qug_b2():
    """(kind, J) -> (MeshSolution, NewtonReport) at c = 5."""
    return {(kind, J): solve_qug(5.0, J, B2, kind)
            for kind in BcKind for J in (200, 400, 800)}
