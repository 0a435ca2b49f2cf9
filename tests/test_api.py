"""The public surface of the package: its names, the settable fields of
its problem and result types, and the checks on values entering them.

A new export or option, or a new parameter of the relaxation layer or of
the BS23 step, shows up here as a test diff.  Non-finite values (NaN and infinity) and values
of the wrong type are rejected where they enter."""

import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

import oceanbvp
from oceanbvp import free_boundary, ivp
from oceanbvp import (FbfProblem, IvpOptions, IvpStats, MeshSolution,
                      QugProblem, ShootingProblem, ShootingResult,
                      approx_missing_init, bc_initial, integrate,
                      solve_newton, solve_qug)
from oceanbvp.blocksolve import (BlockSystem, NewtonReport, midpoint_system,
                                 newton_solve, relax, solve_bordered_block)
from oceanbvp.model import BcKind, ModelParams


def test_exports_are_pinned():
    assert oceanbvp.__all__ == [
        "BcKind", "MeshSolution", "ModelParams", "approx_missing_init",
        "bc_initial", "munk_exact", "rhs", "rhs_jacobian", "rhs_variational",
        "IvpOptions", "IvpStats", "integrate",
        "ShootingProblem", "ShootingResult", "solve_newton", "solve_secant",
        "FbfProblem", "continuation_solve", "solve_fbf",
        "QugProblem", "solve_qug",
    ]


@pytest.mark.parametrize("cls, names", [
    (ShootingProblem, ["params", "kind", "xi_infinity", "tol", "ivp_opts"]),
    (FbfProblem, ["params", "kind", "eps", "J", "tol"]),
    (QugProblem, ["params", "kind", "c", "J", "tol"]),
    (IvpOptions, ["rel_tol", "abs_tol"]),
    (IvpStats, ["accepted_steps", "rejected_steps", "rhs_evaluations"]),
    (NewtonReport, ["iterations", "final_update_norm"]),
    (ShootingResult, ["beta", "iterations", "residual", "problem", "stats"]),
    (MeshSolution, ["xi", "u", "beta", "free_boundary", "infinity_state",
                    "iterate"]),
    (BlockSystem, ["J", "m", "residual", "jacobian"]),
])
def test_dataclass_fields_are_pinned(cls, names):
    assert [f.name for f in fields(cls)] == names


@pytest.mark.parametrize("fn, names", [
    (midpoint_system, ["widths", "weights", "g", "dg", "A", "C", "target"]),
    (solve_bordered_block,
     ["L", "R", "A", "C", "interior_rhs", "boundary_rhs"]),
    (newton_solve, ["sys", "v0", "tol", "iterate_check"]),
    (relax, ["problem", "initial"]),
])
def test_relaxation_parameters_are_pinned(fn, names):
    assert list(inspect.signature(fn).parameters) == names


def test_solve_fbf_is_relax():
    assert free_boundary.solve_fbf is relax


def test_bs23_step_takes_its_slope():
    params = inspect.signature(ivp.step_bs23).parameters
    assert list(params) == ["rhs", "t", "y", "h", "f_start"]
    assert all(p.default is p.empty for p in params.values())


def test_shooting_trajectory_is_still_readable():
    # no longer a field: the profile is integrated on first read
    res = solve_newton(0.9, ShootingProblem(params=ModelParams(0.0)))
    assert res.trajectory.beta == res.beta
    assert res.trajectory.u.shape == (len(res.trajectory.xi), 3)


NAN = math.nan
INF = math.inf


@pytest.mark.parametrize("make", [
    lambda: ShootingProblem(xi_infinity=NAN),
    lambda: ShootingProblem(tol=NAN),
    lambda: FbfProblem(tol=NAN),
    lambda: QugProblem(c=NAN),
    lambda: IvpOptions(rel_tol=NAN),
    lambda: IvpOptions(abs_tol=NAN),
    lambda: approx_missing_init(BcKind.SLIP, NAN),
    lambda: solve_qug(5.0, 20, ModelParams(2.0), BcKind.SLIP, tol=NAN),
    lambda: solve_qug(5.0, 20, ModelParams(2.0), BcKind.SLIP, tol=0.0),
    lambda: ShootingProblem(xi_infinity=INF),
    lambda: ShootingProblem(tol=INF),
    lambda: FbfProblem(tol=INF),
    lambda: QugProblem(c=INF),
    lambda: IvpOptions(rel_tol=INF),
    lambda: IvpOptions(abs_tol=INF),
    lambda: solve_qug(5.0, 20, ModelParams(2.0), BcKind.SLIP, tol=INF),
    lambda: integrate(lambda t, y: y, 0.0, INF, [1.0]),
    lambda: FbfProblem(J=NAN),
    lambda: FbfProblem(J=100.5),
    lambda: QugProblem(J=NAN),
    lambda: QugProblem(J=100.5),
    lambda: solve_qug(5.0, 100.5, ModelParams(2.0), BcKind.SLIP),
    lambda: QugProblem(tol=NAN),
    lambda: QugProblem(tol=INF),
    lambda: ShootingProblem(kind="no-slip"),
    lambda: FbfProblem(kind="no-slip"),
    lambda: QugProblem(kind="no-slip"),
    lambda: solve_qug(5.0, 200, ModelParams(2.0), "no-slip"),
    lambda: approx_missing_init("no-slip", 2.0),
    lambda: bc_initial("no-slip", 1.0),
    lambda: integrate(lambda t, y: y, 0.0, 1.0, []),
    lambda: FbfProblem(params=2.0),
    lambda: QugProblem(params=2.0),
    lambda: solve_qug(5.0, 20, 2.0, BcKind.SLIP),
    lambda: ShootingProblem(params=2.0),
    lambda: ShootingProblem(ivp_opts=None),
], ids=["shoot-xi-inf", "shoot-tol", "fbf-tol", "qug-c", "ivp-rel-tol",
        "ivp-abs-tol", "approx-b", "qug-tol-nan", "qug-tol-zero",
        "shoot-xi-inf-infinite", "shoot-tol-infinite", "fbf-tol-infinite",
        "qug-c-infinite", "ivp-rel-tol-infinite", "ivp-abs-tol-infinite",
        "qug-tol-infinite", "ivp-t-end-infinite", "fbf-J-nan",
        "fbf-J-fraction", "qug-J-nan", "qug-J-fraction",
        "qug-solve-J-fraction", "qug-problem-tol-nan",
        "qug-problem-tol-infinite", "shoot-kind-string", "fbf-kind-string",
        "qug-kind-string", "qug-solve-kind-string", "approx-kind-string",
        "bc-initial-kind-string", "ivp-y0-empty", "fbf-params-float",
        "qug-params-float", "qug-solve-params-float", "shoot-params-float",
        "shoot-ivp-opts-none"])
def test_nan_is_rejected_where_it_enters(make):
    with pytest.raises(ValueError):
        make()


def test_numpy_integer_grid_sizes_are_accepted():
    assert FbfProblem(J=np.int64(40)).J == 40
    assert QugProblem(J=np.int32(20)).J == 20
