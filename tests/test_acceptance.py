"""Acceptance gate: one check per headline claim, one printed verdict each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines on passing runs too).
"""

import math

import numpy as np
import pytest

from oceanbvp import blocksolve, free_boundary, model, quasi_uniform, shooting
from oceanbvp.benchmarks import (APPROX_BETA, APPROX_BETA_TOL, FBF_BETA_TOL,
                                 FBF_TABLE, FBF_XI_TOL, SHOOTING_EVALUATIONS,
                                 SHOOTING_SEEDS)
from oceanbvp.free_boundary import FbfProblem, solve_fbf
from oceanbvp.model import BcKind, ModelParams
from oceanbvp.quasi_uniform import QugProblem, solve_qug
from oceanbvp.shooting import ShootingProblem
from oracles import check_jacobian

B0 = ModelParams(0.0)
B2 = ModelParams(2.0)


def verdict(number, label, ok):
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_secant_shooting(secant_b2):
    ok = True
    for kind, beta_ref, iters_ref in [(BcKind.NO_SLIP, 0.826111, 12),
                                      (BcKind.SLIP, 0.528885, 13)]:
        res = secant_b2[kind]
        ok &= abs(res.beta - beta_ref) <= 5e-4
        ok &= abs(res.iterations - iters_ref) <= 2
    verdict(1, "secant shooting beta and iterations", ok)


def test_criterion_02_newton_shooting(newton_b2):
    ok = True
    for kind, beta_ref, iters_ref in [(BcKind.NO_SLIP, 0.826111, 7),
                                      (BcKind.SLIP, 0.528910, 8)]:
        res = newton_b2[kind]
        ok &= abs(res.beta - beta_ref) <= 5e-4
        ok &= abs(res.iterations - iters_ref) <= 2
    verdict(2, "Newton shooting beta and iterations", ok)


def test_criterion_03_free_boundary_tables(fbf_b2):
    ok = True
    for kind in BcKind:
        for eps, (xi_ref, iters_ref, beta_ref) in FBF_TABLE[kind].items():
            sol, rep = fbf_b2[(kind, eps)]
            ok &= abs(sol.free_boundary - xi_ref) <= FBF_XI_TOL
            ok &= abs(sol.beta - beta_ref) <= FBF_BETA_TOL
            ok &= abs(rep.iterations - iters_ref) <= 1
    verdict(3, "free-boundary tables (8 rows)", ok)


def test_criterion_04_continuation_counts(continuation_b2):
    ok = True
    for kind in BcKind:
        counts = [rep.iterations for _, rep in continuation_b2[kind]]
        ok &= len(counts) == 4
        ok &= all(abs(c - r) <= 1 for c, r in zip(counts, [7, 6, 6, 6]))
    verdict(4, "continuation iteration counts", ok)


def test_criterion_05_quasi_uniform_values(qug_b2):
    cases = [(BcKind.NO_SLIP, 200, 0.826180, 5),
             (BcKind.SLIP, 200, 0.528927, 4),
             (BcKind.NO_SLIP, 400, 0.826150, None),
             (BcKind.SLIP, 400, 0.528922, None)]
    ok = True
    for kind, J, beta_ref, iters_ref in cases:
        sol, rep = qug_b2[(kind, J)]
        ok &= abs(sol.beta - beta_ref) <= 2e-5
        if iters_ref is not None:
            ok &= abs(rep.iterations - iters_ref) <= 1
    verdict(5, "logarithmic-grid beta and iterations", ok)


def test_criterion_06_closed_form_approximations():
    ok = all(abs(model.approx_missing_init(kind, 2.0) - APPROX_BETA[kind])
             <= APPROX_BETA_TOL for kind in BcKind)
    verdict(6, "closed-form initial-slope approximations", ok)


def test_criterion_07_linear_limit_oracle():
    ok = True
    for kind in BcKind:
        res = shooting.solve_secant(0.9, 1.1,
                                    ShootingProblem(params=B0, kind=kind))
        ok &= abs(res.beta - 1.0) <= 1e-4

        z = np.linspace(0.0, 1.0, 2001)
        prof = np.array([model.munk_exact(kind, x) for x in z * 20.0])
        V0 = np.column_stack([prof, np.full(2001, 20.0)])
        sol, _ = solve_fbf(FbfProblem(params=B0, kind=kind, eps=1e-5),
                           initial=V0)
        ok &= abs(sol.beta - 1.0) <= 1e-4

        sol, _ = solve_qug(5.0, 200, B0, kind)
        ok &= abs(sol.beta - 1.0) <= 1e-4
    verdict(7, "linear limit b=0 recovered by all three methods", ok)


def test_criterion_08_order_of_accuracy(qug_b2):
    betas = [solve_fbf(FbfProblem(params=B2, kind=BcKind.NO_SLIP,
                                  eps=1e-3, J=J))[0].beta
             for J in (500, 1000, 2000)]
    ratio_fbf = abs(betas[0] - betas[1]) / abs(betas[1] - betas[2])

    betas = [qug_b2[(BcKind.NO_SLIP, J)][0].beta for J in (200, 400, 800)]
    ratio_qug = abs(betas[0] - betas[1]) / abs(betas[1] - betas[2])

    ok = 2.0 <= ratio_fbf <= 8.0 and 2.0 <= ratio_qug <= 8.0
    verdict(8, "second-order mesh convergence (both relaxation methods)", ok)


def test_criterion_09_property_suite():
    ok = True

    # analytic Jacobians against central finite differences
    rng = np.random.default_rng(42)
    for _ in range(20):
        u = rng.uniform(-2.0, 2.0, 3)
        J_an = model.rhs_jacobian(0.0, u, B2)
        J_fd = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-6
            J_fd[:, k] = (model.rhs(0.0, u + e, B2)
                          - model.rhs(0.0, u - e, B2)) / 2e-6
        ok &= np.max(np.abs(J_an - J_fd)) < 1e-5
    fbf_sys = free_boundary.build_system(
        FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=1e-2, J=12))
    ok &= check_jacobian(
        fbf_sys, FbfProblem(J=12).initial_guess()) < 1e-5
    grid = QugProblem(B2, BcKind.SLIP, c=5.0, J=12)
    qug_sys = quasi_uniform.build_system(grid)
    ok &= check_jacobian(
        qug_sys, grid.initial_guess()) < 1e-5

    # bordered block elimination against a dense oracle
    for _ in range(50):
        J = int(rng.integers(1, 13))
        m = int(rng.integers(1, 5))
        L = -np.eye(m) + 0.2 * rng.standard_normal((J, m, m))
        R = np.eye(m) + 0.2 * rng.standard_normal((J, m, m))
        A = np.eye(m) + 0.2 * rng.standard_normal((m, m))
        C = np.eye(m) + 0.2 * rng.standard_normal((m, m))
        ri = rng.standard_normal((J, m))
        rb = rng.standard_normal(m)
        x = blocksolve.solve_bordered_block(L, R, A, C, ri, rb)
        dense = np.linalg.solve(
            blocksolve.dense_jacobian_from_blocks(L, R, A, C),
            np.concatenate([ri.ravel(), rb])).reshape(J + 1, m)
        ok &= np.max(np.abs(x - dense)) / max(np.max(np.abs(dense)),
                                              1.0) < 1e-10

    # grid invariants
    g = QugProblem(c=5.0, J=200)
    ok &= all(sum(g.interval_weights(j)) == 1.0 for j in range(g.J))
    ok &= abs(g.finite_nodes()[-1] - 5.0 * math.log(200)) \
        <= 1e-12 * 5.0 * math.log(200)

    verdict(9, "Jacobian, elimination and grid property suite", ok)


def test_criterion_10_shooting_cost(secant_b2, newton_b2):
    evals = {}
    for kind in BcKind:
        evals[("shoot-secant", kind)] = secant_b2[kind].stats.rhs_evaluations
        evals[("shoot-newton", kind)] = newton_b2[kind].stats.rhs_evaluations
    ok = all(ref / 10.0 <= evals[key] <= ref * 10.0
             for key, ref in SHOOTING_EVALUATIONS.items())
    for kind in BcKind:
        ok &= evals[("shoot-newton", kind)] < evals[("shoot-secant", kind)]
    verdict(10, "shooting cost within an order of magnitude; "
            "Newton cheaper than secant", ok)
