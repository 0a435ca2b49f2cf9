import numpy as np
import pytest

from oceanbvp import blocksolve, free_boundary, model
from oceanbvp.free_boundary import (FbfProblem, NegativeFreeBoundary,
                                    build_system, continuation_solve,
                                    solve_fbf)
from oceanbvp.model import BcKind, ModelParams
from oracles import check_jacobian, full_residual

B0 = ModelParams(0.0)
B2 = ModelParams(2.0)
EPS_SEQUENCE = [1e-2, 1e-3, 1e-4, 1e-5]


class TestProblemValidation:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            FbfProblem(eps=0.0)
        with pytest.raises(ValueError):
            FbfProblem(eps=1.0)

    def test_min_intervals(self):
        with pytest.raises(ValueError):
            FbfProblem(eps=1e-2, J=1)


class TestResidual:
    def test_default_guess_ramp(self):
        V = FbfProblem(J=4).initial_guess()
        np.testing.assert_allclose(V[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(V[:, 1], V[:, 0] / 2)
        np.testing.assert_allclose(V[:, 2], 1.0 - V[:, 0])
        np.testing.assert_allclose(V[:, 3], 2.0)

    def test_converged_solution_has_tiny_residual(self, fbf_b2):
        for kind in BcKind:
            sol, _ = fbf_b2[(kind, 1e-2)]
            prob = FbfProblem(params=B2, kind=kind, eps=1e-2)
            V = np.column_stack([sol.u,
                                 np.full(prob.J + 1, sol.free_boundary)])
            np.testing.assert_array_equal(sol.iterate, V)
            res = full_residual(build_system(prob), V)
            assert np.mean(np.abs(res)) < 1e-8

    def test_constant_state_hand_evaluated(self):
        # midpoint rule on a constant profile V = (1, eps, 0, L): every
        # interval contributes the three rows -dz * L * (eps, 0, b*eps^2),
        # and the left boundary row u1(0) = 1 is violated.
        eps, L, J = 1e-2, 3.0, 5
        prob = FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=eps, J=J)
        V = np.tile([1.0, eps, 0.0, L], (J + 1, 1))
        res = full_residual(build_system(prob), V)
        dz = 1.0 / J
        row = -dz * L * np.array([eps, 0.0, B2.b * eps**2])
        np.testing.assert_allclose(res[:3 * J].reshape(J, 3),
                                   np.tile(row, (J, 1)), atol=1e-15)
        np.testing.assert_allclose(res[3 * J:], [1.0, eps, 0.0, 0.0],
                                   atol=1e-15)

    def test_two_interval_instance_against_hand_expansion(self):
        prob = FbfProblem(params=B2, kind=BcKind.SLIP, eps=1e-2, J=2)
        rng = np.random.default_rng(11)
        V = rng.uniform(0.2, 1.5, (3, 4))
        res = full_residual(build_system(prob), V)
        for j in (1, 2):
            avg = 0.5 * (V[j] + V[j - 1])
            f = model.rhs(0.0, avg[:3], B2)
            expect = V[j, :3] - V[j - 1, :3] \
                - 0.5 * np.array([avg[3] * f[0], avg[3] * f[1],
                                  avg[3] * f[2]])
            np.testing.assert_allclose(res[3 * (j - 1):3 * j], expect,
                                       atol=1e-14)
        np.testing.assert_allclose(
            res[6:], [V[0, 0], V[0, 2], V[2, 0] - 1.0, V[2, 1] - 1e-2])

    def test_analytic_jacobian_matches_finite_differences(self):
        prob = FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=1e-2, J=12)
        sys = build_system(prob)
        assert check_jacobian(sys, prob.initial_guess()) < 1e-5


class TestSolve:
    def test_table_values(self, fbf_b2):
        from oceanbvp.benchmarks import FBF_TABLE
        for kind in BcKind:
            for eps, (xi_ref, iters_ref, beta_ref) in FBF_TABLE[kind].items():
                sol, rep = fbf_b2[(kind, eps)]
                assert sol.free_boundary == pytest.approx(xi_ref, abs=1e-4)
                assert sol.beta == pytest.approx(beta_ref, abs=2e-5)
                assert abs(rep.iterations - iters_ref) <= 1

    def test_fine_mesh(self, fbf_b2_j4000):
        sol, _ = fbf_b2_j4000[BcKind.NO_SLIP]
        assert sol.beta == pytest.approx(0.826140, abs=2e-5)
        assert sol.free_boundary == pytest.approx(13.402251, abs=1e-4)

    def test_boundary_rows_hold_at_convergence(self, fbf_b2):
        for kind in BcKind:
            for eps in EPS_SEQUENCE:
                sol, _ = fbf_b2[(kind, eps)]
                prob = FbfProblem(params=B2, kind=kind, eps=eps)
                assert abs(sol.u[-1, 0] - 1.0) <= 10 * prob.tol
                assert abs(sol.u[-1, 1] - eps) <= 10 * prob.tol

    def test_mean_residual_consistent_with_update_criterion(self, fbf_b2):
        sol, _ = fbf_b2[(BcKind.SLIP, 1e-3)]
        prob = FbfProblem(params=B2, kind=BcKind.SLIP, eps=1e-3)
        V = np.column_stack([sol.u, np.full(prob.J + 1, sol.free_boundary)])
        res = full_residual(build_system(prob), V)
        assert np.mean(np.abs(res)) <= 10 * prob.tol

    def test_free_boundary_unknown_constant_across_nodes(self, fbf_b2):
        # The block solve carries u4 as one unknown, so every iterate
        # holds the same value at every node, bit for bit.
        prob = FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=1e-2, J=200)
        sys = build_system(prob)
        V, _ = blocksolve.newton_solve(sys, prob.initial_guess(),
                                       prob.tol)
        assert (V[:, 3] == V[0, 3]).all()
        iterate = fbf_b2[(BcKind.SLIP, 1e-5)][0].iterate
        assert (iterate[:, 3] == iterate[0, 3]).all()

    def test_varying_free_boundary_warm_start_is_rejected(self, monkeypatch):
        solves = []
        monkeypatch.setattr(blocksolve, "solve_bordered_block",
                            lambda *args: solves.append(1))
        prob = FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=1e-2, J=200)
        guess = prob.initial_guess()
        guess[:, 3] = np.linspace(2.0, 3.0, prob.J + 1)
        with pytest.raises(ValueError, match="equal at every node"):
            solve_fbf(prob, initial=guess)
        assert solves == []

    def test_free_boundary_grows_as_eps_shrinks(self, fbf_b2):
        for kind in BcKind:
            xis = [fbf_b2[(kind, eps)][0].free_boundary
                   for eps in EPS_SEQUENCE]
            assert all(x2 > x1 for x1, x2 in zip(xis, xis[1:]))
            # exponential tail: decade steps in eps move the boundary by
            # nearly equal increments
            diffs = np.diff(xis)
            assert np.max(diffs) / np.min(diffs) < 1.03

    def test_second_order_accuracy_in_mesh(self):
        betas = []
        for J in (500, 1000, 2000):
            sol, _ = solve_fbf(FbfProblem(params=B2, kind=BcKind.NO_SLIP,
                                          eps=1e-3, J=J))
            betas.append(sol.beta)
        ratio = abs(betas[0] - betas[1]) / abs(betas[1] - betas[2])
        assert 2.0 <= ratio <= 8.0

    def test_agrees_with_shooting(self, fbf_b2, newton_b2):
        for kind in BcKind:
            sol, _ = fbf_b2[(kind, 1e-5)]
            assert abs(sol.beta - newton_b2[kind].beta) < 5e-4

    def test_munk_limit_with_closed_form_warm_start(self):
        z = np.linspace(0.0, 1.0, 2001)
        xi_guess = 20.0
        for kind in BcKind:
            prof = np.array([model.munk_exact(kind, x) for x in z * xi_guess])
            V0 = np.column_stack([prof, np.full(2001, xi_guess)])
            sol, _ = solve_fbf(FbfProblem(params=B0, kind=kind, eps=1e-5),
                               initial=V0)
            assert sol.beta == pytest.approx(1.0, abs=1e-4)

    def test_restart_from_iterate_takes_one_iteration(self, fbf_b2):
        for kind in BcKind:
            sol, _ = fbf_b2[(kind, 1e-3)]
            prob = FbfProblem(params=B2, kind=kind, eps=1e-3)
            again, rep = solve_fbf(prob, initial=sol.iterate)
            assert rep.iterations == 1
            assert again.beta == pytest.approx(sol.beta, abs=1e-10)

    def test_negative_free_boundary_guard(self):
        guess = FbfProblem(J=2000).initial_guess()
        guess[:, 3] = 1e-3
        with pytest.raises(NegativeFreeBoundary):
            solve_fbf(FbfProblem(params=B2, kind=BcKind.NO_SLIP, eps=1e-5),
                      initial=guess)

    def test_warm_start_to_negative_beta_raises(self):
        # From the Munk profile stretched to xi_eps = 13.4, slip b = 16
        # converges in 27 iterations to beta = -0.2995 at xi_eps = 46.1;
        # the true beta is positive, so this is not a solution.
        z = np.linspace(0.0, 1.0, 2001)
        prof = np.array([model.munk_exact(BcKind.SLIP, x) for x in z * 13.4])
        V0 = np.column_stack([prof, np.full(2001, 13.4)])
        with pytest.raises(blocksolve.NonPositiveBeta) as exc:
            solve_fbf(FbfProblem(params=ModelParams(16.0), kind=BcKind.SLIP,
                                 eps=1e-5), initial=V0)
        assert exc.value.beta == pytest.approx(-0.29948, abs=1e-5)


class TestContinuation:
    def test_iteration_counts(self, continuation_b2):
        for kind in BcKind:
            counts = [rep.iterations for _, rep in continuation_b2[kind]]
            assert len(counts) == 4
            assert all(abs(c - r) <= 1
                       for c, r in zip(counts, [7, 6, 6, 6]))

    def test_single_element_matches_cold_solve(self, fbf_b2):
        prob = FbfProblem(params=B2, kind=BcKind.SLIP, eps=1e-2)
        results = continuation_solve(prob, [1e-2])
        sol_cold, rep_cold = fbf_b2[(BcKind.SLIP, 1e-2)]
        sol, rep = results[0]
        assert rep.iterations == rep_cold.iterations
        assert sol.beta == pytest.approx(sol_cold.beta, abs=1e-12)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            continuation_solve(FbfProblem(params=B2, eps=1e-2), [])

    def test_rejects_non_decreasing_sequence(self):
        prob = FbfProblem(params=B2, eps=1e-2)
        with pytest.raises(ValueError):
            continuation_solve(prob, [1e-3, 1e-2])

    def test_failing_stage_raises_and_stops(self, monkeypatch):
        real = free_boundary.solve_fbf
        calls = []

        def flaky(prob, initial=None):
            calls.append(prob.eps)
            if len(calls) == 2:
                raise NegativeFreeBoundary(-1.0)
            return real(prob, initial=initial)

        monkeypatch.setattr(free_boundary, "solve_fbf", flaky)
        prob = FbfProblem(params=B2, kind=BcKind.SLIP, eps=1e-2, J=200)
        with pytest.raises(NegativeFreeBoundary):
            continuation_solve(prob, [1e-2, 1e-3, 1e-4])
        assert calls == [1e-2, 1e-3]

    def test_non_solver_exception_propagates(self, monkeypatch):
        def broken(prob, initial=None):
            raise RuntimeError("not a solver failure")

        monkeypatch.setattr(free_boundary, "solve_fbf", broken)
        prob = FbfProblem(params=B2, kind=BcKind.SLIP, eps=1e-2, J=200)
        with pytest.raises(RuntimeError):
            continuation_solve(prob, [1e-2, 1e-3])
