import math

import numpy as np
import pytest

from oceanbvp import blocksolve, model
from oceanbvp.model import BcKind, ModelParams
from oceanbvp.blocksolve import NonPositiveBeta
from oceanbvp.quasi_uniform import QugProblem, build_system, solve_qug
from oracles import check_jacobian, full_residual

B2 = ModelParams(2.0)


class TestGrid:
    def test_basic_nodes(self):
        g = QugProblem(c=5.0, J=200)
        xs = g.finite_nodes()
        assert len(xs) == 200  # the infinity node is not among them
        assert xs[0] == 0.0
        assert xs[199] == pytest.approx(5.0 * math.log(200), rel=1e-12)

    def test_half_node_is_c_ln2(self):
        for c, J in [(5.0, 200), (2.0, 100)]:
            g = QugProblem(c=c, J=J)
            assert g.finite_nodes()[J // 2] == pytest.approx(
                c * math.log(2.0), rel=1e-13)

    def test_last_half_fraction_finite(self):
        g = QugProblem(c=5.0, J=200)
        assert g.fractional_node(199.5) == pytest.approx(
            5.0 * math.log(400.0), rel=1e-13)

    def test_nodes_strictly_increasing(self):
        g = QugProblem(c=5.0, J=50)
        assert (np.diff(g.finite_nodes()) > 0).all()

    def test_fractional_node_rejects_eta_one(self):
        g = QugProblem(c=5.0, J=10)
        for position in (10.0, 12.0):
            with pytest.raises(ValueError):
                g.fractional_node(position)

    def test_validation(self):
        with pytest.raises(ValueError):
            QugProblem(c=0.0, J=10)
        with pytest.raises(ValueError):
            QugProblem(c=5.0, J=2)

    def test_weights_sum_to_one_exactly(self):
        g = QugProblem(c=5.0, J=200)
        for j in range(g.J):
            b, c = g.interval_weights(j)
            assert b + c == 1.0

    def test_last_interval_weights_are_frozen_copy(self):
        g = QugProblem(c=5.0, J=200)
        assert g.interval_weights(g.J - 1) == g.interval_weights(g.J - 2)


class TestMidpointFormulae:
    """The scheme's interpolation c*u_j + b*u_{j+1} and derivative
    (u_{j+1} - u_j)/a on interval j, from the grid's weight and width
    arrays."""

    def test_interpolation_reproduces_constants(self):
        g = QugProblem(c=5.0, J=20)
        v = np.array([1.0, -2.0, 0.5])
        b, c = g.interval_weights(np.arange(g.J))
        np.testing.assert_allclose(c[:, None] * v + b[:, None] * v,
                                   np.tile(v, (g.J, 1)))

    def test_interior_weights_near_half(self):
        # at j = 0 the map curvature is mild, so the convex pair is close
        # to the uniform-grid (1/2, 1/2)
        g = QugProblem(c=5.0, J=200)
        b, c = g.interval_weights(0)
        assert b == pytest.approx(0.5, abs=2e-3)
        assert c == pytest.approx(0.5, abs=2e-3)

    def test_last_interval_value_finite(self):
        g = QugProblem(c=5.0, J=200)
        b, c = g.interval_weights(np.arange(g.J))
        assert np.isfinite(c[-1] * 0.9 + b[-1] * 1.0)

    def test_derivative_of_constant_vanishes(self):
        g = QugProblem(c=5.0, J=20)
        u = np.full(g.J + 1, 0.7)
        np.testing.assert_array_equal(
            (u[1:] - u[:-1]) / g.interval_width(np.arange(g.J)), 0.0)

    def test_derivative_recovers_linear_slope(self):
        g = QugProblem(c=5.0, J=400)
        j = np.array([0, 50, 150])
        xi = g.finite_nodes()
        d = (xi[j + 1] - xi[j]) / g.interval_width(j)
        np.testing.assert_allclose(d, 1.0, atol=1e-4)

    def test_derivative_finite_on_last_interval(self):
        g = QugProblem(c=5.0, J=200)
        u_j, u_j1 = 1.0 - 1e-6, 1.0
        assert np.isfinite((u_j1 - u_j) / g.interval_width(g.J - 1))

    def test_arrays_match_per_interval_values(self):
        g = QugProblem(c=5.0, J=50)
        j = np.arange(g.J)
        b, c = g.interval_weights(j)
        a = g.interval_width(j)
        loop = np.array([[*g.interval_weights(k), g.interval_width(k)]
                         for k in range(g.J)])
        np.testing.assert_allclose(np.column_stack([b, c, a]), loop,
                                   rtol=1e-15, atol=0)


class TestResidual:
    def test_equilibrium_profile(self):
        g = QugProblem(B2, BcKind.NO_SLIP, c=5.0, J=20)
        U = np.tile([1.0, 0.0, 0.0], (21, 1))
        sys = build_system(g)
        res = full_residual(sys, U)
        np.testing.assert_array_equal(res[:60], 0.0)
        np.testing.assert_allclose(res[60:], [1.0, 0.0, 0.0])

    def test_converged_solution_has_tiny_residual(self, qug_b2):
        for kind in BcKind:
            sol, _ = qug_b2[(kind, 200)]
            g = QugProblem(B2, kind, c=5.0, J=200)
            U = np.vstack([sol.u, sol.infinity_state])
            np.testing.assert_array_equal(sol.iterate, U)
            res = full_residual(build_system(g), U)
            assert np.mean(np.abs(res)) < 1e-8

    def test_coefficient_freeze_shrinks_last_interval_error(self, qug_b2):
        sol, _ = qug_b2[(BcKind.NO_SLIP, 200)]
        g = QugProblem(B2, BcKind.NO_SLIP, c=5.0, J=200)
        U = np.vstack([sol.u, sol.infinity_state])
        frozen = full_residual(
            build_system(g), U)
        # the literal weight on the infinity node of the last interval is 0
        j = np.arange(g.J)
        weights = g.interval_weights(j)[0].copy()
        weights[-1] = 0.0
        literal_sys = blocksolve.midpoint_system(
            g.interval_width(j), weights,
            lambda V: model.rhs(0.0, V, B2),
            lambda V: model.rhs_jacobian(0.0, V, B2),
            *model.boundary_rows(BcKind.NO_SLIP, (1.0,)))
        literal = full_residual(literal_sys, U)
        j_last = slice(3 * (g.J - 1), 3 * g.J)
        assert np.max(np.abs(literal[j_last])) \
            > np.max(np.abs(frozen[j_last]))

    def test_analytic_jacobian_matches_finite_differences(self):
        g = QugProblem(B2, BcKind.SLIP, c=5.0, J=12)
        sys = build_system(g)
        assert check_jacobian(sys, g.initial_guess()) \
            < 1e-5


class TestSolve:
    def test_no_slip_200(self, qug_b2):
        sol, rep = qug_b2[(BcKind.NO_SLIP, 200)]
        assert sol.beta == pytest.approx(0.826180, abs=2e-5)
        assert abs(rep.iterations - 5) <= 1

    def test_slip_200(self, qug_b2):
        sol, rep = qug_b2[(BcKind.SLIP, 200)]
        assert sol.beta == pytest.approx(0.528927, abs=2e-5)
        assert abs(rep.iterations - 4) <= 1

    def test_finer_grids(self, qug_b2):
        assert qug_b2[(BcKind.NO_SLIP, 400)][0].beta == \
            pytest.approx(0.826150, abs=2e-5)
        assert qug_b2[(BcKind.SLIP, 400)][0].beta == \
            pytest.approx(0.528922, abs=2e-5)

    def test_infinity_node_values(self, qug_b2):
        for kind in BcKind:
            s = qug_b2[(kind, 200)][0].infinity_state
            assert abs(s[0] - 1.0) < 1e-9
            assert abs(s[1]) <= 1e-3
            assert abs(s[2]) <= 1e-3

    def test_second_order_accuracy_in_mesh(self, qug_b2):
        betas = [qug_b2[(BcKind.NO_SLIP, J)][0].beta
                 for J in (200, 400, 800)]
        ratio = abs(betas[0] - betas[1]) / abs(betas[1] - betas[2])
        assert 2.0 <= ratio <= 8.0

    def test_agrees_with_free_boundary(self, qug_b2, fbf_b2_j4000):
        for kind in BcKind:
            assert abs(qug_b2[(kind, 400)][0].beta
                       - fbf_b2_j4000[kind][0].beta) < 5e-5

    def test_munk_limit(self):
        for kind in BcKind:
            sol, _ = solve_qug(5.0, 200, ModelParams(0.0), kind)
            assert sol.beta == pytest.approx(1.0, abs=1e-4)

    def test_solution_grid_excludes_infinity(self, qug_b2):
        sol, _ = qug_b2[(BcKind.NO_SLIP, 200)]
        assert len(sol.xi) == 200
        assert np.isfinite(sol.xi).all()
        assert sol.xi[-1] == pytest.approx(5.0 * math.log(200), rel=1e-12)

    def test_restart_from_iterate_takes_one_iteration(self, qug_b2):
        for kind in BcKind:
            sol, _ = qug_b2[(kind, 200)]
            again, rep = solve_qug(5.0, 200, B2, kind, initial=sol.iterate)
            assert rep.iterations == 1
            assert again.beta == pytest.approx(sol.beta, abs=1e-10)

    def test_cold_slip_large_b_raises_instead_of_negative_beta(self):
        # the cold start converges to beta = -0.158; the true beta is
        # positive for every b >= 0 (0.1369 along a warm-started sweep)
        with pytest.raises(NonPositiveBeta) as exc:
            solve_qug(5.0, 200, ModelParams(50.0), BcKind.SLIP)
        assert exc.value.beta < 0
        # one class for both relaxation methods
        assert NonPositiveBeta is blocksolve.NonPositiveBeta
