import math

import numpy as np
import pytest

from oceanbvp import model
from oceanbvp.model import BcKind, ModelParams

B0 = ModelParams(0.0)
B2 = ModelParams(2.0)


class TestRhs:
    def test_far_field_fixed_point(self):
        np.testing.assert_array_equal(model.rhs(0.0, [1.0, 0.0, 0.0], B2),
                                      [0.0, 0.0, 0.0])

    def test_origin(self):
        np.testing.assert_allclose(model.rhs(0.0, [0.0, 0.0, 0.0], B2),
                                   [0.0, 0.0, -1.0])

    def test_generic_state(self):
        np.testing.assert_allclose(model.rhs(0.0, [0.5, 0.2, 0.1], B2),
                                   [0.2, 0.1, -0.52])

    def test_far_field_fixed_point_any_b(self):
        for b in [0.0, 0.7, 1.0, 2.0, 5.0]:
            f = model.rhs(0.0, [1.0, 0.0, 0.0], ModelParams(b))
            np.testing.assert_array_equal(f, 0.0)


class TestRhsJacobian:
    def test_far_field(self):
        J = model.rhs_jacobian(0.0, [1.0, 0.0, 0.0], B2)
        np.testing.assert_allclose(J, [[0, 1, 0], [0, 0, 1], [1, 0, -2]])

    def test_munk_limit(self):
        J = model.rhs_jacobian(0.0, [0.0, 0.0, 0.0], B0)
        np.testing.assert_allclose(J, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("b", [0.0, 1.0, 2.0])
    def test_matches_finite_differences(self, b):
        rng = np.random.default_rng(20240 + int(b))
        p = ModelParams(b)
        h = 1e-6
        for _ in range(100):
            u = rng.uniform(-2.0, 2.0, 3)
            J = model.rhs_jacobian(0.0, u, p)
            fd = np.empty((3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[:, k] = (model.rhs(0.0, u + e, p)
                            - model.rhs(0.0, u - e, p)) / (2 * h)
            assert np.max(np.abs(J - fd) / np.maximum(1.0, np.abs(J))) < 1e-6


class TestRhsVariational:
    def test_zero_sensitivity_propagates(self):
        U = np.array([0.3, -0.2, 0.7, 0.0, 0.0, 0.0])
        out = model.rhs_variational(0.0, U, B2)
        np.testing.assert_array_equal(out[3:], 0.0)
        np.testing.assert_allclose(out[:3], model.rhs(0.0, U[:3], B2))

    def test_unit_sensitivity_at_far_field(self):
        U = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        out = model.rhs_variational(0.0, U, B2)
        np.testing.assert_allclose(out[3:], [0.0, 1.0, -2.0])

    def test_block_is_jacobian_vector_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            U = rng.uniform(-2.0, 2.0, 6)
            out = model.rhs_variational(0.0, U, B2)
            J = model.rhs_jacobian(0.0, U[:3], B2)
            np.testing.assert_allclose(out[3:], J @ U[3:], atol=1e-13)


class TestBcInitial:
    def test_no_slip(self):
        np.testing.assert_array_equal(
            model.bc_initial(BcKind.NO_SLIP, 0.826111), [0, 0, 0.826111])

    def test_slip(self):
        np.testing.assert_array_equal(
            model.bc_initial(BcKind.SLIP, 0.528885), [0, 0.528885, 0])

    def test_zero(self):
        np.testing.assert_array_equal(model.bc_initial(BcKind.NO_SLIP, 0.0),
                                      [0, 0, 0])

    def test_sensitivity_is_unit_vector_in_beta_slot(self):
        np.testing.assert_array_equal(
            model.sensitivity_initial(BcKind.NO_SLIP), [0, 0, 1])
        np.testing.assert_array_equal(
            model.sensitivity_initial(BcKind.SLIP), [0, 1, 0])


class TestApproxMissingInit:
    def test_rigid_b2(self):
        assert model.approx_missing_init(BcKind.NO_SLIP, 2.0) == \
            pytest.approx(0.828336, abs=5e-7)

    def test_slippery_b2(self):
        assert model.approx_missing_init(BcKind.SLIP, 2.0) == \
            pytest.approx(0.530662, abs=5e-7)

    def test_reduces_to_one_at_b0(self):
        for kind in BcKind:
            assert model.approx_missing_init(kind, 0.0) == pytest.approx(1.0)

    def test_strictly_decreasing_in_b(self):
        bs = np.linspace(0.0, 10.0, 40)
        for kind in BcKind:
            vals = [model.approx_missing_init(kind, b) for b in bs]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            model.approx_missing_init(BcKind.SLIP, -0.1)

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_infinite_b_rejected(self, kind):
        with pytest.raises(ValueError, match="finite"):
            model.approx_missing_init(kind, math.inf)


class TestMunkExact:
    def test_no_slip_origin(self):
        np.testing.assert_allclose(model.munk_exact(BcKind.NO_SLIP, 0.0),
                                   [0.0, 0.0, 1.0], atol=1e-14)

    def test_slip_origin(self):
        np.testing.assert_allclose(model.munk_exact(BcKind.SLIP, 0.0),
                                   [0.0, 1.0, 0.0], atol=1e-14)

    def test_decays_to_far_field(self):
        for kind in BcKind:
            np.testing.assert_allclose(model.munk_exact(kind, 60.0),
                                       [1.0, 0.0, 0.0], atol=1e-12)

    def test_satisfies_linear_ode(self):
        # u''' evaluated analytically from the independently derived
        # damped-oscillator form must equal u - 1 at 50 sample points.
        root = -0.5 + 0.5j * math.sqrt(3.0)
        for kind in BcKind:
            u0 = model.munk_exact(kind, 0.0)
            # recover C from the returned state at 0: Re C = u(0) - 1,
            # and u'(0) = Re(C r) fixes Im C.
            re_c = u0[0] - 1.0
            im_c = (re_c * root.real - u0[1]) / root.imag
            C = re_c + 1j * im_c
            for xi in np.linspace(0.0, 12.0, 50):
                u = model.munk_exact(kind, xi)
                uppp = (C * root**3 * np.exp(root * xi)).real
                assert abs(uppp - (u[0] - 1.0)) < 1e-10

    def test_derivative_consistency_by_finite_differences(self):
        h = 1e-5
        for kind in BcKind:
            for xi in np.linspace(0.1, 8.0, 9):
                up = model.munk_exact(kind, xi + h)
                um = model.munk_exact(kind, xi - h)
                u = model.munk_exact(kind, xi)
                np.testing.assert_allclose((up[0] - um[0]) / (2 * h), u[1],
                                           atol=1e-8)
                np.testing.assert_allclose((up[1] - um[1]) / (2 * h), u[2],
                                           atol=1e-8)


class TestModelParams:
    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            ModelParams(-1.0)

    def test_rejects_non_finite_b(self):
        with pytest.raises(ValueError):
            ModelParams(math.nan)
