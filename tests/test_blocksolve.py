import numpy as np
import pytest

from oceanbvp import blocksolve, free_boundary, model
from oceanbvp.blocksolve import (BlockSystem, NewtonMaxIterations,
                                 NonFiniteIterate, SingularJacobian,
                                 check_jacobian, dense_jacobian_from_blocks,
                                 newton_solve, solve_bordered_block)
from oceanbvp.free_boundary import FbfProblem
from oceanbvp.model import BcKind, ModelParams


def random_blocks(rng, J, m):
    """Well-conditioned random instance: identity-dominant blocks."""
    L = -np.eye(m) + 0.2 * rng.standard_normal((J, m, m))
    R = np.eye(m) + 0.2 * rng.standard_normal((J, m, m))
    A = np.eye(m) + 0.2 * rng.standard_normal((m, m))
    C = np.eye(m) + 0.2 * rng.standard_normal((m, m))
    return L, R, A, C


def affine_system(L, R, A, C, d_interior, d_boundary):
    J, m, _ = L.shape

    def residual(V):
        interior = np.einsum("jab,jb->ja", L, V[:-1]) \
            + np.einsum("jab,jb->ja", R, V[1:]) - d_interior
        boundary = A @ V[0] + C @ V[-1] - d_boundary
        return interior, boundary

    def jacobian(V):
        return L, R, A, C

    return BlockSystem(J=J, m=m, residual=residual, jacobian=jacobian)


def dense_solve(L, R, A, C, interior_rhs, boundary_rhs):
    J, m, _ = L.shape
    M = dense_jacobian_from_blocks(L, R, A, C)
    rhs = np.concatenate([np.asarray(interior_rhs).ravel(), boundary_rhs])
    return np.linalg.solve(M, rhs).reshape(J + 1, m)


class TestBorderedSolve:
    def test_identity_chain_matches_dense(self):
        J, m = 4, 1
        L = np.full((J, m, m), -1.0)
        R = np.full((J, m, m), 1.0)
        A = np.eye(m)
        C = np.zeros((m, m))
        rng = np.random.default_rng(0)
        ri = rng.standard_normal((J, m))
        rb = rng.standard_normal(m)
        x = solve_bordered_block(L, R, A, C, ri, rb)
        np.testing.assert_allclose(x, dense_solve(L, R, A, C, ri, rb),
                                   atol=1e-12)

    def test_degenerate_chain_is_dense_2m_solve(self):
        rng = np.random.default_rng(1)
        L, R, A, C = random_blocks(rng, 1, 3)
        ri = rng.standard_normal((1, 3))
        rb = rng.standard_normal(3)
        x = solve_bordered_block(L, R, A, C, ri, rb)
        np.testing.assert_allclose(x, dense_solve(L, R, A, C, ri, rb),
                                   rtol=1e-10, atol=1e-12)

    def test_random_instance(self):
        rng = np.random.default_rng(2)
        L, R, A, C = random_blocks(rng, 10, 4)
        ri = rng.standard_normal((10, 4))
        rb = rng.standard_normal(4)
        x = solve_bordered_block(L, R, A, C, ri, rb)
        expect = dense_solve(L, R, A, C, ri, rb)
        assert np.max(np.abs(x - expect)) / np.max(np.abs(expect)) < 1e-10

    def test_fifty_random_small_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            J = int(rng.integers(1, 13))
            m = int(rng.integers(1, 5))
            L, R, A, C = random_blocks(rng, J, m)
            ri = rng.standard_normal((J, m))
            rb = rng.standard_normal(m)
            x = solve_bordered_block(L, R, A, C, ri, rb)
            expect = dense_solve(L, R, A, C, ri, rb)
            assert np.max(np.abs(x - expect)) / max(np.max(np.abs(expect)),
                                                    1.0) < 1e-10

    def test_cyclic_border_coupling(self):
        # boundary rows mixing both ends at once
        rng = np.random.default_rng(4)
        L, R, A, C = random_blocks(rng, 6, 2)
        A += rng.standard_normal((2, 2))
        C += rng.standard_normal((2, 2))
        ri = rng.standard_normal((6, 2))
        rb = rng.standard_normal(2)
        np.testing.assert_allclose(solve_bordered_block(L, R, A, C, ri, rb),
                                   dense_solve(L, R, A, C, ri, rb),
                                   rtol=1e-10, atol=1e-12)

    def test_singular_raises(self):
        J, m = 3, 2
        L = np.zeros((J, m, m))
        R = np.zeros((J, m, m))
        A = np.zeros((m, m))
        C = np.zeros((m, m))
        with pytest.raises(SingularJacobian):
            solve_bordered_block(L, R, A, C, np.zeros((J, m)), np.zeros(m))


    def test_every_reduction_split_matches_dense(self):
        # J = 1..40 runs through every pattern of odd and even equation
        # counts across the reduction levels.
        rng = np.random.default_rng(11)
        for J in range(1, 41):
            for m in range(1, 5):
                L, R, A, C = random_blocks(rng, J, m)
                ri = rng.standard_normal((J, m))
                rb = rng.standard_normal(m)
                x = solve_bordered_block(L, R, A, C, ri, rb)
                expect = dense_solve(L, R, A, C, ri, rb)
                err = np.max(np.abs(x - expect)) / np.max(np.abs(expect))
                assert err < 1e-10, (J, m, err)

    def test_free_boundary_jacobian_at_converged_state(self):
        # The real box-scheme Jacobian carries the growing mode of the
        # linearization, so it is far worse conditioned than the random
        # instances.
        prob = FbfProblem(params=ModelParams(2.0), kind=BcKind.NO_SLIP,
                          eps=1e-5, J=300)
        sol, _ = free_boundary.solve_fbf(prob)
        V = np.column_stack([sol.u, np.full(prob.J + 1, sol.free_boundary)])
        L, R, A, C = free_boundary.build_system(prob).jacobian(V)
        rng = np.random.default_rng(12)
        ri = rng.standard_normal((prob.J, 4))
        rb = rng.standard_normal(4)
        x = solve_bordered_block(L, R, A, C, ri, rb)
        expect = dense_solve(L, R, A, C, ri, rb)
        assert np.max(np.abs(x - expect)) / np.max(np.abs(expect)) < 1e-10

    def test_singular_interior_pair_names_its_node(self):
        # Equations 2 and 3 both drop node 3, the node they share.
        rng = np.random.default_rng(13)
        L, R, A, C = random_blocks(rng, 8, 2)
        R[2] = 0.0
        L[3] = 0.0
        with pytest.raises(SingularJacobian, match="node 3$"):
            solve_bordered_block(L, R, A, C, rng.standard_normal((8, 2)),
                                 rng.standard_normal(2))

    def test_empty_boundary_rows_name_the_far_node(self):
        rng = np.random.default_rng(15)
        L, R, _, _ = random_blocks(rng, 5, 2)
        zero = np.zeros((2, 2))
        with pytest.raises(SingularJacobian, match="node 5$"):
            solve_bordered_block(L, R, zero, zero,
                                 rng.standard_normal((5, 2)), np.zeros(2))


class TestNewtonSolve:
    def test_affine_converges_in_one_iteration(self):
        rng = np.random.default_rng(5)
        L, R, A, C = random_blocks(rng, 6, 3)
        sys = affine_system(L, R, A, C, rng.standard_normal((6, 3)),
                            rng.standard_normal(3))
        V, report = newton_solve(sys, rng.standard_normal((7, 3)), tol=1e-8)
        # first solve lands on the root, the second certifies it with a
        # zero update (counts are linear solves)
        assert report.iterations == 2
        assert report.final_update_norm < 1e-12
        assert report.converged
        interior, boundary = sys.residual(V)
        assert np.max(np.abs(interior)) < 1e-10
        assert np.max(np.abs(boundary)) < 1e-10

    def test_iteration_count_deterministic(self):
        rng = np.random.default_rng(6)
        L, R, A, C = random_blocks(rng, 5, 2)
        d_i = rng.standard_normal((5, 2))
        d_b = rng.standard_normal(2)
        counts = []
        for _ in range(2):
            sys = affine_system(L, R, A, C, d_i, d_b)
            _, report = newton_solve(sys, np.zeros((6, 2)), tol=1e-10)
            counts.append(report.iterations)
        assert counts[0] == counts[1]

    def test_max_iterations(self):
        # residual with no root: R(V) = V^2 + 1 componentwise on a
        # decoupled diagonal chain
        def residual(V):
            return V[1:] ** 2 + 1.0, V[0] ** 2 + 1.0

        def jacobian(V):
            J = len(V) - 1
            L = np.zeros((J, 1, 1))
            R = 2.0 * V[1:, :, None]
            A = 2.0 * V[0][:, None]
            C = np.zeros((1, 1))
            return L, R, A, C

        sys = BlockSystem(J=3, m=1, residual=residual, jacobian=jacobian)
        with pytest.raises(NewtonMaxIterations):
            newton_solve(sys, np.full((4, 1), 0.5), tol=1e-12, max_iter=10)

    def test_nan_residual_fails_in_first_iteration(self):
        solves = []

        def residual(V):
            return np.full((3, 1), np.nan), np.zeros(1)

        def jacobian(V):
            solves.append(1)
            return (np.full((3, 1, 1), -1.0), np.ones((3, 1, 1)),
                    np.ones((1, 1)), np.zeros((1, 1)))

        sys = BlockSystem(J=3, m=1, residual=residual, jacobian=jacobian)
        with pytest.raises(NonFiniteIterate, match="iteration 1$") as err:
            newton_solve(sys, np.zeros((4, 1)), tol=1e-8, max_iter=50)
        assert err.value.iteration == 1
        assert solves == []

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        L, R, A, C = random_blocks(rng, 3, 2)
        sys = affine_system(L, R, A, C, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            newton_solve(sys, np.zeros((3, 2)), tol=1e-8)

    def test_iterate_check_hook_aborts(self):
        rng = np.random.default_rng(9)
        L, R, A, C = random_blocks(rng, 4, 2)
        sys = affine_system(L, R, A, C, rng.standard_normal((4, 2)),
                            rng.standard_normal(2))

        def reject(V):
            raise RuntimeError("rejected iterate")

        with pytest.raises(RuntimeError, match="rejected iterate"):
            newton_solve(sys, np.zeros((5, 2)), tol=1e-8,
                         iterate_check=reject)


class TestCheckJacobian:
    def test_affine_is_exact_to_roundoff(self):
        rng = np.random.default_rng(10)
        L, R, A, C = random_blocks(rng, 4, 3)
        sys = affine_system(L, R, A, C, rng.standard_normal((4, 3)),
                            rng.standard_normal(3))
        assert check_jacobian(sys, rng.standard_normal((5, 3))) < 1e-9


class TestBatchedModelJacobian:
    def test_batch_equals_stacked_single_states(self):
        rng = np.random.default_rng(14)
        p = ModelParams(2.0)
        u = rng.standard_normal((17, 3))
        batch = model.rhs_jacobian(0.0, u, p)
        assert batch.shape == (17, 3, 3)
        for state, jac in zip(u, batch):
            np.testing.assert_array_equal(jac,
                                          model.rhs_jacobian(0.0, state, p))
