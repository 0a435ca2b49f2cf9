import hashlib
import pathlib

import numpy as np
import pytest

from oceanbvp import blocksolve, free_boundary, model, quasi_uniform
from oceanbvp.blocksolve import (BlockSystem, NewtonError,
                                 NewtonMaxIterations, NonFiniteIterate,
                                 SingularJacobian, dense_jacobian_from_blocks,
                                 midpoint_system, newton_solve,
                                 solve_bordered_block)
from oceanbvp.free_boundary import FbfProblem
from oceanbvp.model import BcKind, ModelParams
from oracles import check_jacobian


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


def square_blocks(L, R):
    """n x m blocks completed to m x m by the rows p_j - p_{j-1} = 0,
    blocks (-I, +I), of the last q = m - n unknowns p."""
    J, n, m = L.shape
    pad = np.zeros((J, m - n, m))
    pad[:, :, n:] = np.eye(m - n)
    return (np.concatenate([L, -pad], axis=1),
            np.concatenate([R, pad], axis=1))


def dense_solve(L, R, A, C, interior_rhs, boundary_rhs):
    """np.linalg.solve on the dense matrix of the square completion, the
    completed rows with a zero right-hand side."""
    J, n, m = L.shape
    M = dense_jacobian_from_blocks(*square_blocks(L, R), A, C)
    ri = np.zeros((J, m))
    ri[:, :n] = interior_rhs
    rhs = np.concatenate([ri.ravel(), boundary_rhs])
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

    def test_output_bits_are_pinned(self):
        # SHA-256 of the solutions' bytes.  The dense comparisons allow
        # 1e-10; this pins every bit, so any change in the order of the
        # floating-point operations shows here.
        rng = np.random.default_rng(16)
        digest = hashlib.sha256()
        for J in [*range(1, 41), 2000]:
            for m in (3, 4):
                L, R, A, C = random_blocks(rng, J, m)
                x = solve_bordered_block(L, R, A, C,
                                         rng.standard_normal((J, m)),
                                         rng.standard_normal(m))
                digest.update(x.tobytes())
        assert digest.hexdigest() == ("f522aec6d1f707cef321fe74c4ca9989"
                                      "86903b0aae775ae8c5d8be6e4e13a288")

    def test_free_boundary_jacobian_at_converged_state(self):
        # The real box-scheme Jacobian carries the growing mode of the
        # linearization, so it is far worse conditioned than the random
        # instances.
        prob = FbfProblem(params=ModelParams(2.0), kind=BcKind.NO_SLIP,
                          eps=1e-5, J=300)
        sol, _ = free_boundary.solve_fbf(prob)
        V = np.column_stack([sol.u, np.full(prob.J + 1, sol.free_boundary)])
        L, R, A, C = free_boundary.build_system(prob).jacobian(V)
        assert L.shape == R.shape == (prob.J, 3, 4)
        rng = np.random.default_rng(12)
        ri = rng.standard_normal((prob.J, 4))
        rb = rng.standard_normal(4)
        # Square: with the rows u4_j - u4_{j-1} = ri[:, 3] added.
        Ls, Rs = square_blocks(L, R)
        x = solve_bordered_block(Ls, Rs, A, C, ri, rb)
        expect = dense_solve(Ls, Rs, A, C, ri, rb)
        assert np.max(np.abs(x - expect)) / np.max(np.abs(expect)) < 1e-10
        # The three rows per interval, as the Newton iteration solves them,
        # with u4 the one constant unknown.
        x = solve_bordered_block(L, R, A, C, ri[:, :3], rb)
        expect = dense_solve(L, R, A, C, ri[:, :3], rb)
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


def constant_blocks(rng, J, m, q):
    """random_blocks with n = m - q rows per interior equation, so that
    the last q unknowns are constant over the nodes."""
    L, R, A, C = random_blocks(rng, J, m)
    ri = rng.standard_normal((J, m))
    return L[:, :m - q], R[:, :m - q], A, C, ri[:, :m - q]


class TestConstantUnknowns:
    """n x m blocks solve the same systems as their square completion,
    with the last q = m - n unknowns taken out of the node blocks."""

    def test_every_reduction_split_matches_dense(self):
        rng = np.random.default_rng(17)
        for J in range(1, 41):
            for m, q in ((4, 1), (3, 2), (2, 1)):
                L, R, A, C, ri = constant_blocks(rng, J, m, q)
                rb = rng.standard_normal(m)
                x = solve_bordered_block(L, R, A, C, ri, rb)
                expect = dense_solve(L, R, A, C, ri, rb)
                err = np.max(np.abs(x - expect)) / np.max(np.abs(expect))
                assert err < 1e-10, (J, m, q, err)
                assert (x[:, m - q:] == x[0, m - q:]).all(), (J, m, q)

    def test_vanishing_constant_pivot_names_the_unknown(self):
        # No equation and no boundary row sees the constant unknown, so
        # its column of the closing system is zero.
        rng = np.random.default_rng(19)
        L, R, A, C, ri = constant_blocks(rng, 9, 4, 1)
        L[:, :, 3] = R[:, :, 3] = 0.0
        A[:, 3] = C[:, 3] = 0.0
        with pytest.raises(SingularJacobian,
                           match="while eliminating the constant unknown "
                                 "in column 3$"):
            solve_bordered_block(L, R, A, C, ri, rng.standard_normal(4))

    @pytest.mark.parametrize("constant", [-1, 4])
    def test_count_out_of_range_rejected(self, constant):
        # The count q = m - n outside [0, m): blocks with more rows than
        # unknowns, or with none.
        n = 4 - constant
        L, R = np.random.default_rng(20).standard_normal((2, 3, n, 4))
        with pytest.raises(ValueError, match="interior blocks must have 1 "
                                             "to 4 rows"):
            solve_bordered_block(L, R, np.eye(4), np.eye(4),
                                 np.zeros((3, n)), np.zeros(4))

    def test_square_right_hand_side_rejected(self):
        # three rows per equation take a (J, 3) right-hand side
        rng = np.random.default_rng(21)
        L, R, A, C, _ = constant_blocks(rng, 3, 4, 1)
        with pytest.raises(ValueError, match=r"interior_rhs shape \(3, 4\)"):
            solve_bordered_block(L, R, A, C, np.zeros((3, 4)), np.zeros(4))


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


    def test_failures_share_one_base(self):
        for cls in (SingularJacobian, NewtonMaxIterations, NonFiniteIterate,
                    free_boundary.NegativeFreeBoundary):
            assert issubclass(cls, NewtonError)


B2 = ModelParams(2.0)

# method -> solve(J, initial) through its public entry point
RELAX_SOLVES = {
    "fbf": lambda J, initial: free_boundary.solve_fbf(
        FbfProblem(params=B2, eps=1e-2, J=J), initial=initial),
    "qug": lambda J, initial: quasi_uniform.solve_qug(
        5.0, J, B2, BcKind.NO_SLIP, initial=initial),
}


class TestRelax:
    """``relax`` is the one Newton driver of both relaxation methods."""

    @pytest.fixture
    def linear_solves(self, monkeypatch):
        calls = []
        solve = blocksolve.solve_bordered_block

        def spy(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(blocksolve, "solve_bordered_block", spy)
        return calls

    @pytest.fixture(scope="class")
    def iterates(self):
        return {method: solve(40, None)[0].iterate
                for method, solve in RELAX_SOLVES.items()}

    @pytest.mark.parametrize("method, initial", [
        ("fbf", "qug"), ("qug", "fbf"), ("fbf", "fbf"), ("qug", "qug")])
    def test_foreign_warm_start_fails_before_iterating(
            self, iterates, linear_solves, method, initial):
        # the other method's J = 40 iterate, or this method's for J = 20
        J = 40 if method != initial else 20
        with pytest.raises(ValueError, match="iterate shape"):
            RELAX_SOLVES[method](J, iterates[initial])
        assert linear_solves == []

    @pytest.mark.parametrize("method", sorted(RELAX_SOLVES))
    def test_non_finite_initial_fails_in_first_iteration(
            self, iterates, linear_solves, method):
        # for FBF before the check that u4 is constant, which NaN fails
        initial = np.full_like(iterates[method], np.nan)
        with pytest.raises(NonFiniteIterate, match="iteration 1$"):
            RELAX_SOLVES[method](40, initial)
        assert linear_solves == []

    def test_non_positive_beta_is_raised_in_one_place(self):
        src = pathlib.Path(blocksolve.__file__).parent
        raises = [(path.name, line.strip())
                  for path in sorted(src.glob("*.py"))
                  for line in path.read_text().splitlines()
                  if "NonPositiveBeta(" in line
                  and not line.lstrip().startswith("class ")]
        assert raises == [("blocksolve.py",
                           "raise NonPositiveBeta(sol.beta)")]


class TestMidpointSystem:
    def test_rows_and_jacobian_on_a_nonuniform_grid(self):
        rng = np.random.default_rng(15)
        p = ModelParams(2.0)
        J = 6
        a = rng.uniform(0.1, 0.5, J)
        w = rng.uniform(0.3, 0.7, J)
        A, C, target = model.boundary_rows(BcKind.SLIP, (1.0,))
        sys = midpoint_system(a, w, lambda U: model.rhs(0.0, U, p),
                              lambda U: model.rhs_jacobian(0.0, U, p),
                              A, C, target)
        V = rng.uniform(0.2, 1.5, (J + 1, 3))
        interior, boundary = sys.residual(V)
        for j in range(J):
            mid = w[j] * V[j + 1] + (1.0 - w[j]) * V[j]
            np.testing.assert_allclose(
                interior[j], V[j + 1] - V[j] - a[j] * model.rhs(0.0, mid, p),
                atol=1e-14)
        np.testing.assert_allclose(boundary, [V[0, 0], V[0, 2],
                                              V[J, 0] - 1.0])
        assert check_jacobian(sys, V) < 1e-5


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
