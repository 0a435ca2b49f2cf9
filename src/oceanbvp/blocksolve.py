"""Newton iteration for two-point-coupled nonlinear block systems.

Both relaxation discretizations lead to residuals of the same shape: one
m-vector of unknowns per node j = 0..J, interior equation j coupling only
the nodes j-1 and j, plus m boundary rows coupling node 0 and node J.  The
Newton linear systems are solved in O(J m^3) by structured cyclic
reduction with orthogonal factorizations (S. J. Wright, SIAM J. Sci.
Stat. Comput. 13, 1992): each of the ceil(log2 J) levels eliminates every
other node from pairs of neighbouring equations with Householder QR,
batched across the pairs, until one equation between node 0 and node J is
left.  That equation and the boundary rows form one dense 2m x 2m system,
so the boundary rows may mix both ends (cyclic border).  Orthogonal
eliminations keep the solve stable although the linearization has a
growing mode, which rules out condensing or transfer-matrix products.
"""

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-13


class SingularJacobian(Exception):
    def __init__(self, where, pivot):
        super().__init__(f"pivot {pivot:.3g} below {PIVOT_TOL:g} "
                         f"while eliminating node {where}")


class NewtonMaxIterations(Exception):
    def __init__(self, limit, update_norm):
        super().__init__(f"no convergence in {limit} Newton iterations "
                         f"(last mean update {update_norm:.3g})")
        self.update_norm = update_norm


class NonFiniteIterate(Exception):
    """A Newton iteration produced a non-finite residual or update."""

    def __init__(self, iteration, what):
        super().__init__(f"non-finite {what} in Newton iteration "
                         f"{iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class BlockSystem:
    """Nonlinear system in (J+1) nodes of m unknowns each.

    residual(V) -> (interior (J, m), boundary (m,)) for V of shape (J+1, m);
    jacobian(V) -> (L, R, A, C) where interior equation j (1-based) has
    blocks L[j-1] on node j-1 and R[j-1] on node j, and the boundary rows
    are A on node 0 plus C on node J.
    """

    J: int
    m: int
    residual: callable
    jacobian: callable


@dataclass
class NewtonReport:
    iterations: int
    final_update_norm: float
    converged: bool


def _triangularize(W, ncols, nodes):
    """Householder QR, in place, of the leading ncols columns of a batch
    of matrices W (rows, cols, h), the batch on the last axis.

    Leaves R on and above the diagonal of those columns (entries below it
    are not cleared) and Q^T applied to the remaining columns.
    ``nodes[k]`` (h,) names the node that column k belongs to, for the
    error raised on a vanishing diagonal.  Reflections are applied one row
    at a time, so no temporary is larger than one row (cols, h).
    """
    for k in range(ncols):
        x = W[k:, k]
        norm = np.sqrt(np.einsum("ih,ih->h", x, x))
        weakest = np.argmin(norm)
        if norm[weakest] < PIVOT_TOL:
            raise SingularJacobian(nodes[k][weakest], norm[weakest])
        # v = x - alpha e_1 with alpha = -sign(x_0) |x|; H = I - v v^T / tau
        alpha = np.where(x[0] >= 0.0, -norm, norm)
        v = x.copy()
        v[0] -= alpha
        tau = norm * (norm + np.abs(x[0]))
        rest = W[k:, k + 1:]
        w = np.einsum("ih,ijh->jh", v, rest) / tau
        for i in range(len(v)):
            rest[i] -= v[i] * w
        W[k, k] = alpha


def _solve_upper(U, rhs):
    """Batched back substitution: U (n, n, h) upper triangular, rhs (n, h)."""
    out = np.empty_like(rhs)
    for c in range(len(rhs) - 1, -1, -1):
        out[c] = (rhs[c] - np.einsum("jh,jh->h", U[c, c + 1:],
                                     out[c + 1:])) / U[c, c]
    return out


def solve_bordered_block(L, R, A, C, interior_rhs, boundary_rhs):
    """Solve the block linear system

        A x_0 + C x_J = boundary_rhs
        L[j-1] x_{j-1} + R[j-1] x_j = interior_rhs[j-1],   j = 1..J

    for x of shape (J+1, m) by structured cyclic reduction.

    Each interior equation is held as m rows over [left node | right node |
    rhs].  A level pairs equations 2i and 2i+1, which share the node
    between them, and stacks each pair over [shared | left | right | rhs].
    Householder reflections triangularize the shared-node columns: the top
    m rows express the shared node through its neighbours and are kept for
    back substitution, the bottom m rows are the reduced equation between
    the neighbours.  An odd equation out carries over to the next level.
    The last equation couples x_0 and x_J and, with the boundary rows,
    forms one dense 2m x 2m system, so the boundary rows may mix both ends
    (cyclic border).  Work arrays keep the batch on the last axis, so
    every row operation runs over contiguous memory.
    """
    J, m, _ = L.shape
    # Equation q of the current level is Lq[..., q] x_left[q] + Rq[..., q]
    # x_right[q] = rq[:, q]; the inputs enter as views, later levels as
    # views of the reduced equations E.
    Lq, Rq = L.transpose(1, 2, 0), R.transpose(1, 2, 0)
    rq = np.asarray(interior_rhs, float).T
    left = np.arange(J)
    right = np.arange(1, J + 1)
    levels = []
    while rq.shape[1] > 1:
        h = rq.shape[1] // 2
        even, odd = slice(0, 2 * h, 2), slice(1, 2 * h, 2)
        shared = right[even]
        W = np.zeros((2 * m, 3 * m + 1, h))
        W[:m, :m] = Rq[..., even]
        W[:m, m:2 * m] = Lq[..., even]
        W[:m, 3 * m] = rq[:, even]
        W[m:, :m] = Lq[..., odd]
        W[m:, 2 * m:3 * m] = Rq[..., odd]
        W[m:, 3 * m] = rq[:, odd]
        _triangularize(W, m, [shared] * m)
        outer = (left[even], right[odd])
        levels.append((shared, outer, W[:m].copy()))
        E = np.empty((m, 2 * m + 1, rq.shape[1] - h))
        E[..., :h] = W[m:, m:]
        E[:, :m, h:] = Lq[..., 2 * h:]
        E[:, m:2 * m, h:] = Rq[..., 2 * h:]
        E[:, 2 * m, h:] = rq[:, 2 * h:]
        del W  # the kept rows and E are copies: free W before the next level
        Lq, Rq, rq = E[:, :m], E[:, m:2 * m], E[:, 2 * m]
        left = np.concatenate([outer[0], left[2 * h:]])
        right = np.concatenate([outer[1], right[2 * h:]])
    # Remaining equation and boundary rows, over [x_0 | x_J | rhs].
    B = np.empty((2 * m, 2 * m + 1, 1))
    B[:m, :m] = Lq
    B[:m, m:2 * m] = Rq
    B[:m, 2 * m] = rq
    B[m:, :m, 0] = A
    B[m:, m:2 * m, 0] = C
    B[m:, 2 * m, 0] = boundary_rhs
    _triangularize(B, 2 * m, [[0]] * m + [[J]] * m)
    ends = _solve_upper(B[:, :2 * m], B[:, 2 * m])[:, 0]
    x = np.empty((m, J + 1))
    x[:, 0], x[:, J] = ends[:m], ends[m:]
    for shared, (a, c), top in reversed(levels):
        rhs = (top[:, 3 * m]
               - np.einsum("ijh,jh->ih", top[:, m:2 * m], x[:, a])
               - np.einsum("ijh,jh->ih", top[:, 2 * m:3 * m], x[:, c]))
        x[:, shared] = _solve_upper(top[:, :m], rhs)
    return np.ascontiguousarray(x.T)


def newton_solve(sys, v0, tol, max_iter=100, iterate_check=None):
    """Full-step Newton on a BlockSystem; stops on the mean absolute
    update criterion  mean|dV| <= tol.

    The iteration count equals the number of linear solves performed.
    A non-finite residual or update raises NonFiniteIterate at once.
    ``iterate_check`` (if given) is called with each new iterate and may
    raise to abort, e.g. when an iterate leaves the admissible region.
    """
    V = np.array(v0, dtype=float)
    if V.shape != (sys.J + 1, sys.m):
        raise ValueError(f"iterate shape {V.shape} != {(sys.J + 1, sys.m)}")
    update_norm = np.inf
    for it in range(1, max_iter + 1):
        interior, boundary = sys.residual(V)
        if not (np.isfinite(interior).all() and np.isfinite(boundary).all()):
            raise NonFiniteIterate(it, "residual")
        L, R, A, C = sys.jacobian(V)
        dV = solve_bordered_block(L, R, A, C, -interior, -boundary)
        if not np.isfinite(dV).all():
            raise NonFiniteIterate(it, "update")
        V = V + dV
        if iterate_check is not None:
            iterate_check(V)
        update_norm = np.mean(np.abs(dV))
        if update_norm <= tol:
            return V, NewtonReport(iterations=it,
                                   final_update_norm=update_norm,
                                   converged=True)
    raise NewtonMaxIterations(max_iter, update_norm)


def full_residual(sys, V):
    """Residual as one flat vector: J*m interior rows then m boundary rows."""
    interior, boundary = sys.residual(V)
    return np.concatenate([interior.ravel(), boundary])


def dense_jacobian_from_blocks(L, R, A, C):
    """Assemble the dense matrix the blocks represent (small systems only)."""
    J, m, _ = L.shape
    n = (J + 1) * m
    M = np.zeros((n, n))
    for j in range(1, J + 1):
        r = (j - 1) * m
        M[r:r + m, (j - 1) * m:j * m] = L[j - 1]
        M[r:r + m, j * m:(j + 1) * m] = R[j - 1]
    M[J * m:, :m] = A
    M[J * m:, J * m:] = C
    return M


def check_jacobian(sys, V, step=1e-6):
    """Max discrepancy between the analytic Jacobian blocks and central
    finite differences of the residual, relative to max(1, |entry|)."""
    V = np.asarray(V, float)
    dense = dense_jacobian_from_blocks(*sys.jacobian(V))
    flat = V.ravel()
    fd = np.empty_like(dense)
    for i in range(flat.size):
        h = step * max(1.0, abs(flat[i]))
        vp = flat.copy()
        vp[i] += h
        vm = flat.copy()
        vm[i] -= h
        shape = V.shape
        fd[:, i] = (full_residual(sys, vp.reshape(shape))
                    - full_residual(sys, vm.reshape(shape))) / (2 * h)
    return np.max(np.abs(dense - fd) / np.maximum(1.0, np.abs(dense)))
