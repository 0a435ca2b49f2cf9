"""Midpoint scheme and Newton iteration for two-point block systems.

Both relaxation methods are the midpoint (box) scheme, built by
``midpoint_system`` from interval widths, interpolation weights and
boundary rows: m unknowns per node j = 0..J, interior equation j of
n <= m rows coupling only the nodes j-1 and j, plus m boundary rows
coupling node 0 and node J.  The last q = m - n unknowns have no interior
rows and are constant over the nodes, as for p' = 0 (FBF's free boundary
u4, q = 1; Ascher & Russell, SIAM Rev. 23, 1981).  The Newton linear
systems are solved in O(J m^3) by structured cyclic reduction with
orthogonal factorizations (S. J. Wright, SIAM J. Sci. Stat. Comput. 13,
1992) on one chain of equations, equation i coupling nodes[i] and
nodes[i+1]: each of the ceil(log2 J) levels eliminates every other node
from pairs of neighbouring equations with Householder QR, batched across
the pairs, until one equation between node 0 and node J is left.  Stacked
over the boundary rows it forms one dense (2m - q)-square system that
closes the chain and gives the constants, so the boundary rows may mix
both ends (cyclic border).  Orthogonal eliminations keep the solve stable
although the linearization has a growing mode, which rules out condensing
or transfer-matrix products.  ``relax`` is the one Newton driver of both
methods; it holds their shared check that beta is positive.
"""

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-13


class NewtonError(Exception):
    """A relaxation solve failed: the base of every Newton failure."""


class SingularJacobian(NewtonError):
    def __init__(self, where, pivot):
        if not isinstance(where, str):
            where = f"node {where}"
        super().__init__(f"pivot {pivot:.3g} below {PIVOT_TOL:g} "
                         f"while eliminating {where}")


class NewtonMaxIterations(NewtonError):
    def __init__(self, limit, update_norm):
        super().__init__(f"no convergence in {limit} Newton iterations "
                         f"(last mean update {update_norm:.3g})")
        self.update_norm = update_norm


class NonFiniteIterate(NewtonError):
    """A Newton iteration produced a non-finite residual or update."""

    def __init__(self, iteration, what):
        super().__init__(f"non-finite {what} in Newton iteration "
                         f"{iteration}")
        self.iteration = iteration


class NonPositiveBeta(NewtonError):
    """Newton converged to beta <= 0.  The true beta is positive for every
    b >= 0 and both boundary conditions (1 in the Munk limit b = 0,
    decreasing with b), so the iterate is a spurious root of the scheme."""

    def __init__(self, beta):
        super().__init__(f"converged to non-positive beta ({beta:.6g})")
        self.beta = beta


@dataclass(frozen=True)
class BlockSystem:
    """Nonlinear system in (J+1) nodes of m unknowns each.

    residual(V) -> (interior (J, n), boundary (m,)) for V of shape
    (J+1, m), 1 <= n <= m; jacobian(V) -> (L, R, A, C) where interior
    equation j (1-based) has n x m blocks L[j-1] on node j-1 and R[j-1] on
    node j, and the m boundary rows are A on node 0 plus C on node J.  The
    last m - n unknowns, which no interior row determines, are constant
    over the nodes; ``newton_solve`` rejects an initial iterate that is
    not, and every update keeps them so.
    """

    J: int
    m: int
    residual: callable
    jacobian: callable


def midpoint_system(widths, weights, g, dg, A, C, target):
    """BlockSystem of the midpoint scheme on J intervals for y' = g(V),
    y the first n of the m unknowns (the rest are constant).

    Interval j has width widths[j] and weight w_j = weights[j] on its right
    node; its n rows are y_{j+1} - y_j - a_j g(w_j V_{j+1} + (1 - w_j) V_j)
    with blocks -I - a_j (1 - w_j) dg and I - a_j w_j dg, I = eye(n, m).
    The boundary rows are A V_0 + C V_J - target.  g maps states (J, m) to
    slopes (J, n), which sets n, and dg to their Jacobians (J, n, m).
    """
    a = np.asarray(widths, dtype=float)[:, None]
    w = np.asarray(weights, dtype=float)[:, None]
    left = (a * (1.0 - w))[..., None]
    right = (a * w)[..., None]
    eye = np.eye(len(target))

    def interpolate(V):
        return w * V[1:] + (1.0 - w) * V[:-1]

    def residual(V):
        slopes = g(interpolate(V))
        n = slopes.shape[1]
        interior = V[1:, :n] - V[:-1, :n] - a * slopes
        return interior, A @ V[0] + C @ V[-1] - target

    def jacobian(V):
        G = dg(interpolate(V))
        rows = eye[:G.shape[1]]
        return -rows - left * G, rows - right * G, A, C

    return BlockSystem(J=len(a), m=len(target), residual=residual,
                       jacobian=jacobian)


@dataclass
class NewtonReport:
    iterations: int
    final_update_norm: float


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

    for x of shape (J+1, m) by structured cyclic reduction; L and R are
    (J, n, m) with 1 <= n <= m, interior_rhs (J, n).  The last q = m - n
    unknowns p have no interior rows and are the same at every node.  The
    reduction runs on the first n unknowns y_j; equation j is
    [left | right | P_j | rhs] with P_j = L[j-1][:, n:] + R[j-1][:, n:]
    the coefficient of p.

    A level is one chain of equations: equation i, n rows, couples
    nodes[i] and nodes[i+1].  Equations 2i and 2i+1 share nodes[2i+1];
    stacked over [shared | left | right | P | rhs], the pair is
    triangularized in the shared columns by Householder reflections.  The
    top n rows give the shared node from its neighbours and p and are kept
    for back substitution; the bottom n rows are the reduced equation
    between the neighbours.  An odd equation out carries over.  The last
    equation, between y_0 and y_J, stacked over the boundary rows
    [A[:, :n] | C[:, :n] | A[:, n:] + C[:, n:]] closes the chain as one
    dense (2m - q)-square system in (y_0, y_J, p), so the boundary rows may
    mix both ends (cyclic border).  Work arrays keep the batch on the last
    axis, so every row operation runs over contiguous memory.
    """
    J, n, m = L.shape
    if not 0 < n <= m:
        raise ValueError(f"interior blocks must have 1 to {m} rows, "
                         f"got {n}")
    rhs = np.asarray(interior_rhs, float)
    if rhs.shape != (J, n):
        raise ValueError(f"interior_rhs shape {rhs.shape} != {(J, n)}")
    q = m - n
    # Level 0's blocks are views of L and R, later levels views of the
    # reduced E; the last group of columns is [P | rhs].
    L, R = L.transpose(1, 2, 0), R.transpose(1, 2, 0)
    eq = (L[:, :n], R[:, :n],
          np.concatenate([L[:, n:] + R[:, n:], rhs.T[:, None]], axis=1))
    nodes = np.arange(J + 1)
    levels = []
    while len(nodes) > 2:
        h = (len(nodes) - 1) // 2
        even, odd = slice(0, 2 * h, 2), slice(1, 2 * h, 2)
        left, right, tail = eq
        W = np.zeros((2 * n, 3 * n + q + 1, h))
        W[:n, :n], W[n:, :n] = right[..., even], left[..., odd]
        W[:n, n:2 * n], W[n:, 2 * n:3 * n] = left[..., even], right[..., odd]
        W[:n, 3 * n:], W[n:, 3 * n:] = tail[..., even], tail[..., odd]
        _triangularize(W, n, [nodes[odd]] * n)
        levels.append((nodes, W[:n].copy()))
        E = np.empty((n, 2 * n + q + 1, len(nodes) - 1 - h))
        E[..., :h] = W[n:, n:]
        E[:, :n, h:], E[:, n:2 * n, h:], E[:, 2 * n:, h:] = (
            e[..., 2 * h:] for e in eq)
        del W  # the kept rows and E are copies: free W before the next level
        eq = E[:, :n], E[:, n:2 * n], E[:, 2 * n:]
        nodes = np.concatenate([nodes[:2 * h + 1:2], nodes[2 * h + 1:]])
    left, right, tail = eq
    B = np.vstack([np.hstack([left[..., 0], right[..., 0], tail[..., 0]]),
                   np.column_stack([A[:, :n], C[:, :n], A[:, n:] + C[:, n:],
                                    boundary_rhs])])[..., None]
    _triangularize(B, 2 * n + q, [[0]] * n + [[J]] * n
                   + [[f"the constant unknown in column {k}"]
                      for k in range(n, m)])
    z = _solve_upper(B[:, :2 * n + q], B[:, 2 * n + q])
    x = np.empty((m, J + 1))
    x[:n, nodes] = z[:2 * n].reshape(2, n).T
    x[n:] = z[2 * n:]
    # x holds p at every node, so the right neighbours' columns and P
    # multiply one (m, h) slice of x.
    for chain, top in reversed(levels):
        rhs = (top[:, 3 * n + q]
               - np.einsum("ijh,jh->ih", top[:, n:2 * n],
                           x[:n, chain[:-2:2]])
               - np.einsum("ijh,jh->ih", top[:, 2 * n:3 * n + q],
                           x[:, chain[2::2]]))
        x[:n, chain[1:-1:2]] = _solve_upper(top[:, :n], rhs)
    return np.ascontiguousarray(x.T)


def newton_solve(sys, v0, tol, max_iter=100, iterate_check=None):
    """Full-step Newton on a BlockSystem; stops on the mean absolute
    update criterion  mean|dV| <= tol.

    The iteration count equals the number of linear solves performed.
    A non-finite residual or update raises NonFiniteIterate at once.
    ``iterate_check`` (if given) is called with each new iterate and may
    raise to abort, e.g. when an iterate leaves the admissible region.
    The columns past the interior residual's width n are the constant
    unknowns: a ``v0`` not constant there is a ValueError, raised after
    iteration 1's finiteness check.  Every update keeps them constant.
    """
    V = np.array(v0, dtype=float)
    if V.shape != (sys.J + 1, sys.m):
        raise ValueError(f"iterate shape {V.shape} != {(sys.J + 1, sys.m)}")
    update_norm = np.inf
    for it in range(1, max_iter + 1):
        interior, boundary = sys.residual(V)
        if not (np.isfinite(interior).all() and np.isfinite(boundary).all()):
            raise NonFiniteIterate(it, "residual")
        n = interior.shape[1]
        if it == 1 and (V[:, n:] != V[0, n:]).any():
            raise ValueError(f"the constant unknowns (the last {sys.m - n} "
                             f"columns) must be equal at every node")
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
                                   final_update_norm=update_norm)
    raise NewtonMaxIterations(max_iter, update_norm)


def relax(problem, initial=None):
    """Newton solve of an ``FbfProblem`` or ``QugProblem`` from ``initial``
    (by default ``problem.initial_guess()``) with the problem's ``tol`` and
    ``check_iterate``; returns (problem.solution(V), NewtonReport).  A
    converged beta that is not positive raises NonPositiveBeta."""
    V0 = problem.initial_guess() if initial is None else initial
    V, report = newton_solve(problem.system(), V0, problem.tol,
                             iterate_check=problem.check_iterate)
    sol = problem.solution(V)
    if not sol.beta > 0.0:
        raise NonPositiveBeta(sol.beta)
    return sol, report


def dense_jacobian_from_blocks(L, R, A, C):
    """Assemble the (J n + m) x (J + 1) m matrix the n x m blocks
    represent, square when n = m (small systems only)."""
    J, n, m = L.shape
    M = np.zeros((J * n + m, (J + 1) * m))
    for j in range(1, J + 1):
        r = (j - 1) * n
        M[r:r + n, (j - 1) * m:j * m] = L[j - 1]
        M[r:r + n, j * m:(j + 1) * m] = R[j - 1]
    M[J * n:, :m] = A
    M[J * n:, J * m:] = C
    return M
