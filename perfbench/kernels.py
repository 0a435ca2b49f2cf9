"""Untraced micro-timings of the hot kernels, on seeded inputs.

Each timing is the median over REPEATS batches of the per-call time, so
one slow batch on a shared machine does not move it.  The inputs are the
same size in every workload, so these numbers do not depend on which
workload runs them.
"""

import statistics
import time

import numpy as np

from oceanbvp import blocksolve, ivp, model
from oceanbvp.model import BcKind, ModelParams

REPEATS = 7
BLOCK_J = 2000
BLOCK_M = 4          # the free-boundary system has four unknowns per node
CHECK_J = 24


def _per_call_us(fn, calls):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(samples)


def _blocks(rng, J, m):
    """Well-conditioned bordered block system: contracting interior
    blocks, identity-dominated boundary rows."""
    L = -0.5 * np.eye(m) + 0.05 * rng.standard_normal((J, m, m))
    R = np.eye(m) + 0.05 * rng.standard_normal((J, m, m))
    A = np.eye(m) + 0.1 * rng.standard_normal((m, m))
    C = 0.1 * rng.standard_normal((m, m))
    return L, R, A, C, rng.standard_normal((J, m)), rng.standard_normal(m)


def check_block_solver(rng):
    """solve_bordered_block against np.linalg.solve on the dense matrix;
    returns the relative error at CHECK_J nodes."""
    L, R, A, C, ri, rb = _blocks(rng, CHECK_J, BLOCK_M)
    x = blocksolve.solve_bordered_block(L, R, A, C, ri, rb)
    dense = np.linalg.solve(blocksolve.dense_jacobian_from_blocks(L, R, A, C),
                            np.concatenate([ri.ravel(), rb]))
    return float(np.max(np.abs(x.ravel() - dense)) / np.max(np.abs(dense)))


def measure(seed):
    """Kernel timings as {metric name: (value, unit)} plus the block-solver
    check error."""
    rng = np.random.default_rng(seed)
    p = ModelParams(2.0)
    y3 = rng.uniform(0.2, 1.0, 3)
    y6 = np.concatenate([y3, rng.uniform(0.2, 1.0, 3)])
    f3 = model.rhs(0.0, y3, p)
    f6 = model.rhs_variational(0.0, y6, p)

    def rhs3(t, y):
        return model.rhs(t, y, p)

    def rhs6(t, y):
        return model.rhs_variational(t, y, p)

    out = {
        "model.rhs.us": _per_call_us(lambda: model.rhs(0.0, y3, p), 20000),
        "model.rhs_variational.us":
            _per_call_us(lambda: model.rhs_variational(0.0, y6, p), 20000),
        "ivp.step_bs23.us":
            _per_call_us(lambda: ivp.step_bs23(rhs3, 0.0, y3, 0.01, f3), 5000),
        "ivp.step_bs23_variational.us":
            _per_call_us(lambda: ivp.step_bs23(rhs6, 0.0, y6, 0.01, f6), 5000),
    }

    # One root-finding integration of the published no-slip case.
    y0 = model.bc_initial(BcKind.NO_SLIP, 0.826111)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _, stats = ivp.integrate(rhs3, 0.0, 10.0, y0)
        samples.append((time.perf_counter() - t0) / stats.rhs_evaluations)
    out["ivp.us_per_rhs_eval"] = 1e6 * statistics.median(samples)

    L, R, A, C, ri, rb = _blocks(rng, BLOCK_J, BLOCK_M)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        blocksolve.solve_bordered_block(L, R, A, C, ri, rb)
        samples.append((time.perf_counter() - t0) / (BLOCK_J + 1))
    out["blocksolve.solve.us_per_node"] = 1e6 * statistics.median(samples)
    return {k: (v, "us") for k, v in out.items()}, check_block_solver(rng)
