"""The three workloads: inputs drawn from the seed, one timed pass of
solves, and correctness checks against references computed apart from
the solvers (published tables, the closed-form Munk limit, the closed-form
beta(b) approximation, and agreement between independent methods).

Every solver is reached through its module attribute at call time
(``free_boundary.solve_fbf``, ``cli.sweep_b``, ...), so the tracer's
patches see each call.  Only public functions of the package are called.
"""

import random
import time
from dataclasses import dataclass

import numpy as np

from oceanbvp import benchmarks, cli, free_boundary, model, quasi_uniform, \
    shooting
from oceanbvp.model import BcKind, ModelParams

WORKLOADS = ("relax-tables", "shoot-tables", "sweep")
METHOD_METRIC = {"fbf": "fbf_s", "qug": "qug_s", "shoot-secant": "secant_s",
                 "shoot-newton": "newton_s"}

TABLE_B = 2.0
QUG_C = 5.0
SWEEP_J = 200
# Strata per b-range: one b drawn uniformly inside each, so every seed
# spreads its points over the whole range and a pass costs about the same.
SHARED_STRATA = 4                  # [0, 2]: QUG and Newton shooting
QUG_STRATA = 6                     # (2, 8]: QUG only
SHARED_RANGE = (0.0, 2.0)
QUG_RANGE = (2.0, 8.0)
# Cold-start QUG at b = 16 spins all 100 Newton iterations and fails on
# both boundary conditions; kept as the one known failure (seed-free).
KNOWN_FAILURE_B = 16.0

MUNK_TOL = 1e-4           # beta(b = 0) against the closed-form Munk limit
AGREE_TOL = 5e-4          # QUG against Newton shooting at a shared b
# |beta - approx| / approx for the closed-form approximation of beta(b);
# the computed gap is at most 1.8% on [0, 8], and the cold-start QUG slip
# answer at b = 50 (beta = -0.158 against 0.143) is off by 210%.
APPROX_GAP = 0.05
EVAL_FACTOR = 10.0        # shooting RHS evaluations: order of magnitude
DENSE_MID_TOL = 0.05      # |u - 1| at mid-domain of the dense trajectory


@dataclass
class Op:
    """One timed operation of a pass; ``check(result)`` returns
    (attempted, failed, list of check failures)."""

    label: str
    method: str
    kind: BcKind
    run: callable
    check: callable


@dataclass
class Workload:
    name: str
    ops: list
    cross_check: callable = None    # pass-level check over all results


@dataclass
class PassResult:
    wall_s: float
    op_s: list          # seconds of each operation, in workload order
    attempted: int
    failed: int
    errors: list        # check failures on operations that did not fail
    failures: list      # labels of the operations that failed


def _slot(kind):
    """Index of the missing initial condition in the state vector."""
    return int(np.argmax(model.sensitivity_initial(kind)))


def munk_beta(kind):
    return float(model.munk_exact(kind, 0.0)[_slot(kind)])


def _approx_errors(label, kind, b, beta):
    approx = model.approx_missing_init(kind, b)
    if abs(beta - approx) > APPROX_GAP * approx:
        return [f"{label}: beta {beta:.6f} more than {APPROX_GAP:.0%} from "
                f"the closed form {approx:.6f} at b = {b:g}"]
    return []


def _published_errors(label, row, beta, iterations):
    errors = []
    if abs(beta - row.beta) > row.beta_tol:
        errors.append(f"{label}: beta {beta:.7f} vs published {row.beta} "
                      f"(tol {row.beta_tol:g})")
    if abs(iterations - row.iterations) > row.iter_tol:
        errors.append(f"{label}: {iterations} iterations vs published "
                      f"{row.iterations} (tol {row.iter_tol})")
    return errors + _approx_errors(label, row.kind, TABLE_B, beta)


def _label_value(row):
    """Number after '=' in a published boundary label ('xi_eps = 13.4')."""
    return float(row.boundary_label.split("=")[1])


def _single(errors):
    return 1, 0, errors


# -- relax-tables --------------------------------------------------------------

def _relax_op(row):
    params = ModelParams(TABLE_B)
    label = f"{row.method} {row.kind.value} J={row.grid_points}"
    if row.method == "fbf":
        prob = free_boundary.FbfProblem(params=params, kind=row.kind,
                                        eps=1e-5, J=row.grid_points)

        def run():
            return free_boundary.solve_fbf(prob)

        def check(result):
            sol, rep = result
            errors = _published_errors(label, row, sol.beta, rep.iterations)
            xi_ref = _label_value(row)
            if abs(sol.free_boundary - xi_ref) > benchmarks.FBF_XI_TOL:
                errors.append(f"{label}: free boundary {sol.free_boundary:.6f}"
                              f" vs published {xi_ref}")
            return _single(errors)
    else:
        def run():
            return quasi_uniform.solve_qug(QUG_C, row.grid_points, params,
                                           row.kind)

        def check(result):
            sol, rep = result
            errors = _published_errors(label, row, sol.beta, rep.iterations)
            if abs(sol.infinity_state[0] - 1.0) > 1e-9:
                errors.append(f"{label}: u(inf) = {sol.infinity_state[0]!r}")
            return _single(errors)
    return Op(label, row.method, row.kind, run, check)


# -- shoot-tables --------------------------------------------------------------

def _shoot_op(row):
    beta0, beta1 = benchmarks.SHOOTING_SEEDS[(row.method, row.kind)]
    prob = shooting.ShootingProblem(params=ModelParams(TABLE_B),
                                    kind=row.kind,
                                    xi_infinity=_label_value(row))
    label = f"{row.method} {row.kind.value}"
    evals_ref = benchmarks.SHOOTING_EVALUATIONS[(row.method, row.kind)]

    def run():
        if row.method == "shoot-secant":
            return shooting.solve_secant(beta0, beta1, prob)
        return shooting.solve_newton(beta0, prob)

    def check(res):
        errors = _published_errors(label, row, res.beta, res.iterations)
        evals = res.stats.rhs_evaluations
        if not evals_ref / EVAL_FACTOR <= evals <= evals_ref * EVAL_FACTOR:
            errors.append(f"{label}: {evals} RHS evaluations vs published "
                          f"{evals_ref}")
        traj = res.trajectory
        xi = np.linspace(0.0, prob.xi_infinity, shooting.DENSE_SAMPLES)
        if traj.u.shape != (shooting.DENSE_SAMPLES, 3) \
                or not np.array_equal(traj.xi, xi) \
                or not np.all(np.isfinite(traj.u)):
            errors.append(f"{label}: malformed dense trajectory")
        elif not np.array_equal(traj.u[0],
                                model.bc_initial(row.kind, res.beta)):
            errors.append(f"{label}: trajectory does not start at the "
                          f"boundary state")
        elif abs(traj.u[len(xi) // 2, 0] - 1.0) > DENSE_MID_TOL:
            errors.append(f"{label}: u = {traj.u[len(xi) // 2, 0]:.4f} at "
                          f"mid-domain, expected within {DENSE_MID_TOL} of 1")
        return _single(errors)

    return Op(label, row.method, row.kind, run, check)


# -- sweep ---------------------------------------------------------------------

def _stratified(rng, lo, hi, strata):
    width = (hi - lo) / strata
    return [lo + width * (i + rng.random()) for i in range(strata)]


def sweep_b_values(rng):
    """(QUG b values, Newton-shooting b values).  b = 0 and the shared
    draws are in both lists; the known failure point is last."""
    shared = [0.0] + _stratified(rng, *SHARED_RANGE, SHARED_STRATA)
    qug = sorted(shared + _stratified(rng, *QUG_RANGE, QUG_STRATA))
    return qug + [KNOWN_FAILURE_B], shared


def _sweep_rows_check(label, kind):
    def check(rows):
        errors = []
        ok = [r for r in rows if r["status"] == "ok"]
        for r in ok:
            errors += _approx_errors(label, kind, r["b"], r["beta_numeric"])
            if r["b"] == 0.0 and abs(r["beta_numeric"] - munk_beta(kind)) \
                    > MUNK_TOL:
                errors.append(f"{label}: beta(0) = {r['beta_numeric']:.7f} "
                              f"vs Munk {munk_beta(kind):.7f}")
        ok.sort(key=lambda r: r["b"])
        for r1, r2 in zip(ok, ok[1:]):
            if r2["b"] > r1["b"] and not r2["beta_numeric"] < r1["beta_numeric"]:
                errors.append(f"{label}: beta not decreasing between "
                              f"b = {r1['b']:.4f} and {r2['b']:.4f}")
        failed = len(rows) - len(ok)
        return len(rows), failed, errors
    return check


def _sweep_op(method, kind, b_values):
    label = f"sweep {method} {kind.value}"

    def run():
        if method == "qug":
            return cli.sweep_b(b_values, "qug", kind, J=SWEEP_J, c=QUG_C)
        return cli.sweep_b(b_values, method, kind)

    return Op(label, method, kind, run, _sweep_rows_check(label, kind))


def _sweep_cross_check(results):
    """QUG and Newton shooting agree at every b both solved."""
    by_key = {}
    for op, rows in results:
        if isinstance(rows, Exception):
            rows = []
        by_key[(op.method, op.kind)] = {r["b"]: r["beta_numeric"] for r in rows
                                     if r["status"] == "ok"}
    errors = []
    for kind in BcKind:
        qug, newton = by_key[("qug", kind)], by_key[("shoot-newton", kind)]
        for b in sorted(set(qug) & set(newton)):
            if abs(qug[b] - newton[b]) > AGREE_TOL:
                errors.append(f"sweep {kind.value}: QUG {qug[b]:.6f} vs "
                              f"Newton shooting {newton[b]:.6f} at b = {b:.4f}")
    return errors


# -- assembly ------------------------------------------------------------------

def build(name, seed):
    """Inputs of one workload.  The seed fixes the order of the solves in
    a pass and, for the sweep, the b values."""
    rng = random.Random(seed)
    if name == "relax-tables":
        ops = [_relax_op(r) for r in benchmarks.COMPARISON_ROWS
               if r.method in ("fbf", "qug")]
        cross = None
    elif name == "shoot-tables":
        ops = [_shoot_op(r) for r in benchmarks.COMPARISON_ROWS
               if r.method in ("shoot-secant", "shoot-newton")]
        cross = None
    elif name == "sweep":
        qug_b, shoot_b = sweep_b_values(rng)
        ops = [_sweep_op(m, k, bs) for m, bs in (("qug", qug_b),
                                                 ("shoot-newton", shoot_b))
               for k in BcKind]
        cross = _sweep_cross_check
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return Workload(name, ops, cross)


def warm_up():
    """Small solves of every method so lazy set-up is done before timing."""
    p = ModelParams(TABLE_B)
    quasi_uniform.solve_qug(QUG_C, 20, p, BcKind.NO_SLIP)
    free_boundary.solve_fbf(free_boundary.FbfProblem(params=p, eps=1e-2,
                                                     J=40))
    shooting.solve_newton(1.0, shooting.ShootingProblem(params=ModelParams(0.0)))


def run_pass(workload, on_op=None, clock=None):
    """Run every operation once, timed; then check the results.

    With a HostClock, ``op_s`` holds each operation's reference time
    (see hostclock.py); without one, its wall time.
    """
    results, op_s = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(workload.ops):
        if on_op is not None:
            on_op(i)
        mark = clock.mark() if clock is not None else time.perf_counter()
        try:
            value = op.run()
        except Exception as err:  # a failed solve is counted, not fatal
            value = err
        op_s.append(clock.since(mark)[1] if clock is not None
                    else time.perf_counter() - mark)
        results.append((op, value))
    wall = time.perf_counter() - t_pass

    attempted = failed = 0
    errors, failures = [], []
    for op, value in results:
        if isinstance(value, Exception):
            attempted += 1
            failed += 1
            failures.append(f"{op.label}: {value}")
            continue
        a, f, e = op.check(value)
        attempted += a
        failed += f
        errors += e
        if f:
            failures += [f"{op.label} at b = {r['b']:g}" for r in value
                         if r["status"] != "ok"]
    if workload.cross_check is not None:
        errors += workload.cross_check(results)
    return PassResult(wall, op_s, attempted, failed, errors, failures)


