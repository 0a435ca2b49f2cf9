"""Command-line harness for the three BVP solvers.

Subcommands:
  solve    run one solver and report beta, boundary and iteration data
  tables   re-run the twelve comparison configurations and check each
           result against the reference values
  sweep    solve over a list of b values and compare against the
           closed-form approximation of the missing initial condition
  profile  write a converged solution profile as CSV (xi, u, du, d2u)

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import benchmarks, free_boundary, quasi_uniform, shooting
from .blocksolve import NewtonError
from .free_boundary import FbfProblem
from .ivp import IntegrationError
from .model import BcKind, ModelParams, approx_missing_init
from .shooting import ShootingError, ShootingProblem

COMPARISON_HEADER = ["method", "boundary", "gridpoints", "iterations", "beta"]
PROFILE_HEADER = ["xi", "u", "du", "d2u"]
SWEEP_HEADER = ["b", "beta_numeric", "beta_approx", "relative_gap", "status",
                "error"]


class ConfigError(Exception):
    pass


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"--{name} is required for method "
                              f"{args.method}")


def _run_solver(method, kind, b, *, beta0=None, beta1=None, xi_inf=10.0,
                eps_list=None, J=None, c=None, tol=1e-6, initial=None):
    """Run one solver configuration; returns (report dict, MeshSolution).

    ``initial`` warm-starts the fbf and qug solves from a full iterate.
    """
    params = ModelParams(b=b)
    if method in ("shoot-secant", "shoot-newton"):
        prob = ShootingProblem(params=params, kind=kind,
                               xi_infinity=xi_inf, tol=tol)
        if method == "shoot-secant":
            res = shooting.solve_secant(beta0, beta1, prob)
        else:
            res = shooting.solve_newton(beta0, prob)
        report = {
            "method": method, "bc": kind.value, "b": b,
            "beta": res.beta, "boundary": xi_inf,
            "iterations": res.iterations, "residual": res.residual,
            "ivp_stats": {
                "accepted_steps": res.stats.accepted_steps,
                "rejected_steps": res.stats.rejected_steps,
                "rhs_evaluations": res.stats.rhs_evaluations,
            },
        }
        return report, res.trajectory
    if method in ("fbf", "fbf-continuation"):
        prob = FbfProblem(params=params, kind=kind, eps=eps_list[0],
                          J=J or 2000, tol=tol)
    if method == "fbf":
        sol, rep = free_boundary.solve_fbf(prob, initial=initial)
        report = {
            "method": method, "bc": kind.value, "b": b,
            "beta": sol.beta, "boundary": sol.free_boundary,
            "eps": eps_list[0], "gridpoints": prob.J,
            "iterations": rep.iterations,
            "final_update_norm": rep.final_update_norm,
        }
        return report, sol
    if method == "fbf-continuation":
        results, err = free_boundary.continuation_solve(prob, eps_list)
        if err is not None:
            raise err
        stages = [{
            "eps": eps, "beta": sol.beta, "boundary": sol.free_boundary,
            "iterations": rep.iterations,
        } for eps, (sol, rep) in zip(eps_list, results)]
        sol, rep = results[-1]
        report = {
            "method": method, "bc": kind.value, "b": b,
            "beta": sol.beta, "boundary": sol.free_boundary,
            "gridpoints": prob.J,
            "iterations": [s["iterations"] for s in stages],
            "stages": stages,
        }
        return report, sol
    if method == "qug":
        sol, rep = quasi_uniform.solve_qug(c or 5.0, J or 200, params,
                                           kind, tol=tol, initial=initial)
        report = {
            "method": method, "bc": kind.value, "b": b,
            "beta": sol.beta, "boundary": "inf",
            "gridpoints": J or 200, "c": c or 5.0,
            "iterations": rep.iterations,
            "final_update_norm": rep.final_update_norm,
        }
        return report, sol
    raise ConfigError(f"unknown method {method}")


# -- tables ------------------------------------------------------------------

def _comparison_cell(row):
    """Run one reference configuration; returns the computed values."""
    beta0, beta1 = benchmarks.SHOOTING_SEEDS.get((row.method, row.kind),
                                                 (None, None))
    report, _ = _run_solver(row.method, row.kind, 2.0, beta0=beta0,
                            beta1=beta1, eps_list=[1e-5], J=row.grid_points,
                            c=5.0)
    evals = report.get("ivp_stats", {}).get("rhs_evaluations")
    return report["beta"], report["iterations"], evals


def reproduce_tables(skip=()):
    """Re-run the comparison configurations, in deterministic row order.

    Returns per-kind dicts with the analytic caption value and annotated
    rows.
    """
    rows = [r for r in benchmarks.COMPARISON_ROWS
            if not any(s in r.method for s in skip)]
    computed = [_comparison_cell(row) for row in rows]
    out = {}
    for kind in (BcKind.NO_SLIP, BcKind.SLIP):
        entries = []
        for row, (beta, iters, evals) in zip(rows, computed):
            if row.kind is not kind:
                continue
            entries.append({
                "method": row.method,
                "boundary": row.boundary_label,
                "gridpoints": row.grid_points or "",
                "iterations": iters,
                "beta": beta,
                "beta_ref": row.beta,
                "iterations_ref": row.iterations,
                "pass": (abs(beta - row.beta) <= row.beta_tol
                         and abs(iters - row.iterations) <= row.iter_tol),
            })
        out[kind.value] = {
            "caption_beta_approx": benchmarks.APPROX_BETA[kind],
            "rows": entries,
        }
    return out


def _emit_tables(result, fmt, stream):
    if fmt == "json":
        json.dump(result, stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(COMPARISON_HEADER)
        for kind in ("no-slip", "slip"):
            for e in result[kind]["rows"]:
                writer.writerow([e["method"], e["boundary"],
                                 e["gridpoints"], e["iterations"],
                                 f"{e['beta']:.6f}"])
        return
    for kind in ("no-slip", "slip"):
        block = result[kind]
        stream.write(f"# {kind} boundary conditions "
                     f"(analytic approximation beta = "
                     f"{block['caption_beta_approx']:.6f})\n")
        stream.write(f"{'method':14s} {'boundary':22s} {'grid':>6s} "
                     f"{'iter':>5s} {'beta':>10s}  status\n")
        for e in block["rows"]:
            status = "pass" if e["pass"] else "FAIL"
            stream.write(f"{e['method']:14s} {e['boundary']:22s} "
                         f"{str(e['gridpoints']):>6s} "
                         f"{e['iterations']:>5d} {e['beta']:>10.6f}  "
                         f"{status}\n")
        stream.write("\n")


# -- sweep -------------------------------------------------------------------

# Failures of a single solve; a sweep records them in the row and goes on.
# Anything else (a bad argument, a bug) propagates.
SOLVER_ERRORS = (ShootingError, IntegrationError, NewtonError)

_ITERATE_OF = {"fbf": free_boundary.iterate_of,
               "qug": quasi_uniform.iterate_of}


def sweep_b(b_values, method, kind, J=None, c=None):
    """Solve over b values in order and tabulate the gap to the closed-form
    approximation.  Each solve is warm-started from the last converged
    one: shooting from its beta, relaxation from its full iterate."""
    b_values = list(b_values)
    for b in b_values:
        if not (math.isfinite(b) and b >= 0):
            raise ConfigError(f"b values must be finite and non-negative, "
                              f"got {b}")
    rows = []
    prev_beta = 1.0
    state = None
    for b in b_values:
        approx = approx_missing_init(kind, b)
        try:
            if method in ("shoot-secant", "shoot-newton"):
                report, _ = _run_solver(method, kind, b, beta0=prev_beta,
                                        beta1=prev_beta * 1.1 + 1e-3)
            else:
                report, sol = _run_solver(method, kind, b, eps_list=[1e-5],
                                          J=J, c=c, initial=state)
                state = _ITERATE_OF[method](sol)
        except SOLVER_ERRORS as err:
            rows.append({"b": b, "beta_numeric": "", "beta_approx": approx,
                         "relative_gap": "", "status": "failed",
                         "error": f"{type(err).__name__}: {err}"})
            continue
        beta = report["beta"]
        prev_beta = beta
        rows.append({"b": b, "beta_numeric": beta, "beta_approx": approx,
                     "relative_gap": abs(beta - approx) / max(abs(beta), 1e-300),
                     "status": "ok", "error": ""})
    return rows


# -- profile -----------------------------------------------------------------

def emit_profiles(solution, stream):
    """Write the nodal profile as CSV; a quasi-uniform solution gets its
    infinity-node values appended as a footer record tagged "inf"."""
    writer = csv.writer(stream)
    writer.writerow(PROFILE_HEADER)
    for xi, u in zip(solution.xi, solution.u):
        writer.writerow([f"{xi:.10g}", f"{u[0]:.10g}", f"{u[1]:.10g}",
                         f"{u[2]:.10g}"])
    if solution.infinity_state is not None:
        s = solution.infinity_state
        writer.writerow(["inf", f"{s[0]:.10g}", f"{s[1]:.10g}",
                         f"{s[2]:.10g}"])


# -- argument plumbing -------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_report(report, fmt, stream):
    if fmt == "json":
        json.dump(report, stream, indent=2, default=_json_default)
        stream.write("\n")
    elif fmt == "csv":
        flat = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
        writer = csv.writer(stream)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
    else:
        for key, value in report.items():
            stream.write(f"{key}: {value}\n")


def _add_common(p):
    p.add_argument("--bc", choices=["no-slip", "slip"], default="no-slip")
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_method_knobs(p):
    p.add_argument("--method", required=True,
                   choices=["shoot-secant", "shoot-newton", "fbf",
                            "fbf-continuation", "qug"])
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--xi-inf", type=float, default=10.0)
    p.add_argument("--eps", type=float, action="append", default=None,
                   help="free-boundary derivative level; repeat for "
                        "continuation")
    p.add_argument("--J", type=int, default=None)
    p.add_argument("--c", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oceanbvp",
        description="Solvers for the semi-infinite ocean circulation BVP")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver")
    _add_method_knobs(p)
    _add_common(p)

    p = sub.add_parser("tables", help="reproduce the comparison tables")
    p.add_argument("--skip", default="",
                   help="comma-separated method substrings to skip")
    _add_common(p)

    p = sub.add_parser("sweep", help="sweep the nonlinearity parameter b")
    p.add_argument("--method", required=True,
                   choices=["shoot-secant", "shoot-newton", "fbf", "qug"])
    p.add_argument("--b-values", default="",
                   help="comma-separated list of b values")
    p.add_argument("--J", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("profile", help="emit a solution profile as CSV")
    _add_method_knobs(p)
    _add_common(p)
    return parser


def _validated_knobs(args):
    if args.method == "shoot-secant":
        _require(args, "beta0", "beta1")
    elif args.method == "shoot-newton":
        _require(args, "beta0")
        if args.beta1 is not None:
            raise ConfigError("--beta1 applies only to shoot-secant")
    eps = args.eps
    if args.method in ("fbf", "fbf-continuation") and eps is None:
        eps = [1e-5]
    return dict(beta0=args.beta0, beta1=args.beta1, xi_inf=args.xi_inf,
                eps_list=eps, J=args.J, c=args.c, tol=args.tol)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        buffer = io.StringIO()
        if args.command == "solve":
            knobs = _validated_knobs(args)
            report, _ = _run_solver(args.method, BcKind(args.bc), args.b,
                                    **knobs)
            _emit_report(report, args.format, buffer)
        elif args.command == "tables":
            skip = tuple(s for s in args.skip.split(",") if s)
            result = reproduce_tables(skip=skip)
            _emit_tables(result, args.format, buffer)
        elif args.command == "sweep":
            b_values = [float(s) for s in args.b_values.split(",") if s]
            rows = sweep_b(b_values, args.method, BcKind(args.bc),
                           J=args.J, c=args.c)
            writer = csv.writer(buffer)
            writer.writerow(SWEEP_HEADER)
            for r in rows:
                writer.writerow([r[k] for k in SWEEP_HEADER])
        elif args.command == "profile":
            knobs = _validated_knobs(args)
            _, solution = _run_solver(args.method, BcKind(args.bc), args.b,
                                      **knobs)
            emit_profiles(solution, buffer)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS + (ValueError,) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    text = buffer.getvalue()
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as err:
            print(f"cannot write {args.out}: {err}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
