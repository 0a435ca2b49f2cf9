"""Command-line harness for the three BVP formulations.

Subcommands, each with only the options it reads:
  solve    run one method and report beta, boundary and iteration data
  tables   re-run the twelve comparison configurations against the
           reference values
  sweep    solve over a list of b values against the closed-form
           approximation of the missing initial condition
  profile  write a converged solution profile as CSV (xi, u, du, d2u)

METHODS maps each method to the options it reads and the function that
solves one configuration; an option the method does not read is a
configuration error.

Exit codes: 0 success; 1 a solver failure (ShootingError,
IntegrationError, NewtonError) or an unwritable --out path; 2 a missing,
stray or malformed option, or a value a constructor or solver rejects
before solving (ValueError).
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import benchmarks, free_boundary, quasi_uniform, shooting
from .blocksolve import NewtonError
from .free_boundary import FbfProblem
from .ivp import IntegrationError
from .model import BcKind, ModelParams, approx_missing_init
from .shooting import ShootingError, ShootingProblem, ShootingResult

COMPARISON_HEADER = ["method", "boundary", "gridpoints", "iterations", "beta"]
PROFILE_HEADER = ["xi", "u", "du", "d2u"]
SWEEP_HEADER = ["b", "beta_numeric", "beta_approx", "relative_gap", "status",
                "error"]


# -- methods -----------------------------------------------------------------

# Each solve function takes (kind, b, options, warm), where ``warm`` is a
# converged solution of the same method to start from or None, and returns
# (report fields, solution).  A shooting solution is the ShootingResult,
# whose profile is integrated only if ``profile`` reads it.  Solvers are
# looked up in their modules at call time, so a patched or traced solver
# is the one that runs.

def _shoot(kind, b, o, solve):
    res = solve(ShootingProblem(params=ModelParams(b=b), kind=kind,
                                xi_infinity=o["xi_inf"], tol=o["tol"]))
    return {"beta": res.beta, "boundary": o["xi_inf"],
            "iterations": res.iterations, "residual": res.residual,
            "ivp_stats": asdict(res.stats)}, res


def _secant(kind, b, o, warm):
    beta0 = o["beta0"] if warm is None else warm.beta
    # With no second seed given, it lies just above the first.
    beta1 = beta0 * 1.1 + 1e-3 if o["beta1"] is None else o["beta1"]
    return _shoot(kind, b, o, lambda p: shooting.solve_secant(beta0, beta1, p))


def _newton(kind, b, o, warm):
    beta0 = o["beta0"] if warm is None else warm.beta
    return _shoot(kind, b, o, lambda p: shooting.solve_newton(beta0, p))


def _fbf_problem(kind, b, o):
    return FbfProblem(params=ModelParams(b=b), kind=kind, eps=o["eps"][0],
                      J=o["J"], tol=o["tol"])


def _fbf(kind, b, o, warm):
    if len(o["eps"]) != 1:
        raise ValueError("method fbf takes one --eps value")
    prob = _fbf_problem(kind, b, o)
    initial = None if warm is None else warm.iterate
    sol, rep = free_boundary.solve_fbf(prob, initial=initial)
    return {"beta": sol.beta, "boundary": sol.free_boundary, "eps": prob.eps,
            "gridpoints": prob.J, "iterations": rep.iterations,
            "final_update_norm": rep.final_update_norm}, sol


def _fbf_continuation(kind, b, o, warm):
    eps = o["eps"]
    results = free_boundary.continuation_solve(_fbf_problem(kind, b, o), eps)
    stages = [{"eps": e, "beta": float(s.beta),
               "boundary": float(s.free_boundary),
               "iterations": r.iterations} for e, (s, r) in zip(eps, results)]
    sol = results[-1][0]
    return {"beta": sol.beta, "boundary": sol.free_boundary,
            "gridpoints": o["J"],
            "iterations": [s["iterations"] for s in stages],
            "stages": stages}, sol


def _qug(kind, b, o, warm):
    initial = None if warm is None else warm.iterate
    sol, rep = quasi_uniform.solve_qug(o["c"], o["J"], ModelParams(b=b), kind,
                                       tol=o["tol"], initial=initial)
    return {"beta": sol.beta, "boundary": "inf", "gridpoints": o["J"],
            "c": o["c"], "iterations": rep.iterations,
            "final_update_norm": rep.final_update_norm}, sol


_FBF_OPTIONS = {"eps": (1e-5,), "J": 2000, "tol": 1e-6}

# name -> (solve function, {option: default}).  A default of None marks an
# option the command line requires.
METHODS = {
    "shoot-secant": (_secant, {"beta0": None, "beta1": None,
                               "xi_inf": 10.0, "tol": 1e-6}),
    "shoot-newton": (_newton, {"beta0": None, "xi_inf": 10.0, "tol": 1e-6}),
    "fbf": (_fbf, _FBF_OPTIONS),
    "fbf-continuation": (_fbf_continuation, _FBF_OPTIONS),
    "qug": (_qug, {"J": 200, "c": 5.0, "tol": 1e-6}),
}

# A continuation is a sweep over eps of its own and takes no warm start.
SWEEP_METHODS = [m for m in METHODS if m != "fbf-continuation"]

# The argparse keywords of every method option.
OPTIONS = {"beta0": dict(type=float), "beta1": dict(type=float),
           "xi_inf": dict(type=float), "J": dict(type=int),
           "c": dict(type=float), "tol": dict(type=float),
           "eps": dict(type=float, action="append",
                       help="repeat for fbf-continuation")}


def _flag(name):
    return "--" + name.replace("_", "-")


def _options(method, **given):
    """The options ``method`` reads: its defaults under the given values.
    A value of None counts as absent; one for an option the method does
    not read is a ValueError."""
    defaults = METHODS[method][1]
    given = {k: v for k, v in given.items() if v is not None}
    for name in given:
        if name not in defaults:
            raise ValueError(f"{_flag(name)} does not apply to method "
                             f"{method}")
    return {**defaults, **given}


def _solve(method, kind, b, options, warm=None):
    """Solve one configuration; returns (report, solution)."""
    fields, solution = METHODS[method][0](kind, b, options, warm)
    return {"method": method, "bc": kind.value, "b": b, **fields}, solution


# -- tables ------------------------------------------------------------------

def reproduce_tables(skip=()):
    """Re-run the comparison configurations in row order; returns per-kind
    dicts with the analytic caption value and annotated rows."""
    entries = {BcKind.NO_SLIP: [], BcKind.SLIP: []}
    for row in benchmarks.COMPARISON_ROWS:
        if any(s in row.method for s in skip):
            continue
        beta0, beta1 = benchmarks.SHOOTING_SEEDS.get((row.method, row.kind),
                                                     (None, None))
        # grid_points is 0 on a shooting row
        options = _options(row.method, beta0=beta0, beta1=beta1,
                           J=row.grid_points or None)
        report, _ = _solve(row.method, row.kind, 2.0, options)
        beta, iters = report["beta"], report["iterations"]
        entries[row.kind].append({
            "method": row.method, "boundary": row.boundary_label,
            "gridpoints": row.grid_points or "", "iterations": iters,
            "beta": beta, "beta_ref": row.beta,
            "iterations_ref": row.iterations,
            "pass": (abs(beta - row.beta) <= row.beta_tol
                     and abs(iters - row.iterations) <= row.iter_tol)})
    return {kind.value: {"caption_beta_approx": benchmarks.APPROX_BETA[kind],
                         "rows": rows}
            for kind, rows in entries.items()}


def _emit_tables(result, fmt, stream):
    if fmt == "json":
        return _emit_report(result, fmt, stream)
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


def sweep_b(b_values, method, kind, J=None, c=None):
    """Solve over b values in order and tabulate the gap to the closed-form
    approximation.  Each solve is warm-started from the last converged
    one: shooting from its beta, relaxation from its full iterate."""
    if method not in SWEEP_METHODS:
        raise ValueError(f"method {method} cannot be swept; choose one of "
                         f"{', '.join(SWEEP_METHODS)}")
    options = _options(method, J=J, c=c)
    if "beta0" in options:
        options["beta0"] = 1.0  # the Munk-limit beta starts shooting
    # approx_missing_init rejects a bad b before the first solve.
    approxes = [(b, approx_missing_init(kind, b)) for b in b_values]
    rows = []
    warm = None
    for b, approx in approxes:
        try:
            report, warm = _solve(method, kind, b, options, warm)
        except SOLVER_ERRORS as err:
            rows.append({"b": b, "beta_numeric": "", "beta_approx": approx,
                         "relative_gap": "", "status": "failed",
                         "error": f"{type(err).__name__}: {err}"})
            continue
        beta = report["beta"]
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
        writer.writerow([f"{xi:.10g}", *(f"{v:.10g}" for v in u)])
    if solution.infinity_state is not None:
        s = solution.infinity_state
        writer.writerow(["inf", *(f"{v:.10g}" for v in s)])


# -- argument plumbing -------------------------------------------------------

def _emit_report(report, fmt, stream):
    if fmt == "json":
        json.dump(report, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        flat = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
        csv.writer(stream).writerows([flat.keys(), flat.values()])
    else:
        for key, value in report.items():
            stream.write(f"{key}: {value}\n")


def _b_values(text):
    try:
        return [float(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")


def build_parser():
    """Each subcommand gets only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="oceanbvp",
        description="Solvers for the semi-infinite ocean circulation BVP")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one solver")
    tables = sub.add_parser("tables", help="reproduce the comparison tables")
    tables.add_argument("--skip", default="",
                        help="comma-separated method substrings to skip")
    sweep = sub.add_parser("sweep", help="sweep the nonlinearity parameter b")
    sweep.add_argument("--method", required=True, choices=SWEEP_METHODS)
    sweep.add_argument("--b-values", type=_b_values, default=(),
                       help="comma-separated list of b values")
    for name in ("J", "c"):
        sweep.add_argument(_flag(name), **OPTIONS[name])
    profile = sub.add_parser("profile", help="emit a solution profile as CSV")
    for p in (solve, profile):
        p.add_argument("--method", required=True, choices=list(METHODS))
        for name, kwargs in OPTIONS.items():
            p.add_argument(_flag(name), **kwargs)
        p.add_argument("--b", type=float, default=2.0)
    for p in (solve, sweep, profile):
        p.add_argument("--bc", choices=["no-slip", "slip"], default="no-slip")
    for p in (solve, tables):
        p.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
    for p in (solve, tables, sweep, profile):
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    buffer = io.StringIO()
    try:
        if args.command == "tables":
            skip = tuple(s for s in args.skip.split(",") if s)
            _emit_tables(reproduce_tables(skip=skip), args.format, buffer)
        elif args.command == "sweep":
            writer = csv.DictWriter(buffer, SWEEP_HEADER)
            writer.writeheader()
            writer.writerows(sweep_b(args.b_values, args.method,
                                     BcKind(args.bc), J=args.J, c=args.c))
        else:
            options = _options(args.method,
                               **{n: getattr(args, n) for n in OPTIONS})
            missing = [n for n, v in options.items() if v is None]
            if missing:
                raise ValueError(f"{_flag(missing[0])} is required for "
                                 f"method {args.method}")
            report, solution = _solve(args.method, BcKind(args.bc), args.b,
                                      options)
            if args.command == "solve":
                _emit_report(report, args.format, buffer)
            else:
                if isinstance(solution, ShootingResult):
                    solution = solution.trajectory
                emit_profiles(solution, buffer)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as err:
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
