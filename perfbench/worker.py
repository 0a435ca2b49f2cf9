"""One workload in its own process: import, build inputs, run timed passes,
check every result, and print one JSON line for run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

run.py starts it with src/ on PYTHONPATH and BLAS pinned to one thread.
Only the standard library is imported before the set-up clock starts.
Untraced times are reference times (see hostclock.py); traced times are
wall times.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostclock

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_trace"
PACKAGE_MODULES = ("oceanbvp", "oceanbvp.benchmarks", "oceanbvp.blocksolve",
                   "oceanbvp.cli")
SAMPLE_PERIOD_S = 0.02          # calibration loops while solving
SETUP_SAMPLE_PERIOD_S = 0.005   # calibration loops while importing


def _import_package():
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    pkg = sys.modules["oceanbvp"]
    src = (ROOT / "src").resolve()
    if src not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"oceanbvp imported from {pkg.__file__}, "
                         f"not from {src}")


def _untraced(workloads, wl, seconds, clock):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(wl, clock=clock))
    return passes


def _op_sums(workloads, wl, passes, pick):
    """``pick`` (median or min) of each operation's times over the
    passes: (their sum, the per-method sums)."""
    best = [pick(col) for col in zip(*(p.op_s for p in passes))]
    methods = {metric: (sum(t for op, t in zip(wl.ops, best)
                            if op.method == method), "s")
               for method, metric in workloads.METHOD_METRIC.items()}
    return sum(best), methods


def _traced(workloads, wl, args):
    import kernels
    import tracer as tracing

    start = time.perf_counter()
    metrics, block_err = kernels.measure(args.seed)
    errors = []
    if not block_err < 1e-10:
        errors.append(f"solve_bordered_block differs from the dense solve "
                      f"by {block_err:.3g}")

    # A traced run needs one pair of passes; further pairs start only if
    # they should end inside --seconds, so that traced runs stay short.
    plain, traced, tracers = [], [], []
    pair_s = 0.0
    while not plain or time.perf_counter() - start + pair_s < args.seconds:
        t_pair = time.perf_counter()
        plain.append(workloads.run_pass(wl))
        tr = tracing.Tracer()

        def on_op(i, tr=tr):
            tr.current_op = i

        with tr:
            traced.append(workloads.run_pass(wl, on_op))
        tracers.append(tr)
        pair_s = time.perf_counter() - t_pair

    counts = [dict(tr.counts) for tr in tracers]
    if any(c != counts[0] for c in counts):
        errors.append(f"work counts differ between traced passes: {counts}")
    tr = tracers[min(range(len(traced)), key=lambda i: traced[i].wall_s)]
    summary = tr.summary()

    def span(name, field="s"):
        return summary.get(name, {}).get(field, 0)

    for layer, self_s in tr.layer_self_times(summary).items():
        metrics[f"self.{layer}.s"] = (self_s, "s")
    for name in ("free_boundary.jacobian", "free_boundary.residual",
                 "quasi_uniform.build_system", "quasi_uniform.jacobian",
                 "quasi_uniform.residual", "ivp.integrate", "cli.sweep_b"):
        metrics[f"{name}.s"] = (span(name), "s")
    metrics["blocksolve.solve.s"] = (span("blocksolve.solve_bordered_block"),
                                     "s")
    metrics["shooting.dense.s"] = (span("ivp.integrate.dense"), "s")
    metrics["blocksolve.newton_iterations"] = (
        span("blocksolve.solve_bordered_block", "calls"), "count")
    metrics["model.rhs_jacobian.calls"] = (span("model.rhs_jacobian", "calls"),
                                           "count")
    for name in ("ivp.rhs_evaluations", "ivp.accepted_steps",
                 "ivp.rejected_steps", "shooting.iterations",
                 "shooting.dense.integrate_calls"):
        metrics[name] = (tr.counts.get(name, 0), "count")
    metrics["trace.spans"] = (len(tr.start), "count")
    # Wall times, each operation at its fastest: host interference only
    # ever adds time, and a traced run has too few passes for a median.
    plain_s, methods = _op_sums(workloads, wl, plain, min)
    traced_s, _ = _op_sums(workloads, wl, traced, min)
    metrics["trace.untraced_wall_s"] = (plain_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics.update(methods)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{wl.name}-seed{args.seed}.jsonl.gz"
    tr.write(path, {"workload": wl.name, "seed": args.seed,
                    "ops": [op.label for op in wl.ops], "summary": summary})
    return plain + traced, metrics, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with hostclock.HostClock(hostclock.python_loop,
                             hostclock.PYTHON_REFERENCE_S,
                             SETUP_SAMPLE_PERIOD_S) as clock:
        mark = clock.mark()
        _import_package()
        import workloads
        wl = workloads.build(args.workload, args.seed)
        setup_wall_s, setup_s = clock.since(mark)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    if args.trace:
        workloads.warm_up()
        passes, metrics, errors = _traced(workloads, wl, args)
    else:
        with hostclock.HostClock(hostclock.mixed_loop,
                                 hostclock.MIXED_REFERENCE_S,
                                 SAMPLE_PERIOD_S) as clock:
            workloads.warm_up()
            passes = _untraced(workloads, wl, args.seconds, clock)
        wall_s, metrics = _op_sums(workloads, wl, passes, statistics.median)
        metrics["wall_s"] = (wall_s, "s")
        metrics["host.loop_ms"] = (1e3 * statistics.median(clock.samples),
                                   "ms")
        metrics["median_pass_s"] = (statistics.median(p.wall_s for p in passes),
                                    "s")
        errors = []
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (rss_kib / 1024.0, "MiB")
    metrics["passes"] = (len(passes), "count")

    for p in passes:
        errors += p.errors
    failures = sorted({f for p in passes for f in p.failures})
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": sorted(set(errors)),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
