"""oceanbvp benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload relax-tables|shoot-tables|sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  The
workload runs in its own single-threaded process (perfbench/worker.py).
Set-up time is the median of SETUP_PROBES fresh processes that import the
package and build the workload's inputs.  End-to-end times are reference
times, scaled to a fixed host speed (see hostclock.py).  Every metric is printed with its
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, holding the end_to_end metrics of
BENCHMARK.json with --trace 0 and its per_layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("relax-tables", "shoot-tables", "sweep")
SETUP_PROBES = 9
DEADLINE_S = 170.0          # the whole run, set-up probes included


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args, timeout):
    """Run worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker timed out after {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "oceanbvp" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'oceanbvp'}")
    end_to_end, per_layer = _declared_metrics()
    start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_run_worker(common + ["--setup-only"],
                          DEADLINE_S - (time.monotonic() - start))
              for _ in range(SETUP_PROBES)]
    res = _run_worker(common + ["--seconds", str(seconds),
                                "--trace", str(trace)],
                      DEADLINE_S - (time.monotonic() - start))
    metrics = res["metrics"]
    for key in ("setup_s", "setup_wall_s"):
        metrics[key] = {"value": statistics.median(p[key] for p in setups),
                        "unit": "s"}

    print(f"# workload {workload}  seed {seed}  seconds {seconds}  "
          f"trace {trace}")
    print(f"{'attempted':36s} {res['attempted']}")
    print(f"{'failed':36s} {res['failed']}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:36s} {m['value']:<14.6g} {m['unit']}")
    for err in res["errors"]:
        print(f"check failed: {err}")

    wanted = per_layer if trace else end_to_end
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: metrics[n] for n in wanted},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description="oceanbvp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
