"""Span tracer that wraps oceanbvp's public layer entry points from outside.

The tracer patches module attributes (``oceanbvp.model.rhs`` and so on) with
wrappers that record one span per call: its name, the span that caused it,
the solve it belongs to, and its start and end.  The package resolves these
names through module attributes at call time, so the wrappers see every
call between layers without a line of the package changing.  Spans are kept
in flat arrays in memory and written out once, after the traced pass.

The ``residual`` and ``jacobian`` callables of each ``BlockSystem`` are
closures, not module attributes; they are wrapped on their way into
``blocksolve.newton_solve`` and named after the module that built them.
"""

import dataclasses
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

from oceanbvp import blocksolve, cli, free_boundary, ivp, model, \
    quasi_uniform, shooting

LAYERS = ("model", "ivp", "shooting", "blocksolve", "free_boundary",
          "quasi_uniform", "cli")

# (module, attribute) pairs patched by Tracer.install; span name is
# "<module>.<attribute>".
_PATCHED = [
    (model, "rhs"), (model, "rhs_variational"), (model, "rhs_jacobian"),
    (ivp, "step_bs23"),
    (blocksolve, "solve_bordered_block"),
    (free_boundary, "build_system"), (free_boundary, "solve_fbf"),
    (quasi_uniform, "build_system"), (quasi_uniform, "solve_qug"),
    (shooting, "solve_secant"), (shooting, "solve_newton"),
    (cli, "sweep_b"),
]

# Root-finding integrations run at the problem's tolerance (the IvpOptions
# default in every workload); the dense trajectory re-integrates far
# tighter.  That is the only outside-visible difference between the two.
_ROOT_FINDING_REL_TOL = ivp.IvpOptions().rel_tol


class Tracer:
    """In-memory span recorder; ``install()`` patches, ``uninstall()``
    restores the original attributes."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.current_op = -1
        self.counts = Counter()
        self._saved = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``;
        ``on_result(result)`` may update the counters."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _integrate_wrappers(self, fn):
        root = self.span("ivp.integrate", fn, self._count_ivp)
        dense = self.span("ivp.integrate.dense", fn, self._count_dense)

        def integrate(rhs, t0, t_end, y0, *rest, **kwargs):
            opts = rest[0] if rest else kwargs.get("opts", ivp.IvpOptions())
            chosen = dense if opts.rel_tol < _ROOT_FINDING_REL_TOL else root
            return chosen(rhs, t0, t_end, y0, *rest, **kwargs)

        return integrate

    def _count_ivp(self, result):
        stats = result[1]
        self.counts["ivp.rhs_evaluations"] += stats.rhs_evaluations
        self.counts["ivp.accepted_steps"] += stats.accepted_steps
        self.counts["ivp.rejected_steps"] += stats.rejected_steps

    def _count_dense(self, result):
        self._count_ivp(result)
        self.counts["shooting.dense.integrate_calls"] += 1

    def _count_shooting(self, result):
        self.counts["shooting.iterations"] += result.iterations

    def _newton_wrapper(self, fn):
        traced = self.span("blocksolve.newton_solve", fn)

        def newton_solve(sys, *args, **kwargs):
            layer = sys.residual.__module__.rsplit(".", 1)[-1]
            sys = dataclasses.replace(
                sys,
                residual=self.span(f"{layer}.residual", sys.residual),
                jacobian=self.span(f"{layer}.jacobian", sys.jacobian))
            return traced(sys, *args, **kwargs)

        return newton_solve

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        on_result = {"solve_secant": self._count_shooting,
                     "solve_newton": self._count_shooting}
        for module, attr in _PATCHED:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, on_result.get(attr)))
        self._saved.append((ivp, "integrate", ivp.integrate))
        ivp.integrate = self._integrate_wrappers(ivp.integrate)
        self._saved.append((blocksolve, "newton_solve",
                            blocksolve.newton_solve))
        blocksolve.newton_solve = self._newton_wrapper(blocksolve.newton_solve)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part its child spans
        cover.  No traced function calls itself, so inclusive sums do not
        double count.
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
        return dict(out)

    def layer_self_times(self, summary):
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, entry in summary.items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return totals

    def write(self, path, meta):
        """Write every span as one JSON line, gzip-compressed, after a
        header line; each span is [name id, parent span, op, start, end]
        with parent and op indexing spans and operations of this file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, **meta}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.parent[i]},{self.op[i]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}]\n")
