"""Operation times scaled to a reference host speed.

The benchmark runs on a shared host whose speed moves by up to a factor
of two within seconds and drifts for minutes, in CPU time as much as in
wall time.  A wall-clock time alone then measures the host as much as the
program.  HostClock measures the host alongside the program: a SIGALRM
handler runs a fixed calibration loop every ``period_s`` while the
workload runs and records how long each loop took.  An operation's
*reference time* is its wall time, without the time spent in the handler,
multiplied by ``reference_s`` over the mean loop time seen during the
operation: what the operation would take on a host that runs the loop in
exactly ``reference_s``.  The loop does not touch the package, so a change
to the program moves reference times as much as wall times.

Two loops are defined: ``mixed_loop``, interpreter bytecode plus small
numpy calls (the mix the solvers run), and ``python_loop``, for timing
the import of numpy itself.
"""

import signal
import time

MIN_SAMPLES = 4         # loops averaged for an operation that saw fewer
PY_ITERS = 3000
NP_ITERS = 60
PY_ONLY_ITERS = 8000

# Nominal loop times that define the reference speed; about the median
# loop time on the 2-vCPU host the benchmark was built on.
MIXED_REFERENCE_S = 1.0e-3
PYTHON_REFERENCE_S = 0.5e-3

_matrix = None


def _python(iters):
    s = 0
    for i in range(iters):
        s += (i * i) % 7
    return s


def python_loop():
    return _python(PY_ONLY_ITERS)


def mixed_loop():
    global _matrix
    import numpy as np
    if _matrix is None:
        _matrix = np.arange(16.0).reshape(4, 4) + 20.0 * np.eye(4)
    _python(PY_ITERS)
    v = np.ones(4)
    for _ in range(NP_ITERS):
        v = np.linalg.solve(_matrix, _matrix @ v + 1.0) * 0.5
    return v


class HostClock:
    """Context manager that samples the host speed while it is open."""

    def __init__(self, loop, reference_s, period_s):
        self.loop = loop
        self.reference_s = reference_s
        self.period_s = period_s
        self.samples = []       # seconds per calibration loop
        self.paused_s = 0.0     # total time spent in the handler
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        self.loop()             # first call does any lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """The clock's state now, read with the handler held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), len(self.samples), self.paused_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def since(self, mark):
        """(wall s, reference s) since ``mark``, handler time excluded.

        The loops run during the interval set the speed; an interval that
        saw fewer than MIN_SAMPLES also uses the loops just before it.
        """
        t0, k0, paused0 = mark
        t1, k1, paused1 = self.mark()
        wall = t1 - t0 - (paused1 - paused0)
        window = self.samples[max(0, min(k0, k1 - MIN_SAMPLES)):k1]
        if not window:
            raise RuntimeError("no calibration loop has run yet")
        return wall, wall * self.reference_s * len(window) / sum(window)
