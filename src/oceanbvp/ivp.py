"""Adaptive Bogacki-Shampine 3(2) initial-value integrator.

Explicit embedded pair with the FSAL property: three fresh right-hand-side
evaluations per attempted step, plus one start-up evaluation.  The step is
controlled on the third-order solution with an RMS error norm, safety 0.9
and step-factor clamp [0.2, 5].  Accounting (accepted/rejected steps,
evaluations) is reported so shooting costs can be compared.

The states of shooting have three or six components, so the state is a
tuple of Python floats: on vectors this small, per-call numpy overhead
would cost several times the arithmetic.  The three-component system is
a scalar third-order ODE in companion form, ``ThirdOrder``, and runs in
one fused loop on scalar locals that calls only its third slope
component; every other rhs takes the tuple step ``step_bs23`` from the
FSAL slope, with stages as comprehensions.  Both do the same
floating-point operations in the same order, so they give the same bits.
"""

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

OVERFLOW_LIMIT = 1e12

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0


class IntegrationError(Exception):
    pass


class StepCountExceeded(IntegrationError):
    """Raised when the step budget is exhausted before reaching t_end."""

    def __init__(self, t, max_steps):
        super().__init__(f"step budget {max_steps} exhausted at t = {t:.6g}")
        self.t = t
        self.max_steps = max_steps


class Overflow(IntegrationError):
    """Raised when a state component exceeds OVERFLOW_LIMIT in magnitude.

    Signals divergence of a shooting trajectory before the floating-point
    range is actually exhausted.  ``beta`` is attached by the shooting
    layer when the offending initial condition is known.
    """

    def __init__(self, t, magnitude):
        super().__init__(f"state magnitude {magnitude:.3g} exceeds "
                         f"{OVERFLOW_LIMIT:.0e} at t = {t:.6g}")
        self.t = t
        self.magnitude = magnitude
        self.beta = None


@dataclass(frozen=True)
class IvpOptions:
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        # A NaN budget would never trip the step-count test.
        if not (isinstance(self.max_steps, numbers.Integral)
                and self.max_steps > 0):
            raise ValueError("max_steps must be a positive integer")


@dataclass
class IvpStats:
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0

    def add(self, other):
        self.accepted_steps += other.accepted_steps
        self.rejected_steps += other.rejected_steps
        self.rhs_evaluations += other.rhs_evaluations


@dataclass(frozen=True)
class ThirdOrder:
    """The companion form y' = (y2, y3, g(y1, y2, y3, p)) of a scalar
    third-order ODE.  Called as ``rhs(t, y)`` it is an ordinary
    right-hand side; ``integrate`` runs it in a loop of its own."""
    g: Callable
    p: float

    def __call__(self, t, y):
        y1, y2, y3 = y
        return (y2, y3, self.g(y1, y2, y3, self.p))


def step_bs23(rhs, t, y, h, f_start):
    """One embedded BS23 step of size h from (t, y), three evaluations.

    ``y`` is a sequence of floats, ``f_start`` the slope f(t, y) (FSAL:
    the previous step's final slope), and ``rhs(t, y)`` receives a tuple
    and returns a sequence of floats.  Returns (second-order solution,
    third-order solution, final slope) with both solutions as tuples.  The
    final slope is f at the third-order solution, the next step's
    ``f_start``.  A slope of another length than ``y`` is a ValueError.
    """
    k1 = f_start
    a = 0.5 * h
    k2 = rhs(t + a, tuple([v + a * d for v, d in zip(y, k1)]))
    a = 0.75 * h
    k3 = rhs(t + a, tuple([v + a * d for v, d in zip(y, k2)]))
    y3 = tuple([v + h * ((2.0 / 9.0) * d1 + (1.0 / 3.0) * d2
                         + (4.0 / 9.0) * d3)
                for v, d1, d2, d3 in zip(y, k1, k2, k3)])
    k4 = rhs(t + h, y3)
    # One strict zip checks the length of every slope.  The keyword takes
    # zip off its fast call path (about 0.4 us a call on CPython 3.11), so
    # the other zips stay plain.
    y2 = tuple([v + h * ((7.0 / 24.0) * d1 + 0.25 * d2 + (1.0 / 3.0) * d3
                         + 0.125 * d4)
                for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4, strict=True)])
    return y2, y3, k4


def _first_step(y0, f0, t_span, opts):
    # One-evaluation heuristic: balance the scaled RMS norms of y0 and
    # f(y0).
    d0 = d1 = 0.0
    for y, f in zip(y0, f0):
        scale = opts.abs_tol + opts.rel_tol * abs(y)
        q0 = y / scale
        q1 = f / scale
        d0 += q0 * q0
        d1 += q1 * q1
    d0 = math.sqrt(d0 / len(y0))
    d1 = math.sqrt(d1 / len(y0))
    if d0 < 1e-10 or d1 < 1e-10:
        h = 1e-3 * t_span
    else:
        h = 0.01 * d0 / d1
    return min(h, t_span)


def _sample_points(t_eval, t0, t_end):
    points = [float(s) for s in t_eval]
    if (not points or not points[0] > t0 or points[-1] != t_end
            or any(not b > a for a, b in zip(points, points[1:]))):
        raise ValueError("t_eval must increase strictly over (t0, t_end] "
                         "and end at t_end")
    return points


def integrate(rhs, t0, t_end, y0, opts=IvpOptions(), t_eval=None):
    """Integrate y' = rhs(t, y) from t0 to t_end; returns (y, stats).

    The state is carried as a tuple of floats; ``y0`` may be any sequence
    of numbers.  Without ``t_eval``, ``y`` is the (n,) array y(t_end).
    With ``t_eval`` (strictly increasing points in (t0, t_end] that end at
    t_end), ``y`` is the (len(t_eval), n) array of the solution at those
    points: a step that would pass the next point is shortened to land on
    it exactly, and the step size and FSAL slope carry on across points.

    Local error per step is held below abs_tol + rel_tol*|y| in the RMS
    norm; the third-order solution is propagated.  A non-finite ``y0``,
    ``t0`` or ``t_end`` is a ValueError: the error norm would reject every
    step, or the steps would never reach t_end.  So is an empty ``y0``,
    whose RMS norm would divide by zero, an ``rhs`` that returns another
    number of components than ``y0`` has, raised in the first step, and a
    ``ThirdOrder`` with a ``y0`` of another length than 3, raised before
    it.
    """
    if not -math.inf < t0 < t_end < math.inf:
        raise ValueError("t0 and t_end must be finite, t_end above t0")
    samples = [t_end] if t_eval is None else _sample_points(t_eval, t0,
                                                            t_end)
    rel_tol, abs_tol, max_steps = opts.rel_tol, opts.abs_tol, opts.max_steps
    t = t0
    y = tuple(map(float, y0))
    if not y:
        raise ValueError("initial state must not be empty")
    if not all(map(math.isfinite, y)):
        raise ValueError(f"initial state must be finite, got {y}")
    if isinstance(rhs, ThirdOrder):
        return _integrate_third_order(rhs, t, t_end, y, samples, opts,
                                      t_eval is None)
    f = rhs(t, y)
    nev = 1
    accepted = rejected = 0
    h = _first_step(y, f, t_end - t0, opts)
    out = []
    for t_next in samples:
        while t < t_next:
            if accepted + rejected >= max_steps:
                raise StepCountExceeded(t, max_steps)
            landing = h >= t_next - t
            if landing:
                h = t_next - t
            y2, y3, f3 = step_bs23(rhs, t, y, h, f)
            nev += 3
            # RMS norm of the error, each component scaled by abs_tol +
            # rel_tol * max(|y|, |y3|), and the magnitude max |y3|.
            acc = mag = 0.0
            for v, lo, hi in zip(y, y2, y3):
                a = abs(v)
                b = abs(hi)
                if b > mag:
                    mag = b
                q = (hi - lo) / (abs_tol + rel_tol * (a if a >= b else b))
                acc += q * q
            enorm = math.sqrt(acc / len(y))
            if enorm <= 1.0:
                t = t_next if landing else t + h
                y = y3
                f = f3
                accepted += 1
                if mag > OVERFLOW_LIMIT:
                    raise Overflow(t, mag)
            else:
                rejected += 1
            factor = _SAFETY * enorm ** (-1.0 / 3.0) if enorm > 0 else _FAC_MAX
            h *= min(_FAC_MAX, max(_FAC_MIN, factor))
        out.append(y)
    stats = IvpStats(accepted, rejected, nev)
    return np.array(out[-1] if t_eval is None else out), stats


def _integrate_third_order(rhs, t, t_end, y, samples, opts, end_only):
    """``integrate`` for a ThirdOrder: the loop above with ``step_bs23``
    and the error norm on scalar locals.  Slope components 1 and 2 are
    state components 2 and 3, so only g is called, and the stage and FSAL
    slopes need no tuples.  The operations and their order are those of
    the loop above, so the bits, the counts and the exceptions are the
    same."""
    y1, y2, y3 = y
    g, p = rhs.g, rhs.p
    rel_tol, abs_tol, max_steps = opts.rel_tol, opts.abs_tol, opts.max_steps
    sqrt, limit = math.sqrt, OVERFLOW_LIMIT
    f3 = g(y1, y2, y3, p)            # the slope at y is (y2, y3, f3)
    nev = 1
    accepted = rejected = 0
    h = _first_step(y, (y2, y3, f3), t_end - t, opts)
    out = []
    for t_next in samples:
        while t < t_next:
            if accepted + rejected >= max_steps:
                raise StepCountExceeded(t, max_steps)
            landing = h >= t_next - t
            if landing:
                h = t_next - t
            a = 0.5 * h
            k21 = y2 + a * y3
            k22 = y3 + a * f3
            k23 = g(y1 + a * y2, k21, k22, p)
            a = 0.75 * h
            k31 = y2 + a * k22
            k32 = y3 + a * k23
            k33 = g(y1 + a * k21, k31, k32, p)
            hi1 = y1 + h * ((2.0 / 9.0) * y2 + (1.0 / 3.0) * k21
                            + (4.0 / 9.0) * k31)
            hi2 = y2 + h * ((2.0 / 9.0) * y3 + (1.0 / 3.0) * k22
                            + (4.0 / 9.0) * k32)
            hi3 = y3 + h * ((2.0 / 9.0) * f3 + (1.0 / 3.0) * k23
                            + (4.0 / 9.0) * k33)
            k43 = g(hi1, hi2, hi3, p)
            nev += 3
            # The second-order solution, scaled error and RMS norm.
            a = abs(y1)
            b1 = abs(hi1)
            q1 = (hi1 - (y1 + h * ((7.0 / 24.0) * y2 + 0.25 * k21
                                   + (1.0 / 3.0) * k31 + 0.125 * hi2))) \
                / (abs_tol + rel_tol * (a if a >= b1 else b1))
            a = abs(y2)
            b2 = abs(hi2)
            q2 = (hi2 - (y2 + h * ((7.0 / 24.0) * y3 + 0.25 * k22
                                   + (1.0 / 3.0) * k32 + 0.125 * hi3))) \
                / (abs_tol + rel_tol * (a if a >= b2 else b2))
            a = abs(y3)
            b3 = abs(hi3)
            q3 = (hi3 - (y3 + h * ((7.0 / 24.0) * f3 + 0.25 * k23
                                   + (1.0 / 3.0) * k33 + 0.125 * k43))) \
                / (abs_tol + rel_tol * (a if a >= b3 else b3))
            enorm = sqrt((q1 * q1 + q2 * q2 + q3 * q3) / 3)
            if enorm <= 1.0:
                t = t_next if landing else t + h
                y1, y2, y3, f3 = hi1, hi2, hi3, k43
                accepted += 1
                # A NaN or inf fails the norm, so b1..b3 are finite here
                # and max is the magnitude of the loop above.
                if b1 > limit or b2 > limit or b3 > limit:
                    raise Overflow(t, max(b1, b2, b3))
            else:
                rejected += 1
            # min(_FAC_MAX, max(_FAC_MIN, factor)), NaN giving _FAC_MIN
            factor = _SAFETY * enorm ** (-1.0 / 3.0) if enorm > 0 else _FAC_MAX
            h *= (_FAC_MAX if factor >= _FAC_MAX else
                  factor if factor > _FAC_MIN else _FAC_MIN)
        out.append((y1, y2, y3))
    stats = IvpStats(accepted, rejected, nev)
    return np.array(out[-1] if end_only else out), stats
