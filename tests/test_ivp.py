import math

import numpy as np
import pytest

from oceanbvp import ivp, model
from oceanbvp.ivp import IvpOptions, Overflow, StepCountExceeded
from oceanbvp.model import BcKind, ModelParams


def decay(t, y):
    return [-v for v in y]


class TestStepBs23:
    def test_constant_rhs_zero(self):
        y = np.array([1.0, -2.0])
        y2, y3, _ = ivp.step_bs23(lambda t, u: np.zeros(2), 0.0, y, 0.5,
                                  np.zeros(2))
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(y3, y)

    def test_constant_rhs_one(self):
        y = np.array([0.25])
        y2, y3, _ = ivp.step_bs23(lambda t, u: np.ones(1), 0.0, y, 0.5,
                                  np.ones(1))
        np.testing.assert_array_equal(y2, [0.75])
        np.testing.assert_array_equal(y3, [0.75])

    def test_cubic_exactness_of_third_order_solution(self):
        # y' = t^2 from 0 with h = 1: the quadrature oracle gives 1/3 and
        # the pair integrates degree-2 polynomials exactly.
        y2, y3, _ = ivp.step_bs23(lambda t, u: np.array([t * t]),
                                  0.0, np.array([0.0]), 1.0, np.zeros(1))
        assert y3[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_fsal_slope_reuse_costs_three(self):
        calls = []

        def rhs(t, u):
            calls.append(t)
            return np.ones(1)

        _, _, k4 = ivp.step_bs23(rhs, 0.0, np.array([0.0]), 0.5,
                                 f_start=np.ones(1))
        assert calls == [0.25, 0.375, 0.5]
        np.testing.assert_array_equal(k4, [1.0])


class TestIntegrate:
    def test_scalar_exponential(self):
        opts = IvpOptions()
        y, stats = ivp.integrate(decay, 0.0, 1.0, np.array([1.0]), opts)
        tol = 10 * (opts.abs_tol + opts.rel_tol)
        assert abs(y[0] - math.exp(-1.0)) < tol
        assert stats.accepted_steps > 0

    def test_ocean_rhs_at_converged_beta(self):
        # errors in beta are amplified by the growing mode over [0, 10],
        # so even the six-figure root only pins u(10) to a few percent
        p = ModelParams(2.0)
        y0 = model.bc_initial(BcKind.NO_SLIP, 0.826111)
        y, _ = ivp.integrate(lambda t, u: model.rhs(t, u, p), 0.0, 10.0, y0)
        assert abs(y[0] - 1.0) < 0.1

    def test_stats_evaluation_identity(self):
        # FSAL: one start-up evaluation plus three per attempted step.
        y, stats = ivp.integrate(decay, 0.0, 1.0, np.array([1.0]))
        assert stats.rhs_evaluations == \
            3 * (stats.accepted_steps + stats.rejected_steps) + 1

    def test_determinism(self):
        runs = []
        for _ in range(2):
            y, stats = ivp.integrate(decay, 0.0, 1.0, np.array([1.0]))
            runs.append((y[0], stats.accepted_steps, stats.rejected_steps,
                         stats.rhs_evaluations))
        assert runs[0] == runs[1]

    def test_error_monotone_in_tolerance(self):
        errs = []
        for k in range(5):  # 4-decade sweep
            opts = IvpOptions(rel_tol=1e-2 * 10.0**-k,
                              abs_tol=1e-5 * 10.0**-k)
            y, _ = ivp.integrate(decay, 0.0, 1.0, np.array([1.0]), opts)
            errs.append(abs(y[0] - math.exp(-1.0)))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_step_count_exceeded(self, monkeypatch):
        monkeypatch.setattr(ivp, "MAX_STEPS", 5)
        with pytest.raises(StepCountExceeded) as err:
            ivp.integrate(decay, 0.0, 100.0, np.array([1.0]))
        assert err.value.max_steps == 5

    def test_overflow_guard(self):
        with pytest.raises(Overflow) as err:
            ivp.integrate(lambda t, y: y, 0.0, 50.0, np.array([1.0]))
        assert err.value.magnitude > ivp.OVERFLOW_LIMIT

    def test_rejects_backward_interval(self):
        with pytest.raises(ValueError):
            ivp.integrate(decay, 1.0, 0.0, np.array([1.0]))

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            IvpOptions(rel_tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        # A non-finite error norm would reject every step until the step
        # budget runs out; the call must fail before its first step.
        calls = []

        def rhs(t, y):
            calls.append(t)
            return decay(t, y)

        with pytest.raises(ValueError, match="initial state must be finite"):
            ivp.integrate(rhs, 0.0, 1.0, [1.0, bad, 0.0])
        assert calls == []


class TestFloatState:
    def test_no_slip_divergent_integration_counts(self):
        # The heaviest single root-finding integration of the secant run
        # from the no-slip seed beta = 2; its step sequence is pinned, and
        # at the bad beta the solution runs far from u = 1.
        rhs = ivp.ThirdOrder(2.0)
        y0 = model.bc_initial(BcKind.NO_SLIP, 2.0)
        y, stats = ivp.integrate(rhs, 0.0, 10.0, y0)
        assert (stats.accepted_steps, stats.rejected_steps,
                stats.rhs_evaluations) == (105_868, 17, 317_656)
        assert y.shape == (3,)
        assert abs(y[0] - 1.0) > 1.0
        # Its final state, bit for bit.
        assert [v.hex() for v in y.tolist()] == [
            "0x1.53caef00b1ca4p+17", "0x1.bc8140b39543ep+17",
            "0x1.225048283b136p+18"]

    def test_ndarray_state_and_rhs_match_tuples(self):
        # ndarray states with an ndarray-returning rhs take the same steps
        # to the same bits as tuples with a float rhs.
        p = ModelParams(2.0)
        y0 = model.bc_initial(BcKind.SLIP, 0.53)
        ya, sa = ivp.integrate(lambda t, u: model.rhs(t, u, p),
                               0.0, 10.0, y0)
        yb, sb = ivp.integrate(ivp.ThirdOrder(p.b), 0.0, 10.0,
                               tuple(y0.tolist()))
        np.testing.assert_array_equal(ya, yb)
        assert sa == sb
        steps = []
        for rhs, y in ((lambda t, u: model.rhs(t, u, p), y0),
                       (ivp.ThirdOrder(p.b), tuple(y0.tolist()))):
            steps.append(ivp.step_bs23(rhs, 0.0, y, 0.01, rhs(0.0, y)))
        for a, b in zip(*steps):
            np.testing.assert_array_equal(a, b)


def _numpy_step(rhs, t, y, h, k1):
    # Reference BS23 step on numpy arrays, same operations in the same order.
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.75 * h, y + (0.75 * h) * k2)
    y3 = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
    k4 = rhs(t + h, y3)
    y2 = y + h * ((7.0 / 24.0) * k1 + 0.25 * k2 + (1.0 / 3.0) * k3
                  + 0.125 * k4)
    return y2, y3, k4


class TestAgainstNumpyReference:
    @pytest.mark.parametrize("n", [3, 6])
    def test_step_is_bit_identical(self, n):
        p = ModelParams(2.0)
        fn = model.rhs_variational if n == 6 else model.rhs
        rng = np.random.default_rng(n)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, n)
            h = rng.uniform(1e-4, 0.5)
            k1 = np.array(fn(0.0, y, p))
            ref = _numpy_step(lambda t, u: np.array(fn(t, u, p)), 0.0, y, h,
                              k1)
            got = ivp.step_bs23(lambda t, u: fn(t, u, p), 0.0,
                                tuple(y.tolist()), h,
                                tuple(k1.tolist()))
            for r, g in zip(ref, got):
                np.testing.assert_array_equal(np.asarray(g), r)


class TestSamplePoints:
    def test_lands_on_every_point(self):
        t_eval = np.linspace(0.0, 1.0, 11)[1:]
        seen = []

        def rhs(t, y):
            seen.append(t)
            return [-v for v in y]

        y, stats = ivp.integrate(rhs, 0.0, 1.0, [1.0], t_eval=t_eval)
        assert y.shape == (10, 1)
        # every sample is a step end, so the final slope is taken there
        assert set(t_eval.tolist()) <= set(seen)
        np.testing.assert_allclose(y[:, 0], np.exp(-t_eval), rtol=1e-2)
        assert stats.rhs_evaluations == \
            3 * (stats.accepted_steps + stats.rejected_steps) + 1

    def test_last_sample_equals_plain_run_to_same_point(self):
        y, _ = ivp.integrate(decay, 0.0, 1.0, [1.0], t_eval=[1.0])
        y_end, _ = ivp.integrate(decay, 0.0, 1.0, [1.0])
        np.testing.assert_array_equal(y[-1], y_end)

    @pytest.mark.parametrize("t_eval", [
        [],                     # empty
        [0.5],                  # does not end at t_end
        [0.0, 1.0],             # t0 is not in (t0, t_end]
        [-0.5, 1.0],            # before t0
        [0.5, 0.5, 1.0],        # not strictly increasing
        [0.7, 0.3, 1.0],        # decreasing
        [0.5, 1.5],             # beyond t_end
        [float("nan"), 1.0],    # not a number
    ])
    def test_rejects_bad_points(self, t_eval):
        with pytest.raises(ValueError):
            ivp.integrate(decay, 0.0, 1.0, [1.0], t_eval=t_eval)


def _outcome(rhs, y0, opts=IvpOptions(), t_eval=None):
    # The end state and stats, or the exception with where it stopped.
    try:
        y, stats = ivp.integrate(rhs, 0.0, 10.0, y0, opts, t_eval=t_eval)
    except ivp.IntegrationError as err:
        return type(err), err.t, getattr(err, "magnitude", None), str(err)
    return y.shape, y.tobytes(), stats


def _generic(rhs):
    # A plain callable, so integrate takes the generic tuple step.
    return lambda t, y: rhs(t, y)


class TestThirdOrder:
    @pytest.mark.parametrize("b", [0.0, 2.0, 8.0, 50.0])
    @pytest.mark.parametrize("kind", list(BcKind))
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-9])
    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["end", "t_eval"])
    def test_fused_loop_equals_generic_path(self, b, kind, rel_tol,
                                            sampled):
        rhs = ivp.ThirdOrder(b)
        y0 = model.bc_initial(kind, model.approx_missing_init(kind, b))
        opts = IvpOptions(rel_tol=rel_tol, abs_tol=1e-3 * rel_tol)
        t_eval = np.linspace(0.0, 10.0, 41)[1:] if sampled else None
        got = _outcome(rhs, y0, opts, t_eval)
        assert got == _outcome(_generic(rhs), y0, opts, t_eval)
        assert len(got) == 3    # no exception on this path

    @pytest.mark.parametrize("b,beta,max_steps,error", [
        (2.0, 0.8, 1_000_000, Overflow),
        (2.0, 2.0, 1000, StepCountExceeded),
        (math.nan, 2.0, 1000, StepCountExceeded),
    ], ids=["overflow", "step-budget", "nan-slope"])
    def test_same_exception_at_same_point(self, b, beta, max_steps, error,
                                          monkeypatch):
        # b = 2, no-slip: below the root the profile overflows, far above
        # it the integration spends its step budget.  With a NaN b the
        # forcing is NaN at every stage, so every step is rejected.
        monkeypatch.setattr(ivp, "MAX_STEPS", max_steps)
        rhs = ivp.ThirdOrder(b)
        y0 = model.bc_initial(BcKind.NO_SLIP, beta)
        got = _outcome(rhs, y0)
        assert got[0] is error
        assert got == _outcome(_generic(rhs), y0)

    @pytest.mark.parametrize("b", [0.0, 2.0, 8.0])
    def test_call_equals_model_rhs(self, b):
        rhs = ivp.ThirdOrder(b)
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = rng.uniform(-3.0, 3.0, 3)
            np.testing.assert_array_equal(
                rhs(0.5, tuple(y.tolist())), model.rhs(0.5, y, ModelParams(b)))

    @pytest.mark.parametrize("n", [2, 4])
    def test_wrong_length_fails_before_first_step(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "forcing",
                            lambda *u: calls.append(u) or 0.0)
        with pytest.raises(ValueError):
            ivp.integrate(ivp.ThirdOrder(2.0), 0.0, 1.0, [1.0] * n)
        assert calls == []


class TestRhsLength:
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_wrong_length_fails_before_first_step(self, n, extra):
        # zip would truncate the state to the shorter of y and f.
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [0.0] * (n + extra)

        with pytest.raises(ValueError):
            ivp.integrate(rhs, 0.0, 1.0, [1.0] * n)
        # the start-up evaluation and at most the three of the first step
        assert len(calls) <= 4

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_tuple_step_rejects_wrong_length(self, extra):
        with pytest.raises(ValueError):
            ivp.step_bs23(lambda t, u: [0.0] * (4 + extra), 0.0,
                          (1.0, 2.0, 3.0, 4.0), 0.1, (0.0,) * 4)
