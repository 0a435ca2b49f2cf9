import numpy as np
import pytest

from oceanbvp import ivp, model, shooting
from oceanbvp.benchmarks import SHOOTING_SEEDS
from oceanbvp.model import BcKind, ModelParams
from oceanbvp.shooting import ShootingProblem, _converged
from oracles import shoot_residual

B0 = ModelParams(0.0)
B2 = ModelParams(2.0)

TIGHT = ivp.IvpOptions(rel_tol=1e-9, abs_tol=1e-11)


class TestShootResidual:
    # F' is of order 1e3 at the root (growing mode over [0, 10]), so the
    # residual at a six-figure beta is O(0.1); the robust check is that F
    # changes sign across a tight bracket around the quoted value.

    def test_sign_change_near_quoted_beta_no_slip(self):
        prob = ShootingProblem(params=B2, kind=BcKind.NO_SLIP)
        assert shoot_residual(0.8251, prob) < 0
        assert shoot_residual(0.8271, prob) > 0

    def test_sign_change_near_quoted_beta_slip(self):
        prob = ShootingProblem(params=B2, kind=BcKind.SLIP)
        assert shoot_residual(0.5279, prob) < 0
        assert shoot_residual(0.5299, prob) > 0

    def test_munk_limit_root_near_one(self):
        prob = ShootingProblem(params=B0, kind=BcKind.NO_SLIP)
        assert shoot_residual(0.999, prob) < 0
        assert shoot_residual(1.001, prob) > 0


class TestSecant:
    def test_no_slip_b2(self, secant_b2):
        res = secant_b2[BcKind.NO_SLIP]
        assert res.beta == pytest.approx(0.826111, abs=5e-4)
        assert abs(res.iterations - 12) <= 2

    def test_slip_b2(self, secant_b2):
        res = secant_b2[BcKind.SLIP]
        assert res.beta == pytest.approx(0.528885, abs=5e-4)
        assert abs(res.iterations - 13) <= 2

    def test_munk_oracle(self):
        prob = ShootingProblem(params=B0, kind=BcKind.NO_SLIP)
        res = shooting.solve_secant(0.9, 1.1, prob)
        assert res.beta == pytest.approx(1.0, abs=1e-4)

    def test_equal_seeds_rejected(self):
        prob = ShootingProblem(params=B2)
        with pytest.raises(ValueError):
            shooting.solve_secant(1.0, 1.0, prob)

    def test_trajectory_is_uniformly_sampled(self, secant_b2):
        traj = secant_b2[BcKind.NO_SLIP].trajectory
        assert len(traj.xi) == shooting.DENSE_SAMPLES
        np.testing.assert_allclose(np.diff(traj.xi),
                                   traj.xi[1] - traj.xi[0])
        # beta from the default-tolerance solve carries an O(1e-4) bias
        # that the growing mode amplifies towards xi_infinity, so the far
        # end is only pinned loosely here
        assert traj.u[:, 0].max() > 0.95
        assert traj.u[-1, 0] == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_one_pass_trajectory_matches_restarted_runs(self, newton_b2,
                                                         kind):
        # Reference: one integration per sample interval, restarted from
        # the previous sample, as the profile was first computed.
        traj = newton_b2[kind].trajectory
        prob = ShootingProblem(params=B2, kind=kind)
        rhs = shooting._rhs3(prob)
        ref = [model.bc_initial(kind, traj.beta)]
        for t0, t1 in zip(traj.xi, traj.xi[1:]):
            y, _ = ivp.integrate(rhs, t0, t1, ref[-1], shooting._DENSE_OPTS)
            ref.append(y)
        np.testing.assert_allclose(traj.u, ref, rtol=0, atol=1e-8)

    def test_tight_tolerance_trajectory_reaches_far_field(self):
        # at b = 2 the accurate profile rises monotonically to the
        # far-field value without overshooting it
        prob = ShootingProblem(params=B2, kind=BcKind.NO_SLIP,
                               ivp_opts=TIGHT)
        res = shooting.solve_newton(0.826, prob)
        u1 = res.trajectory.u[:, 0]
        assert np.all(np.diff(u1) > 0)
        assert u1.max() <= 1.0 + 1e-6
        assert u1[-1] == pytest.approx(1.0, abs=1e-4)


class TestLazyTrajectory:
    @pytest.mark.parametrize("solve", [
        lambda prob: shooting.solve_newton(0.9, prob),
        lambda prob: shooting.solve_secant(0.9, 1.1, prob),
    ], ids=["newton", "secant"])
    def test_profile_is_integrated_once_on_first_read(self,
                                                      dense_integrations,
                                                      solve):
        prob = ShootingProblem(params=B0, kind=BcKind.SLIP)
        res = solve(prob)
        assert dense_integrations == []
        traj = res.trajectory
        assert len(dense_integrations) == 1
        assert res.trajectory is traj
        assert len(dense_integrations) == 1
        ref = shooting._dense_trajectory(res.beta, prob)
        assert np.array_equal(traj.xi, ref.xi)
        assert np.array_equal(traj.u, ref.u)


class TestNewton:
    def test_no_slip_b2(self, newton_b2):
        res = newton_b2[BcKind.NO_SLIP]
        assert res.beta == pytest.approx(0.826111, abs=5e-4)
        assert abs(res.iterations - 7) <= 2

    def test_slip_b2(self, newton_b2):
        res = newton_b2[BcKind.SLIP]
        assert res.beta == pytest.approx(0.528910, abs=5e-4)
        assert abs(res.iterations - 8) <= 2

    def test_munk_oracle(self):
        prob = ShootingProblem(params=B0, kind=BcKind.SLIP)
        res = shooting.solve_newton(0.9, prob)
        assert res.beta == pytest.approx(1.0, abs=1e-4)

    def test_agrees_with_secant(self, secant_b2, newton_b2):
        for kind in BcKind:
            assert abs(secant_b2[kind].beta - newton_b2[kind].beta) < 5e-5

    def test_divergence_outside_basin(self):
        # Below the basin the trajectory blows up towards -infinity; the
        # solver must fail loudly instead of reporting a spurious root.
        prob = ShootingProblem(params=B2, kind=BcKind.NO_SLIP,
                               ivp_opts=ivp.IvpOptions(max_steps=300_000))
        with pytest.raises((ivp.Overflow, ivp.StepCountExceeded,
                            shooting.MaxIterations)) as err:
            shooting.solve_newton(0.8, prob)
        if isinstance(err.value, ivp.Overflow):
            assert err.value.beta is not None


class TestTypedFailures:
    def test_equal_residuals_are_a_degenerate_secant(self):
        # u1(0.01) is about beta * 5e-5, so seeds 1e-12 apart give
        # residuals about 5e-17 apart, below the 1e-14 floor
        with pytest.raises(shooting.DegenerateSecant):
            shooting.solve_secant(1.0, 1.0 + 1e-12,
                                  ShootingProblem(xi_infinity=0.01))

    def test_vanishing_derivative_is_singular(self):
        # F'(beta) = u4(xi_infinity) is about xi_infinity^2 / 2 = 5e-17
        with pytest.raises(shooting.SingularDerivative, match="5e-17"):
            shooting.solve_newton(1.0, ShootingProblem(xi_infinity=1e-8))

    def test_unreachable_tolerance_hits_the_cap(self):
        with pytest.raises(shooting.MaxIterations,
                           match=f"newton did not converge in "
                                 f"{shooting.MAX_ITERATIONS} iterations"):
            shooting.solve_newton(0.9, ShootingProblem(tol=1e-300))


@pytest.fixture
def initial_states(monkeypatch):
    """A list that gains the initial state of every ``ivp.integrate``
    call."""
    states = []
    integrate = ivp.integrate

    def spy(rhs, t0, t_end, y0, *args, **kwargs):
        states.append(np.array(y0))
        return integrate(rhs, t0, t_end, y0, *args, **kwargs)

    monkeypatch.setattr(ivp, "integrate", spy)
    return states


class TestWorkAccounting:
    # Each seed and each iteration is one integration to xi_infinity;
    # the seeds are not counted as iterations.
    def test_newton_integrates_seed_and_iterates(self, initial_states):
        beta0, _ = SHOOTING_SEEDS[("shoot-newton", BcKind.NO_SLIP)]
        res = shooting.solve_newton(beta0, ShootingProblem(params=B2))
        assert len(initial_states) == res.iterations + 1 == 8

    def test_secant_integrates_seeds_and_iterates(self, initial_states):
        beta0, beta1 = SHOOTING_SEEDS[("shoot-secant", BcKind.NO_SLIP)]
        res = shooting.solve_secant(beta0, beta1, ShootingProblem(params=B2))
        assert len(initial_states) == res.iterations + 2 == 13

    def test_cap_reports_the_last_evaluated_beta(self, initial_states):
        with pytest.raises(shooting.MaxIterations) as err:
            shooting.solve_newton(0.9, ShootingProblem(tol=1e-300))
        assert len(initial_states) == shooting.MAX_ITERATIONS + 1
        slot = model.missing_slot(BcKind.NO_SLIP)
        assert err.value.beta == initial_states[-1][slot]

    def test_secant_overflow_names_its_seed(self):
        with pytest.raises(ivp.Overflow) as err:
            shooting.solve_secant(0.8, 0.81, ShootingProblem())
        assert err.value.beta == 0.8


class TestPublishedWorkCounts:
    # Exact iterations and IvpStats of the four published shooting rows,
    # from their published seeds at the default tolerances.  A faster
    # kernel must take the same steps, so these must not move.
    @pytest.mark.parametrize("kind,counts", [
        (BcKind.NO_SLIP, (11, 109_087, 178, 327_808)),
        (BcKind.SLIP, (12, 28_355, 199, 85_676)),
    ])
    def test_secant(self, secant_b2, kind, counts):
        res = secant_b2[kind]
        st = res.stats
        assert (res.iterations, st.accepted_steps, st.rejected_steps,
                st.rhs_evaluations) == counts

    @pytest.mark.parametrize("kind,counts", [
        (BcKind.NO_SLIP, (7, 1_473, 70, 4_637)),
        (BcKind.SLIP, (8, 6_244, 95, 19_026)),
    ])
    def test_newton(self, newton_b2, kind, counts):
        res = newton_b2[kind]
        st = res.stats
        assert (res.iterations, st.accepted_steps, st.rejected_steps,
                st.rhs_evaluations) == counts


class TestDerivative:
    @pytest.mark.parametrize("kind,lo,hi", [
        (BcKind.NO_SLIP, 0.82, 0.90),
        (BcKind.SLIP, 0.527, 0.58),
    ])
    def test_variational_matches_finite_differences(self, kind, lo, hi):
        # F' from the six-equation system against central differences of
        # the plain residual, at 10 beta values inside the basin.  Tight
        # integration tolerances keep the difference quotient smooth.
        prob = ShootingProblem(params=B2, kind=kind, ivp_opts=TIGHT)
        delta = 1e-5
        for beta in np.linspace(lo, hi, 10):
            y0 = np.concatenate([model.bc_initial(kind, beta),
                                 model.sensitivity_initial(kind)])
            y, _ = ivp.integrate(
                lambda t, u: model.rhs_variational(t, u, B2),
                0.0, prob.xi_infinity, y0, TIGHT)
            dF = y[3]
            fd = (shoot_residual(beta + delta, prob)
                  - shoot_residual(beta - delta, prob)) / (2 * delta)
            assert abs(dF - fd) / abs(fd) < 1e-3


class TestTermination:
    def test_requires_both_criteria(self):
        tol = 1e-6
        # small update, large residual
        assert not _converged(1.0, 1.0 + 1e-9, 0.5, tol)
        # large update, small residual
        assert not _converged(1.0, 1.5, 1e-9, tol)
        assert _converged(1.0, 1.0 + 1e-9, 1e-9, tol)

    def test_beta_zero_uses_absolute_update(self):
        tol = 1e-6
        assert _converged(0.0, 1e-9, 1e-9, tol)
        assert _converged(0.0, -1e-9, 1e-9, tol)
        assert not _converged(0.0, 0.5, 1e-9, tol)
        assert not _converged(0.0, 1e-9, 0.5, tol)

    def test_residual_criterion_enforced_behaviorally(self):
        # Seeds straddling the root so tightly that the first update is
        # already below the relative tolerance: the loop must still keep
        # iterating until |F| is small too, not stop at one iteration
        # with a large residual.
        prob = ShootingProblem(params=B2, kind=BcKind.NO_SLIP)
        res = shooting.solve_secant(0.826, 0.8262, prob)
        assert abs(res.residual) < prob.tol
