import csv
import re
import threading
from dataclasses import asdict

import numpy as np
import pytest

from steadygain import (
    DivergenceError,
    EvalConfig,
    LinearGaussianModel,
    detect_critical_time,
    evaluate_gains,
    gain_metrics,
    losses,
    run_trajectories,
    spectral_radius,
)
from steadygain import cli, evaluation
from steadygain.error_mdp import (VEHICLE_INITIAL_ERROR, _closed_loop,
                                  cov_factor, diverged_runs, draw_noise, step)
from steadygain.evaluation import _rollout, write_eval_csv

from conftest import random_system

# Reference gain table for the vehicle experiment: steady-state gain,
# learned-gain difference row, and accuracy row (percent).
TABLE_KINF = np.array([[-5.31e-4, -2.31e-3], [3.25e-5, 5.07e-2]])
TABLE_DIFF = np.array([[-2.50e-7, 1.54e-4], [1.32e-7, 4.66e-4]])
TABLE_ERR_PCT = np.array([[-5e-4, 3.03e-1], [3e-4, 9.17e-1]])


def quiet_model(a=None, r_scale=1e-30):
    """Bicycle-shaped plant with zero process noise and negligible
    measurement noise, for deterministic trajectory checks."""
    base_a = a if a is not None else np.array([[0.9, 0.05], [-0.1, 0.8]])
    return LinearGaussianModel(
        A=base_a, B=np.array([[0.4], [0.1]]), C=np.array([[1.0, 0.3],
                                                          [0.0, 1.0]]),
        D=np.array([[0.2], [0.0]]), E=np.eye(2), Q=np.zeros((2, 2)),
        R=r_scale * np.eye(2), dt=0.01)


class TestRunTrajectory:
    """Single trajectories: ``run_trajectories`` with ``n_traj=1``."""

    def test_bit_identical_given_seed(self, bicycle, bicycle_dare):
        cfg = EvalConfig(n_traj=1, t_test=100, t_critical=50, seed=77)
        a = run_trajectories(bicycle, bicycle_dare.gain, cfg)
        b = run_trajectories(bicycle, bicycle_dare.gain, cfg)
        assert a.shape == (1, cfg.t_test)
        np.testing.assert_array_equal(a, b)

    def test_zero_error_stays_zero_without_noise(self, monkeypatch):
        model = quiet_model(r_scale=1e-300)
        cfg = EvalConfig(n_traj=1, t_test=200, t_critical=50, seed=3)
        gain = np.array([[0.1, 0.0], [0.0, 0.1]])
        monkeypatch.setattr(evaluation, "sample_initial_error",
                            lambda model, rng, size: np.zeros((size, 2)))
        se = run_trajectories(model, gain, cfg)
        assert np.all(se < 1e-250)

    def test_open_loop_follows_matrix_powers(self):
        # Oracle: closed-form propagation e_t = A^t e_0 with zero gain.
        model = quiet_model(r_scale=1e-300)
        cfg = EvalConfig(n_traj=1, t_test=80, t_critical=50, seed=11)
        se = run_trajectories(model, np.zeros((2, 2)), cfg)
        # replicate the seeded draw from the vehicle's box to know e0
        e0 = (np.random.default_rng(11).uniform(-1, 1, (1, 2))
              * np.asarray(VEHICLE_INITIAL_ERROR))
        expected = []
        e = e0[0]
        for _ in range(cfg.t_test):
            e = model.A @ e
            expected.append(e @ e)
        np.testing.assert_allclose(se[0], expected, rtol=1e-9)

    def test_steady_loss_matches_filtered_covariance_trace(self, bicycle,
                                                           bicycle_dare):
        # Monte Carlo route vs the Riccati fixed point.
        cfg = EvalConfig(n_traj=1000, t_test=1000, t_critical=195, seed=1)
        se = run_trajectories(bicycle, bicycle_dare.gain, cfg)
        report = losses(se.mean(axis=0), cfg.t_critical)
        trace = np.trace(
            (np.eye(2) - bicycle_dare.gain @ bicycle.C) @ bicycle_dare.sigma)
        assert abs(report.loss_ss - trace) / trace < 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_refused_before_noise(self, bicycle,
                                                  bicycle_dare, monkeypatch,
                                                  bad):
        # A non-finite gain is bad input, not a divergence at step 1.
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the gain was checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gain = bicycle_dare.gain.copy()
        gain[1, 0] = bad
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError,
                           match="^gain contains non-finite entries$"):
            run_trajectories(bicycle, gain, cfg)


class TestLosses:
    def test_constant_error(self):
        se = np.full((3, 10), 2.5)
        report = losses(se.mean(axis=0), t_critical=4)
        assert report.loss_tran == pytest.approx(2.5)
        assert report.loss_ss == pytest.approx(2.5)
        assert report.loss_full == pytest.approx(2.5)

    def test_hand_worked_split(self):
        se = np.array([[1.0, 3.0, 5.0, 7.0]])
        report = losses(se.mean(axis=0), t_critical=2)
        assert report.loss_tran == pytest.approx(2.0)
        assert report.loss_ss == pytest.approx(6.0)
        assert report.loss_full == pytest.approx(4.0)

    def test_weighted_average_identity(self):
        rng = np.random.default_rng(21)
        se = rng.uniform(0, 1, (50, 300))
        t_crit = 120
        report = losses(se.mean(axis=0), t_crit)
        lhs = t_crit * report.loss_tran + (300 - t_crit) * report.loss_ss
        rhs = 300 * report.loss_full
        assert abs(lhs - rhs) / rhs < 1e-12

    def test_curve_is_log10_of_mean(self):
        se = np.array([[1.0, 10.0], [1.0, 10.0]])
        report = losses(se.mean(axis=0), t_critical=1)
        np.testing.assert_allclose(report.logmse_curve, [0.0, 1.0])

    def test_critical_time_validated(self):
        with pytest.raises(ValueError):
            losses(np.ones((2, 10)).mean(axis=0), t_critical=10)
        with pytest.raises(ValueError):
            losses(np.ones((2, 10)).mean(axis=0), t_critical=0)
        with pytest.raises(ValueError):
            losses(np.zeros(0), t_critical=5)
        with pytest.raises(ValueError):
            losses(np.ones((2, 10)), t_critical=4)


class TestDetectCriticalTime:
    def test_flat_curve_triggers_first_window(self):
        assert detect_critical_time(np.full(300, -5.0)) == 50

    def test_steep_ramp_falls_back(self):
        curve = -0.01 * np.arange(400)
        assert detect_critical_time(curve) == 195

    def test_vehicle_transient(self, bicycle, bicycle_dare):
        # The slope rule lands near step 124 for this plant (the curve is
        # flat well before the configured default of 195).
        cfg = EvalConfig(n_traj=2000, t_test=600, t_critical=195, seed=42)
        se = run_trajectories(bicycle, bicycle_dare.gain, cfg)
        report = losses(se.mean(axis=0), cfg.t_critical)
        t_detected = detect_critical_time(report.logmse_curve)
        assert 100 <= t_detected <= 250

    def test_short_curve_rejected(self):
        with pytest.raises(ValueError):
            detect_critical_time(np.zeros(10))

    def test_fallback_outside_the_curve_named(self):
        # No 50-step window of these ramps is flat, and losses would refuse
        # the default t_critical of 195 as a split of up to 195 steps.
        for steps in (60, 195):
            curve = np.linspace(0.0, -5.0, steps)
            with pytest.raises(ValueError, match="t_critical=195 is not a "
                               f"step 1 .. {steps - 1} of the curve"):
                detect_critical_time(curve)
        assert detect_critical_time(np.linspace(0.0, -5.0, 196)) == 195
        # A flat window is found whatever the length.
        assert detect_critical_time(np.full(60, -5.0)) == 50


class TestGainMetrics:
    def test_identical_gains(self):
        diff, err = gain_metrics(TABLE_KINF, TABLE_KINF)
        np.testing.assert_array_equal(diff, np.zeros((2, 2)))
        np.testing.assert_array_equal(err, np.zeros((2, 2)))

    def test_difference_row_reproduced(self):
        pi = TABLE_KINF + TABLE_DIFF
        diff, _ = gain_metrics(pi, TABLE_KINF)
        np.testing.assert_allclose(diff, TABLE_DIFF, rtol=1e-9)

    def test_accuracy_row_normalization(self):
        # Accuracy percentages divide by the largest-magnitude element
        # (5.07e-2); the published accuracy row follows within rounding.
        pi = TABLE_KINF + TABLE_DIFF
        _, err = gain_metrics(pi, TABLE_KINF)
        np.testing.assert_allclose(err, TABLE_DIFF / 5.07e-2 * 100,
                                   rtol=1e-9)
        np.testing.assert_allclose(err, TABLE_ERR_PCT, rtol=0.15)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            gain_metrics(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gain_metrics(np.ones((2, 2)), np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_rejected(self, bad):
        # A NaN scale passes the zero test, so without the finiteness check
        # the metrics come out NaN without an error.
        k_inf = TABLE_KINF.copy()
        k_inf[1, 0] = bad
        with pytest.raises(ValueError, match="reference gain"):
            gain_metrics(TABLE_KINF, k_inf)
        with pytest.raises(ValueError, match="reference gain"):
            gain_metrics(np.zeros((2, 2)), np.full((2, 2), bad))


def reference_rollout(model, gains, t_test, e0, rng):
    """The rollout written on ``step``, with fresh arrays every step.

    Each step's ``draw_noise`` batch drives every gain still going, one
    gain at a time.
    """
    alive = np.arange(len(gains))
    err = np.repeat(e0[np.newaxis], len(gains), axis=0)
    for t in range(1, t_test + 1):
        noise = draw_noise(model, rng, len(e0))
        steps = [step(model, e, gain, *noise) for e, gain in zip(err, gains)]
        err = np.array([nxt for nxt, _ in steps])
        reward = np.array([r for _, r in steps])
        _, bad = diverged_runs(err.swapaxes(1, 2))
        if bad.any():
            kept = ~bad
            alive, err, gains, reward = (alive[kept], err[kept], gains[kept],
                                         reward[kept])
        yield t, alive, -reward
        if not alive.size:
            return


def closed_loops(model, gains):
    """The stacks of F and D that ``_rollout_blocks`` forms for ``gains``."""
    _, closed, drive = _closed_loop(
        model, gains, model.E @ cov_factor(model.Q), cov_factor(model.R))
    return closed, drive


class TestRollout:
    """The closed-loop rollout against :func:`reference_rollout`.

    Both draw the same noise and drop the same gains at the same steps.
    The rollout forms F e + D w, which associates the products differently
    from ``step``, so the squared errors agree to rounding.
    """

    @staticmethod
    def assert_same_steps(model, gains, t_test, e0, seed):
        """Check the steps ``keep`` takes and the drop record against the
        reference; return the drop record."""
        gains = np.asarray(gains, dtype=float)
        got = []

        def keep(t, errors):
            # errors is overwritten by the next step: square it now.
            got.append((t, (errors ** 2).sum(axis=1)))

        left = _rollout(*closed_loops(model, gains), t_test, e0,
                        np.random.default_rng(seed), keep)
        want = list(reference_rollout(model, gains, t_test, e0,
                                      np.random.default_rng(seed)))
        # keep takes each step that leaves a gain going.
        assert len(got) == sum(alive.size > 0 for _, alive, _ in want)
        for k in range(len(gains)):
            assert left[k] == next(
                (t for t, alive, _ in want if k not in alive), t_test + 1)
        for (t, squared), (t_ref, alive_ref, squared_ref) in zip(got, want):
            assert t == t_ref
            # A gain that has left steps on in its slot, which the
            # reference no longer holds.
            assert squared.shape == (len(gains), len(e0))
            squared = squared[alive_ref]
            # An entry that cancels to near zero is held to the batch's
            # scale, as in TestStep.
            np.testing.assert_allclose(
                squared, squared_ref, rtol=1e-12,
                atol=1e-13 * np.abs(squared_ref).max(initial=0.0))
        return left

    @pytest.mark.parametrize("names", [
        ("kinf",), ("kinf", "slow"), ("kinf", "slow", "zero"),
        ("kinf", "slow", "zero", "offopt"), ("slow", "bad"),
        ("bad", "kinf", "zero"), ("instant", "kinf"),
        ("kinf", "instant", "bad", "zero"), ("bad",), ("instant",)])
    def test_gain_stacks_match_reference(self, bicycle, bicycle_dare, names):
        # "bad" has rho = 1.406 and leaves mid-run; "instant" leaves at
        # step 1.
        table = {"kinf": bicycle_dare.gain, "zero": np.zeros((2, 2)),
                 "slow": 0.5 * bicycle_dare.gain,
                 "offopt": bicycle_dare.gain + [[1e-3, 0.0], [0.0, -1e-2]],
                 "bad": np.array([[0.0, 0.0], [0.0, -0.5]]),
                 "instant": np.array([[0.0, 0.0], [0.0, -1e14]])}
        e0 = np.random.default_rng(40).uniform(-0.1, 0.1, (64, 2))
        left = self.assert_same_steps(bicycle, [table[n] for n in names],
                                      300, e0, seed=41)
        for k, name in enumerate(names):
            assert (left[k] == 301) == (name not in ("bad", "instant"))
        if "instant" in names:
            assert left[names.index("instant")] == 1
        if "bad" in names:
            assert 1 < left[names.index("bad")] < 300

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plants_of_each_size_match_reference(self, n):
        rng = np.random.default_rng(50 + n)
        model = random_system(rng, n=n, r=2, p=2)
        gains = 0.3 * rng.standard_normal((3, n, 2))
        e0 = rng.standard_normal((40, n))
        self.assert_same_steps(model, gains, 120, e0, seed=60 + n)

    @pytest.mark.parametrize("p,r", [(1, 3), (3, 1)])
    def test_noise_widths_unlike_match_reference(self, p, r):
        # xi and zeta take different shares of each step's draw.
        rng = np.random.default_rng(70 + p)
        model = random_system(rng, n=2, r=r, p=p)
        gains = 0.3 * rng.standard_normal((2, 2, r))
        e0 = rng.standard_normal((30, 2))
        self.assert_same_steps(model, gains, 80, e0, seed=80 + p)


def exact_mse(model, gain, t_test):
    """tr P_t for t = 1..t_test, P_t the error covariance under ``gain``.

    P_0 is the covariance of the default uniform box, diag(b^2) / 3, and
    P_{t+1} = F P_t F^T + (I - K C) E Q E^T (I - K C)^T + K R K^T with
    F = (I - K C) A.
    """
    filtered = np.eye(model.n) - gain @ model.C
    closed = filtered @ model.A
    drive = (filtered @ model.E @ model.Q @ model.E.T @ filtered.T
             + gain @ model.R @ gain.T)
    cov = np.diag(np.square(VEHICLE_INITIAL_ERROR)) / 3.0
    traces = []
    for _ in range(t_test):
        cov = closed @ cov @ closed.T + drive
        traces.append((np.trace(cov), np.trace(cov @ cov)))
    return np.array(traces).T


class TestExactCovariance:
    def test_mse_curves_follow_the_covariance_recursion(self, bicycle,
                                                        bicycle_dare):
        # The mean of N squared errors of covariance P has standard error
        # sqrt(2 tr P^2 / N) when the errors are Gaussian; the initial box
        # is flatter than a Gaussian, which only narrows it.
        gains = [("dare", bicycle_dare.gain), ("zero", np.zeros((2, 2))),
                 ("offopt", np.array([[-0.0003, -0.0012],
                                      [0.00002, 0.025]]))]
        cfg = EvalConfig(n_traj=20000, t_test=300, t_critical=100, seed=12)
        rows = evaluate_gains(bicycle, gains, cfg)
        for row, (name, gain) in zip(rows, gains):
            assert row["status"] == "ok", name
            trace, trace_sq = exact_mse(bicycle, gain, cfg.t_test)
            mse = 10.0 ** row["report"].logmse_curve
            bound = 6.0 * np.sqrt(2.0 * trace_sq / cfg.n_traj)
            worst = np.max(np.abs(mse - trace) / bound)
            assert worst < 1.0, (name, worst)


class TestEvaluateGains:
    @pytest.mark.parametrize("shape", [(3, 3), (2, 1), (2,)])
    def test_wrong_gain_shape_named_before_noise(self, bicycle, monkeypatch,
                                                 shape):
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the gain was checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError, match=re.escape(
                f"gain 'wrong' must be 2 x 2, got {shape}")):
            evaluate_gains(bicycle, [("wrong", np.zeros(shape))], cfg)
        with pytest.raises(ValueError, match=re.escape(
                f"gain must be 2 x 2, got {shape}")):
            run_trajectories(bicycle, np.zeros(shape), cfg)

    def test_three_state_plant_names_the_vehicle_box(self):
        # The initial errors come from the vehicle's box, which has no
        # other size, so the message gives no advice to pass one.
        model = random_system(np.random.default_rng(30), n=3, r=2, p=2)
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError, match="vehicle's 2-state box, but the "
                                             "model has n=3$"):
            evaluate_gains(model, [("zero", np.zeros((3, 2)))], cfg)

    def test_gains_sharing_a_wrong_shape_name_the_first(self, bicycle,
                                                        monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the gains were checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gains = [("a", np.zeros((3, 3))), ("b", np.zeros((3, 3)))]
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        message = re.escape("gain 'a' must be 2 x 2, got (3, 3)")
        with pytest.raises(ValueError, match=message):
            evaluate_gains(bicycle, gains, cfg)

    @pytest.mark.parametrize("order", ["good-first", "bad-first"])
    def test_gains_of_different_shapes_name_the_misshapen_one(
            self, bicycle, monkeypatch, order):
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the gains were checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gains = [("a", np.zeros((2, 2))), ("b", np.zeros((3, 3)))]
        if order == "bad-first":
            gains.reverse()
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        message = re.escape("gain 'b' must be 2 x 2, got (3, 3)")
        with pytest.raises(ValueError, match=message):
            evaluate_gains(bicycle, gains, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_named_before_noise(self, bicycle, bicycle_dare,
                                                monkeypatch, bad):
        # Such a gain would otherwise be reported as diverged: the input is
        # bad, not the rollout.
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the gains were checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gain = bicycle_dare.gain.copy()
        gain[0, 1] = bad
        gains = [("dare", bicycle_dare.gain), ("bad", gain),
                 ("zero", np.zeros((2, 2)))]
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError,
                           match="^gain 'bad' contains non-finite entries$"):
            evaluate_gains(bicycle, gains, cfg)

    def test_repeated_name_refused_before_noise(self, bicycle, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the names were checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gains = [("a", np.zeros((2, 2))), ("b", np.zeros((2, 2))),
                 ("a", np.eye(2))]
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError, match="gain name 'a' is given twice"):
            evaluate_gains(bicycle, gains, cfg)

    def test_empty_name_refused_before_noise(self, bicycle, monkeypatch):
        # An empty name would give an eval.csv row that names no gain.
        def no_draw(*args, **kwargs):
            raise AssertionError("errors drawn before the names were checked")

        monkeypatch.setattr(evaluation, "sample_initial_error", no_draw)
        gains = [("a", np.zeros((2, 2))), ("", np.eye(2))]
        cfg = EvalConfig(n_traj=10, t_test=20, t_critical=5)
        with pytest.raises(ValueError, match="gain number 2 has an empty name"):
            evaluate_gains(bicycle, gains, cfg)

    def test_paired_seeds_give_identical_rows(self, bicycle, bicycle_dare):
        cfg = EvalConfig(n_traj=50, t_test=300, t_critical=100, seed=5)
        rows = evaluate_gains(
            bicycle,
            [("a", bicycle_dare.gain), ("b", bicycle_dare.gain)], cfg)
        assert rows[0]["loss_full"] == rows[1]["loss_full"]
        assert rows[0]["loss_tran"] == rows[1]["loss_tran"]
        assert rows[0]["loss_ss"] == rows[1]["loss_ss"]
        assert all(r["status"] == "ok" for r in rows)

    def test_divergent_gain_flagged(self, bicycle):
        bad = np.array([[0.0, 0.0], [0.0, -40.0]])
        closed = (np.eye(2) - bad @ bicycle.C) @ bicycle.A
        assert spectral_radius(closed) > 1.0
        cfg = EvalConfig(n_traj=20, t_test=400, t_critical=100, seed=6)
        rows = evaluate_gains(bicycle, [("bad", bad)], cfg)
        assert rows[0]["status"] == "diverged"
        assert np.isnan(rows[0]["loss_full"])

    def test_gain_that_overflows_diverges_without_warning(self, bicycle,
                                                          bicycle_dare):
        # Its errors pass 1e154 in the first step, so squaring them
        # overflows; a gain that has left steps on and is squared with the
        # rest under the rollout's errstate, and Tier-1 turns any warning
        # into an error.  "all_huge" makes (I - K C) A overflow to inf, so
        # its first step meets inf - inf.
        huge = np.array([[0.0, 0.0], [0.0, 1e307]])
        cfg = EvalConfig(n_traj=20, t_test=50, t_critical=10, seed=4)
        rows = evaluate_gains(bicycle, [("kinf", bicycle_dare.gain),
                                        ("huge", huge),
                                        ("all_huge", np.full((2, 2), 1e307))],
                              cfg)
        assert [row["status"] for row in rows] == ["ok", "diverged",
                                                   "diverged"]

    def test_guard_flags_destabilizing_gain(self, bicycle):
        # rho[(I - K C) A] = 1.406: the errors grow without bound but stay
        # finite for 1 000 steps, so a non-finite check alone misses them.
        bad = np.array([[0.0, 0.0], [0.0, -0.5]])
        closed = (np.eye(2) - bad @ bicycle.C) @ bicycle.A
        assert spectral_radius(closed) == pytest.approx(1.406, abs=1e-3)
        cfg = EvalConfig(n_traj=500, t_test=1000, t_critical=195, seed=3)
        rows = evaluate_gains(bicycle, [("bad", bad)], cfg)
        assert rows[0]["status"] == "diverged"
        assert np.isnan(rows[0]["loss_full"])
        with pytest.raises(DivergenceError) as excinfo:
            run_trajectories(bicycle, bad, cfg)
        assert 0 < excinfo.value.step < cfg.t_test

    def test_stacked_rows_equal_gains_alone(self, bicycle, bicycle_dare):
        # A diverging gain steps on in its slot and leaves the other rows
        # intact bit for bit.  The stacks rotate each gain through every
        # slot, the diverging one first too, and an odd n_traj splits the
        # trajectories into blocks of 101 and 100.
        named = [("kinf", bicycle_dare.gain),
                 ("bad", np.array([[0.0, 0.0], [0.0, -40.0]])),
                 ("zero", np.zeros((2, 2)))]
        keys = ("loss_tran", "loss_ss", "loss_full")
        for n_traj in (200, 201):
            cfg = EvalConfig(n_traj=n_traj, t_test=300, t_critical=100,
                             seed=8)
            alone = {name: evaluate_gains(bicycle, [(name, gain)], cfg)[0]
                     for name, gain in named}
            assert [alone[name]["status"] for name, _ in named] == [
                "ok", "diverged", "ok"]
            for shift in range(len(named)):
                gains = named[shift:] + named[:shift]
                for row in evaluate_gains(bicycle, gains, cfg):
                    single = alone[row["name"]]
                    assert row["status"] == single["status"]
                    np.testing.assert_array_equal(
                        [row[key] for key in keys],
                        [single[key] for key in keys])
                    if row["report"] is not None:
                        np.testing.assert_array_equal(
                            row["report"].logmse_curve,
                            single["report"].logmse_curve)

    def test_reports_match_per_trajectory_losses(self, bicycle, bicycle_dare):
        gains = [("kinf", bicycle_dare.gain), ("zero", np.zeros((2, 2)))]
        cfg = EvalConfig(n_traj=300, t_test=400, t_critical=150, seed=9)
        rows = evaluate_gains(bicycle, gains, cfg)
        for row, (_, gain) in zip(rows, gains):
            se = run_trajectories(bicycle, gain, cfg)
            expected = losses(se.mean(axis=0), cfg.t_critical)
            for key in ("loss_tran", "loss_ss", "loss_full"):
                assert row[key] == pytest.approx(getattr(expected, key),
                                                 rel=1e-12, abs=0.0)
            np.testing.assert_allclose(row["report"].logmse_curve,
                                       expected.logmse_curve,
                                       rtol=1e-12, atol=0.0)

    def test_csv_outputs(self, tmp_path, bicycle, bicycle_dare):
        cfg = EvalConfig(n_traj=10, t_test=200, t_critical=80, seed=7)
        rows = evaluate_gains(bicycle, [("kinf", bicycle_dare.gain)], cfg)
        eval_path = tmp_path / "eval.csv"
        write_eval_csv(rows, eval_path)
        with open(eval_path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["name", "loss_tran", "loss_ss", "loss_full",
                             "status"]
        assert parsed[1][0] == "kinf"
        assert float(parsed[1][3]) == pytest.approx(rows[0]["loss_full"])


def block_gains(bicycle_dare):
    # rho[(I - K C) A] = 1.406 under "bad": it leaves mid-run.
    return [("dare", bicycle_dare.gain),
            ("bad", np.array([[0.0, 0.0], [0.0, -0.5]])),
            ("zero", np.zeros((2, 2)))]


class TestBlocks:
    """The trajectories run as seeded blocks in a pool of worker threads."""

    @staticmethod
    def outputs(model, gains, cfg):
        """Each row's status, losses and curve, then each gain's squared
        errors alone, or the step at which they diverged."""
        out = []
        for row in evaluate_gains(model, gains, cfg):
            out += [row["status"], [row["loss_tran"], row["loss_ss"],
                                    row["loss_full"]],
                    row["report"] and row["report"].logmse_curve]
        for _, gain in gains:
            try:
                out.append(run_trajectories(model, gain, cfg))
            except DivergenceError as err:
                out.append(err.step)
        return out

    @pytest.mark.parametrize("n_traj", [1, 2, 3, 200])
    def test_threads_and_one_cpu_give_identical_outputs(
            self, bicycle, bicycle_dare, monkeypatch, n_traj):
        gains = block_gains(bicycle_dare)
        cfg = EvalConfig(n_traj=n_traj, t_test=300, t_critical=100, seed=13)
        runs = []
        for cpus in (2, 1, 8):
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
            runs.append(self.outputs(bicycle, gains, cfg))
        threaded = runs[0]
        assert threaded[0:9:3] == ["ok", "diverged", "ok"]
        for other in runs[1:]:
            assert len(other) == len(threaded)
            for got, want in zip(other, threaded):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cpus, n_traj, threads", [
        (1, 40, 1), (2, 40, 2), (8, 40, 2), (2, 1, 1)])
    def test_pool_has_a_worker_per_cpu_at_most_one_per_block(
            self, bicycle, bicycle_dare, monkeypatch, cpus, n_traj, threads):
        # The blocks' first draws wait for each other, so that a worker
        # freed by a finished block cannot take the next one: the pool
        # must have a worker per block.
        draw, seen = evaluation._draw_normals, set()
        meet = threading.Barrier(threads, timeout=30)

        def recorded(*args):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                meet.wait()
            return draw(*args)

        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(evaluation, "_draw_normals", recorded)
        cfg = EvalConfig(n_traj=n_traj, t_test=20, t_critical=10, seed=4)
        evaluate_gains(bicycle, [("dare", bicycle_dare.gain)], cfg)
        assert len(seen) == threads
        assert threading.get_ident() not in seen

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # Where os has no sched_getaffinity (macOS), the CPU count is used,
        # and one CPU when that is unknown.
        monkeypatch.delattr(evaluation.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 6)
        assert evaluation._usable_cpus() == 6
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: None)
        assert evaluation._usable_cpus() == 1

    @pytest.mark.parametrize("n_traj", [1, 3, 200])
    def test_blocks_are_seeded_shares_of_the_trajectories(
            self, bicycle, bicycle_dare, n_traj):
        # Block b takes the b-th contiguous share of the seeded initial
        # errors, the first share the longer, and draws its noise from an
        # SFC64 generator seeded with child b of the seed's SeedSequence;
        # the blocks' sums of squares are added in block order.
        gains = block_gains(bicycle_dare)
        cfg = EvalConfig(n_traj=n_traj, t_test=300, t_critical=100, seed=14)
        stack = np.array([gain for _, gain in gains])
        e0 = np.random.default_rng(14).uniform(-1.0, 1.0, (n_traj, 2)) \
            * VEHICLE_INITIAL_ERROR
        streams = np.random.SeedSequence(14).spawn(2)
        half = (n_traj + 1) // 2
        closed, drive = closed_loops(bicycle, stack)
        sums = np.zeros((3, cfg.t_test))
        left = []

        def keep(t, errors):
            sums[:, t - 1] += np.einsum("kij,kij->k", errors, errors)

        for block, rows in enumerate([slice(0, half), slice(half, n_traj)]):
            if rows.start == rows.stop:
                continue
            left.append(_rollout(
                closed, drive, cfg.t_test, e0[rows],
                np.random.Generator(np.random.SFC64(streams[block])), keep))
        rows = evaluate_gains(bicycle, gains, cfg)
        for k in (0, 2):
            np.testing.assert_array_equal(
                rows[k]["report"].logmse_curve,
                losses(sums[k] / n_traj, cfg.t_critical).logmse_curve)
        assert rows[1]["status"] == "diverged"
        with pytest.raises(DivergenceError) as excinfo:
            run_trajectories(bicycle, gains[1][1], cfg)
        assert excinfo.value.step == min(row[1] for row in left) <= cfg.t_test

    def test_worker_error_reaches_the_caller(self, bicycle, bicycle_dare,
                                             monkeypatch):
        class BlockFailure(Exception):
            pass

        rollout, starts = evaluation._rollout, []

        def failing_first_block(closed, drive, t_test, e0, rng, keep):
            # Block 0, the first 20 of the 40 seeded initial errors, fails
            # midway, once the caller waits on it.
            def failing_keep(t, *args):
                if t == 25:
                    raise BlockFailure("raised in block 0")
                keep(t, *args)

            starts.append(len(e0))
            block_0 = np.array_equal(e0, first_rows)
            return rollout(closed, drive, t_test, e0, rng,
                           failing_keep if block_0 else keep)

        cfg = EvalConfig(n_traj=40, t_test=50, t_critical=10, seed=2)
        first_rows = evaluation.sample_initial_error(
            bicycle, np.random.default_rng(cfg.seed), size=40)[:20]
        monkeypatch.setattr(evaluation, "_rollout", failing_first_block)
        gain = bicycle_dare.gain
        threads = threading.active_count()
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
            for rollout_all in (
                    lambda: evaluate_gains(bicycle, [("dare", gain)], cfg),
                    lambda: run_trajectories(bicycle, gain, cfg)):
                starts.clear()
                with pytest.raises(BlockFailure, match="raised in block 0"):
                    rollout_all()
                assert threading.active_count() == threads
                if cpus == 1:
                    # Block 1 waits behind block 0 and does not start.
                    assert starts == [20]

    def test_traced_names_run_on_the_calling_thread(self, monkeypatch,
                                                    tmp_path):
        # A profiler that keeps one call stack per process, not per
        # thread, may wrap these names; the pool's workers call none, and
        # they alone draw the noise.  Each block's first draw waits for
        # the other's, so that one worker cannot run both blocks in turn.
        seen = {}
        meet = threading.Barrier(2, timeout=30)

        def recorded(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                threads = seen.setdefault(name, set())
                first = threading.get_ident() not in threads
                threads.add(threading.get_ident())
                if name == "_draw_normals" and first:
                    meet.wait()
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in [(evaluation, "cov_factor"),
                            (evaluation, "losses"),
                            (evaluation, "_draw_normals"),
                            (cli, "evaluate_gains"),
                            (cli, "write_eval_csv")]:
            recorded(owner, name)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        code = cli.main(["eval", "--n-traj", "50", "--gain", "dare",
                         "--gain", "zero", "--out", str(tmp_path)])
        assert code == 0
        caller = {threading.get_ident()}
        draws = seen.pop("_draw_normals")
        assert not caller & draws and len(draws) == 2
        assert seen == {name: caller for name in (
            "cov_factor", "losses", "evaluate_gains", "write_eval_csv")}


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(t_critical=1000, t_test=1000)
        with pytest.raises(ValueError):
            EvalConfig(n_traj=0)

    @pytest.mark.parametrize("name", ["n_traj", "t_test", "t_critical",
                                      "seed"])
    @pytest.mark.parametrize("value", [195.5, 300.0, True, "300"])
    def test_integer_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            EvalConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = EvalConfig(n_traj=np.int64(5), t_test=np.int32(10),
                         t_critical=np.int64(3), seed=np.uint8(1))
        assert (cfg.n_traj, cfg.t_test, cfg.t_critical) == (5, 10, 3)

    def test_roundtrip(self):
        cfg = EvalConfig(n_traj=12, t_test=100, t_critical=30, seed=2)
        assert EvalConfig(**asdict(cfg)) == cfg
