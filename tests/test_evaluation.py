import csv

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
from steadygain.evaluation import write_eval_csv

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

    def test_zero_error_stays_zero_without_noise(self):
        model = quiet_model(r_scale=1e-300)
        cfg = EvalConfig(n_traj=1, t_test=200, t_critical=50, seed=3)
        gain = np.array([[0.1, 0.0], [0.0, 0.1]])
        se = run_trajectories(model, gain, cfg, bounds=(0.0, 0.0))
        assert np.all(se < 1e-250)

    def test_open_loop_follows_matrix_powers(self):
        # Oracle: closed-form propagation e_t = A^t e_0 with zero gain.
        model = quiet_model(r_scale=1e-300)
        cfg = EvalConfig(n_traj=1, t_test=80, t_critical=50, seed=11)
        se = run_trajectories(model, np.zeros((2, 2)), cfg,
                              bounds=(0.1, 0.1))
        # replicate the seeded draw to know e0 exactly
        e0 = np.random.default_rng(11).uniform(-1, 1, (1, 2)) * 0.1
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


class TestEvaluateGains:
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
        # A diverging gain between two good ones leaves their rows intact.
        gains = [("kinf", bicycle_dare.gain),
                 ("bad", np.array([[0.0, 0.0], [0.0, -40.0]])),
                 ("zero", np.zeros((2, 2)))]
        cfg = EvalConfig(n_traj=200, t_test=300, t_critical=100, seed=8)
        stacked = evaluate_gains(bicycle, gains, cfg)
        assert [row["status"] for row in stacked] == ["ok", "diverged", "ok"]
        for row, named in zip(stacked, gains):
            alone = evaluate_gains(bicycle, [named], cfg)[0]
            assert row["status"] == alone["status"]
            np.testing.assert_array_equal(
                [row[key] for key in ("loss_tran", "loss_ss", "loss_full")],
                [alone[key] for key in ("loss_tran", "loss_ss", "loss_full")])
            if row["report"] is not None:
                np.testing.assert_array_equal(row["report"].logmse_curve,
                                              alone["report"].logmse_curve)

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


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(t_critical=1000, t_test=1000)
        with pytest.raises(ValueError):
            EvalConfig(n_traj=0)

    def test_roundtrip(self):
        cfg = EvalConfig(n_traj=12, t_test=100, t_critical=30, seed=2)
        assert EvalConfig.from_dict(cfg.to_dict()) == cfg
