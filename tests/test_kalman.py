import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from steadygain import (
    DivergenceError,
    LinearGaussianModel,
    NumericalError,
    closed_form_one_step_gain,
    finite_horizon_gains,
    gain_from_predicted_cov,
    kalman_recursion,
    riccati_iterate,
    solve_dare,
    solve_lyapunov,
    spectral_radius,
)
from steadygain import kalman

from conftest import random_psd, random_system, scalar_model

# Reference steady-state gain of the default vehicle plant.
TABLE_KINF = np.array([[-5.31e-4, -2.31e-3], [3.25e-5, 5.07e-2]])


def scalar_dare_oracle():
    """Closed-form fixed point of the scalar Riccati map.

    For A = 0.5, C = 1, EQE^T = 1, R = 1 the fixed point solves
    S^2 - 0.25 S - 1 = 0, so S = (0.25 + sqrt(4.0625)) / 2 and the gain is
    S / (S + 1).
    """
    sigma = (0.25 + np.sqrt(4.0625)) / 2.0
    return sigma, sigma / (sigma + 1.0)


class TestGainFromPredictedCov:
    def test_zero_covariance_gives_zero_gain(self, bicycle):
        gain = gain_from_predicted_cov(bicycle, np.zeros((2, 2)))
        np.testing.assert_array_equal(gain, np.zeros((2, 2)))

    def test_scalar_fixed_point_gain(self):
        sigma, k_oracle = scalar_dare_oracle()
        gain = gain_from_predicted_cov(scalar_model(), [[sigma]])
        assert gain[0, 0] == pytest.approx(k_oracle, rel=1e-12)
        assert gain[0, 0] == pytest.approx(0.5311, abs=5e-5)

    def test_bicycle_steady_gain_matches_reference(self, bicycle, bicycle_dare):
        gain = gain_from_predicted_cov(bicycle, bicycle_dare.sigma)
        np.testing.assert_allclose(gain, TABLE_KINF, rtol=0.05)

    def test_ill_conditioned_innovation_raises(self):
        model = LinearGaussianModel(
            A=np.eye(2) * 0.5, B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.eye(2),
            R=np.diag([1.0, 1e-30]), dt=0.01)
        with pytest.raises(NumericalError) as excinfo:
            gain_from_predicted_cov(model, np.zeros((2, 2)))
        assert excinfo.value.condition > 1e12


class TestConditioningGuard:
    @staticmethod
    def ill_conditioned_r_model():
        return LinearGaussianModel(
            A=np.eye(2) * 0.5, B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.zeros((2, 2)),
            R=np.diag([1.0, 1e-30]), dt=0.01)

    # With Q = 0 and a zero covariance, the innovation covariance and the
    # one-step denominator are R itself.
    @pytest.mark.parametrize("what,call", [
        ("measurement covariance R", solve_dare),
        ("innovation covariance",
         lambda model: gain_from_predicted_cov(model, np.zeros((2, 2)))),
        ("one-step gain denominator",
         lambda model: closed_form_one_step_gain(model, np.zeros((2, 2)))),
    ], ids=["R", "innovation", "one-step"])
    def test_message_names_the_matrix(self, what, call):
        with pytest.raises(NumericalError) as excinfo:
            call(self.ill_conditioned_r_model())
        assert excinfo.value.condition > 1e12
        assert str(excinfo.value) == (
            f"{what} is singular or ill-conditioned (condition estimate "
            f"{excinfo.value.condition:.3e})")


class TestRiccatiIterate:
    def test_zero_is_fixed_point_without_noise(self):
        model = scalar_model(q=0.0)
        out = riccati_iterate(model, [[0.0]])
        assert out[0, 0] == 0.0

    def test_scalar_arithmetic(self):
        # A=0.5, C=1, EQE^T=1, R=1, S=1: 0.25*(1 - 1/2) + 1 = 1.125
        out = riccati_iterate(scalar_model(), [[1.0]])
        assert out[0, 0] == pytest.approx(1.125, rel=1e-14)

    def test_preserves_psd(self, bicycle):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p0 = random_psd(rng, 2, scale=rng.uniform(1e-9, 1e3))
            out = riccati_iterate(bicycle, p0)
            np.testing.assert_allclose(out, out.T)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestSolveDare:
    def test_scalar_closed_form(self, monkeypatch):
        sigma_oracle, k_oracle = scalar_dare_oracle()
        monkeypatch.setattr(kalman, "_DARE_TOL", 1e-14)
        sol = solve_dare(scalar_model())
        assert sol.sigma[0, 0] == pytest.approx(sigma_oracle, rel=1e-12)
        assert sol.gain[0, 0] == pytest.approx(k_oracle, rel=1e-12)
        assert sol.sigma[0, 0] == pytest.approx(1.1328, abs=5e-5)
        assert sol.residual <= 1e-14

    def test_noiseless_plant(self):
        sol = solve_dare(scalar_model(q=0.0))
        assert sol.sigma[0, 0] == 0.0
        assert sol.gain[0, 0] == 0.0

    def test_bicycle_matches_reference_gain(self, bicycle_dare):
        np.testing.assert_allclose(bicycle_dare.gain, TABLE_KINF, rtol=0.05)

    def test_fixed_point_residual(self, bicycle, bicycle_dare):
        image = riccati_iterate(bicycle, bicycle_dare.sigma)
        assert np.abs(image - bicycle_dare.sigma).max() < 10 * 1e-12

    def test_closed_loop_stable(self, bicycle, bicycle_dare):
        closed = (np.eye(2) - bicycle_dare.gain @ bicycle.C) @ bicycle.A
        assert spectral_radius(closed) < 1.0

    def test_divergence_reported(self, monkeypatch):
        # Unobservable unstable plant: the recursion grows without bound.
        model = LinearGaussianModel(
            A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], E=[[1.0]],
            Q=[[1.0]], R=[[1.0]], dt=0.01)
        monkeypatch.setattr(kalman, "_MAX_DOUBLINGS", 50)
        with pytest.raises(DivergenceError) as excinfo:
            solve_dare(model)
        assert excinfo.value.residual > 0

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(kalman, "_MAX_DOUBLINGS", 2)
        with pytest.raises(DivergenceError) as excinfo:
            solve_dare(scalar_model(a=1.0, q=1e-8))
        assert excinfo.value.residual > 0

    def test_ill_conditioned_measurement_noise_raises(self):
        model = LinearGaussianModel(
            A=np.eye(2) * 0.5, B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.eye(2),
            R=np.diag([1.0, 1e-30]), dt=0.01)
        with pytest.raises(NumericalError) as excinfo:
            solve_dare(model)
        assert excinfo.value.condition > 1e12

    def test_unstabilizable_plant_raises(self):
        # The unit-circle mode A = 1 gets no process noise, so the only
        # solution is S = 0 with K = 0, which leaves rho[(I - K C) A] = 1.
        with pytest.raises(DivergenceError, match="spectral radius"):
            solve_dare(scalar_model(a=1.0, q=0.0))

    def test_json_export(self, bicycle_dare):
        doc = bicycle_dare.to_dict()
        assert set(doc) == {"sigma", "gain", "iterations", "residual"}
        np.testing.assert_array_equal(doc["gain"], bicycle_dare.gain.tolist())


def scipy_gain(model):
    """Filter gain from scipy's DARE solver, independent of solve_dare."""
    sigma = solve_discrete_are(model.A.T, model.C.T,
                               model.effective_process_cov(), model.R)
    innovation = model.C @ sigma @ model.C.T + model.R
    return np.linalg.solve(innovation, model.C @ sigma).T


def with_spectral_radius(model, rho):
    return dataclasses.replace(model, A=model.A * rho / spectral_radius(model.A))


def unstable_detectable_system(rng):
    # A generic C observes every mode, so the plant is detectable.
    return with_spectral_radius(random_system(rng), rng.uniform(1.05, 1.45))


def rank_one_noise_system(rng):
    model = random_system(rng, n=int(rng.integers(2, 5)),
                          p=int(rng.integers(2, 4)))
    f = rng.standard_normal((model.Q.shape[0], 1))
    model = dataclasses.replace(model, Q=f @ f.T)
    return with_spectral_radius(model, rng.uniform(0.5, 1.3))


PLANT_FAMILIES = {
    "stable": random_system,
    "unstable_detectable": unstable_detectable_system,
    "rank_one_noise": rank_one_noise_system,
}


class TestSolveDareAgainstScipy:
    @staticmethod
    def check(model):
        sol = solve_dare(model)
        ref = scipy_gain(model)
        assert np.abs(sol.gain - ref).max() <= 1e-9 * np.abs(ref).max()
        closed = (np.eye(model.n) - sol.gain @ model.C) @ model.A
        assert spectral_radius(closed) < 1.0
        assert sol.iterations <= 64

    @pytest.mark.parametrize("family", sorted(PLANT_FAMILIES))
    def test_seeded_plant_family(self, family):
        rng = np.random.default_rng(101)
        for _ in range(25):
            self.check(PLANT_FAMILIES[family](rng))

    @pytest.mark.parametrize("q", [1e-8, 1e-12])
    def test_near_marginal_plant(self, q):
        self.check(scalar_model(a=1.0, q=q))


class TestSolveLyapunov:
    """X = sum_k A^k W A^k^T by Smith doubling, against scipy."""

    @staticmethod
    def check(a, w):
        x = solve_lyapunov(a, w)
        ref = solve_discrete_lyapunov(a, w)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert x.tobytes() == x.T.tobytes()

    def test_bicycle(self, bicycle):
        self.check(bicycle.A, bicycle.effective_process_cov())

    @pytest.mark.parametrize("rho", [0.9, 0.999])
    def test_seeded_stable_plants(self, rho):
        rng = np.random.default_rng(900)
        for _ in range(25):
            model = random_system(rng, rho=rho)
            self.check(model.A, model.effective_process_cov())

    def test_is_the_stationary_point(self):
        # A slow mode (0.999) needs thousands of single steps; doubling
        # reaches X = A X A^T + W in a few dozen products.
        a = np.array([[0.999, 0.5], [0.0, -0.3]])
        w = np.array([[1.0, 0.2], [0.2, 0.5]])
        x = solve_lyapunov(a, w)
        np.testing.assert_allclose(a @ x @ a.T + w, x, rtol=1e-12)

    def test_zero_noise_gives_zero(self):
        x = solve_lyapunov(0.5 * np.eye(2), np.zeros((2, 2)))
        np.testing.assert_array_equal(x, np.zeros((2, 2)))

    @pytest.mark.parametrize("a", [np.diag([1.02, 0.5]), np.diag([1.0, 0.5]),
                                   np.array([[0.0, -1.0], [1.0, 0.0]])],
                             ids=["unstable", "marginal", "rotation"])
    def test_no_stationary_law_refused(self, a):
        with pytest.raises(ValueError, match="spectral radius"):
            solve_lyapunov(a, np.eye(2))

    def test_overflow_raises(self):
        with pytest.raises(DivergenceError, match="overflowed"):
            solve_lyapunov(0.9 * np.eye(2), 1e308 * np.eye(2))

    def test_unit_eigenvalues_read_below_one_reach_the_cap(self):
        # An orthogonal matrix of order 4 with entries +-1/2: its powers
        # are exact, so X doubles exactly at every step and never settles,
        # yet eigvals reads its unit eigenvalues as 1 - 2^-53.
        a = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, 1.0, 1.0],
                            [1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0]])
        assert spectral_radius(a) < 1.0
        with pytest.raises(DivergenceError, match="did not converge"):
            solve_lyapunov(a, np.eye(4))


# The gain of this plant amplifies covariance perturbations by ~3e6 (tiny
# innovation covariance), so gain-level agreement at 1e-12..1e-10 needs the
# fixed point iterated to numerical stagnation, well past the default
# covariance tolerance.
@pytest.fixture(scope="module")
def tight_dare(bicycle):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kalman, "_DARE_TOL", 1e-22)
        return solve_dare(bicycle)


class TestKalmanRecursion:
    def test_fixed_point_gains(self, bicycle, tight_dare):
        seq = kalman_recursion(bicycle, tight_dare.sigma, steps=20)
        for gain, _ in seq:
            np.testing.assert_allclose(gain, tight_dare.gain, atol=1e-12)

    def test_noiseless_zero_start(self):
        model = scalar_model(q=0.0)
        seq = kalman_recursion(model, [[0.0]], steps=5)
        for gain, sigma in seq:
            assert gain[0, 0] == 0.0
            assert sigma[0, 0] == 0.0

    def test_converges_to_steady_gain(self, bicycle, tight_dare):
        seq = kalman_recursion(
            bicycle, bicycle.effective_process_cov(), steps=200)
        final_gain = seq[-1][0]
        assert np.abs(final_gain - tight_dare.gain).max() < 1e-10

    def test_residual_eventually_decreasing(self, bicycle):
        seq = kalman_recursion(
            bicycle, bicycle.effective_process_cov(), steps=60)
        sigmas = [sigma for _, sigma in seq]
        diffs = [np.abs(sigmas[i + 1] - sigmas[i]).max()
                 for i in range(len(sigmas) - 1)]
        tail = diffs[5:]
        assert all(tail[i + 1] <= tail[i] + 1e-18 for i in range(len(tail) - 1))

    def test_step_count_validated(self, bicycle):
        with pytest.raises(ValueError):
            kalman_recursion(bicycle, np.zeros((2, 2)), steps=0)

    def test_covariances_symmetric_psd(self, bicycle):
        seq = kalman_recursion(
            bicycle, bicycle.effective_process_cov(), steps=50)
        for _, sigma in seq:
            assert np.abs(sigma - sigma.T).max() < 1e-10
            assert np.linalg.eigvalsh(sigma).min() >= -1e-10


class TestOneStepGain:
    def test_scalar_grid_search_oracle(self):
        # Oracle: minimize the expected one-step squared error
        # J(a) = (1-a)^2 (A^2 P0 + Qe) + a^2 R over a dense grid.
        model = scalar_model()
        p0, qe, r = 1.0, 1.0, 1.0
        pred = 0.5 ** 2 * p0 + qe
        grid = np.linspace(0.0, 1.0, 2_000_001)
        objective = (1 - grid) ** 2 * pred + grid ** 2 * r
        a_oracle = grid[np.argmin(objective)]
        gain = closed_form_one_step_gain(model, [[p0]])
        assert gain[0, 0] == pytest.approx(a_oracle, abs=1e-6)
        assert gain[0, 0] == pytest.approx(1.25 / 2.25, rel=1e-12)

    def test_zero_uncertainty_gives_zero_gain(self):
        model = scalar_model(q=0.0)
        gain = closed_form_one_step_gain(model, [[0.0]])
        assert gain[0, 0] == 0.0

    def test_equals_predicted_cov_gain(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_system(rng)
            p0 = random_psd(rng, model.n)
            direct = closed_form_one_step_gain(model, p0)
            pred = model.A @ p0 @ model.A.T + model.effective_process_cov()
            via_pred = gain_from_predicted_cov(model, pred)
            np.testing.assert_allclose(direct, via_pred, rtol=1e-9, atol=1e-12)

    def test_stationary_point_of_one_step_objective(self):
        # Central finite differences of the expected one-step squared error
        # around the returned gain: the implied optimum offset (gradient in
        # units of curvature) must vanish.
        rng = np.random.default_rng(23)
        for _ in range(10):
            model = random_system(rng)
            p0 = random_psd(rng, model.n)
            gain = closed_form_one_step_gain(model, p0)
            qe = model.effective_process_cov()
            pred = model.A @ p0 @ model.A.T + qe

            def j1(a):
                iac = np.eye(model.n) - a @ model.C
                return -np.trace(iac @ pred @ iac.T + a @ model.R @ a.T)

            h = 1e-5 * max(1.0, np.abs(gain).max())
            for i in range(model.n):
                for j in range(model.r):
                    delta = np.zeros_like(gain)
                    delta[i, j] = h
                    grad = (j1(gain + delta) - j1(gain - delta)) / (2 * h)
                    curv = (j1(gain + delta) - 2 * j1(gain)
                            + j1(gain - delta)) / h ** 2
                    assert abs(grad) <= 1e-6 * abs(curv) * max(
                        1.0, np.abs(gain).max())


class TestFiniteHorizonGains:
    def test_base_case(self, bicycle):
        p0 = np.diag([1e-4, 1e-4])
        gains = finite_horizon_gains(bicycle, p0, n=1)
        assert len(gains) == 1
        np.testing.assert_array_equal(
            gains[0], closed_form_one_step_gain(bicycle, p0))

    def test_matches_kalman_recursion_on_random_systems(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            model = random_system(rng)
            p0 = random_psd(rng, model.n)
            horizon = 10
            gains = finite_horizon_gains(model, p0, horizon)
            pred0 = model.A @ p0 @ model.A.T + model.effective_process_cov()
            recursion = kalman_recursion(model, pred0, steps=horizon)
            worst = max(
                np.abs(g - k).max()
                for g, (k, _) in zip(gains, recursion))
            assert worst < 1e-8

    def test_discount_free_stationarity(self):
        # The gain sequence must be a stationary point of the discounted
        # n-step accumulated-error objective for every discount value,
        # computed here by explicit covariance propagation.
        rng = np.random.default_rng(31)
        model = random_system(rng, n=2, r=2, p=2)
        p0 = random_psd(rng, 2)
        horizon = 4
        gains = finite_horizon_gains(model, p0, horizon)
        qe = model.effective_process_cov()

        def j_n(gain_list, gamma):
            s_cov = p0
            total = 0.0
            for i, a in enumerate(gain_list):
                iac = np.eye(model.n) - a @ model.C
                s_cov = (iac @ (model.A @ s_cov @ model.A.T + qe) @ iac.T
                         + a @ model.R @ a.T)
                total += -(gamma ** i) * np.trace(s_cov)
            return total

        h = 1e-6
        for gamma in (0.0, 0.3, 0.99):
            base = j_n(gains, gamma)
            for idx in range(horizon):
                for i in range(model.n):
                    for j in range(model.r):
                        bumped = [g.copy() for g in gains]
                        bumped[idx][i, j] += h
                        dipped = [g.copy() for g in gains]
                        dipped[idx][i, j] -= h
                        grad = (j_n(bumped, gamma) - j_n(dipped, gamma)) / (2 * h)
                        curv = (j_n(bumped, gamma) - 2 * base
                                + j_n(dipped, gamma)) / h ** 2
                        assert abs(grad) <= 1e-5 * max(abs(curv), 1e-9)

    def test_horizon_validated(self, bicycle):
        with pytest.raises(ValueError):
            finite_horizon_gains(bicycle, np.zeros((2, 2)), n=0)
