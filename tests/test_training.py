import csv
from dataclasses import asdict, replace

import numpy as np
import pytest

from steadygain import (
    DivergenceError,
    LinearGaussianModel,
    NoiseDraw,
    TrainerConfig,
    actor_loss_and_grad,
    adam_update,
    closed_form_one_step_gain,
    critic_loss_and_grad,
    draw_noise,
    solve_dare,
    train,
    train_average,
    train_runs,
)
from steadygain import training
from steadygain.cli import DEFAULT_GAMMA_SWEEP
from steadygain.error_mdp import cov_factor
from steadygain.training import critic_value

from conftest import random_psd, random_system, scalar_model


class TestCriticValue:
    def test_identity_weights(self):
        assert critic_value(np.eye(2), np.array([[1.0, 2.0]])) == [-5.0]

    def test_zero_state(self):
        assert critic_value(np.eye(2), np.zeros((1, 2))) == [0.0]

    def test_general_weights(self):
        w = np.array([[2.0, 1.0], [1.0, 3.0]])
        s = np.array([[1.0, -1.0]])
        assert critic_value(w, s)[0] == pytest.approx(-3.0)

    def test_batched(self):
        w = np.eye(2)
        batch = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        np.testing.assert_allclose(critic_value(w, batch), [-5.0, 0.0, -9.0])

    @pytest.mark.parametrize("stack", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keeps_the_bits_of_the_three_operand_einsum(self, n, stack):
        # The einsum is the form critic_value replaced; its sum must come
        # out bit for bit, on a training-sized batch whose entries span
        # six decades.
        rng = np.random.default_rng(10 * n + (stack or 0))
        lead = () if stack is None else (stack,)

        def spread(shape):
            return (rng.standard_normal(shape)
                    * 10.0 ** rng.uniform(-3.0, 3.0, shape))

        s, w = spread(lead + (256, n)), spread(lead + (n, n))
        expected = -np.einsum("...bi,...ij,...bj->...b", s, w, s)
        value = critic_value(w, s)
        assert value.shape == expected.shape
        assert value.tobytes() == expected.tobytes()

    def test_signed_zeros_match_einsum(self):
        # einsum sums from +0.0, so terms that are all -0.0 give +0.0.
        s = np.zeros((3, 5, 2))
        w = -np.ones((3, 2, 2))
        expected = -np.einsum("...bi,...ij,...bj->...b", s, w, s)
        assert critic_value(w, s).tobytes() == expected.tobytes()


class TestCriticLossAndGrad:
    def test_hand_worked_scalar_case(self):
        # A=1, C=1, no noise, theta=0, s=1, w=1, gamma=0.5:
        # s'=1, r=-1, TD = -1 + 0.5*(-1) - (-1) = -0.5,
        # loss = 0.5 * 0.25 = 0.125, grad = TD * s s^T = -0.5.
        model = LinearGaussianModel(
            A=[[1.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]], E=[[1.0]],
            Q=[[0.0]], R=[[1.0]], dt=0.01)
        batch = np.array([[1.0]])
        noise = NoiseDraw(xi=np.zeros((1, 1)), zeta=np.zeros((1, 1)))
        loss, grad = critic_loss_and_grad(
            model, np.eye(1), np.zeros((1, 1)), batch, noise, gamma=0.5)
        assert loss == pytest.approx(0.125, rel=1e-14)
        assert grad[0, 0] == pytest.approx(-0.5, rel=1e-14)

    def test_origin_batch_vanishes(self, bicycle):
        batch = np.zeros((8, 2))
        noise = NoiseDraw(xi=np.zeros((8, 2)), zeta=np.zeros((8, 2)))
        loss, grad = critic_loss_and_grad(
            bicycle, np.eye(2), np.zeros((2, 2)), batch, noise, gamma=0.99)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_matches_frozen_target_finite_difference(self):
        # Oracle: central differences of the frozen-target squared TD loss.
        rng = np.random.default_rng(101)
        for _ in range(50):
            model = random_system(rng)
            n = model.n
            batch = rng.standard_normal((16, n))
            noise = draw_noise(model, rng, size=16)
            theta = 0.3 * rng.standard_normal((n, model.r))
            w0 = random_psd(rng, n) + 0.5 * np.eye(n)
            gamma = rng.uniform(0.0, 0.99)
            _, grad = critic_loss_and_grad(
                model, w0, theta, batch, noise, gamma=gamma)

            from steadygain import step
            nxt, reward = step(model, batch, theta, noise)
            target = reward + gamma * critic_value(w0, nxt)

            def frozen_loss(w):
                return 0.5 * np.mean((target - critic_value(w, batch)) ** 2)

            h = 1e-6
            fd = np.zeros_like(w0)
            for i in range(n):
                for j in range(n):
                    bump = np.zeros_like(w0)
                    bump[i, j] = h
                    fd[i, j] = (frozen_loss(w0 + bump)
                                - frozen_loss(w0 - bump)) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(fd - grad).max() / scale < 1e-5

    def test_empty_batch_rejected(self, bicycle):
        noise = NoiseDraw(xi=np.zeros((0, 2)), zeta=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            critic_loss_and_grad(bicycle, np.eye(2), np.zeros((2, 2)),
                                 np.zeros((0, 2)), noise)

    def test_grad_symmetric(self, bicycle):
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((32, 2))
        noise = draw_noise(bicycle, rng, size=32)
        _, grad = critic_loss_and_grad(
            bicycle, np.eye(2), np.zeros((2, 2)), batch, noise, gamma=0.9)
        np.testing.assert_array_equal(grad, grad.T)

    @staticmethod
    def random_stacks(n):
        """Seeded random plants with n states and stacks of 1-4 runs.

        Each yields the plant, a (K, M, n) pool, K gains, K symmetric
        critics and one discount per run; r and p range over 1-3.
        """
        rng = np.random.default_rng(300 + n)
        for _ in range(6):
            model = random_system(rng, n=n, r=int(rng.integers(1, 4)),
                                  p=int(rng.integers(1, 4)))
            runs = int(rng.integers(1, 5))
            yield (model, rng.standard_normal((runs, 24, n)),
                   0.3 * rng.standard_normal((runs, n, model.r)),
                   np.stack([random_psd(rng, n) + 0.5 * np.eye(n)
                             for _ in range(runs)]),
                   rng.uniform(0.0, 0.99, runs), rng)

    @staticmethod
    def assert_loss_and_grad(loss, grad, td, batch):
        """The loss and gradient are 0.5 mean td^2 and mean td s s^T."""
        np.testing.assert_allclose(loss, 0.5 * np.mean(td ** 2, axis=-1),
                                   rtol=1e-12, atol=0.0)
        expected = np.einsum("kb,kbi,kbj->kij", td, batch,
                             batch) / batch.shape[1]
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_analytic_td_is_the_written_expectation(self, n):
        # E[td | s] = -|Fs|^2 - tr Sigma + gamma (-(Fs)^T w (Fs) - tr(w
        # Sigma)) + s^T w s, written term by term for each run.
        for model, batch, theta, w, gamma, _ in self.random_stacks(n):
            loss, grad = critic_loss_and_grad(model, w, theta, batch,
                                              gamma=gamma)
            ic = np.eye(n) - theta @ model.C
            f_s = np.einsum("kij,kbj->kbi", ic @ model.A, batch)
            sigma = (ic @ model.effective_process_cov()
                     @ ic.transpose(0, 2, 1)
                     + theta @ model.R @ theta.transpose(0, 2, 1))
            td = (-np.einsum("kbi,kbi->kb", f_s, f_s)
                  - np.trace(sigma, axis1=1, axis2=2)[:, None]
                  + gamma[:, None] * (
                      -np.einsum("kbi,kij,kbj->kb", f_s, w, f_s)
                      - np.trace(w @ sigma, axis1=1, axis2=2)[:, None])
                  + np.einsum("kbi,kij,kbj->kb", batch, w, batch))
            self.assert_loss_and_grad(loss, grad, td, batch)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drawn_td_is_reward_plus_discounted_value(self, n):
        # td = r' + gamma V(s'; w) - V(s; w), with step's s' and reward.
        from steadygain import step
        for model, batch, theta, w, gamma, rng in self.random_stacks(n):
            runs, size = batch.shape[:2]
            noise = NoiseDraw(
                xi=rng.standard_normal((runs, size, model.p)),
                zeta=rng.standard_normal((runs, size, model.r)))
            loss, grad = critic_loss_and_grad(model, w, theta, batch, noise,
                                              gamma=gamma)
            nxt, reward = step(model, batch, theta, noise)
            td = (reward
                  - gamma[:, None] * np.einsum("kbi,kij,kbj->kb", nxt, w, nxt)
                  + np.einsum("kbi,kij,kbj->kb", batch, w, batch))
            self.assert_loss_and_grad(loss, grad, td, batch)


class TestActorLossAndGrad:
    def test_origin_batch_vanishes(self, bicycle):
        batch = np.zeros((8, 2))
        noise = NoiseDraw(xi=np.zeros((8, 2)), zeta=np.zeros((8, 2)))
        loss, grad = actor_loss_and_grad(
            bicycle, np.eye(2), np.zeros((2, 2)), batch, noise, gamma=0.99)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_matches_finite_difference_with_frozen_noise(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            model = random_system(rng)
            n, r = model.n, model.r
            batch = rng.standard_normal((16, n))
            noise = draw_noise(model, rng, size=16)
            theta = 0.3 * rng.standard_normal((n, r))
            w = random_psd(rng, n) + 0.5 * np.eye(n)
            gamma = rng.uniform(0.0, 0.99)
            _, grad = actor_loss_and_grad(
                model, w, theta, batch, noise, gamma=gamma)
            h = 1e-6
            fd = np.zeros_like(theta)
            for i in range(n):
                for j in range(r):
                    bump = np.zeros_like(theta)
                    bump[i, j] = h
                    up, _ = actor_loss_and_grad(
                        model, w, theta + bump, batch, noise, gamma=gamma)
                    down, _ = actor_loss_and_grad(
                        model, w, theta - bump, batch, noise, gamma=gamma)
                    fd[i, j] = (up - down) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(fd - grad).max() / scale < 1e-5

    def test_stationary_at_one_step_optimum_gamma_zero(self):
        # With the pool's second moment matched to P0 exactly and no
        # discounting, the sampled gradient at the closed-form optimum is
        # Monte Carlo noise around zero.
        model = scalar_model(r=0.25)
        p0 = np.array([[1.0]])
        a_star = closed_form_one_step_gain(model, p0)
        m_batch = 4096
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((m_batch, 1))
        batch = raw / np.sqrt((raw ** 2).mean())
        noise = draw_noise(model, rng, size=m_batch)
        _, g_star = actor_loss_and_grad(
            model, np.eye(1), a_star, batch, noise, gamma=0.0)
        _, g_zero = actor_loss_and_grad(
            model, np.eye(1), np.zeros((1, 1)), batch, noise, gamma=0.0)
        bound = 3.0 / np.sqrt(m_batch) * np.linalg.norm(g_zero)
        assert np.linalg.norm(g_star) < bound
        # the noise-averaged gradient at that point is zero to roundoff
        _, g_exact = actor_loss_and_grad(
            model, np.eye(1), a_star, batch, gamma=0.0)
        assert np.abs(g_exact).max() < 1e-12

    def test_zero_expected_gradient_at_steady_gain(self, bicycle,
                                                   bicycle_dare):
        # Pool at the stationary error distribution of the steady gain:
        # the sampled gradient must be indistinguishable from zero at its
        # own Monte Carlo scale, and tiny next to the gradient at zero gain.
        k_inf = bicycle_dare.gain
        filtered = (np.eye(2) - k_inf @ bicycle.C) @ bicycle_dare.sigma
        m_batch = 8192
        rng = np.random.default_rng(7)
        pool = rng.standard_normal((m_batch, 2)) @ cov_factor(filtered).T
        noise = draw_noise(bicycle, rng, size=m_batch)
        _, g_full = actor_loss_and_grad(
            bicycle, np.eye(2), k_inf, pool, noise, gamma=0.99)
        chunks = 16
        size = m_batch // chunks
        sub_grads = []
        for i in range(chunks):
            block = slice(i * size, (i + 1) * size)
            sub_noise = NoiseDraw(xi=noise.xi[block], zeta=noise.zeta[block])
            _, gi = actor_loss_and_grad(
                bicycle, np.eye(2), k_inf, pool[block], sub_noise, gamma=0.99)
            sub_grads.append(gi)
        mc_scale = np.linalg.norm(np.std(sub_grads, axis=0) / np.sqrt(chunks))
        assert np.linalg.norm(g_full) < 4.0 * mc_scale
        _, g_zero = actor_loss_and_grad(
            bicycle, np.eye(2), np.zeros((2, 2)), pool, noise, gamma=0.99)
        assert np.linalg.norm(g_full) < 0.1 * np.linalg.norm(g_zero)

    @pytest.mark.parametrize("weights", ["identity", "random-spd"])
    @pytest.mark.parametrize("gamma", DEFAULT_GAMMA_SWEEP)
    def test_steady_gain_is_the_fixed_point_at_every_discount(
            self, bicycle, bicycle_dare, gamma, weights):
        # With the pool's second moment exactly P = (I - K C) S, the
        # analytic gradient is (Mw + Mw^T) [(I - K C) S C^T - K R], and
        # K = S C^T (C S C^T + R)^-1 zeroes the bracket whatever the
        # discount and the critic.
        k_inf, n = bicycle_dare.gain, bicycle.n
        filtered = (np.eye(n) - k_inf @ bicycle.C) @ bicycle_dare.sigma
        batch = np.sqrt(n) * np.linalg.cholesky(
            0.5 * (filtered + filtered.T)).T
        np.testing.assert_allclose(batch.T @ batch / n, filtered,
                                   rtol=1e-14, atol=0.0)
        w = np.eye(n)
        if weights == "random-spd":
            w = random_psd(np.random.default_rng(12), n) + 0.5 * np.eye(n)
        _, g_star = actor_loss_and_grad(bicycle, w, k_inf, batch, gamma=gamma)
        _, g_zero = actor_loss_and_grad(bicycle, w, np.zeros_like(k_inf),
                                        batch, gamma=gamma)
        assert np.linalg.norm(g_star) < 1e-12 * np.linalg.norm(g_zero)

    def test_empty_batch_rejected(self, bicycle):
        noise = NoiseDraw(xi=np.zeros((0, 2)), zeta=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            actor_loss_and_grad(bicycle, np.eye(2), np.zeros((2, 2)),
                                np.zeros((0, 2)), noise)

    @pytest.mark.parametrize("estimator",
                             [critic_loss_and_grad, actor_loss_and_grad])
    def test_noise_shape_checked(self, bicycle, estimator):
        # One noise row would broadcast over all eight members unchecked.
        noise = NoiseDraw(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="noise shape"):
            estimator(bicycle, np.eye(2), np.zeros((2, 2)), np.zeros((8, 2)),
                      noise)


class TestAnalyticEstimators:
    def test_match_sampled_estimators_in_expectation(self, bicycle):
        # Averaging the sampled estimators over many noise draws recovers
        # the closed-form expectations (same batch held fixed).
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((64, 2)) * 1e-4
        theta = 0.5 * solve_dare(bicycle).gain
        w = np.eye(2)
        gamma = 0.9
        n_draws = 4000
        c_losses, c_grads, a_losses, a_grads = [], [], [], []
        for _ in range(n_draws):
            noise = draw_noise(bicycle, rng, size=64)
            cl, cg = critic_loss_and_grad(bicycle, w, theta, batch, noise,
                                          gamma=gamma)
            al, ag = actor_loss_and_grad(bicycle, w, theta, batch, noise,
                                         gamma=gamma)
            c_losses.append(cl)
            c_grads.append(cg)
            a_losses.append(al)
            a_grads.append(ag)
        _, cg_exact = critic_loss_and_grad(bicycle, w, theta, batch,
                                           gamma=gamma)
        al_exact, ag_exact = actor_loss_and_grad(bicycle, w, theta, batch,
                                                 gamma=gamma)
        # gradients agree to Monte Carlo accuracy
        cg_mc = np.mean(c_grads, axis=0)
        ag_mc = np.mean(a_grads, axis=0)
        assert (np.abs(cg_mc - cg_exact).max()
                <= 5.0 * np.abs(cg_exact).max() / np.sqrt(n_draws)
                + 1e-12)
        assert (np.abs(ag_mc - ag_exact).max()
                <= 5.0 * np.abs(ag_exact).max() / np.sqrt(n_draws))
        assert np.mean(a_losses) == pytest.approx(
            al_exact, rel=5.0 / np.sqrt(n_draws))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = np.array([[1.0, -2.0]])
        zeros = np.zeros_like(params)
        out, m, v = adam_update(params, zeros, zeros, zeros, 1, lr=0.1)
        np.testing.assert_array_equal(out, params)
        np.testing.assert_array_equal(m, zeros)
        np.testing.assert_array_equal(v, zeros)

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (5.0, -0.25, 1e3):
            params = np.zeros((1, 1))
            out, _, _ = adam_update(params, np.array([[g]]), params, params,
                                    1, lr=0.01)
            assert abs(out[0, 0]) == pytest.approx(0.01, rel=1e-6)
            assert np.sign(out[0, 0]) == -np.sign(g)

    def test_two_step_hand_recurrence(self):
        # Oracle: scalar Adam recurrence evaluated by hand for g = (1, 1).
        def oracle(two_grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
            m = v = 0.0
            x = 0.0
            for t, g in enumerate(two_grads, start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                x -= lr * (m / (1 - b1 ** t)) / (
                    np.sqrt(v / (1 - b2 ** t)) + eps)
            return x

        params = m = v = np.zeros(1)
        params, m, v = adam_update(params, np.ones(1), m, v, 1, lr=0.1)
        assert params[0] == pytest.approx(-0.1, abs=1e-3)
        assert params[0] == pytest.approx(oracle([1.0]), rel=1e-12)
        params, m, v = adam_update(params, np.ones(1), m, v, 2, lr=0.1)
        assert params[0] == pytest.approx(-0.2, abs=1e-3)
        assert params[0] == pytest.approx(oracle([1.0, 1.0]), rel=1e-12)

    def test_negated_gradient_mirrors_the_step(self):
        # The trainer's actor ascends by descending -grad; from the origin
        # that is the exact mirror image of descending grad.
        rng = np.random.default_rng(34)
        down = m_down = v_down = np.zeros((2, 2))
        up = m_up = v_up = np.zeros((2, 2))
        for t in range(1, 51):
            grad = rng.standard_normal((2, 2))
            down, m_down, v_down = adam_update(down, grad, m_down, v_down,
                                               t, lr=0.01)
            up, m_up, v_up = adam_update(up, -grad, m_up, v_up, t, lr=0.01)
            np.testing.assert_array_equal(up, -down)

    def test_second_moment_nonnegative(self):
        rng = np.random.default_rng(33)
        params = m = v = np.zeros((2, 2))
        for t in range(1, 26):
            params, m, v = adam_update(
                params, rng.standard_normal((2, 2)), m, v, t, lr=0.01)
        assert np.all(v >= 0)


class TestTrainerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 1.0}, {"gamma": -0.1}, {"lr_actor": 0.0},
        {"lr_critic": -1.0}, {"batch_size": 0}, {"estimator": "mc"},
        {"init_mode": "gauss"}, {"tail_avg_frac": 1.5},
        {"lr_actor": float("nan")}, {"lr_critic": float("inf")},
        {"lr_actor": float("inf")}, {"lr_critic": float("nan")},
        {"convergence_tol": float("nan")}, {"convergence_tol": -1e-6},
        {"seed": 1.5}, {"seed": 2.0}, {"seed": -1}, {"seed": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize("name", ["seed", "batch_size", "max_iters",
                                      "burn_in"])
    @pytest.mark.parametrize("value", [2.0, 0.5, True, "10"])
    def test_integer_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "lr_actor", "lr_critic",
                                      "convergence_tol", "tail_avg_frac"])
    @pytest.mark.parametrize("value", [
        True, False, "0.5", None, pytest.param(10 ** 400, id="huge-int")])
    def test_real_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            TrainerConfig(**{name: value})

    def test_numpy_and_integer_reals_accepted(self):
        cfg = TrainerConfig(gamma=np.float64(0.5), lr_actor=np.float32(0.01),
                            tail_avg_frac=1, convergence_tol=0)
        assert cfg.gamma == 0.5 and cfg.tail_avg_frac == 1

    def test_roundtrip(self):
        cfg = TrainerConfig(gamma=0.5, seed=9)
        assert TrainerConfig(**asdict(cfg)) == cfg

    def test_numpy_integer_seed_accepted(self):
        assert TrainerConfig(seed=np.int64(7)).seed == 7


class TestTrain:
    def test_deterministic_given_seed(self, bicycle):
        cfg = TrainerConfig(batch_size=32, max_iters=300, burn_in=50, seed=4)
        theta_a, hist_a = train(bicycle, cfg)
        theta_b, hist_b = train(bicycle, cfg)
        np.testing.assert_array_equal(theta_a, theta_b)
        np.testing.assert_array_equal(hist_a.theta, hist_b.theta)
        np.testing.assert_array_equal(hist_a.critic_loss, hist_b.critic_loss)
        np.testing.assert_array_equal(hist_a.actor_loss, hist_b.actor_loss)

    def test_zero_iterations_passthrough(self, bicycle):
        theta, history = train(bicycle, TrainerConfig(max_iters=0, burn_in=0))
        np.testing.assert_array_equal(theta, np.zeros((2, 2)))
        assert history.iterations == 0

    def test_noiseless_losses_vanish(self):
        model = LinearGaussianModel(
            A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.zeros((2, 2)),
            R=1e-30 * np.eye(2), dt=0.01)
        cfg = TrainerConfig(batch_size=16, max_iters=50, burn_in=400, seed=0)
        _, history = train(model, cfg)
        assert np.abs(history.critic_loss).max() < 1e-20
        assert np.abs(history.actor_loss).max() < 1e-20

    def test_divergence_guard(self, bicycle, bicycle_dare):
        cfg = TrainerConfig(batch_size=16, max_iters=500, burn_in=10,
                            lr_actor=1e6, seed=0)
        with pytest.raises(DivergenceError) as excinfo:
            train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        history = excinfo.value.history
        assert history is not None
        assert history.iterations >= 1

    def test_history_fields(self, bicycle, bicycle_dare):
        cfg = TrainerConfig(batch_size=16, max_iters=40, burn_in=10, seed=1)
        theta, history = train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        assert history.iterations == 40
        assert history.theta.shape == (40, 2, 2)
        np.testing.assert_allclose(
            history.diff, history.theta - bicycle_dare.gain, atol=1e-15)
        assert history.critic_loss.shape == (40,)
        assert not history.converged

    def test_history_csv_header(self, bicycle, bicycle_dare, tmp_path):
        cfg = TrainerConfig(batch_size=8, max_iters=5, burn_in=0, seed=2)
        _, history = train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("iter,theta11,theta12,theta21,theta22,"
                          "d11,d12,d21,d22,critic_loss,actor_loss")
        assert len(path.read_text().splitlines()) == 6

    def test_empty_history_csv_keeps_gain_columns(self, bicycle, tmp_path):
        _, history = train(bicycle, TrainerConfig(max_iters=0))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        assert path.read_text().splitlines() == [
            "iter,theta11,theta12,theta21,theta22,"
            "d11,d12,d21,d22,critic_loss,actor_loss"]

    def test_critic_stays_symmetric(self, bicycle):
        # symmetry is enforced every update; spot-check via the sampled path
        cfg = TrainerConfig(batch_size=16, max_iters=30, burn_in=5, seed=3,
                            estimator="sampled")
        _, history = train(bicycle, cfg)
        assert history.iterations == 30

    def test_sampled_estimator_runs_and_is_deterministic(self, bicycle):
        cfg = TrainerConfig(batch_size=16, max_iters=50, burn_in=5, seed=6,
                            estimator="sampled")
        theta_a, _ = train(bicycle, cfg)
        theta_b, _ = train(bicycle, cfg)
        np.testing.assert_array_equal(theta_a, theta_b)

    def test_fixed_init_mode(self, bicycle):
        cfg = TrainerConfig(batch_size=16, max_iters=20, burn_in=5, seed=7,
                            init_mode="fixed")
        theta, history = train(bicycle, cfg)
        assert history.iterations == 20

    def test_learns_steady_gain_small_budget(self, bicycle, bicycle_dare):
        # Short-budget sanity run; the acceptance suite exercises the full
        # reference hyperparameters.
        cfg = TrainerConfig(max_iters=4000, seed=0)
        theta, _ = train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        scale = np.abs(bicycle_dare.gain).max()
        assert np.abs(theta - bicycle_dare.gain).max() / scale < 0.05

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_train_is_train_average_of_its_seed(self, bicycle, bicycle_dare,
                                                estimator):
        # One body: the one-seed call, the seed average over that seed and
        # the stack's own record of the run agree bit for bit.
        cfg = TrainerConfig(batch_size=16, max_iters=120, burn_in=10, seed=3,
                            estimator=estimator)
        ref = bicycle_dare.gain
        runs = train_runs(bicycle, cfg, ref_gain=ref)
        results = [train(bicycle, cfg, ref_gain=ref),
                   train_average(bicycle, cfg, [cfg.seed], ref_gain=ref),
                   (runs.gains[0], runs.history(0))]
        for gain, history in results[1:]:
            assert gain.tobytes() == results[0][0].tobytes()
            for field in ("theta", "diff", "critic_loss", "actor_loss"):
                assert (getattr(history, field).tobytes()
                        == getattr(results[0][1], field).tobytes())
            assert history.converged == results[0][1].converged
            assert history.iterations == results[0][1].iterations == 120

    def test_train_average_requires_seeds(self, bicycle):
        with pytest.raises(ValueError):
            train_average(bicycle, TrainerConfig(max_iters=1), [])

    def test_train_runs_requires_seeds(self, bicycle):
        with pytest.raises(ValueError, match="at least one seed"):
            train_runs(bicycle, TrainerConfig(max_iters=1), seeds=[])

    def test_gain_columns_row_major(self):
        assert training.gain_columns("e", 3, 1) == ["e11", "e21", "e31"]
        assert training.gain_columns("theta", 1, 2) == ["theta11", "theta12"]


def row_by_row_csv(history, path):
    """The history writer as it was first written: one list() per row."""
    n, r = history.theta.shape[1:]
    header = (["iter"]
              + [f"theta{i + 1}{j + 1}" for i in range(n) for j in range(r)]
              + [f"d{i + 1}{j + 1}" for i in range(n) for j in range(r)]
              + ["critic_loss", "actor_loss"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(history.iterations):
            writer.writerow([k + 1]
                            + list(history.theta[k].ravel())
                            + list(history.diff[k].ravel())
                            + [history.critic_loss[k], history.actor_loss[k]])


class TestHistoryCsv:
    """TrainHistory.to_csv writes the bytes of the row-by-row writer."""

    @staticmethod
    def history(rows, n=2, r=2, seed=0, reference=True, scale=1.0):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((rows, n, r)) * scale
        diff = (theta - rng.standard_normal((n, r)) if reference
                else np.full_like(theta, np.nan))
        return training.TrainHistory(
            theta=theta, diff=diff,
            critic_loss=rng.standard_normal(rows) ** 2 * scale,
            actor_loss=-rng.standard_normal(rows) ** 2 * scale)

    @pytest.mark.parametrize("case", [
        {"rows": 40},
        {"rows": 40, "reference": False},
        {"rows": 40, "n": 3, "r": 1, "scale": 1e-20},
        {"rows": 40, "n": 1, "r": 3, "scale": 1e20},
        {"rows": 2 * training._CSV_BLOCK_ROWS + 3},
        {"rows": 0},
    ], ids=["values", "nan-diffs", "near-1e-20", "near-1e20",
            "several-blocks", "zero-iterations"])
    def test_same_bytes_as_row_by_row_writer(self, tmp_path, case):
        history = self.history(**case)
        history.to_csv(tmp_path / "blocked.csv")
        row_by_row_csv(history, tmp_path / "rows.csv")
        written = (tmp_path / "blocked.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\n") == case["rows"] + 1
        if case["rows"]:
            assert b"-" in written

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_iterations_is_the_record_length(self, rows):
        history = self.history(rows)
        assert history.iterations == len(history.theta) == rows
        with pytest.raises(TypeError):
            training.TrainHistory(theta=history.theta, diff=history.diff,
                                  critic_loss=history.critic_loss,
                                  actor_loss=history.actor_loss,
                                  iterations=rows)


class TestTrainRuns:
    """One stacked call over K runs, each run independent of the others."""

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_run_matches_same_run_alone(self, bicycle, bicycle_dare,
                                        estimator):
        cfg = TrainerConfig(batch_size=32, max_iters=150, burn_in=20,
                            estimator=estimator)
        seeds, gammas = [4, 1, 4], [0.5, 0.99, 0.01]
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas,
                          ref_gain=bicycle_dare.gain)
        for k, (seed, gamma) in enumerate(zip(seeds, gammas)):
            gain, history = train(bicycle, replace(cfg, seed=seed, gamma=gamma),
                                  ref_gain=bicycle_dare.gain)
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)

    @pytest.mark.parametrize("init_mode", ["uniform_box", "fixed"])
    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_runs_sharing_a_seed_match_each_run_alone(self, bicycle,
                                                      bicycle_dare, estimator,
                                                      init_mode):
        # Seeds 1 and 2 each hold runs at several discounts, which share
        # the seed's generator, initial pool and burn-in; each run still
        # equals the same seed and discount trained alone, also when runs
        # of one seed stop at different iterations.  Every run stops early:
        # converged, or (sampled from the uniform box, at this small batch)
        # with its pool diverged.
        cfg = TrainerConfig(batch_size=16, max_iters=400, burn_in=20,
                            convergence_tol=3e-3, estimator=estimator,
                            init_mode=init_mode)
        seeds, gammas = [1, 1, 2, 2, 1], [0.5, 0.99, 0.25, 0.75, 0.01]
        ref = bicycle_dare.gain
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas,
                          ref_gain=ref)
        assert (runs.iterations < cfg.max_iters).all()
        assert len({runs.iterations[k] for k in (0, 1, 4)}) > 1
        for k, (seed, gamma) in enumerate(zip(seeds, gammas)):
            alone = train_runs(bicycle, replace(cfg, seed=seed, gamma=gamma),
                               ref_gain=ref)
            assert runs.gains[k].tobytes() == alone.gains[0].tobytes()
            assert runs.iterations[k] == alone.iterations[0]
            assert runs.converged[k] == alone.converged[0]
            assert runs.errors[k] == alone.errors[0]
            mine, own = runs.history(k), alone.history(0)
            for field in ("theta", "diff", "critic_loss", "actor_loss"):
                assert (getattr(mine, field).tobytes()
                        == getattr(own, field).tobytes())

    @staticmethod
    def _flag_run_one_at(monkeypatch, call):
        """Report run 1's pool diverged at the guard's ``call``-th check."""
        real = training.diverged_runs
        calls = []

        def flag_run_one(pool):
            worst, diverged = real(pool)
            calls.append(len(diverged))
            if len(calls) == call:
                diverged[1] = True
            return worst, diverged

        monkeypatch.setattr(training, "diverged_runs", flag_run_one)
        return calls

    def test_failing_run_stops_alone(self, bicycle, monkeypatch):
        # Run 1's pool is reported diverged at iteration 5, after the five
        # burn-in checks; runs 0 and 2 must finish exactly as they would
        # alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60, burn_in=5)
        seeds = [0, 1, 2]
        alone = [train(bicycle, replace(cfg, seed=seed)) for seed in seeds]
        calls = self._flag_run_one_at(monkeypatch, 10)
        runs = train_runs(bicycle, cfg, seeds=seeds)
        assert calls[:10] == [3] * 10 and set(calls[10:]) == {2}
        assert runs.iterations.tolist() == [60, 5, 60]
        assert "pool diverged" in runs.errors[1]
        assert runs.errors[0] is None and runs.errors[2] is None
        assert np.isnan(runs.gains[1]).all()
        assert runs.history(1).iterations == 5
        for k in (0, 2):
            gain, history = alone[k]
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)
        with pytest.raises(DivergenceError, match="pool diverged") as excinfo:
            runs.raise_divergence()
        assert excinfo.value.history.iterations == 5

    def test_run_diverging_in_burn_in_stops_alone(self, bicycle, monkeypatch):
        # Flagged at the third burn-in step, run 1 never trains; runs 0 and
        # 2 draw and train exactly as they would alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60, burn_in=5)
        seeds = [0, 1, 2]
        alone = [train(bicycle, replace(cfg, seed=seed)) for seed in seeds]
        calls = self._flag_run_one_at(monkeypatch, 3)
        runs = train_runs(bicycle, cfg, seeds=seeds)
        assert calls[:3] == [3] * 3 and set(calls[3:]) == {2}
        assert runs.iterations.tolist() == [60, 0, 60]
        assert "diverged during burn-in" in runs.errors[1]
        assert np.isnan(runs.gains[1]).all()
        for k in (0, 2):
            gain, history = alone[k]
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)
        with pytest.raises(DivergenceError, match="burn-in") as excinfo:
            runs.raise_divergence()
        assert excinfo.value.history.iterations == 0

    def test_shared_seed_diverging_in_burn_in_stops_all_its_runs(
            self, bicycle, monkeypatch):
        # Burn-in runs once per distinct seed, in order of first
        # appearance (0, 1, 2), so flagging row 1 at the third burn-in
        # check fails seed 1: its runs 1 and 3 never train, and the runs
        # of seeds 0 and 2 train exactly as they would alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60, burn_in=5)
        seeds, gammas = [0, 1, 0, 1, 2], [0.5, 0.5, 0.9, 0.9, 0.5]
        alone = [train(bicycle, replace(cfg, seed=seed, gamma=gamma))
                 for seed, gamma in zip(seeds, gammas)]
        calls = self._flag_run_one_at(monkeypatch, 3)
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas)
        assert calls[:5] == [3, 3, 3, 2, 2] and set(calls[5:]) == {3}
        assert runs.iterations.tolist() == [60, 0, 60, 0, 60]
        for k in (1, 3):
            assert "diverged during burn-in" in runs.errors[k]
            assert np.isnan(runs.gains[k]).all()
            assert runs.history(k).iterations == 0
        assert runs.errors[1] == runs.errors[3]
        for k in (0, 2, 4):
            gain, history = alone[k]
            assert runs.errors[k] is None
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)

    def test_each_seed_drawn_once_per_step(self, bicycle, monkeypatch):
        # Seeds 1 and 2 hold three and two runs.  Each seed's generator
        # gives one process and one measurement batch per burn-in step and
        # per iteration, however many runs read it, and goes on doing so
        # after run 1 (seed 1) stops at iteration 5.
        real = np.random.default_rng

        class Counting:
            """A seeded generator that counts its standard_normal calls."""

            def __init__(self, seed):
                self._rng = real(seed)
                self.calls = 0

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                return self._rng.standard_normal(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        made = {}

        def counting_rng(seed):
            made[seed] = Counting(seed)
            return made[seed]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        self._flag_run_one_at(monkeypatch, 10)
        flagged = training.diverged_runs
        drawn = []

        def count_draws(pool):
            drawn.append([made[seed].calls for seed in (1, 2)])
            return flagged(pool)

        monkeypatch.setattr(training, "diverged_runs", count_draws)
        cfg = TrainerConfig(batch_size=16, max_iters=60, burn_in=5)
        runs = train_runs(bicycle, cfg, seeds=[1, 1, 2, 2, 1])
        assert sorted(made) == [1, 2]
        assert runs.iterations.tolist() == [60, 5, 60, 60, 60]
        # One guard check per burn-in step and per iteration.
        assert drawn == [[2 * step] * 2 for step in range(1, 66)]

    def test_gain_is_mean_of_recorded_tail(self, bicycle):
        # Run 0 converges before the tail starts at iteration 320, so its
        # gain is its last iterate; runs 1 and 2 average iterates 320-400.
        cfg = TrainerConfig(max_iters=400, convergence_tol=3e-3,
                            tail_avg_frac=0.2)
        runs = train_runs(bicycle, cfg, seeds=[1, 2, 3])
        assert runs.iterations.tolist() == [263, 400, 400]
        np.testing.assert_array_equal(runs.gains[0], runs.theta[0, 262])
        for k in (1, 2):
            np.testing.assert_array_equal(
                runs.gains[k], runs.theta[k, 319:400].sum(axis=0) / 81)

    def test_converged_run_stops_alone(self, bicycle):
        # With a tolerance between the two runs' smallest 101-iterate
        # spreads, exactly one run meets the convergence test.
        cfg = TrainerConfig(batch_size=16, max_iters=400, burn_in=5,
                            convergence_tol=0.0)
        free = train_runs(bicycle, cfg, seeds=[0, 1])

        def smallest_spread(theta):
            return min(np.ptp(theta[k - 101:k], axis=0).max()
                       for k in range(101, len(theta) + 1))

        spreads = [smallest_spread(free.history(k).theta) for k in (0, 1)]
        assert spreads[0] != spreads[1]
        early = int(np.argmin(spreads))
        late = 1 - early
        runs = train_runs(bicycle,
                          replace(cfg, convergence_tol=float(np.mean(spreads))),
                          seeds=[0, 1])
        assert runs.converged.tolist() == [k == early for k in (0, 1)]
        assert runs.iterations[early] < cfg.max_iters
        assert runs.iterations[late] == cfg.max_iters
        np.testing.assert_array_equal(runs.history(late).theta,
                                      free.history(late).theta)
        assert not runs.history().converged

    def test_history_reads_any_selection_of_runs(self, bicycle, bicycle_dare,
                                                 monkeypatch):
        # Run 1 stops at iteration 5, so a selection holding it is cut to
        # five rows; an index and its one-element list read the same.
        cfg = TrainerConfig(batch_size=16, max_iters=30, burn_in=5)
        self._flag_run_one_at(monkeypatch, 10)
        runs = train_runs(bicycle, cfg, seeds=[0, 1, 2],
                          ref_gain=bicycle_dare.gain)
        fields = ("theta", "diff", "critic_loss", "actor_loss")
        for k in range(3):
            alone, listed = runs.history(k), runs.history([k])
            for field in fields:
                assert (getattr(alone, field).tobytes()
                        == getattr(listed, field).tobytes())
            assert alone.iterations == listed.iterations == runs.iterations[k]
            assert alone.converged == listed.converged
        pair = runs.history([0, 2])
        assert pair.iterations == 30
        np.testing.assert_array_equal(
            pair.theta, (runs.theta[0] + runs.theta[2]) / 2)
        np.testing.assert_array_equal(
            pair.diff, ((runs.theta[0] - bicycle_dare.gain)
                        + (runs.theta[2] - bicycle_dare.gain)) / 2)
        assert runs.history().iterations == 5
        assert runs.history([0, 1]).iterations == 5
        np.testing.assert_array_equal(
            runs.history().critic_loss,
            runs.critic_loss[:, :5].sum(axis=0) / 3)

    @pytest.mark.parametrize("selection, error, message", [
        ([], ValueError, r"runs=\[\] selects no run"),
        (True, ValueError, "runs=True must hold run indices, got True"),
        ([True, False], ValueError,
         r"runs=\[True, False\] must hold run indices, got True"),
        (2, IndexError, "runs=2: run 2 is not one of the 2 runs 0 .. 1"),
        ([0, -1], IndexError, r"runs=\[0, -1\]: run -1 is not one of"),
    ], ids=["empty", "bool", "bool-list", "past-the-end", "negative"])
    def test_history_refuses_a_bad_selection(self, bicycle, selection, error,
                                             message):
        runs = train_runs(bicycle, TrainerConfig(batch_size=4, max_iters=3,
                                                 burn_in=1), seeds=[0, 1])
        with pytest.raises(error, match=message):
            runs.history(selection)

    def test_all_zero_reference_gain_refused(self, bicycle):
        # A zero reference would set the divergence guard at zero scale.
        with pytest.raises(ValueError, match="ref_gain is all zero"):
            train_runs(bicycle, TrainerConfig(max_iters=1),
                       ref_gain=np.zeros((2, 2)))

    def test_discounts_validated(self, bicycle):
        cfg = TrainerConfig(max_iters=1)
        with pytest.raises(ValueError, match="gamma"):
            train_runs(bicycle, cfg, seeds=[0, 1], gammas=[0.5, 1.0])
        with pytest.raises(ValueError, match="one discount per seed"):
            train_runs(bicycle, cfg, seeds=[0, 1], gammas=[0.5])

    def test_fractional_seed_rejected(self, bicycle):
        # Truncating 1.5 would silently train seed 1.
        with pytest.raises(TypeError):
            train_runs(bicycle, TrainerConfig(max_iters=1), seeds=[0, 1.5])

    def test_bool_seed_rejected(self, bicycle):
        # True would silently train seed 1.
        with pytest.raises(ValueError, match="seed must be an integer"):
            train_runs(bicycle, TrainerConfig(max_iters=1), seeds=[0, True])

    @pytest.mark.parametrize("gamma, message", [
        (False, "gamma must be a real number, got False"),
        ("0.5", "gamma must be a real number, got '0.5'"),
        (float("nan"), r"gamma must be in \[0, 1\), got nan"),
    ], ids=["bool", "string", "nan"])
    def test_discount_refused_by_config_checks(self, bicycle, gamma, message):
        with pytest.raises(ValueError, match=message):
            train_runs(bicycle, TrainerConfig(max_iters=1), seeds=[0, 1],
                       gammas=[0.5, gamma])
