import csv
import json
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from steadygain import (
    DivergenceError,
    LinearGaussianModel,
    TrainerConfig,
    adam_update,
    closed_form_one_step_gain,
    draw_noise,
    solve_dare,
    step,
    symmetrize,
    train,
    train_average,
    train_runs,
)
from steadygain import training
from steadygain.cli import DEFAULT_GAMMA_SWEEP
from steadygain.error_mdp import cov_factor
from steadygain.training import critic_value

from conftest import kernel_steps, random_psd, random_system, scalar_model


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
        noise = np.zeros((1, 1)), np.zeros((1, 1))
        (loss, grad), _ = kernel_steps(
            model, np.eye(1), np.zeros((1, 1)), batch, noise, gamma=0.5)
        assert loss == pytest.approx(0.125, rel=1e-14)
        assert grad[0, 0] == pytest.approx(-0.5, rel=1e-14)

    def test_origin_batch_vanishes(self, bicycle):
        batch = np.zeros((8, 2))
        noise = np.zeros((8, 2)), np.zeros((8, 2))
        (loss, grad), _ = kernel_steps(
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
            (_, grad), _ = kernel_steps(
                model, w0, theta, batch, noise, gamma=gamma)

            from steadygain import step
            nxt, reward = step(model, batch, theta, *noise)
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

    def test_grad_symmetric(self, bicycle):
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((32, 2))
        noise = draw_noise(bicycle, rng, size=32)
        (_, grad), _ = kernel_steps(
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
    def stepped(model, batch, theta, noise):
        """``step``'s next states and rewards for each run of a stack."""
        steps = [step(model, *args) for args in zip(batch, theta, *noise)]
        return (np.array([nxt for nxt, _ in steps]),
                np.array([reward for _, reward in steps]))

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
            (loss, grad), _ = kernel_steps(model, w, theta, batch,
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
            noise = (rng.standard_normal((runs, size, model.p)),
                     rng.standard_normal((runs, size, model.r)))
            (loss, grad), _ = kernel_steps(model, w, theta, batch, noise,
                                           gamma=gamma)
            nxt, reward = self.stepped(model, batch, theta, noise)
            td = (reward
                  - gamma[:, None] * np.einsum("kbi,kij,kbj->kb", nxt, w, nxt)
                  + np.einsum("kbi,kij,kbj->kb", batch, w, batch))
            self.assert_loss_and_grad(loss, grad, td, batch)


class TestActorLossAndGrad:
    def test_origin_batch_vanishes(self, bicycle):
        batch = np.zeros((8, 2))
        noise = np.zeros((8, 2)), np.zeros((8, 2))
        _, (loss, grad) = kernel_steps(
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
            _, (_, grad) = kernel_steps(
                model, w, theta, batch, noise, gamma=gamma)
            h = 1e-6
            fd = np.zeros_like(theta)
            for i in range(n):
                for j in range(r):
                    bump = np.zeros_like(theta)
                    bump[i, j] = h
                    _, (up, _) = kernel_steps(
                        model, w, theta + bump, batch, noise, gamma=gamma)
                    _, (down, _) = kernel_steps(
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
        _, (_, g_star) = kernel_steps(
            model, np.eye(1), a_star, batch, noise, gamma=0.0)
        _, (_, g_zero) = kernel_steps(
            model, np.eye(1), np.zeros((1, 1)), batch, noise, gamma=0.0)
        bound = 3.0 / np.sqrt(m_batch) * np.linalg.norm(g_zero)
        assert np.linalg.norm(g_star) < bound
        # the noise-averaged gradient at that point is zero to roundoff
        _, (_, g_exact) = kernel_steps(
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
        _, (_, g_full) = kernel_steps(
            bicycle, np.eye(2), k_inf, pool, noise, gamma=0.99)
        chunks = 16
        size = m_batch // chunks
        sub_grads = []
        for i in range(chunks):
            block = slice(i * size, (i + 1) * size)
            sub_noise = noise[0][block], noise[1][block]
            _, (_, gi) = kernel_steps(
                bicycle, np.eye(2), k_inf, pool[block], sub_noise, gamma=0.99)
            sub_grads.append(gi)
        mc_scale = np.linalg.norm(np.std(sub_grads, axis=0) / np.sqrt(chunks))
        assert np.linalg.norm(g_full) < 4.0 * mc_scale
        _, (_, g_zero) = kernel_steps(
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
        _, (_, g_star) = kernel_steps(bicycle, w, k_inf, batch, gamma=gamma)
        _, (_, g_zero) = kernel_steps(bicycle, w, np.zeros_like(k_inf),
                                      batch, gamma=gamma)
        assert np.linalg.norm(g_star) < 1e-12 * np.linalg.norm(g_zero)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("law", ["drawn", "integrated"])
    def test_loss_is_the_one_step_return(self, law, n):
        # Drawn: the batch mean of step's reward + gamma V(s'; w).
        # Integrated: -tr(M_w E[s' s'^T]), M_w = I + gamma w, with the
        # pool's second moment P and E[s' s'^T] written out.
        from steadygain import step
        stacks = TestCriticLossAndGrad.random_stacks(n)
        for model, batch, theta, w, gamma, rng in stacks:
            runs, size = batch.shape[:2]
            if law == "drawn":
                noise = (rng.standard_normal((runs, size, model.p)),
                         rng.standard_normal((runs, size, model.r)))
                nxt, reward = TestCriticLossAndGrad.stepped(model, batch,
                                                            theta, noise)
                expected = np.mean(
                    reward - gamma[:, None]
                    * np.einsum("kbi,kij,kbj->kb", nxt, w, nxt), axis=1)
            else:
                noise = None
                ic = np.eye(n) - theta @ model.C
                p = np.einsum("kbi,kbj->kij", batch, batch) / size
                second = (ic @ (model.A @ p @ model.A.T
                                + model.effective_process_cov())
                          @ ic.transpose(0, 2, 1)
                          + theta @ model.R @ theta.transpose(0, 2, 1))
                mw = np.eye(n) + gamma[:, None, None] * w
                expected = -np.trace(mw @ second, axis1=1, axis2=2)
            _, (loss, _) = kernel_steps(model, w, theta, batch, noise,
                                        gamma=gamma)
            np.testing.assert_allclose(loss, expected, rtol=1e-12, atol=0.0)

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
            (cl, cg), (al, ag) = kernel_steps(bicycle, w, theta, batch,
                                              noise, gamma=gamma)
            c_losses.append(cl)
            c_grads.append(cg)
            a_losses.append(al)
            a_grads.append(ag)
        (_, cg_exact), (al_exact, ag_exact) = kernel_steps(
            bicycle, w, theta, batch, gamma=gamma)
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

    def test_keeps_exact_symmetry(self):
        # The trainer does not re-symmetrize its critic after the step: the
        # critic starts at I, its gradient is exactly symmetric, and Adam
        # acts elementwise, so weights and moments stay symmetric bit for
        # bit.
        rng = np.random.default_rng(35)
        params = symmetrize(rng.standard_normal((3, 4, 4)))
        m = v = np.zeros_like(params)
        for t in range(1, 26):
            grad = symmetrize(rng.standard_normal((3, 4, 4)) * 10.0 ** t)
            params, m, v = adam_update(params, grad, m, v, t, lr=0.01)
            for a in (params, m, v):
                np.testing.assert_array_equal(a, a.swapaxes(-1, -2))

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
        {"gamma": float("nan")}, {"max_iters": -1},
        {"lr_actor": float("nan")}, {"lr_critic": float("inf")},
        {"lr_actor": float("inf")}, {"lr_critic": float("nan")},
        {"gamma": float("inf")}, {"lr_actor": -1e-6},
        {"seed": 1.5}, {"seed": 2.0}, {"seed": -1}, {"seed": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize("name", ["seed", "batch_size", "max_iters"])
    @pytest.mark.parametrize("value", [2.0, 0.5, True, "10"])
    def test_integer_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "lr_actor", "lr_critic",
                                      "convergence_tol", "tail_avg_frac"])
    @pytest.mark.parametrize("value", [
        True, False, "0.5", None, pytest.param(10 ** 400, id="huge-int")])
    def test_real_field_named(self, name, value):
        # convergence_tol and tail_avg_frac are no longer settings: any
        # value of either is refused as an unknown keyword, by name.
        if name in ("convergence_tol", "tail_avg_frac"):
            error, message = TypeError, f"unexpected keyword argument '{name}'"
        else:
            error, message = ValueError, f"^{name} must be a real number"
        with pytest.raises(error, match=message):
            TrainerConfig(**{name: value})

    def test_numpy_and_integer_reals_accepted(self):
        cfg = TrainerConfig(gamma=np.float64(0.5), lr_actor=np.float32(0.01),
                            lr_critic=1)
        assert cfg.gamma == 0.5 and cfg.lr_critic == 1

    def test_roundtrip(self):
        cfg = TrainerConfig(gamma=0.5, seed=9)
        assert TrainerConfig(**asdict(cfg)) == cfg

    def test_numpy_integer_seed_accepted(self):
        assert TrainerConfig(seed=np.int64(7)).seed == 7


class TestTrain:
    def test_deterministic_given_seed(self, bicycle):
        cfg = TrainerConfig(batch_size=32, max_iters=300, seed=4)
        theta_a, hist_a = train(bicycle, cfg)
        theta_b, hist_b = train(bicycle, cfg)
        np.testing.assert_array_equal(theta_a, theta_b)
        np.testing.assert_array_equal(hist_a.theta, hist_b.theta)
        np.testing.assert_array_equal(hist_a.critic_loss, hist_b.critic_loss)
        np.testing.assert_array_equal(hist_a.actor_loss, hist_b.actor_loss)

    def test_zero_iterations_passthrough(self, bicycle):
        theta, history = train(bicycle, TrainerConfig(max_iters=0))
        np.testing.assert_array_equal(theta, np.zeros((2, 2)))
        assert history.iterations == 0

    def test_noiseless_losses_vanish(self):
        model = LinearGaussianModel(
            A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.zeros((2, 2)),
            R=1e-30 * np.eye(2), dt=0.01)
        cfg = TrainerConfig(batch_size=16, max_iters=50, seed=0)
        _, history = train(model, cfg)
        assert np.abs(history.critic_loss).max() < 1e-20
        assert np.abs(history.actor_loss).max() < 1e-20

    def test_divergence_guard(self, bicycle, bicycle_dare):
        cfg = TrainerConfig(batch_size=16, max_iters=500,
                            lr_actor=1e6, seed=0)
        with pytest.raises(DivergenceError) as excinfo:
            train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        history = excinfo.value.history
        assert history is not None
        assert history.iterations >= 1

    def test_history_fields(self, bicycle, bicycle_dare):
        cfg = TrainerConfig(batch_size=16, max_iters=40, seed=1)
        theta, history = train(bicycle, cfg, ref_gain=bicycle_dare.gain)
        assert history.iterations == 40
        assert history.theta.shape == (40, 2, 2)
        np.testing.assert_allclose(
            history.diff, history.theta - bicycle_dare.gain, atol=1e-15)
        assert history.critic_loss.shape == (40,)

    def test_history_csv_header(self, bicycle, bicycle_dare, tmp_path):
        cfg = TrainerConfig(batch_size=8, max_iters=5, seed=2)
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
        cfg = TrainerConfig(batch_size=16, max_iters=30, seed=3,
                            estimator="sampled")
        _, history = train(bicycle, cfg)
        assert history.iterations == 30

    def test_sampled_estimator_runs_and_is_deterministic(self, bicycle):
        cfg = TrainerConfig(batch_size=16, max_iters=50, seed=6,
                            estimator="sampled")
        theta_a, _ = train(bicycle, cfg)
        theta_b, _ = train(bicycle, cfg)
        np.testing.assert_array_equal(theta_a, theta_b)

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
        cfg = TrainerConfig(batch_size=16, max_iters=120, seed=3,
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
    """The history writer as it was first written: one list() per row,
    numbered by the row's iteration."""
    n, r = history.theta.shape[1:]
    header = (["iter"]
              + [f"theta{i + 1}{j + 1}" for i in range(n) for j in range(r)]
              + [f"d{i + 1}{j + 1}" for i in range(n) for j in range(r)]
              + ["critic_loss", "actor_loss"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k, iteration in enumerate(history.iters.tolist()):
            writer.writerow([iteration]
                            + list(history.theta[k].ravel())
                            + list(history.diff[k].ravel())
                            + [history.critic_loss[k], history.actor_loss[k]])


class TestHistoryCsv:
    """TrainHistory.to_csv writes the bytes of the row-by-row writer."""

    @staticmethod
    def history(rows, n=2, r=2, seed=0, reference=True, scale=1.0):
        # The rows of a run of a million iterations, up to the rows-th.
        iters = training._recorded_iterations(10 ** 6)[:rows]
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((rows, n, r)) * scale
        diff = (theta - rng.standard_normal((n, r)) if reference
                else np.full_like(theta, np.nan))
        return training.TrainHistory(
            theta=theta, diff=diff,
            critic_loss=rng.standard_normal(rows) ** 2 * scale,
            actor_loss=-rng.standard_normal(rows) ** 2 * scale,
            iters=iters, iterations=int(iters[-1]) if rows else 0)

    @pytest.mark.parametrize("case", [
        {"rows": 40},
        {"rows": 40, "reference": False},
        {"rows": 40, "n": 3, "r": 1, "scale": 1e-20},
        {"rows": 40, "n": 1, "r": 3, "scale": 1e20},
        {"rows": 3000},
        {"rows": 0},
    ], ids=["values", "nan-diffs", "near-1e-20", "near-1e20",
            "3000-rows", "zero-iterations"])
    def test_same_bytes_as_row_by_row_writer(self, tmp_path, case):
        history = self.history(**case)
        history.to_csv(tmp_path / "blocked.csv")
        row_by_row_csv(history, tmp_path / "rows.csv")
        written = (tmp_path / "blocked.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\n") == case["rows"] + 1
        if case["rows"]:
            assert b"-" in written

    @pytest.mark.parametrize("max_iters, rows", [
        (0, 0), (1, 1), (1000, 1000), (1009, 1000), (1010, 1001),
        (10000, 1900), (200000, 2900)])
    def test_record_keeps_three_significant_digits(self, max_iters, rows):
        iters = training._recorded_iterations(max_iters)
        assert iters.tolist() == [k for k in range(1, max_iters + 1)
                                  if len(str(k).rstrip("0")) <= 3]
        assert len(iters) == rows

    @pytest.mark.parametrize("max_iters", [0, 1, 7, 1005])
    def test_iterations_is_the_count_run(self, bicycle, max_iters):
        # The record keeps every iteration up to 1 000 and then every 10th,
        # so a run of 1 005 iterations has 1 000 rows.
        _, history = train(bicycle, TrainerConfig(batch_size=16,
                                                  max_iters=max_iters))
        rows = min(max_iters, 1000)
        assert history.iterations == max_iters
        assert history.iters.tolist() == list(range(1, rows + 1))
        assert (len(history.theta) == len(history.diff)
                == len(history.critic_loss) == len(history.actor_loss)
                == rows)


def grid(seeds, gammas):
    """The (seed, discount) of each run of a train_runs grid, in run order:
    discount-major, run i S + j is seeds[j] at gammas[i]."""
    return [(seed, gamma) for gamma in gammas for seed in seeds]


class TestTrainRuns:
    """One call over a grid of discounts x seeds, each run independent of
    the others."""

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_run_matches_same_run_alone(self, bicycle, bicycle_dare,
                                        estimator):
        cfg = TrainerConfig(batch_size=32, max_iters=150,
                            estimator=estimator)
        seeds, gammas = [4, 1, 7], [0.5, 0.99, 0.01]
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas,
                          ref_gain=bicycle_dare.gain)
        assert len(runs.errors) == 9
        for k, (seed, gamma) in enumerate(grid(seeds, gammas)):
            gain, history = train(bicycle, replace(cfg, seed=seed, gamma=gamma),
                                  ref_gain=bicycle_dare.gain)
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_runs_sharing_a_seed_match_each_run_alone(self, bicycle,
                                                      bicycle_dare, estimator):
        # Seeds 1 and 2 each hold runs at three discounts, which share the
        # seed's generator and initial pool; each run still equals the same
        # seed and discount trained alone, also when runs of one seed stop
        # at different iterations.  The reference gain puts the divergence
        # guard at 0.9 max|K*|, which every run's gain passes on its way to
        # K*, so every run stops early (by iteration 20).
        cfg = TrainerConfig(batch_size=16, max_iters=400, estimator=estimator)
        seeds, gammas = [1, 2], [0.5, 0.99, 0.01]
        ref = 0.9 * bicycle_dare.gain / 1000
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas,
                          ref_gain=ref)
        assert (runs.iterations < cfg.max_iters).all()
        assert len({runs.iterations[k] for k in (0, 2, 4)}) > 1
        for k, (seed, gamma) in enumerate(grid(seeds, gammas)):
            alone = train_runs(bicycle, replace(cfg, seed=seed, gamma=gamma),
                               ref_gain=ref)
            assert runs.gains[k].tobytes() == alone.gains[0].tobytes()
            assert runs.iterations[k] == alone.iterations[0]
            assert runs.errors[k].startswith("gain magnitude exceeded")
            assert runs.errors[k] == alone.errors[0]
            mine, own = runs.history(k), alone.history(0)
            for field in ("theta", "diff", "critic_loss", "actor_loss"):
                assert (getattr(mine, field).tobytes()
                        == getattr(own, field).tobytes())

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_matches_member_major_reference(self, bicycle, bicycle_dare,
                                            estimator):
        # Each run, trained alone on (M, n) batches by the per-member
        # functions: an initial pool drawn once from the zero-gain error
        # process's stationary law (scipy's Lyapunov solution, one (n, M)
        # draw coloured by its cov_factor), then draw_noise on the seed's
        # generator, step for the pool advance (under the updated gain when
        # the noise is integrated out, else the drawn s' under the old
        # gain), and the trainer's critic and actor steps through
        # kernel_steps, adam_update and symmetrize.
        cfg = TrainerConfig(batch_size=32, max_iters=150,
                            estimator=estimator)
        seeds, gammas = [4, 1], [0.5, 0.99]
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas,
                          ref_gain=bicycle_dare.gain)
        sampled = estimator == "sampled"
        start = cov_factor(solve_discrete_lyapunov(
            bicycle.A, bicycle.E @ bicycle.Q @ bicycle.E.T))
        for k, (seed, gamma) in enumerate(grid(seeds, gammas)):
            rng = np.random.default_rng(seed)
            pool = (start @ rng.standard_normal(
                (bicycle.n, cfg.batch_size))).T
            zero = np.zeros((bicycle.n, bicycle.r))
            theta, w = zero, np.eye(bicycle.n)
            m_w, v_w, m_theta, v_theta = (np.zeros_like(a)
                                          for a in (w, w, theta, theta))
            thetas, critic_losses, actor_losses = [], [], []
            for it in range(1, cfg.max_iters + 1):
                noise = draw_noise(bicycle, rng, cfg.batch_size)
                law_noise = noise if sampled else None
                (c_loss, c_grad), _ = kernel_steps(
                    bicycle, w, theta, pool, law_noise, gamma=gamma)
                w, m_w, v_w = adam_update(w, c_grad, m_w, v_w, it,
                                          cfg.lr_critic)
                w = symmetrize(w)
                _, (a_loss, a_grad) = kernel_steps(
                    bicycle, w, theta, pool, law_noise, gamma=gamma)
                updated, m_theta, v_theta = adam_update(
                    theta, -a_grad, m_theta, v_theta, it, cfg.lr_actor)
                pool, _ = step(bicycle, pool, theta if sampled else updated,
                               *noise)
                theta = updated
                thetas.append(theta)
                critic_losses.append(c_loss)
                actor_losses.append(a_loss)
            assert runs.iterations[k] == cfg.max_iters
            history = runs.history(k)
            np.testing.assert_allclose(
                history.theta, thetas, rtol=1e-12,
                atol=1e-13 * np.abs(thetas).max())
            np.testing.assert_allclose(history.critic_loss, critic_losses,
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(history.actor_loss, actor_losses,
                                       rtol=1e-12, atol=0.0)

    @staticmethod
    def _flag_runs(monkeypatch, flags):
        """Report the pools of the stacked runs ``flags[c]`` diverged at the
        guard's c-th check; return the stack size of every check."""
        real = training.diverged_runs
        calls = []

        def flag(pool):
            worst, diverged = real(pool)
            calls.append(len(diverged))
            diverged[flags.get(len(calls), [])] = True
            return worst, diverged

        monkeypatch.setattr(training, "diverged_runs", flag)
        return calls

    @staticmethod
    def _assert_record_ends_at_stop(runs):
        """Each run's record is zero past its stop."""
        for k, stop in enumerate(runs.iterations):
            rows = np.searchsorted(runs.iters, stop, side="right")
            for record in (runs.theta, runs.critic_loss, runs.actor_loss):
                assert not record[k, rows:].any()

    def test_failing_run_stops_alone(self, bicycle, monkeypatch):
        # Run 1 (seed 1 at discount 0.5) has its pool reported diverged at
        # iteration 5; the first check, after 0 iterations, already sees
        # all six runs.  Run 1 stays in the stack, and every other run,
        # seed 1 at 0.9 among them, finishes exactly as it would alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60)
        seeds, gammas = [0, 1, 2], [0.5, 0.9]
        alone = [train(bicycle, replace(cfg, seed=seed, gamma=gamma))
                 for seed, gamma in grid(seeds, gammas)]
        calls = self._flag_runs(monkeypatch, {6: [1]})
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas)
        assert calls == [6] * 61
        assert runs.iterations.tolist() == [60, 5, 60, 60, 60, 60]
        assert "pool diverged" in runs.errors[1]
        assert all(runs.errors[k] is None for k in (0, 2, 3, 4, 5))
        assert np.isnan(runs.gains[1]).all()
        assert runs.history(1).iterations == 5
        self._assert_record_ends_at_stop(runs)
        for k in (0, 2, 3, 4, 5):
            gain, history = alone[k]
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)
        with pytest.raises(DivergenceError, match="pool diverged") as excinfo:
            runs.raise_divergence()
        assert excinfo.value.history.iterations == 5

    def test_run_diverging_at_start_stops_alone(self, bicycle, monkeypatch):
        # Flagged at the check of the initial pools, run 1 never trains:
        # its seed leaves the stack before the first iteration and its
        # record stays zero.  Runs 0 and 2 draw and train exactly as they
        # would alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60)
        seeds = [0, 1, 2]
        alone = [train(bicycle, replace(cfg, seed=seed)) for seed in seeds]
        calls = self._flag_runs(monkeypatch, {1: [1]})
        runs = train_runs(bicycle, cfg, seeds=seeds)
        assert calls == [3] + [2] * 60
        assert runs.iterations.tolist() == [60, 0, 60]
        assert runs.errors[1].startswith("error pool diverged (max entry")
        assert np.isnan(runs.gains[1]).all()
        self._assert_record_ends_at_stop(runs)
        for k in (0, 2):
            gain, history = alone[k]
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)
        with pytest.raises(DivergenceError, match="pool diverged") as excinfo:
            runs.raise_divergence()
        assert excinfo.value.history.iterations == 0

    def test_shared_seed_diverging_at_start_stops_all_its_runs(
            self, bicycle, monkeypatch):
        # The initial pool is drawn once per seed, so both discounts of
        # seed 1, runs 1 and 4, hold the same pool; flagging both at the
        # first check fails seed 1.  Its runs never train, the stack holds the
        # four runs of seeds 0 and 2, and those train exactly as they would
        # alone.
        cfg = TrainerConfig(batch_size=16, max_iters=60)
        seeds, gammas = [0, 1, 2], [0.5, 0.9]
        alone = [train(bicycle, replace(cfg, seed=seed, gamma=gamma))
                 for seed, gamma in grid(seeds, gammas)]
        calls = self._flag_runs(monkeypatch, {1: [1, 4]})
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas)
        assert calls == [6] + [4] * 60
        assert runs.iterations.tolist() == [60, 0, 60, 60, 0, 60]
        for k in (1, 4):
            assert runs.errors[k].startswith("error pool diverged")
            assert np.isnan(runs.gains[k]).all()
            assert runs.history(k).iterations == 0
        assert runs.errors[1] == runs.errors[4]
        self._assert_record_ends_at_stop(runs)
        for k in (0, 2, 3, 5):
            gain, history = alone[k]
            assert runs.errors[k] is None
            np.testing.assert_array_equal(runs.gains[k], gain)
            np.testing.assert_array_equal(runs.history(k).theta, history.theta)

    def test_initial_pool_has_the_stationary_law(self, bicycle,
                                                 monkeypatch):
        # The initial pool is drawn from N(0, P), P the stationary
        # covariance of the zero-gain error process, here scipy's Lyapunov
        # solution.  The pool reaches the guard once, before the first
        # iteration; on M = 20 000 members its sample mean and second
        # moment sit within 4 standard errors, sqrt(P_ii / M) and
        # sqrt((P_ii P_jj + P_ij^2) / M).
        pools = []
        real = training.diverged_runs

        def keep_pool(pool):
            pools.append(pool.copy())
            return real(pool)

        monkeypatch.setattr(training, "diverged_runs", keep_pool)
        size = 20_000
        train_runs(bicycle, TrainerConfig(batch_size=size, max_iters=0))
        assert len(pools) == 1 and pools[0].shape == (1, bicycle.n, size)
        law = solve_discrete_lyapunov(bicycle.A,
                                      bicycle.effective_process_cov())
        errors = pools[0][0]
        variance = np.diag(law)
        assert (np.abs(errors.mean(axis=1))
                <= 4.0 * np.sqrt(variance / size)).all()
        sample = errors @ errors.T / size
        bound = 4.0 * np.sqrt((np.outer(variance, variance) + law ** 2)
                              / size)
        assert (np.abs(sample - law) <= bound).all()

    @pytest.mark.parametrize("a", [[1e3, 0.5], [1.02, 0.5], [1.0, 0.5]],
                             ids=["1e3", "1.02", "marginal"])
    def test_plant_without_stationary_law_refused(self, monkeypatch, a):
        # With rho(A) >= 1 the zero-gain error process has no stationary
        # law to draw the initial pools from: refused before a generator
        # is made.
        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        model = LinearGaussianModel(
            A=np.diag(a), B=np.zeros((2, 1)), C=np.eye(2),
            D=np.zeros((2, 1)), E=np.eye(2), Q=np.eye(2), R=np.eye(2),
            dt=0.01)
        with pytest.raises(ValueError, match="A has spectral radius"):
            train_runs(model, TrainerConfig(batch_size=16, max_iters=5),
                       seeds=[0, 1, 2], gammas=[0.5, 0.9])

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="VmHWM is read from Linux's /proc")
    def test_runs_stopped_at_start_touch_no_record(self):
        # 200 runs (40 seeds x 5 discounts) of 200 000 iterations
        # preallocate a record of 2 900 rows of 48 B each, 27 MB in all,
        # more than six times the 4 MB bound below; a run writes its rows
        # only while it runs, so runs that all stop before the first
        # iteration leave those pages untouched.  The plant is stable, but
        # its stationary error spread, about 1.2e13, puts every initial
        # pool beyond the guard at 1e12.  VmHWM is the high-water mark of
        # the process's resident memory, so the run gets a process of its
        # own, warmed up by a one-iteration call.  ru_maxrss would not do:
        # Linux carries it over from the parent across exec, so a child of
        # this test process starts at the test process's own peak.
        script = textwrap.dedent("""
            import json
            import numpy as np
            from steadygain import (LinearGaussianModel, TrainerConfig,
                                    train_runs)
            from steadygain.cli import DEFAULT_GAMMA_SWEEP
            model = LinearGaussianModel(
                A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
                D=np.zeros((2, 1)), E=np.eye(2), Q=1e26 * np.eye(2),
                R=np.eye(2), dt=0.01)
            def grid(max_iters):
                return train_runs(model, TrainerConfig(max_iters=max_iters),
                                  seeds=list(range(40)),
                                  gammas=DEFAULT_GAMMA_SWEEP)
            def peak_kb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh
                                if line.startswith("VmHWM:"))
            grid(1)
            before = peak_kb()
            runs = grid(200000)
            after = peak_kb()
            print(json.dumps({
                "grown_mb": (after - before) / 1024,
                "iterations": runs.iterations.tolist(),
                "errors": runs.errors,
                "records": [len(runs.theta), len(runs.critic_loss),
                            len(runs.actor_loss)]}))
            """)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["iterations"] == [0] * 200
        assert all(error.startswith("error pool diverged (max entry")
                   for error in out["errors"])
        # The discounts of a seed share its pool.
        assert out["errors"][:40] * 5 == out["errors"]
        assert out["records"] == [200] * 3
        assert out["grown_mb"] < 4.0, out["grown_mb"]

    def test_each_seed_drawn_once_per_step(self, bicycle, monkeypatch):
        # Seeds 1 and 2 hold three runs each, one per discount.  Each
        # seed's generator gives one initial-pool draw of n M normals, then
        # one batch of M (p + r) normals, process then measurement, per
        # iteration, however many runs read it, and goes on doing so after
        # run 1 (seed 2 at 0.5) stops at iteration 5.
        real = np.random.default_rng

        class Counting:
            """A seeded generator that records the size of each of its
            standard_normal calls."""

            def __init__(self, seed):
                self._rng = real(seed)
                self.sizes = []

            @property
            def calls(self):
                return len(self.sizes)

            def standard_normal(self, *args, **kwargs):
                drawn = self._rng.standard_normal(*args, **kwargs)
                self.sizes.append(np.size(drawn))
                return drawn

            def __getattr__(self, name):
                return getattr(self._rng, name)

        made = {}

        def counting_rng(seed):
            made[seed] = Counting(seed)
            return made[seed]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        self._flag_runs(monkeypatch, {6: [1]})
        flagged = training.diverged_runs
        drawn = []

        def count_draws(pool):
            drawn.append([made[seed].calls for seed in (1, 2)])
            return flagged(pool)

        monkeypatch.setattr(training, "diverged_runs", count_draws)
        cfg = TrainerConfig(batch_size=16, max_iters=60)
        runs = train_runs(bicycle, cfg, seeds=[1, 2], gammas=[0.5, 0.9, 0.99])
        assert sorted(made) == [1, 2]
        assert runs.iterations.tolist() == [60, 5, 60, 60, 60, 60]
        # One guard check after the initial draw and one per iteration.
        assert drawn == [[step] * 2 for step in range(1, 62)]
        n, m_count, width = bicycle.n, cfg.batch_size, bicycle.p + bicycle.r
        for seed in (1, 2):
            assert made[seed].sizes == [n * m_count] + [m_count * width] * 60

    def test_gain_is_mean_of_recorded_tail(self, bicycle, monkeypatch):
        # A run's gain is the mean of its iterates over the final half of
        # max_iters: of 401 iterations, the tail starts at ceil(401 / 2) =
        # 201 and averages iterates 201-401.  Run 1, reported diverged at
        # iteration 150, has no gain.
        self._flag_runs(monkeypatch, {151: [1]})
        runs = train_runs(bicycle, TrainerConfig(max_iters=401),
                          seeds=[1, 2, 3])
        assert runs.iterations.tolist() == [401, 150, 401]
        assert np.isnan(runs.gains[1]).all()
        for k in (0, 2):
            np.testing.assert_array_equal(
                runs.gains[k], runs.theta[k, 200:401].sum(axis=0) / 201)

    @pytest.mark.parametrize("estimator", ["analytic", "sampled"])
    def test_gain_and_stop_past_the_first_thousand_iterations(
            self, bicycle, monkeypatch, estimator):
        # Past iteration 1 000 the record keeps every 10th iteration, so
        # the gain, the stop and the record are checked here against every
        # iterate, captured from the actor's Adam steps (the second of each
        # iteration's two).  The tail starts at iteration 1 250, and the
        # stopped run is reported diverged at iteration 1 733.
        cfg = TrainerConfig(batch_size=16, max_iters=2500, estimator=estimator)
        tail_start, expected = 1250, 1733

        def run(flags):
            steps = []

            def capturing(*args):
                out = adam_update(*args)
                steps.append(out[0][0])
                return out

            with monkeypatch.context() as patch:
                patch.setattr(training, "adam_update", capturing)
                self._flag_runs(patch, flags)
                runs = train_runs(bicycle, cfg, seeds=[0])
            return runs, np.array(steps[1::2])

        free, iterates = run({})
        assert free.iterations[0] == len(iterates) == 2500
        assert free.errors == [None]
        np.testing.assert_array_equal(
            free.gains[0], iterates[tail_start - 1:].mean(axis=0))
        runs, stopped = run({expected + 1: [0]})
        assert runs.iterations[0] == len(stopped) == expected
        assert runs.errors[0].startswith("error pool diverged")
        assert np.isnan(runs.gains[0]).all()
        np.testing.assert_array_equal(stopped, iterates[:expected])
        for result in (free, runs):
            stop = result.iterations[0]
            history = result.history(0)
            assert history.iters[-1] == stop // 10 * 10
            np.testing.assert_array_equal(history.theta,
                                          iterates[history.iters - 1])

    def test_memory_does_not_grow_with_max_iters(self, bicycle):
        # 100 runs (20 seeds x 5 discounts) of 1 100 iterations against the
        # same runs of 1 000: past 1 000 the record keeps every 10th
        # iteration, so it adds 10 rows of 48 B for each run and the spare,
        # about 48 kB, and nothing else in a run's state grows with its
        # iteration budget.  A record of every iteration would add 480 kB,
        # over three times the bound.  An untraced one-iteration call first
        # makes what the first call of a process allocates once.
        seeds = list(range(20))
        train_runs(bicycle, TrainerConfig(batch_size=16, max_iters=1),
                   seeds=seeds, gammas=DEFAULT_GAMMA_SWEEP)

        def peak(max_iters):
            cfg = TrainerConfig(batch_size=16, max_iters=max_iters)
            tracemalloc.start()
            try:
                runs = train_runs(bicycle, cfg, seeds=seeds,
                                  gammas=DEFAULT_GAMMA_SWEEP)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert runs.errors == [None] * 100
            return top

        assert abs(peak(1100) - peak(1000)) < 150e3

    def test_grid_drops_stopped_discounts_and_seeds(self, bicycle,
                                                    monkeypatch):
        # In seeds [0, 1, 2] x discounts [0.5, 0.9], seed 1's runs stop at
        # iterations 5 (run 1) and 10 (run 4), after which its column
        # leaves the stack and its generator draws no more; the runs of
        # discount 0.5 that are left, 0 and 2, stop at 15, after which that
        # row leaves too.  Every run's record equals the run trained alone,
        # up to its stop, and is zero after it.
        cfg = TrainerConfig(batch_size=16, max_iters=60)
        seeds, gammas = [0, 1, 2], [0.5, 0.9]
        alone = [train(bicycle, replace(cfg, seed=seed, gamma=gamma))
                 for seed, gamma in grid(seeds, gammas)]
        calls = self._flag_runs(monkeypatch, {6: [1], 11: [4], 16: [0, 1]})
        real_draw, draws = training._draw_normals, []

        def counting_draw(normals, out):
            draws.append(len(normals))
            return real_draw(normals, out)

        monkeypatch.setattr(training, "_draw_normals", counting_draw)
        runs = train_runs(bicycle, cfg, seeds=seeds, gammas=gammas)
        assert calls == [6] * 11 + [4] * 5 + [2] * 45
        assert draws == [3] * 10 + [2] * 50
        assert runs.iterations.tolist() == [15, 5, 15, 60, 10, 60]
        self._assert_record_ends_at_stop(runs)
        for k, stop in enumerate(runs.iterations):
            _, history = alone[k]
            np.testing.assert_array_equal(runs.history(k).theta,
                                          history.theta[:stop])
            np.testing.assert_array_equal(runs.history(k).critic_loss,
                                          history.critic_loss[:stop])
        for k in (3, 5):
            np.testing.assert_array_equal(runs.gains[k], alone[k][0])

    def test_history_reads_any_selection_of_runs(self, bicycle, bicycle_dare,
                                                 monkeypatch):
        # Run 1 stops at iteration 5, so its record and the average of
        # every run are cut to five rows; a run index reads its own record.
        cfg = TrainerConfig(batch_size=16, max_iters=30)
        self._flag_runs(monkeypatch, {6: [1]})
        runs = train_runs(bicycle, cfg, seeds=[0, 1, 2],
                          ref_gain=bicycle_dare.gain)
        for k in range(3):
            alone = runs.history(k)
            rows = len(alone.iters)
            assert alone.iterations == runs.iterations[k] == rows
            assert alone.theta.tobytes() == runs.theta[k, :rows].tobytes()
            assert (alone.diff.tobytes()
                    == (runs.theta[k, :rows] - bicycle_dare.gain).tobytes())
            for field in ("critic_loss", "actor_loss"):
                assert (getattr(alone, field).tobytes()
                        == getattr(runs, field)[k, :rows].tobytes())
        assert runs.history().iterations == 5
        np.testing.assert_array_equal(
            runs.history().critic_loss,
            runs.critic_loss[:, :5].sum(axis=0) / 3)

    @pytest.mark.parametrize("selection, error, message", [
        (True, ValueError, "run=True must be a run index"),
        (2, IndexError, "run 2 is not one of the 2 runs 0 .. 1"),
        (-1, IndexError, "run -1 is not one of the 2 runs"),
    ], ids=["bool", "past-the-end", "negative"])
    def test_history_refuses_a_bad_selection(self, bicycle, selection, error,
                                             message):
        runs = train_runs(bicycle, TrainerConfig(batch_size=4, max_iters=3),
                          seeds=[0, 1])
        with pytest.raises(error, match=message):
            runs.history(selection)

    def test_all_zero_reference_gain_refused(self, bicycle):
        # A zero reference would set the divergence guard at zero scale.
        with pytest.raises(ValueError, match="ref_gain is all zero"):
            train_runs(bicycle, TrainerConfig(max_iters=1),
                       ref_gain=np.zeros((2, 2)))

    @pytest.mark.parametrize("ref_gain", [
        [[np.nan, 0.1], [0.2, 0.3]], [[np.inf, 0.1], [0.2, 0.3]],
        np.ones((3, 2)), np.ones(2)], ids=["nan", "inf", "3x2", "vector"])
    def test_bad_reference_gain_refused(self, bicycle, ref_gain):
        # A NaN entry would flag every run diverged, an inf one switch the
        # guard off, and a wrong shape broadcast into every history's diff.
        with pytest.raises(ValueError, match="ref_gain must be a finite "
                                             "2 x 2 matrix"):
            train_runs(bicycle, TrainerConfig(max_iters=1),
                       ref_gain=ref_gain)

    def test_discounts_validated(self, bicycle):
        cfg = TrainerConfig(max_iters=1)
        with pytest.raises(ValueError, match="gamma"):
            train_runs(bicycle, cfg, seeds=[0, 1], gammas=[0.5, 1.0])
        with pytest.raises(ValueError, match="at least one discount"):
            train_runs(bicycle, cfg, seeds=[0, 1], gammas=[])

    def test_run_diverging_mid_stack_raises_no_warning(self, bicycle,
                                                       bicycle_dare,
                                                       monkeypatch):
        # Sampled at batch 32 with an actor step of 0.05, seed 0 diverges
        # at discount 0.01 (iteration 110) but not at 0.99, and seed 1 at
        # neither.  The diverged run steps on in the stack until its pool
        # overflows (to nan by iteration 240), and no RuntimeWarning leaves
        # the stack.
        real, worst_seen = training.diverged_runs, []

        def spy(pool):
            worst, diverged = real(pool)
            worst_seen.append(worst.copy())
            return worst, diverged

        monkeypatch.setattr(training, "diverged_runs", spy)
        cfg = TrainerConfig(batch_size=32, max_iters=300, lr_actor=0.05,
                            estimator="sampled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = train_runs(bicycle, cfg, seeds=[0, 1],
                              gammas=[0.01, 0.99], ref_gain=bicycle_dare.gain)
        assert runs.iterations.tolist() == [110, 300, 300, 300]
        assert "pool diverged" in runs.errors[0]
        assert runs.errors[1] is runs.errors[2] is runs.errors[3] is None
        # Squaring an entry beyond 1e154 overflows.
        assert not all((worst <= 1e154).all() for worst in worst_seen)
        self._assert_record_ends_at_stop(runs)

    def test_small_sampled_batches_run_to_the_end(self, bicycle,
                                                  bicycle_dare):
        # Sampled at batch 32, runs started from errors far from the
        # stationary spread used to leave the stable gains: from a 20-step
        # burn-in of the vehicle's box, 9 of these 12 runs diverged by
        # iteration 235.  Started from the stationary pool, all 12 run the
        # 1 000 iterations.
        cfg = TrainerConfig(batch_size=32, max_iters=1000,
                            estimator="sampled")
        runs = train_runs(bicycle, cfg, seeds=[1, 2, 3, 4],
                          gammas=[0.01, 0.5, 0.99], ref_gain=bicycle_dare.gain)
        assert runs.errors == [None] * 12
        assert runs.iterations.tolist() == [1000] * 12

    @pytest.mark.parametrize("seeds, gammas, message", [
        ([4, 1, 4], [0.5], r"seeds\[2\] repeats seeds\[0\] = 4"),
        ([0], [0.5, 0.9, 0.5], r"gammas\[2\] repeats gammas\[0\] = 0.5"),
        ([0], [0, 0.0], r"gammas\[1\] repeats gammas\[0\] = 0"),
    ], ids=["seed", "discount", "zero"])
    def test_repeated_seed_or_discount_refused(self, bicycle, seeds, gammas,
                                               message):
        # A repeated grid row or column would train the same runs again.
        with pytest.raises(ValueError, match=message):
            train_runs(bicycle, TrainerConfig(max_iters=1), seeds=seeds,
                       gammas=gammas)

    def test_fractional_seed_rejected(self, bicycle):
        # Truncating 1.5 would silently train seed 1.
        with pytest.raises(ValueError, match=re.escape(
                "seed must be an integer >= 0, got 1.5")):
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
