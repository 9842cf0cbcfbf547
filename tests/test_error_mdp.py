import itertools

import numpy as np
import pytest

from steadygain import (
    LinearGaussianModel,
    NoiseDraw,
    draw_noise,
    sample_initial_error,
    spectral_radius,
    step,
)
from steadygain.error_mdp import (VEHICLE_INITIAL_ERROR, NoiseStack,
                                  diverged_runs)

from conftest import random_system, scalar_model


def identity_output_model(a_diag=0.5, q=1.0, r=1.0, n=2):
    return LinearGaussianModel(
        A=a_diag * np.eye(n), B=np.zeros((n, 1)), C=np.eye(n),
        D=np.zeros((n, 1)), E=np.eye(n), Q=q * np.eye(n), R=r * np.eye(n),
        dt=0.01)


class TestStep:
    def test_scalar_arithmetic(self):
        model = LinearGaussianModel(
            A=[[2.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]], E=[[1.0]],
            Q=[[1.0]], R=[[1.0]], dt=0.01)
        noise = NoiseDraw(xi=[[0.2]], zeta=[[0.4]])
        nxt, reward = step(model, np.array([[1.0]]), np.array([[0.5]]), noise)
        assert nxt[0, 0] == pytest.approx(0.9, rel=1e-14)
        assert reward[0] == pytest.approx(-0.81, rel=1e-14)

    def test_open_loop_propagation(self, bicycle):
        noise = NoiseDraw(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        s = np.array([[0.1, -0.2]])
        nxt, _ = step(bicycle, s, np.zeros((2, 2)), noise)
        np.testing.assert_allclose(nxt, s @ bicycle.A.T, rtol=1e-14)

    def test_perfect_correction(self):
        model = identity_output_model()
        noise = NoiseDraw(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        nxt, reward = step(model, np.array([[0.3, -0.7]]), np.eye(2), noise)
        np.testing.assert_array_equal(nxt, np.zeros((1, 2)))
        assert reward[0] == 0.0

    def test_linear_in_state_without_noise(self, bicycle):
        rng = np.random.default_rng(2)
        gain = rng.standard_normal((2, 2)) * 0.1
        s = rng.standard_normal((1, 2))
        noise = NoiseDraw(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        base, _ = step(bicycle, s, gain, noise)
        for alpha in (0.0, -1.5, 3.0):
            scaled, _ = step(bicycle, alpha * s, gain, noise)
            np.testing.assert_allclose(scaled, alpha * base, atol=1e-15)

    def test_batch_matches_single(self, bicycle):
        rng = np.random.default_rng(4)
        gain = rng.standard_normal((2, 2)) * 0.05
        states = rng.standard_normal((8, 2))
        noise = draw_noise(bicycle, rng, size=8)
        batch_next, batch_reward = step(bicycle, states, gain, noise)
        for i in range(8):
            single = NoiseDraw(xi=noise.xi[i:i + 1], zeta=noise.zeta[i:i + 1])
            nxt, reward = step(bicycle, states[i:i + 1], gain, single)
            np.testing.assert_allclose(batch_next[i], nxt[0], rtol=1e-14)
            assert batch_reward[i] == pytest.approx(reward[0], rel=1e-12)

    def test_shared_noise_broadcasts_over_stack(self, bicycle):
        rng = np.random.default_rng(5)
        gains = rng.standard_normal((3, 2, 2)) * 0.05
        states = rng.standard_normal((3, 8, 2))
        noise = NoiseDraw(xi=rng.standard_normal((1, 8, 2)),
                          zeta=rng.standard_normal((1, 8, 2)))
        nxt, reward = step(bicycle, states, gains, noise)
        for k in range(3):
            alone, alone_reward = step(bicycle, states[k:k + 1],
                                       gains[k:k + 1], noise)
            np.testing.assert_array_equal(nxt[k], alone[0])
            np.testing.assert_array_equal(reward[k], alone_reward[0])

    def test_shared_noise_shapes_checked(self, bicycle):
        states = np.zeros((3, 8, 2))
        gains = np.zeros((3, 2, 2))
        for xi, zeta in [((1, 7, 2), (1, 7, 2)), ((1, 8, 3), (1, 8, 2)),
                         ((1, 8, 2), (3, 8, 2)), ((1, 8, 2), (2, 8, 2))]:
            with pytest.raises(ValueError):
                step(bicycle, states, gains,
                     NoiseDraw(xi=np.zeros(xi), zeta=np.zeros(zeta)))
        # a leading axis of 1 broadcasts only over a stack
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((8, 2)), np.zeros((2, 2)),
                 NoiseDraw(xi=np.zeros((1, 8, 2)), zeta=np.zeros((1, 8, 2))))

    def test_reward_nonpositive(self, bicycle):
        rng = np.random.default_rng(6)
        for _ in range(50):
            noise = draw_noise(bicycle, rng, size=1)
            _, reward = step(bicycle, rng.standard_normal((1, 2)),
                             rng.standard_normal((2, 2)), noise)
            assert reward[0] <= 0.0

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["per_batch", "shared"])
    def test_stack_matches_written_formula_on_random_plants(self, shared):
        # e' = (I - K C)(A e + E xi) - K zeta per member, reward -sum e'^2.
        rng = np.random.default_rng(17 + shared)
        count, size = 3, 5
        for n, r, p in itertools.product(range(1, 5), repeat=3):
            model = random_system(rng, n=n, r=r, p=p)
            gains = 0.3 * rng.standard_normal((count, n, r))
            states = rng.standard_normal((count, size, n))
            lead = 1 if shared else count
            noise = NoiseDraw(xi=rng.standard_normal((lead, size, p)),
                              zeta=rng.standard_normal((lead, size, r)))
            nxt, reward = step(model, states, gains, noise)
            expected = np.empty_like(states)
            for k, i in itertools.product(range(count), range(size)):
                j = 0 if shared else k
                closed = np.eye(n) - gains[k] @ model.C
                expected[k, i] = (
                    closed @ (model.A @ states[k, i] + model.E @ noise.xi[j, i])
                    - gains[k] @ noise.zeta[j, i])
            # An entry that cancels to near zero is held to the batch's
            # scale: the two association orders differ by a rounding there.
            np.testing.assert_allclose(
                nxt, expected, rtol=1e-13,
                atol=1e-13 * np.abs(expected).max())
            np.testing.assert_allclose(reward, -(expected ** 2).sum(axis=-1),
                                       rtol=1e-13)

    def test_dimension_errors(self, bicycle):
        noise = NoiseDraw(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((1, 3)), np.zeros((2, 2)), noise)
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((1, 2)), np.zeros((3, 2)), noise)
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((1, 2)), np.zeros((2, 2)),
                 NoiseDraw(xi=np.zeros((1, 3)), zeta=np.zeros((1, 2))))
        # a single state is not a batch
        with pytest.raises(ValueError, match="batch"):
            step(bicycle, np.zeros(2), np.zeros((2, 2)),
                 NoiseDraw(xi=np.zeros(2), zeta=np.zeros(2)))
        # a stack of gains needs one state batch per gain
        stack_noise = NoiseDraw(xi=np.zeros((2, 4, 2)), zeta=np.zeros((2, 4, 2)))
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((2, 4, 2)), np.zeros((3, 2, 2)), stack_noise)
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((4, 2)), np.zeros((2, 2, 2)),
                 NoiseDraw(xi=np.zeros((4, 2)), zeta=np.zeros((4, 2))))


class TestSampleInitialError:
    def test_fixed_value(self, bicycle):
        (e0,) = sample_initial_error(bicycle, "fixed", size=1)
        assert round(e0[0], 5) == 0.08727
        assert round(e0[1], 5) == 0.17453
        np.testing.assert_allclose(e0, [np.pi / 36, np.pi / 18], rtol=1e-15)

    def test_fixed_batch(self, bicycle):
        batch = sample_initial_error(bicycle, "fixed", size=5)
        assert batch.shape == (5, 2)
        np.testing.assert_array_equal(batch,
                                      np.tile(VEHICLE_INITIAL_ERROR, (5, 1)))

    def test_uniform_box_bounds_and_mean(self, bicycle):
        rng = np.random.default_rng(8)
        n_draws = 10_000
        draws = sample_initial_error(bicycle, "uniform_box", rng, size=n_draws)
        half = np.asarray(VEHICLE_INITIAL_ERROR)
        assert np.all(np.abs(draws) <= half)
        # mean of U(-h, h) has std h / sqrt(3 N)
        tol = 3.0 * half / np.sqrt(3.0 * n_draws)
        assert np.all(np.abs(draws.mean(axis=0)) <= tol)

    def test_zero_width_override(self, bicycle):
        rng = np.random.default_rng(9)
        draws = sample_initial_error(bicycle, "uniform_box", rng, size=4,
                                     bounds=(0.0, 0.0))
        np.testing.assert_array_equal(draws, np.zeros((4, 2)))

    def test_uniform_box_requires_two_dims(self):
        model = scalar_model()
        with pytest.raises(ValueError, match="2-dimensional"):
            sample_initial_error(model, "uniform_box",
                                 np.random.default_rng(0), size=1)
        # explicit bounds lift the restriction
        draws = sample_initial_error(model, "uniform_box",
                                     np.random.default_rng(0), size=3,
                                     bounds=(0.5,))
        assert draws.shape == (3, 1)

    def test_fixed_requires_two_dims(self):
        with pytest.raises(ValueError):
            sample_initial_error(scalar_model(), "fixed", size=1)

    def test_default_refused_on_three_states_naming_both(self):
        model = identity_output_model(n=3)
        for mode in ("fixed", "uniform_box"):
            with pytest.raises(ValueError, match="2-dimensional.*n=3"):
                sample_initial_error(model, mode, np.random.default_rng(0),
                                     size=2)

    def test_explicit_bounds_on_three_states(self):
        model = identity_output_model(n=3)
        bounds = (0.1, 0.2, 0.3)
        fixed = sample_initial_error(model, "fixed", size=4, bounds=bounds)
        np.testing.assert_array_equal(fixed, np.tile(bounds, (4, 1)))
        draws = sample_initial_error(model, "uniform_box",
                                     np.random.default_rng(3), size=1000,
                                     bounds=bounds)
        assert draws.shape == (1000, 3)
        assert np.all(np.abs(draws) <= bounds)
        # The draws fill the box: each component comes near its bound.
        assert np.all(np.abs(draws).max(axis=0) > 0.9 * np.asarray(bounds))

    def test_bound_count_checked(self):
        with pytest.raises(ValueError, match="need 3 bounds, got 2"):
            sample_initial_error(identity_output_model(n=3), "fixed", size=1,
                                 bounds=(0.1, 0.2))

    def test_unknown_mode(self, bicycle):
        with pytest.raises(ValueError, match="mode"):
            sample_initial_error(bicycle, "gaussian",
                                 np.random.default_rng(0), size=1)


def refresh(model, pool, gain, rng):
    """Advance every pool member one transition with fresh noise."""
    nxt, _ = step(model, pool, gain, draw_noise(model, rng, size=len(pool)))
    return nxt


class TestRefreshPool:
    """Pools advanced by ``step`` on ``draw_noise`` (a one-run NoiseStack
    draw, as in training) and checked by the ``diverged_runs`` guard."""

    def test_origin_fixed_point_without_noise(self):
        model = identity_output_model(q=0.0, r=1e-30)
        pool = np.zeros((16, 2))
        rng = np.random.default_rng(10)
        out = refresh(model, pool, np.zeros((2, 2)), rng)
        np.testing.assert_array_equal(out, pool)
        assert not diverged_runs(out)[1]

    def test_steady_pool_matches_filtered_covariance(self, bicycle,
                                                     bicycle_dare):
        # Monte Carlo route vs the Riccati fixed point: the pool advanced
        # under the steady gain settles at the filtered covariance.
        k_inf = bicycle_dare.gain
        filtered = (np.eye(2) - k_inf @ bicycle.C) @ bicycle_dare.sigma
        rng = np.random.default_rng(12)
        pool = sample_initial_error(bicycle, "uniform_box", rng, size=1024)
        for _ in range(500):
            pool = refresh(bicycle, pool, k_inf, rng)
        assert not diverged_runs(pool)[1]
        empirical = pool.T @ pool / len(pool)
        rel = (np.linalg.norm(empirical - filtered, "fro")
               / np.linalg.norm(filtered, "fro"))
        assert rel < 0.15

    def test_divergence_detected_for_destabilizing_gain(self, bicycle):
        gain = np.array([[0.0, 0.0], [0.0, -30.0]])
        closed = (np.eye(2) - gain @ bicycle.C) @ bicycle.A
        assert spectral_radius(closed) > 1.0
        rng = np.random.default_rng(13)
        pool = sample_initial_error(bicycle, "uniform_box", rng, size=32)
        for _ in range(2000):
            pool = refresh(bicycle, pool, gain, rng)
            _, diverged = diverged_runs(pool)
            if diverged:
                break
        assert diverged

    def test_second_moment_stabilizes(self, bicycle, bicycle_dare):
        # Under a stabilizing gain the window-averaged second moment of the
        # pool settles: consecutive 100-refresh averages agree within 5%.
        rng = np.random.default_rng(14)
        pool = sample_initial_error(bicycle, "uniform_box", rng, size=256)
        gain = bicycle_dare.gain
        for _ in range(400):
            pool = refresh(bicycle, pool, gain, rng)

        def window_moment():
            nonlocal pool
            acc = np.zeros((2, 2))
            for _ in range(100):
                pool = refresh(bicycle, pool, gain, rng)
                acc += pool.T @ pool / len(pool)
            return acc / 100

        first = window_moment()
        second = window_moment()
        rel = (np.linalg.norm(second - first, "fro")
               / np.linalg.norm(first, "fro"))
        assert rel < 0.05
        assert not diverged_runs(pool)[1]

    def test_diverged_runs_flags_each_run(self):
        pools = np.zeros((9, 3, 2))
        pools[1, 2, 0] = np.nan
        pools[2, 0, 1] = -1e13
        pools[3, 1, 1] = np.inf
        pools[4, 0, 0] = -np.inf
        pools[5] = np.nan
        pools[6] = -0.0
        pools[7, :, 0] = -0.0
        pools[8, 1] = (-3.0, 2.0)
        worst, diverged = diverged_runs(pools)
        assert diverged.tolist() == [False, True, True, True, True, True,
                                     False, False, False]
        assert worst[0] == 0.0 and worst[2] == 1e13
        # Each run's worst is abs(pool).max(), +0.0 for a pool of zeros.
        reference = np.abs(pools).max(axis=(1, 2))
        np.testing.assert_array_equal(worst, reference)
        assert not np.signbit(worst[worst == 0.0]).any()
        for pool, expected in zip(pools, reference):
            alone = diverged_runs(pool)[0]
            np.testing.assert_array_equal(alone, expected)
            assert not (alone == 0.0 and np.signbit(alone))

    def test_pool_validation(self):
        # An empty pool has no largest entry, so the guard refuses it.
        with pytest.raises(ValueError):
            diverged_runs(np.zeros((0, 2)))


class TestNoiseDraw:
    def test_covariance_of_draws(self, bicycle):
        rng = np.random.default_rng(16)
        noise = draw_noise(bicycle, rng, size=200_000)
        emp_q = noise.xi.T @ noise.xi / len(noise.xi)
        emp_r = noise.zeta.T @ noise.zeta / len(noise.zeta)
        assert np.abs(emp_q - bicycle.Q).max() < 0.03 * np.abs(bicycle.Q).max()
        np.testing.assert_allclose(np.diag(emp_r), np.diag(bicycle.R),
                                   rtol=0.03)

    def test_seeded_reproducibility(self, bicycle):
        a = draw_noise(bicycle, np.random.default_rng(21), size=10)
        b = draw_noise(bicycle, np.random.default_rng(21), size=10)
        np.testing.assert_array_equal(a.xi, b.xi)
        np.testing.assert_array_equal(a.zeta, b.zeta)

    def test_is_one_run_of_a_stack(self, bicycle):
        # Run k of a stack draws what its generator alone would, whatever
        # the other runs are.
        stack = NoiseStack(bicycle, [np.random.default_rng(seed)
                                     for seed in (30, 31, 32)], 6)
        alone = np.random.default_rng(31)
        for _ in range(2):
            drawn = stack.draw()
            own = draw_noise(bicycle, alone, 6)
            np.testing.assert_array_equal(drawn.xi[1], own.xi)
            np.testing.assert_array_equal(drawn.zeta[1], own.zeta)
