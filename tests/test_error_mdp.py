import itertools

import numpy as np
import pytest

from steadygain import (
    LinearGaussianModel,
    draw_noise,
    sample_initial_error,
    spectral_radius,
    step,
)
from steadygain.error_mdp import (VEHICLE_INITIAL_ERROR, _draw_normals,
                                  cov_factor, diverged_runs)

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
        nxt, reward = step(model, np.array([[1.0]]), np.array([[0.5]]),
                           [[0.2]], [[0.4]])
        assert nxt[0, 0] == pytest.approx(0.9, rel=1e-14)
        assert reward[0] == pytest.approx(-0.81, rel=1e-14)

    def test_open_loop_propagation(self, bicycle):
        noise = np.zeros((1, 2)), np.zeros((1, 2))
        s = np.array([[0.1, -0.2]])
        nxt, _ = step(bicycle, s, np.zeros((2, 2)), *noise)
        np.testing.assert_allclose(nxt, s @ bicycle.A.T, rtol=1e-14)

    def test_perfect_correction(self):
        model = identity_output_model()
        noise = np.zeros((1, 2)), np.zeros((1, 2))
        nxt, reward = step(model, np.array([[0.3, -0.7]]), np.eye(2), *noise)
        np.testing.assert_array_equal(nxt, np.zeros((1, 2)))
        assert reward[0] == 0.0

    def test_linear_in_state_without_noise(self, bicycle):
        rng = np.random.default_rng(2)
        gain = rng.standard_normal((2, 2)) * 0.1
        s = rng.standard_normal((1, 2))
        noise = np.zeros((1, 2)), np.zeros((1, 2))
        base, _ = step(bicycle, s, gain, *noise)
        for alpha in (0.0, -1.5, 3.0):
            scaled, _ = step(bicycle, alpha * s, gain, *noise)
            np.testing.assert_allclose(scaled, alpha * base, atol=1e-15)

    def test_batch_matches_single(self, bicycle):
        rng = np.random.default_rng(4)
        gain = rng.standard_normal((2, 2)) * 0.05
        states = rng.standard_normal((8, 2))
        xi, zeta = draw_noise(bicycle, rng, size=8)
        batch_next, batch_reward = step(bicycle, states, gain, xi, zeta)
        for i in range(8):
            nxt, reward = step(bicycle, states[i:i + 1], gain, xi[i:i + 1],
                               zeta[i:i + 1])
            np.testing.assert_allclose(batch_next[i], nxt[0], rtol=1e-14)
            assert batch_reward[i] == pytest.approx(reward[0], rel=1e-12)

    def test_reward_nonpositive(self, bicycle):
        rng = np.random.default_rng(6)
        for _ in range(50):
            noise = draw_noise(bicycle, rng, size=1)
            _, reward = step(bicycle, rng.standard_normal((1, 2)),
                             rng.standard_normal((2, 2)), *noise)
            assert reward[0] <= 0.0

    def test_matches_written_formula_on_random_plants(self):
        # e' = (I - K C)(A e + E xi) - K zeta per member, reward -sum e'^2.
        rng = np.random.default_rng(17)
        size = 5
        for n, r, p in itertools.product(range(1, 5), repeat=3):
            model = random_system(rng, n=n, r=r, p=p)
            gain = 0.3 * rng.standard_normal((n, r))
            states = rng.standard_normal((size, n))
            xi = rng.standard_normal((size, p))
            zeta = rng.standard_normal((size, r))
            nxt, reward = step(model, states, gain, xi, zeta)
            closed = np.eye(n) - gain @ model.C
            expected = np.array([
                closed @ (model.A @ states[i] + model.E @ xi[i])
                - gain @ zeta[i] for i in range(size)])
            # An entry that cancels to near zero is held to the batch's
            # scale: the two association orders differ by a rounding there.
            np.testing.assert_allclose(
                nxt, expected, rtol=1e-13,
                atol=1e-13 * np.abs(expected).max())
            np.testing.assert_allclose(reward, -(expected ** 2).sum(axis=-1),
                                       rtol=1e-13)

    def test_dimension_errors(self, bicycle):
        noise = np.zeros((1, 2)), np.zeros((1, 2))
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((1, 3)), np.zeros((2, 2)), *noise)
        with pytest.raises(ValueError):
            step(bicycle, np.zeros((1, 2)), np.zeros((3, 2)), *noise)
        with pytest.raises(ValueError, match="process noise shape"):
            step(bicycle, np.zeros((1, 2)), np.zeros((2, 2)),
                 np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="measurement noise shape"):
            step(bicycle, np.zeros((1, 2)), np.zeros((2, 2)),
                 np.zeros((1, 2)), np.zeros((1, 3)))
        # One noise row does not broadcast over the batch.
        with pytest.raises(ValueError, match="noise shape"):
            step(bicycle, np.zeros((8, 2)), np.zeros((2, 2)), *noise)
        # a single state is not a batch
        with pytest.raises(ValueError, match="batch"):
            step(bicycle, np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                 np.zeros(2))
        # One gain advances one batch: a stack of gains or of state
        # batches is refused, naming its shape.
        stack_noise = np.zeros((3, 4, 2)), np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match=r"gain .*\(3, 2, 2\)"):
            step(bicycle, np.zeros((3, 4, 2)), np.zeros((3, 2, 2)),
                 *stack_noise)
        with pytest.raises(ValueError, match=r"state .*\(3, 4, 2\)"):
            step(bicycle, np.zeros((3, 4, 2)), np.zeros((2, 2)), *stack_noise)


class TestSampleInitialError:
    def test_uniform_box_bounds_and_mean(self, bicycle):
        rng = np.random.default_rng(8)
        n_draws = 10_000
        draws = sample_initial_error(bicycle, rng, size=n_draws)
        half = np.asarray(VEHICLE_INITIAL_ERROR)
        np.testing.assert_allclose(half, [np.pi / 36, np.pi / 18], rtol=1e-15)
        assert np.all(np.abs(draws) <= half)
        # mean of U(-h, h) has std h / sqrt(3 N)
        tol = 3.0 * half / np.sqrt(3.0 * n_draws)
        assert np.all(np.abs(draws.mean(axis=0)) <= tol)

    def test_uniform_box_requires_two_dims(self):
        model = scalar_model()
        with pytest.raises(ValueError, match="vehicle's 2-state box"):
            sample_initial_error(model, np.random.default_rng(0), size=1)

    def test_default_refused_on_three_states_naming_both(self):
        model = identity_output_model(n=3)
        with pytest.raises(ValueError, match="vehicle's 2-state box, but the "
                                             "model has n=3$"):
            sample_initial_error(model, np.random.default_rng(0), size=2)


def refresh(model, pool, gain, rng):
    """Advance every pool member one transition with fresh noise."""
    nxt, _ = step(model, pool, gain, *draw_noise(model, rng, size=len(pool)))
    return nxt


class TestRefreshPool:
    """Pools advanced by ``step`` on ``draw_noise`` (one ``standard_normal``
    call, the stream training draws) and checked by the ``diverged_runs``
    guard."""

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
        pool = sample_initial_error(bicycle, rng, size=1024)
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
        pool = sample_initial_error(bicycle, rng, size=32)
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
        pool = sample_initial_error(bicycle, rng, size=256)
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
    @pytest.mark.parametrize("n, r, p", [(2, 2, 2), (3, 1, 2), (1, 3, 1)])
    def test_one_block_per_generator_step(self, n, r, p):
        # Each generator fills its (p + r, M) block with its next
        # standard_normal((p + r, M)): p rows for xi over r for zeta.  On
        # the same seed, draw_noise gives those normals coloured by the
        # cov_factor factors of Q and R, members on the first axis.
        model = random_system(np.random.default_rng(40 + n), n=n, r=r, p=p)
        size, seeds = 7, [3, 8]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        refs = [np.random.default_rng(seed) for seed in seeds]
        out = np.empty((len(seeds), p + r, size))
        for _ in range(3):
            drawn = _draw_normals([rng.standard_normal for rng in rngs], out)
            assert drawn is out
            for block, ref in zip(out, refs):
                np.testing.assert_array_equal(
                    block, ref.standard_normal((p + r, size)))
        xi, zeta = draw_noise(model, np.random.default_rng(seeds[0]), size)
        first = np.random.default_rng(seeds[0]).standard_normal(
            (p + r, size))
        assert xi.shape == (size, p) and zeta.shape == (size, r)
        assert xi.flags.c_contiguous and zeta.flags.c_contiguous
        np.testing.assert_array_equal(xi, (cov_factor(model.Q) @ first[:p]).T)
        np.testing.assert_array_equal(zeta,
                                      (cov_factor(model.R) @ first[p:]).T)

    def test_covariance_of_draws(self, bicycle):
        rng = np.random.default_rng(16)
        xi, zeta = draw_noise(bicycle, rng, size=200_000)
        emp_q = xi.T @ xi / len(xi)
        emp_r = zeta.T @ zeta / len(zeta)
        assert np.abs(emp_q - bicycle.Q).max() < 0.03 * np.abs(bicycle.Q).max()
        np.testing.assert_allclose(np.diag(emp_r), np.diag(bicycle.R),
                                   rtol=0.03)

    def test_seeded_reproducibility(self, bicycle):
        a = draw_noise(bicycle, np.random.default_rng(21), size=10)
        b = draw_noise(bicycle, np.random.default_rng(21), size=10)
        np.testing.assert_array_equal(a, b)
