"""Actor-critic policy iteration for the steady-state gain.

The critic is the quadratic value V(s; w) = -s^T w s with a symmetric
weight matrix w; the actor is the constant gain matrix itself.  Each
iteration forms one law of the pool's next error s' under the current
gain, which returns the critic's temporal-difference error of each member
and the actor's two moments of s'; neither step takes a law.  The critic
takes a semi-gradient step on the TD error (bootstrap target frozen), the
actor ascends the exact derivative of the one-step return through the
linear transition, and Adam applies both (:func:`adam_update` descends,
so the actor hands it its negated gradient).

Each gradient estimator is one law function: ``"sampled"``
(:func:`_drawn_law`) draws one noise realization per pool member, and
``"analytic"`` (:func:`_integrated_law`, the default) integrates the
Gaussian noise out, which removes the measurement-noise sampling variance
that otherwise dominates the gain columns tied to low-noise measurements;
the pool itself still evolves stochastically.

:func:`train_runs` advances a grid of discounts x seeds as one stack of
runs on a leading axis, with one set of array operations per iteration:
gains (K, n, r), critics (K, n, n), one discount per run, and pools held
as (K, n, M), members on the last axis, so that each moment summed over a
pool is a BLAS product.  Each seed's pool starts as one draw from the
stationary law of the zero-gain error process, N(0, P) with
P = A P A^T + E Q E^T, so a plant with rho(A) >= 1, which has none, is
refused.  No state of a run grows with ``max_iters``: a running sum of
its iterates gives its tail-averaged gain (Polyak & Juditsky 1992), and
its record keeps the iterations with at most three significant digits
(every one to 1 000, then every 10th to 10 000, and so on), which
:meth:`TrainRuns.history` reads.  :func:`train_average` is the
seed-averaged form of :func:`train_runs` at one discount, :func:`train`
one seed's.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, replace

import numpy as np

# draw_noise and step are unused here.  They stay because the benchmark
# (perfbench/cases.py, trace_targets) wraps them at these names, and its
# smoke test fails without them; they go when it traces what runs.
from .error_mdp import (_closed_loop, _draw_normals,  # noqa: F401
                        cov_factor, diverged_runs, draw_noise, step)
from .errors import DivergenceError, check_integer, check_real
from .kalman import solve_lyapunov, symmetrize
from .models import LinearGaussianModel

__all__ = [
    "TrainerConfig",
    "TrainHistory",
    "TrainRuns",
    "critic_value",
    "adam_update",
    "gain_columns",
    "train",
    "train_average",
    "train_runs",
]

# Divergence guard: |theta| beyond this multiple of the reference gain's
# max element (when a reference is supplied) stops the run as diverged.
_GUARD_FACTOR = 1e3

# A run's gain is the mean of its iterates over this final fraction of
# ``max_iters``.
_TAIL_FRACTION = 0.5

# Adam's decay rates for the first and second moments, and its
# denominator floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_update(params: np.ndarray, grad: np.ndarray, m: np.ndarray,
                v: np.ndarray, t: int, lr: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam's bias-corrected step number t (from 1) down ``grad``.

    ``m`` and ``v`` are the first and second moment estimates after step
    t - 1 (zeros before the first).  Returns the new params, m and v.
    """
    m = _BETA1 * m + (1.0 - _BETA1) * grad
    v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
    m_hat = m / (1.0 - _BETA1 ** t)
    v_hat = v / (1.0 - _BETA2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + _EPS), m, v


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters and run controls for :func:`train`."""

    batch_size: int = 256
    lr_actor: float = 0.003
    lr_critic: float = 0.01
    gamma: float = 0.99
    max_iters: int = 200000
    seed: int = 0
    estimator: str = "analytic"      # "analytic" | "sampled"

    def __post_init__(self):
        for name in ("gamma", "lr_actor", "lr_critic"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (0.0 < self.lr_actor < np.inf
                and 0.0 < self.lr_critic < np.inf):
            raise ValueError("learning rates must be positive and finite, "
                             f"got {self.lr_actor} and {self.lr_critic}")
        for name, minimum in (("seed", 0), ("batch_size", 1),
                              ("max_iters", 0)):
            check_integer(name, getattr(self, name), minimum)
        if self.estimator not in ("analytic", "sampled"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


def gain_columns(prefix: str, n: int, r: int) -> list[str]:
    """CSV column names of an n x r gain's elements in row-major order.

    ``gain_columns("theta", 2, 2)`` gives theta11, theta12, theta21 and
    theta22.
    """
    return [f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(r)]


def _recorded_iterations(max_iters: int) -> np.ndarray:
    """The iterations 1 .. ``max_iters`` with at most three significant
    digits, in order: 1 000 of them up to 1 000, 1 900 up to 10 000 and
    2 900 up to 200 000."""
    decades = [np.arange(10 ** e, 10 ** (e + 1), 10 ** (e - 2))
               for e in range(3, len(str(max_iters)))]
    iters = np.concatenate([np.arange(1, 1000)] + decades)
    return iters[iters <= max_iters]


@dataclass
class TrainHistory:
    """Training record of the recorded iterations, one row each.

    ``iters`` holds the iteration number of each row, ``theta`` the gain
    after that iteration, ``diff`` its elementwise gap to the reference
    gain (NaN when no reference was supplied), and the loss arrays the
    critic/actor objective values seen at that iteration.  ``iterations``
    is the number of iterations run, which the last row need not reach.
    """

    theta: np.ndarray
    diff: np.ndarray
    critic_loss: np.ndarray
    actor_loss: np.ndarray
    iters: np.ndarray
    iterations: int

    def to_csv(self, path) -> None:
        """Write one row per recorded iteration: iter, theta.., d..,
        losses.

        Values are written as Python writes a float, which for float64 is
        the text numpy gives each element.
        """
        n, r = self.theta.shape[1:]
        header = (["iter"] + gain_columns("theta", n, r)
                  + gain_columns("d", n, r) + ["critic_loss", "actor_loss"])
        rows = np.concatenate((self.theta.reshape(-1, n * r),
                               self.diff.reshape(-1, n * r),
                               self.critic_loss[:, None],
                               self.actor_loss[:, None]), axis=1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([k, *row.tolist()]
                             for k, row in zip(self.iters.tolist(), rows))


def critic_value(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Quadratic value V(s; w) = -s^T w s of each state of a batch (M, n).

    A stack of critics (K, n, n) values a stack of batches (K, M, n).
    Training reads the critic's and the actor's losses as quadratic forms
    and traces on its pools instead; this is their written reference.
    """
    return -np.einsum("...bi,...ij,...bj->...b", s, w, s)


def _drawn_law(model: LinearGaussianModel, theta: np.ndarray, w, gamma_col,
               pool: np.ndarray, process: np.ndarray, measured: np.ndarray):
    """Law of one draw: s' = z - theta v, z = A s + E xi, v = C z + zeta.

    ``pool`` holds the errors s on its last axis, (..., n, M), and
    ``process`` and ``measured`` the noise E xi and zeta of each member,
    (..., n, M) and (..., r, M).  A stack of G S pools may take noise for
    S of them, which each block of S pools reads in turn.  Returns each
    member's TD error V(s'; M_w) - V(s; w), M_w = I + gamma w, the batch
    means ``cross`` of s' v^T and ``second`` of s' s'^T, and s'.
    """
    m_count = pool.shape[-1]
    nxt = model.A @ pool
    _add_per_block(nxt, process)
    v = model.C @ nxt
    _add_per_block(v, measured)
    nxt -= theta @ v
    mw = model.eye + gamma_col * w
    td = _quadratic_form(w, pool) - _quadratic_form(mw, nxt)
    return (td, nxt @ v.swapaxes(-1, -2) / m_count,
            nxt @ nxt.swapaxes(-1, -2) / m_count, nxt)


def _add_per_block(total: np.ndarray, term: np.ndarray) -> None:
    """Add ``term`` in place to each block of ``total`` that has its shape,
    such as one noise per seed (S, ., M) to the pools (G S, ., M) of every
    discount.  ``total`` is a fresh product, so the reshape is a view."""
    blocks = total.reshape((-1,) + term.shape)
    blocks += term


def _integrated_law(model: LinearGaussianModel, theta: np.ndarray, w,
                    gamma_col, pool: np.ndarray, loop):
    """Law of s' with the noise integrated out, for a pool (..., n, M).

    ``loop`` is theta's :func:`_closed_loop`, (I - theta C, F, D): E[s' | s]
    is F s, and Sigma = D D^T is the covariance of s' given s.  Returns the
    critic's TD error td = V(s; F^T M_w F - w) - tr(M_w Sigma) of each
    member, M_w = I + gamma w, and, with P = s s^T / M the pool's second
    moment, ``cross`` (F P A^T + (I - theta C) E Q E^T) C^T - theta R and
    ``second`` F P F^T + Sigma.
    """
    filtered, closed, drive = loop
    fp = closed @ (pool @ pool.swapaxes(-1, -2) / pool.shape[-1])
    cov = drive @ drive.swapaxes(-1, -2)
    cross = (fp @ model.A_T + filtered @ model.effective_process_cov()
             ) @ model.C_T - theta @ model.R
    mw = model.eye + gamma_col * w
    g = w - closed.swapaxes(-1, -2) @ mw @ closed
    td = _quadratic_form(g, pool) - (mw @ cov).trace(
        axis1=-2, axis2=-1)[..., None]
    return td, cross, fp @ closed.swapaxes(-1, -2) + cov


def _quadratic_form(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^T g x of each member of a pool x (..., n, M)."""
    return np.add.reduce((g @ x) * x, axis=-2)


def _critic_step(td: np.ndarray, pool: np.ndarray):
    """Semi-gradient TD loss and gradient of the critic on a law's ``td``.

    The pool is (..., n, M) and ``td`` its members' TD errors (..., M).
    The loss is the pool mean of 0.5 td^2.  The target is held constant,
    so the gradient is the pool mean of td s s^T, symmetrized.
    """
    m_count = pool.shape[-1]
    loss = 0.5 * (np.add.reduce(td * td, -1) / m_count)
    grad = (pool * td[..., None, :]) @ pool.swapaxes(-1, -2) / m_count
    return loss, symmetrize(grad)


def _actor_step(model: LinearGaussianModel, cross, second, w, gamma_col):
    """Loss -tr(M_w second) and its gradient -2 M_w cross, either law.

    The loss is the one-step return r' + gamma V(s'; w), differentiated
    through the linear transition with the noise held fixed, or with it
    integrated out.  The gradient is that of the negated objective, which
    Adam descends; it is -(M_w + M_w^T) cross because the critic ``w``
    is symmetric.
    """
    mw = model.eye + gamma_col * w
    loss = -(mw @ second).trace(axis1=-2, axis2=-1)
    return loss, (-2.0 * mw) @ cross


@dataclass
class TrainRuns:
    """Outcome of one :func:`train_runs` call over a grid of K = G S runs.

    Run i S + j is the call's ``seeds[j]`` at ``gammas[i]``.  ``gains`` holds
    each run's tail-averaged gain, NaN for a run that diverged, whose
    message is in ``errors`` (None for the others, which ran all
    ``max_iters`` iterations).  The record holds the unaveraged iterates
    and losses of the iterations ``iters``, the same rows for every run,
    stored run-major, so that run k's record ``theta[k]`` is contiguous and
    a mean over runs adds them in run order; a run's rows past its stop are
    zero.  :meth:`history` reads them.
    """

    gains: np.ndarray
    theta: np.ndarray
    critic_loss: np.ndarray
    actor_loss: np.ndarray
    iters: np.ndarray
    iterations: np.ndarray
    errors: list
    ref_gain: np.ndarray | None = None

    def history(self, run=None) -> TrainHistory:
        """The record of run index ``run``, or of every run averaged.

        A bool or another non-integer ``run`` raises ValueError, and an
        index out of 0 .. K-1 IndexError, each naming it.  The history's
        ``iterations`` is the fewest any read run took, and it keeps the
        rows of the iterations up to that count.  One run's history is
        that run's record, bit for bit.
        """
        picked = slice(None)
        if run is not None:
            total = len(self.iterations)
            if isinstance(run, bool) or not isinstance(run, numbers.Integral):
                raise ValueError(f"run={run!r} must be a run index")
            if not 0 <= run < total:
                raise IndexError(f"run {run} is not one of the {total} runs "
                                 f"0 .. {total - 1}")
            picked = slice(run, run + 1)
        count = int(self.iterations[picked].min())
        rows = int(np.searchsorted(self.iters, count, side="right"))
        theta = self.theta[picked, :rows]
        diff = theta - (np.nan if self.ref_gain is None else self.ref_gain)
        return TrainHistory(
            theta=theta.mean(axis=0), diff=diff.mean(axis=0),
            critic_loss=self.critic_loss[picked, :rows].mean(axis=0),
            actor_loss=self.actor_loss[picked, :rows].mean(axis=0),
            iters=self.iters[:rows], iterations=count)

    def raise_divergence(self) -> None:
        """Raise the first diverged run's error, its record attached."""
        for k, message in enumerate(self.errors):
            if message is not None:
                raise DivergenceError(message, history=self.history(k))


def _divergence_message(theta, guard, worst_pool) -> str:
    if not np.all(np.isfinite(theta)):
        return "gain contains non-finite entries"
    if np.abs(theta).max() > guard:
        return f"gain magnitude exceeded the divergence guard ({guard:.3e})"
    return f"error pool diverged (max entry {worst_pool:.3e})"


def train_runs(model: LinearGaussianModel, cfg: TrainerConfig, seeds=None,
               gammas=None, ref_gain: np.ndarray | None = None) -> TrainRuns:
    """Train every discount with every seed together; return each run.

    With S ``seeds`` (default: ``cfg.seed`` alone) and G ``gammas``
    (default: ``cfg.gamma`` alone), the stack holds K = G S runs, discount
    major: run i S + j is ``seeds[j]`` at ``gammas[i]``.  All other settings
    come from ``cfg``, and each seed and discount must pass
    :class:`TrainerConfig`'s checks; an empty ``seeds`` or ``gammas``, or a
    seed or discount listed twice, raises ValueError.  What depends on the
    seed alone is done once per seed and shared by its discounts: one
    generator and one initial pool.  The pool is one draw of M errors from
    N(0, P), the stationary law of the zero-gain error process
    s' = A s + E xi, with P = A P A^T + E Q E^T from
    :func:`~steadygain.kalman.solve_lyapunov`: n M normals per seed.  A
    plant with rho(A) >= 1 has no such law, and raises ValueError naming
    rho(A) before any work.  Each iteration then makes one ``standard_normal``
    call per seed into that seed's (p + r, M) block of normals, the stream
    :func:`draw_noise` draws, and every discount reads it.  A run still
    reads exactly what it would draw alone, so its result depends only on
    its seed and discount, never on what else is in the stack.

    Per run, the critic starts at the identity and the actor at zero.  Each
    iteration forms one law of the pool's next error, which returns the
    critic's TD error and the actor's two moments, then advances the pool:
    by the drawn transition under the old gain (``"sampled"``), or under
    the updated gain in the evaluation rollout's closed-loop form
    e' = F e + D w, whose F and D then serve the next law (``"analytic"``).
    A run stops only when it diverges, with its message in ``errors``, or
    at ``cfg.max_iters``; the other runs go on.  Every run is checked after
    each k = 0 .. ``cfg.max_iters`` iterations, before iteration k + 1: the
    check after 0 iterations reads the initial pools, so a seed whose pool
    is already beyond the guard stops every discount's run of it at
    iteration 0.  A discount or a seed whose runs have all stopped leaves
    the stack and costs no more; a stopped run whose discount and seed both
    still have a run going steps on but writes nothing to its record, which
    is zero past its stop.  The record keeps the iterations with at most
    three significant digits, the same rows for every run.  A run that does
    not diverge gets the mean of its iterates over the final half of
    ``cfg.max_iters``, which suppresses the stationary jitter of the
    stochastic updates (the zero start when ``cfg.max_iters`` is 0).

    ``ref_gain``, a finite n x r matrix not all zero (else ValueError),
    only adds diagnostics (the histories' ``diff``) and a divergence guard
    at 1000x its largest element.  A run also diverges when its gain turns
    non-finite or its pool blows up.
    """
    seeds = [cfg.seed] if seeds is None else list(seeds)
    gammas = [cfg.gamma] if gammas is None else list(gammas)
    if not seeds:
        raise ValueError("need at least one seed")
    if not gammas:
        raise ValueError("need at least one discount")
    for name, values in (("seed", seeds), ("gamma", gammas)):
        for i, value in enumerate(values):
            replace(cfg, **{name: value})
            # A repeated seed or discount would train the same runs again.
            if value in values[:i]:
                raise ValueError(f"{name}s[{i}] repeats {name}s"
                                 f"[{values.index(value)}] = {value}")
    if ref_gain is not None:
        ref_gain = np.asarray(ref_gain, dtype=float)
        if (ref_gain.shape != (model.n, model.r)
                or not np.isfinite(ref_gain).all()):
            raise ValueError(f"ref_gain must be a finite {model.n} x "
                             f"{model.r} matrix, got {ref_gain!r}")
        if not ref_gain.any():
            raise ValueError("ref_gain is all zero: it sets no guard scale")
        guard = _GUARD_FACTOR * np.abs(ref_gain).max()
    else:
        # Only non-finite gains fail the comparison below.
        guard = np.finfo(float).max

    # The zero-gain error process's stationary law, N(0, P), each seed's
    # initial pool: its n x M normals coloured by a factor of P.
    start_factor = cov_factor(
        solve_lyapunov(model.A, model.effective_process_cov()))

    n, r, p = model.n, model.r, model.p
    size, max_iters = cfg.batch_size, cfg.max_iters
    count = len(gammas) * len(seeds)
    iterations = np.full(count, max_iters)
    errors: list = [None] * count
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pool = start_factor @ np.stack(
        [rng.standard_normal((n, size)) for rng in rngs])
    # A step's noise is its raw normals w = (xi, zeta), coloured by factors
    # L L^T of Q and R taken once: the drawn law forms (E L_Q) xi and L_R
    # zeta per seed, the factors the closed loop's D holds.
    process_factor = model.E @ cov_factor(model.Q)
    r_factor = cov_factor(model.R)

    # The stack holds the grid of the discounts and seeds that still have a
    # run going, discount-major: the (G, S, ...) view of a run array is its
    # grid, and per-seed noise broadcasts over the discounts.  A dropped
    # seed's generator draws no more, which changes no other seed's
    # numbers.  index holds each stacked run's number, and live selects
    # their records: all of them, gathering nothing, until a run stops.
    # The records hold one spare run, K, which takes the writes of every
    # stopped run that steps on, so a run's rows are written only while it
    # runs and read zero past its stop.
    normals = [rng.standard_normal for rng in rngs]
    pool = np.tile(pool, (len(gammas), 1, 1))
    index = np.arange(count)
    live = slice(count)
    noise = np.empty((len(normals), p + r, size))
    going = np.ones(count, dtype=bool)
    gamma_col = np.repeat(np.asarray(gammas, dtype=float),
                          len(normals))[:, np.newaxis, np.newaxis]
    theta = np.zeros((count, n, r))
    w = np.tile(model.eye, (count, 1, 1))
    loop = _closed_loop(model, theta, process_factor, r_factor)
    # Adam's moment estimates for the critic and the actor.
    m_w, v_w, m_theta, v_theta = (np.zeros_like(a)
                                  for a in (w, w, theta, theta))
    # The record's rows, of the iterations iters[row], and the sum of the
    # iterates from the tail start.
    iters = _recorded_iterations(max_iters)
    theta_hist = np.zeros((count + 1, len(iters), n, r))
    critic_hist, actor_hist = np.zeros((2, count + 1, len(iters)))
    row = 0
    tail_start = max(int(np.ceil(max_iters * _TAIL_FRACTION)), 1)
    tail_sum = np.zeros((count, n, r))
    gains = np.full((count, n, r), np.nan)
    sampled = cfg.estimator == "sampled"

    # Pass k checks every stacked run after k iterations, then takes
    # iteration k + 1 (Adam step k + 1).  Pass 0 checks the initial pools,
    # so a seed whose pool starts beyond the guard stops all of its runs at
    # iteration 0, through the same stop and cut as any later stop.  A
    # stopped run whose discount and seed both still have a run going steps
    # on, writing only to the spare record.  A diverged run's overflow stays
    # in its own arrays and that record, so it is not reported.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters + 1):
            worst_pool, failed = diverged_runs(pool)
            failed |= ~(np.abs(theta).max(axis=(1, 2)) <= guard)
            # A stopped run that steps on is not stopped again.
            failed &= going
            if failed.any():
                going &= ~failed
                iterations[index[failed]] = k
                for j in np.flatnonzero(failed):
                    errors[index[j]] = _divergence_message(
                        theta[j], guard, worst_pool[j])
                # Drop each discount and each seed whose runs have all
                # stopped.
                grid = going.reshape(-1, len(normals))
                rows, cols = grid.any(axis=1), grid.any(axis=0)
                if not rows.any():
                    break
                if not (rows.all() and cols.all()):
                    keep = np.ix_(rows, cols)
                    (theta, w, m_w, v_w, m_theta, v_theta, pool, gamma_col,
                     going, index, tail_sum, *loop) = (
                        a.reshape(grid.shape + a.shape[1:])[keep]
                        .reshape((-1,) + a.shape[1:])
                        for a in (theta, w, m_w, v_w, m_theta, v_theta, pool,
                                  gamma_col, going, index, tail_sum, *loop))
                    normals = [normal for normal, kept in zip(normals, cols)
                               if kept]
                    noise = noise[cols]
                live = np.where(going, index, count)
            if k == max_iters:
                break

            drawn = _draw_normals(normals, noise)
            if sampled:
                td, cross, second, nxt = _drawn_law(
                    model, theta, w, gamma_col, pool,
                    process_factor @ drawn[:, :p], r_factor @ drawn[:, p:])
            else:
                td, cross, second = _integrated_law(model, theta, w,
                                                    gamma_col, pool, loop)
            c_loss, c_grad = _critic_step(td, pool)
            # w stays exactly symmetric, as _actor_step needs: it starts at
            # I, c_grad is exactly symmetric and Adam acts elementwise.
            w, m_w, v_w = adam_update(w, c_grad, m_w, v_w, k + 1,
                                      cfg.lr_critic)
            a_loss, a_grad = _actor_step(model, cross, second, w, gamma_col)
            theta, m_theta, v_theta = adam_update(
                theta, a_grad, m_theta, v_theta, k + 1, cfg.lr_actor)
            if sampled:
                # This draw's transition under the old gain.
                pool = nxt
            else:
                # The updated gain's closed loop advances the pool by this
                # step's normals, and serves the next iteration's law.
                loop = _closed_loop(model, theta, process_factor, r_factor)
                _, closed, drive = loop
                step_noise = drive.reshape(-1, len(normals), n, p + r) @ drawn
                pool = closed @ pool
                pool += step_noise.reshape(pool.shape)
            if k + 1 >= tail_start:
                tail_sum += theta
            if row < len(iters) and iters[row] == k + 1:
                theta_hist[live, row] = theta
                critic_hist[live, row] = c_loss
                actor_hist[live, row] = a_loss
                row += 1

    # Each run still going ran all max_iters iterations: its tail mean, or
    # the zero start when there were none.
    gains[index[going]] = (tail_sum[going] / (max_iters - tail_start + 1)
                           if max_iters else theta[going])
    return TrainRuns(
        gains=gains, theta=theta_hist[:count], critic_loss=critic_hist[:count],
        actor_loss=actor_hist[:count], iters=iters, iterations=iterations,
        errors=errors, ref_gain=ref_gain)


def train(model: LinearGaussianModel, cfg: TrainerConfig,
          ref_gain: np.ndarray | None = None
          ) -> tuple[np.ndarray, TrainHistory]:
    """Run actor-critic policy iteration and return the learned gain.

    :func:`train_average` over the one seed ``cfg.seed``, at discount
    ``cfg.gamma``; see :func:`train_runs` for the stopping rule, the tail
    average and what ``ref_gain`` adds.

    Raises:
        DivergenceError: gain guard exceeded or pool blow-up; the partial
            history rides on the exception's ``history`` attribute.
    """
    return train_average(model, cfg, [cfg.seed], ref_gain)


def train_average(model: LinearGaussianModel, cfg: TrainerConfig,
                  seeds, ref_gain: np.ndarray | None = None
                  ) -> tuple[np.ndarray, TrainHistory]:
    """Train one run per seed in one stack; average gains and histories.

    Each run is :func:`train_runs`' run of its seed at ``cfg.gamma``.
    Returns the mean gain over the runs and their mean history (see
    :meth:`TrainRuns.history`).

    Raises:
        DivergenceError: for the first seed, in order, whose run diverged,
            with that run's partial history.
    """
    runs = train_runs(model, cfg, seeds=seeds, ref_gain=ref_gain)
    runs.raise_divergence()
    return runs.gains.mean(axis=0), runs.history()
