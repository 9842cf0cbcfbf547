"""Actor-critic policy iteration for the steady-state gain.

The critic is the quadratic value V(s; w) = -s^T w s with a symmetric
weight matrix w; the actor is the constant gain matrix itself.  Each
iteration forms one law of the pool's next error s' under the current
gain; against it the critic takes a semi-gradient temporal-difference
step (bootstrap target frozen), the actor ascends the exact derivative of
the one-step return through the linear transition, and Adam applies both:
:func:`adam_update` is a plain descent step on moment arrays the caller
holds, so the actor hands it its negated gradient.

The two gradient estimators differ only in that law.  ``"sampled"`` draws
one noise realization per pool member, so the law is the drawn s' itself,
as in :func:`critic_loss_and_grad` / :func:`actor_loss_and_grad` with a
noise batch.  ``"analytic"`` (the default) integrates the Gaussian noise
out into the closed-form moments of s' given s, which removes the
measurement-noise sampling variance that otherwise dominates the gain
columns tied to low-noise measurements; the pool itself still evolves
stochastically.

Every function here also takes a stack of runs on a leading axis: gains
(K, n, r), critics (K, n, n), pools (K, M, n) and one discount per run.
:func:`train_runs` advances such a stack with one set of array operations
per iteration; :func:`train` and :func:`train_average` are its one-run and
seed-averaged forms.
"""

from __future__ import annotations

import csv
import numbers
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

# draw_noise stays importable here for callers that look it up on this
# module; the training loop draws through a NoiseStack.
from .error_mdp import (NoiseDraw, NoiseStack,  # noqa: F401
                        _check_transition, _transition, diverged_runs,
                        draw_noise, sample_initial_error, step)
from .errors import DivergenceError
from .kalman import symmetrize
from .models import LinearGaussianModel

__all__ = [
    "TrainerConfig",
    "TrainHistory",
    "TrainRuns",
    "critic_value",
    "critic_loss_and_grad",
    "actor_loss_and_grad",
    "adam_update",
    "train",
    "train_average",
    "train_runs",
]

# Iteration window for the gain-stability stopping test.
_CONVERGENCE_WINDOW = 100

# Divergence guard: |theta| beyond this multiple of the reference gain's
# max element (when a reference is supplied) stops the run as diverged.
_GUARD_FACTOR = 1e3


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
    convergence_tol: float = 1e-6
    seed: int = 0
    init_mode: str = "uniform_box"   # pool seeding: "uniform_box" | "fixed"
    burn_in: int = 400               # pool transitions before training
    estimator: str = "analytic"      # "analytic" | "sampled"
    tail_avg_frac: float = 0.5       # fraction of final iterates averaged

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (0.0 < self.lr_actor < np.inf
                and 0.0 < self.lr_critic < np.inf):
            raise ValueError("learning rates must be positive and finite, "
                             f"got {self.lr_actor} and {self.lr_critic}")
        if not self.convergence_tol >= 0.0:
            raise ValueError("convergence_tol must be >= 0, "
                             f"got {self.convergence_tol}")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not 0.0 <= self.tail_avg_frac <= 1.0:
            raise ValueError("tail_avg_frac must be in [0, 1]")
        if self.estimator not in ("analytic", "sampled"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.init_mode not in ("uniform_box", "fixed"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainerConfig":
        return cls(**doc)


@dataclass
class TrainHistory:
    """Per-iteration training record.

    ``theta`` stacks the gain after each iteration, ``diff`` the elementwise
    gap to the reference gain (NaN when no reference was supplied), and the
    loss arrays the critic/actor objective values seen that iteration.
    """

    theta: np.ndarray
    diff: np.ndarray
    critic_loss: np.ndarray
    actor_loss: np.ndarray
    converged: bool = False
    iterations: int = 0

    def to_csv(self, path) -> None:
        """Write one row per iteration: iter, theta.., d.., losses."""
        n, r = self.theta.shape[1:]
        header = (["iter"]
                  + [f"theta{i + 1}{j + 1}" for i in range(n) for j in range(r)]
                  + [f"d{i + 1}{j + 1}" for i in range(n) for j in range(r)]
                  + ["critic_loss", "actor_loss"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.iterations):
                row = ([k + 1]
                       + list(self.theta[k].ravel())
                       + list(self.diff[k].ravel())
                       + [self.critic_loss[k], self.actor_loss[k]])
                writer.writerow(row)


def _discount(gamma, trailing: int) -> np.ndarray:
    """One discount, or one per run, shaped to broadcast over a run's axes."""
    gamma = np.asarray(gamma, dtype=float)
    return gamma.reshape(gamma.shape + (1,) * trailing)


def _per_run(loss: np.ndarray) -> float | np.ndarray:
    """A float for a single run, one value per run for a stack."""
    return float(loss) if loss.ndim == 0 else loss


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def critic_value(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Quadratic value V(s; w) = -s^T w s of each state of a batch (M, n).

    A stack of critics (K, n, n) values a stack of batches (K, M, n).
    """
    return -np.einsum("...bi,...ij,...bj->...b", s, w, s)


class _ErrorLaw(NamedTuple):
    """Next errors s' (drawn, or E[s' | s]) and batch moments of s'.

    Fields as described in :func:`_next_error_law`.
    """

    mean: np.ndarray
    cross: np.ndarray
    cov: np.ndarray | None = None
    second: np.ndarray | None = None


def _next_error_law(model: LinearGaussianModel, theta: np.ndarray,
                    batch: np.ndarray, noise: NoiseDraw | None = None
                    ) -> _ErrorLaw:
    """Law of s' = z - theta v, z = A s + E xi, v = C z + zeta, per member.

    With ``noise`` it is that draw: ``mean`` holds s' and ``cross`` the
    batch mean of s' v^T.  Without, the noise is integrated out: ``mean``
    is (I - theta C) A s and ``cov`` the covariance of s' given s,
    (I - theta C) E Q E^T (I - theta C)^T + theta R theta^T; with P the
    batch second moment and Sp = A P A^T + E Q E^T, ``cross`` is
    E[s' v^T] = (I - theta C) Sp C^T - theta R and ``second`` the batch
    mean of E[s' s'^T] = (I - theta C) Sp (I - theta C)^T + theta R theta^T.
    """
    m_count = batch.shape[-2]
    if noise is not None:
        nxt, v = _transition(model, batch, theta, noise)
        return _ErrorLaw(mean=nxt, cross=nxt.swapaxes(-1, -2) @ v / m_count)
    ic = np.eye(model.n) - theta @ model.C
    ic_t = ic.swapaxes(-1, -2)
    eqe = model.effective_process_cov()
    measured = theta @ model.R @ theta.swapaxes(-1, -2)
    p_batch = batch.swapaxes(-1, -2) @ batch / m_count
    ic_sp = ic @ (model.A @ p_batch @ model.A.T + eqe)
    return _ErrorLaw(mean=batch @ (ic @ model.A).swapaxes(-1, -2),
                     cross=ic_sp @ model.C.T - theta @ model.R,
                     cov=ic @ eqe @ ic_t + measured,
                     second=ic_sp @ ic_t + measured)


def _checked_law(model, theta, batch, noise) -> tuple[np.ndarray, _ErrorLaw]:
    """Check a public estimator's inputs; return the batch and its law."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim not in (2, 3) or batch.shape[-2] == 0:
        raise ValueError("batch must be a non-empty (M, n) or (K, M, n) array")
    theta = np.asarray(theta, dtype=float)
    if noise is not None:
        _check_transition(model, batch, theta, noise)
    return batch, _next_error_law(model, theta, batch, noise)


def _critic_step(law: _ErrorLaw, w: np.ndarray, batch: np.ndarray, gamma):
    """:func:`critic_loss_and_grad` on ``law``; a covariance adds traces."""
    reward = -np.einsum("...i,...i->...", law.mean, law.mean)
    v_next = critic_value(w, law.mean)
    if law.cov is not None:
        reward = reward - _trace(law.cov)[..., None]
        v_next = v_next - _trace(w @ law.cov)[..., None]
    td = reward + _discount(gamma, 1) * v_next - critic_value(w, batch)
    loss = 0.5 * np.mean(td ** 2, axis=-1)
    grad = (batch * td[..., None]).swapaxes(-1, -2) @ batch / batch.shape[-2]
    return _per_run(loss), symmetrize(grad)


def _actor_step(law: _ErrorLaw, w: np.ndarray, gamma):
    """:func:`actor_loss_and_grad` on ``law``."""
    mw = np.eye(w.shape[-1]) + _discount(gamma, 2) * w
    if law.second is None:
        loss = np.mean(critic_value(mw, law.mean), axis=-1)
    else:
        loss = -_trace(mw @ law.second)
    grad = (mw + mw.swapaxes(-1, -2)) @ law.cross
    return _per_run(loss), grad


def critic_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                         theta: np.ndarray, batch: np.ndarray,
                         noise_batch: NoiseDraw | None = None, gamma=0.99
                         ) -> tuple[float | np.ndarray, np.ndarray]:
    """Semi-gradient TD loss for the quadratic critic.

    Loss is the batch mean of 0.5 * TD^2 with
    TD = r' + gamma * V(s'; w) - V(s; w); the bootstrap target
    r' + gamma * V(s'; w) is treated as a constant, so the gradient is
    mean(TD * s s^T), symmetrized.  With ``noise_batch=None`` the noise is
    integrated out of the target.  On a stack of runs (leading axis K)
    ``gamma`` may hold one discount per run and the loss is one per run.
    """
    batch, law = _checked_law(model, theta, batch, noise_batch)
    return _critic_step(law, np.asarray(w, dtype=float), batch, gamma)


def actor_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                        theta: np.ndarray, batch: np.ndarray,
                        noise_batch: NoiseDraw | None = None, gamma=0.99
                        ) -> tuple[float | np.ndarray, np.ndarray]:
    """One-step return plus bootstrap, differentiated through the transition.

    Loss is the batch mean of r' + gamma * V(s'; w) for the sampled noise.
    With z = A s + E xi and v = C z + zeta the next state is
    s' = z - theta v, so the exact derivative with the noise held fixed is

        d loss / d theta = mean[ (Mw + Mw^T) s' v^T ],   Mw = I + gamma w.

    With ``noise_batch=None`` the noise is integrated out of the loss and
    of mean[s' v^T].  Critic weights are held fixed (policy-improvement
    step).  Stacks of runs are handled as in :func:`critic_loss_and_grad`.
    """
    batch, law = _checked_law(model, theta, batch, noise_batch)
    return _actor_step(law, np.asarray(w, dtype=float), gamma)


@dataclass
class TrainRuns:
    """Outcome of one :func:`train_runs` call over a stack of K runs.

    Run k is the call's ``seeds[k]`` at ``gammas[k]``.  ``gains`` holds
    each run's tail-averaged gain, NaN for a run that diverged, whose
    message is in ``errors`` (None for the others).  The unaveraged
    iterates and losses are stored run-major, so that run k's record
    ``theta[k, :iterations[k]]`` is contiguous and a mean over runs adds
    them in run order.
    """

    gains: np.ndarray
    theta: np.ndarray
    critic_loss: np.ndarray
    actor_loss: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    errors: list
    ref_gain: np.ndarray | None = None

    def _diff(self, theta: np.ndarray) -> np.ndarray:
        if self.ref_gain is None:
            return np.full_like(theta, np.nan)
        return theta - self.ref_gain

    def history(self, k: int) -> TrainHistory:
        """Run k's per-iteration record."""
        count = int(self.iterations[k])
        theta = self.theta[k, :count]
        return TrainHistory(
            theta=theta, diff=self._diff(theta),
            critic_loss=self.critic_loss[k, :count],
            actor_loss=self.actor_loss[k, :count],
            converged=bool(self.converged[k]), iterations=count)

    def mean_history(self) -> TrainHistory:
        """The record averaged over runs, up to the shortest run's length."""
        count = int(self.iterations.min())
        theta = self.theta[:, :count]
        return TrainHistory(
            theta=theta.mean(axis=0), diff=self._diff(theta).mean(axis=0),
            critic_loss=self.critic_loss[:, :count].mean(axis=0),
            actor_loss=self.actor_loss[:, :count].mean(axis=0),
            converged=bool(self.converged.all()), iterations=count)

    def raise_divergence(self) -> None:
        """Raise the first diverged run's error, its record attached."""
        for k, message in enumerate(self.errors):
            if message is not None:
                raise DivergenceError(message, history=self.history(k))


def _divergence_message(theta, guard, worst_pool, k) -> str:
    if not np.all(np.isfinite(theta)):
        return "gain contains non-finite entries"
    if np.abs(theta).max() > guard:
        return f"gain magnitude exceeded the divergence guard ({guard:.3e})"
    during = " during burn-in" if k == 0 else ""
    return f"error pool diverged{during} (max entry {worst_pool:.3e})"


def train_runs(model: LinearGaussianModel, cfg: TrainerConfig, seeds=None,
               gammas=None, ref_gain: np.ndarray | None = None) -> TrainRuns:
    """Train a stack of runs together and return every run's outcome.

    Run k uses seed ``seeds[k]`` (default: ``cfg.seed`` alone) and discount
    ``gammas[k]`` (default: ``cfg.gamma`` for every run); all other settings
    come from ``cfg``.  Each iteration costs one set of array operations for
    the whole stack.  Every run owns its generator and draws its noise
    exactly as it would alone, so its result depends only on its seed and
    discount, never on what else is in the stack.

    Per run, the critic starts at the identity and the actor at zero.  Each
    iteration forms one law of the pool's next error, shared by the
    evaluation and improvement steps, then advances the pool.  A run stops
    when its gain's elementwise spread over the trailing 100 iterations
    falls below ``cfg.convergence_tol`` (``converged``), when it diverges
    (at iteration 0 if in burn-in), or at ``cfg.max_iters``; the other runs
    go on.  A run's gain averages its final ``cfg.tail_avg_frac`` of
    iterates, which suppresses the stationary jitter of the stochastic
    updates.

    ``ref_gain`` only adds diagnostics (the histories' ``diff``) and a
    divergence guard at 1000x its largest element.  A run also diverges
    when its gain turns non-finite or its pool blows up.
    """
    seeds = ([cfg.seed] if seeds is None
             else [operator.index(seed) for seed in seeds])
    count = len(seeds)
    gammas = np.asarray([cfg.gamma] * count if gammas is None else gammas,
                        dtype=float)
    if gammas.shape != (count,):
        raise ValueError(f"need one discount per seed, got {gammas.shape} "
                         f"for {count} seeds")
    for gamma in gammas:
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if ref_gain is not None:
        ref_gain = np.asarray(ref_gain, dtype=float)
        guard = _GUARD_FACTOR * max(np.abs(ref_gain).max(), 1e-300)
    else:
        # Only non-finite gains fail the comparison below.
        guard = np.finfo(float).max

    n, r, size, max_iters = model.n, model.r, cfg.batch_size, cfg.max_iters
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pool = np.empty((count, size, n))
    for k, rng in enumerate(rngs):
        pool[k] = sample_initial_error(model, cfg.init_mode, rng, size=size)

    noise_stack = NoiseStack(model, rngs, size)
    theta = np.zeros((count, n, r))
    w = np.tile(np.eye(n), (count, 1, 1))
    # Adam's moment estimates for the critic and the actor.
    m_w, v_w, m_theta, v_theta = (np.zeros_like(a)
                                  for a in (w, w, theta, theta))
    theta_hist = np.zeros((count, max_iters, n, r))
    critic_hist = np.zeros((count, max_iters))
    actor_hist = np.zeros((count, max_iters))
    gains = np.full((count, n, r), np.nan)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    errors: list = [None] * count
    live = np.arange(count)
    live_gammas = gammas
    tail_start = max(int(np.ceil(max_iters * (1.0 - cfg.tail_avg_frac))), 1)
    sampled = cfg.estimator == "sampled"

    def tail_average(run, k):
        """Run's mean iterate from the tail start (or its last alone) to k."""
        return theta_hist[run, min(tail_start, k) - 1:k].mean(axis=0)

    def retire(stop, failed, worst_pool, k):
        """Record why the flagged live runs stopped at k, and drop them."""
        nonlocal live, theta, w, pool, live_gammas, m_w, v_w, m_theta, v_theta
        for j in np.flatnonzero(stop):
            run = live[j]
            iterations[run] = k
            if failed[j]:
                errors[run] = _divergence_message(theta[j], guard,
                                                  worst_pool[j], k)
            else:
                converged[run] = True
                gains[run] = tail_average(run, k)
        keep = ~stop
        live, theta, w, pool, live_gammas, m_w, v_w, m_theta, v_theta = (
            a[keep] for a in (live, theta, w, pool, live_gammas,
                              m_w, v_w, m_theta, v_theta))
        noise_stack.keep(keep)

    for _ in range(cfg.burn_in):
        pool, _ = step(model, pool, theta, noise_stack.draw())
        worst_pool, failed = diverged_runs(pool)
        if failed.any():
            retire(failed, failed, worst_pool, 0)

    for k in range(1, max_iters + 1):
        if not live.size:
            break
        noise = noise_stack.draw()
        law = _next_error_law(model, theta, pool, noise if sampled else None)
        c_loss, c_grad = _critic_step(law, w, pool, live_gammas)
        w, m_w, v_w = adam_update(w, c_grad, m_w, v_w, k, cfg.lr_critic)
        w = symmetrize(w)
        a_loss, a_grad = _actor_step(law, w, live_gammas)
        # The actor ascends its objective, so Adam descends its negation.
        updated, m_theta, v_theta = adam_update(
            theta, -a_grad, m_theta, v_theta, k, cfg.lr_actor)
        # A drawn law is this draw's transition under the old gain, and the
        # pool takes it; with the noise integrated out, the pool advances
        # under the updated gain.
        pool = (law.mean if law.cov is None
                else step(model, pool, updated, noise)[0])
        last_move = np.abs(updated - theta).max(axis=(1, 2))
        theta = updated

        theta_hist[live, k - 1] = theta
        critic_hist[live, k - 1] = c_loss
        actor_hist[live, k - 1] = a_loss

        worst_pool, failed = diverged_runs(pool)
        failed |= ~(np.abs(theta).max(axis=(1, 2)) <= guard)
        stop = failed
        # A window's spread is at least its last move, so the window is
        # only read once some run has moved less than the tolerance.
        if (k > _CONVERGENCE_WINDOW
                and (last_move < cfg.convergence_tol).any()):
            window = theta_hist[live, k - _CONVERGENCE_WINDOW - 1:k]
            spread = (window.max(axis=1) - window.min(axis=1)).max(axis=(1, 2))
            stop = failed | (spread < cfg.convergence_tol)
        if stop.any():
            retire(stop, failed, worst_pool, k)

    iterations[live] = max_iters
    for j, run in enumerate(live):
        gains[run] = tail_average(run, max_iters) if max_iters else theta[j]
    return TrainRuns(
        gains=gains, theta=theta_hist, critic_loss=critic_hist,
        actor_loss=actor_hist, iterations=iterations, converged=converged,
        errors=errors, ref_gain=ref_gain)


def train(model: LinearGaussianModel, cfg: TrainerConfig,
          ref_gain: np.ndarray | None = None
          ) -> tuple[np.ndarray, TrainHistory]:
    """Run actor-critic policy iteration and return the learned gain.

    The one-run case of :func:`train_runs`, with seed ``cfg.seed`` and
    discount ``cfg.gamma``; see there for the stopping rule, the tail
    average and what ``ref_gain`` adds.

    Raises:
        DivergenceError: gain guard exceeded or pool blow-up; the partial
            history rides on the exception's ``history`` attribute.
    """
    runs = train_runs(model, cfg, ref_gain=ref_gain)
    runs.raise_divergence()
    return runs.gains[0], runs.history(0)


def train_average(model: LinearGaussianModel, cfg: TrainerConfig,
                  seeds, ref_gain: np.ndarray | None = None
                  ) -> tuple[np.ndarray, TrainHistory]:
    """Train one run per seed in one stack; average gains and histories.

    Each run is :func:`train` with ``cfg.seed`` replaced.  Returns the mean
    gain over the runs and their mean history (see
    :meth:`TrainRuns.mean_history`).

    Raises:
        DivergenceError: for the first seed, in order, whose run diverged,
            with that run's partial history.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    runs = train_runs(model, cfg, seeds=seeds, ref_gain=ref_gain)
    runs.raise_divergence()
    return runs.gains.mean(axis=0), runs.mean_history()
