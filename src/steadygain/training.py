"""Actor-critic policy iteration for the steady-state gain.

The critic is the quadratic value V(s; w) = -s^T w s with a symmetric
weight matrix w; the actor is the constant gain matrix itself.  Each
iteration rolls the persistent error pool one transition forward under the
current gain, evaluates the critic with a semi-gradient temporal-difference
step (bootstrap target frozen), improves the actor along the exact
derivative of the one-step return through the linear transition, and
applies Adam to both.

Two gradient estimators are available.  ``"sampled"`` uses the single
drawn noise realization per pool member, matching
:func:`critic_loss_and_grad` / :func:`actor_loss_and_grad` exactly.
``"analytic"`` (the default) integrates the Gaussian noise out of both
expectations in closed form, which removes the measurement-noise sampling
variance that otherwise dominates the gain columns tied to low-noise
measurements; the pool itself still evolves stochastically.

Every function here also takes a stack of runs on a leading axis: gains
(K, n, r), critics (K, n, n), pools (K, M, n) and one discount per run.
:func:`train_runs` advances such a stack with one set of array operations
per iteration; :func:`train` and :func:`train_average` are its one-run and
seed-averaged forms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

# draw_noise stays importable here for callers that look it up on this
# module; the training loop draws through a NoiseStack.
from .error_mdp import (NoiseStack, diverged_runs,  # noqa: F401
                        draw_noise, sample_initial_error, step)
from .errors import DivergenceError
from .kalman import symmetrize
from .models import LinearGaussianModel

__all__ = [
    "AdamState",
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


@dataclass(frozen=True)
class AdamState:
    """Adam accumulator state for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(params, dtype=float),
                   v=np.zeros_like(params, dtype=float),
                   t=0, beta1=beta1, beta2=beta2, eps=eps)


def adam_update(params: np.ndarray, grad: np.ndarray, state: AdamState,
                lr: float, direction: str = "descend"
                ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step; ``direction`` is "descend" or "ascend"."""
    if direction not in ("ascend", "descend"):
        raise ValueError(f"direction must be 'ascend' or 'descend', got {direction!r}")
    grad = np.asarray(grad, dtype=float)
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    delta = lr * m_hat / (np.sqrt(v_hat) + state.eps)
    sign = 1.0 if direction == "ascend" else -1.0
    return params + sign * delta, replace(state, m=m, v=v, t=t)


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
        if self.lr_actor <= 0 or self.lr_critic <= 0:
            raise ValueError("learning rates must be positive")
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
        return {
            "batch_size": self.batch_size,
            "lr_actor": self.lr_actor,
            "lr_critic": self.lr_critic,
            "gamma": self.gamma,
            "max_iters": self.max_iters,
            "convergence_tol": self.convergence_tol,
            "seed": self.seed,
            "init_mode": self.init_mode,
            "burn_in": self.burn_in,
            "estimator": self.estimator,
            "tail_avg_frac": self.tail_avg_frac,
        }

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

    theta: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    diff: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    critic_loss: np.ndarray = field(default_factory=lambda: np.zeros(0))
    actor_loss: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = False
    iterations: int = 0

    def to_csv(self, path) -> None:
        """Write one row per iteration: iter, theta.., d.., losses."""
        n, r = (self.theta.shape[1], self.theta.shape[2]) \
            if self.theta.ndim == 3 and self.theta.shape[0] else (0, 0)
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


def _check_batch(batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim not in (2, 3) or batch.shape[-2] == 0:
        raise ValueError("batch must be a non-empty (M, n) or (K, M, n) array")
    return batch


def critic_value(w: np.ndarray, s: np.ndarray) -> float | np.ndarray:
    """Quadratic value V(s; w) = -s^T w s; batched over leading axes.

    A stack of critics (K, n, n) values a stack of batches (K, M, n).
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    if s.ndim == 1:
        return float(-s @ w @ s)
    return -np.einsum("...bi,...ij,...bj->...b", s, w, s)


def critic_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                         theta: np.ndarray, batch: np.ndarray, noise_batch,
                         gamma=0.99) -> tuple[float | np.ndarray, np.ndarray]:
    """Semi-gradient TD loss for the quadratic critic on one noise draw.

    Loss is the batch mean of 0.5 * TD^2 with
    TD = r' + gamma * V(s'; w) - V(s; w); the bootstrap target
    r' + gamma * V(s'; w) is treated as a constant, so the gradient is
    mean(TD * s s^T), symmetrized.  On a stack of runs (leading axis K)
    ``gamma`` may hold one discount per run and the loss is one per run.
    """
    batch = _check_batch(batch)
    w = np.asarray(w, dtype=float)
    nxt, reward = step(model, batch, np.asarray(theta, dtype=float), noise_batch)
    td = (reward + _discount(gamma, 1) * critic_value(w, nxt)
          - critic_value(w, batch))
    loss = 0.5 * np.mean(td ** 2, axis=-1)
    grad = (batch * td[..., None]).swapaxes(-1, -2) @ batch / batch.shape[-2]
    return _per_run(loss), symmetrize(grad)


def actor_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                        theta: np.ndarray, batch: np.ndarray, noise_batch,
                        gamma=0.99) -> tuple[float | np.ndarray, np.ndarray]:
    """One-step return plus bootstrap, differentiated through the transition.

    Loss is the batch mean of r' + gamma * V(s'; w) for the sampled noise.
    With z = A s + E xi and v = C z + zeta the next state is
    s' = z - theta v, so the exact derivative with the noise held fixed is

        d loss / d theta = mean[ (Mw + Mw^T) s' v^T ],   Mw = I + gamma w.

    Critic weights are held fixed (policy-improvement step).  Stacks of
    runs are handled as in :func:`critic_loss_and_grad`.
    """
    batch = _check_batch(batch)
    w = np.asarray(w, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m_count = batch.shape[-2]
    z = batch @ model.A.T + noise_batch.xi @ model.E.T
    v = z @ model.C.T + noise_batch.zeta
    nxt = z - v @ theta.swapaxes(-1, -2)
    mw = np.eye(model.n) + _discount(gamma, 2) * w
    loss = np.mean(-np.einsum("...bi,...ij,...bj->...b", nxt, mw, nxt),
                   axis=-1)
    grad = (mw + mw.swapaxes(-1, -2)) @ (nxt.swapaxes(-1, -2) @ v) / m_count
    return _per_run(loss), grad


def _analytic_critic_loss_and_grad(model, w, theta, batch, gamma):
    """Critic semi-gradient with the transition noise integrated out.

    Per member, E_noise[TD] = E[r'] + gamma E[V(s')] - V(s) has closed form
    because s' is Gaussian given s; the semi-gradient weights s s^T by that
    expected TD.
    """
    eye = np.eye(model.n)
    ic = eye - theta @ model.C
    mu = batch @ (ic @ model.A).swapaxes(-1, -2)
    cov = (ic @ model.effective_process_cov() @ ic.swapaxes(-1, -2)
           + theta @ model.R @ theta.swapaxes(-1, -2))
    e_reward = -(np.einsum("...bi,...bi->...b", mu, mu)
                 + _trace(cov)[..., None])
    e_vnext = -(np.einsum("...bi,...ij,...bj->...b", mu, w, mu)
                + _trace(w @ cov)[..., None])
    td = e_reward + _discount(gamma, 1) * e_vnext - critic_value(w, batch)
    loss = 0.5 * np.mean(td ** 2, axis=-1)
    grad = (batch * td[..., None]).swapaxes(-1, -2) @ batch / batch.shape[-2]
    return _per_run(loss), symmetrize(grad)


def _analytic_actor_loss_and_grad(model, w, theta, batch, gamma):
    """Actor loss/gradient with the transition noise integrated out.

    With P the batch second moment and Sp = A P A^T + E Q E^T, the expected
    cross moment E[s' v^T] = (I - theta C) Sp C^T - theta R replaces its
    one-sample estimate in the pathwise gradient.
    """
    m_count = batch.shape[-2]
    eye = np.eye(model.n)
    ic = eye - theta @ model.C
    p_batch = batch.swapaxes(-1, -2) @ batch / m_count
    sp = model.A @ p_batch @ model.A.T + model.effective_process_cov()
    mw = eye + _discount(gamma, 2) * w
    second = (ic @ sp @ ic.swapaxes(-1, -2)
              + theta @ model.R @ theta.swapaxes(-1, -2))
    loss = -_trace(mw @ second)
    cross = ic @ sp @ model.C.T - theta @ model.R
    grad = (mw + mw.swapaxes(-1, -2)) @ cross
    return _per_run(loss), grad


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


def _divergence_message(theta, guard, worst_pool) -> str:
    if not np.all(np.isfinite(theta)):
        return "gain contains non-finite entries"
    if np.abs(theta).max() > guard:
        return f"gain magnitude exceeded the divergence guard ({guard:.3e})"
    return f"error pool diverged (max entry {worst_pool:.3e})"


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
    iteration shares one pool rollout between the evaluation and
    improvement steps, then keeps the advanced pool for the next iteration.
    A run stops when its gain's elementwise spread over the trailing 100
    iterations falls below ``cfg.convergence_tol`` (``converged``), when it
    diverges, or at ``cfg.max_iters``; the other runs go on.  A run's gain
    averages its final ``cfg.tail_avg_frac`` of iterates, which suppresses
    the stationary jitter of the stochastic updates.

    ``ref_gain`` only adds diagnostics (the histories' ``diff``) and a
    divergence guard at 1000x its largest element.  A run also diverges
    when its gain turns non-finite or its pool blows up.
    """
    seeds = [cfg.seed] if seeds is None else [int(seed) for seed in seeds]
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
    adam_theta = AdamState.for_params(theta)
    adam_w = AdamState.for_params(w)
    for _ in range(cfg.burn_in):
        pool, _ = step(model, pool, theta, noise_stack.draw())

    theta_hist = np.zeros((count, max_iters, n, r))
    critic_hist = np.zeros((count, max_iters))
    actor_hist = np.zeros((count, max_iters))
    gains = np.full((count, n, r), np.nan)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    errors: list = [None] * count
    live = np.arange(count)
    live_gammas = gammas
    tail_sum = np.zeros_like(theta)
    tail_count = 0
    tail_start = int(np.ceil(max_iters * (1.0 - cfg.tail_avg_frac)))
    sampled = cfg.estimator == "sampled"

    def tail_average():
        return tail_sum / tail_count if tail_count else theta

    for k in range(1, max_iters + 1):
        if not live.size:
            break
        noise = noise_stack.draw()
        if sampled:
            c_loss, c_grad = critic_loss_and_grad(
                model, w, theta, pool, noise, live_gammas)
        else:
            c_loss, c_grad = _analytic_critic_loss_and_grad(
                model, w, theta, pool, live_gammas)
        w, adam_w = adam_update(w, c_grad, adam_w, cfg.lr_critic, "descend")
        w = symmetrize(w)
        if sampled:
            a_loss, a_grad = actor_loss_and_grad(
                model, w, theta, pool, noise, live_gammas)
        else:
            a_loss, a_grad = _analytic_actor_loss_and_grad(
                model, w, theta, pool, live_gammas)
        updated, adam_theta = adam_update(
            theta, a_grad, adam_theta, cfg.lr_actor, "ascend")
        # The sampled gradients saw this draw's transition under the old
        # gain, so the pool takes that transition; with the noise
        # integrated out, the pool advances under the updated gain.
        pool, _ = step(model, pool, theta if sampled else updated, noise)
        last_move = np.abs(updated - theta).max(axis=(1, 2))
        theta = updated

        theta_hist[live, k - 1] = theta
        critic_hist[live, k - 1] = c_loss
        actor_hist[live, k - 1] = a_loss

        worst_pool, failed = diverged_runs(pool)
        failed |= ~(np.abs(theta).max(axis=(1, 2)) <= guard)
        if k >= tail_start:
            tail_sum += theta
            tail_count += 1
        stop = failed
        # A window's spread is at least its last move, so the window is
        # only read once some run has moved less than the tolerance.
        if (k > _CONVERGENCE_WINDOW
                and (last_move < cfg.convergence_tol).any()):
            window = theta_hist[live, k - _CONVERGENCE_WINDOW - 1:k]
            spread = (window.max(axis=1) - window.min(axis=1)).max(axis=(1, 2))
            stop = failed | (spread < cfg.convergence_tol)
        if not stop.any():
            continue

        final = tail_average()
        for j in np.flatnonzero(stop):
            run = live[j]
            iterations[run] = k
            if failed[j]:
                errors[run] = _divergence_message(theta[j], guard,
                                                  worst_pool[j])
            else:
                converged[run] = True
                gains[run] = final[j]
        keep = ~stop
        live, theta, w, pool, tail_sum, live_gammas = (
            a[keep] for a in (live, theta, w, pool, tail_sum, live_gammas))
        adam_theta = replace(adam_theta, m=adam_theta.m[keep],
                             v=adam_theta.v[keep])
        adam_w = replace(adam_w, m=adam_w.m[keep], v=adam_w.v[keep])
        noise_stack.keep(keep)

    iterations[live] = max_iters
    gains[live] = tail_average()
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
