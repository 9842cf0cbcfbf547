"""Actor-critic policy iteration for the steady-state gain.

The critic is the quadratic value V(s; w) = -s^T w s with a symmetric
weight matrix w; the actor is the constant gain matrix itself.  Each
iteration forms one law of the pool's next error s' under the current
gain; against it the critic takes a semi-gradient temporal-difference
step (bootstrap target frozen), the actor ascends the exact derivative of
the one-step return through the linear transition, and Adam applies both
(:func:`adam_update` descends, so the actor hands it its negated gradient).

The two gradient estimators differ only in that law: ``"sampled"`` draws
one noise realization per pool member, and ``"analytic"`` (the default)
integrates the Gaussian noise out, which removes the measurement-noise
sampling variance that otherwise dominates the gain columns tied to
low-noise measurements; the pool itself still evolves stochastically.

Every function here also takes a stack of runs on a leading axis: gains
(K, n, r), critics (K, n, n), pools (K, M, n) and one discount per run.
:func:`train_runs` advances such a stack with one set of array operations
per iteration, drawing each seed's noise once for all the runs that share
that seed, and :meth:`TrainRuns.history` reads its record;
:func:`train_average` is its seed-averaged form, :func:`train` one seed's.
"""

from __future__ import annotations

import csv
import numbers
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# draw_noise and step are unused here.  They stay because the benchmark
# (perfbench/cases.py, trace_targets) wraps them at these names, and its
# smoke test fails without them; they go when it traces what runs.
from .error_mdp import (NoiseDraw, NoiseStack,  # noqa: F401
                        _check_transition, _transition, diverged_runs,
                        draw_noise, sample_initial_error, step)
from .errors import DivergenceError, check_integer, check_real
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
    "gain_columns",
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

# History rows TrainHistory.to_csv converts to Python lists at a time: a
# block converts far faster per row than list() of each row's arrays, and a
# bounded one keeps the conversion's memory flat however long the run.
_CSV_BLOCK_ROWS = 256


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
    # Zero-gain pool steps before training.  Sampled at batch 32 from the
    # uniform box, seeds 1-3 diverge (iterations 185-209) after 20, not 100.
    burn_in: int = 400
    estimator: str = "analytic"      # "analytic" | "sampled"
    tail_avg_frac: float = 0.5       # fraction of final iterates averaged

    def __post_init__(self):
        for name in ("gamma", "lr_actor", "lr_critic", "convergence_tol",
                     "tail_avg_frac"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (0.0 < self.lr_actor < np.inf
                and 0.0 < self.lr_critic < np.inf):
            raise ValueError("learning rates must be positive and finite, "
                             f"got {self.lr_actor} and {self.lr_critic}")
        if not self.convergence_tol >= 0.0:
            raise ValueError("convergence_tol must be >= 0, "
                             f"got {self.convergence_tol}")
        for name, minimum in (("seed", 0), ("batch_size", 1),
                              ("max_iters", 0), ("burn_in", 0)):
            check_integer(name, getattr(self, name), minimum)
        if not 0.0 <= self.tail_avg_frac <= 1.0:
            raise ValueError("tail_avg_frac must be in [0, 1]")
        if self.estimator not in ("analytic", "sampled"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.init_mode not in ("uniform_box", "fixed"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


def gain_columns(prefix: str, n: int, r: int) -> list[str]:
    """CSV column names of an n x r gain's elements in row-major order.

    ``gain_columns("theta", 2, 2)`` gives theta11, theta12, theta21 and
    theta22.
    """
    return [f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(r)]


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

    @property
    def iterations(self) -> int:
        """Number of iterations recorded, one row each."""
        return len(self.theta)

    def to_csv(self, path) -> None:
        """Write one row per iteration: iter, theta.., d.., losses.

        Values are written as Python writes a float, which for float64 is
        the text numpy gives each element.
        """
        count = self.iterations
        n, r = self.theta.shape[1:]
        header = (["iter"] + gain_columns("theta", n, r)
                  + gain_columns("d", n, r) + ["critic_loss", "actor_loss"])
        columns = (self.theta.reshape(count, n * r),
                   self.diff.reshape(count, n * r),
                   self.critic_loss[:, None], self.actor_loss[:, None])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for start in range(0, count, _CSV_BLOCK_ROWS):
                block = np.concatenate(
                    [c[start:start + _CSV_BLOCK_ROWS] for c in columns],
                    axis=1)
                writer.writerows([k, *row] for k, row in
                                 enumerate(block.tolist(), start + 1))


def _per_run(loss: np.ndarray) -> float | np.ndarray:
    """A float for a single run, one value per run for a stack."""
    return float(loss) if loss.ndim == 0 else loss


def critic_value(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Quadratic value V(s; w) = -s^T w s of each state of a batch (M, n).

    A stack of critics (K, n, n) values a stack of batches (K, M, n).
    The form is accumulated as the terms (s_i w_ij) s_j, i outer and j
    inner, added in that order to +0.0.  That is how the three-operand
    ``einsum("...bi,...ij,...bj->...b", s, w, s)`` sums, so the values
    keep its bits (signed zeros included) for any batch of three or more
    states; only on one or two states of a 2-state plant does einsum
    reorder its loops.  On one core at n = 2 and M = 256 it takes 13-25 us
    (einsum 12-21) on one run, 49-74 (155-240) on 15 and 117-171 on 50.
    """
    n = s.shape[-1]
    total = 0.0  # the first += makes the array
    for i in range(n):
        for j in range(n):
            term = s[..., i] * w[..., i, j, None]
            term *= s[..., j]
            total += term
    return -total


class _ErrorLaw(NamedTuple):
    """Law of s' given the pool s, with fields as in :func:`_next_error_law`.

    With M_w = I + gamma w, the critic's TD error is V(s'; M_w) - V(s; w)
    on a drawn law, V(s; F^T M_w F - w) - tr(M_w Sigma) on an integrated one.
    """

    cross: np.ndarray
    drawn: np.ndarray | None = None
    closed: np.ndarray | None = None
    cov: np.ndarray | None = None
    second: np.ndarray | None = None


def _next_error_law(model: LinearGaussianModel, theta: np.ndarray,
                    batch: np.ndarray, noise: NoiseDraw | None = None
                    ) -> _ErrorLaw:
    """Law of s' = z - theta v, z = A s + E xi, v = C z + zeta, per member.

    With ``noise`` it is that draw: ``drawn`` holds s' and ``cross`` the
    batch mean of s' v^T.  Without, the noise is integrated out: E[s' | s]
    is F s with ``closed`` F = (I - theta C) A, and ``cov`` the covariance
    Sigma of s' given s, (I - theta C) E Q E^T (I - theta C)^T + theta R
    theta^T; with P the batch second moment and Sp = A P A^T + E Q E^T,
    ``cross`` is E[s' v^T] = (I - theta C) Sp C^T - theta R and ``second``
    the batch mean of E[s' s'^T] = (I - theta C) Sp (I - theta C)^T +
    theta R theta^T.  With M_w = I + gamma w the TD error is V(s'; M_w) -
    V(s; w) drawn, V(s; F^T M_w F - w) - tr(M_w Sigma) integrated.
    """
    m_count = batch.shape[-2]
    if noise is not None:
        nxt, v = _transition(model, batch, theta, noise)
        return _ErrorLaw(cross=nxt.swapaxes(-1, -2) @ v / m_count, drawn=nxt)
    ic = model.eye - theta @ model.C
    ic_t = ic.swapaxes(-1, -2)
    eqe = model.effective_process_cov()
    measured = theta @ model.R @ theta.swapaxes(-1, -2)
    p_batch = batch.swapaxes(-1, -2) @ batch / m_count
    ic_sp = ic @ (model.A @ p_batch @ model.A_T + eqe)
    return _ErrorLaw(cross=ic_sp @ model.C_T - theta @ model.R,
                     closed=ic @ model.A, cov=ic @ eqe @ ic_t + measured,
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


def _bootstrap_weight(model: LinearGaussianModel, w: np.ndarray, gamma):
    """M_w = I + gamma w, for one discount or one per run of a stack."""
    return model.eye + np.reshape(gamma, np.shape(gamma) + (1, 1)) * w


def _quadratic_form(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s^T g s of each state, the n columns of (s g) * s added in order:
    on one core at n = 2, M = 256, a third of :func:`critic_value`'s cost.
    """
    gs = (s @ g) * s
    return sum(gs[..., j] for j in range(s.shape[-1]))


def _critic_step(model, law: _ErrorLaw, w: np.ndarray, batch, gamma):
    """:func:`critic_loss_and_grad` on ``law``; with M_w = I + gamma w, td
    is V(s'; M_w) - V(s; w) drawn, else V(s; F^T M_w F - w) - tr(M_w Sigma).
    """
    mw = _bootstrap_weight(model, w, gamma)
    if law.drawn is not None:
        td = _quadratic_form(w, batch) - _quadratic_form(mw, law.drawn)
    else:
        g = w - law.closed.swapaxes(-1, -2) @ mw @ law.closed
        td = _quadratic_form(g, batch) - np.trace(
            mw @ law.cov, axis1=-2, axis2=-1)[..., None]
    loss = 0.5 * np.mean(td ** 2, axis=-1)
    grad = (batch * td[..., None]).swapaxes(-1, -2) @ batch / batch.shape[-2]
    return _per_run(loss), symmetrize(grad)


def _actor_step(model: LinearGaussianModel, law: _ErrorLaw, w, gamma):
    """:func:`actor_loss_and_grad` on ``law``, with M_w = I + gamma w."""
    mw = _bootstrap_weight(model, w, gamma)
    if law.second is None:
        loss = np.mean(critic_value(mw, law.drawn), axis=-1)
    else:
        loss = -np.trace(mw @ law.second, axis1=-2, axis2=-1)
    grad = (mw + mw.swapaxes(-1, -2)) @ law.cross
    return _per_run(loss), grad


def critic_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                         theta: np.ndarray, batch: np.ndarray,
                         noise_batch: NoiseDraw | None = None, gamma=0.99
                         ) -> tuple[float | np.ndarray, np.ndarray]:
    """Semi-gradient TD loss for the quadratic critic.

    Loss is the batch mean of 0.5 * TD^2 with TD = r' + gamma V(s'; w) -
    V(s; w) = V(s'; M_w) - V(s; w), M_w = I + gamma w; the target is held
    constant, so the gradient is mean(TD * s s^T), symmetrized.  With
    ``noise_batch=None`` the noise is integrated out of the target:
    TD = V(s; F^T M_w F - w) - tr(M_w Sigma), F = (I - theta C) A, Sigma
    the covariance of s' given s.  On a stack of runs (leading axis K)
    ``gamma`` may hold one discount per run and the loss is one per run.
    """
    batch, law = _checked_law(model, theta, batch, noise_batch)
    return _critic_step(model, law, np.asarray(w, dtype=float), batch, gamma)


def actor_loss_and_grad(model: LinearGaussianModel, w: np.ndarray,
                        theta: np.ndarray, batch: np.ndarray,
                        noise_batch: NoiseDraw | None = None, gamma=0.99
                        ) -> tuple[float | np.ndarray, np.ndarray]:
    """One-step return plus bootstrap, differentiated through the transition.

    Loss is the batch mean of r' + gamma * V(s'; w) for the sampled noise.
    With z = A s + E xi and v = C z + zeta the next state is
    s' = z - theta v, so the exact derivative with the noise held fixed is
    mean[(M_w + M_w^T) s' v^T], M_w = I + gamma w.  With
    ``noise_batch=None`` the noise is integrated out of the loss and of
    mean[s' v^T].  Critic weights are held fixed (policy-improvement step).
    Stacks of runs are handled as in :func:`critic_loss_and_grad`.
    """
    _, law = _checked_law(model, theta, batch, noise_batch)
    return _actor_step(model, law, np.asarray(w, dtype=float), gamma)


@dataclass
class TrainRuns:
    """Outcome of one :func:`train_runs` call over a stack of K runs.

    Run k is the call's ``seeds[k]`` at ``gammas[k]``.  ``gains`` holds
    each run's tail-averaged gain, NaN for a run that diverged, whose
    message is in ``errors`` (None for the others).  The unaveraged
    iterates and losses are stored run-major, so that run k's record
    ``theta[k, :iterations[k]]`` is contiguous and a mean over runs adds
    them in run order; :meth:`history` reads them.
    """

    gains: np.ndarray
    theta: np.ndarray
    critic_loss: np.ndarray
    actor_loss: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    errors: list
    ref_gain: np.ndarray | None = None

    def history(self, runs=None) -> TrainHistory:
        """The record of the selected runs, averaged over them.

        ``runs`` is a run index 0 .. K-1 or a non-empty list of them
        (default: every run); a bool, an empty selection or an index out
        of range raises ValueError or IndexError naming the selection.
        The record stops at the shortest selected run's length, and it is
        converged only if every selected run converged.  The average of
        one run is that run's record, bit for bit.
        """
        picked = slice(None) if runs is None else self._run_indices(runs)
        count = int(self.iterations[picked].min())
        theta = self.theta[picked, :count]
        diff = theta - (np.nan if self.ref_gain is None else self.ref_gain)
        return TrainHistory(
            theta=theta.mean(axis=0), diff=diff.mean(axis=0),
            critic_loss=self.critic_loss[picked, :count].mean(axis=0),
            actor_loss=self.actor_loss[picked, :count].mean(axis=0),
            converged=bool(self.converged[picked].all()))

    def _run_indices(self, runs) -> list:
        """The indices ``runs`` selects, checked as :meth:`history` says."""
        picked = [runs] if np.ndim(runs) == 0 else list(runs)
        if not picked:
            raise ValueError(f"runs={runs!r} selects no run")
        count = len(self.iterations)
        for k in picked:
            if isinstance(k, bool) or not isinstance(k, numbers.Integral):
                raise ValueError(
                    f"runs={runs!r} must hold run indices, got {k!r}")
            if not 0 <= k < count:
                raise IndexError(f"runs={runs!r}: run {k} is not one of "
                                 f"the {count} runs 0 .. {count - 1}")
        return picked

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


def _row_index(rows: np.ndarray, count: int) -> np.ndarray | None:
    """``rows``, or None when it takes each of ``count`` rows in order."""
    return None if np.array_equal(rows, np.arange(count)) else rows


def _rows(noise: NoiseDraw, index: np.ndarray | None) -> NoiseDraw:
    """Row index[k] of a draw for each k; the draw itself for None."""
    if index is None:
        return noise
    return NoiseDraw(xi=noise.xi[index], zeta=noise.zeta[index])


def train_runs(model: LinearGaussianModel, cfg: TrainerConfig, seeds=None,
               gammas=None, ref_gain: np.ndarray | None = None) -> TrainRuns:
    """Train a stack of runs together and return every run's outcome.

    Run k uses seed ``seeds[k]`` (default: ``cfg.seed`` alone) and discount
    ``gammas[k]`` (default: ``cfg.gamma`` for every run); all other settings
    come from ``cfg``, and each run must pass :class:`TrainerConfig`'s
    checks; an empty ``seeds`` raises ValueError.  What depends on the seed
    alone is done once per distinct seed: one generator, one initial pool
    and one burn-in.  Each step draws one noise batch per distinct seed,
    and every run reads its seed's batch, so runs that share a seed (the
    discounts of a sweep) share each draw.  A run still reads exactly what
    it would draw alone, so its result depends only on its seed and
    discount, never on what else is in the stack.

    Per run, the critic starts at the identity and the actor at zero.  Each
    iteration forms one law of the pool's next error, shared by the
    evaluation and improvement steps, then advances the pool.  A run stops
    when its gain's elementwise spread over the trailing 100 iterations
    falls below ``cfg.convergence_tol`` (``converged``), when it diverges
    (at iteration 0, with every run of its seed, if its seed's pool
    diverges in burn-in), or at ``cfg.max_iters``; the other runs go on.
    A run's gain averages its final ``cfg.tail_avg_frac`` of iterates,
    which suppresses the stationary jitter of the stochastic updates.

    ``ref_gain``, if not all zero, only adds diagnostics (the histories'
    ``diff``) and a divergence guard at 1000x its largest element.  A run
    also diverges when its gain turns non-finite or its pool blows up.
    """
    seeds = [cfg.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    count = len(seeds)
    gammas = [cfg.gamma] * count if gammas is None else gammas
    if np.shape(gammas) != (count,):
        raise ValueError(f"need one discount per seed, got "
                         f"{np.shape(gammas)} for {count} seeds")
    for seed, gamma in zip(seeds, gammas):
        operator.index(seed)  # a fractional seed is a TypeError
        replace(cfg, seed=seed, gamma=gamma)
    gammas = np.asarray(gammas, dtype=float)
    if ref_gain is not None:
        ref_gain = np.asarray(ref_gain, dtype=float)
        if not ref_gain.any():
            raise ValueError("ref_gain is all zero: it sets no guard scale")
        guard = _GUARD_FACTOR * np.abs(ref_gain).max()
    else:
        # Only non-finite gains fail the comparison below.
        guard = np.finfo(float).max

    n, r, size, max_iters = model.n, model.r, cfg.batch_size, cfg.max_iters
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    errors: list = [None] * count
    # A run's generator, initial pool and burn-in depend on its seed alone,
    # so they are made once per distinct seed (in order of first
    # appearance), and run k reads row run_seed[k] of them.  One NoiseStack
    # draws every seed's generator once per step, burn-in and training
    # alike, also after all of a seed's runs have stopped: that generator
    # feeds no other seed, so no run's numbers change.
    row = {seed: u for u, seed in enumerate(dict.fromkeys(seeds))}
    run_seed = np.array([row[seed] for seed in seeds])
    rngs = [np.random.default_rng(seed) for seed in row]
    pool = np.stack([sample_initial_error(model, cfg.init_mode, rng,
                                          size=size) for rng in rngs])
    noise_stack = NoiseStack(model, rngs, size)

    # Burn-in advances the pools under the zero gain by the transition
    # alone: the kernel builds its shapes, and step's reward would be
    # thrown away.  A seed whose pool diverges stops all of its runs.
    burning, burn_rows = np.arange(len(rngs)), None
    zero_gain = np.zeros((len(rngs), n, r))
    for _ in range(cfg.burn_in):
        pool, _ = _transition(model, pool, zero_gain[:burning.size],
                              _rows(noise_stack.draw(), burn_rows))
        worst_pool, failed = diverged_runs(pool)
        if failed.any():
            for u, worst in zip(burning[failed], worst_pool[failed]):
                for k in np.flatnonzero(run_seed == u):
                    errors[k] = ("error pool diverged during burn-in "
                                 f"(max entry {worst:.3e})")
            pool, burning = pool[~failed], burning[~failed]
            burn_rows = _row_index(burning, len(rngs))

    live = np.flatnonzero(np.isin(run_seed, burning))
    pool = pool[np.searchsorted(burning, run_seed[live])]
    seed_rows = _row_index(run_seed[live], len(rngs))
    live_gammas = gammas[live]
    theta = np.zeros((live.size, n, r))
    w = np.tile(model.eye, (live.size, 1, 1))
    # Adam's moment estimates for the critic and the actor.
    m_w, v_w, m_theta, v_theta = (np.zeros_like(a)
                                  for a in (w, w, theta, theta))
    theta_hist = np.zeros((count, max_iters, n, r))
    critic_hist, actor_hist = np.zeros((2, count, max_iters))
    tail_start = max(int(np.ceil(max_iters * (1.0 - cfg.tail_avg_frac))), 1)
    sampled = cfg.estimator == "sampled"

    def retire(stop, failed, worst_pool, k):
        """Record why the flagged live runs stopped at k, and drop them."""
        nonlocal live, theta, w, pool, live_gammas, m_w, v_w, m_theta, v_theta
        nonlocal seed_rows
        iterations[live[stop]] = k
        converged[live[stop & ~failed]] = True
        for j in np.flatnonzero(failed):
            errors[live[j]] = _divergence_message(theta[j], guard,
                                                  worst_pool[j])
        keep = ~stop
        live, theta, w, pool, live_gammas, m_w, v_w, m_theta, v_theta = (
            a[keep] for a in (live, theta, w, pool, live_gammas,
                              m_w, v_w, m_theta, v_theta))
        seed_rows = _row_index(run_seed[live], len(rngs))

    for k in range(1, max_iters + 1):
        if not live.size:
            break
        noise = _rows(noise_stack.draw(), seed_rows)
        law = _next_error_law(model, theta, pool, noise if sampled else None)
        c_loss, c_grad = _critic_step(model, law, w, pool, live_gammas)
        w, m_w, v_w = adam_update(w, c_grad, m_w, v_w, k, cfg.lr_critic)
        w = symmetrize(w)
        a_loss, a_grad = _actor_step(model, law, w, live_gammas)
        # The actor ascends its objective, so Adam descends its negation.
        updated, m_theta, v_theta = adam_update(
            theta, -a_grad, m_theta, v_theta, k, cfg.lr_actor)
        # A drawn law is this draw's transition under the old gain, and the
        # pool takes it; with the noise integrated out, the pool advances
        # under the updated gain.
        pool = (law.drawn if law.cov is None
                else _transition(model, pool, updated, noise)[0])
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
    # Each surviving run's mean iterate from the tail start (or its last
    # iterate alone) to its stop; with no iterations, the zero start gain.
    gains = np.full((count, n, r), np.nan)
    for run, k in enumerate(iterations):
        if errors[run] is None:
            gains[run] = (theta_hist[run, min(tail_start, k) - 1:k]
                          .mean(axis=0) if k else 0.0)
    return TrainRuns(
        gains=gains, theta=theta_hist, critic_loss=critic_hist,
        actor_loss=actor_hist, iterations=iterations, converged=converged,
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
