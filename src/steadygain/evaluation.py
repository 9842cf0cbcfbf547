"""Monte Carlo evaluation of fixed filter gains.

Trajectories roll the estimation error forward under a constant gain,
through the same transition the error MDP uses, and record its squared
norm per step.  For a linear plant whose input the filter knows, the input
cancels from the error exactly, so neither the plant state nor the input
is simulated.  Several gains advance together in one paired pass: each
step's noise is drawn once and drives every gain's errors, and only the
per-step mean squared error of each gain is kept.  Every trajectory has
the same length, so the losses are plain averages of that curve, split at
a critical time into transient and steady windows; the critical time can
either be configured or detected from the flattening of the log
mean-square-error curve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# cov_factor is unused here; trajectories draw noise through a NoiseStack.
# It stays because the benchmark (perfbench/cases.py, trace_targets) wraps
# it at this name, and its smoke test fails without it; it goes when the
# benchmark traces what runs.
from .error_mdp import (NoiseStack, _check_transition,  # noqa: F401
                        _squared_norm, _transition, cov_factor,
                        diverged_runs, sample_initial_error)
from .errors import DivergenceError, check_integer
from .models import LinearGaussianModel

__all__ = [
    "EvalConfig",
    "EvalReport",
    "run_trajectories",
    "losses",
    "detect_critical_time",
    "gain_metrics",
    "evaluate_gains",
    "write_eval_csv",
]


@dataclass(frozen=True)
class EvalConfig:
    """Monte Carlo evaluation controls."""

    n_traj: int = 10000
    t_test: int = 1000
    t_critical: int = 195
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_traj", 1), ("t_test", 2),
                              ("t_critical", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        if not self.t_critical < self.t_test:
            raise ValueError(
                f"need 0 < t_critical < t_test, got {self.t_critical} "
                f"vs {self.t_test}")


@dataclass(frozen=True)
class EvalReport:
    """Split losses plus the per-step log10 mean-square-error curve."""

    loss_tran: float
    loss_ss: float
    loss_full: float
    logmse_curve: np.ndarray = field(repr=False)


def _rollout(model: LinearGaussianModel, gains: np.ndarray, t_test: int,
             e0: np.ndarray, rng: np.random.Generator):
    """Advance one trajectory set under a stack of gains, step by step.

    Every gain in the (K, n, r) stack starts from the same initial errors
    ``e0`` (shape (N, n)) and sees the same noise: each step draws process
    and then measurement noise once from ``rng`` and advances the
    (K, N, n) error stack by the error transition.  A gain leaves the
    stack at the step where :func:`diverged_runs` flags its errors
    (non-finite or beyond the guard); the noise is shared, so that never
    changes another gain's numbers.

    Yields, for steps t = 1..t_test, ``(t, alive, squared)``: the indices
    of the gains still in the stack and their (len(alive), N) squared
    errors.  Stops after the step at which the last gain leaves.  The
    steps run in one workspace allocated here, so ``squared`` is a view
    that the next step overwrites.
    """
    count, size = len(gains), len(e0)
    gains = np.array(gains, dtype=float)
    noise = NoiseStack(model, [rng], size)
    # Two state buffers used in turn, since a step cannot overwrite the
    # state it reads; the live gains and their errors are compacted into
    # the leading slice of each buffer.
    state = np.repeat(e0[np.newaxis], count, axis=0)
    _check_transition(model, state, gains, noise.buffers)
    spare, kv = np.empty_like(state), np.empty_like(state)
    v = np.empty((count, size, model.r))
    exi = np.empty((1, size, model.n))
    square, squared = np.empty((count, size)), np.empty((count, size))
    alive = np.arange(count)
    for t in range(1, t_test + 1):
        live = alive.size
        _transition(model, state[:live], gains[:live], noise.draw(),
                    out=(spare[:live], kv[:live], v[:live], exi))
        state, spare = spare, state
        _, bad = diverged_runs(state[:live])
        if bad.any():
            kept = np.flatnonzero(~bad)
            alive, live = alive[kept], kept.size
            state[:live], gains[:live] = state[kept], gains[kept]
        yield t, alive, _squared_norm(state[:live],
                                      out=(square[:live], squared[:live]))
        if not live:
            return


def _initial_error(model: LinearGaussianModel, cfg: EvalConfig, bounds=None
                   ) -> tuple[np.ndarray, np.random.Generator]:
    """Seeded initial errors, and the generator the noise draws continue."""
    rng = np.random.default_rng(cfg.seed)
    e0 = sample_initial_error(model, "uniform_box", rng, size=cfg.n_traj,
                              bounds=bounds)
    return e0, rng


def run_trajectories(model: LinearGaussianModel, gain: np.ndarray,
                     cfg: EvalConfig, bounds=None) -> np.ndarray:
    """Squared errors for ``cfg.n_traj`` trajectories, shape (N, t_test).

    Each trajectory's initial error is drawn from the uniform box
    (``bounds`` overrides its half-widths) and then advanced by the error
    recursion e' = (I - K C)(A e + E xi) - K zeta under ``gain``.  All
    randomness comes from a single generator seeded with ``cfg.seed``, so
    two gains evaluated with the same config see identical initial errors
    and noise (paired comparison), and the same config reproduces the
    array bit for bit.  This is the rollout of :func:`evaluate_gains` with
    a stack of one gain; it keeps every trajectory, so it holds
    N x t_test values where :func:`evaluate_gains` keeps t_test per gain.

    Raises:
        DivergenceError: at the first step ``step`` at which an error
            entry is non-finite or beyond the divergence guard.
    """
    e0, rng = _initial_error(model, cfg, bounds)
    squared = np.empty((cfg.n_traj, cfg.t_test))
    gains = np.asarray(gain, dtype=float)[np.newaxis]
    for t, alive, values in _rollout(model, gains, cfg.t_test, e0, rng):
        if not alive.size:
            raise DivergenceError(
                f"estimation error diverged at step {t}", step=t)
        squared[:, t - 1] = values[0]
    return squared


def losses(mse: np.ndarray, t_critical: int) -> EvalReport:
    """Split the per-step mean squared error at the critical time.

    ``mse`` is the (t_test,) curve of mean squared errors, entry j holding
    step j+1.  Every trajectory has the same length, so each loss is a
    plain average of the curve: transient over steps 1..t_critical, steady
    over the remainder, full over all of it.  The report's curve is log10
    of ``mse``.
    """
    curve = np.asarray(mse, dtype=float)
    if curve.ndim != 1 or curve.size == 0:
        raise ValueError("mse must be a non-empty (t_test,) curve")
    t_test = len(curve)
    if not 0 < t_critical < t_test:
        raise ValueError(
            f"need 0 < t_critical < t_test={t_test}, got {t_critical}")
    with np.errstate(divide="ignore"):
        logmse = np.log10(curve)
    return EvalReport(loss_tran=float(curve[:t_critical].mean()),
                      loss_ss=float(curve[t_critical:].mean()),
                      loss_full=float(curve.mean()), logmse_curve=logmse)


def detect_critical_time(logmse_curve: np.ndarray, window: int = 50,
                         slope_tol: float = 1e-4,
                         fallback: int = 195) -> int:
    """First step at which the log-MSE curve is flat over a trailing window.

    Fits a least-squares line to each trailing ``window``-step segment and
    returns the smallest end step whose slope magnitude is below
    ``slope_tol``; if no segment qualifies, returns ``fallback``.
    """
    curve = np.asarray(logmse_curve, dtype=float)
    if curve.ndim != 1 or len(curve) < window:
        raise ValueError(f"curve must hold at least {window} steps")
    x = np.arange(window) - (window - 1) / 2.0
    sxx = float(x @ x)
    for t in range(window, len(curve) + 1):
        segment = curve[t - window:t]
        slope = float(x @ segment) / sxx
        if abs(slope) < slope_tol:
            return t
    return fallback


def gain_metrics(pi: np.ndarray, k_inf: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise gain difference and its percentage of the largest element.

    Returns (D, E) with D = pi - k_inf and
    E = D / max|k_inf| * 100, both n x r.
    """
    pi = np.asarray(pi, dtype=float)
    k_inf = np.asarray(k_inf, dtype=float)
    if pi.shape != k_inf.shape:
        raise ValueError(f"shape mismatch: {pi.shape} vs {k_inf.shape}")
    scale = np.abs(k_inf).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("reference gain is identically zero")
    diff = pi - k_inf
    return diff, diff / scale * 100.0


def evaluate_gains(model: LinearGaussianModel, gains, cfg: EvalConfig
                   ) -> list[dict]:
    """Evaluate named gains in one paired pass over one trajectory set.

    ``gains`` is an iterable of (name, gain matrix).  All gains advance
    together from the same seeded initial errors under the same noise
    draws, so rows are directly comparable, and each row equals the same
    gain evaluated alone.  Only the per-step mean squared error is kept
    per gain (O(K t_test) memory for K gains), and :func:`losses` splits
    it.  A gain whose errors leave the divergence guard gets a "diverged"
    status with NaN losses.

    Returns:
        One dict per gain: name, loss_tran, loss_ss, loss_full, status,
        and the report (None when diverged).

    Raises:
        ValueError: before any noise is drawn, naming the first gain that
            is not n x r and its shape.
    """
    named = list(gains)
    if not named:
        return []
    for name, gain in named:
        if np.shape(gain) != (model.n, model.r):
            raise ValueError(f"gain {name!r} must be {model.n} x {model.r}, "
                             f"got {np.shape(gain)}")
    stack = np.array([gain for _, gain in named], dtype=float)
    e0, rng = _initial_error(model, cfg)
    mse = np.full((len(named), cfg.t_test), np.nan)
    for t, alive, squared in _rollout(model, stack, cfg.t_test, e0, rng):
        mse[alive, t - 1] = squared.mean(axis=-1)
    rows = []
    for k, (name, _) in enumerate(named):
        if k not in alive:
            rows.append({"name": name, "loss_tran": float("nan"),
                         "loss_ss": float("nan"), "loss_full": float("nan"),
                         "status": "diverged", "report": None})
            continue
        report = losses(mse[k], cfg.t_critical)
        rows.append({"name": name, "loss_tran": report.loss_tran,
                     "loss_ss": report.loss_ss, "loss_full": report.loss_full,
                     "status": "ok", "report": report})
    return rows


def write_eval_csv(rows: list[dict], path) -> None:
    """One summary row per evaluated gain."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "loss_tran", "loss_ss", "loss_full", "status"])
        for row in rows:
            writer.writerow([row["name"], row["loss_tran"], row["loss_ss"],
                             row["loss_full"], row["status"]])

