"""Monte Carlo evaluation of fixed filter gains.

Trajectories roll the estimation error forward under a constant gain,
through the same transition the error MDP uses, and record its squared
norm per step.  For a linear plant whose input the filter knows, the input
cancels from the error exactly, so neither the plant state nor the input
is simulated.  Losses split each trajectory at a critical time into
transient and steady windows; the critical time can either be configured
or detected from the flattening of the log mean-square-error curve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# cov_factor stays importable here for callers that look it up on this
# module; trajectories draw noise through a NoiseStack.
from .error_mdp import (NoiseStack, cov_factor,  # noqa: F401
                        sample_initial_error, step)
from .errors import DivergenceError
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
        if not 0 < self.t_critical < self.t_test:
            raise ValueError(
                f"need 0 < t_critical < t_test, got {self.t_critical} "
                f"vs {self.t_test}")
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")

    def to_dict(self) -> dict:
        return {"n_traj": self.n_traj, "t_test": self.t_test,
                "t_critical": self.t_critical, "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalConfig":
        return cls(**doc)


@dataclass(frozen=True)
class EvalReport:
    """Split losses plus the per-step log10 mean-square-error curve."""

    loss_tran: float
    loss_ss: float
    loss_full: float
    logmse_curve: np.ndarray = field(repr=False)


def _simulate(model: LinearGaussianModel, gain: np.ndarray, t_test: int,
              e0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Squared estimation error per step for a batch of trajectories.

    The error starts at ``e0`` (shape (N, n)) and advances through the
    error-MDP transition :func:`step`, drawing process and then
    measurement noise from ``rng`` each step.  Returns (N, t_test) squared
    errors for steps 1..t_test.
    """
    # A stack of one run: the error and the noise carry a leading axis of 1.
    noise = NoiseStack(model, [rng], e0.shape[0])
    err = e0[np.newaxis]
    squared = np.empty((e0.shape[0], t_test))
    for t in range(1, t_test + 1):
        err, reward = step(model, err, gain, noise.draw())
        values = -reward[0]
        if not np.all(np.isfinite(values)):
            raise DivergenceError(
                f"estimation error diverged at step {t}", step=t)
        squared[:, t - 1] = values
    return squared


def run_trajectories(model: LinearGaussianModel, gain: np.ndarray,
                     cfg: EvalConfig, bounds=None) -> np.ndarray:
    """Squared errors for ``cfg.n_traj`` trajectories, shape (N, t_test).

    Each trajectory's initial error is drawn from the uniform box
    (``bounds`` overrides its half-widths) and then advanced by the error
    recursion e' = (I - K C)(A e + E xi) - K zeta under ``gain``.  All
    randomness comes from a single generator seeded with ``cfg.seed``, so
    two gains evaluated with the same config see identical initial errors
    and noise (paired comparison), and the same config reproduces the
    array bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    e0 = sample_initial_error(model, "uniform_box", rng, size=cfg.n_traj,
                              bounds=bounds)
    return _simulate(model, gain, cfg.t_test, e0, rng)


def losses(squared_error: np.ndarray, t_critical: int) -> EvalReport:
    """Split per-trajectory time averages at the critical time.

    ``squared_error`` is (n_traj, t_test) with column j holding step j+1.
    Transient averages steps 1..t_critical, steady the remainder, full the
    whole trajectory; each is then averaged over trajectories.  The curve
    is log10 of the per-step mean squared error.
    """
    se = np.asarray(squared_error, dtype=float)
    if se.ndim != 2 or se.size == 0:
        raise ValueError("squared_error must be a non-empty (n_traj, t_test) array")
    t_test = se.shape[1]
    if not 0 < t_critical < t_test:
        raise ValueError(
            f"need 0 < t_critical < t_test={t_test}, got {t_critical}")
    loss_tran = float(se[:, :t_critical].sum(axis=1).mean() / t_critical)
    loss_ss = float(se[:, t_critical:].sum(axis=1).mean()
                    / (t_test - t_critical))
    loss_full = float(se.sum(axis=1).mean() / t_test)
    with np.errstate(divide="ignore"):
        curve = np.log10(se.mean(axis=0))
    return EvalReport(loss_tran=loss_tran, loss_ss=loss_ss,
                      loss_full=loss_full, logmse_curve=curve)


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
    """Evaluate named gains with common trajectory seeds.

    ``gains`` is an iterable of (name, gain matrix).  Each gain reruns the
    same seeded trajectory set, so rows are directly comparable.  A gain
    whose simulation blows up gets a "diverged" status with NaN losses.

    Returns:
        One dict per gain: name, loss_tran, loss_ss, loss_full, status,
        and the report (None when diverged).
    """
    rows = []
    for name, gain in gains:
        try:
            se = run_trajectories(model, gain, cfg)
        except DivergenceError:
            rows.append({"name": name, "loss_tran": float("nan"),
                         "loss_ss": float("nan"), "loss_full": float("nan"),
                         "status": "diverged", "report": None})
            continue
        report = losses(se, cfg.t_critical)
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

