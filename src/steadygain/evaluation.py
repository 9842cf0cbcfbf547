"""Monte Carlo evaluation of fixed filter gains.

Trajectories roll the estimation error forward under a constant gain K
and record its squared norm per step.  They run the error MDP's
transition in closed-loop form, e' = F e + D w, with F = (I - K C) A,
D = [(I - K C) E L_Q, -K L_R] for factors L L^T of Q and R, and w the raw
standard normals of the process and then the measurement noise, which
each step draws straight into the (p + r, N) block the product reads.
For a linear plant whose input the filter knows, the input cancels from
the error exactly, so neither the plant state nor the input is
simulated.  The trajectories run as two blocks, each on its own seeded
noise stream, in a thread pool of a worker per usable CPU, at most two;
the results are the same on any number of workers.  Several gains
advance together in one paired pass: each step's noise is drawn once
and drives every gain's errors.  A gain whose errors leave the
divergence guard leaves the pass but steps on in its place, as a stopped
run does in training, and each block returns a drop record of the step
at which it left; the pass ends when every gain has left.  After each
step a callback takes the errors of the whole stack, and keeps only the
per-step mean squared error of each gain for :func:`evaluate_gains`.
Every trajectory has the same length, so the losses are plain averages
of that curve, split at a critical time into transient and steady
windows; the critical time can either be configured or detected from the
flattening of the log mean-square-error curve.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .error_mdp import (_check_initial_error_box, _closed_loop,
                        _draw_normals, cov_factor, diverged_runs,
                        sample_initial_error)
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

# The trajectories run as this many blocks, each on its own noise stream.
# The step is bound by drawing normals, which one generator does on one
# core; two blocks on two threads use a second core.  The count is fixed
# here, not taken from the host, so the numbers do not depend on it.  The
# block streams are SFC64 generators, which draw normals about 18 % faster
# than numpy's default PCG64 (20 000 normals: 195 us against 237 us on one
# core of a 2-vCPU x86 host), so that one CPU running both blocks in turn
# is no slower than one generator over all the trajectories.
_BLOCKS = 2

# detect_critical_time reads the curve as flat where a least-squares line
# over this many trailing steps has a slope below _FLAT_SLOPE.
_FLAT_WINDOW = 50
_FLAT_SLOPE = 1e-4


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


def _rollout(closed: np.ndarray, drive: np.ndarray, t_test: int,
             e0: np.ndarray, rng: np.random.Generator, keep) -> np.ndarray:
    """Advance one trajectory set under a stack of gains, step by step.

    Every gain of the stack starts from the same initial errors ``e0``
    (shape (N, n)) and sees the same noise.  The errors under gain K
    advance in closed-loop form,

        e' = F e + D w,    F = (I - K C) A,    D = [(I - K C) E L_Q, -K L_R],

    with ``closed`` and ``drive`` the stacks of F and D, L_Q and L_R the
    :func:`cov_factor` factors of Q and R, and w = (xi, zeta) the raw
    standard normals.  This is the error transition
    e' = (I - K C)(A e + E L_Q xi) - K L_R zeta with the noise colouring
    folded into D.  Each step fills w, a row per column of D (p rows for xi
    over r rows for zeta) with the N trajectories on the last axis, from
    ``rng`` in one call by :func:`_draw_normals`, as training does, and
    advances the (count, n, N) error stack, trajectories on the last axis
    too.

    A gain leaves at the step where :func:`diverged_runs` first flags its
    errors (non-finite or beyond the guard), the step that the returned
    drop record holds for it (``t_test + 1`` if it never leaves), and
    steps on in its stack slot, as a stopped run does in training; the
    noise is shared and each slot advances on its own, so that never
    changes another gain's numbers.  After each step t = 1..t_test that
    leaves a gain going, ``keep(t, errors)`` takes the (count, n, N)
    errors of the whole stack.  The rollout stops at the step at which
    the last gain leaves.  The steps run in one workspace allocated here,
    so ``errors`` is a view that the next step overwrites.
    """
    count, size = len(closed), len(e0)
    # Two state buffers used in turn, since a product cannot overwrite the
    # state it reads.  Fresh state-sized arrays each step would cost page
    # faults: glibc hands freed arrays of this size back to the kernel, so
    # new ones fault in zeroed pages.
    state = np.repeat(e0.T[np.newaxis], count, axis=0)
    spare, driven = np.empty_like(state), np.empty_like(state)
    normals = [rng.standard_normal]
    w = np.empty((1, drive.shape[-1], size))
    left = np.full(count, t_test + 1)
    # A gain that has left steps on, and its errors, squared by keep too,
    # may overflow to inf and nan.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, t_test + 1):
            _draw_normals(normals, w)
            np.matmul(closed, state, out=spare)
            spare += np.matmul(drive, w, out=driven)
            state, spare = spare, state
            _, bad = diverged_runs(state)
            left[bad & (left > t)] = t
            if (left <= t).all():
                break
            keep(t, state)
    return left


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rollout_blocks(model: LinearGaussianModel, gains: np.ndarray,
                    cfg: EvalConfig, keep) -> np.ndarray:
    """Roll ``cfg.n_traj`` trajectories under a gain stack, block by block.

    The initial errors are one :func:`sample_initial_error` draw from a
    generator seeded with ``cfg.seed``, and the trajectories are split
    into ``_BLOCKS`` contiguous blocks, the first ones a trajectory longer
    when N does not divide.  Block b draws its noise from its own SFC64
    generator, seeded with child b of ``SeedSequence(cfg.seed).spawn(
    _BLOCKS)``, and runs :func:`_rollout` on F and D, which are formed
    once here.  The non-empty blocks (N below ``_BLOCKS`` leaves one
    empty) run in a thread pool of a worker per usable CPU, at most one
    per block, each worker running its share in turn; a block's numbers
    depend only on its own errors and stream, so they are the same on
    any number of workers.  Only :func:`_rollout` and ``keep`` run on the
    workers.

    ``keep(block, rows, t, errors)`` is each block's ``keep`` of
    :func:`_rollout`, on its worker, with ``rows`` the block's slice of
    the N trajectories and ``errors`` every gain's, those of a gain that
    has left the block included, since it steps on there.  It must write
    only where no other block writes.  An exception raised in a block
    reaches the caller once the running blocks have stopped; the rest of
    its worker's share does not start.

    Returns, per gain, the first step at which it left a block, and
    ``t_test + 1`` for a gain that left none.
    """
    # Not at module level: it imports logging, which every start would pay.
    from concurrent.futures import ThreadPoolExecutor

    e0 = sample_initial_error(model, np.random.default_rng(cfg.seed),
                              size=cfg.n_traj)
    # A gain so large that F or D overflows gives inf and nan errors, which
    # the guard flags at step 1; they are not warned about, here or in
    # _rollout.
    with np.errstate(over="ignore", invalid="ignore"):
        _, closed, drive = _closed_loop(model, gains,
                                        model.E @ cov_factor(model.Q),
                                        cov_factor(model.R))
    streams = np.random.SeedSequence(cfg.seed).spawn(_BLOCKS)
    edges = [-(-cfg.n_traj * b // _BLOCKS) for b in range(_BLOCKS + 1)]

    def run(block):
        rows = slice(edges[block], edges[block + 1])
        return _rollout(closed, drive, cfg.t_test, e0[rows],
                        np.random.Generator(np.random.SFC64(streams[block])),
                        partial(keep, block, rows))

    blocks = [b for b in range(_BLOCKS) if edges[b] < edges[b + 1]]
    # A worker stops at the first block of its share that raises; mapping
    # run over the blocks would let a freed worker start the next one.
    workers = min(_usable_cpus(), len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        shares = pool.map(lambda share: [run(block) for block in share],
                          [blocks[w::workers] for w in range(workers)])
        return np.min([left for share in shares for left in share], axis=0)


def run_trajectories(model: LinearGaussianModel, gain: np.ndarray,
                     cfg: EvalConfig) -> np.ndarray:
    """Squared errors for ``cfg.n_traj`` trajectories, shape (N, t_test).

    Each trajectory's initial error is drawn from the vehicle's uniform
    box and then advanced by the error recursion
    e' = (I - K C)(A e + E xi) - K zeta under ``gain``.  The initial
    errors come from a generator seeded with ``cfg.seed``, and the noise
    from the seeded streams of :func:`_rollout_blocks`, one per half of
    the trajectories.  So two gains evaluated with the same config see
    identical initial errors and noise (paired comparison), and the same
    config reproduces the array bit for bit on any number of workers.
    This is the rollout of :func:`evaluate_gains` with a stack of one
    gain; it keeps every trajectory, so it holds N x t_test values where
    :func:`evaluate_gains` keeps t_test per gain.

    Raises:
        ValueError: before any noise is drawn, if ``gain`` is not n x r or
            has a non-finite entry, or the model has n != 2 states.
        DivergenceError: once the rollout ends, if at some step ``step``
            an error entry was non-finite or beyond the divergence guard;
            ``step`` is the smallest drop step over the blocks.
    """
    gains = _checked_gain(model, gain, "gain")[np.newaxis]
    squared = np.empty((cfg.n_traj, cfg.t_test))

    def keep(block, rows, t, errors):
        # The components of each error are squared and added in order.
        squared[rows, t - 1] = np.add.reduce(np.square(errors[0]), axis=0)

    left, = _rollout_blocks(model, gains, cfg, keep)
    if left <= cfg.t_test:
        raise DivergenceError(
            f"estimation error diverged at step {left}", step=int(left))
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


def detect_critical_time(logmse_curve: np.ndarray) -> int:
    """First step at which the log-MSE curve is flat over a trailing window.

    Fits a least-squares line to each trailing ``_FLAT_WINDOW``-step (50)
    segment and returns the smallest end step whose slope magnitude is
    below ``_FLAT_SLOPE`` (1e-4); if no segment qualifies, returns
    :class:`EvalConfig`'s default ``t_critical``, which must then split the
    curve as :func:`losses` needs (else ValueError).
    """
    curve = np.asarray(logmse_curve, dtype=float)
    if curve.ndim != 1 or len(curve) < _FLAT_WINDOW:
        raise ValueError(f"curve must hold at least {_FLAT_WINDOW} steps")
    x = np.arange(_FLAT_WINDOW) - (_FLAT_WINDOW - 1) / 2.0
    sxx = float(x @ x)
    for t in range(_FLAT_WINDOW, len(curve) + 1):
        slope = float(x @ curve[t - _FLAT_WINDOW:t]) / sxx
        if abs(slope) < _FLAT_SLOPE:
            return t
    fallback = EvalConfig.t_critical
    if not fallback < len(curve):
        raise ValueError(f"no window is flat and the default t_critical="
                         f"{fallback} is not a step 1 .. {len(curve) - 1} "
                         f"of the curve")
    return fallback


def gain_metrics(pi: np.ndarray, k_inf: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise gain difference and its percentage of the largest element.

    Returns (D, E) with D = pi - k_inf and
    E = D / max|k_inf| * 100, both n x r.  A reference ``k_inf`` that is
    all zero or has a non-finite entry raises ValueError.
    """
    pi = np.asarray(pi, dtype=float)
    k_inf = np.asarray(k_inf, dtype=float)
    if pi.shape != k_inf.shape:
        raise ValueError(f"shape mismatch: {pi.shape} vs {k_inf.shape}")
    if not np.isfinite(k_inf).all():
        raise ValueError("reference gain contains non-finite entries")
    scale = np.abs(k_inf).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("reference gain is identically zero")
    diff = pi - k_inf
    return diff, diff / scale * 100.0


def _checked_gain(model: LinearGaussianModel, gain, label: str
                  ) -> np.ndarray:
    """``gain`` as a float array; ValueError, naming it by ``label``, if it
    is not n x r, with its shape, or has a non-finite entry."""
    if np.shape(gain) != (model.n, model.r):
        raise ValueError(f"{label} must be {model.n} x {model.r}, "
                         f"got {np.shape(gain)}")
    gain = np.asarray(gain, dtype=float)
    if not np.isfinite(gain).all():
        raise ValueError(f"{label} contains non-finite entries")
    return gain


def _check_named_gains(model: LinearGaussianModel, named: list) -> None:
    """Raise ValueError for what :func:`evaluate_gains` refuses: a model
    that the vehicle's box of initial errors does not fit (n != 2), or the
    first (name, gain) pair with an empty name, a gain that
    :func:`_checked_gain` refuses, or a name given twice."""
    _check_initial_error_box(model)
    names = [name for name, _ in named]
    for k, (name, gain) in enumerate(named):
        if not name:
            raise ValueError(f"gain number {k + 1} has an empty name")
        _checked_gain(model, gain, f"gain {name!r}")
        if name in names[:k]:
            raise ValueError(f"gain name {name!r} is given twice")


def evaluate_gains(model: LinearGaussianModel, gains, cfg: EvalConfig
                   ) -> list[dict]:
    """Evaluate named gains in one paired pass over one trajectory set.

    ``gains`` is an iterable of (name, gain matrix).  All gains advance
    together from the same seeded initial errors under the same noise
    draws, so rows are directly comparable, and each row equals the same
    gain evaluated alone.  The noise comes from the seeded streams of
    :func:`_rollout_blocks`, one per half of the trajectories, and the
    rows are the same on any number of workers.  Only the per-step mean
    squared error is kept per gain (O(K t_test) memory for K gains): the
    blocks' per-step sums of squares, added in block order, over N.
    :func:`losses` splits it.  A gain whose errors leave the divergence
    guard in any block gets a "diverged" status with NaN losses.

    Returns:
        One dict per gain: name, loss_tran, loss_ss, loss_full, status,
        and the report (None when diverged).

    Raises:
        ValueError: before any noise is drawn, if the model has n != 2
            states, or naming the first gain that has an empty name, is
            not n x r (with its shape) or has a non-finite entry, or the
            first name given twice.
    """
    named = list(gains)
    if not named:
        return []
    _check_named_gains(model, named)
    stack = np.array([gain for _, gain in named], dtype=float)
    sums = np.zeros((_BLOCKS, len(named), cfg.t_test))

    def keep(block, rows, t, errors):
        # numpy's own loop rather than a BLAS dot product, which is faster
        # but splits a long vector across BLAS threads, so that its last
        # bits would follow the CPU count.
        sums[block, :, t - 1] = np.einsum("kij,kij->k", errors, errors)

    left = _rollout_blocks(model, stack, cfg, keep)
    # The blocks' sums are added in block order, whichever worker ran them.
    mse = sums.sum(axis=0) / cfg.n_traj
    rows = []
    for k, (name, _) in enumerate(named):
        if left[k] <= cfg.t_test:
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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "loss_tran", "loss_ss", "loss_full", "status"])
        for row in rows:
            writer.writerow([row["name"], row["loss_tran"], row["loss_ss"],
                             row["loss_full"], row["status"]])

