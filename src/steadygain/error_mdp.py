"""Estimation error as a Markov decision process.

The MDP state is the estimation error e, the action is a constant filter
gain a, and a transition draws process/measurement noise and applies

    e' = (I - a C)(A e + E xi) - a zeta,    reward = -e'^T e'

so that maximizing accumulated reward means driving the error to zero.
Pools of error states stand in for the stationary error distribution
during training: they are seeded from an initial-error sampler and rolled
forward one transition at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LinearGaussianModel

__all__ = [
    "NoiseDraw",
    "NoiseStack",
    "cov_factor",
    "draw_noise",
    "step",
    "sample_initial_error",
    "diverged_runs",
    "VEHICLE_INITIAL_ERROR",
]

# The vehicle's default initial error, 5 deg of sideslip and 10 deg/s of
# yaw rate in radians: the half-widths of the uniform box, and the error
# the fixed sampler repeats.
VEHICLE_INITIAL_ERROR = (5.0 * np.pi / 180.0, 10.0 * np.pi / 180.0)

# Pool entries beyond this magnitude are treated as diverged.
_DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class NoiseDraw:
    """One realization (or a batch) of process and measurement noise.

    ``xi`` has trailing dimension p (raw process noise), ``zeta`` trailing
    dimension r (measurement noise).  Batched draws stack along the leading
    axis.
    """

    xi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))


def cov_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov for a symmetric PSD matrix.

    Eigenvalue-based so that singular (e.g. zero) covariances are accepted;
    tiny negative eigenvalues from roundoff are clipped.
    """
    cov = np.asarray(cov, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


class NoiseStack:
    """Batched Gaussian noise, one (size, .) batch per generator per draw.

    Each :meth:`draw` fills row u of ``buffers`` with a (size, .) batch of
    process noise (covariance Q) and then measurement noise (covariance R)
    from ``rngs[u]``, so a row never depends on the other generators.  The
    generators are drawn in order and each once per draw; a caller whose
    runs share a generator reads its row for each of them.  Q and R are
    factored once, not per draw, and the transposed factors are stored
    C-contiguous so that coloring the standard normals stays on BLAS (see
    :func:`_transition`).  The stack owns its buffers: ``buffers`` holds
    the (len(rngs), size, .) arrays every draw ends in, so a draw is
    overwritten by the next one.  :func:`draw_noise` is the one-generator
    form.
    """

    def __init__(self, model: LinearGaussianModel, rngs, size: int):
        self._normals = [rng.standard_normal for rng in rngs]
        count = len(self._normals)
        self._fq_t = _transposed(cov_factor(model.Q))
        self._fr_t = _transposed(cov_factor(model.R))
        self._xi = np.empty((count, size, model.p))
        self._zeta = np.empty((count, size, model.r))
        self.buffers = NoiseDraw(xi=np.empty_like(self._xi),
                                 zeta=np.empty_like(self._zeta))

    def draw(self) -> NoiseDraw:
        """One (len(rngs), size, .) batch, row u from generator u.

        The batch is ``buffers``, valid until the next draw overwrites it.
        """
        for normal, xi, zeta in zip(self._normals, self._xi, self._zeta):
            normal(out=xi)
            normal(out=zeta)
        return NoiseDraw(
            xi=np.matmul(self._xi, self._fq_t, out=self.buffers.xi),
            zeta=np.matmul(self._zeta, self._fr_t, out=self.buffers.zeta))


def draw_noise(model: LinearGaussianModel, rng: np.random.Generator,
               size: int) -> NoiseDraw:
    """A (size, .) noise batch from ``rng``: a one-run NoiseStack's draw."""
    noise = NoiseStack(model, [rng], size).draw()
    return NoiseDraw(xi=noise.xi[0], zeta=noise.zeta[0])


def _transition(model: LinearGaussianModel, s: np.ndarray, a: np.ndarray,
                noise: NoiseDraw, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Next errors s' = z - a v and innovations v = C z + zeta.

    Here z = A s + E xi; shapes are as :func:`step` accepts them.  ``out``
    is None for fresh arrays, or buffers (s', a v, v, E xi) that the step
    is written into: s' and a v shaped like s and not overlapping it, v
    like s with r columns, and E xi like the process noise with n columns.
    The s' and v buffers are returned.
    """
    # Every right operand is a C-contiguous transpose, because numpy's
    # matmul stays on BLAS only for contiguous operands: a transposed view
    # such as A.T sends it to a slow generic loop.  With one BLAS thread,
    # (3, 10 000, 2) @ (2, 2), an eval stack, took 34-62 us against
    # 160-210 us with the view; (15, 256, 2), a sweep pool, 9 us against
    # 33 us; and (1, 256, 2) 2.4 us against 3.9 us.  The products are
    # bitwise equal.  The plant's transposes are derived once per model
    # (``model.A_T`` and friends); only the gain's is copied per call.
    # Every product is written into a buffer, so a caller that passes the
    # same ``out`` each step allocates nothing state-sized.  An eval stack
    # needs that: glibc hands freed 160-480 KB arrays back to the kernel,
    # so fresh ones fault in zeroed pages on every step.  A default eval
    # of three gains (2 vCPU, one BLAS thread) took about 101 600 minor
    # page faults and 0.17-0.23 s of system time with fresh arrays, and
    # about 790 faults and 0.004 s with one workspace (counted by
    # getrusage).  Pools under 64 KB, as in training, stay in the heap and
    # may take fresh arrays.
    nxt, kv, v, exi = (None,) * 4 if out is None else out
    nxt = np.matmul(s, model.A_T, out=nxt)
    nxt += np.matmul(noise.xi, model.E_T, out=exi)
    v = np.matmul(nxt, model.C_T, out=v)
    v += noise.zeta
    nxt -= np.matmul(v, _transposed(a), out=kv)
    return nxt, v


def step(model: LinearGaussianModel, s: np.ndarray, a: np.ndarray,
         noise: NoiseDraw) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of error states one transition under gain ``a``.

    ``s`` is a batch (M, n) with noise of matching shapes (M, .).  A stack
    of gains (K, n, r) advances a stack of batches (K, M, n), batch k under
    gain k.  A stacked state takes noise either per batch, (K, M, .), or
    shared by all K batches, (1, M, .), in which case E xi is formed once.
    Returns the next states and the rewards -e'^T e' of the transitions;
    the squared norm adds the squared components in order, as training's
    critic does for its reward.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_transition(model, s, a, noise)
    nxt, _ = _transition(model, s, a, noise)
    return nxt, -_squared_norm(nxt)


def _squared_norm(x: np.ndarray, out=None) -> np.ndarray:
    """Sum of squares over the last axis, columns squared and added in order.

    On a trailing axis of length 2 this is bitwise equal to
    ``einsum("...i,...i->...", x, x)`` and faster at every stack size,
    because einsum's two-operand loop over so short an axis is slow: on
    one core, 76 us against 212 us on (3, 10 000, 2) and 11 us against
    28 us on (15, 256, 2).  ``out`` is None for fresh arrays, or buffers
    (column square, sum) shaped like x[..., 0]; the sum's is returned.
    """
    square, total = (None, None) if out is None else out
    total = np.multiply(x[..., 0], x[..., 0], out=total)
    for j in range(1, x.shape[-1]):
        total += np.multiply(x[..., j], x[..., j], out=square)
    return total


def _transposed(m: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of m with its last two axes swapped."""
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def _check_transition(model: LinearGaussianModel, s: np.ndarray,
                      a: np.ndarray, noise: NoiseDraw) -> None:
    """Raise ValueError unless :func:`step` accepts these shapes."""
    if a.ndim not in (2, 3) or a.shape[-2:] != (model.n, model.r):
        raise ValueError(
            f"gain must be {model.n} x {model.r}, got {a.shape}")
    if a.ndim == 3 and (s.ndim != 3 or s.shape[0] != a.shape[0]):
        raise ValueError(f"a stack of {a.shape[0]} gains needs a "
                         f"({a.shape[0]}, M, {model.n}) state batch, "
                         f"got {s.shape}")
    if s.ndim < 2 or s.shape[-1] != model.n:
        raise ValueError(f"state must be an (M, {model.n}) batch or a stack "
                         f"of them, got {s.shape}")
    xi, zeta = noise.xi, noise.zeta
    lead = s.shape[:-1]
    if s.ndim == 3 and xi.shape[:1] == (1,):
        # One noise batch shared by every batch of the stack.
        lead = (1,) + lead[1:]
    if xi.shape != lead + (model.p,):
        raise ValueError(f"process noise shape {xi.shape} does not match state")
    if zeta.shape != lead + (model.r,):
        raise ValueError(
            f"measurement noise shape {zeta.shape} does not match state")


def sample_initial_error(model: LinearGaussianModel, mode: str,
                         rng: np.random.Generator | None = None, *,
                         size: int,
                         bounds: tuple[float, ...] | None = None) -> np.ndarray:
    """Draw a (size, n) batch of initial error states.

    ``bounds`` holds one value per state, :data:`VEHICLE_INITIAL_ERROR` by
    default, which fits only a 2-dimensional model.  ``mode="fixed"``
    repeats the bounds themselves; ``mode="uniform_box"`` draws each
    component i uniformly from +-bounds[i] with ``rng``.
    """
    if mode not in ("fixed", "uniform_box"):
        raise ValueError(f"unknown initial-error mode {mode!r}")
    if bounds is None:
        if model.n != len(VEHICLE_INITIAL_ERROR):
            raise ValueError(
                f"default initial error is "
                f"{len(VEHICLE_INITIAL_ERROR)}-dimensional but the model "
                f"has n={model.n}; pass explicit bounds")
        bounds = VEHICLE_INITIAL_ERROR
    if len(bounds) != model.n:
        raise ValueError(f"need {model.n} bounds, got {len(bounds)}")
    bounds = np.asarray(bounds, dtype=float)
    if mode == "fixed":
        return np.tile(bounds, (size, 1))
    if rng is None:
        raise ValueError("uniform_box sampling requires an rng")
    return rng.uniform(-1.0, 1.0, (size, model.n)) * bounds


def diverged_runs(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry magnitude of each run's pool, and which runs diverged.

    ``pool`` is one run's (M, n) pool or a stack (K, M, n) of them.  A run
    has diverged when an entry is non-finite or beyond the guard (an error
    process under a destabilizing gain grows without bound).
    """
    # The larger of max and -min is abs(pool).max() without a pool-sized
    # temporary; adding 0.0 turns the -0.0 that maximum may return for an
    # all-zero pool into abs's +0.0.
    axes = (-2, -1)
    worst = np.maximum(pool.max(axis=axes), -pool.min(axis=axes)) + 0.0
    return worst, ~(worst <= _DIVERGENCE_GUARD)

