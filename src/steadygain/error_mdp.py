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
    "UNIFORM_BOX_BOUNDS",
    "FIXED_INITIAL_ERROR",
]

# Half-widths of the default uniform initial-error box: 5 deg of sideslip,
# 10 deg/s of yaw rate, in radians.
UNIFORM_BOX_BOUNDS = (5.0 * np.pi / 180.0, 10.0 * np.pi / 180.0)

# Deterministic initial error (5 deg, 10 deg/s) used by the fixed sampler.
FIXED_INITIAL_ERROR = np.array([np.pi / 36.0, np.pi / 18.0])

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
    """Batched Gaussian noise for a stack of runs, one generator per run.

    Each :meth:`draw` gives run k a (size, .) batch of process noise
    (covariance Q) and then measurement noise (covariance R) from its own
    generator ``rngs[k]``, stacked on a leading run axis, so a run's noise
    never depends on the other runs.  Q and R are factored once, not per
    draw.  :func:`draw_noise` is the one-run form.
    """

    def __init__(self, model: LinearGaussianModel, rngs, size: int):
        rngs = list(rngs)
        self._fq_t = cov_factor(model.Q).T
        self._fr_t = cov_factor(model.R).T
        self._xi = np.empty((len(rngs), size, model.p))
        self._zeta = np.empty((len(rngs), size, model.r))
        self._use(rngs)

    def _use(self, rngs: list) -> None:
        self._rngs = rngs
        self._slots = [(rng.standard_normal, self._xi[k], self._zeta[k])
                       for k, rng in enumerate(rngs)]

    def keep(self, mask) -> None:
        """Go on drawing only for the runs where ``mask`` is true."""
        self._use([rng for rng, kept in zip(self._rngs, mask) if kept])

    def draw(self) -> NoiseDraw:
        """One (K, size, .) batch for each of the K runs still drawing."""
        for normal, xi, zeta in self._slots:
            normal(out=xi)
            normal(out=zeta)
        count = len(self._slots)
        return NoiseDraw(xi=self._xi[:count] @ self._fq_t,
                         zeta=self._zeta[:count] @ self._fr_t)


def draw_noise(model: LinearGaussianModel, rng: np.random.Generator,
               size: int) -> NoiseDraw:
    """A (size, .) noise batch from ``rng``: a one-run NoiseStack's draw."""
    noise = NoiseStack(model, [rng], size).draw()
    return NoiseDraw(xi=noise.xi[0], zeta=noise.zeta[0])


def _transition(model: LinearGaussianModel, s: np.ndarray, a: np.ndarray,
                noise: NoiseDraw) -> tuple[np.ndarray, np.ndarray]:
    """Next errors s' = z - a v and innovations v = C z + zeta.

    Here z = A s + E xi; shapes are as :func:`step` accepts them.
    """
    # Accumulating in place keeps a step to two new state-sized arrays.  On
    # the (3, 10 000, 2) stack of an eval run, allocating a fresh array per
    # operation made the heap shrink and re-fault its pages every step.
    nxt = s @ model.A.T
    nxt += noise.xi @ model.E.T
    v = nxt @ model.C.T
    v += noise.zeta
    nxt -= v @ a.swapaxes(-1, -2)
    return nxt, v


def step(model: LinearGaussianModel, s: np.ndarray, a: np.ndarray,
         noise: NoiseDraw) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of error states one transition under gain ``a``.

    ``s`` is a batch (M, n) with noise of matching shapes (M, .).  A stack
    of gains (K, n, r) advances a stack of batches (K, M, n), batch k under
    gain k.  A stacked state takes noise either per batch, (K, M, .), or
    shared by all K batches, (1, M, .), in which case E xi is formed once.
    Returns the next states and the rewards -e'^T e' of the transitions.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_transition(model, s, a, noise)
    nxt, _ = _transition(model, s, a, noise)
    return nxt, -np.einsum("...i,...i->...", nxt, nxt)


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

    ``mode="uniform_box"`` draws each component uniformly from
    +-bounds[i]; the default bounds are the 2-D box of
    :data:`UNIFORM_BOX_BOUNDS` and therefore require a 2-dimensional model
    unless explicit bounds are given.  ``mode="fixed"`` repeats
    :data:`FIXED_INITIAL_ERROR` (requires a 2-dimensional model).
    """
    if mode == "fixed":
        if model.n != len(FIXED_INITIAL_ERROR):
            raise ValueError(
                f"fixed initial error is {len(FIXED_INITIAL_ERROR)}-dimensional "
                f"but the model has n={model.n}")
        return np.tile(FIXED_INITIAL_ERROR, (size, 1))
    if mode == "uniform_box":
        if bounds is None:
            if model.n != len(UNIFORM_BOX_BOUNDS):
                raise ValueError(
                    f"default uniform box is {len(UNIFORM_BOX_BOUNDS)}-dimensional "
                    f"but the model has n={model.n}; pass explicit bounds")
            bounds = UNIFORM_BOX_BOUNDS
        if len(bounds) != model.n:
            raise ValueError(
                f"need {model.n} bounds, got {len(bounds)}")
        if rng is None:
            raise ValueError("uniform_box sampling requires an rng")
        half = np.asarray(bounds, dtype=float)
        return rng.uniform(-1.0, 1.0, (size, model.n)) * half
    raise ValueError(f"unknown initial-error mode {mode!r}")


def diverged_runs(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry magnitude of each run's pool, and which runs diverged.

    ``pool`` is one run's (M, n) pool or a stack (K, M, n) of them.  A run
    has diverged when an entry is non-finite or beyond the guard (an error
    process under a destabilizing gain grows without bound).
    """
    worst = np.abs(pool).max(axis=(-2, -1))
    return worst, ~(worst <= _DIVERGENCE_GUARD)

