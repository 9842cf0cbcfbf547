"""Estimation error as a Markov decision process.

The MDP state is the estimation error e, the action is a constant filter
gain a, and a transition draws process/measurement noise and applies

    e' = (I - a C)(A e + E xi) - a zeta,    reward = -e'^T e'

so that maximizing accumulated reward means driving the error to zero.
Pools of error states stand in for the stationary error distribution
during training: each is drawn once from the stationary law of the
zero-gain error process and rolled forward one transition at a time.
Evaluation starts its trajectories from the vehicle's uniform box of
initial errors (:func:`sample_initial_error`).

Each transition's noise is one block of raw standard normals, p + r rows
by M members: p rows that xi = L_Q w colours, then r rows that
zeta = L_R w colours, for factors L L^T of Q and R.  Training and
evaluation draw each step's block straight into the array their kernels
read (:func:`_draw_normals`); :func:`draw_noise` draws the same stream
and colours it member-major, for the written reference :func:`step`.
"""

from __future__ import annotations

import numpy as np

from .models import LinearGaussianModel

__all__ = [
    "cov_factor",
    "draw_noise",
    "step",
    "sample_initial_error",
    "diverged_runs",
    "VEHICLE_INITIAL_ERROR",
]

# The vehicle's default initial error, 5 deg of sideslip and 10 deg/s of
# yaw rate in radians: the half-widths of evaluation's uniform box.
VEHICLE_INITIAL_ERROR = (5.0 * np.pi / 180.0, 10.0 * np.pi / 180.0)

# Pool entries beyond this magnitude are treated as diverged.
_DIVERGENCE_GUARD = 1e12


def cov_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov for a symmetric PSD matrix.

    Eigenvalue-based so that singular (e.g. zero) covariances are accepted;
    tiny negative eigenvalues from roundoff are clipped.
    """
    cov = np.asarray(cov, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def draw_noise(model: LinearGaussianModel, rng: np.random.Generator,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """One noise draw per member, ``(xi, zeta)``, shaped (size, p) and
    (size, r).

    One ``rng.standard_normal((p + r, size))`` call gives the block that
    :func:`_draw_normals` draws per generator, p rows and then r, coloured
    by the :func:`cov_factor` factors of Q and R.  The members go on the
    first axis, C-contiguous, as :func:`step` takes them.
    """
    raw = rng.standard_normal((model.p + model.r, size))
    return (_transposed(cov_factor(model.Q) @ raw[:model.p]),
            _transposed(cov_factor(model.R) @ raw[model.p:]))


def _draw_normals(normals, out: np.ndarray) -> np.ndarray:
    """One step's raw normals, ``out`` (S, p + r, M), one call per generator.

    ``normals`` holds the ``standard_normal`` methods of S generators.
    Generator u fills its block ``out[u]`` in one call: p rows of normals
    for xi over r rows for zeta, the M members on the last axis, the
    stream :func:`draw_noise` colours.  Each training iteration and each
    evaluation step draws its noise through this; training draws its
    initial pool once, n M normals per generator, outside it.
    """
    for normal, block in zip(normals, out):
        normal(out=block)
    return out


def _closed_loop(model: LinearGaussianModel, gains: np.ndarray,
                 process_factor: np.ndarray, measurement_factor: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I - K C, F = (I - K C) A and D = [(I - K C) G_Q, -K G_R] per gain K.

    ``gains`` is one n x r gain or a stack of them.  With ``process_factor``
    G_Q = E L_Q and ``measurement_factor`` G_R = L_R, for factors L L^T of
    Q and R, the transition of an error e under K is e' = F e + D w on the
    raw standard normals w = (xi, zeta), and D D^T is the covariance of e'
    given e.  Training and evaluation both advance their errors by this.
    """
    filtered = model.eye - gains @ model.C
    closed = filtered @ model.A
    drive = np.concatenate((filtered @ process_factor,
                            -gains @ measurement_factor), axis=-1)
    return filtered, closed, drive


def step(model: LinearGaussianModel, s: np.ndarray, a: np.ndarray,
         xi: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of error states one transition under gain ``a``.

    The member-major reference of the transition: ``s`` is an (M, n)
    batch, ``a`` one n x r gain, and ``xi`` and ``zeta`` one coloured
    noise per member, (M, p) and (M, r), as :func:`draw_noise` gives them.
    Returns the next states s' = z - a v, with z = A s + E xi and
    v = C z + zeta, and the rewards -s'^T s' of the transitions, the
    squared components added in order.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    _check_transition(model, s, a, xi, zeta)
    # Every right operand is a C-contiguous transpose, because numpy's
    # matmul stays on BLAS only for contiguous operands: a transposed view
    # such as A.T sends it to a slow generic loop, which gives bitwise
    # equal products.
    nxt = np.matmul(s, model.A_T)
    nxt += np.matmul(xi, _transposed(model.E))
    v = np.matmul(nxt, model.C_T)
    v += zeta
    nxt -= np.matmul(v, _transposed(a))
    # Summed over a C-contiguous (n, M) copy, the components are added in
    # order, one row after the other.
    return nxt, -np.add.reduce(np.square(nxt.T, order="C"), axis=0)


def _transposed(m: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of m with its last two axes swapped."""
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def _check_transition(model: LinearGaussianModel, s: np.ndarray,
                      a: np.ndarray, xi: np.ndarray, zeta: np.ndarray
                      ) -> None:
    """Raise ValueError unless :func:`step` accepts these shapes."""
    if a.shape != (model.n, model.r):
        raise ValueError(
            f"gain must be {model.n} x {model.r}, got {a.shape}")
    if s.ndim != 2 or s.shape[1] != model.n:
        raise ValueError(
            f"state must be an (M, {model.n}) batch, got {s.shape}")
    if xi.shape != (len(s), model.p):
        raise ValueError(
            f"process noise shape {xi.shape} does not match state")
    if zeta.shape != (len(s), model.r):
        raise ValueError(f"measurement noise shape {zeta.shape} "
                         "does not match state")


def _check_initial_error_box(model: LinearGaussianModel) -> None:
    """Raise ValueError unless the vehicle's box of initial errors fits
    ``model``: it has one half-width per state of the 2-state vehicle."""
    if model.n != len(VEHICLE_INITIAL_ERROR):
        raise ValueError(
            f"the initial errors come from the vehicle's "
            f"{len(VEHICLE_INITIAL_ERROR)}-state box, but the model has "
            f"n={model.n}")


def sample_initial_error(model: LinearGaussianModel, rng: np.random.Generator,
                         *, size: int) -> np.ndarray:
    """Draw a (size, n) batch of initial errors uniform in the vehicle's box.

    Component i is drawn uniformly from +-VEHICLE_INITIAL_ERROR[i] with
    ``rng``; a model with n != 2 raises ValueError
    (:func:`_check_initial_error_box`) before any draw.
    """
    _check_initial_error_box(model)
    return rng.uniform(-1.0, 1.0, (size, model.n)) * np.asarray(
        VEHICLE_INITIAL_ERROR)


def diverged_runs(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry magnitude of each run's pool, and which runs diverged.

    ``pool`` is one run's pool (n, M) or a stack of them (K, n, M), as
    training and evaluation hold them.  It is reduced over its last two
    axes, so a batch (M, n) as :func:`step` takes it serves too.  A run
    has diverged when an entry is non-finite or beyond the guard (an error
    process under a destabilizing gain grows without bound).
    """
    # The larger of max and -min is abs(pool).max() without a pool-sized
    # temporary; adding 0.0 turns the -0.0 that maximum may return for an
    # all-zero pool into abs's +0.0.
    axes = (-2, -1)
    worst = np.maximum(pool.max(axis=axes), -pool.min(axis=axes)) + 0.0
    return worst, ~(worst <= _DIVERGENCE_GUARD)

