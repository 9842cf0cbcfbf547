import numpy as np
import pytest

from steadygain import (
    LinearGaussianModel,
    build_bicycle_model,
    solve_dare,
    symmetrize,
)
from steadygain import training
from steadygain.error_mdp import _closed_loop, _transposed, cov_factor


@pytest.fixture(scope="session")
def bicycle():
    return build_bicycle_model()


@pytest.fixture(scope="session")
def bicycle_dare(bicycle):
    return solve_dare(bicycle)


def scalar_model(a=0.5, c=1.0, q=1.0, r=1.0):
    """One-dimensional test plant with E = I, so E Q E^T = Q."""
    return LinearGaussianModel(
        A=[[a]], B=[[0.0]], C=[[c]], D=[[0.0]], E=[[1.0]],
        Q=[[q]], R=[[r]], dt=0.01)


def random_system(rng, n=None, r=None, p=None, rho=0.9):
    """Random stable plant with PSD Q and PD R for equivalence tests."""
    n = n or int(rng.integers(1, 5))
    r = r or int(rng.integers(1, 4))
    p = p or int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    radius = np.abs(np.linalg.eigvals(A)).max()
    if radius > 0:
        A *= rho * rng.uniform(0.3, 1.0) / radius
    C = rng.standard_normal((r, n))
    E = rng.standard_normal((n, p))
    fq = rng.standard_normal((p, p))
    Q = fq @ fq.T
    fr = rng.standard_normal((r, r))
    R = fr @ fr.T + (0.3 + r) * np.eye(r)
    return LinearGaussianModel(
        A=A, B=np.zeros((n, 1)), C=C, D=np.zeros((r, 1)), E=E,
        Q=Q, R=R, dt=0.01)


def random_psd(rng, n, scale=1.0):
    f = rng.standard_normal((n, n))
    return scale * (f @ f.T) / n


def kernel_steps(model, w, theta, batch, noise=None, gamma=0.99):
    """The trainer's critic and actor steps on a batch of error states.

    ``batch`` is an (M, n) batch or a (K, M, n) stack of them, with one
    critic ``w`` and gain ``theta`` per batch and ``gamma`` one discount or
    one per run.  ``noise`` is a draw ``(xi, zeta)`` as ``step`` takes it,
    (M, .) or (K, M, .) each; None integrates the noise out.  The batch
    becomes the pool (..., n, M) that training holds.  Its ``_drawn_law``
    or ``_integrated_law`` returns the TD error, which ``_critic_step``
    reads, and the two moments, which ``_actor_step`` reads; neither step
    takes a law.  Returns (critic loss, critic gradient) and (actor loss,
    actor gradient), the actor's gradient that of the return it ascends.
    """
    pool = _transposed(np.asarray(batch, dtype=float))
    theta = np.asarray(theta, dtype=float)
    gamma_col = np.reshape(gamma, np.shape(gamma) + (1, 1))
    w = np.asarray(w, dtype=float)
    if noise is None:
        td, cross, second = training._integrated_law(
            model, theta, w, gamma_col, pool, _closed_loop(
                model, theta, model.E @ cov_factor(model.Q),
                cov_factor(model.R)))
    else:
        xi, zeta = noise
        td, cross, second, _ = training._drawn_law(
            model, theta, w, gamma_col, pool, model.E @ _transposed(xi),
            _transposed(zeta))
    critic = training._critic_step(td, pool)
    actor_loss, descent = training._actor_step(model, cross, second,
                                               symmetrize(w), gamma_col)
    return critic, (actor_loss, -descent)
