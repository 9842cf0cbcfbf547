"""Kalman filtering oracle: recursion, steady-state gain, closed-form gains.

The steady-state gain solves the discrete algebraic Riccati equation (DARE)
for the predicted error covariance S:

    S = A S A^T - A S C^T (C S C^T + R)^-1 C S A^T + E Q E^T

by fixed-point iteration of the Riccati map, and the filter-form gain

    K = S C^T (C S C^T + R)^-1

at the fixed point.  The closed-form finite-horizon gains minimize the
accumulated squared estimation error step by step and coincide with the
Kalman recursion; they are independent of any reward discounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError
from .models import LinearGaussianModel

__all__ = [
    "SteadyStateSolution",
    "symmetrize",
    "spectral_radius",
    "gain_from_predicted_cov",
    "riccati_iterate",
    "solve_dare",
    "kalman_recursion",
    "closed_form_one_step_gain",
    "finite_horizon_gains",
]

_MAX_CONDITION = 1e12


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.abs(np.linalg.eigvals(M)).max())


@dataclass(frozen=True)
class SteadyStateSolution:
    """Fixed point of the Riccati map with its filter gain.

    Attributes:
        sigma: predicted error covariance at the fixed point (n x n).
        gain: steady-state filter gain (n x r).
        iterations: number of Riccati iterations performed.
        residual: max elementwise covariance change at termination.
    """

    sigma: np.ndarray
    gain: np.ndarray
    iterations: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.tolist(),
            "gain": self.gain.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _solve_innovation(model: LinearGaussianModel, sigma: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (C sigma C^T + R) x = rhs, guarding against ill-conditioning."""
    s_inn = model.C @ sigma @ model.C.T + model.R
    try:
        cond = np.linalg.cond(s_inn)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            raise NumericalError(
                f"innovation covariance is singular or ill-conditioned "
                f"(condition estimate {cond:.3e})", condition=float(cond))
        return np.linalg.solve(s_inn, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"innovation covariance solve failed: {err}") from err


def gain_from_predicted_cov(model: LinearGaussianModel,
                            sigma_pred: np.ndarray) -> np.ndarray:
    """Filter-form gain K = S C^T (C S C^T + R)^-1 for predicted covariance S."""
    sigma_pred = np.asarray(sigma_pred, dtype=float)
    return _solve_innovation(model, sigma_pred, model.C @ sigma_pred.T).T


def riccati_iterate(model: LinearGaussianModel,
                    sigma_pred: np.ndarray) -> np.ndarray:
    """One application of the Riccati map to a predicted covariance.

    Returns the re-symmetrized image
    A S A^T - A S C^T (C S C^T + R)^-1 C S A^T + E Q E^T.
    """
    sigma_pred = np.asarray(sigma_pred, dtype=float)
    A = model.A
    asc = A @ sigma_pred @ model.C.T              # A S C^T
    correction = asc @ _solve_innovation(model, sigma_pred, asc.T)
    nxt = A @ sigma_pred @ A.T - correction + model.effective_process_cov()
    return symmetrize(nxt)


def solve_dare(model: LinearGaussianModel, tol: float = 1e-12,
               max_iter: int = 100000) -> SteadyStateSolution:
    """Solve the DARE by fixed-point iteration from S_0 = E Q E^T.

    Iterates :func:`riccati_iterate` until the max elementwise change drops
    below ``tol``.  Detectability/stabilizability are not checked up front;
    failure to converge raises :class:`DivergenceError` with the last
    residual.
    """
    sigma = symmetrize(model.effective_process_cov())
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        nxt = riccati_iterate(model, sigma)
        if not np.all(np.isfinite(nxt)) or np.abs(nxt).max(initial=0.0) > 1e100:
            raise DivergenceError(
                "Riccati iteration diverged (covariance grew without "
                "bound); the plant is likely undetectable or unstabilizable",
                residual=residual)
        residual = float(np.abs(nxt - sigma).max(initial=0.0))
        sigma = nxt
        if residual < tol:
            gain = gain_from_predicted_cov(model, sigma)
            return SteadyStateSolution(
                sigma=sigma, gain=gain, iterations=iteration,
                residual=residual)
    raise DivergenceError(
        f"Riccati iteration did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual)


def kalman_recursion(model: LinearGaussianModel, sigma0: np.ndarray,
                     steps: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run the covariance recursion of the optimal filter.

    ``sigma0`` is the initial predicted error covariance.  Each step yields
    the gain for the current predicted covariance, the filtered covariance
    (I - K C) S, and the next prediction A S_filt A^T + E Q E^T.

    Returns:
        List of ``steps`` pairs (gain, predicted covariance).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sigma_pred = symmetrize(np.asarray(sigma0, dtype=float))
    eye = np.eye(model.n)
    qeff = model.effective_process_cov()
    out = []
    for _ in range(steps):
        gain = gain_from_predicted_cov(model, sigma_pred)
        out.append((gain, sigma_pred))
        filtered = symmetrize((eye - gain @ model.C) @ sigma_pred)
        sigma_pred = symmetrize(model.A @ filtered @ model.A.T + qeff)
    return out


def closed_form_one_step_gain(model: LinearGaussianModel,
                              P0: np.ndarray) -> np.ndarray:
    """Gain minimizing the expected squared error after one transition.

    For an error with second moment P0 the minimizer is

        a* = (C A P0 A^T + C Qe)^T (C A P0 A^T C^T + C Qe C^T + R)^-1

    with Qe = E Q E^T the effective process covariance.
    """
    P0 = np.asarray(P0, dtype=float)
    A, C, R = model.A, model.C, model.R
    qeff = model.effective_process_cov()
    capa = C @ A @ P0 @ A.T
    numerator = (capa + C @ qeff).T
    denominator = capa @ C.T + C @ qeff @ C.T + R
    cond = np.linalg.cond(denominator)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise NumericalError(
            f"one-step gain denominator is singular or ill-conditioned "
            f"(condition estimate {cond:.3e})", condition=float(cond))
    return np.linalg.solve(denominator.T, numerator.T).T


def finite_horizon_gains(model: LinearGaussianModel, P0: np.ndarray,
                         n: int) -> list[np.ndarray]:
    """Optimal gain sequence for an n-step accumulated-error objective.

    Alternates the one-step closed form with the error second-moment
    propagation

        P[i+1] = (I - a C)(A P[i] A^T + Qe)(I - a C)^T + a R a^T.

    The sequence matches the Kalman recursion started from the predicted
    covariance A P0 A^T + Qe and does not depend on any discount factor.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    P = symmetrize(np.asarray(P0, dtype=float))
    eye = np.eye(model.n)
    qeff = model.effective_process_cov()
    gains = []
    for _ in range(n):
        a = closed_form_one_step_gain(model, P)
        gains.append(a)
        pred = model.A @ P @ model.A.T + qeff
        iac = eye - a @ model.C
        P = symmetrize(iac @ pred @ iac.T + a @ model.R @ a.T)
    return gains
