"""Kalman filtering oracle: recursion, steady-state gain, closed-form gains.

The steady-state gain solves the discrete algebraic Riccati equation (DARE)
for the predicted error covariance S:

    S = A S A^T - A S C^T (C S C^T + R)^-1 C S A^T + E Q E^T

by the structure-preserving doubling algorithm (Chu, Fan & Lin, 2005),
which converges quadratically: each doubling step squares the closed-loop
error dynamics, so a few dozen steps cover what the Riccati map
(:func:`riccati_iterate`) needs tens of thousands of iterations for on a
near-marginal plant.  The filter-form gain

    K = S C^T (C S C^T + R)^-1

at the solution is returned only when it stabilizes the error dynamics,
rho[(I - K C) A] < 1.  The closed-form finite-horizon gains minimize the
accumulated squared estimation error step by step and coincide with the
Kalman recursion; they are independent of any reward discounting.
"""

from __future__ import annotations

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
    "solve_lyapunov",
    "kalman_recursion",
    "closed_form_one_step_gain",
    "finite_horizon_gains",
]

_MAX_CONDITION = 1e12
# solve_dare stops once a doubling step changes H by at most this much,
# relative to max|H|.
_DARE_TOL = 1e-12
# Both doubling solvers stop after this many steps.  Doubling step j of
# solve_lyapunov adds 2^j terms of its sum, so 100 steps reach the end of
# the sum for any mode that double precision tells from 1.
_MAX_DOUBLINGS = 100


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.abs(np.linalg.eigvals(M)).max())


@dataclass(frozen=True)
class SteadyStateSolution:
    """Stabilizing solution of the DARE with its filter gain.

    Attributes:
        sigma: predicted error covariance S at the solution (n x n).
        gain: steady-state filter gain (n x r).
        iterations: number of doubling steps performed.
        residual: relative DARE residual max|Ric(S) - S| / max|S|, with Ric
            the Riccati map (:func:`riccati_iterate`); 0 when Ric(S) = S.
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


def _check_conditioned(what: str, m: np.ndarray) -> None:
    """Raise NumericalError, naming ``what``, unless m is well conditioned.

    A condition number that is not finite or exceeds 1e12 fails.
    """
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise NumericalError(
            f"{what} is singular or ill-conditioned "
            f"(condition estimate {cond:.3e})", condition=float(cond))


def _solve_innovation(model: LinearGaussianModel, sigma: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (C sigma C^T + R) x = rhs, guarding against ill-conditioning."""
    s_inn = model.C @ sigma @ model.C.T + model.R
    try:
        _check_conditioned("innovation covariance", s_inn)
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


def _relative_gap(x: np.ndarray, ref: np.ndarray) -> float:
    """max|x - ref| / max|ref|, taken as 0 when the two are equal."""
    gap = float(np.abs(x - ref).max(initial=0.0))
    return gap / float(np.abs(ref).max()) if gap else 0.0


def solve_dare(model: LinearGaussianModel) -> SteadyStateSolution:
    """Solve the DARE by structure-preserving doubling.

    Starts from ``A_0 = A^T``, ``G_0 = C^T R^-1 C``, ``H_0 = E Q E^T`` and,
    with ``W = I + G H``, repeats

        A <- A W^-1 A,   G <- G + A W^-1 G A^T,   H <- H + A^T H W^-1 A

    until the relative change ``max|dH| / max|H|`` of a step is at most
    ``_DARE_TOL``, 1e-12 (0 when H is identically 0), for at most
    ``_MAX_DOUBLINGS`` steps.  ``W`` is invertible because G and H stay
    positive semidefinite.  H converges quadratically to the predicted
    covariance S, and once the change falls below one ulp of H it is
    exactly 0.  The gain comes from :func:`gain_from_predicted_cov`
    and the reported residual is the relative DARE residual of S (see
    :class:`SteadyStateSolution`).

    Raises:
        NumericalError: R is singular or ill-conditioned.
        DivergenceError: the iterates blow up, the cap is reached, or the
            returned gain does not stabilize the error dynamics
            (rho[(I - K C) A] >= 1).
    """
    _check_conditioned("measurement covariance R", model.R)
    a = model.A.T
    g = symmetrize(model.C.T @ np.linalg.solve(model.R, model.C))
    h = symmetrize(model.effective_process_cov())
    change = np.inf
    for step in range(1, _MAX_DOUBLINGS + 1):
        w_inv_ag = np.linalg.solve(model.eye + g @ h, np.hstack([a, g]))
        w_inv_a, w_inv_g = w_inv_ag[:, :model.n], w_inv_ag[:, model.n:]
        a, g, h_next = (a @ w_inv_a, symmetrize(g + a @ w_inv_g @ a.T),
                        symmetrize(h + a.T @ h @ w_inv_a))
        if (not np.all(np.isfinite(h_next))
                or np.abs(h_next).max(initial=0.0) > 1e100):
            raise DivergenceError(
                "Riccati doubling diverged (covariance grew without bound); "
                "the plant is likely undetectable", residual=change)
        change = _relative_gap(h, h_next)
        h = h_next
        if change <= _DARE_TOL:
            break
    else:
        raise DivergenceError(
            f"Riccati doubling did not converge within {_MAX_DOUBLINGS} steps "
            f"(last relative change {change:.3e})", residual=change)
    gain = gain_from_predicted_cov(model, h)
    residual = _relative_gap(riccati_iterate(model, h), h)
    rho = spectral_radius((model.eye - gain @ model.C) @ model.A)
    if not rho < 1.0:
        raise DivergenceError(
            f"the Riccati solution does not stabilize the error dynamics "
            f"(spectral radius of (I - K C) A is {rho:.6g}); a mode on or "
            f"outside the unit circle is likely not excited by process "
            f"noise", residual=residual)
    return SteadyStateSolution(sigma=h, gain=gain, iterations=step,
                               residual=residual)


def solve_lyapunov(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Stationary covariance X = sum_k A^k W A^k^T of x' = A x + w.

    X solves X = A X A^T + W for a noise covariance W.  Smith's doubling
    (1968) finds it the way :func:`solve_dare` doubles its Riccati steps:
    with X_0 = W and A_0 = A it repeats

        X <- X + A X A^T,   A <- A A,

    so step j adds the next 2^j terms of the sum, until X stops changing,
    for at most ``_MAX_DOUBLINGS`` steps.

    Raises:
        ValueError: rho(A) >= 1, so the process has no stationary law.
        DivergenceError: the iterates overflow or the cap is reached.
    """
    a = np.asarray(A, dtype=float)
    rho = spectral_radius(a)
    if not rho < 1.0:
        raise ValueError(f"A has spectral radius {rho:.6g} >= 1, so "
                         f"x' = A x + w has no stationary law")
    # An overflow is caught below and raised as a DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        x = symmetrize(np.asarray(W, dtype=float))
        for _ in range(_MAX_DOUBLINGS):
            x_next = symmetrize(x + a @ x @ a.T)
            if not np.all(np.isfinite(x_next)):
                raise DivergenceError(
                    "Lyapunov doubling overflowed (the stationary covariance "
                    "exceeds the floating-point range)")
            if np.array_equal(x_next, x):
                return x
            x, a = x_next, a @ a
    raise DivergenceError(
        f"Lyapunov doubling did not converge within {_MAX_DOUBLINGS} steps")


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
    qeff = model.effective_process_cov()
    out = []
    for _ in range(steps):
        gain = gain_from_predicted_cov(model, sigma_pred)
        out.append((gain, sigma_pred))
        filtered = symmetrize((model.eye - gain @ model.C) @ sigma_pred)
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
    _check_conditioned("one-step gain denominator", denominator)
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
    qeff = model.effective_process_cov()
    gains = []
    for _ in range(n):
        a = closed_form_one_step_gain(model, P)
        gains.append(a)
        pred = model.A @ P @ model.A.T + qeff
        iac = model.eye - a @ model.C
        P = symmetrize(iac @ pred @ iac.T + a @ model.R @ a.T)
    return gains
