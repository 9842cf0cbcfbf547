"""Linear Gaussian time-invariant plant models.

A model is the discrete-time system

    x[t+1] = A x[t] + B u[t] + E xi[t]
    y[t]   = C x[t] + D u[t] + zeta[t]

with process noise xi ~ N(0, Q) entering through the noise-input matrix E
and measurement noise zeta ~ N(0, R).  The module also provides
zero-order-hold discretization and a builder for a 2-DOF single-track
(bicycle) vehicle model with lateral-acceleration and yaw-rate outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import check_keys, check_real

__all__ = [
    "LinearGaussianModel",
    "VehicleParams",
    "discretize",
    "equivalent_moment_arm",
    "build_bicycle_model",
]

# Asymmetry beyond this (relative to the matrix scale) is rejected rather
# than silently symmetrized.
_SYM_TOL = 1e-8
_PSD_TOL = 1e-9


def _as_matrix(name: str, value) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _read_only(m: np.ndarray) -> np.ndarray:
    """A C-contiguous, read-only copy of m."""
    m = np.array(m, order="C")
    m.flags.writeable = False
    return m


def _check_symmetric(name: str, m: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Immutable discrete-time linear Gaussian plant.

    Attributes:
        A: n x n state-transition matrix (per sample step).
        B: n x m input matrix.
        C: r x n output matrix.
        D: r x m feedthrough matrix.
        E: n x p noise-input matrix (maps raw process noise into state
            increments).
        Q: p x p process-noise covariance (symmetric PSD).
        R: r x r measurement-noise covariance (symmetric positive definite).
        dt: sample time in seconds.

    The effective process covariance seen by the state is ``E Q E^T``,
    exposed as :meth:`effective_process_cov`.  It, the identity ``eye``
    and the C-contiguous transposes ``A_T`` and ``C_T`` that the error
    recursion multiplies by are derived once per model, on first use, and
    are read-only like the matrices themselves.  Models compare and hash
    by identity.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dt: float

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        B = _as_matrix("B", self.B)
        C = _as_matrix("C", self.C)
        D = _as_matrix("D", self.D)
        E = _as_matrix("E", self.E)
        Q = _check_symmetric("Q", _as_matrix("Q", self.Q))
        R = _check_symmetric("R", _as_matrix("R", self.R))

        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        m = B.shape[1]
        r = C.shape[0]
        p = E.shape[1]
        if B.shape != (n, m):
            raise ValueError(f"B must be {n} x m, got {B.shape}")
        if C.shape != (r, n):
            raise ValueError(f"C must be r x {n}, got {C.shape}")
        if D.shape != (r, m):
            raise ValueError(f"D must be {r} x {m}, got {D.shape}")
        if E.shape != (n, p):
            raise ValueError(f"E must be {n} x p, got {E.shape}")
        if Q.shape != (p, p):
            raise ValueError(f"Q must be {p} x {p}, got {Q.shape}")
        if R.shape != (r, r):
            raise ValueError(f"R must be {r} x {r}, got {R.shape}")
        check_real("dt", self.dt)
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

        q_scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
        if p and np.linalg.eigvalsh(Q).min() < -_PSD_TOL * q_scale:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("R must be positive definite")

        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D),
                          ("E", E), ("Q", Q), ("R", R)):
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        return self.E.shape[1]

    @cached_property
    def A_T(self) -> np.ndarray:
        return _read_only(self.A.T)

    @cached_property
    def C_T(self) -> np.ndarray:
        return _read_only(self.C.T)

    @cached_property
    def eye(self) -> np.ndarray:
        return _read_only(np.eye(self.n))

    @cached_property
    def _process_cov(self) -> np.ndarray:
        return _read_only(self.E @ self.Q @ self.E.T)

    def effective_process_cov(self) -> np.ndarray:
        """Process covariance mapped into state space, ``E Q E^T``."""
        return self._process_cov

    def to_dict(self) -> dict:
        """Plain-JSON document with row-major nested matrix lists."""
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
            "E": self.E.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "dt": self.dt,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearGaussianModel":
        """The model of a :meth:`to_dict` document; a missing or unknown
        key is a ValueError that names it."""
        check_keys("model", doc, cls)
        missing = {f.name for f in fields(cls)} - set(doc)
        if missing:
            raise ValueError(f"model document missing keys: {sorted(missing)}")
        return cls(**doc)


@dataclass(frozen=True)
class VehicleParams:
    """Parameters of the 2-DOF single-track vehicle model.

    Cornering stiffnesses follow the signed convention of the plant
    equations (negative for a restoring tire force).  ``l_arm`` defaults to
    the value derived from the axle distances; pass it explicitly to
    override.  Every value must be a finite real number.
    """

    m: float = 1500.0              # vehicle mass, kg
    v_long: float = 20.0           # longitudinal speed, m/s
    a: float = 1.14                # front axle to c.g., m
    b: float = 1.4                 # rear axle to c.g., m
    C_f: float = -44000.0 * 2      # front cornering stiffness, N/rad
    C_r: float = -47000.0 * 2      # rear cornering stiffness, N/rad
    I_zz: float = 2420.0           # yaw inertia, kg m^2
    # The force stds read a bound of +-367.875 N (side slope) and +-300 N
    # (side wind) as 3 sigma.
    sigma_side_slope: float = 122.625   # side-slope force std, N
    sigma_side_wind: float = 100.0      # side-wind force std, N
    sigma_lat_acc: float = 0.05886      # lateral-acceleration noise std, m/s^2
    sigma_yaw_rate: float = 0.0005814   # yaw-rate noise std, rad/s
    l_arm: float | None = None     # side-wind moment arm, m (None: derived)
    dt: float = 0.01               # sample time, s

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "l_arm" and value is None:
                continue
            check_real(f.name, value)
            if not -np.inf < value < np.inf:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("m", "v_long", "I_zz", "a", "b", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("sigma_side_slope", "sigma_side_wind",
                     "sigma_lat_acc", "sigma_yaw_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.l_arm is None:
            object.__setattr__(self, "l_arm", equivalent_moment_arm(self.a, self.b))


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    Adequate for the small dense matrices used here; not a general
    replacement for library-grade expm.
    """
    M = np.asarray(M, dtype=float)
    norm = np.abs(M).sum(axis=1).max(initial=0.0)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    X = M / (2 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 25):
        term = term @ X / k
        out = out + term
        if np.abs(term).max(initial=0.0) < 1e-18 * max(1.0, np.abs(out).max()):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def discretize(A_c: np.ndarray, B_c: np.ndarray, dt: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of (A_c, B_c) over a step of length dt.

    A_d = exp(A_c dt) and B_d = int_0^dt exp(A_c s) ds B_c, the exact
    solution for an input held constant over the step.

    Raises:
        ValueError: non-square A_c, row-incompatible B_c, or dt <= 0.
    """
    A_c = _as_matrix("A_c", A_c)
    B_c = _as_matrix("B_c", B_c)
    n = A_c.shape[0]
    if A_c.shape != (n, n):
        raise ValueError(f"A_c must be square, got {A_c.shape}")
    if B_c.shape[0] != n:
        raise ValueError(
            f"B_c must have {n} rows to match A_c, got {B_c.shape}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")

    # Augmented-matrix trick: exp([[A, B], [0, 0]] dt) packs both the state
    # transition and the zero-order-hold input integral.
    m = B_c.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A_c * dt
    blk[:n, n:] = B_c * dt
    phi = _expm(blk)
    return phi[:n, :n], phi[:n, n:]


def equivalent_moment_arm(a: float, b: float) -> float:
    """Moment arm of a uniformly distributed lateral force over the wheelbase.

    A unit force spread evenly over [-b, a] produces the yaw moment of the
    same force applied at (a + b)/2 - b from the centre of gravity.
    """
    if a + b == 0:
        raise ValueError("degenerate geometry: a + b must be nonzero")
    return (a + b) / 2.0 - b


def build_bicycle_model(params: VehicleParams | None = None
                        ) -> LinearGaussianModel:
    """Assemble the discrete 2-DOF bicycle model.

    States are sideslip angle (rad) and yaw rate (rad/s); the measured
    outputs are lateral acceleration (m/s^2) and yaw rate (rad/s); the input
    is the front-wheel steering angle (rad).  Process noise is the pair of
    side-slope and side-wind forces (N) entering through E; Q and R are the
    diagonal covariances built from the configured standard deviations.

    A and B are discretized exactly by :func:`discretize` (zero-order
    hold); with the reference parameters this reproduces the established
    steady-state gain of this plant, which forward Euler would shift by
    tens of percent in its off-diagonal entries.  The noise-input matrix E
    is a first-order (dt-proportional) map by construction.
    """
    if params is None:
        params = VehicleParams()
    m, v = params.m, params.v_long
    a, b = params.a, params.b
    cf, cr = params.C_f, params.C_r
    izz = params.I_zz
    dt = params.dt

    # Float ** raises on overflow and / on a product that underflows to
    # zero; discretize and the model refuse any other non-finite entry.
    try:
        A_c = np.array([
            [(cf + cr) / (m * v), (a * cf - b * cr) / (m * v ** 2) - 1.0],
            [(a * cf - b * cr) / izz, (a ** 2 * cf + b ** 2 * cr) / (v * izz)],
        ])
        B_c = np.array([
            [-cf / (m * v)],
            [-a * cf / izz],
        ])
        C = np.array([
            [(cf + cr) / m, (a * cf - b * cr) / (m * v)],
            [0.0, 1.0],
        ])
        D = np.array([
            [-cf / m],
            [0.0],
        ])
        E = np.array([
            [dt / (m * v), dt / (m * v)],
            [0.0, params.l_arm * dt / izz],
        ])
        Q = np.diag([params.sigma_side_slope ** 2,
                     params.sigma_side_wind ** 2])
        R = np.diag([params.sigma_lat_acc ** 2, params.sigma_yaw_rate ** 2])
    except (OverflowError, ZeroDivisionError) as err:
        raise ValueError(
            f"vehicle parameters give no finite model: {err}") from err

    A_d, B_d = discretize(A_c, B_c, dt)
    return LinearGaussianModel(A=A_d, B=B_d, C=C, D=D, E=E, Q=Q, R=R, dt=dt)
