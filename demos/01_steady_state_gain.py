"""Steady-state filter gain of the vehicle sideslip estimator.

Builds the 2-DOF single-track model (sideslip angle and yaw rate, with
noisy lateral-acceleration and yaw-rate measurements), solves the Riccati
equation for the steady-state gain by doubling, and shows the plain filter
recursion converging to the same gain from scratch.
"""

import numpy as np

from steadygain import (
    build_bicycle_model,
    kalman_recursion,
    solve_dare,
    spectral_radius,
)

model = build_bicycle_model()
print("discrete state matrix A:")
print(model.A)
print(f"open-loop spectral radius: {spectral_radius(model.A):.4f}")

# Solution of the Riccati equation by doubling, stopped at a relative
# step change of 1e-12.
solution = solve_dare(model)
print(f"\nconverged in {solution.iterations} doubling steps "
      f"(relative DARE residual {solution.residual:.2e})")
print("steady-state gain K:")
print(solution.gain)

closed_loop = (np.eye(2) - solution.gain @ model.C) @ model.A
print(f"closed-loop error spectral radius: {spectral_radius(closed_loop):.4f}")

# The gain recursion reaches the same limit: track its distance to K.
print("\ngain recursion from the process covariance:")
sequence = kalman_recursion(model, model.effective_process_cov(), steps=120)
for t in (1, 5, 10, 20, 40, 80, 120):
    gain = sequence[t - 1][0]
    gap = np.abs(gain - solution.gain).max()
    print(f"  step {t:3d}: max |K_t - K| = {gap:.3e}")

print("\npredicted error covariance at the solution:")
print(solution.sigma)
filtered = (np.eye(2) - solution.gain @ model.C) @ solution.sigma
print(f"steady filtered error variance (trace): {np.trace(filtered):.3e}")
