"""Effect of the discount factor on the learned gain: none, in steady state.

Retrains the actor-critic at several discount factors from the same
initial pool, one draw from the stationary law of the zero-gain error
process.  Because the training pool settles into the steady error
distribution of each gain, every discount factor recovers the same
steady-state gain; the closed-form finite-horizon gain sequence is
discount-free by construction.  All discounts train together in one call,
on the one seed's noise.
"""

import numpy as np

from steadygain import (
    TrainerConfig,
    build_bicycle_model,
    finite_horizon_gains,
    gain_metrics,
    solve_dare,
    train_runs,
)

model = build_bicycle_model()
reference = solve_dare(model).gain
scale = np.abs(reference).max()

base = TrainerConfig(max_iters=6000, seed=0)
print("training from one initial pool at several discounts:\n")
print(f"{'gamma':>6} {'theta22':>12} {'max |err| %':>12}")
gammas = (0.01, 0.25, 0.5, 0.75, 0.99)
runs = train_runs(model, base, seeds=[base.seed], gammas=gammas,
                  ref_gain=reference)
runs.raise_divergence()
for gamma, theta in zip(gammas, runs.gains):
    _, err_pct = gain_metrics(theta, reference)
    print(f"{gamma:6.2f} {theta[1, 1]:12.5e} {np.abs(err_pct).max():12.4f}")

print(f"\nreference theta22: {reference[1, 1]:.5e}")

# The closed-form horizon gains carry no discount parameter at all: the
# same sequence minimizes the accumulated error for every discounting.
gains = finite_horizon_gains(model, np.diag([1e-4, 1e-4]), n=3)
print("\nclosed-form three-step gain sequence (discount-free):")
for i, gain in enumerate(gains):
    print(f"  step {i}: {np.array2string(gain.ravel(), precision=4)}")
