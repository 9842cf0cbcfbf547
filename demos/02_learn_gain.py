"""Learning the steady-state gain by actor-critic policy iteration.

Treats the estimation error as the state of a Markov decision process
whose action is the filter gain and whose reward is the negative squared
error.  A quadratic critic and a constant-matrix actor, both updated with
Adam, drive the gain from zero to the steady-state optimum; no Riccati
equation is touched during training.
"""

import numpy as np

from steadygain import (
    TrainerConfig,
    build_bicycle_model,
    gain_metrics,
    solve_dare,
    train,
)

model = build_bicycle_model()
reference = solve_dare(model).gain
print("reference steady-state gain:")
print(reference)

cfg = TrainerConfig(
    batch_size=256,
    lr_actor=0.003,
    lr_critic=0.01,
    gamma=0.99,
    max_iters=8000,
    seed=0,
)
print(f"\ntraining: batch {cfg.batch_size}, lr {cfg.lr_actor}/{cfg.lr_critic}, "
      f"discount {cfg.gamma}, {cfg.max_iters} iterations")
theta, history = train(model, cfg, ref_gain=reference)

print("\nlearned gain:")
print(theta)
diff, err_pct = gain_metrics(theta, reference)
print("\nelementwise difference to the reference:")
print(diff)
print("accuracy (percent of the largest reference element):")
print(np.round(err_pct, 4))
print(f"\nworst element: {np.abs(err_pct).max():.3f}%")

# The history tracks the raw iterate, which keeps jittering around the
# optimum; the returned gain averages the final half of the iterates and
# sits much closer than any single iterate.  It records the iterations
# with at most three significant digits, each row numbered in iters.
diff_at = dict(zip(history.iters.tolist(), history.diff))
print("\nmax |theta_k - K| of the raw iterate during training:")
for k in (1, 100, 500, 2000, history.iterations):
    gap = np.abs(diff_at[k]).max()
    print(f"  iteration {k:5d}: {gap:.3e}")
print(f"  tail-averaged return: {np.abs(theta - reference).max():.3e}")
