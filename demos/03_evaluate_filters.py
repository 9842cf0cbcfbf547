"""Monte Carlo comparison of filter gains on simulated trajectories.

Rolls the estimation error forward under three fixed gains -- the
steady-state optimum, a quickly learned gain, and the open-loop zero gain
-- in one paired pass: every gain sees the same initial errors and the same
process and measurement noise.  The per-step mean squared error of each
gain is split into transient and steady parts.  The steering input is
known to the filter, so it cancels from the error and is not simulated.
"""

import numpy as np

from steadygain import (
    EvalConfig,
    TrainerConfig,
    build_bicycle_model,
    detect_critical_time,
    evaluate_gains,
    solve_dare,
    train,
)

model = build_bicycle_model()
k_inf = solve_dare(model).gain
theta, _ = train(model, TrainerConfig(max_iters=8000, seed=1),
                 ref_gain=k_inf)

cfg = EvalConfig(n_traj=1000, t_test=1000, t_critical=195, seed=7)
print(f"evaluating {cfg.n_traj} trajectories of {cfg.t_test} steps "
      f"(transient/steady split at step {cfg.t_critical})\n")

rows = evaluate_gains(
    model,
    [("steady-state", k_inf), ("learned", theta),
     ("open-loop", np.zeros((2, 2)))],
    cfg)

print(f"{'gain':>14} {'loss_tran':>12} {'loss_ss':>12} {'loss_full':>12}")
for row in rows:
    print(f"{row['name']:>14} {row['loss_tran']:12.4e} "
          f"{row['loss_ss']:12.4e} {row['loss_full']:12.4e}")

base = rows[0]["loss_full"]
print(f"\nlearned-gain full loss within "
      f"{abs(rows[1]['loss_full'] - base) / base:.3%} of the optimum")

# Where does the transient end?  Fit the flattening of the log-MSE curve.
report = rows[0]["report"]
t_flat = detect_critical_time(report.logmse_curve)
print(f"log-MSE curve flattens at step {t_flat} "
      f"(configured split: {cfg.t_critical})")

# Steady-state loss should match the filtered covariance trace.
sol = solve_dare(model)
trace = np.trace((np.eye(2) - sol.gain @ model.C) @ sol.sigma)
print(f"steady loss {report.loss_ss:.4e} vs covariance trace {trace:.4e}")
