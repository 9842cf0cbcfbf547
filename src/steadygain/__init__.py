"""Steady-state filter gains for linear Gaussian time-invariant systems.

Two routes to the same gain: a classical Riccati oracle solved by
doubling (:func:`solve_dare`) and an actor-critic policy-iteration learner
(:func:`train`) operating on the estimation-error process, plus a Monte
Carlo harness to compare gains on simulated trajectories.
"""

from .errors import DivergenceError, NumericalError
from .models import (
    LinearGaussianModel,
    VehicleParams,
    build_bicycle_model,
)
from .kalman import (
    SteadyStateSolution,
    closed_form_one_step_gain,
    finite_horizon_gains,
    gain_from_predicted_cov,
    kalman_recursion,
    riccati_iterate,
    solve_dare,
    spectral_radius,
    symmetrize,
)
from .error_mdp import (
    NoiseDraw,
    draw_noise,
    sample_initial_error,
    step,
)
from .training import (
    TrainerConfig,
    TrainHistory,
    TrainRuns,
    actor_loss_and_grad,
    adam_update,
    critic_loss_and_grad,
    train,
    train_average,
    train_runs,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    detect_critical_time,
    evaluate_gains,
    gain_metrics,
    losses,
    run_trajectories,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "NumericalError",
    "LinearGaussianModel",
    "VehicleParams",
    "build_bicycle_model",
    "SteadyStateSolution",
    "closed_form_one_step_gain",
    "finite_horizon_gains",
    "gain_from_predicted_cov",
    "kalman_recursion",
    "riccati_iterate",
    "solve_dare",
    "spectral_radius",
    "symmetrize",
    "NoiseDraw",
    "draw_noise",
    "sample_initial_error",
    "step",
    "TrainerConfig",
    "TrainHistory",
    "TrainRuns",
    "actor_loss_and_grad",
    "adam_update",
    "critic_loss_and_grad",
    "train",
    "train_average",
    "train_runs",
    "EvalConfig",
    "EvalReport",
    "detect_critical_time",
    "evaluate_gains",
    "gain_metrics",
    "losses",
    "run_trajectories",
    "__version__",
]
