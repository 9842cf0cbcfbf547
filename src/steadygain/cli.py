"""Command-line front end.

Subcommands:
    solve        compute the steady-state gain, write dare.json
    train        learn the gain by policy iteration, write train_history.csv
                 and theta.json
    eval         Monte Carlo losses for one or more gains, write eval.csv
    sweep-gamma  retrain across discount factors, write sweep.csv

Exit codes: 0 success, 1 numerical divergence, 2 configuration error.
train and sweep-gamma take a plant of any order whose A is stable,
rho(A) < 1, so that their initial pools have a stationary law to be drawn
from; eval starts from the vehicle's 2-state box of initial errors, so it
takes n = 2 only.  Both refusals are configuration errors, made before the
output directory is created.  All defaults reproduce the reference
vehicle experiment without a config file; a JSON config selectively
overrides them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (DivergenceError, NumericalError, check_integer,
                     check_keys, check_real)
from .evaluation import (EvalConfig, _check_named_gains, _checked_gain,
                         evaluate_gains, gain_metrics, write_eval_csv)
from .kalman import solve_dare, solve_lyapunov
from .models import LinearGaussianModel, VehicleParams, build_bicycle_model
from .training import TrainerConfig, gain_columns, train_average, train_runs

__all__ = ["RunConfig", "main"]

DEFAULT_GAMMA_SWEEP = (0.01, 0.25, 0.5, 0.75, 0.99)


@dataclass(frozen=True)
class RunConfig:
    """Top-level run configuration.

    ``model`` is either the string "bicycle", a {"bicycle": {...param
    overrides...}} object, or an {"inline": {...model document...}} object.
    """

    model: object = "bicycle"
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    gamma_sweep: tuple = DEFAULT_GAMMA_SWEEP
    output_dir: str = "."

    def build_model(self) -> LinearGaussianModel:
        doc = self.model
        if doc == "bicycle":
            return build_bicycle_model(VehicleParams())
        if isinstance(doc, dict) and len(doc) == 1:
            (kind, section), = doc.items()
            if kind in ("bicycle", "inline") and not isinstance(section, dict):
                raise ValueError(f"the model's {kind} section must be a JSON "
                                 f"object, got {type(section).__name__}")
            if kind == "bicycle":
                check_keys("model.bicycle", section, VehicleParams)
                return build_bicycle_model(VehicleParams(**section))
            if kind == "inline":
                return LinearGaussianModel.from_dict(section)
        raise ValueError(
            "model must be 'bicycle', {'bicycle': {...}} or {'inline': {...}}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError("the config document must be a JSON object, "
                             f"got {type(doc).__name__}")
        sections = {key: doc.get(key, {}) for key in ("trainer", "eval")}
        for key, section in sections.items():
            if not isinstance(section, dict):
                raise ValueError(f"the {key} section must be a JSON object, "
                                 f"got {type(section).__name__}")
        check_keys("config", doc, cls)
        check_keys("trainer", sections["trainer"], TrainerConfig)
        check_keys("eval", sections["eval"], EvalConfig)
        output_dir = doc.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ValueError("output_dir must be a string, "
                             f"got {output_dir!r}")
        gamma_sweep = doc.get("gamma_sweep", DEFAULT_GAMMA_SWEEP)
        if not isinstance(gamma_sweep, (list, tuple)):
            raise ValueError("gamma_sweep must be a list of discounts, "
                             f"got {gamma_sweep!r}")
        return cls(
            model=doc.get("model", "bicycle"),
            trainer=TrainerConfig(**sections["trainer"]),
            eval=EvalConfig(**sections["eval"]),
            gamma_sweep=tuple(gamma_sweep),
            output_dir=output_dir,
        )


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_dict(_load_json(args.config, "config"))
    else:
        cfg = RunConfig()
    trainer = cfg.trainer
    if args.seed is not None:
        trainer = replace(trainer, seed=args.seed)
    if getattr(args, "gamma", None) is not None:
        trainer = replace(trainer, gamma=args.gamma)
    ev = cfg.eval
    if getattr(args, "n_traj", None) is not None:
        ev = replace(ev, n_traj=args.n_traj)
    if args.seed is not None:
        ev = replace(ev, seed=args.seed)
    out = args.out if args.out is not None else cfg.output_dir
    return replace(cfg, trainer=trainer, eval=ev, output_dir=out)


def _load_json(path: str, what: str):
    """The JSON document in ``path``, or a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{what} from {path} is not JSON: {err}") from None


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _format_gain(gain: np.ndarray) -> str:
    rows = ["  ".join(f"{value: .4g}" for value in row) for row in gain]
    return "\n".join(rows)


def cmd_solve(cfg: RunConfig) -> int:
    model = cfg.build_model()
    solution = solve_dare(model)
    out = _out_dir(cfg) / "dare.json"
    out.write_text(json.dumps(solution.to_dict(), indent=2))
    print(f"steady-state gain ({solution.iterations} doubling steps, "
          f"relative residual {solution.residual:.3e}):")
    print(_format_gain(solution.gain))
    print(f"wrote {out}")
    return 0


def _reference_gain(model: LinearGaussianModel) -> np.ndarray:
    """The steady-state gain that training is checked against.

    A zero gain leaves nothing to learn and no scale for training's
    divergence guard or its percentage errors, so it is a configuration
    error, raised before any training.
    """
    gain = solve_dare(model).gain
    if not gain.any():
        raise ValueError("the steady-state gain of this model is identically "
                         "zero, so there is no gain to learn")
    return gain


def _training_model(cfg: RunConfig) -> tuple[LinearGaussianModel,
                                              np.ndarray]:
    """The model of train or sweep-gamma and its reference gain, checked
    before any output.

    Training draws its initial pools from the stationary law of the
    zero-gain error process, which a plant with rho(A) >= 1 lacks: the
    ValueError of :func:`~steadygain.kalman.solve_lyapunov` names rho(A).
    """
    model = cfg.build_model()
    solve_lyapunov(model.A, model.effective_process_cov())
    return model, _reference_gain(model)


def cmd_train(cfg: RunConfig, n_seeds: int = 1) -> int:
    check_integer("--seeds", n_seeds, 1)
    model, ref = _training_model(cfg)
    out = _out_dir(cfg)
    history_path = out / "train_history.csv"
    seeds = list(range(cfg.trainer.seed, cfg.trainer.seed + n_seeds))
    try:
        theta, history = train_average(model, cfg.trainer, seeds, ref_gain=ref)
    except DivergenceError as err:
        if err.history is not None:
            err.history.to_csv(history_path)
            print(f"wrote partial {history_path}", file=sys.stderr)
        raise
    history.to_csv(history_path)
    theta_doc = {"gain": theta.tolist(), "seeds": seeds}
    theta_path = out / "theta.json"
    theta_path.write_text(json.dumps(theta_doc, indent=2))
    _, err_pct = gain_metrics(theta, ref)
    print("learned gain:")
    print(_format_gain(theta))
    print(f"max |error| vs steady-state gain: {np.abs(err_pct).max():.4f}%")
    print(f"wrote {history_path} and {theta_path}")
    return 0


def _load_gain(source: str, model: LinearGaussianModel) -> np.ndarray:
    """Resolve a gain source: 'dare', 'zero', or a JSON file path."""
    if source == "dare":
        return solve_dare(model).gain
    if source == "zero":
        return np.zeros((model.n, model.r))
    doc = _load_json(source, "gain")
    if isinstance(doc, dict):
        if "gain" not in doc:
            raise ValueError(f"gain from {source} is a JSON object with no "
                             f"'gain' entry")
        doc = doc["gain"]
    try:
        gain = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValueError(
            f"gain from {source} is not a matrix of numbers: {err}") from None
    return _checked_gain(model, gain, f"gain from {source}")


def cmd_eval(cfg: RunConfig, gain_specs: list[str]) -> int:
    model = cfg.build_model()
    named = []
    for spec in gain_specs:
        name, _, source = spec.partition("=")
        if not source:
            name, source = spec, spec
        named.append((name, _load_gain(source, model)))
    _check_named_gains(model, named)
    out = _out_dir(cfg) / "eval.csv"
    rows = evaluate_gains(model, named, cfg.eval)
    write_eval_csv(rows, out)
    for row in rows:
        print(f"{row['name']}: loss_tran={row['loss_tran']:.6e} "
              f"loss_ss={row['loss_ss']:.6e} loss_full={row['loss_full']:.6e} "
              f"[{row['status']}]")
    print(f"wrote {out}")
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def cmd_sweep_gamma(cfg: RunConfig, n_seeds: int = 10) -> int:
    """Train ``n_seeds`` seeds at every discount of ``cfg.gamma_sweep``.

    All runs train in one :func:`train_runs` grid of discounts x seeds, so
    a seed's noise is drawn once for all the discounts.
    Writes one sweep.csv row per discount: the seed-averaged gain and its
    error to the Riccati gain, or ``diverged``.
    """
    check_integer("--seeds", n_seeds, 1)
    if not cfg.gamma_sweep:
        raise ValueError("gamma_sweep must list at least one discount")
    for i, gamma in enumerate(cfg.gamma_sweep):
        check_real(f"gamma_sweep[{i}]", gamma)
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma_sweep[{i}] must be in [0, 1), "
                             f"got {gamma}")
        if gamma in cfg.gamma_sweep[:i]:
            raise ValueError(f"gamma_sweep[{i}] repeats the discount "
                             f"{gamma} of gamma_sweep"
                             f"[{cfg.gamma_sweep.index(gamma)}]")
    model, ref = _training_model(cfg)
    seeds = list(range(cfg.trainer.seed, cfg.trainer.seed + n_seeds))
    out = _out_dir(cfg) / "sweep.csv"
    # One grid of runs, discount-major: the seeds of gamma_sweep[i] are
    # runs i * n_seeds .. (i + 1) * n_seeds - 1.
    runs = train_runs(model, cfg.trainer, seeds=seeds,
                      gammas=cfg.gamma_sweep, ref_gain=ref)
    n, r = model.n, model.r
    header = (["gamma"] + gain_columns("theta", n, r) + gain_columns("e", n, r)
              + ["status"])
    rows = []
    for i, gamma in enumerate(cfg.gamma_sweep):
        block = slice(i * n_seeds, (i + 1) * n_seeds)
        failed = [err for err in runs.errors[block] if err is not None]
        if failed:
            print(f"gamma={gamma}: diverged ({failed[0]})", file=sys.stderr)
            rows.append([gamma] + [float("nan")] * (2 * n * r) + ["diverged"])
            continue
        theta = runs.gains[block].mean(axis=0)
        _, err_pct = gain_metrics(theta, ref)
        rows.append([gamma] + list(theta.ravel()) + list(err_pct.ravel())
                    + ["ok"])
        print(f"gamma={gamma}: max |error| = {np.abs(err_pct).max():.4f}%")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0 if all(row[-1] == "ok" for row in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steadygain",
        description="Steady-state filter gains: Riccati oracle and "
                    "policy-iteration learner.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base random seed")
        p.add_argument("--out", default=None, help="output directory")

    p_solve = sub.add_parser("solve", help="steady-state gain via the DARE")
    common(p_solve)

    p_train = sub.add_parser("train", help="learn the gain by policy iteration")
    common(p_train)
    p_train.add_argument("--seeds", type=int, default=1,
                         help="number of training seeds to average")
    p_train.add_argument("--gamma", type=float, default=None,
                         help="override the discount factor")

    p_eval = sub.add_parser("eval", help="Monte Carlo loss comparison")
    common(p_eval)
    p_eval.add_argument("--n-traj", type=int, default=None,
                        help="override the trajectory count")
    p_eval.add_argument("--gain", action="append", default=None,
                        metavar="NAME=SOURCE",
                        help="gain to evaluate: SOURCE is 'dare', 'zero' or "
                             "a theta.json path (repeatable; default: dare)")

    p_sweep = sub.add_parser("sweep-gamma",
                             help="retrain across discount factors")
    common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=10,
                         help="training seeds per discount factor")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "train":
            return cmd_train(cfg, n_seeds=args.seeds)
        if args.command == "eval":
            specs = args.gain if args.gain else ["dare"]
            return cmd_eval(cfg, specs)
        if args.command == "sweep-gamma":
            return cmd_sweep_gamma(cfg, n_seeds=args.seeds)
        raise ValueError(f"unknown command {args.command!r}")
    except (NumericalError, DivergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
