"""Command-line front end.

Subcommands:
    solve        compute the steady-state gain, write dare.json
    train        learn the gain by policy iteration, write train_history.csv
                 and theta.json
    eval         Monte Carlo losses for one or more gains, write eval.csv
    sweep-gamma  retrain across discount factors, write sweep.csv

Exit codes: 0 success, 1 numerical divergence, 2 configuration error.
All defaults reproduce the reference vehicle experiment without a config
file; a JSON config selectively overrides them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError, NumericalError, check_integer, check_real
from .evaluation import EvalConfig, evaluate_gains, gain_metrics, write_eval_csv
from .kalman import solve_dare
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
        if isinstance(doc, dict) and set(doc) == {"bicycle"}:
            return build_bicycle_model(VehicleParams(**doc["bicycle"]))
        if isinstance(doc, dict) and set(doc) == {"inline"}:
            return LinearGaussianModel.from_dict(doc["inline"])
        raise ValueError(
            "model must be 'bicycle', {'bicycle': {...}} or {'inline': {...}}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - {"model", "trainer", "eval", "gamma_sweep",
                              "output_dir"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        gamma_sweep = doc.get("gamma_sweep", DEFAULT_GAMMA_SWEEP)
        if not isinstance(gamma_sweep, (list, tuple)):
            raise ValueError("gamma_sweep must be a list of discounts, "
                             f"got {gamma_sweep!r}")
        return cls(
            model=doc.get("model", "bicycle"),
            trainer=TrainerConfig(**doc.get("trainer", {})),
            eval=EvalConfig(**doc.get("eval", {})),
            gamma_sweep=tuple(gamma_sweep),
            output_dir=doc.get("output_dir", "."),
        )


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        cfg = RunConfig.from_dict(doc)
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


def cmd_train(cfg: RunConfig, n_seeds: int = 1) -> int:
    check_integer("--seeds", n_seeds, 1)
    model = cfg.build_model()
    ref = _reference_gain(model)
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
    with open(source) as fh:
        doc = json.load(fh)
    gain = np.asarray(doc["gain"] if isinstance(doc, dict) else doc,
                      dtype=float)
    if gain.shape != (model.n, model.r):
        raise ValueError(
            f"gain from {source} has shape {gain.shape}, "
            f"expected ({model.n}, {model.r})")
    if not np.all(np.isfinite(gain)):
        raise ValueError(f"gain from {source} contains non-finite entries")
    return gain


def cmd_eval(cfg: RunConfig, gain_specs: list[str]) -> int:
    model = cfg.build_model()
    named = []
    for spec in gain_specs:
        name, _, source = spec.partition("=")
        if not source:
            name, source = spec, spec
        named.append((name, _load_gain(source, model)))
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

    All runs train in one :func:`train_runs` stack; each seed's runs share
    its draws, so a seed's noise is drawn once for all the discounts.
    Writes one sweep.csv row per discount: the seed-averaged gain and its
    error to the Riccati gain, or ``diverged``.  Every run starts from the
    fixed initial error, whatever ``cfg.trainer.init_mode`` says.
    """
    check_integer("--seeds", n_seeds, 1)
    if not cfg.gamma_sweep:
        raise ValueError("gamma_sweep must list at least one discount")
    for i, gamma in enumerate(cfg.gamma_sweep):
        check_real(f"gamma_sweep[{i}]", gamma)
    model = cfg.build_model()
    ref = _reference_gain(model)
    base = replace(cfg.trainer, init_mode="fixed")
    seeds = list(range(base.seed, base.seed + n_seeds))
    out = _out_dir(cfg) / "sweep.csv"
    # One stack of runs, discount-major: the seeds of gamma_sweep[i] are
    # runs i * n_seeds .. (i + 1) * n_seeds - 1, so each seed recurs once
    # per discount and train_runs draws, pools and burns it in once.
    runs = train_runs(
        model, base, seeds=seeds * len(cfg.gamma_sweep),
        gammas=np.repeat(np.asarray(cfg.gamma_sweep, dtype=float), n_seeds),
        ref_gain=ref)
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
        writer = csv.writer(fh)
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
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
