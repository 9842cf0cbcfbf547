"""The four benchmark workloads and the trace points inside the package.

Each workload makes its inputs from a seed in ``setup``, runs one timed
operation per ``op`` call and checks what that operation produced.  Checks
that need ``scipy`` wait for ``finish``, which runs after peak memory is
read, so scipy's own footprint stays out of ``peak_rss_mb``.

``op`` returns one small record: its wall time, how many operations it
attempted in the sense of ``fail_frac`` (one CLI command, or one
``solve_dare`` call per plant), one message per failed operation, and the
bytes the CLI wrote.  What ``finish`` needs is kept in the workload in
flat arrays of a few numbers per operation (solve latencies up to a cap,
one gain per plant), so that a faster program, which fits more
operations in a run, does not visibly raise ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import csv
from array import array
import io
import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import steadygain
from steadygain import cli, error_mdp, evaluation, kalman, models, training

DATA = Path(__file__).resolve().parent / "data"

SIZES = {
    "full": {"train_iters": 1000, "sweep_iters": 300, "sweep_seeds": 3,
             "n_traj": 10000, "t_test": 1000, "random_plants": 200,
             "near_marginal": True},
    # For the smoke test only; the near-marginal plant alone takes seconds.
    # Shorter sweeps miss GAIN_ERR_TOL_PCT.
    "tiny": {"train_iters": 200, "sweep_iters": 300, "sweep_seeds": 3,
             "n_traj": 300, "t_test": 300, "random_plants": 8,
             "near_marginal": False},
}
GAMMAS = (0.01, 0.25, 0.5, 0.75, 0.99)
T_CRITICAL = 195

# A solve_dare gain passes when max|K - K*| / max|K*| stays below this,
# with K* from scipy.  When the benchmark was written the worst plant in
# the family (the bicycle) was at 1.7e-4.
ORACLE_REL_TOL = 1e-3

# A command passes when each gain it learned is within this many percent
# of scipy's K*, as max|theta - K*| / max|K*|.  A single short run is
# noisier than the seed-averaged gain that the acceptance test holds to
# 2 %: when the benchmark was written, train commands at 1 000 iterations
# had a median error of 0.7 % and a worst of 2.4 % over 60 seeds, and
# sweep commands (worst discount of each) 0.8 % and 1.9 % over 25.  5 %
# leaves room for that spread and still fails a trainer that returns zeros
# or stops after one iteration (both ~100 %), or a sweep at half its
# iterations (~7 %).
GAIN_ERR_TOL_PCT = 5.0

# Solve latencies kept for the percentiles; a cap keeps the benchmark's own
# memory flat however fast the solver gets.
MAX_LATENCY_SAMPLES = 20000


def trace_targets() -> list:
    """(owner, attribute, span name, counter) for every traced boundary.

    Each function is wrapped at the name its caller looks up: ``cli``
    imports ``solve_dare``, ``train_average``, ``evaluate_gains`` and
    friends by name, ``training`` does the same with ``draw_noise``,
    ``step`` and ``adam_update``, and ``solve_dare`` reaches
    ``riccati_iterate`` through its module global.
    """
    return [
        (cli, "main", "cli.main", None),
        (cli, "build_bicycle_model", "models.build_bicycle_model", None),
        (models.LinearGaussianModel, "__post_init__",
         "models.LinearGaussianModel", None),
        (cli, "solve_dare", "kalman.solve_dare", None),
        (steadygain, "solve_dare", "kalman.solve_dare", None),
        (kalman, "riccati_iterate", "kalman.riccati_iterate", None),
        (cli, "train_average", "training.train_average", None),
        (training, "train", "training.train",
         lambda result: {"training.iters": result[1].iterations}),
        (training, "adam_update", "training.adam_update", None),
        (training.TrainHistory, "to_csv", "training.TrainHistory.to_csv",
         None),
        (training, "draw_noise", "error_mdp.draw_noise", None),
        (training, "step", "error_mdp.step", None),
        (error_mdp, "cov_factor", "error_mdp.cov_factor", None),
        (evaluation, "cov_factor", "error_mdp.cov_factor", None),
        (cli, "evaluate_gains", "evaluation.evaluate_gains", None),
        (evaluation, "run_trajectories", "evaluation.run_trajectories",
         lambda result: {"evaluation.steps": result.shape[1],
                         "evaluation.traj_steps": result.size}),
        (evaluation, "losses", "evaluation.losses", None),
        (cli, "gain_metrics", "evaluation.gain_metrics", None),
        (cli, "write_eval_csv", "evaluation.write_eval_csv", None),
    ]


def install_tracing(tracer) -> None:
    for owner, attr, name, count in trace_targets():
        tracer.wrap(owner, attr, name, count)


def error_text(err: BaseException) -> str:
    return traceback.format_exception_only(err)[-1].strip()


def gain_problems(model, gain, what: str) -> list[str]:
    """Shape, finiteness and the certificate rho[(I - gain C) A] < 1."""
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (model.n, model.r):
        return [f"{what}: gain shape {gain.shape}"]
    if not np.all(np.isfinite(gain)):
        return [f"{what}: non-finite gain"]
    closed = (np.eye(model.n) - gain @ model.C) @ model.A
    rho = float(np.abs(np.linalg.eigvals(closed)).max())
    if not rho < 1.0:
        return [f"{what}: closed-loop spectral radius {rho:.6g} >= 1"]
    return []


def scipy_gain(model) -> np.ndarray:
    """Filter gain from scipy's DARE solver, independent of solve_dare."""
    from scipy.linalg import solve_discrete_are
    sigma = solve_discrete_are(model.A.T, model.C.T,
                               model.effective_process_cov(), model.R)
    innovation = model.C @ sigma @ model.C.T + model.R
    return np.linalg.solve(innovation, model.C @ sigma).T


def max_rel_err(gain, ref) -> float:
    """max over elements of |gain - ref| / max|ref|."""
    return float(np.abs(np.asarray(gain) - ref).max() / np.abs(ref).max())


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2))


class CliWorkload:
    """Drives ``steadygain.cli.main`` in-process, one command per op."""

    def __init__(self, size: dict, seed: int, work: Path):
        self.size, self.seed, self.work = size, seed, work
        self.out = work / "out"
        self.model = models.build_bicycle_model()
        # Of each good command: its learned gains, flattened, how many
        # there were, and the bytes it wrote.
        self.gain_values = array("d")
        self.gain_counts = array("q")
        self.output_bytes = array("q")

    def op(self, i: int) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            start = time.perf_counter()
            # Looked up at call time so that a traced op sees the wrapper.
            code = cli.main(self.argv(i) + ["--out", str(self.out)])
            wall = time.perf_counter() - start
        result = {"wall_s": wall, "attempted": 1, "failures": [],
                  "output_bytes": dir_bytes(self.out)}
        gains = []
        if code != 0:
            problems = [f"exit code {code}: {err.getvalue().strip()[-300:]}"]
        else:
            try:
                problems = self.check(gains)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {error_text(exc)}"]
        if problems:
            result["failures"].append("; ".join(problems))
        else:
            self.gain_counts.append(len(gains))
            for gain in gains:
                self.gain_values.extend(np.ravel(gain))
            self.output_bytes.append(result["output_bytes"])
        return result

    def finish(self) -> tuple[dict, list[str]]:
        """Check each learned gain against scipy's; report medians.

        A command whose worst gain is further than ``GAIN_ERR_TOL_PCT``
        from scipy's gain counts as one failed operation.
        """
        extra, failures = {}, []
        if self.output_bytes:
            extra["output_mb"] = (statistics.median(self.output_bytes) / 1e6,
                                  "MB")
        errs = []
        if self.gain_values:
            ref = scipy_gain(self.model)
            gains = np.frombuffer(self.gain_values).reshape(
                -1, self.model.n, self.model.r)
            ends = np.cumsum(self.gain_counts)
            errs = [max(max_rel_err(g, ref) for g in gains[end - count:end])
                    * 100.0 for count, end in zip(self.gain_counts, ends)
                    if count]
        for err in errs:
            if not err <= GAIN_ERR_TOL_PCT:
                failures.append(f"learned gain differs from scipy's by "
                                f"{err:.3g} % (tolerance "
                                f"{GAIN_ERR_TOL_PCT:g} %)")
        if errs:
            extra["gain_err_pct"] = (statistics.median(errs), "%")
        return extra, failures


class Train(CliWorkload):
    """``steadygain train``: one seed, analytic estimator, short max_iters.

    The command users wait on most.  Its hot path is per-iteration dispatch
    in ``training`` and ``error_mdp`` with a single run, so stacking runs on
    an extra axis cannot help here; the per-iteration recorder and the
    history CSV also run.
    """

    def setup(self) -> None:
        self.config = self.work / "train.json"
        write_json(self.config, {"trainer": {
            "max_iters": self.size["train_iters"], "estimator": "analytic"}})

    def argv(self, i: int) -> list[str]:
        return ["train", "--config", str(self.config),
                "--seed", str(self.seed * 1000 + i)]

    def check(self, gains: list) -> list[str]:
        doc = json.loads((self.out / "theta.json").read_text())
        gain = np.asarray(doc["gain"], dtype=float)
        header, rows = read_csv(self.out / "train_history.csv")
        # Raises ValueError on a non-number or on rows of unequal width.
        history = np.array(rows, dtype=float)
        problems = gain_problems(self.model, gain, "theta.json")
        if not 1 <= len(rows) <= self.size["train_iters"]:
            problems.append(f"history has {len(rows)} rows")
        elif history.shape[1] != len(header):
            problems.append("history rows and header differ in width")
        gains.append(gain)
        return problems


class Sweep(CliWorkload):
    """``steadygain sweep-gamma``: 5 discounts x 3 seeds, short runs.

    The multi-run shape of the acceptance sweep, where batching runs on a
    leading axis or running them in parallel shows a gain and ``train``
    shows none.  It writes only a small ``sweep.csv``, so a change to the
    history CSV shows in ``train`` and not here.
    """

    def setup(self) -> None:
        self.config = self.work / "sweep.json"
        write_json(self.config, {
            "trainer": {"max_iters": self.size["sweep_iters"]},
            "gamma_sweep": list(GAMMAS)})

    def argv(self, i: int) -> list[str]:
        seeds = self.size["sweep_seeds"]
        return ["sweep-gamma", "--config", str(self.config),
                "--seeds", str(seeds), "--seed", str(self.seed * 1000 + seeds * i)]

    def check(self, gains: list) -> list[str]:
        header, rows = read_csv(self.out / "sweep.csv")
        n, r = self.model.n, self.model.r
        thetas = [header.index(f"theta{i + 1}{j + 1}")
                  for i in range(n) for j in range(r)]
        problems = []
        if [float(row[0]) for row in rows] != list(GAMMAS):
            problems.append("sweep.csv discounts differ from the config")
        for row in rows:
            if row[-1] != "ok":
                problems.append(f"gamma={row[0]}: status {row[-1]}")
                continue
            gain = np.array([float(row[k]) for k in thetas]).reshape(n, r)
            problems += gain_problems(self.model, gain, f"gamma={row[0]}")
            gains.append(gain)
        return problems


class Eval(CliWorkload):
    """``steadygain eval`` of dare, zero and a shipped off-optimal gain.

    At the CLI default of 10 000 trajectories x 1 000 steps it runs the
    ``evaluation`` time-step loop and no training, and allocates an 80 MB
    squared-error array per gain, far beyond cache, so memory shows in
    ``peak_rss_mb``.
    """

    def setup(self) -> None:
        self.theta = DATA / "theta_offopt.json"
        gain = json.loads(self.theta.read_text())["gain"]
        problems = gain_problems(self.model, gain, self.theta.name)
        if problems:
            raise ValueError("; ".join(problems))
        self.config = self.work / "eval.json"
        write_json(self.config, {"eval": {
            "n_traj": self.size["n_traj"], "t_test": self.size["t_test"],
            "t_critical": T_CRITICAL}})

    def argv(self, i: int) -> list[str]:
        return ["eval", "--config", str(self.config),
                "--seed", str(self.seed * 1000 + i),
                "--gain", "dare", "--gain", "zero",
                "--gain", f"offopt={self.theta}"]

    def check(self, gains: list) -> list[str]:
        header, rows = read_csv(self.out / "eval.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        if sorted(table) != ["dare", "offopt", "zero"]:
            return [f"eval.csv rows {sorted(table)}"]
        problems = []
        for name, row in table.items():
            if row["status"] != "ok":
                problems.append(f"{name}: status {row['status']}")
            for key in ("loss_tran", "loss_ss", "loss_full"):
                if not 0.0 < float(row[key]) < np.inf:
                    problems.append(f"{name}: {key}={row[key]}")
        if not float(table["dare"]["loss_ss"]) <= float(table["zero"]["loss_ss"]):
            problems.append("loss_ss(dare) > loss_ss(zero)")
        return problems


def scalar_plant(a: float, q: float) -> dict:
    return {"A": [[a]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[q]], "R": [[1.0]], "dt": 0.01}


def random_plant(rng: np.random.Generator) -> dict:
    """Random stable plant, n = 1-4, with PSD Q and well-conditioned R."""
    n, r, p = (int(v) for v in rng.integers(1, (5, 4, 4)))
    A = rng.standard_normal((n, n))
    A *= 0.9 * rng.uniform(0.3, 1.0) / np.abs(np.linalg.eigvals(A)).max()
    fq = rng.standard_normal((p, p))
    fr = rng.standard_normal((r, r))
    return {"A": A.tolist(), "B": np.zeros((n, 1)).tolist(),
            "C": rng.standard_normal((r, n)).tolist(),
            "D": np.zeros((r, 1)).tolist(),
            "E": rng.standard_normal((n, p)).tolist(),
            "Q": (fq @ fq.T).tolist(),
            "R": (fr @ fr.T + (0.3 + r) * np.eye(r)).tolist(), "dt": 0.01}


class Oracle:
    """``solve_dare`` on a seeded plant family, each gain checked with scipy.

    ``kalman`` takes under 0.1 % of every other workload, so without this
    one it would go unmeasured.  The family spans the bicycle, random
    stable plants with n = 1-4, an unstable but detectable scalar plant
    and a near-marginal one, so iteration counts range from tens to tens of
    thousands and a solver change shows in both latency and ``wall_s``.
    One op solves the whole family; each solve is one attempted operation.
    """

    def __init__(self, size: dict, seed: int, work: Path):
        self.size, self.seed = size, seed
        self.latencies = array("d")
        # plant -> {gain bytes: [gain, solves that returned it]}; the solver
        # is deterministic, so this holds one gain per plant.
        self.seen: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        plants = [("bicycle", models.build_bicycle_model().to_dict()),
                  ("unstable_scalar", scalar_plant(1.3, 1.0))]
        if self.size["near_marginal"]:
            plants.append(("near_marginal", scalar_plant(1.0, 1e-8)))
        plants += [(f"random{k}", random_plant(rng))
                   for k in range(self.size["random_plants"])]
        self.plants = plants

    def op(self, i: int) -> dict:
        failures, solved = [], []
        start = time.perf_counter()
        for name, doc in self.plants:
            model = models.LinearGaussianModel.from_dict(doc)
            solve_start = time.perf_counter()
            try:
                # Public entry point, looked up at call time for tracing.
                solved.append((name, model, steadygain.solve_dare(model).gain))
            except Exception as err:  # a failed solve is counted, not fatal
                failures.append(f"{name}: raised {error_text(err)}")
            if len(self.latencies) < MAX_LATENCY_SAMPLES:
                self.latencies.append(time.perf_counter() - solve_start)
        wall = time.perf_counter() - start
        for name, model, gain in solved:
            problems = gain_problems(model, gain, name)
            if problems:
                failures += problems
            else:
                entry = self.seen.setdefault(name, {}).setdefault(
                    gain.tobytes(), [gain, 0])
                entry[1] += 1
        return {"wall_s": wall, "attempted": len(self.plants),
                "failures": failures, "output_bytes": 0}

    def finish(self) -> tuple[dict, list[str]]:
        failures = []
        worst = 0.0
        for name, doc in self.plants:
            if name not in self.seen:
                continue
            ref = scipy_gain(models.LinearGaussianModel.from_dict(doc))
            for gain, solves in self.seen[name].values():
                err = max_rel_err(gain, ref)
                worst = max(worst, err)
                if not err <= ORACLE_REL_TOL:
                    failures += [f"{name}: gain differs from scipy by "
                                 f"{err:.3e} relative (tolerance "
                                 f"{ORACLE_REL_TOL:g})"] * solves
        latencies = sorted(self.latencies)
        extra = {"solve_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                 "solve_samples": (len(latencies), "count"),
                 "oracle_rel_err": (worst, "ratio")}
        if len(latencies) > 10:
            # Highest percentile with at least ten samples above it.
            extra["solve_tail_ms"] = (latencies[-11] * 1e3, "ms")
            extra["solve_tail_pct"] = (
                100.0 * (len(latencies) - 10) / len(latencies), "%")
        return extra, failures


WORKLOADS = {"train": Train, "sweep": Sweep, "eval": Eval, "oracle": Oracle}
