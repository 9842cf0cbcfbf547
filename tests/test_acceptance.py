"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS/FAIL line.  The heavyweight artifacts (the
trained gain, the discount sweep) are produced once through the command
line interface and shared across criteria.
"""

import csv
import json
import time

import numpy as np
import pytest

from steadygain import (
    closed_form_one_step_gain,
    draw_noise,
    finite_horizon_gains,
    gain_metrics,
    kalman_recursion,
    solve_dare,
    spectral_radius,
    step,
)
from steadygain import kalman
from steadygain.cli import main
from steadygain.training import critic_value

from conftest import kernel_steps, random_psd, random_system, scalar_model

TABLE_KINF = np.array([[-5.31e-4, -2.31e-3], [3.25e-5, 5.07e-2]])

TRAIN_SEEDS = 3
SWEEP_GAMMAS = [0.01, 0.25, 0.5, 0.75, 0.99]


def report(name, passed, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def config_path(workdir):
    doc = {
        "model": "bicycle",
        "trainer": {
            "batch_size": 256,
            "lr_actor": 0.003,
            "lr_critic": 0.01,
            "gamma": 0.99,
            "max_iters": 10000,
            "seed": 0,
        },
        "eval": {"n_traj": 1000, "t_test": 1000, "t_critical": 195,
                 "seed": 123},
        "gamma_sweep": SWEEP_GAMMAS,
        "output_dir": str(workdir / "out"),
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def solve_artifacts(config_path, workdir):
    start = time.perf_counter()
    code = main(["solve", "--config", str(config_path)])
    elapsed = time.perf_counter() - start
    doc = json.loads((workdir / "out" / "dare.json").read_text())
    return {"code": code, "elapsed": elapsed,
            "gain": np.array(doc["gain"]), "sigma": np.array(doc["sigma"])}


@pytest.fixture(scope="module")
def train_artifacts(config_path, workdir, solve_artifacts):
    start = time.perf_counter()
    code = main(["train", "--config", str(config_path),
                 "--seeds", str(TRAIN_SEEDS)])
    elapsed = time.perf_counter() - start
    doc = json.loads((workdir / "out" / "theta.json").read_text())
    return {"code": code, "elapsed": elapsed, "theta": np.array(doc["gain"])}


def test_dare_oracle_accuracy(bicycle, solve_artifacts, monkeypatch):
    ok = solve_artifacts["code"] == 0
    gain = solve_artifacts["gain"]
    rel = np.abs((gain - TABLE_KINF) / TABLE_KINF)
    ok = ok and rel.max() <= 0.05

    # internal consistency: recursion limit vs the fixed point
    seq = kalman_recursion(bicycle, bicycle.effective_process_cov(), 300)
    cov_gap = np.abs(seq[-1][1] - solve_artifacts["sigma"]).max()
    monkeypatch.setattr(kalman, "_DARE_TOL", 1e-22)
    tight = solve_dare(bicycle)
    gain_gap = np.abs(seq[-1][0] - tight.gain).max()
    ok = ok and cov_gap < 1e-10 and gain_gap < 1e-10
    ok = ok and solve_artifacts["elapsed"] < 1.0
    report("1/8 dare-oracle-accuracy", ok,
           f"max rel err {rel.max():.2%}, cov gap {cov_gap:.1e}, "
           f"gain gap {gain_gap:.1e}, solve {solve_artifacts['elapsed']:.2f}s")
    assert solve_artifacts["code"] == 0
    assert rel.max() <= 0.05
    assert cov_gap < 1e-10
    assert gain_gap < 1e-10
    assert solve_artifacts["elapsed"] < 1.0


def test_learned_gain_accuracy(train_artifacts, solve_artifacts):
    _, err_pct = gain_metrics(train_artifacts["theta"],
                              solve_artifacts["gain"])
    worst = np.abs(err_pct).max()
    ok = (train_artifacts["code"] == 0 and worst <= 2.0
          and train_artifacts["elapsed"] <= 600.0)
    report("2/8 learned-gain-accuracy", ok,
           f"max |err| {worst:.3f}% over {TRAIN_SEEDS} seeds, "
           f"train {train_artifacts['elapsed']:.1f}s")
    assert train_artifacts["code"] == 0
    assert worst <= 2.0
    assert train_artifacts["elapsed"] <= 600.0


def test_discount_factor_insensitivity(config_path, workdir):
    code = main(["sweep-gamma", "--config", str(config_path), "--seeds", "3"])
    with open(workdir / "out" / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    err_cols = [i for i, name in enumerate(header) if name.startswith("e")]
    worst = 0.0
    gammas_seen = []
    for row in rows[1:]:
        gammas_seen.append(float(row[0]))
        worst = max(worst, max(abs(float(row[i])) for i in err_cols))
    ok = code == 0 and gammas_seen == SWEEP_GAMMAS and worst <= 2.0

    # the closed-form horizon gains carry no discount parameter: the same
    # sequence is a stationary point of the discounted objective for every
    # discount value
    rng = np.random.default_rng(77)
    model = random_system(rng, n=2, r=2, p=2)
    p0 = random_psd(rng, 2)
    gains = finite_horizon_gains(model, p0, 5)
    qe = model.effective_process_cov()

    def j_n(gain_list, gamma):
        cov = p0
        total = 0.0
        for i, a in enumerate(gain_list):
            iac = np.eye(model.n) - a @ model.C
            cov = (iac @ (model.A @ cov @ model.A.T + qe) @ iac.T
                   + a @ model.R @ a.T)
            total += -(gamma ** i) * np.trace(cov)
        return total

    h = 1e-6
    gamma_free = True
    for gamma in SWEEP_GAMMAS:
        for idx in range(len(gains)):
            for i in range(model.n):
                for j in range(model.r):
                    up = [g.copy() for g in gains]
                    up[idx][i, j] += h
                    down = [g.copy() for g in gains]
                    down[idx][i, j] -= h
                    grad = (j_n(up, gamma) - j_n(down, gamma)) / (2 * h)
                    curv = (j_n(up, gamma) - 2 * j_n(gains, gamma)
                            + j_n(down, gamma)) / h ** 2
                    if abs(grad) > 1e-5 * max(abs(curv), 1e-9):
                        gamma_free = False
    ok = ok and gamma_free
    report("3/8 discount-insensitivity", ok,
           f"max |err| {worst:.3f}% across gammas {gammas_seen}, "
           f"closed-form gains discount-free: {gamma_free}")
    assert code == 0
    assert gammas_seen == SWEEP_GAMMAS
    assert worst <= 2.0
    assert gamma_free


def test_evaluation_parity(bicycle, config_path, workdir, train_artifacts,
                           solve_artifacts):
    theta_path = workdir / "out" / "theta.json"
    code = main(["eval", "--config", str(config_path),
                 "--gain", f"learned={theta_path}", "--gain", "kinf=dare"])
    with open(workdir / "out" / "eval.csv") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    ok = code == 0 and rows["learned"]["status"] == "ok"
    full_learned = float(rows["learned"]["loss_full"])
    full_kinf = float(rows["kinf"]["loss_full"])
    parity = abs(full_learned - full_kinf) / full_kinf
    ok = ok and parity <= 0.01

    k_inf = solve_artifacts["gain"]
    trace = float(np.trace(
        (np.eye(2) - k_inf @ bicycle.C) @ solve_artifacts["sigma"]))
    ss_err = abs(float(rows["kinf"]["loss_ss"]) - trace) / trace
    ok = ok and ss_err <= 0.05
    report("4/8 evaluation-parity", ok,
           f"loss_full parity {parity:.3%}, steady loss vs covariance "
           f"trace {ss_err:.3%}")
    assert code == 0
    assert parity <= 0.01
    assert ss_err <= 0.05


def test_horizon_gains_match_kalman_recursion():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        model = random_system(rng)
        p0 = random_psd(rng, model.n)
        gains = finite_horizon_gains(model, p0, 10)
        pred0 = model.A @ p0 @ model.A.T + model.effective_process_cov()
        recursion = kalman_recursion(model, pred0, steps=10)
        worst = max(worst, max(
            np.abs(g - k).max() for g, (k, _) in zip(gains, recursion)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report("5/8 horizon-vs-recursion-equivalence", ok,
           f"max gain gap {worst:.2e} over 20 systems, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_gradient_suites():
    rng = np.random.default_rng(555)
    worst_critic = 0.0
    worst_actor = 0.0
    h = 1e-6
    for _ in range(50):
        model = random_system(rng)
        n, r = model.n, model.r
        batch = rng.standard_normal((12, n))
        noise = draw_noise(model, rng, size=12)
        theta = 0.3 * rng.standard_normal((n, r))
        w0 = random_psd(rng, n) + 0.5 * np.eye(n)
        gamma = rng.uniform(0.0, 0.99)

        (_, c_grad), _ = kernel_steps(model, w0, theta, batch, noise,
                                      gamma=gamma)
        nxt, reward = step(model, batch, theta, *noise)
        target = reward + gamma * critic_value(w0, nxt)

        def frozen(w):
            return 0.5 * np.mean((target - critic_value(w, batch)) ** 2)

        fd_c = np.zeros_like(w0)
        for i in range(n):
            for j in range(n):
                bump = np.zeros_like(w0)
                bump[i, j] = h
                fd_c[i, j] = (frozen(w0 + bump) - frozen(w0 - bump)) / (2 * h)
        worst_critic = max(worst_critic,
                           np.abs(fd_c - c_grad).max()
                           / max(np.abs(fd_c).max(), 1e-12))

        _, (_, a_grad) = kernel_steps(model, w0, theta, batch, noise,
                                      gamma=gamma)
        fd_a = np.zeros_like(theta)
        for i in range(n):
            for j in range(r):
                bump = np.zeros_like(theta)
                bump[i, j] = h
                _, (up, _) = kernel_steps(model, w0, theta + bump, batch,
                                          noise, gamma=gamma)
                _, (down, _) = kernel_steps(model, w0, theta - bump, batch,
                                            noise, gamma=gamma)
                fd_a[i, j] = (up - down) / (2 * h)
        worst_actor = max(worst_actor,
                          np.abs(fd_a - a_grad).max()
                          / max(np.abs(fd_a).max(), 1e-12))
    ok = worst_critic < 1e-5 and worst_actor < 1e-5
    report("6/8 gradient-suites", ok,
           f"worst rel err critic {worst_critic:.2e}, "
           f"actor {worst_actor:.2e} over 50 instances each")
    assert worst_critic < 1e-5
    assert worst_actor < 1e-5


def test_stationarity_property():
    # finite-difference flatness of the one-step objective at the closed
    # form, measured as the implied optimum offset in curvature units
    rng = np.random.default_rng(888)
    worst_offset = 0.0
    for _ in range(10):
        model = random_system(rng)
        p0 = random_psd(rng, model.n)
        gain = closed_form_one_step_gain(model, p0)
        pred = model.A @ p0 @ model.A.T + model.effective_process_cov()

        def j1(a):
            iac = np.eye(model.n) - a @ model.C
            return -np.trace(iac @ pred @ iac.T + a @ model.R @ a.T)

        h = 1e-5 * max(1.0, np.abs(gain).max())
        for i in range(model.n):
            for j in range(model.r):
                bump = np.zeros_like(gain)
                bump[i, j] = h
                grad = (j1(gain + bump) - j1(gain - bump)) / (2 * h)
                curv = (j1(gain + bump) - 2 * j1(gain) + j1(gain - bump)) / h ** 2
                worst_offset = max(
                    worst_offset,
                    abs(grad) / (abs(curv) * max(1.0, np.abs(gain).max())))

    # the trainer's actor gradient at that gain, pool second moment
    # matched to P0 exactly, no discounting
    model = scalar_model(r=0.25)
    p0 = np.array([[1.0]])
    a_star = closed_form_one_step_gain(model, p0)
    m_batch = 4096
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((m_batch, 1))
    batch = raw / np.sqrt((raw ** 2).mean())
    noise = draw_noise(model, rng, size=m_batch)
    _, (_, g_star) = kernel_steps(model, np.eye(1), a_star, batch, noise,
                                  gamma=0.0)
    _, (_, g_zero) = kernel_steps(model, np.eye(1), np.zeros((1, 1)),
                                  batch, noise, gamma=0.0)
    bound = 3.0 / np.sqrt(m_batch) * np.linalg.norm(g_zero)
    sampled_ok = np.linalg.norm(g_star) < bound
    _, (_, g_exact) = kernel_steps(model, np.eye(1), a_star, batch,
                                   gamma=0.0)
    exact_ok = np.abs(g_exact).max() < 1e-12

    ok = worst_offset < 1e-6 and sampled_ok and exact_ok
    report("7/8 stationarity-property", ok,
           f"worst FD offset {worst_offset:.2e}, sampled grad "
           f"{np.linalg.norm(g_star):.2e} < bound {bound:.2e}, "
           f"noise-averaged grad {np.abs(g_exact).max():.1e}")
    assert worst_offset < 1e-6
    assert sampled_ok
    assert exact_ok


def test_stability_certificate(bicycle, train_artifacts):
    theta = train_artifacts["theta"]
    rho = spectral_radius((np.eye(2) - theta @ bicycle.C) @ bicycle.A)
    ok = rho < 1.0
    report("8/8 stability-certificate", ok,
           f"spectral radius of closed-loop error dynamics {rho:.4f}")
    assert rho < 1.0
