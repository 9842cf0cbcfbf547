import csv
import json
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from steadygain import TrainerConfig, cli
from steadygain.cli import RunConfig, main
from steadygain.error_mdp import NoiseStack

TABLE_KINF = np.array([[-5.31e-4, -2.31e-3], [3.25e-5, 5.07e-2]])

SMALL_TRAINER = {
    "batch_size": 32, "max_iters": 200, "burn_in": 20, "seed": 0,
}
SMALL_EVAL = {"n_traj": 20, "t_test": 250, "t_critical": 100, "seed": 0}


def write_config(tmp_path, **overrides):
    doc = {
        "model": "bicycle",
        "trainer": SMALL_TRAINER,
        "eval": SMALL_EVAL,
        "gamma_sweep": [0.99],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolve:
    def test_default_bicycle(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "dare.json").read_text())
        assert set(doc) == {"sigma", "gain", "iterations", "residual"}
        gain = np.array(doc["gain"])
        np.testing.assert_allclose(gain, TABLE_KINF, rtol=0.05)
        out = capsys.readouterr().out
        assert "0.05074" in out or "0.0507" in out

    def test_zero_process_noise_override(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"bicycle": {"sigma_side_slope": 0.0,
                               "sigma_side_wind": 0.0}})
        code = main(["solve", "--config", str(cfg)])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "dare.json").read_text())
        np.testing.assert_array_equal(np.array(doc["gain"]), np.zeros((2, 2)))

    def test_inline_scalar_model(self, tmp_path):
        inline = {
            "A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        code = main(["solve", "--config", str(cfg)])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "dare.json").read_text())
        # closed form: S^2 - 0.25 S - 1 = 0, K = S / (S + 1)
        sigma = (0.25 + np.sqrt(4.0625)) / 2
        assert doc["gain"][0][0] == pytest.approx(sigma / (sigma + 1),
                                                  rel=1e-9)

    def test_inline_near_marginal_model(self, tmp_path):
        inline = {
            "A": [[1.0]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[1e-8]], "R": [[1.0]], "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        assert main(["solve", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "dare.json").read_text())
        sigma = solve_discrete_are([[1.0]], [[1.0]], [[1e-8]], [[1.0]])
        assert doc["gain"][0][0] == pytest.approx(
            sigma[0, 0] / (sigma[0, 0] + 1), rel=1e-9)

    def test_unstabilizable_model_exits_one(self, tmp_path, capsys):
        # The unit-circle mode gets no process noise: K = 0 leaves it
        # undamped, so no stabilizing gain exists.
        inline = {
            "A": [[1.0]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[0.0]], "R": [[1.0]], "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "spectral radius" in capsys.readouterr().err


class TestTrain:
    def test_zero_iterations_writes_zero_gain(self, tmp_path):
        cfg = write_config(tmp_path,
                           trainer={**SMALL_TRAINER, "max_iters": 0})
        code = main(["train", "--config", str(cfg)])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "theta.json").read_text())
        np.testing.assert_array_equal(np.array(doc["gain"]),
                                      np.zeros((2, 2)))

    def test_pool_diverging_in_burn_in_exits_one(self, tmp_path, capsys):
        # Burn-in runs under the zero gain, so the mode at 3 grows by 3x per
        # step and passes the pool guard long before the 400 steps end.
        inline = {
            "A": [[3.0, 0.0], [0.0, 0.5]], "B": [[0.0], [0.0]],
            "C": np.eye(2).tolist(), "D": [[0.0], [0.0]],
            "E": np.eye(2).tolist(), "Q": np.eye(2).tolist(),
            "R": np.eye(2).tolist(), "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline},
                           trainer={**SMALL_TRAINER, "burn_in": 400})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "--config", str(cfg)]) == 1
        assert "burn-in" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        code = main(["train", "--config", str(cfg_a)])
        assert code == 0
        cfg_b = write_config(tmp_path, output_dir=str(tmp_path / "b"))
        code = main(["train", "--config", str(cfg_b)])
        assert code == 0
        hist_a = (tmp_path / "a" / "train_history.csv").read_bytes()
        hist_b = (tmp_path / "b" / "train_history.csv").read_bytes()
        assert hist_a == hist_b
        theta_a = (tmp_path / "a" / "theta.json").read_bytes()
        theta_b = (tmp_path / "b" / "theta.json").read_bytes()
        assert theta_a == theta_b

    def test_history_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "train_history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "theta11", "theta12", "theta21", "theta22",
                           "d11", "d12", "d21", "d22",
                           "critic_loss", "actor_loss"]
        assert len(rows) == SMALL_TRAINER["max_iters"] + 1

    @pytest.mark.parametrize("seeds", ["1", "2"])
    def test_divergence_exits_one_with_partial_history(self, tmp_path, seeds):
        cfg = write_config(tmp_path,
                           trainer={**SMALL_TRAINER, "lr_actor": 1e6})
        assert main(["train", "--config", str(cfg), "--seeds", seeds]) == 1
        with open(tmp_path / "out" / "train_history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["iter", "theta11"]
        assert 1 <= len(rows) - 1 < SMALL_TRAINER["max_iters"]
        assert not (tmp_path / "out" / "theta.json").exists()

    def test_multi_seed_average(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seeds", "2"]) == 0
        doc = json.loads((tmp_path / "out" / "theta.json").read_text())
        assert doc["seeds"] == [0, 1]


class TestEval:
    def test_identical_gains_identical_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["eval", "--config", str(cfg),
                     "--gain", "a=dare", "--gain", "b=dare"])
        assert code == 0
        with open(tmp_path / "out" / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "loss_tran", "loss_ss", "loss_full",
                           "status"]
        assert rows[1][1:] == rows[2][1:]
        assert rows[1][4] == "ok"

    def test_gain_from_theta_file(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        theta_path = tmp_path / "out" / "theta.json"
        code = main(["eval", "--config", str(cfg),
                     "--gain", f"learned={theta_path}", "--gain", "kinf=dare"])
        assert code == 0
        with open(tmp_path / "out" / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["learned", "kinf"]

    def test_zero_gain_source(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["eval", "--config", str(cfg), "--gain", "open_loop=zero"])
        assert code == 0
        with open(tmp_path / "out" / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "open_loop"
        assert rows[1][4] == "ok"

    def test_multi_input_inline_plant(self, tmp_path):
        # Two inputs (m = 2): the known input cancels from the error.
        inline = {
            "A": [[0.9, 0.1], [0.0, 0.8]], "B": [[1.0, 0.0], [0.5, 1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.2, 0.0], [0.0, 0.3]],
            "E": [[1.0, 0.0], [0.0, 1.0]], "Q": [[0.01, 0.0], [0.0, 0.02]],
            "R": [[0.1, 0.0], [0.0, 0.2]], "dt": 0.1,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        code = main(["eval", "--config", str(cfg),
                     "--gain", "dare", "--gain", "zero"])
        assert code == 0
        with open(tmp_path / "out" / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[4] for row in rows[1:]] == ["ok", "ok"]
        assert float(rows[1][2]) < float(rows[2][2])

    def test_diverged_row_exits_1_and_keeps_every_row(self, tmp_path):
        # rho[(I - K C) A] = 1.406 for this gain on the bicycle.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gain": [[0.0, 0.0], [0.0, -0.5]]}))
        cfg = write_config(tmp_path)
        code = main(["eval", "--config", str(cfg),
                     "--gain", "dare", "--gain", f"bad={bad}"])
        assert code == 1
        with open(tmp_path / "out" / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        assert [(row[0], row[4]) for row in rows[1:]] == [
            ("dare", "ok"), ("bad", "diverged")]


class TestSweepGamma:
    def test_singleton_sweep_matches_train(self, tmp_path):
        trainer = {**SMALL_TRAINER, "init_mode": "fixed", "gamma": 0.99}
        cfg = write_config(tmp_path, trainer=trainer, gamma_sweep=[0.99])
        assert main(["sweep-gamma", "--config", str(cfg), "--seeds", "2"]) == 0
        with open(tmp_path / "out" / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["gamma", "theta11", "theta12", "theta21",
                               "theta22"]
        assert main(["train", "--config", str(cfg), "--seeds", "2"]) == 0
        doc = json.loads((tmp_path / "out" / "theta.json").read_text())
        theta_from_train = np.array(doc["gain"]).ravel()
        theta_from_sweep = np.array([float(x) for x in rows[1][1:5]])
        np.testing.assert_allclose(theta_from_sweep, theta_from_train,
                                   rtol=1e-12)


    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma_sweep=[])
        assert main(["sweep-gamma", "--config", str(cfg)]) == 2
        assert "gamma_sweep" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_every_run_diverging_exits_one(self, tmp_path):
        cfg = write_config(tmp_path,
                           trainer={**SMALL_TRAINER, "lr_actor": 1e6},
                           gamma_sweep=[0.25, 0.99])
        assert main(["sweep-gamma", "--config", str(cfg), "--seeds", "2"]) == 1
        with open(tmp_path / "out" / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["0.25", "0.99"]
        assert [row[-1] for row in rows[1:]] == ["diverged", "diverged"]


class TestConfigHandling:
    def test_roundtrip_lossless(self):
        cfg = RunConfig(
            model={"bicycle": {"m": 1600.0}},
            trainer=TrainerConfig(seed=3, gamma=0.5),
            gamma_sweep=(0.1, 0.9),
            output_dir="somewhere")
        again = RunConfig.from_dict(asdict(cfg))
        assert again == cfg
        assert RunConfig.from_dict(asdict(again)) == again

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": "bicycle"}))
        assert main(["solve", "--config", str(path)]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_model_document(self, tmp_path):
        path = write_config(tmp_path, model={"inline": {"A": [[1.0]]}})
        assert main(["solve", "--config", str(path)]) == 2

    def test_bad_flag_exits_two(self):
        assert main(["solve", "--bogus"]) == 2

    def test_divergent_solve_exits_one(self, tmp_path):
        inline = {
            "A": [[2.0]], "B": [[0.0]], "C": [[0.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        assert main(["solve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("trainer", [
        {"lr_actor": float("nan")}, {"lr_critic": float("inf")},
        {"convergence_tol": float("nan")}])
    def test_non_finite_setting_exits_two(self, tmp_path, capsys, trainer):
        cfg = write_config(tmp_path, trainer={**SMALL_TRAINER, **trainer})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "theta.json").exists()

    @pytest.mark.parametrize("command,overrides,name", [
        ("train", {"trainer": {**SMALL_TRAINER, "lr_actor": True}},
         "lr_actor"),
        ("train", {"trainer": {**SMALL_TRAINER, "gamma": "0.5"}}, "gamma"),
        ("sweep-gamma", {"gamma_sweep": [False, 0.5]}, "gamma_sweep[0]"),
        ("sweep-gamma", {"gamma_sweep": [0.25, "0.5"]}, "gamma_sweep[1]"),
    ], ids=["bool-rate", "string-gamma", "bool-discount", "string-discount"])
    def test_non_real_setting_exits_two(self, tmp_path, capsys, command,
                                        overrides, name):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--seeds", "1"]) == 2
        assert f"{name} must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sweep-gamma"])
    def test_zero_steady_state_gain_exits_two_before_work(
            self, tmp_path, capsys, command):
        # The unmeasured second state takes no process noise, so solve
        # finds K = 0: there is nothing to learn and no scale for the
        # divergence guard or the percentage errors.
        inline = {
            "A": [[0.9, 0.0], [0.1, 0.8]], "B": [[0.0], [0.0]],
            "C": [[1.0, 0.0]], "D": [[0.0]], "E": [[1.0], [0.0]],
            "Q": [[0.0]], "R": [[1.0]], "dt": 0.01,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        assert main(["solve", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "dare.json").read_text())
        assert not np.any(doc["gain"])
        (tmp_path / "out" / "dare.json").unlink()
        (tmp_path / "out").rmdir()
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "steady-state gain" in err and "identically zero" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    @pytest.mark.parametrize("command", ["train", "sweep-gamma"])
    def test_seed_count_below_one_exits_two_before_work(
            self, tmp_path, capsys, monkeypatch, command, seeds):
        def no_solve(model):
            raise AssertionError("solved before --seeds was checked")

        monkeypatch.setattr(cli, "solve_dare", no_solve)
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--seeds", seeds]) == 2
        assert f"--seeds must be an integer >= 1, got {seeds}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_fractional_seed_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trainer={**SMALL_TRAINER, "seed": 1.5})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "theta.json").exists()

    @pytest.mark.parametrize("command,section,name,value", [
        ("eval", "eval", "t_critical", 195.5),
        ("train", "trainer", "burn_in", True),
    ])
    def test_non_integer_count_exits_two_before_rollout(
            self, tmp_path, capsys, monkeypatch, command, section, name,
            value):
        def no_rollout(self):
            raise AssertionError("noise drawn before the config was checked")

        monkeypatch.setattr(NoiseStack, "draw", no_rollout)
        base = SMALL_EVAL if section == "eval" else SMALL_TRAINER
        cfg = write_config(tmp_path, **{section: {**base, name: value}})
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,work", [
        (["eval"], "evaluate_gains"),
        (["sweep-gamma", "--seeds", "1"], "train_runs"),
    ], ids=["eval", "sweep-gamma"])
    def test_uncreatable_output_dir_exits_two_before_work(
            self, tmp_path, capsys, monkeypatch, argv, work):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output directory "
                                 "was made")

        monkeypatch.setattr(cli, work, no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, output_dir=str(blocker / "out"))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bicycle,name", [
        ({"v_long": float("inf")}, "v_long"),
        ({"l_arm": True}, "l_arm"),
        ({"m": True, "dt": True}, "m"),
        ({"sigma_lat_acc": float("nan")}, "sigma_lat_acc"),
    ], ids=["infinite-speed", "bool-arm", "bool-mass", "nan-noise"])
    def test_bad_vehicle_parameter_exits_two(self, tmp_path, capsys,
                                             bicycle, name):
        cfg = write_config(tmp_path, model={"bicycle": bicycle})
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"config error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_vehicle_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"bicycle": {"v_long": 1e308}})
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config error: vehicle parameters" in capsys.readouterr().err

    def test_bool_inline_dt_exits_two(self, tmp_path, capsys):
        inline = {
            "A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]],
            "E": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "dt": True,
        }
        cfg = write_config(tmp_path, model={"inline": inline})
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "dt must be a real number" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [0.5, "05", {"0": 0.5}])
    def test_non_list_gamma_sweep_exits_two(self, tmp_path, capsys, sweep):
        cfg = write_config(tmp_path, gamma_sweep=sweep)
        assert main(["sweep-gamma", "--config", str(cfg)]) == 2
        assert ("gamma_sweep must be a list of discounts"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_non_finite_gain_file_exits_two_before_rollout(
            self, tmp_path, capsys, monkeypatch):
        def no_rollout(self):
            raise AssertionError("noise drawn before the gains were checked")

        monkeypatch.setattr(NoiseStack, "draw", no_rollout)
        bad = tmp_path / "theta.json"
        bad.write_text(json.dumps({"gain": [[0.0, float("nan")],
                                            [0.0, 0.05]]}))
        cfg = write_config(tmp_path)
        code = main(["eval", "--config", str(cfg),
                     "--gain", "dare", "--gain", f"learned={bad}"])
        assert code == 2
        assert f"gain from {bad} contains non-finite entries" in (
            capsys.readouterr().err)

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seed", "5"]) == 0
        doc = json.loads((tmp_path / "out" / "theta.json").read_text())
        assert doc["seeds"] == [5]


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "steadygain.cli", "solve",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "dare.json").exists()
        assert "RuntimeWarning" not in proc.stderr

    def test_package_runs_as_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "steadygain", "solve",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "dare.json").read_text())
        assert np.asarray(doc["gain"]).shape == (2, 2)
