import json
import os

import pytest

import mgrl.cli as cli
from mgrl.cli import main
from mgrl.config import load_run_config
from mgrl.neural import load_checkpoint
from mgrl.ppo import TrainingDivergedError, evaluate_policy
from mgrl.scenario import load_scenario_csv
from mgrl.seeding import derive_seed
from mgrl.trajectory import read_trajectory_csv

TINY_CONF = """\
run.seed = 3
scenario.horizon_steps = 24
scenario.cyclone_window = 12, 18
ppo.total_updates = 2
ppo.rollout_steps = 16
ppo.n_envs = 2
ppo.minibatch_size = 8
ppo.epochs_per_update = 2
ppo.hidden_sizes = 8
explain.n_samples = 300
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(TINY_CONF)
    return str(path)


def run(*argv):
    return main(list(argv))


def run_pipeline(conf, out, *, through="eval"):
    assert run("scenario", "--config", conf, "--out", out) == 0
    if through == "scenario":
        return
    assert run("train", "--config", conf, "--out", out) == 0
    if through == "train":
        return
    assert run("eval", "--config", conf, "--out", out) == 0


class TestConfigCommand:
    def test_prints_effective_settings(self, conf, capsys):
        assert run("config", "--config", conf) == 0
        text = capsys.readouterr().out
        assert "run.seed = 3" in text
        assert "ppo.total_updates = 2" in text

    def test_seed_flag_overrides(self, conf, capsys):
        assert run("config", "--config", conf, "--seed", "9") == 0
        assert "run.seed = 9" in capsys.readouterr().out

    def test_bad_config_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("ppo.nosuchfield = 1\n")
        assert run("config", "--config", str(bad)) == 1
        assert "error:" in capsys.readouterr().err


class TestScenarioCommand:
    def test_writes_scenario_csv(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("scenario", "--config", conf, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "scenario.csv"))
        assert "24 hourly steps" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, conf, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("scenario", "--config", conf, "--out", out_a) == 0
        assert run("scenario", "--config", conf, "--out", out_b) == 0
        a = open(os.path.join(out_a, "scenario.csv"), "rb").read()
        b = open(os.path.join(out_b, "scenario.csv"), "rb").read()
        assert a == b

    def test_seed_changes_content(self, conf, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("scenario", "--config", conf, "--out", out_a) == 0
        assert run("scenario", "--config", conf, "--out", out_b,
                   "--seed", "4") == 0
        a = open(os.path.join(out_a, "scenario.csv"), "rb").read()
        b = open(os.path.join(out_b, "scenario.csv"), "rb").read()
        assert a != b


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="train")
        assert os.path.exists(os.path.join(out, "checkpoint_final.json"))
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert "update 2/2" in capsys.readouterr().out

    def test_missing_scenario_is_user_error(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("train", "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert "scenario file not found" in err
        assert "mgrl scenario" in err

    def test_checkpoint_schedule(self, tmp_path):
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(TINY_CONF + "ppo.total_updates = 3\n"
                             "run.checkpoint_every = 1\n")
        out = str(tmp_path / "out")
        run_pipeline(str(conf_path), out, through="train")
        names = sorted(os.listdir(out))
        assert "checkpoint_00000.json" in names
        assert "checkpoint_00001.json" in names
        # the last update is covered by checkpoint_final.json instead
        assert "checkpoint_00002.json" not in names
        assert "checkpoint_final.json" in names

    def test_metrics_are_byte_identical_across_runs(self, conf, tmp_path):
        """Same master seed, same command sequence, same bytes out."""
        outs = [str(tmp_path / d) for d in ("a", "b")]
        for out in outs:
            run_pipeline(conf, out, through="train")
        blobs = [open(os.path.join(out, "metrics.csv"), "rb").read()
                 for out in outs]
        assert blobs[0] == blobs[1]

    def test_divergence_writes_diagnostic_and_exits_2(
            self, conf, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")

        def exploding_train(cfg, env_cfg, scn, checkpoint_fn=None):
            raise TrainingDivergedError(
                "non-finite loss at update 0",
                diagnostic={"update": 0, "policy_loss": None,
                            "value_loss": None, "entropy": None})

        monkeypatch.setattr(cli, "train", exploding_train)
        assert run("train", "--config", conf, "--out", out) == 2
        diag = json.load(open(os.path.join(out,
                                           "training_diagnostic.json")))
        assert diag["update"] == 0
        assert "diagnostic" in capsys.readouterr().err


class TestEvalCommand:
    def test_writes_trajectory(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        traj = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
        assert len(traj) == 24
        assert "resilience index" in capsys.readouterr().out

    def test_missing_checkpoint_is_user_error(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")
        assert run("eval", "--config", conf, "--out", out) == 1
        assert "checkpoint not found" in capsys.readouterr().err

    def test_deterministic_eval_is_repeatable(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        first = open(os.path.join(out, "trajectory.csv"), "rb").read()
        assert run("eval", "--config", conf, "--out", out) == 0
        second = open(os.path.join(out, "trajectory.csv"), "rb").read()
        assert first == second

    def test_multi_episode_flag(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="train")
        assert run("eval", "--config", conf, "--out", out,
                   "--episodes", "3") == 0


class TestExplainCommand:
    def test_explicit_step_writes_all_renderings(self, conf, tmp_path,
                                                 capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "5") == 0
        for dim in ("charge", "discharge"):
            for ext in ("svg", "csv", "txt"):
                assert os.path.exists(os.path.join(
                    out, f"explain_step0005_{dim}.{ext}"))
        assert "explaining step 5" in capsys.readouterr().out

    def test_mode_selection_picks_first_matching_step(self, conf, tmp_path,
                                                      capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        traj = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
        mode = traj.mode_at(0)
        assert run("explain", "--config", conf, "--out", out,
                   "--mode", mode) == 0
        assert "step 0" in capsys.readouterr().out

    def test_step_out_of_range_is_user_error(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "999") == 1
        assert "outside trajectory" in capsys.readouterr().err

    def test_missing_trajectory_is_user_error(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="train")
        assert run("explain", "--config", conf, "--out", out) == 1
        assert "mgrl eval" in capsys.readouterr().err

    def test_step_and_mode_are_mutually_exclusive(self, conf, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit):
            run("explain", "--config", conf, "--step", "1",
                "--mode", "charge")


class TestReportCommand:
    def test_full_report_artifacts(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "2") == 0
        assert run("report", "--config", conf, "--out", out) == 0
        for name in ("report.txt", "report.csv", "soc_trace.svg",
                     "supply.svg", "reward_curve.svg"):
            assert os.path.exists(os.path.join(out, name)), name
        text = capsys.readouterr().out
        assert "Resilience index" in text
        assert "Battery life estimate" in text
        assert "explain_step0002_charge.svg" in text

    def test_report_csv_is_key_value(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("report", "--config", conf, "--out", out) == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        for key in ("resilience_index", "battery_throughput_kwh",
                    "battery_life_estimate", "n_updates"):
            assert key in keys

    def test_missing_artifacts_enumerated(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")
        assert run("report", "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert "training metrics" in err
        assert "evaluation trajectory" in err

    def test_report_ri_uses_configured_reward_weights(self, tmp_path):
        """report.csv's RI is the episode RI evaluate_policy computes under
        the configured tier weights, not under the defaults."""
        conf = tmp_path / "weights.conf"
        conf.write_text(TINY_CONF + "env.reward_weights = 10, 1, 0.1\n")
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out)
        assert run("report", "--config", str(conf), "--out", out) == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        report = dict(line.split(",", 1) for line in lines[1:])

        cfg = load_run_config(str(conf), output_override=out)
        policy, _ = load_checkpoint(os.path.join(out, "checkpoint_final.json"))
        scn = load_scenario_csv(os.path.join(out, "scenario.csv"))
        ev = evaluate_policy(policy, cfg.env, scn,
                             seed=derive_seed(cfg.seed, "eval"))
        assert cfg.env.reward_weights == (10.0, 1.0, 0.1)
        assert abs(float(report["resilience_index"])
                   - ev.summaries[0].ri) <= 1e-12

    def test_report_is_idempotent(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("report", "--config", conf, "--out", out) == 0
        first = open(os.path.join(out, "report.csv"), "rb").read()
        assert run("report", "--config", conf, "--out", out) == 0
        assert first == open(os.path.join(out, "report.csv"), "rb").read()


def corrupt(path, edit, n=4):
    """Rewrite the 1-based data row n of a CSV artifact through edit."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[n] = ",".join(edit(lines[n].split(",")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestTrajectoryBoundary:
    """A corrupt trajectory.csv is bad input (exit 1) for every command
    that reads it, and the message names the file, row and column."""

    @pytest.mark.parametrize("command", [("explain", "--step", "1"),
                                         ("report",)],
                             ids=["explain", "report"])
    @pytest.mark.parametrize("edit, detail", [
        (lambda f: [f[0], "nan", *f[2:]], "column soc"),
        (lambda f: f[:-2], "column sh3 missing"),
    ], ids=["nan-soc", "ragged-row"])
    def test_corrupt_trajectory_is_user_error(self, conf, tmp_path, capsys,
                                              command, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        corrupt(os.path.join(out, "trajectory.csv"), edit)
        capsys.readouterr()
        assert run(*command, "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert "trajectory.csv: data row 4" in err
        assert detail in err

    @pytest.mark.parametrize("command, edit, detail", [
        (("report",), lambda f: [*f[:6], "-1.5", *f[7:]],
         "column p_ch: negative value -1.5"),
        (("explain", "--step", "1"), lambda f: [f[0], "7.0", *f[2:]],
         "column soc: value 7.0 above 1"),
    ], ids=["negative-p_ch-report", "soc-above-1-explain"])
    def test_physically_impossible_value_is_user_error(
            self, conf, tmp_path, capsys, command, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        corrupt(os.path.join(out, "trajectory.csv"), edit)
        capsys.readouterr()
        assert run(*command, "--config", conf, "--out", out) == 1
        assert f"trajectory.csv: data row 4, {detail}" in \
            capsys.readouterr().err

    def test_header_only_trajectory_report_is_user_error(self, conf, tmp_path,
                                                         capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        path = os.path.join(out, "trajectory.csv")
        with open(path) as fh:
            header = fh.readline()
        with open(path, "w") as fh:
            fh.write(header)
        capsys.readouterr()
        assert run("report", "--config", conf, "--out", out) == 1
        assert "trajectory.csv: no data rows" in capsys.readouterr().err


class TestMetricsBoundary:
    @pytest.mark.parametrize("edit, detail", [
        (lambda f: [*f[:2], "abc", *f[3:]],
         "data row 2, column RI: not a number: 'abc'"),
        (lambda f: f[:-2], "data row 2: column entropy missing"),
    ], ids=["non-numeric", "ragged-row"])
    def test_corrupt_metrics_report_is_user_error(self, conf, tmp_path,
                                                  capsys, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        corrupt(os.path.join(out, "metrics.csv"), edit, n=2)
        capsys.readouterr()
        assert run("report", "--config", conf, "--out", out) == 1
        assert f"metrics.csv: {detail}" in capsys.readouterr().err


class TestScenarioBoundary:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_header_only_scenario_is_user_error(self, conf, tmp_path, capsys,
                                                command):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="train")
        with open(os.path.join(out, "scenario.csv"), "w") as fh:
            fh.write("t,p_re,l1,l2,l3\n")
        capsys.readouterr()
        assert run(command, "--config", conf, "--out", out) == 1
        assert "scenario.csv: no data rows" in capsys.readouterr().err


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "mgrl" in capsys.readouterr().out

    def test_unknown_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            run()
