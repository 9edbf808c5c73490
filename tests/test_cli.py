import base64
import json
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest

import mgrl.cli as cli
from mgrl.cli import main
from mgrl.config import load_run_config
from mgrl.env import summarize_episode
from mgrl.metrics import read_train_metrics_csv
from mgrl.neural import load_checkpoint
from mgrl.ppo import evaluate_policy
from mgrl.scenario import MAX_KW, load_scenario_csv
from mgrl.seeding import derive_seed
from mgrl.trajectory import read_trajectory_csv

from test_config import NON_FINITE

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

    def test_calls_in_one_process_share_no_values(self, conf, tmp_path,
                                                  capsys):
        """The parser is built once per process; a flag given to one
        call does not carry over to the next."""
        assert cli.build_parser() is cli.build_parser()
        out = str(tmp_path / "A")
        assert run("config", "--config", conf, "--seed", "5",
                   "--out", out) == 0
        first = capsys.readouterr().out
        assert "run.seed = 5" in first
        assert f"run.output_dir = {out}" in first
        assert run("config", "--config", conf) == 0
        second = capsys.readouterr().out
        assert "run.seed = 3" in second
        assert out not in second

    def test_bad_config_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("ppo.nosuchfield = 1\n")
        assert run("config", "--config", str(bad)) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_out_names_the_flag(self, conf, capsys):
        """An empty --out is the flag's fault, not the config file's."""
        assert run("config", "--config", conf, "--out", "") == 1
        assert capsys.readouterr().err == "error: --out must not be empty\n"

    @pytest.mark.parametrize("command", ["config", "train"])
    def test_hash_in_out_is_user_error(self, conf, tmp_path, capsys,
                                       command):
        out = str(tmp_path / "x#y")
        assert run(command, "--config", conf, "--out", out) == 1
        assert "run.output_dir must not contain '#'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_output_is_a_config_file(self, conf, tmp_path, capsys):
        """What ``config`` prints, fed back through --config, prints the
        same again: every tuple and none reads back."""
        assert run("config", "--config", conf) == 0
        first = capsys.readouterr().out
        echo = tmp_path / "echo.conf"
        echo.write_text(first)
        assert run("config", "--config", str(echo)) == 0
        assert capsys.readouterr().out == first
        assert "scenario.cyclone_window = 12, 18\n" in first

    @pytest.mark.parametrize("key, value", NON_FINITE)
    def test_non_finite_value_is_user_error(self, tmp_path, capsys, key,
                                            value):
        bad = tmp_path / "bad.conf"
        bad.write_text(f"{key} = {value}\n")
        assert run("config", "--config", str(bad)) == 1
        assert f"bad value for {key}: expected a finite number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("scenario.rng_seed", -1),
                                            ("explain.seed", -3)])
    def test_negative_seed_is_user_error(self, tmp_path, capsys, key, value):
        """A seed that would reach np.random.default_rng is checked when
        the config loads, before any command uses it."""
        bad = tmp_path / "bad.conf"
        bad.write_text(f"{key} = {value}\n")
        out = str(tmp_path / "out")
        assert run("scenario", "--config", str(bad), "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{key.split('.')[1]} must be >= 0, got {value}" in err


class TestScenarioCommand:
    @pytest.mark.parametrize("line, key", [
        ("scenario.solar_capacity_kw = 2e6", "solar_capacity_kw"),
        ("scenario.base_loads_kw = 5e5, 3e5, 1e5", "base_loads_kw"),
    ], ids=["generation", "loads"])
    def test_generator_beyond_the_kw_cap_is_config_error(
            self, tmp_path, capsys, line, key):
        """A config whose generator could write a power beyond the cap
        fails at ``scenario``, naming the file and key, instead of
        writing a scenario.csv that train and eval then refuse."""
        bad = tmp_path / "bad.conf"
        bad.write_text(TINY_CONF + line + "\n")
        out = tmp_path / "out"
        assert run("scenario", "--config", str(bad), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: scenario: ")
        assert key in err and "must stay within 1e+06 kW" in err
        assert not (out / "scenario.csv").exists()

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

    def test_unwritable_out_fails_before_training(self, conf, tmp_path,
                                                  capsys):
        scenario = str(tmp_path / "scn" / "scenario.csv")
        run_pipeline(conf, os.path.dirname(scenario), through="scenario")
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "sub")
        capsys.readouterr()
        assert run("train", "--config", conf, "--out", out,
                   "--scenario", scenario) == 1
        captured = capsys.readouterr()
        assert f"error: {out}: cannot write: " in captured.err
        assert "update 1/" not in captured.out

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
        """A real divergence inside train: the diagnostic is strict JSON,
        each non-finite loss written as its repr string."""
        import mgrl.ppo as ppo_mod

        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")

        def poisoned(policy, value, batch, cfg, ws):
            return ppo_mod.LossReport(total=math.nan, policy_loss=math.nan,
                                      value_loss=math.inf, entropy=1.0,
                                      clip_frac=0.0)

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        monkeypatch.setattr(ppo_mod, "ppo_loss_and_grads", poisoned)
        assert run("train", "--config", conf, "--out", out) == 2
        with open(os.path.join(out, "training_diagnostic.json")) as f:
            diag = json.loads(f.read(), parse_constant=refuse)
        assert diag == {"update": 0, "policy_loss": "nan",
                        "value_loss": "inf", "entropy": 1.0}
        assert "diagnostic" in capsys.readouterr().err

    def test_diverging_run_is_refused_in_one_line(self, tmp_path, capsys):
        """A learning rate of 1e300 overflows the first update's losses
        and gradients: exit 2 and one stderr line, with no NumPy
        warning before it."""
        conf = tmp_path / "diverge.conf"
        conf.write_text(TINY_CONF + "ppo.learning_rate = 1e300\n")
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out, through="scenario")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--config", str(conf), "--out", out) == 2
        assert [str(w.message) for w in caught] == []
        diag = os.path.join(out, "training_diagnostic.json")
        assert capsys.readouterr().err == (
            f"error: non-finite loss at update 0 (diagnostic written to "
            f"{diag})\n")

    def test_divergence_in_a_rollout_is_refused_in_one_line(self, tmp_path,
                                                            capsys):
        """At a learning rate of 1e307 with one minibatch per update,
        update 0's loss is finite but its Adam step overflows the actor,
        so update 1's rollout meets a non-finite action first: exit 2,
        one stderr line and a strict-JSON diagnostic naming the update."""
        with open(os.path.join(os.path.dirname(__file__), "smoke.conf")) as f:
            smoke = f.read()
        conf = tmp_path / "diverge.conf"
        conf.write_text(smoke + "ppo.learning_rate = 1e307\n"
                        "ppo.epochs_per_update = 1\n"
                        "ppo.minibatch_size = 64\n")
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out, through="scenario")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--config", str(conf), "--out", out) == 2
        assert [str(w.message) for w in caught] == []
        diag = os.path.join(out, "training_diagnostic.json")
        assert capsys.readouterr().err == (
            f"error: non-finite action in the rollout of update 1 "
            f"(diagnostic written to {diag})\n")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        with open(diag) as f:
            doc = json.loads(f.read(), parse_constant=refuse)
        assert doc.keys() == {"update", "rollout"}
        assert doc["update"] == 1
        assert doc["rollout"].startswith("non-finite allocation weights: ")


class TestEvalCommand:
    def test_writes_trajectory(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        traj = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
        assert len(traj) == 24
        assert "resilience index" in capsys.readouterr().out

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

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_non_positive_episodes_is_user_error(self, conf, tmp_path,
                                                 capsys, episodes):
        out = str(tmp_path / "out")
        assert run("eval", "--config", conf, "--out", out,
                   "--episodes", episodes) == 1
        assert "--episodes" in capsys.readouterr().err

    def test_multi_episode_ri_is_the_mean(self, conf, tmp_path, capsys):
        """With --episodes N the printed RI is the N-episode mean, like the
        reward next to it; the tier lines are labelled as episode 1, the
        episode trajectory.csv holds."""
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="train")
        cfg = load_run_config(conf, output_override=out)
        policy = load_checkpoint(os.path.join(out, "checkpoint_final.json"))
        scn = load_scenario_csv(os.path.join(out, "scenario.csv"))
        ev = evaluate_policy(policy, cfg.env, scn, n_episodes=3,
                             seed=derive_seed(cfg.seed, "eval"))
        mean, first = f"{ev.ri:.4f}", f"{ev.summaries[0].ri:.4f}"
        assert mean != first  # the two readings are told apart
        capsys.readouterr()
        assert run("eval", "--config", conf, "--out", out,
                   "--episodes", "3") == 0
        text = capsys.readouterr().out
        assert f"mean resilience index {mean}" in text
        assert first not in text
        assert "episode 1, tier 1: shortage" in text


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
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "outside trajectory" in err

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_step_just_outside_either_end_is_user_error(
            self, pristine, tmp_path, capsys, end):
        """explain_step has no range check: --step -1 and --step T (one
        past the last hour) stop here."""
        conf, src = pristine
        out = tmp_path / "out"
        shutil.copytree(src, out)
        n = len(read_trajectory_csv(out / "trajectory.csv"))
        step = -1 if end == "first" else n
        assert run("explain", "--config", conf, "--out", str(out),
                   "--step", str(step)) == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"step {step} outside trajectory [0, {n})")
        assert not list(out.glob("explain_step*"))

    @pytest.mark.parametrize("soc", ["0.1", "0.95"])
    def test_soc_outside_the_band_is_user_error(self, conf, tmp_path, capsys,
                                                soc):
        """The cloud is clipped to [soc_min, soc_max], so an SOC outside it
        would explain another state: refused, naming the step and band."""
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        path = str(tmp_path / "low.csv")
        shutil.copy(os.path.join(out, "trajectory.csv"), path)
        corrupt(path, lambda f: [f[0], soc, *f[2:]], n=4)
        capsys.readouterr()
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "3", "--trajectory", path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: step 3 has SOC {soc} outside the configured "
            f"band [0.2, 0.9]\n")
        assert not os.path.exists(
            os.path.join(out, "explain_step0003_charge.svg"))

    def test_collapsed_cloud_without_ridge_is_user_error(self, tmp_path,
                                                          capsys):
        """A perturbation cloud too small to spread the design and no ridge
        give a singular surrogate: a setting to change, not a crash."""
        conf = tmp_path / "ridge.conf"
        conf.write_text(TINY_CONF + "explain.ridge_strength = 0\n"
                        "explain.perturb_scale = 1e-300\n")
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out)
        capsys.readouterr()
        assert run("explain", "--config", str(conf), "--out", out,
                   "--step", "1") == 1
        assert "increase ridge_strength" in capsys.readouterr().err

    def test_overflowing_surrogate_fit_is_user_error(self, pristine,
                                                     tmp_path, capsys):
        """An actor whose last layer is scaled by 1e290 gives finite
        outputs whose weighted sums of squares overflow: the NaN-fidelity
        fit is refused with one error line, and nothing is written."""
        conf, src = pristine
        out = tmp_path / "out"
        shutil.copytree(src, out)
        edit_checkpoint(out / "checkpoint_final.json", lambda p, d: _set(
            p["weights"], -1,
            [[1e290 * w for w in row] for row in p["weights"][-1]]))
        capsys.readouterr()
        assert run("explain", "--config", conf, "--out", str(out),
                   "--step", "3") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: surrogate fit is not finite")
        assert not list(out.glob("explain_step*"))

    def test_step_and_mode_are_mutually_exclusive(self, conf, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit):
            run("explain", "--config", conf, "--step", "1",
                "--mode", "charge")

    def test_unknown_mode_is_a_usage_error(self, conf, capsys):
        """argparse's choices are the only check of --mode."""
        with pytest.raises(SystemExit) as exc:
            run("explain", "--config", conf, "--mode", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mgrl explain")
        assert "argument --mode: invalid choice: 'bogus'" in \
            err.splitlines()[-1]


class TestReportCommand:
    def test_full_report_artifacts(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "2") == 0
        assert run("report", "--config", conf, "--out", out) == 0
        for name in ("report.txt", "report.csv", "soc_trace.svg",
                     "supply.svg"):
            assert os.path.exists(os.path.join(out, name)), name
        # No episode ends within two updates, so there is no curve to draw.
        assert not os.path.exists(os.path.join(out, "reward_curve.svg"))
        text = capsys.readouterr().out
        assert "Resilience index" in text
        assert "Battery life estimate" in text
        assert "explain_step0002_charge.svg" in text

    def test_reward_curve_skips_updates_without_an_episode(self, tmp_path):
        """Updates 0 and 1 finish no episode and log NaN; the curve draws
        only the scored updates 2 and 3."""
        conf = tmp_path / "curve.conf"
        conf.write_text(TINY_CONF.replace("ppo.total_updates = 2",
                                          "ppo.total_updates = 4"))
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out)
        stats = read_train_metrics_csv(os.path.join(out, "metrics.csv"))
        assert [math.isnan(s.mean_reward_norm) for s in stats] == \
            [True, True, False, False]
        assert run("report", "--config", str(conf), "--out", out) == 0
        with open(os.path.join(out, "reward_curve.svg")) as fh:
            svg = fh.read()
        assert "nan" not in svg.lower()
        [points] = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(points.split()) == 2

    def test_one_scored_update_draws_a_point_and_no_summary(self, tmp_path):
        """Only update 2 of 3 ends an episode: the curve is one point, too
        few to summarize, so report.txt and report.csv carry no training
        summary."""
        conf = tmp_path / "curve.conf"
        conf.write_text(TINY_CONF.replace("ppo.total_updates = 2",
                                          "ppo.total_updates = 3"))
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out)
        stats = read_train_metrics_csv(os.path.join(out, "metrics.csv"))
        assert [math.isnan(s.mean_reward_norm) for s in stats] == \
            [True, True, False]
        assert run("report", "--config", str(conf), "--out", out) == 0
        with open(os.path.join(out, "reward_curve.svg")) as fh:
            [points] = re.findall(r'<polyline points="([^"]*)"', fh.read())
        assert len(points.split()) == 1
        text = open(os.path.join(out, "report.txt")).read()
        assert "Training:" not in text
        keys = [line.split(",", 1)[0] for line in
                open(os.path.join(out, "report.csv")).read().splitlines()]
        assert "n_updates" in keys
        assert "converged_at_update" not in keys

    def test_explanations_listed_when_out_holds_glob_metacharacters(
            self, conf, tmp_path):
        out = str(tmp_path / "out[a]")
        run_pipeline(conf, out)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "2") == 0
        assert run("report", "--config", conf, "--out", out) == 0
        lines = open(os.path.join(out, "report.txt")).read().splitlines()
        assert lines[lines.index("Explanations:") + 1] == \
            "  explain_step0002_charge.svg"

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
        policy = load_checkpoint(os.path.join(out, "checkpoint_final.json"))
        scn = load_scenario_csv(os.path.join(out, "scenario.csv"))
        ev = evaluate_policy(policy, cfg.env, scn,
                             seed=derive_seed(cfg.seed, "eval"))
        assert cfg.env.reward_weights == (10.0, 1.0, 0.1)
        assert abs(float(report["resilience_index"])
                   - ev.summaries[0].ri) <= 1e-12

    def test_report_reads_no_reward_of_the_eval(self, tmp_path, capsys):
        """A report under env.reward_weights = 10, 1, 0.1 writes the same
        report.csv and report.txt over an eval at the default weights as
        over one at its own: it scores the trajectory's shortages and
        loads under its weights and never prints the normalized reward
        that the eval's reward column, summed under the report's
        weights, would give."""
        default, weighted = tmp_path / "default.conf", tmp_path / "w.conf"
        default.write_text(TINY_CONF)
        weighted.write_text(TINY_CONF + "env.reward_weights = 10, 1, 0.1\n")
        cfg = load_run_config(str(weighted))
        reports, rewards = [], []
        for eval_conf in (default, weighted):
            out = str(tmp_path / eval_conf.stem)
            run_pipeline(str(default), out, through="train")
            assert run("eval", "--config", str(eval_conf), "--out", out) == 0
            capsys.readouterr()
            assert run("report", "--config", str(weighted), "--out",
                       out) == 0
            reports.append([capsys.readouterr().out] + [
                open(os.path.join(out, name)).read()
                for name in ("report.csv", "report.txt")])
            traj = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
            rewards.append(traj.reward)
            mixed = summarize_episode(cfg.env, traj.loads, traj.shortages,
                                      traj.reward).reward_final_norm
            for text in reports[-1]:
                assert repr(mixed) not in text
                assert f"{mixed:.4f}" not in text
        assert reports[0][1:] == reports[1][1:]
        assert (rewards[0] != rewards[1]).any()

    def test_report_is_idempotent(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        assert run("report", "--config", conf, "--out", out) == 0
        first = open(os.path.join(out, "report.csv"), "rb").read()
        assert run("report", "--config", conf, "--out", out) == 0
        assert first == open(os.path.join(out, "report.csv"), "rb").read()


def test_every_artifact_is_written_atomically(conf, tmp_path, monkeypatch):
    """The whole scenario -> report chain, with os.replace recorded: every
    file in the output directory arrived by an atomic rename."""
    out = tmp_path / "out"
    renamed = []
    real_replace = os.replace

    def recording_replace(src, dst):
        renamed.append(os.fspath(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    for cmd in (["scenario"], ["train"], ["eval"], ["explain", "--step", "3"],
                ["report"]):
        assert run(*cmd, "--config", conf, "--out", str(out)) == 0
    written = sorted(os.listdir(out))
    assert len(written) == 14  # no reward_curve.svg: no episode ends
    assert written == sorted({os.path.basename(p) for p in renamed})
    assert {os.path.dirname(p) for p in renamed} == {str(out)}


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
        (("explain", "--step", "2"), lambda f: [*f[:3], "1e300", *f[4:]],
         "column l1: 1e+300 kW beyond the 1e+06 kW cap"),
        (("report",), lambda f: [*f[:3], "1e300", *f[4:]],
         "column l1: 1e+300 kW beyond the 1e+06 kW cap"),
        (("report",), lambda f: [*f[:14], "-2e6", *f[15:]],
         "column imb3: -2000000.0 kW beyond the 1e+06 kW cap"),
        # Read as is, an allocation above its hour's supply is plotted as
        # delivered, a shortage above its load scores a negative RI, and
        # an hour that charges and discharges counts twice in the
        # throughput and hides the discharge from explain --mode.
        *[(command, lambda f: [*f[:9], repr(50.0 * float(f[9]) + 100.0),
                               *f[10:]],
           "column alloc1: allocation ")
          for command in (("report",), ("explain", "--step", "1"))],
        *[(command, lambda f: [*f[:15], repr(50.0 * float(f[3]) + 1.0),
                               *f[16:]], "column sh1: shortage ")
          for command in (("report",), ("explain", "--mode", "discharge"))],
        *[(command, lambda f: [*f[:6], "10.0", "10.0", *f[8:]],
           "column p_dis: discharge 10.0 in an hour that charges")
          for command in (("report",), ("explain", "--mode", "discharge"))],
    ], ids=["negative-p_ch-report", "soc-above-1-explain",
            "huge-l1-explain", "huge-l1-report", "huge-imb3-report",
            "alloc-above-supply-report", "alloc-above-supply-explain",
            "shortage-above-load-report", "shortage-above-load-explain",
            "charge-and-discharge-report", "charge-and-discharge-explain"])
    def test_physically_impossible_value_is_user_error(
            self, conf, tmp_path, capsys, command, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        corrupt(os.path.join(out, "trajectory.csv"), edit)
        capsys.readouterr()
        assert run(*command, "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"trajectory.csv: data row 4, {detail}" in err

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
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "trajectory.csv: no data rows" in err

    def test_powers_at_the_kw_cap_explain_and_report(self, conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        path = os.path.join(out, "trajectory.csv")
        for n, flows in ((2, (MAX_KW, 0.0)), (3, (MAX_KW, 0.0)),
                         (4, (0.0, MAX_KW))):
            corrupt(path, lambda f: [f[0], f[1], *[repr(MAX_KW)] * 4,
                                     *map(repr, flows),
                                     *[repr(MAX_KW)] * 4,
                                     *[repr(-MAX_KW)] * 3,
                                     *[repr(MAX_KW)] * 3, f[-1]], n=n)
        assert run("explain", "--config", conf, "--out", out,
                   "--step", "2") == 0
        assert run("report", "--config", conf, "--out", out) == 0


class TestMetricsBoundary:
    @pytest.mark.parametrize("edit, detail", [
        (lambda f: [*f[:2], "abc", *f[3:]],
         "data row 2, column RI: not a number: 'abc'"),
        (lambda f: f[:-2], "data row 2: column entropy missing"),
        (lambda f: ["9" * 400, *f[1:]],
         f"data row 2, column update: expected 1, got {'9' * 400} "
         "(rows must be sorted with no gaps)"),
        (lambda f: ["9" * 25, *f[1:]],
         f"data row 2, column update: expected 1, got {'9' * 25} "
         "(rows must be sorted with no gaps)"),
        (lambda f: [f[0], "7.0", *f[2:]],
         "data row 2, column mean_reward_norm: value 7.0 outside [0, 1]"),
        (lambda f: [*f[:2], "-3.0", *f[3:]],
         "data row 2, column RI: value -3.0 outside [0, 1]"),
    ], ids=["non-numeric", "ragged-row", "update-400-digits",
            "update-25-digits", "reward-above-1", "negative-RI"])
    def test_corrupt_metrics_report_is_user_error(self, conf, tmp_path,
                                                  capsys, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        corrupt(os.path.join(out, "metrics.csv"), edit, n=2)
        capsys.readouterr()
        assert run("report", "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"metrics.csv: {detail}" in err

    @pytest.mark.parametrize("edit, detail", [
        (lambda rows: rows[::-1], "data row 1, column update: expected 0, "
                                  "got 15"),
        (lambda rows: [r for r in rows[:5] for _ in "ab"] + rows[5:],
         "data row 2, column update: expected 1, got 0"),
        (lambda rows: rows[:5] + rows[6:],
         "data row 6, column update: expected 5, got 6"),
    ], ids=["reversed", "five-duplicated", "gap"])
    def test_metrics_rows_out_of_order_are_refused(self, tmp_path, capsys,
                                                   edit, detail):
        """Read as they stand, reversed rows would report the curve as
        stabilized from update 3 (update 12 as written), and five
        duplicated rows a training of 21 updates; the report refuses
        both, and a gap, with one line naming the row."""
        conf = tmp_path / "run.conf"
        conf.write_text(TINY_CONF.replace("ppo.total_updates = 2",
                                          "ppo.total_updates = 16"))
        out = str(tmp_path / "out")
        run_pipeline(str(conf), out)
        path = os.path.join(out, "metrics.csv")
        with open(path) as fh:
            header, *rows = fh.read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.write(header + "".join(edit(rows)))
        capsys.readouterr()
        assert run("report", "--config", str(conf), "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"metrics.csv: {detail} (rows must be sorted" in err


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

    def test_huge_load_is_user_error(self, conf, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")
        corrupt(os.path.join(out, "scenario.csv"),
                lambda f: [*f[:2], "1e308", *f[3:]])
        capsys.readouterr()
        assert run("train", "--config", conf, "--out", out) == 1
        assert ("scenario.csv: data row 4, column l1: 1e+308 kW beyond the "
                "1e+06 kW cap") in capsys.readouterr().err

    def test_powers_at_the_kw_cap_run_the_pipeline(self, conf, tmp_path):
        """Generation and total load at the cap in several hours: every
        flow the env derives from them stays within it, so eval's
        trajectory passes explain and report."""
        out = str(tmp_path / "out")
        run_pipeline(conf, out, through="scenario")
        hours = {2: (MAX_KW, MAX_KW / 2, MAX_KW / 4, MAX_KW / 4),
                 4: (0.0, MAX_KW, 0.0, 0.0),
                 6: (MAX_KW, 0.0, 0.0, MAX_KW)}
        for n, powers in hours.items():
            corrupt(os.path.join(out, "scenario.csv"),
                    lambda f, p=powers: [f[0], *map(repr, p)], n=n)
        for cmd in (["train"], ["eval"], ["explain", "--step", "3"],
                    ["report"]):
            assert run(*cmd, "--config", conf, "--out", out) == 0, cmd


def _lists(a):
    """A stored array as nested lists."""
    raw = np.frombuffer(base64.b64decode(a["data"]), "<f8")
    return raw.reshape(a["shape"]).tolist()


def _stored(lists):
    """Nested lists, or an array, stored as an array of their shape."""
    a = np.array(lists, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode()}


def _map_arrays(doc, f):
    """Replace each array of both nets by f of it, wherever the doc still
    holds one where a checkpoint does."""
    for net in (doc["policy"], doc.get("value")):
        if not isinstance(net, dict):
            continue
        for key in ("weights", "biases"):
            if isinstance(net.get(key), list):
                net[key] = [f(a) for a in net[key]]
        for key in ("log_std", "obs_mean", "obs_scale"):
            if key in net:
                net[key] = f(net[key])


def edit_checkpoint(path, edit, as_lists=True):
    """Apply ``edit(policy, doc)`` to the checkpoint at ``path``.

    With ``as_lists`` the edit sees each array as nested lists, and each
    is stored again with the edited list's shape (an array the edit puts
    in keeps its own); without it the edit sees the file's JSON as it
    is."""
    with open(path) as fh:
        doc = json.load(fh)
    if as_lists:
        _map_arrays(doc, _lists)
    edit(doc["policy"], doc)
    if as_lists:
        _map_arrays(doc, _stored)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _set(d, key, value):
    d[key] = value


def _resize_output(d, width):
    """Keep the net consistent but give it ``width`` outputs, by cutting
    or repeating the columns of its last layer."""
    d["weights"][-1] = [(row * width)[:width] for row in d["weights"][-1]]
    d["biases"][-1] = (d["biases"][-1] * width)[:width]
    d["sizes"][-1] = width


def _zero_width(p, d):
    """A hidden layer of width 0, each array of the shape the sizes give
    it, as no trainer writes."""
    p["sizes"][1] = 0
    p["weights"] = [np.empty((6, 0)), np.empty((0, 5))]
    p["biases"][0] = np.empty(0)


class TestCheckpointBoundary:
    """A corrupt checkpoint is bad input (exit 1) for every command that
    reads it, and the message names the file and the field."""

    @pytest.mark.parametrize("command", [
        ("eval",), ("eval", "--stochastic", "--episodes", "2"),
        ("explain", "--step", "1")], ids=["eval", "stochastic", "explain"])
    @pytest.mark.parametrize("edit, detail", [
        (lambda p, d: _set(p["weights"][0][2], 3, float("nan")),
         "policy.weights[0] holds a non-finite value"),
        (lambda p, d: _set(p["weights"], 1, p["weights"][1][:-1]),
         "policy.weights[1] has shape (7, 5)"),
        (lambda p, d: _set(p["biases"], 0, p["biases"][0][:1]),
         "policy.biases[0] has shape (1,)"),
        (lambda p, d: _resize_output(p, 4),
         "policy.sizes [6, 8, 4] does not map 6 features to 5 actions"),
        (lambda p, d: _set(p, "log_std", p["log_std"][:3]),
         "policy.log_std has shape (3,)"),
        (lambda p, d: _set(p, "obs_mean", p["obs_mean"][:4]),
         "policy.obs_mean has shape (4,)"),
        (lambda p, d: _set(p["obs_scale"], 0, 0.0),
         "policy.obs_scale holds a non-positive value"),
        (lambda p, d: _set(p, "sizes", 5),
         "policy.sizes is not a list of integers"),
        (_zero_width, "policy.sizes [6, 0, 5] has a width below 1"),
        (lambda p, d: _set(p["sizes"], 1, -2),
         "policy.sizes [6, -2, 5] has a width below 1"),
        (lambda p, d: _set(d, "policy", []),
         "policy is not an object"),
        # Finite, but the actor gives +inf on every state, which the action
        # clip would turn into 1.0.
        (lambda p, d: (
            _set(p["biases"], -2, [1e3] * len(p["biases"][-2])),
            _set(p["weights"], -1,
                 [[1e308] * len(row) for row in p["weights"][-1]])),
         "the actor's output is not finite on this run's states"),
    ], ids=["nan-weight", "mis-chained-layer", "short-bias", "policy-width",
            "short-log_std", "short-obs_mean", "zero-obs_scale", "int-sizes",
            "zero-width", "negative-width", "list-policy", "infinite-output"])
    def test_corrupt_checkpoint_is_user_error(self, conf, tmp_path, capsys,
                                              command, edit, detail):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        edit_checkpoint(os.path.join(out, "checkpoint_final.json"), edit)
        capsys.readouterr()
        assert run(*command, "--config", conf, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"checkpoint_final.json: {detail}" in err


# The commands that read a checkpoint, by name.
CHECKPOINT_READERS = {"eval": ("eval",), "explain": ("explain", "--step", "3")}


def _outputs(conf, out, reader):
    """Every file but the checkpoint in ``out`` after ``reader`` ran
    there, by name; eval's trajectory.csv is removed first, so that eval
    must write it again."""
    if reader == "eval":
        os.remove(out / "trajectory.csv")
    assert run(*CHECKPOINT_READERS[reader], "--config", conf,
               "--out", str(out)) == 0
    return {f.name: f.read_bytes() for f in out.iterdir()
            if f.name != "checkpoint_final.json"}


@pytest.fixture(scope="module")
def pristine_outputs(pristine, tmp_path_factory):
    """What each reader writes from the checkpoint train wrote."""
    conf, src = pristine
    written = {}
    for reader in CHECKPOINT_READERS:
        out = tmp_path_factory.mktemp("untouched") / "out"
        shutil.copytree(src, out)
        written[reader] = _outputs(conf, out, reader)
    assert any(name.startswith("explain_") for name in written["explain"])
    return written


def _copy_and_edit(pristine, tmp_path, edit):
    """(config, dir): a copy of the pristine run, its checkpoint edited."""
    conf, src = pristine
    out = tmp_path / "out"
    shutil.copytree(src, out)
    edit_checkpoint(out / "checkpoint_final.json", edit)
    return conf, out


def _as_version_1(p, d):
    """The checkpoint in version 1's layout: each array as nested lists
    of decimal floats, as mgrl wrote before version 2."""
    _map_arrays(d, _lists)
    d["version"] = 1


# Version 1's lists took any numbers JSON can spell, strings and true
# included.
VERSION_1_EDITS = {
    "plain": _as_version_1,
    "strings-and-true": lambda p, d: (
        _as_version_1(p, d), _set(p, "log_std", list(map(str, p["log_std"]))),
        _set(p["biases"][0], 0, True)),
}


@pytest.mark.parametrize("command", [
    ("eval",), ("eval", "--stochastic", "--episodes", "2"),
    ("explain", "--step", "3")], ids=["eval", "stochastic", "explain"])
@pytest.mark.parametrize("edit", VERSION_1_EDITS.values(),
                         ids=VERSION_1_EDITS)
def test_version_1_checkpoint_is_refused(pristine, tmp_path, capsys, edit,
                                         command):
    """A version-1 checkpoint no longer loads: each reader refuses it in
    one line, naming the version, and writes nothing."""
    conf, src = pristine
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / "checkpoint_final.json"
    edit_checkpoint(path, edit, as_lists=False)
    if command[0] == "eval":  # a run that eval finished would write it
        os.remove(out / "trajectory.csv")
    before = _snapshot(out)
    capsys.readouterr()
    assert run(*command, "--config", conf, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: unsupported checkpoint version 1\n")
    assert _snapshot(out) == before


@pytest.mark.parametrize("reader", CHECKPOINT_READERS)
@pytest.mark.parametrize("edit", [
    lambda p, d: d.pop("value"),
    lambda p, d: _set(d, "value", None),
    lambda p, d: _resize_output(d["value"], 2),
    lambda p, d: _set(d["value"], "weights", 7),
], ids=["deleted", "null", "two-outputs", "int-weights"])
def test_critic_is_ignored(pristine, pristine_outputs, tmp_path, edit,
                           reader):
    """eval and explain read the actor alone: a checkpoint whose critic
    is missing, null or corrupt gives each the same files byte for byte
    as the file train wrote."""
    conf, out = _copy_and_edit(pristine, tmp_path, edit)
    assert _outputs(conf, out, reader) == pristine_outputs[reader]


# The command that writes each input file into the output directory.
WRITERS = {"scenario.csv": "scenario", "checkpoint_final.json": "train",
           "trajectory.csv": "eval", "metrics.csv": "train"}


def _snapshot(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


class TestMissingInput:
    """A command refuses its missing inputs in one line, each path named
    with the command that writes it, and writes nothing."""

    def refuse(self, capsys, out, *argv):
        before = _snapshot(out)
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 1
        assert _snapshot(out) == before
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    @staticmethod
    def named(out, *files):
        return "error: input not found: " + ", ".join(
            f"{out / name} (written by 'mgrl {WRITERS[name]}')"
            for name in files) + "\n"

    @pytest.mark.parametrize("command, missing", [
        (("train",), "scenario.csv"),
        (("eval",), "checkpoint_final.json"),
        (("eval",), "scenario.csv"),
        (("explain", "--step", "1"), "checkpoint_final.json"),
        (("explain", "--step", "1"), "trajectory.csv"),
        (("report",), "metrics.csv"),
        (("report",), "trajectory.csv"),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else v)
    def test_one_missing_input(self, pristine, tmp_path, capsys, command,
                               missing):
        conf, src = pristine
        out = tmp_path / "out"
        shutil.copytree(src, out)
        os.remove(out / missing)
        err = self.refuse(capsys, out, *command, "--config", conf)
        assert err == self.named(out, missing)

    def test_eval_in_an_empty_out_names_both_inputs(self, conf, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        out.mkdir()
        err = self.refuse(capsys, out, "eval", "--config", conf)
        assert err == self.named(out, "checkpoint_final.json",
                                 "scenario.csv")

    def test_report_after_scenario_names_both_inputs(self, conf, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        run_pipeline(conf, str(out), through="scenario")
        err = self.refuse(capsys, out, "report", "--config", conf)
        assert err == self.named(out, "metrics.csv", "trajectory.csv")

    @pytest.mark.parametrize("command, flag", [
        (("train",), "--scenario"),
        (("eval",), "--scenario"),
        (("eval",), "--checkpoint"),
        (("explain", "--step", "1"), "--checkpoint"),
        (("explain", "--step", "1"), "--trajectory"),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else v.lstrip("-"))
    def test_empty_flag_is_refused(self, pristine, tmp_path, capsys,
                                   command, flag):
        """The flag is refused, not read as absent: the default file the
        output directory holds is not used in its place."""
        conf, src = pristine
        out = tmp_path / "out"
        shutil.copytree(src, out)
        err = self.refuse(capsys, out, *command, "--config", conf, flag, "")
        assert err == f"error: {flag} must not be empty\n"


def _out_under_file(conf, tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    return ["scenario", "--config", conf, "--out", str(out)], out


def _input_is_dir(command, flag):
    def setup(conf, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(conf, out)
        (tmp_path / "a_dir").mkdir()
        return [*command, "--config", conf, "--out", out,
                flag, str(tmp_path / "a_dir")], tmp_path / "a_dir"
    return setup


def _trajectory_is_dir(conf, tmp_path):
    out = tmp_path / "out"
    run_pipeline(conf, str(out), through="train")
    (out / "trajectory.csv").mkdir()
    return ["eval", "--config", conf, "--out", str(out)], \
        out / "trajectory.csv"


def _bad_byte(name, command, through):
    """A 0xff byte, never valid UTF-8, in the middle of an input file; the
    file named ``run.conf`` is the config itself."""
    def setup(conf, tmp_path):
        out = tmp_path / "out"
        run_pipeline(conf, str(out), through=through)
        path = tmp_path / name if name == "run.conf" else out / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff"
                         + data[len(data) // 2 + 1:])
        return [*command, "--config", conf, "--out", str(out)], path
    return setup


class TestUnreadableOrUnwritablePath:
    """A path that cannot be read, decoded or written is bad input: exit 1
    with a message naming it, and no temp file left behind."""

    @pytest.mark.parametrize("setup", [
        _out_under_file,
        _input_is_dir(("train",), "--scenario"),
        _input_is_dir(("eval",), "--checkpoint"),
        _input_is_dir(("explain", "--step", "1"), "--trajectory"),
        _trajectory_is_dir,
        _bad_byte("scenario.csv", ("train",), "scenario"),
        _bad_byte("run.conf", ("config",), "scenario"),
        _bad_byte("checkpoint_final.json", ("eval",), "train"),
    ], ids=["out-under-file", "scenario-is-dir", "checkpoint-is-dir",
            "trajectory-is-dir", "trajectory-out-is-dir", "scenario-0xff",
            "config-0xff", "checkpoint-0xff"])
    def test_exits_1_naming_the_path(self, conf, tmp_path, capsys, setup):
        argv, path = setup(conf, tmp_path)
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: {path}" in err and ": cannot " in err
        assert "Traceback" not in err
        assert not [f for _, _, files in os.walk(tmp_path) for f in files
                    if f.endswith(".tmp")]


FUZZ_ROW = 2  # the tiny config's metrics.csv has two data rows
# The commands that read each artifact, and the column a cell edit hits.
FUZZ_READERS = {"scenario.csv": [("train",), ("eval",)],
                "trajectory.csv": [("explain", "--step", "1"), ("report",)],
                "metrics.csv": [("report",)],
                "checkpoint_final.json": [("eval",),
                                          ("explain", "--step", "1")]}
FUZZ_CELL = {"scenario.csv": 1, "trajectory.csv": 6, "metrics.csv": 3}
CSV_MUTATIONS = ("truncated-mid-row", "dropped-row", "duplicated-row",
                 "nan-cell", "negative-cell", "wrong-header", "extra-cell")
CHECKPOINT_EDITS = {
    "dropped-row": lambda p, d: p["weights"][0].pop(),
    "duplicated-row": lambda p, d: p["weights"][0].append(
        p["weights"][0][0]),
    "nan-cell": lambda p, d: _set(p["weights"][0][2], 3, float("nan")),
    "negative-cell": lambda p, d: _set(p["obs_scale"], 1, -1.0),
    "wrong-header": lambda p, d: _set(d, "format", "csv"),
    "transposed-weights": lambda p, d: _set(
        p["weights"], 0, [list(c) for c in zip(*p["weights"][0])]),
    "swapped-sizes": lambda p, d: _set(p, "sizes", p["sizes"][::-1]),
    # Finite, but the actor's normalized inputs overflow and 0 * inf is NaN.
    "tiny-obs-scale": lambda p, d: _set(p, "obs_scale", [1e-308] * 6),
}
# Edits of the version-2 form itself, made on the file's JSON, and the
# field each refusal names.
CHECKPOINT_V2_EDITS = {
    "non-base64-data": (lambda p, d: _set(
        p["weights"][0], "data", "*" + p["weights"][0]["data"][1:]),
        "policy.weights[0].data"),
    "data-one-value-short": (lambda p, d: _set(
        p["weights"][0], "data", base64.b64encode(base64.b64decode(
            p["weights"][0]["data"])[:-8]).decode()),
        "policy.weights[0].data"),
    "shape-off-sizes": (lambda p, d: _set(
        p["weights"][0], "shape", p["weights"][0]["shape"][::-1]),
        "policy.weights[0]"),
    "list-in-v2": (lambda p, d: _set(
        p["weights"], 0, _lists(p["weights"][0])), "policy.weights[0]"),
}
# Checkpoint texts that json.dumps cannot write, so each is raw text: an
# array nested past the recursion limit, and an integer literal past
# Python's 4,300-digit conversion limit.
CHECKPOINT_TEXTS = {"deep-nesting": "[" * 200_000 + "]" * 200_000,
                    "huge-integer": '{"format": ' + "1" * 5_000 + "}"}
# Edits the metrics layout allows: dropping the last row leaves updates
# 0..n-1, and losses may be negative or NaN.
FUZZ_ACCEPTED = {("metrics.csv", m) for m in
                 ("dropped-row", "nan-cell", "negative-cell")}


def mutate_csv(text, mutation, col, n=FUZZ_ROW):
    """``text`` of a CSV artifact with its data row n or header mutated."""
    lines = text.splitlines(keepends=True)
    if mutation == "truncated-mid-row":
        return "".join(lines[:n]) + lines[n][:lines[n].index(",") + 2]
    if mutation == "dropped-row":
        del lines[n]
    elif mutation == "duplicated-row":
        lines.insert(n, lines[n])
    elif mutation == "extra-cell":
        lines[n] = lines[n].replace("\n", ",0\n")
    else:
        row, j, cell = {"nan-cell": (n, col, "nan"),
                        "negative-cell": (n, col, "-1.5"),
                        "wrong-header": (0, 1, "x")}[mutation]
        fields = lines[row].rstrip("\n").split(",")
        fields[j] = cell
        lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


def _fuzz_cases():
    for artifact, commands in FUZZ_READERS.items():
        mutations = (CSV_MUTATIONS if artifact.endswith(".csv") else
                     ("truncated-mid-row", *CHECKPOINT_EDITS,
                      *CHECKPOINT_V2_EDITS, *CHECKPOINT_TEXTS))
        for mutation in mutations:
            for command in commands:
                yield pytest.param(artifact, mutation, command,
                                   id=f"{artifact}-{mutation}-{command[0]}")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """(config, output dir) after scenario, train and eval of the tiny
    config, made once for every mutation."""
    root = tmp_path_factory.mktemp("pristine")
    conf = root / "run.conf"
    conf.write_text(TINY_CONF)
    run_pipeline(str(conf), str(root / "out"))
    return str(conf), root / "out"


@pytest.mark.parametrize("artifact, mutation, command", _fuzz_cases())
def test_mutated_artifact_never_crashes(pristine, tmp_path, capsys, artifact,
                                        mutation, command):
    """One mutated artifact, one command that reads it: exit 1 naming the
    file where its layout forbids the mutation, exit 0 where it allows
    it, and never exit 2."""
    conf, src = pristine
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / artifact
    if artifact.endswith(".csv"):
        path.write_text(mutate_csv(path.read_text(), mutation,
                                   FUZZ_CELL[artifact]))
    elif mutation == "truncated-mid-row":
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
    elif mutation in CHECKPOINT_TEXTS:
        path.write_text(CHECKPOINT_TEXTS[mutation])
    elif mutation in CHECKPOINT_V2_EDITS:
        edit_checkpoint(path, CHECKPOINT_V2_EDITS[mutation][0],
                        as_lists=False)
    else:
        edit_checkpoint(path, CHECKPOINT_EDITS[mutation])
    capsys.readouterr()
    code = run(*command, "--config", conf, "--out", str(out))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if (artifact, mutation) in FUZZ_ACCEPTED:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1
        if mutation in CHECKPOINT_V2_EDITS:
            field = CHECKPOINT_V2_EDITS[mutation][1]
            assert err.startswith(f"error: {path}: {field} ")


# Mutations of the tiny config: (file bytes from its text, the key a
# refusing error names, or None where it is the file's layout or encoding).
CONFIG_MUTATIONS = {
    "truncated-line": (lambda t: t[:t.index("12, 18") + 3].encode(),
                       "scenario.cyclone_window"),
    "no-equals": (lambda t: (t + "ppo.total_updates 2\n").encode(), None),
    "unknown-key": (lambda t: (t + "ppo.nosuchfield = 1\n").encode(),
                    "ppo.nosuchfield"),
    "float-for-int": (lambda t: (t + "ppo.total_updates = 1.5\n").encode(),
                      "ppo.total_updates"),
    "nan-float": (lambda t: (t + "explain.kernel_sigma = nan\n").encode(),
                  "explain.kernel_sigma"),
    "inf-float": (lambda t: (t + "env.e_max_kwh = inf\n").encode(),
                  "env.e_max_kwh"),
    "two-reward-weights": (
        lambda t: (t + "env.reward_weights = 1, 2\n").encode(),
        "env.reward_weights"),
    "bom": (lambda t: t.encode("utf-8-sig"), None),
    "non-utf8-byte": (lambda t: t.encode() + b"# caf\xe9\n", None),
    "run-id-comma-quote": (
        lambda t: (t + 'run.run_id = storm,"v2"\n').encode(), "run.run_id"),
    "crlf": (lambda t: t.replace("\n", "\r\n").encode(), None),
    "overflowing-cloud": (
        lambda t: (t + "explain.perturb_scale = 1e200\n").encode(), None),
    "infinite-cloud": (
        lambda t: (t + "explain.perturb_scale = 1e308\n").encode(), None),
}
# Mutations every command reads as the tiny config; the cloud settings load
# too and only the explanation refuses them.
CONFIG_ACCEPTED = {"bom", "crlf", "overflowing-cloud", "infinite-cloud"}
CONFIG_COMMANDS = [("scenario",), ("train",), ("eval",),
                   ("explain", "--step", "3"), ("report",), ("config",)]


@pytest.mark.parametrize("command", CONFIG_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("mutation", CONFIG_MUTATIONS)
def test_mutated_config_never_crashes(pristine, tmp_path, capsys, mutation,
                                      command):
    """One mutated copy of a valid config, one command: exit 1 naming the
    file (and the key, where one is at fault), exit 0 where the config
    still reads as the tiny one, and never exit 2.  An explanation cloud
    whose distances overflow exits 1 naming both settings behind it, and
    one that is itself infinite exits 1 naming perturb_scale."""
    _, src = pristine
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = tmp_path / "run.conf"
    mutate, key = CONFIG_MUTATIONS[mutation]
    path.write_bytes(mutate(TINY_CONF))
    capsys.readouterr()
    code = run(*command, "--config", str(path), "--out", str(out))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if mutation == "overflowing-cloud" and command[0] == "explain":
        assert code == 1
        assert re.match(r"error: surrogate system is not finite: .*"
                        r"perturb_scale.*kernel_sigma", err)
    elif mutation == "infinite-cloud" and command[0] == "explain":
        assert code == 1
        assert re.fullmatch(r"error: perturbation cloud is not finite: "
                            r"perturb_scale [^\n]*\n", err)
    elif mutation in CONFIG_ACCEPTED:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err.startswith(f"error: {path}")
        assert key is None or key in err


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
