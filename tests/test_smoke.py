"""The console smoke: the ``mgrl`` chain on a 48-hour storm, its refusals,
and its bytes across processes.

The in-process tests call ``cli.main`` on the smoke config.  The module
entry tests, the cross-process test and the single-thread rerun of the
bit-pinning modules start Python with only ``src`` on its path, so they
need no install.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mgrl import __version__
from mgrl.cli import main
from mgrl.config import config_summary, load_run_config

from test_cli import corrupt

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The smoke config, which the installed-script smoke in CI runs too.
SMOKE_PATH = ROOT / "tests" / "smoke.conf"
SMOKE_CONF = SMOKE_PATH.read_text()
# The chain of the installed-script smoke, in one output directory.
CHAIN = ("scenario", "train", "eval", "eval --stochastic --episodes 2",
         "explain --step 3", "report")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(config, output dir) after the smoke chain, made once; tests that
    write give their own ``--out``."""
    out = tmp_path_factory.mktemp("smoke") / "out"
    for cmd in CHAIN:
        assert run(*cmd.split(), "--config", SMOKE_PATH, "--out", out) == 0
    return SMOKE_PATH, out


def test_report_rewrites_its_files_unchanged(smoke, tmp_path):
    conf, src = smoke
    out = tmp_path / "out"
    shutil.copytree(src, out)
    names = ("soc_trace.svg", "supply.svg", "reward_curve.svg", "report.csv",
             "report.txt")
    first = {name: (out / name).read_bytes() for name in names}
    assert run("report", "--config", conf, "--out", out) == 0
    assert {name: (out / name).read_bytes() for name in names} == first


def test_no_chart_draws_nan(smoke):
    _, out = smoke
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 5  # three report charts, two explanations
    for svg in svgs:
        assert not re.search(r"\bnan\b", svg.read_text()), svg.name


@pytest.mark.parametrize("flags", [(), ("--stochastic",)],
                         ids=["deterministic", "stochastic"])
def test_episode_0_does_not_depend_on_the_episodes_after_it(smoke, tmp_path,
                                                            flags):
    conf, src = smoke
    written = []
    for n in (1, 3):
        out = tmp_path / str(n)
        assert run("eval", *flags, "--episodes", n, "--config", conf,
                   "--out", out, "--scenario", src / "scenario.csv",
                   "--checkpoint", src / "checkpoint_final.json") == 0
        written.append((out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]


def test_hour_without_load_pays_exactly_one(smoke, tmp_path):
    """Hour 4's three loads are zeroed; two evals of that scenario write
    one trajectory, whose hour-4 reward is written as 1.0."""
    conf, src = smoke
    scenario = tmp_path / "zero-load.csv"
    shutil.copy(src / "scenario.csv", scenario)
    corrupt(scenario, lambda f: [*f[:2], "0.0", "0.0", "0.0"], n=5)
    written = []
    for run_id in "ab":
        out = tmp_path / run_id
        assert run("eval", "--config", conf, "--out", out, "--scenario",
                   scenario, "--checkpoint",
                   src / "checkpoint_final.json") == 0
        written.append((out / "trajectory.csv").read_text())
    assert written[0] == written[1]
    hour_4 = written[0].splitlines()[5].split(",")
    assert (hour_4[0], hour_4[-1]) == ("4", "1.0")


def test_config_with_byte_order_mark_prints_as_the_plain_one(smoke, tmp_path,
                                                             capsys):
    conf, _ = smoke
    bom = tmp_path / "bom.conf"
    bom.write_bytes(b"\xef\xbb\xbf" + conf.read_bytes())
    printed = []
    for path in (conf, bom):
        capsys.readouterr()
        assert run("config", "--config", path) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


class TestRefusedWithOneLine:
    """Each refusal exits 1 with one stderr line."""

    def refuse(self, capsys, *argv):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_overflowing_explanation_cloud(self, smoke, tmp_path, capsys):
        """Distances that overflow leave a non-finite surrogate system: a
        refused fit, with no NumPy warning first."""
        _, src = smoke
        conf = tmp_path / "cloud.conf"
        conf.write_text(SMOKE_CONF + "explain.perturb_scale = 1e200\n")
        err = self.refuse(capsys, "explain", "--step", 3, "--config", conf,
                          "--out", tmp_path / "out", "--checkpoint",
                          src / "checkpoint_final.json", "--trajectory",
                          src / "trajectory.csv")
        assert err.startswith("error: surrogate system is not finite: ")
        assert not (tmp_path / "out").exists()

    def test_section_rule(self, tmp_path, capsys):
        """A config is checked when it is made: the line names the section
        and the rule."""
        conf = tmp_path / "gamma.conf"
        conf.write_text("ppo.gamma = 2\n")
        err = self.refuse(capsys, "config", "--config", conf)
        assert f"{conf}: ppo: gamma must lie in [0, 1]" in err

    def test_out_with_surrounding_whitespace(self, capsys):
        """The printed config would not read such a string back."""
        err = self.refuse(capsys, "config", "--out", " x")
        assert err.startswith("error: run.output_dir must not contain")


def _python(*argv, cwd=None, env=()):
    """Run this interpreter with ``src`` as its only PYTHONPATH entry."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **dict(env)}, timeout=300)


class TestModuleEntry:
    def test_version(self):
        proc = _python("-m", "mgrl", "--version")
        assert (proc.returncode, proc.stdout) == (0, f"mgrl {__version__}\n")

    def test_unknown_command_is_a_usage_error(self):
        proc = _python("-m", "mgrl", "nosuch")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: mgrl ")


# The smoke config and its variants, each its overrides appended (a later
# line overrides an earlier one).
CONFIGS = {
    "smoke.conf": "",
    # Above the actor's row block, so the cloud's forward runs in blocks.
    "big.conf": "explain.n_samples = 2500\n",
    # One minibatch: the actor and critic take turns in one set of layer
    # buffers.
    "wide.conf": "ppo.minibatch_size = 64\n",
    # Off BLAS's 4-row grouping, and an episode that ends inside a
    # rollout, whose allocation then runs in two segments.
    "odd.conf": "ppo.n_envs = 3\nppo.rollout_steps = 60\n",
    # One env: every hour's actor and critic rows take NumPy's 1-row path.
    "one.conf": "ppo.n_envs = 1\n",
}
SCENARIO = ("--scenario", "base/scenario.csv")
CHECKPOINT = ("--checkpoint", "base/checkpoint_final.json")
# Every command of the cross-process chain, on paths relative to its
# working directory, so the two sides print the same text too.
CROSS_CHAIN = [
    *[[*cmd.split(), "--config", "smoke.conf", "--out", "base"]
      for cmd in CHAIN],
    ["eval", "--config", "smoke.conf", "--out", "det", *SCENARIO,
     *CHECKPOINT],
    ["explain", "--step", "3", "--config", "big.conf", "--out", "big",
     *CHECKPOINT, "--trajectory", "base/trajectory.csv"],
    *[[cmd, "--config", f"{shape}.conf", "--out", shape, *SCENARIO]
      for shape in ("wide", "odd", "one") for cmd in ("train", "eval")],
]
CROSS_RUNNER = """\
import json, sys
from mgrl.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""
# The two sides differ in BLAS thread count and in hash seed.
SIDES = {"a": {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
         "b": {"OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "1"}}


def test_chain_is_byte_identical_across_processes(tmp_path):
    """Two processes run the whole chain: the four training shapes,
    deterministic and 2-episode stochastic eval, explain at 200 and at
    2,500 samples, and report.  Every file and the printed text match
    byte for byte."""
    files, printed = {}, {}
    for side, env in SIDES.items():
        cwd = tmp_path / side
        cwd.mkdir()
        for name, overrides in CONFIGS.items():
            (cwd / name).write_text(SMOKE_CONF + overrides)
            summary = config_summary(load_run_config(cwd / name))
            assert all(line in summary for line in
                       overrides.splitlines(keepends=True)), name
        proc = _python("-c", CROSS_RUNNER, json.dumps(CROSS_CHAIN), cwd=cwd,
                       env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), side
        printed[side] = proc.stdout
        files[side] = {path.relative_to(cwd): path.read_bytes()
                       for path in sorted(cwd.rglob("*")) if path.is_file()}
    for explained in ("base", "big"):
        assert len([name for name in files["a"] if name.parent.name ==
                    explained and name.name.startswith("explain_")]) == 6
    assert files["a"].keys() == files["b"].keys()
    for name, data in files["a"].items():
        assert data == files["b"][name], name
    assert printed["a"] == printed["b"]


def test_pinned_bits_hold_on_single_threaded_blas():
    """The modules that pin the networks', the update's and the
    explainer's bits pass in a process whose BLAS runs one thread, as
    the suite itself runs at the host's default thread count."""
    proc = _python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "tests/test_ppo.py", "tests/test_neural.py",
                   "tests/test_explain.py", cwd=ROOT,
                   env={"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stdout[-4000:]
