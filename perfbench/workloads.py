"""The benchmark's workloads: two PPO training shapes and a CLI explain loop.

Each workload is a closed loop with a single caller: the next update or
command starts only after the previous one has returned.  ``mgrl`` is
driven only through its public entry points (``ppo.train``,
``ppo.evaluate_policy``, ``neural.save_checkpoint``, ``cli.main``, and the
scenario and metrics writers for set-up), always looked up as module
attributes at call time so that the tracer's hooks see the calls.

Why these workloads:

* ``train-default`` runs the shipped ``PpoConfig``: 8 envs x 256 steps per
  update, then 10 epochs x 8 minibatches.  Most of an update is the
  minibatch loss/gradient/Adam path, so a leaner update shows here.
* ``train-wide`` runs 64 envs x 32 steps and one full-batch epoch.  Most
  of an update is rollout collection (per-step env Python), so an env
  core change shows here and an update-path change should not.
* ``cli-explain`` trains nothing in its timed loop: ``mgrl eval``, then
  ``mgrl explain`` at a fixed stride of hours (calm and storm), then
  ``mgrl report``.  It exercises the explainer, single-row forwards, the
  env at N = 1 and every artifact reader and writer.
"""

import csv
import hashlib
import io
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, fields, replace
from time import perf_counter

import numpy as np

from mgrl import cli, metrics, neural, ppo, scenario
from mgrl.env import EnvConfig

import calibrate

# Updates per ppo.train() call.  Calls repeat until the deadline; the
# first one always finishes so the quality guard has a trained policy.
UPDATES_PER_CALL = {"train-default": 25, "train-wide": 60}
# Seconds between the deterministic evaluations of the current policy
# that a guarded run makes between updates (outside the update timing),
# so the eval latency samples the whole run rather than one moment.
EVAL_INTERVAL_S = 0.5
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = {"train-default": 10, "train-wide": 10, "cli-explain": 5}
# Short training that produces the checkpoint cli-explain explains.
CHECKPOINT_UPDATES = 4
# Explained hours: a fixed stride over the 720-hour default horizon; seven
# calm hours and hour 405, in the cut-out half of the default storm window
# [360, 408).  Eight hours keep an iteration short enough that a run has
# about 60 evals and reports to take their medians over.
EXPLAIN_STEPS = tuple(range(45, 720, 90))
EXPLAIN_DIMS = ("charge", "discharge")
SETUP_FILES = ("scenario.csv", "checkpoint_final.json", "metrics.csv")
REPORT_FILES = ("report.txt", "report.csv", "soc_trace.svg", "supply.svg",
                "reward_curve.svg")
# TrainStats fields hashed into the fingerprint, and the two that are
# NaN until the first episode of a train() call has finished.
STATS_FIELDS = ("update", "mean_reward_norm", "ri", "policy_loss",
                "value_loss", "entropy", "clip_frac")
NAN_BEFORE_EPISODE = ("mean_reward_norm", "ri")
FIDELITY_RE = re.compile(r"local fidelity \(weighted R\^2\): (\S+)")
MAX_ERRORS_KEPT = 20


@dataclass
class Recorder:
    """What one phase of a workload measured and checked."""

    ops: list[float] = field(default_factory=list)    # primary op, s
    final: list[float] = field(default_factory=list)  # closing call, s
    n_ops: int = 0        # updates or CLI commands run in this phase
    steps: int = 0        # env steps ...
    steps_s: float = 0.0  # ... and the time they took
    quality: float = math.nan
    quality_n: int = 0    # evaluations or explanations behind quality
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)  # name -> (value, unit, n)
    ref: list[float] = field(default_factory=list)  # reference kernel, s

    def calibrate(self) -> None:
        """Time the reference kernel once; call it after every op."""
        self.ref.append(calibrate.reference_kernel())

    def check(self, problem: str | None) -> None:
        """Count one attempted operation; ``problem`` marks it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(problem)


def make_scenario(seed: int, workdir: str):
    """Default storm scenario for ``seed``, written to CSV and read back."""
    scn = scenario.synth_cyclone_scenario(
        scenario.ScenarioConfig(rng_seed=seed))
    path = os.path.join(workdir, "scenario.csv")
    scenario.write_scenario_csv(scn, path)
    loaded = scenario.load_scenario_csv(path)
    if not (np.array_equal(loaded.p_re, scn.p_re)
            and np.array_equal(loaded.loads, scn.loads)):
        raise RuntimeError(f"{path} does not read back as written")
    return loaded


def trajectory_problem(soc, reward, env_cfg: EnvConfig) -> str | None:
    soc = np.asarray(soc, dtype=np.float64)
    reward = np.asarray(reward, dtype=np.float64)
    if soc.size == 0 or soc.shape != reward.shape:
        return f"trajectory shapes soc {soc.shape}, reward {reward.shape}"
    if not np.all((soc >= env_cfg.soc_min) & (soc <= env_cfg.soc_max)):
        return (f"SOC leaves [{env_cfg.soc_min}, {env_cfg.soc_max}]: "
                f"min {soc.min()!r}, max {soc.max()!r}")
    if not np.all((reward >= 0.0) & (reward <= 1.0)):
        return (f"reward leaves [0, 1]: min {reward.min()!r}, "
                f"max {reward.max()!r}")
    return None


def stats_problem(st, episode_seen: bool) -> str | None:
    """Non-finite TrainStats field, allowing the documented early NaNs."""
    for f in fields(st):
        v = getattr(st, f.name)
        if not isinstance(v, (int, float)) or math.isfinite(v):
            continue
        if f.name in NAN_BEFORE_EPISODE and math.isnan(v) and not episode_seen:
            continue
        return f"update {st.update}: {f.name} = {v!r}"
    return None


# ---------------------------------------------------------------------------
# train-default / train-wide


class _Deadline(Exception):
    """Raised from the update callback to end a train() call early."""


class TrainWorkload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.env_cfg = EnvConfig()
        cfg = replace(ppo.PpoConfig(), seed=seed,
                      total_updates=UPDATES_PER_CALL[name])
        if name == "train-wide":
            cfg = replace(cfg, n_envs=64, rollout_steps=2048,
                          epochs_per_update=1, minibatch_size=2048)
        self.cfg = cfg
        self.scn = None
        self.policy = None

    def setup(self) -> None:
        self.scn = make_scenario(self.seed, self.workdir)

    def run(self, deadline: float, rec: Recorder, guard: bool = True) -> None:
        """Repeat ppo.train() until the deadline; each update is one op.

        With ``guard`` the workload's first call runs to completion however
        slow the updates are, so the quality guard has a trained policy,
        and the current policy is evaluated every EVAL_INTERVAL_S.
        """
        next_eval = perf_counter() + EVAL_INTERVAL_S
        while True:
            digest = hashlib.sha256()
            episode_seen = False
            last = perf_counter()

            def on_update(update, policy, value, st):
                nonlocal last, episode_seen, next_eval
                now = perf_counter()
                rec.ops.append(now - last)
                rec.n_ops += 1
                rec.steps += self.cfg.rollout_steps
                rec.steps_s += now - last
                rec.check(stats_problem(st, episode_seen))
                episode_seen = episode_seen or math.isfinite(st.ri)
                digest.update(repr(tuple(getattr(st, k, None)
                                         for k in STATS_FIELDS)).encode())
                if now >= deadline and (self.policy is not None or not guard):
                    raise _Deadline
                if guard and now >= next_eval:
                    self._evaluate(policy, rec)
                    next_eval = perf_counter() + EVAL_INTERVAL_S
                rec.calibrate()
                last = perf_counter()

            try:
                result = ppo.train(self.cfg, self.env_cfg, self.scn,
                                   checkpoint_fn=on_update)
            except _Deadline:
                return
            except Exception as exc:  # a failed update, not a failed run
                rec.check(f"ppo.train raised {exc!r}")
            else:
                rec.fingerprints.append(digest.hexdigest())
                if self.policy is None:
                    self.policy = result.policy
            if perf_counter() >= deadline:
                return

    def _evaluate(self, policy, rec: Recorder) -> float | None:
        """One timed deterministic evaluation: its RI, or None if it failed."""
        t = perf_counter()
        try:
            res = ppo.evaluate_policy(policy, self.env_cfg, self.scn,
                                      n_episodes=1, deterministic=True,
                                      seed=self.seed)
        except Exception as exc:
            rec.check(f"ppo.evaluate_policy raised {exc!r}")
            return None
        rec.final.append(perf_counter() - t)
        problem = trajectory_problem(res.trajectory.soc, res.trajectory.reward,
                                     self.env_cfg)
        rec.check(problem)
        return res.ri if problem is None else None

    def close(self, rec: Recorder) -> None:
        """Quality guard: eval RI of the trained over the untrained policy.

        The untrained policy (ppo.train with zero updates) scores how hard
        the seed's scenario is, which moves the RI far more than training
        seeds do; the ratio is what training gained.
        """
        if self.policy is None:
            rec.check("no train() call finished, nothing to evaluate")
            return
        untrained = ppo.train(replace(self.cfg, total_updates=0),
                              self.env_cfg, self.scn).policy
        base = self._evaluate(untrained, rec)
        ri = self._evaluate(self.policy, rec)
        again = self._evaluate(self.policy, rec)
        if ri != again:
            rec.check(f"eval RI differs between repeats: {ri!r} {again!r}")
        elif ri is not None and base is not None:
            rec.quality = ri / base
            rec.quality_n = 2
            rec.info["train.ri"] = (ri, "1", 2)
            rec.info["train.ri_untrained"] = (base, "1", 1)


# ---------------------------------------------------------------------------
# cli-explain


class CliWorkload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.env_cfg = EnvConfig()
        self.common = ["--out", workdir, "--seed", str(seed)]

    def setup(self) -> None:
        scn = make_scenario(self.seed, self.workdir)
        cfg = replace(ppo.PpoConfig(), seed=self.seed,
                      total_updates=CHECKPOINT_UPDATES, epochs_per_update=1)
        res = ppo.train(cfg, self.env_cfg, scn)
        neural.save_checkpoint(res.policy, res.value, os.path.join(
            self.workdir, "checkpoint_final.json"))
        metrics.write_train_metrics_csv(res.stats, os.path.join(
            self.workdir, "metrics.csv"))

    def _reset_dir(self) -> None:
        # Each iteration starts from the set-up files only: `mgrl report`
        # globs explain_*.svg, so leftovers would make it grow.
        for name in os.listdir(self.workdir):
            if name not in SETUP_FILES:
                os.remove(os.path.join(self.workdir, name))

    def _cli(self, rec: Recorder, *argv: str) -> tuple[float, str | None]:
        """One in-process `mgrl` command: (seconds, problem or None)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t = perf_counter()
            try:
                code = cli.main([*argv, *self.common])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:
                code = repr(exc)
            dt = perf_counter() - t
        rec.n_ops += 1
        rec.calibrate()
        if code != 0:
            return dt, (f"mgrl {' '.join(argv)} exited {code!r}: "
                        f"{err.getvalue().strip()[-300:]}")
        return dt, None

    def _missing(self, names) -> str | None:
        gone = [n for n in names
                if not os.path.isfile(os.path.join(self.workdir, n))
                or os.path.getsize(os.path.join(self.workdir, n)) == 0]
        return f"missing or empty artifacts {gone}" if gone else None

    def _eval(self, rec: Recorder) -> None:
        dt, problem = self._cli(rec, "eval")
        problem = problem or self._missing(["trajectory.csv"])
        if problem is None:
            try:
                with open(os.path.join(self.workdir, "trajectory.csv"),
                          newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                soc = [float(r["soc"]) for r in rows]
                reward = [float(r["reward"]) for r in rows]
            except (OSError, KeyError, ValueError) as exc:
                problem = f"trajectory.csv unreadable: {exc!r}"
            else:
                problem = trajectory_problem(soc, reward, self.env_cfg)
                rec.steps += len(rows)
                rec.steps_s += dt
        rec.check(problem)

    def _explain(self, rec: Recorder, t: int, digest,
                 fidelities: list[float]) -> None:
        dt, problem = self._cli(rec, "explain", "--step", str(t))
        bases = [f"explain_step{t:04d}_{dim}" for dim in EXPLAIN_DIMS]
        problem = problem or self._missing(
            [b + ext for b in bases for ext in (".svg", ".csv", ".txt")])
        for base in bases if problem is None else ():
            path = os.path.join(self.workdir, base)
            try:
                with open(path + ".csv", newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))[1:]
                coefs = [float(r[1]) for r in rows]
                with open(path + ".txt", encoding="utf-8") as fh:
                    fidelity = float(FIDELITY_RE.search(fh.read()).group(1))
            except (OSError, IndexError, AttributeError, ValueError) as exc:
                problem = f"{base}: unreadable explanation: {exc!r}"
                break
            if not (math.isfinite(fidelity)
                    and all(math.isfinite(c) for c in coefs)):
                problem = f"{base}: non-finite fidelity or coefficients"
                break
            fidelities.append(fidelity)
            digest.update(f"{base}:{[(r[0], r[1]) for r in rows]}".encode())
        rec.ops.append(dt)
        rec.check(problem)

    def _report(self, rec: Recorder) -> None:
        dt, problem = self._cli(rec, "report")
        rec.final.append(dt)
        rec.check(problem or self._missing(REPORT_FILES))

    def run(self, deadline: float, rec: Recorder, guard: bool = True) -> None:
        """eval, explain at every EXPLAIN_STEPS hour, report; repeat.

        Iterations are whole and the first always runs, with or without
        ``guard``; each CLI command is one op.
        """
        while True:
            self._reset_dir()
            digest = hashlib.sha256()
            fidelities: list[float] = []
            self._eval(rec)
            for t in EXPLAIN_STEPS:
                self._explain(rec, t, digest, fidelities)
            self._report(rec)
            rec.fingerprints.append(digest.hexdigest())
            if fidelities and not rec.quality_n:
                rec.quality = sum(fidelities) / len(fidelities)
                rec.quality_n = len(fidelities)
            if perf_counter() >= deadline:
                return

    def close(self, rec: Recorder) -> None:
        pass


def make_workload(name: str, seed: int, workdir: str):
    cls = CliWorkload if name == "cli-explain" else TrainWorkload
    return cls(name, seed, workdir)
