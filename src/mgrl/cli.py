"""Command-line driver: scenario -> train -> eval -> explain -> report.

Every command reads one optional config file (``--config``), honors a
master seed (``--seed``) and writes its artifacts into an output
directory (``--out``, default from config).  Exit codes: 0 success,
1 user error (bad input, missing file), 2 internal error or a command
line that argparse refuses (unknown command, bad ``--mode`` choice).
"""

import argparse
import contextlib
import functools
import glob
import json
import math
import os
import sys
import traceback

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_summary, load_run_config
from .env import NonFiniteActionError, summarize_episode
from .explain import SurrogateFitError, explain_step, render_explanation
from .metrics import (
    annualize_throughput,
    battery_throughput,
    estimate_battery_life,
    read_train_metrics_csv,
    reward_curve_summary,
    write_train_metrics_csv,
)
from .neural import CheckpointError, load_checkpoint, save_checkpoint
from .ppo import TrainingDivergedError, evaluate_policy, train
from .scenario import (STEP_HOURS, load_scenario_csv, synth_cyclone_scenario,
                       write_scenario_csv)
from .seeding import derive_seed
from .svg import line_chart
from .table import TableError, make_dir, write_text
from .trajectory import MODES, read_trajectory_csv, write_trajectory_csv

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL_ERROR = 2

SCENARIO_FILE = "scenario.csv"
METRICS_FILE = "metrics.csv"
CHECKPOINT_FINAL = "checkpoint_final.json"
TRAJECTORY_FILE = "trajectory.csv"
DIAGNOSTIC_FILE = "training_diagnostic.json"


class UserError(Exception):
    """Input problem the operator can fix; reported without a traceback."""


# Each input file: the flag that names another path for it, and the
# command that writes it into the output directory.
INPUTS = {SCENARIO_FILE: ("scenario", "scenario"),
          CHECKPOINT_FINAL: ("checkpoint", "train"),
          TRAJECTORY_FILE: ("trajectory", "eval"),
          METRICS_FILE: (None, "train")}


def _inputs(args, cfg: RunConfig, *files: str) -> list[str]:
    """The path of each input file: its flag's value if given, otherwise
    ``<out>/<file>``.  An empty flag is refused, and so, in one line, is
    every missing file, each named with the command that writes it."""
    paths, missing = [], []
    for name in files:
        flag, writer = INPUTS[name]
        given = flag and getattr(args, flag, None)
        if given == "":
            raise UserError(f"--{flag} must not be empty")
        paths.append(given or os.path.join(cfg.output_dir, name))
        if not os.path.exists(paths[-1]):
            missing.append(f"{paths[-1]} (written by 'mgrl {writer}')")
    if missing:
        raise UserError("input not found: " + ", ".join(missing))
    return paths


@contextlib.contextmanager
def _running_actor(ck_path: str):
    """A finite checkpoint whose actor overflows on the run's states gives
    non-finite actions: one error line naming it, with no NumPy warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFiniteActionError as exc:
        raise UserError(f"{ck_path}: the actor's output is not finite on "
                        f"this run's states ({exc})") from None


# ---------------------------------------------------------------------------
# Commands


def cmd_scenario(args, cfg: RunConfig) -> int:
    scn = synth_cyclone_scenario(cfg.scenario)
    path = os.path.join(cfg.output_dir, SCENARIO_FILE)
    write_scenario_csv(scn, path)
    lo, hi = cfg.scenario.cyclone_window
    total_load = scn.loads.sum(axis=1)
    print(f"wrote {path}: {scn.horizon} hourly steps")
    print(f"  mean generation {scn.p_re.mean():.1f} kW, "
          f"mean load {total_load.mean():.1f} kW")
    print(f"  storm window hours [{lo}, {hi}), "
          f"min generation {scn.p_re.min():.1f} kW")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    scn_path, = _inputs(args, cfg, SCENARIO_FILE)
    scn = load_scenario_csv(scn_path)
    make_dir(cfg.output_dir)  # an unwritable --out fails before training
    total = cfg.ppo.total_updates
    report_every = max(1, total // 10) if total else 1

    def on_update(update, policy, value, stat):
        if (update + 1) % report_every == 0 or update == total - 1:
            print(f"  update {update + 1}/{total}  "
                  f"reward_norm {stat.mean_reward_norm:.4f}  "
                  f"RI {stat.ri:.4f}  entropy {stat.entropy:.3f}")

    print(f"training on {scn_path} ({scn.horizon} steps) "
          f"for {total} updates")
    try:  # a diverging run is refused in one line, with no NumPy warning
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(cfg.ppo, cfg.env, scn, checkpoint_fn=on_update)
    except TrainingDivergedError as exc:
        diag_path = os.path.join(cfg.output_dir, DIAGNOSTIC_FILE)
        # Strict JSON: a non-finite loss is written as its repr string
        diag = {k: repr(v) if isinstance(v, float) and not math.isfinite(v)
                else v for k, v in exc.diagnostic.items()}
        write_text(diag_path,
                   json.dumps(diag, indent=2, allow_nan=False) + "\n")
        print(f"error: {exc} (diagnostic written to {diag_path})",
              file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    ck_path = os.path.join(cfg.output_dir, CHECKPOINT_FINAL)
    save_checkpoint(result.policy, result.value, ck_path)
    metrics_path = os.path.join(cfg.output_dir, METRICS_FILE)
    write_train_metrics_csv(result.stats, metrics_path)
    print(f"wrote {ck_path}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    if args.episodes < 1:
        raise UserError(f"--episodes must be at least 1, got {args.episodes}")
    ck_path, scn_path = _inputs(args, cfg, CHECKPOINT_FINAL, SCENARIO_FILE)
    policy = load_checkpoint(ck_path)
    scn = load_scenario_csv(scn_path)
    with _running_actor(ck_path):
        res = evaluate_policy(policy, cfg.env, scn,
                              n_episodes=args.episodes,
                              deterministic=not args.stochastic,
                              seed=derive_seed(cfg.seed, "eval"))
    traj_path = os.path.join(cfg.output_dir, TRAJECTORY_FILE)
    write_trajectory_csv(res.trajectory, traj_path)
    first = res.summaries[0]
    mode = "stochastic" if args.stochastic else "deterministic"
    print(f"evaluated {ck_path} ({mode}, {args.episodes} episode(s))")
    print(f"  mean resilience index {res.ri:.4f}  "
          f"mean normalized episode reward {res.mean_reward_norm:.4f}")
    for tier, (short, load) in enumerate(zip(first.shortage_kwh,
                                             first.load_kwh), start=1):
        print(f"  episode 1, tier {tier}: shortage {short:.1f} / "
              f"load {load:.1f} kWh")
    print(f"wrote {traj_path}")
    return EXIT_OK


def cmd_explain(args, cfg: RunConfig) -> int:
    ck_path, traj_path = _inputs(args, cfg, CHECKPOINT_FINAL,
                                 TRAJECTORY_FILE)
    policy = load_checkpoint(ck_path)
    traj = read_trajectory_csv(traj_path)
    if args.step is not None:
        if not 0 <= args.step < len(traj):
            raise UserError(f"step {args.step} outside trajectory "
                            f"[0, {len(traj)})")
        t = args.step
    else:
        t = traj.find_mode_step(args.mode)
        if t < 0:
            raise UserError(
                f"no {args.mode!r} step found in {traj_path}")
    soc, lo, hi = float(traj.soc[t]), cfg.env.soc_min, cfg.env.soc_max
    if not lo <= soc <= hi:  # perturb clips the cloud into [lo, hi]
        raise UserError(f"{traj_path}: step {t} has SOC {soc!r} outside "
                        f"the configured band [{lo}, {hi}]")
    with _running_actor(ck_path):
        explanations = explain_step(policy, traj, t, cfg.env, cfg.explain)
    print(f"explaining step {t} (battery mode: {traj.mode_at(t)})")
    for name, expl in explanations.items():
        paths = render_explanation(expl, os.path.join(
            cfg.output_dir, f"explain_step{t:04d}_{name}"))
        top = expl.ranked_features()[0]
        flag = "  [low fidelity]" if expl.low_fidelity else ""
        print(f"  {name}-dim: top factor {expl.feature_names[top]} "
              f"({expl.contributions[top]:+.4f}), "
              f"fidelity {expl.fidelity:.3f}{flag}")
        print(f"    wrote {paths['svg']}")
    return EXIT_OK


def cmd_report(args, cfg: RunConfig) -> int:
    out = cfg.output_dir
    metrics_path, traj_path = _inputs(args, cfg, METRICS_FILE,
                                      TRAJECTORY_FILE)
    stats = read_train_metrics_csv(metrics_path)
    traj = read_trajectory_csv(traj_path)
    if not len(traj):
        raise UserError(f"{traj_path}: no data rows")
    rep = summarize_episode(cfg.env, traj.loads, traj.shortages,
                            traj.reward)
    hours = len(traj) * STEP_HOURS
    throughput = battery_throughput(traj.p_ch, traj.p_dis)
    life = estimate_battery_life(annualize_throughput(throughput, hours),
                                 rated_cycles=cfg.rated_cycles,
                                 e_max=cfg.env.e_max_kwh)

    curve = None
    finite = [(s.update, s.mean_reward_norm) for s in stats
              if np.isfinite(s.mean_reward_norm)]
    if len(finite) >= 2:
        curve = reward_curve_summary(*zip(*finite))

    hours_axis = np.arange(len(traj))
    soc_svg = line_chart([("SOC", hours_axis, traj.soc)],
                         "Battery state of charge", x_label="hour",
                         y_label="SOC",
                         hlines=(cfg.env.soc_min, cfg.env.soc_max),
                         y_range=(0.0, 1.0))
    supply_svg = line_chart(
        [("supplied", hours_axis, traj.p_supply)]
        + [(f"tier {i + 1}", hours_axis, traj.allocations[:, i])
           for i in range(3)],
        "Supplied power by priority tier", x_label="hour", y_label="kW")
    charts = {"soc_trace.svg": soc_svg, "supply.svg": supply_svg}
    if finite:
        charts["reward_curve.svg"] = line_chart(
            [("reward", *zip(*finite))],
            "Normalized episode reward per update", x_label="update",
            y_label="reward", hlines=(1.0,), y_range=(0.0, 1.05))
    for name, svg in charts.items():
        write_text(os.path.join(out, name), svg)

    explanation_files = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(glob.escape(out), "explain_*.svg")))

    rows = [("run_id", cfg.run_id), ("resilience_index", repr(rep.ri))]
    rows += [(f"{kind}_tier{i}_kwh", repr(v))
             for kind, sums in (("shortage", rep.shortage_kwh),
                                ("load", rep.load_kwh))
             for i, v in enumerate(sums, start=1)]
    rows += [("battery_throughput_kwh", repr(throughput)),
             ("annual_throughput_kwh", repr(life.annual_throughput_kwh)),
             ("battery_life_estimate", life.describe()),
             ("n_updates", str(len(stats)))]
    if curve is not None:
        rows += [("converged_at_update", str(curve.converged_at)),
                 ("last_quartile_mean_reward",
                  repr(curve.last_quartile_mean))]
    csv_path = os.path.join(out, "report.csv")
    write_text(csv_path, "key,value\n" + "".join(f"{key},{val}\n"
                                                for key, val in rows))

    lines = [f"Run report: {cfg.run_id}", "",
             f"Resilience index: {rep.ri:.4f}"]
    for tier in range(3):
        lines.append(f"  tier {tier + 1}: shortage "
                     f"{rep.shortage_kwh[tier]:.1f} kWh of "
                     f"{rep.load_kwh[tier]:.1f} kWh demanded")
    lines += ["",
              f"Battery throughput: {throughput:.1f} kWh/episode "
              f"({life.annual_throughput_kwh:.0f} kWh/year)",
              f"Battery life estimate: {life.describe()} "
              f"(rated {cfg.rated_cycles:.0f} cycles at "
              f"{cfg.env.e_max_kwh:.0f} kWh)"]
    if curve is not None:
        conv = ("never stabilized" if curve.converged_at < 0 else
                f"stabilized from update {curve.converged_at}")
        lines += ["",
                  f"Training: {len(stats)} updates, last-quartile mean "
                  f"reward {curve.last_quartile_mean:.4f}, {conv} "
                  f"(within 2% of final)"]
    if explanation_files:
        lines += ["", "Explanations:"]
        lines += [f"  {name}" for name in explanation_files]
    lines += ["", "Charts: " + ", ".join(sorted(charts))]
    txt_path = os.path.join(out, "report.txt")
    write_text(txt_path, "\n".join(lines) + "\n")

    print("\n".join(lines))
    print(f"\nwrote {txt_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_config(args, cfg: RunConfig) -> int:
    print(config_summary(cfg), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mgrl` argument parser, built once per process: parsing keeps
    no state in it, and each subcommand runs as the ``cmd_<name>`` that
    :func:`main` looks up when it is called."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (dotted keys)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="master seed overriding run.seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory overriding run.output_dir")

    def input_flag(name: str, what: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(f"--{INPUTS[name][0]}", metavar="PATH",
                            help=f"{what} (default: <out>/{name})")
        return parent
    scenario = input_flag(SCENARIO_FILE, "scenario CSV")
    checkpoint = input_flag(CHECKPOINT_FINAL, "checkpoint file")
    trajectory = input_flag(TRAJECTORY_FILE, "trajectory CSV")

    parser = argparse.ArgumentParser(
        prog="mgrl",
        description="Microgrid dispatch: train, evaluate and explain a "
                    "battery/priority-load control policy.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenario", parents=[common],
                   help="generate the synthetic cyclone scenario CSV")

    sub.add_parser("train", parents=[common, scenario],
                   help="train the dispatch policy")

    p = sub.add_parser("eval", parents=[common, checkpoint, scenario],
                       help="roll out a trained policy and log a trajectory")
    p.add_argument("--episodes", type=int, default=1, metavar="N",
                   help="episodes to average over (default 1)")
    p.add_argument("--stochastic", action="store_true",
                   help="sample actions instead of using the policy mean")

    p = sub.add_parser("explain", parents=[common, checkpoint, trajectory],
                       help="explain the actor's decision at one logged step")
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--step", type=int, metavar="T",
                     help="explicit step index to explain")
    sel.add_argument("--mode", choices=MODES, default="idle",
                     help="explain the first step in this battery mode "
                          "(default: idle)")

    sub.add_parser("report", parents=[common],
                   help="aggregate metrics, charts and explanations")

    sub.add_parser("config", parents=[common],
                   help="print the effective configuration and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed_override=args.seed,
                              output_override=args.out)
        return globals()[f"cmd_{args.command}"](args, cfg)
    except (UserError, ConfigError, TableError, CheckpointError,
            SurrogateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except BrokenPipeError:
        return EXIT_OK
    except Exception:  # pragma: no cover - defensive catch-all
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR

