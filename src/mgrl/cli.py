"""Command-line driver: scenario -> train -> eval -> explain -> report.

Every command reads one optional config file (``--config``), honors a
master seed (``--seed``) and writes its artifacts into an output
directory (``--out``, default from config).  Exit codes: 0 success,
1 user error (bad input, missing file), 2 internal error.
"""

import argparse
import glob
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_summary, load_run_config
from .explain import explain_step, render_explanation
from .metrics import (
    annualize_throughput,
    battery_throughput,
    estimate_battery_life,
    read_train_metrics_csv,
    resilience_report,
    reward_curve_summary,
    write_train_metrics_csv,
)
from .neural import CheckpointError, load_checkpoint, save_checkpoint
from .ppo import TrainingDivergedError, evaluate_policy, train
from .scenario import (STEP_HOURS, load_scenario_csv, synth_cyclone_scenario,
                       write_scenario_csv)
from .seeding import derive_seed
from .svg import line_chart
from .table import TableError
from .trajectory import read_trajectory_csv, write_trajectory_csv

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


def _load(args) -> RunConfig:
    return load_run_config(args.config, seed_override=args.seed,
                           output_override=args.out)


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _load_scenario(cfg: RunConfig, explicit: str | None):
    path = explicit or os.path.join(cfg.output_dir, SCENARIO_FILE)
    if not os.path.exists(path):
        raise UserError(f"scenario file not found: {path} "
                        f"(generate one with 'mgrl scenario')")
    return load_scenario_csv(path), path


def _load_policy(cfg: RunConfig, explicit: str | None):
    path = explicit or os.path.join(cfg.output_dir, CHECKPOINT_FINAL)
    if not os.path.exists(path):
        raise UserError(f"checkpoint not found: {path} "
                        f"(train one with 'mgrl train')")
    return load_checkpoint(path), path


# ---------------------------------------------------------------------------
# Commands


def cmd_scenario(args) -> int:
    cfg = _load(args)
    scn = synth_cyclone_scenario(cfg.scenario)
    _ensure_dir(cfg.output_dir)
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


def cmd_train(args) -> int:
    cfg = _load(args)
    scn, scn_path = _load_scenario(cfg, args.scenario)
    _ensure_dir(cfg.output_dir)
    total = cfg.ppo.total_updates
    report_every = max(1, total // 10) if total else 1

    def on_update(update, policy, value, stat):
        if (cfg.checkpoint_every and (update + 1) % cfg.checkpoint_every == 0
                and update != total - 1):
            save_checkpoint(policy, value, os.path.join(
                cfg.output_dir, f"checkpoint_{update:05d}.json"))
        if (update + 1) % report_every == 0 or update == total - 1:
            print(f"  update {update + 1}/{total}  "
                  f"reward_norm {stat.mean_reward_norm:.4f}  "
                  f"RI {stat.ri:.4f}  entropy {stat.entropy:.3f}")

    print(f"training on {scn_path} ({scn.horizon} steps) "
          f"for {total} updates")
    try:
        result = train(cfg.ppo, cfg.env, scn, checkpoint_fn=on_update)
    except TrainingDivergedError as exc:
        diag_path = os.path.join(cfg.output_dir, DIAGNOSTIC_FILE)
        with open(diag_path, "w", encoding="utf-8") as fh:
            json.dump(exc.diagnostic, fh, indent=2)
            fh.write("\n")
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


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise UserError(f"--episodes must be at least 1, got {args.episodes}")
    cfg = _load(args)
    (policy, _value), ck_path = _load_policy(cfg, args.checkpoint)
    scn, _ = _load_scenario(cfg, args.scenario)
    _ensure_dir(cfg.output_dir)
    res = evaluate_policy(policy, cfg.env, scn, n_episodes=args.episodes,
                          deterministic=not args.stochastic,
                          seed=derive_seed(cfg.seed, "eval"))
    traj_path = os.path.join(cfg.output_dir, TRAJECTORY_FILE)
    write_trajectory_csv(res.trajectory, traj_path)
    rep = resilience_report(res.trajectory, cfg.env.reward_weights)
    mode = "stochastic" if args.stochastic else "deterministic"
    print(f"evaluated {ck_path} ({mode}, {args.episodes} episode(s))")
    print(f"  resilience index {rep.ri:.4f}  "
          f"normalized episode reward {res.mean_reward_norm:.4f}")
    for tier, (short, load) in enumerate(zip(rep.shortage_sums,
                                             rep.load_sums), start=1):
        print(f"  tier {tier}: shortage {short:.1f} / load {load:.1f} kWh")
    print(f"wrote {traj_path}")
    return EXIT_OK


def cmd_explain(args) -> int:
    cfg = _load(args)
    (policy, _value), _ = _load_policy(cfg, args.checkpoint)
    traj_path = args.trajectory or os.path.join(cfg.output_dir,
                                                TRAJECTORY_FILE)
    if not os.path.exists(traj_path):
        raise UserError(f"trajectory file not found: {traj_path} "
                        f"(produce one with 'mgrl eval')")
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
    _ensure_dir(cfg.output_dir)
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


def cmd_report(args) -> int:
    cfg = _load(args)
    out = cfg.output_dir
    required = {"training metrics": os.path.join(out, METRICS_FILE),
                "evaluation trajectory": os.path.join(out, TRAJECTORY_FILE)}
    missing = [f"{kind} ({path})" for kind, path in required.items()
               if not os.path.exists(path)]
    if missing:
        raise UserError("missing required artifacts: " + ", ".join(missing))

    stats = read_train_metrics_csv(required["training metrics"])
    traj = read_trajectory_csv(required["evaluation trajectory"])
    if not len(traj):
        raise UserError(f"{required['evaluation trajectory']}: no data rows")
    rep = resilience_report(traj, cfg.env.reward_weights)
    hours = len(traj) * STEP_HOURS
    throughput = battery_throughput(traj.p_ch, traj.p_dis)
    life = estimate_battery_life(annualize_throughput(throughput, hours),
                                 rated_cycles=cfg.rated_cycles,
                                 e_max=cfg.env.e_max_kwh)

    curve = None
    finite = [(s.update, s.mean_reward_norm) for s in stats
              if np.isfinite(s.mean_reward_norm)]
    if len(finite) >= 2:
        curve = reward_curve_summary([u for u, _ in finite],
                                     [r for _, r in finite])

    hours_axis = np.arange(len(traj))
    soc_svg = line_chart([("SOC", hours_axis, traj.soc)],
                         "Battery state of charge", x_label="hour",
                         y_label="SOC",
                         hlines=(cfg.env.soc_min, cfg.env.soc_max),
                         y_range=(0.0, 1.0))
    supply_svg = line_chart(
        [("supplied", hours_axis, traj.p_supply),
         ("tier 1", hours_axis, traj.allocations[:, 0]),
         ("tier 2", hours_axis, traj.allocations[:, 1]),
         ("tier 3", hours_axis, traj.allocations[:, 2])],
        "Supplied power by priority tier", x_label="hour",
        y_label="kW")
    charts = {"soc_trace.svg": soc_svg, "supply.svg": supply_svg}
    if stats:
        charts["reward_curve.svg"] = line_chart(
            [("reward", np.array([s.update for s in stats]),
              np.array([s.mean_reward_norm for s in stats]))],
            "Normalized episode reward per update", x_label="update",
            y_label="reward", hlines=(1.0,), y_range=(0.0, 1.05))
    for name, svg in charts.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(svg)

    explanation_files = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(out, "explain_*.svg")))

    rows = [("run_id", cfg.run_id),
            ("resilience_index", repr(rep.ri)),
            ("shortage_tier1_kwh", repr(rep.shortage_sums[0])),
            ("shortage_tier2_kwh", repr(rep.shortage_sums[1])),
            ("shortage_tier3_kwh", repr(rep.shortage_sums[2])),
            ("load_tier1_kwh", repr(rep.load_sums[0])),
            ("load_tier2_kwh", repr(rep.load_sums[1])),
            ("load_tier3_kwh", repr(rep.load_sums[2])),
            ("battery_throughput_kwh", repr(throughput)),
            ("annual_throughput_kwh", repr(life.annual_throughput_kwh)),
            ("battery_life_estimate", life.describe()),
            ("n_updates", str(len(stats)))]
    if curve is not None:
        rows += [("converged_at_update", str(curve.converged_at)),
                 ("last_quartile_mean_reward",
                  repr(curve.last_quartile_mean))]
    csv_path = os.path.join(out, "report.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("key,value\n")
        for key, val in rows:
            fh.write(f"{key},{val}\n")

    lines = [f"Run report: {cfg.run_id}", "",
             f"Resilience index: {rep.ri:.4f}"]
    for tier in range(3):
        lines.append(f"  tier {tier + 1}: shortage "
                     f"{rep.shortage_sums[tier]:.1f} kWh of "
                     f"{rep.load_sums[tier]:.1f} kWh demanded")
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
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    print("\n".join(lines))
    print(f"\nwrote {txt_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_config(args) -> int:
    cfg = _load(args)
    print(config_summary(cfg), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (dotted keys)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="master seed overriding run.seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory overriding run.output_dir")

    parser = argparse.ArgumentParser(
        prog="mgrl",
        description="Microgrid dispatch: train, evaluate and explain a "
                    "battery/priority-load control policy.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common],
                       help="generate the synthetic cyclone scenario CSV")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("train", parents=[common],
                       help="train the dispatch policy")
    p.add_argument("--scenario", metavar="PATH",
                   help="scenario CSV (default: <out>/scenario.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="roll out a trained policy and log a trajectory")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint file (default: <out>/checkpoint_final.json)")
    p.add_argument("--scenario", metavar="PATH",
                   help="scenario CSV (default: <out>/scenario.csv)")
    p.add_argument("--episodes", type=int, default=1, metavar="N",
                   help="episodes to average over (default 1)")
    p.add_argument("--stochastic", action="store_true",
                   help="sample actions instead of using the policy mean")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", parents=[common],
                       help="explain the actor's decision at one logged step")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint file (default: <out>/checkpoint_final.json)")
    p.add_argument("--trajectory", metavar="PATH",
                   help="trajectory CSV (default: <out>/trajectory.csv)")
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--step", type=int, metavar="T",
                     help="explicit step index to explain")
    sel.add_argument("--mode", choices=("idle", "charge", "discharge"),
                     default="idle",
                     help="explain the first step in this battery mode "
                          "(default: idle)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report", parents=[common],
                       help="aggregate metrics, charts and explanations")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("config", parents=[common],
                       help="print the effective configuration and exit")
    p.set_defaults(func=cmd_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UserError, ConfigError, TableError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except BrokenPipeError:
        return EXIT_OK
    except Exception:  # pragma: no cover - defensive catch-all
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
