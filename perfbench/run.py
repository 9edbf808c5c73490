"""mgrl benchmark: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-default --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it alternates untraced blocks with blocks that have span
hooks on every layer's public functions, and reports per-layer call
counts and self times per operation of the traced blocks, plus the
tracing overhead (traced against untraced primary-op median, each
at the host factor of its own blocks).

Standard output carries a host line, a readable table naming every
metric with its unit and sample count, a ``detail`` JSON line with the
same, and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failures are listed on standard error.  The
``fingerprint`` line is a SHA-256 of the per-update TrainStats stream
(training workloads) or of the explanation coefficients (cli-explain):
two runs at one seed print the same one unless the arithmetic changed,
and every pass within a run must match the first.  The run sets no BLAS
or OpenMP thread counts and starts no threads or processes of its own.

Every end-to-end timing is divided by the host factor of the phase it
was measured in (see ``calibrate.py``): the set-up reps and the timed
loop each interleave a fixed reference kernel, and the same statistic of
its times (median, 90th percentile or mean) over the nominal one is how
much slower than nominal the shared host ran.  The ``raw.*`` lines give
the undivided timings.
"""

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-default", "train-wide", "cli-explain")
TAIL_PERCENTILE = 90.0
TRACE_BLOCKS = 6
# Reference kernel runs after each set-up rep, for the set-up host factor.
SETUP_REF_REPS = 8
# Fresh imports of mgrl per run; import_s is their median.
IMPORT_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What each end-to-end metric is called on each workload.
ALIASES = {
    "train": {"steps_per_s": "train.env_steps_per_s",
              "op_ms_p50": "train.update_ms_p50",
              "op_ms_tail": "train.update_ms_tail",
              "final_ms_p50": "train.eval_ms_p50",
              "quality": "train.ri_gain"},
    "cli": {"steps_per_s": "eval.steps_per_s",
            "op_ms_p50": "explain.cmd_ms_p50",
            "op_ms_tail": "explain.cmd_ms_tail",
            "final_ms_p50": "report.cmd_ms_p50",
            "quality": "explain.r2_mean"},
}


def host_info() -> dict:
    info = {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            info[lib] = f"{deps[lib].get('name')} {deps[lib].get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        info["blas"] = info["lapack"] = "unknown"
    for var in THREAD_VARS:
        info[var] = os.environ.get(var, "unset")
    return info


def entry(value: float, unit: str, n: int, alias: str | None = None) -> dict:
    """One reported metric: value, unit, sample count, and the name it
    goes by on this workload when that differs from its benchmark name."""
    d = {"value": value, "unit": unit, "n": n}
    if alias:
        d["as"] = alias
    return d


def median_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else math.nan


def time_mgrl_import(setup_ref: list[float]) -> list[float]:
    """Seconds to import every mgrl module afresh, IMPORT_REPS times.

    Each rep drops the mgrl modules from ``sys.modules`` and imports
    ``mgrl.cli``, which imports all the others; the first rep in a
    checkout also compiles them.  Modules loaded before the call (by an
    earlier run in the same process) are put back at the end, so the
    workloads and the tracer see one copy.  The reference kernel runs
    after each rep, into ``setup_ref``.
    """
    def drop() -> dict:
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name == "mgrl" or name.startswith("mgrl.")}

    before = drop()
    times = []
    for rep in range(IMPORT_REPS):
        if rep:
            drop()
        t = perf_counter()
        importlib.import_module("mgrl.cli")
        times.append(perf_counter() - t)
        for _ in range(SETUP_REF_REPS):
            setup_ref.append(calibrate.reference_kernel())
    if before:
        drop()
        sys.modules.update(before)
    return times


def end_to_end(workload: str, setup_times: list[float], setup_ref:
               list[float], import_times: list[float],
               rec) -> tuple[dict, dict]:
    """(benchmark metrics, informational extras) of an untraced run.

    Timings are divided by the host factor of their phase; ``raw.*``
    extras keep the measured values.
    """
    aliases = ALIASES["cli" if workload == "cli-explain" else "train"]
    ok = 1.0 - rec.failed / rec.attempted if rec.attempted else 0.0
    # A fixed percentile keeps runs with different op counts comparable.
    # At the benchmark's run length the slowest workload, train-default,
    # has about 100 primary ops, so about ten samples lie beyond it.
    tail_ms = (1000.0 * float(np.percentile(rec.ops, TAIL_PERCENTILE))
               if rec.ops else math.nan)
    import_s = statistics.median(import_times)
    raw = {"setup_s": import_s + statistics.median(setup_times),
           "steps_per_s": rec.steps / rec.steps_s if rec.steps_s
           else math.nan,
           "op_ms_p50": median_ms(rec.ops),
           "op_ms_tail": tail_ms,
           "final_ms_p50": median_ms(rec.final)}
    setup_factor = calibrate.host_factor(setup_ref)
    factors = {stat: calibrate.host_factor(rec.ref, stat)
               for stat in calibrate.NOMINAL_S}
    tail_factor = factors[f"p{TAIL_PERCENTILE:g}"]
    metrics = {
        "setup_s": entry(raw["setup_s"] / setup_factor, "s",
                         len(setup_times)),
        "steps_per_s": entry(raw["steps_per_s"] * factors["mean"], "steps/s",
                             rec.steps),
        "op_ms_p50": entry(raw["op_ms_p50"] / factors["p50"], "ms",
                           len(rec.ops)),
        "op_ms_tail": entry(raw["op_ms_tail"] / tail_factor, "ms",
                            len(rec.ops)),
        "final_ms_p50": entry(raw["final_ms_p50"] / factors["p50"], "ms",
                              len(rec.final)),
        "quality": entry(rec.quality, "1", rec.quality_n),
        "peak_rss_mb": entry(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "ops_ok_frac": entry(ok, "1", rec.attempted),
    }
    for name, alias in aliases.items():
        metrics[name]["as"] = alias
    metrics["op_ms_tail"]["percentile"] = TAIL_PERCENTILE
    info = {"import_s": entry(import_s, "s", len(import_times)),
            "ops_failed_frac": entry(1.0 - ok, "1", rec.attempted),
            "host.setup_factor_p50": entry(setup_factor, "1",
                                           len(setup_ref))}
    for stat, factor in factors.items():
        info[f"host.factor_{stat}"] = entry(factor, "1", len(rec.ref))
    for name, value in raw.items():
        info[f"raw.{name}"] = entry(value, metrics[name]["unit"],
                                    metrics[name]["n"])
    info.update((name, entry(*v)) for name, v in rec.info.items())
    return metrics, info


def per_layer(setup_tracer, setup_reps: int, tracer, rec_off,
              rec_on) -> dict:
    """Per-op call counts and self times of the traced phase."""
    ops = max(rec_on.n_ops, 1)
    out = {}
    layer_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    for (layer, fn, _), (calls, self_s) in zip(tracing.HOOKS,
                                                tracer.summary()):
        out[f"{layer}.{fn}.calls"] = entry(calls / ops, "calls/op", ops)
        out[f"{layer}.{fn}.self_ms"] = entry(1000.0 * self_s / ops, "ms/op",
                                             ops)
        layer_ms[layer] += 1000.0 * self_s / ops
    for layer, ms in layer_ms.items():
        out[f"{layer}.self_ms"] = entry(ms, "ms/op", ops)
    setup_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    for (layer, _, _), (_, self_s) in zip(tracing.HOOKS,
                                           setup_tracer.summary()):
        setup_ms[layer] += 1000.0 * self_s / setup_reps
    for layer, ms in setup_ms.items():
        out[f"setup.{layer}.self_ms"] = entry(ms, "ms/setup", setup_reps)
    # Each side at its own host factor: the blocks ran at different times.
    off = median_ms(rec_off.ops) / calibrate.host_factor(rec_off.ref)
    on = median_ms(rec_on.ops) / calibrate.host_factor(rec_on.ref)
    out["trace.op_ms_p50_off"] = entry(off, "ms", len(rec_off.ops))
    out["trace.op_ms_p50_on"] = entry(on, "ms", len(rec_on.ops))
    out["trace.overhead_pct"] = entry(100.0 * (on / off - 1.0), "%",
                                      len(rec_on.ops))
    out["trace.ops"] = entry(float(rec_on.n_ops), "count", rec_on.n_ops)
    out["trace.absent_hooks"] = entry(float(len(tracer.absent_hooks)),
                                      "count", len(tracing.HOOKS))
    return out


def print_table(detail: dict, per_layer_mode: bool) -> None:
    rows = detail.items()
    if per_layer_mode:  # busiest first, layers that did nothing left out
        rows = sorted(((k, d) for k, d in rows if d["value"] != 0),
                      key=lambda kv: (kv[1]["unit"] != "ms/op",
                                      -kv[1]["value"]))
    for name, d in rows:
        label = d.get("as") or name
        alias = f"{name}, " if label != name else ""
        pct = f", p{d['percentile']:g}" if "percentile" in d else ""
        print(f"  {label:<40} {d['value']:>14.6g} {d['unit']:<9} "
              f"[{alias}n={d['n']}{pct}]")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mgrl" / "__init__.py").is_file():
        print(f"error: mgrl sources not found under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    setup_ref: list[float] = []
    import_times = time_mgrl_import(setup_ref)
    import workloads

    print("host", json.dumps(host_info()))
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make_workload(args.workload, args.seed, str(workdir))
        setup_tracer = tracing.Tracer()
        setup_times = []
        for _ in range(workloads.SETUP_REPS[args.workload]):
            t = perf_counter()
            with setup_tracer if args.trace else contextlib.nullcontext():
                wl.setup()
            setup_times.append(perf_counter() - t)
            for _ in range(SETUP_REF_REPS):
                setup_ref.append(calibrate.reference_kernel())

        start = perf_counter()
        if args.trace:
            rec_off, rec = workloads.Recorder(), workloads.Recorder()
            tracer = tracing.Tracer()
            # Untraced and traced blocks alternate, so that host drift
            # weighs on both sides of the overhead estimate alike.
            for block in range(TRACE_BLOCKS):
                traced = block % 2 == 1
                with tracer if traced else contextlib.nullcontext():
                    wl.run(start + args.seconds * (block + 1) / TRACE_BLOCKS,
                           rec if traced else rec_off, guard=False)
            detail = per_layer(setup_tracer, len(setup_times), tracer,
                               rec_off, rec)
            info = {}
            recs = (rec_off, rec)
            if tracer.absent_sites:
                print("absent call sites:", ", ".join(tracer.absent_sites))
        else:
            rec = workloads.Recorder()
            wl.run(start + args.seconds, rec)
            wl.close(rec)
            detail, info = end_to_end(args.workload, setup_times,
                                      setup_ref, import_times, rec)
            recs = (rec,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    print_table(detail, bool(args.trace))
    print_table(info, False)
    prints = [fp for r in recs for fp in r.fingerprints]
    repeat_match = len(set(prints)) <= 1
    print(f"fingerprint {prints[0] if prints else 'none'} "
          f"passes {len(prints)} repeat_match {str(repeat_match).lower()}")
    print("detail", json.dumps({**detail, **info}))

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    for r in recs:
        for err in r.errors:
            print("failed:", err, file=sys.stderr)
    if not repeat_match:
        print("failed: same-seed passes gave different fingerprints",
              file=sys.stderr)
    values_ok = all(math.isfinite(d["value"]) for d in detail.values())
    result = {
        "correct": failed == 0 and repeat_match and values_ok
        and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": d["value"] if math.isfinite(d["value"])
                           else None, "unit": d["unit"]}
                    for name, d in detail.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
