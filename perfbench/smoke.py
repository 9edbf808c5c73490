"""Smoke check for the benchmark harness.

Runs every workload at minimal length (one second of measurement, with
tracing off and on) inside this process and asserts that:

* the last output line is the result object, with no failed operation;
* every metric named in BENCHMARK.json is emitted with its unit, and the
  ``detail`` line repeats it with its sample count;
* two untraced runs at one seed give the same arithmetic fingerprint.

Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

import contextlib
import io
import json
import sys

import run

SEED = 1


def invoke(workload: str, trace: int) -> tuple[dict, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0, f"{workload}: exit code {code}"
    lines = out.getvalue().splitlines()
    detail = json.loads(next(ln for ln in lines
                             if ln.startswith("detail "))[len("detail "):])
    fingerprint = next(ln for ln in lines
                       if ln.startswith("fingerprint ")).split()[1]
    return json.loads(lines[-1]), detail, fingerprint


def check(workload: str, trace: int, spec: dict) -> str:
    result, detail, fingerprint = invoke(workload, trace)
    label = f"{workload} trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"], f"{label}: incorrect result"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(wanted), (
        f"{label}: metrics differ from BENCHMARK.json: "
        f"{sorted(set(result['metrics']) ^ set(wanted))}")
    for name, unit in wanted.items():
        emitted = result["metrics"][name]
        assert emitted["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(emitted["value"], (int, float)), f"{label}: {name}"
        d = detail[name]
        assert d["unit"] == unit, f"{label}: {name} detail unit"
        assert isinstance(d["n"], int) and d["n"] >= 1, \
            f"{label}: {name} has no sample count"
    return fingerprint


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in run.WORKLOAD_NAMES:
        first = check(workload, 0, spec)
        second = check(workload, 0, spec)
        assert first == second, (
            f"{workload}: same-seed fingerprints differ: {first} {second}")
        check(workload, 1, spec)
        print(f"ok {workload} fingerprint {first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
