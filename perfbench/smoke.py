"""Smoke test of the benchmark itself: python3 perfbench/smoke.py

Runs every workload at its tiny size in both modes and checks that the last
output line carries every metric BENCHMARK.json names, each with its unit,
and that the failure gate trips on a deliberately wrong reference value.
Exits non-zero on the first failed check.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    check(proc.returncode == 0,
          f"{workload} --trace {trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(workload: str, trace: int, result: dict, spec: list):
    tag = f"{workload} --trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{tag}: correct is not true")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{tag}: attempted {result['attempted']}")
    check(result["failed"] == 0, f"{tag}: {result['failed']} solves failed")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in spec},
          f"{tag}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = metrics[m["name"]]
        check(got.get("unit") == m["unit"],
              f"{tag}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        check(isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]),
              f"{tag}: {m['name']} value {got.get('value')!r}")


def check_gate_trips() -> None:
    """A wrong reference value must fail the solve as a wrong answer."""
    sys.path.insert(0, str(HERE))
    import run
    run.import_library()
    import references
    from workloads import WORKLOADS

    fine = WORKLOADS["fine_grid"]
    solves = fine.build(0, True)
    refs = references.reference_table()
    good = fine.run_pass(solves, refs, None, time.perf_counter)
    check(all(not o.failed for o in good), f"gate fails good solves: {good}")
    bad = dict(refs)
    case = solves[1].case
    bad[case] = refs[case] * (1 + 10 * references.REL_TOL)
    outcomes = fine.run_pass(solves, bad, None, time.perf_counter)
    tripped = [o for o in outcomes if o.case == case]
    check(len(tripped) == 1 and tripped[0].failed and tripped[0].wrong
          and "reference" in tripped[0].reason,
          f"gate did not trip on a wrong reference for {case}: {outcomes}")
    check(all(not o.failed for o in outcomes if o.case != case),
          "gate tripped on a case whose reference was not changed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_result(w["name"], trace, run_tiny(w["name"], trace), spec)
            print(f"smoke: {w['name']} --trace {trace} ok")
    check_gate_trips()
    print("smoke: failure gate trips on a wrong reference value")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
