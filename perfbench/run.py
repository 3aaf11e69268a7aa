"""pground benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5      # this process plus four fresh ones
PROBES_AT_ENDS = 3     # speed probes before the first and after the last pass

END_TO_END_UNITS = {
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "solved_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a smoke-test size")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def import_library():
    """Put ./src first on the path and import pground from it, with BLAS
    limited to one thread (set before numpy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "pground" / "__init__.py").is_file():
        sys.exit(f"error: no pground sources under {src}")
    sys.path.insert(0, str(src))
    import pground
    if Path(pground.__file__).resolve().parent != src / "pground":
        sys.exit(f"error: imported pground from {pground.__file__}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_samples(args, own: float) -> list:
    """Set-up time of this process and of fresh processes doing the same."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--setup-only"]
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120, cwd=ROOT).stdout
        samples.append(json.loads(out.splitlines()[-1])["setup_s"])
    return samples


def pass_count(workload, seconds: float, tiny: bool) -> int:
    if tiny:
        return 1
    return max(1, round(seconds / workload.nominal_pass_s))


def percentile_ms(latencies, q: float) -> float:
    import numpy
    return 1000.0 * float(numpy.percentile(latencies, q))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from references import reference_table
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    inputs = workload.build(args.seed, tiny)
    refs = reference_table()
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = str(OUT_DIR)
    passes = pass_count(workload, args.seconds, tiny)
    prov = provenance(args)
    outcomes = []

    def one_pass(clock=time.perf_counter):
        outcomes.extend(workload.run_pass(inputs, refs, workdir, clock))

    if args.trace == 0:
        from calibrate import SpeedProbe
        probe = SpeedProbe()
        setups = setup_samples(args, own_setup)
        for _ in range(PROBES_AT_ENDS):
            probe.sample()
        walls = []  # (start, end) on the probe's clock
        with probe.sampling():
            for _ in range(passes):
                t0 = probe.clock()
                one_pass(probe.clock)
                walls.append((t0, probe.clock()))
        for _ in range(PROBES_AT_ENDS):
            probe.sample()
        scale = probe.scale()
        lat = [probe.scaled(*o.span) for o in outcomes]
        values = {
            "wall_s": statistics.median(probe.scaled(*w) for w in walls),
            "solve_ms_p50": percentile_ms(lat, 50),
            "solve_ms_p90": percentile_ms(lat, 90),
            "solved_frac": sum(not o.failed for o in outcomes) / len(outcomes),
            "setup_s": scale * statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail = {"passes": passes,
                  "raw_pass_wall_s": [b - a for a, b in walls],
                  "raw_setup_samples_s": setups, "solves": len(lat),
                  "speed_scale": scale, "probe_s": probe.samples}
    else:
        from tracer import LAYER_UNITS, Tracer, exact_counts, median_metrics
        t0 = time.perf_counter()
        one_pass()
        untraced_wall = time.perf_counter() - t0
        tracer = Tracer()
        walls, per_pass = [], []
        with tracer.installed():
            for _ in range(max(2, passes)):
                wall, layer = tracer.run_pass(one_pass)
                walls.append(wall)
                per_pass.append(layer)
        counts = [exact_counts(m) for m in per_pass]
        if any(c != counts[0] for c in counts[1:]):
            diff = {k: [c[k] for c in counts] for k in counts[0]
                    if any(c[k] != counts[0][k] for c in counts)}
            print(f"error: per-layer counts differ between traced passes: "
                  f"{diff}", file=sys.stderr)
            return 3
        values = median_metrics(per_pass)
        values["trace.overhead_s"] = statistics.median(walls) - untraced_wall
        units = LAYER_UNITS
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        detail = {"traced_passes": len(walls), "traced_wall_s": walls,
                  "untraced_wall_s": untraced_wall, "spans": str(spans_path),
                  "spans_recorded": len(tracer.spans)}

    failed = [o for o in outcomes if o.failed]
    for o in failed:
        print(f"gate: {o.case} failed: {o.reason}", file=sys.stderr)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }
    report = {"provenance": prov, "detail": detail,
              "failed_frac": len(failed) / len(outcomes), **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")
    for k in units:
        print(f"{args.workload:14s} {k:34s} {values[k]:>16.6g} {units[k]}")
    print(f"{args.workload:14s} {'failed_frac':34s} "
          f"{len(failed) / len(outcomes):>16.6g} fraction")
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
