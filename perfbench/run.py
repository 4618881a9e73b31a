#!/usr/bin/env python3
"""Build and run the spmrt benchmark; print one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the simulator libraries from src/ plus the driver) in Release
mode under $CARGO_TARGET_DIR (default .bench_build); later runs only check
that the build is current. The driver binary measures for S seconds and
prints a full report (schema spmrt-perfbench-v1, with sample counts); this
script checks it, keeps a copy under the build directory, prints a table,
and ends with the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (and writes the phase spans as Chrome trace JSON next to
the report). Across runs of one binary, every job's digest, simulated
cycles, switch and syncPoint counts must repeat exactly: the script keeps
them in a ledger under the build directory and fails a run that diverges.
Exit status is 0 only when every job was verified and nothing diverged.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The driver binary's own limit; a run must end within 180 s after the
# build (which only the first run in a checkout pays for).
TIME_LIMIT_S = 170
SCHEMA = "spmrt-perfbench-v1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def usable_cores():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def configured_for(build_dir):
    """The source directory a build tree was configured from, or None."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    return None


def build(build_dir):
    """Configure once, then build; returns the driver path or None."""
    source = configured_for(build_dir)
    if source is not None and source.resolve() != HERE:
        shutil.rmtree(build_dir)  # a copied tree would build other sources
        source = None
    build_dir.mkdir(parents=True, exist_ok=True)
    if source is None:
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(usable_cores(), 8))
    cmd = ["cmake", "--build", str(build_dir), "--parallel", jobs,
           "--target", "spmrt_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "spmrt_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def check_report(report, expected):
    """Problems with a driver report; empty when it is well formed."""
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, not {SCHEMA}")
    cores = report.get("host_cores")
    if not isinstance(cores, int) or cores < 1:
        problems.append("host_cores missing")
    metrics = report.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit "
                            f"{got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} has no finite value")
        if not isinstance(got.get("samples"), int) or got["samples"] < 1:
            problems.append(f"metric {m['name']} has no sample count")
    return problems


def check_ledger(ledger_path, binary_hash, report):
    """Compare this run's per-job counts with earlier runs of the binary."""
    ledger = {}
    if ledger_path.exists():
        try:
            ledger = json.loads(ledger_path.read_text())
        except ValueError:
            ledger = {}
    if ledger.get("binary") != binary_hash:
        ledger = {"binary": binary_hash, "jobs": {}}
    problems = []
    prefix = f"{report['workload']}/seed{report['seed']}/"
    for job in report.get("jobs", []):
        key = prefix + job["key"]
        seen = {k: job[k] for k in ("digest", "cycles", "switches",
                                    "sync_points", "tasks_executed",
                                    "instructions")}
        first = ledger["jobs"].setdefault(key, seen)
        if first != seen:
            problems.append(f"{key}: diverged from an earlier run of this "
                            f"binary: {first} vs {seen}")
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=0, sort_keys=True))
    tmp.replace(ledger_path)
    return problems


def result_line(report, expected, correct):
    metrics = {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in expected}
    return json.dumps({"correct": correct,
                       "attempted": max(1, int(report["submitted"])),
                       "failed": int(report["failed"]),
                       "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "perfbench")
    binary = build(build_dir)
    if binary is None or not binary.exists():
        log("perfbench: build failed")
        return 1
    binary_hash = hashlib.sha256(binary.read_bytes()).hexdigest()

    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {TIME_LIMIT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: driver exited {proc.returncode} without a report")
        return 1
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))

    expected = expected_metrics(args.trace)
    malformed = check_report(report, expected)
    problems = list(report.get("failures", [])) + malformed
    if proc.returncode != 0 and not problems:
        problems.append(f"driver exited {proc.returncode}")
    if not malformed:
        problems += check_ledger(build_dir / "determinism.json",
                                 binary_hash, report)
    for p in problems:
        log(f"perfbench: FAIL {p}")
    if malformed:
        return 1

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"host_cores {report['host_cores']}, {report['workers']} fleet "
          f"workers, {report['batches']} batches of "
          f"{report['jobs_per_batch']} jobs, job_ms_tail = "
          f"p{report['tail_percentile']:g}")
    for name, m in report["metrics"].items():
        print(f"#   {name:32s} {m['value']:>18.6g} {m['unit']:8s} "
              f"n={m['samples']}")
    print(result_line(report, expected, not problems))
    return 0 if not problems else 1

if __name__ == "__main__":
    sys.exit(main())
