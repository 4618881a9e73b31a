#!/usr/bin/env python3
"""Gate the simulator's deterministic results against a committed golden file.

The simulator is bit-reproducible: a change that is meant to leave the
timing model alone must reproduce every simulated number exactly. This
gate compares quick-mode bench outputs (spmrt-bench-v1 documents written
with ``--out=``) against ``bench/golden_quick.json`` by exact equality,
cell by cell, and prints every differing cell.

Only deterministic columns are golden; wall-clock columns are not:

    table1_main  rows keyed by workload + input + config;
                 cycles_k, ops_k, steals, ok
    host_perf    rows keyed by workload + cores;
                 sim_cycles, switches, syncpoints, equivalent

A row present on one side only is a failure, and so is a golden bench
with no measurement given: the gate never passes vacuously.

Usage (from the build tree's bench/ directory):
    SPMRT_BENCH_QUICK=1 ./table1_main --out=BENCH_table1_main.json
    SPMRT_BENCH_QUICK=1 ./host_perf --out=BENCH_host_perf.json
    python3 ../../tools/check_golden.py ../../bench/golden_quick.json \\
        BENCH_table1_main.json BENCH_host_perf.json

Regenerating the golden file (only when a change is meant to move
simulated results, and say so in the change): run the two benches as
above on the new code, then

    python3 -c "import sys; sys.path.insert(0, '../../tools'); \\
        import check_golden; check_golden.write_golden( \\
        '../../bench/golden_quick.json', \\
        ['BENCH_table1_main.json', 'BENCH_host_perf.json'])"
"""

import json
import sys

GOLDEN_SCHEMA = "spmrt-golden-v1"
MEASUREMENT_SCHEMA = "spmrt-bench-v1"

# bench name -> (row key columns, golden value columns)
GOLDEN_COLUMNS = {
    "table1_main": (("workload", "input", "config"),
                    ("cycles_k", "ops_k", "steals", "ok")),
    "host_perf": (("workload", "cores"),
                  ("sim_cycles", "switches", "syncpoints", "equivalent")),
}


def fail(message):
    sys.exit(f"check_golden: {message}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: cannot read JSON ({err})")


def golden_rows(doc, path):
    """Reduce one quick-mode bench document to {key: {column: value}}."""
    if doc.get("schema") != MEASUREMENT_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             f"{MEASUREMENT_SCHEMA!r}")
    bench = doc.get("bench")
    if bench not in GOLDEN_COLUMNS:
        fail(f"{path}: bench {bench!r} has no golden columns "
             f"(known: {', '.join(sorted(GOLDEN_COLUMNS))})")
    if doc.get("quick") is not True:
        fail(f"{path}: not a quick-mode run (set SPMRT_BENCH_QUICK=1)")
    key_cols, value_cols = GOLDEN_COLUMNS[bench]
    rows = {}
    for row in doc.get("rows", []):
        key = "/".join(str(row.get(col)) for col in key_cols)
        if key in rows:
            fail(f"{path}: duplicate {bench} row {key}")
        rows[key] = {col: row[col] for col in value_cols if col in row}
    return bench, rows


def diff(bench, golden, measured):
    """Every difference between two row maps, one line each."""
    lines = []
    for key in sorted(golden.keys() - measured.keys()):
        lines.append(f"{bench} {key}: golden row missing from measurement")
    for key in sorted(measured.keys() - golden.keys()):
        lines.append(f"{bench} {key}: row not in the golden file")
    for key in sorted(golden.keys() & measured.keys()):
        want, got = golden[key], measured[key]
        for col in sorted(want.keys() | got.keys()):
            if want.get(col, "<absent>") != got.get(col, "<absent>"):
                lines.append(f"{bench} {key} {col}: golden "
                             f"{want.get(col, '<absent>')}, measured "
                             f"{got.get(col, '<absent>')}")
    return lines


def check(golden_doc, measurements):
    """Compare {bench: rows} measurements against the golden document;
    returns the list of difference lines (empty when identical)."""
    lines = []
    benches = golden_doc.get("benches", {})
    for bench in sorted(benches.keys() - measurements.keys()):
        lines.append(f"{bench}: no measurement given for this golden bench")
    for bench in sorted(measurements.keys() - benches.keys()):
        lines.append(f"{bench}: measured but not in the golden file")
    for bench in sorted(benches.keys() & measurements.keys()):
        lines += diff(bench, benches[bench], measurements[bench])
    return lines


def read_measurements(paths):
    measurements = {}
    for path in paths:
        bench, rows = golden_rows(load_json(path), path)
        if bench in measurements:
            fail(f"{path}: a second {bench} measurement")
        measurements[bench] = rows
    return measurements


def write_golden(golden_path, paths):
    """Write the golden file from quick-mode bench outputs."""
    doc = {"schema": GOLDEN_SCHEMA, "benches": read_measurements(paths)}
    with open(golden_path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def self_test():
    """The gate's own logic: exact equality, per-cell reporting, and no
    vacuous pass on missing benches or rows."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    def doc(bench, rows, quick=True):
        return {"schema": MEASUREMENT_SCHEMA, "bench": bench,
                "quick": quick, "rows": rows}

    table = [{"workload": "Fib", "input": "18", "config": "ws",
              "cycles_k": 12.5, "ops_k": 3.25, "steals": 7, "ok": True,
              "wall_ms": 1.0}]
    perf = [{"workload": "fib", "cores": 16, "sim_cycles": 2145,
             "switches": 4612, "syncpoints": 5680, "equivalent": True,
             "wall_ms": 0.9},
            {"workload": "fleet", "cores": 4, "jobs": 12,
             "equivalent": True, "wall_ms": 15.5}]
    golden = {"schema": GOLDEN_SCHEMA, "benches": {
        "table1_main": golden_rows(doc("table1_main", table), "t")[1],
        "host_perf": golden_rows(doc("host_perf", perf), "h")[1]}}

    def measure(table_rows, perf_rows):
        return {"table1_main": golden_rows(doc("table1_main", table_rows),
                                           "t")[1],
                "host_perf": golden_rows(doc("host_perf", perf_rows),
                                         "h")[1]}

    expect(check(golden, measure(table, perf)) == [], "identical passes")
    slower = [dict(perf[0], wall_ms=99.0), perf[1]]
    expect(check(golden, measure(table, slower)) == [],
           "wall-clock columns are not golden")
    moved = [dict(table[0], cycles_k=12.500000000000002)]
    lines = check(golden, measure(moved, perf))
    expect(len(lines) == 1 and "Fib/18/ws cycles_k" in lines[0],
           f"a last-bit float change is one named cell: {lines}")
    twice = [dict(perf[0], switches=4613, syncpoints=5681), perf[1]]
    expect(len(check(golden, measure(table, twice))) == 2,
           "every differing cell is reported")
    expect(len(check(golden, measure(table, perf[:1]))) == 1,
           "a missing row fails")
    extra = perf + [dict(perf[0], cores=128)]
    expect(len(check(golden, measure(table, extra))) == 1,
           "an extra row fails")
    only_table = {"table1_main": measure(table, perf)["table1_main"]}
    expect(len(check(golden, only_table)) == 1,
           "a golden bench without a measurement fails")
    dropped = [{k: v for k, v in perf[0].items() if k != "syncpoints"},
               perf[1]]
    expect(len(check(golden, measure(table, dropped))) == 1,
           "a dropped golden column fails")

    for failure in failures:
        print(f"self-test FAILED: {failure}")
    print("check_golden self-test:",
          "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) < 3 or argv[1].startswith("-"):
        print(__doc__)
        return 2
    golden_doc = load_json(argv[1])
    if golden_doc.get("schema") != GOLDEN_SCHEMA:
        fail(f"{argv[1]}: schema is {golden_doc.get('schema')!r}, "
             f"expected {GOLDEN_SCHEMA!r}")
    lines = check(golden_doc, read_measurements(argv[2:]))
    for line in lines:
        print(f"MISMATCH {line}")
    if lines:
        print(f"check_golden: {len(lines)} cell(s) differ from {argv[1]}")
        return 1
    print(f"check_golden: all golden cells match {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
