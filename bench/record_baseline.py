#!/usr/bin/env python3
"""Records one bench's runs into results/BENCH_*.json and gates them.

Usage:
  bench/record_baseline.py BENCH [--section=S] [--check-against=S] [-- ARGS]

Runs build/bench/BENCH with ARGS (the bench's own flags, e.g. --quick
--repeat=3 for cluster_scale) from the repository root and parses its runs:
`RESULT k=v ...` lines from cluster_scale and runner_scaling, google-
benchmark's --benchmark_format=json from micro_benchmarks (the median row
when repetitions are on). cluster_scale writes results/BENCH_scale.json; the
other two write results/BENCH_engine.json.

Schema 2: {"schema": 2, "<section>": {"commit", "cpus", "args", "runs"}}.
`commit` is `git rev-parse --short HEAD`, suffixed "-dirty" when src/,
bench/ or CMakeLists.txt differ from it; `cpus` is `nproc`; `args` lists
the command lines recorded into the section. Recording into a section
written at the same commit adds to it (a run replaces the run with the same
key); at another commit the section starts afresh.

--check-against=S gates the new runs against section S as it stood before
this run was recorded. Runs match on name, jobs, shards, background and
threads. A run fails when its throughput (sim_s_per_wall_s, or
items_per_second) is more than 10% below the reference, or its work
(events_per_transfer) is more than 1.5x above it. A field is gated only
when both values are positive, so rows without transfers are not gated on
work. null_msgs_per_event is recorded but not gated: threaded shards make
it vary from run to run. Exits 1 on any failure, when no run matches, or
when the matched runs carry no gated field.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = {
    "cluster_scale": "BENCH_scale.json",
    "runner_scaling": "BENCH_engine.json",
    "micro_benchmarks": "BENCH_engine.json",
}
KEY = ("name", "jobs", "shards", "background", "threads")
STRING_FIELDS = {"name", "background", "digest"}
THROUGHPUT = ("sim_s_per_wall_s", "items_per_second")
WORK = ("events_per_transfer",)
MAX_SLOWDOWN = 0.10
MAX_WORK_GROWTH = 1.5


def commit():
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src",
                            "bench", "CMakeLists.txt"], cwd=ROOT).returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_bench(bench, args):
    """Runs the bench, echoing RESULT-style output; returns its stdout."""
    cmd = [os.path.join(ROOT, "build", "bench", bench), *args]
    if bench == "micro_benchmarks":
        cmd.append("--benchmark_format=json")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        lines.append(line)
        if bench != "micro_benchmarks":
            sys.stdout.write(line)
            sys.stdout.flush()
    if proc.wait() != 0:
        sys.exit(f"{bench} exited with status {proc.returncode}; "
                 "nothing recorded")
    return "".join(lines)


def parse_value(key, value):
    if key in STRING_FIELDS:
        return value
    return float(value) if any(c in value for c in ".eE") else int(value)


def parse_runs(bench, output):
    if bench == "micro_benchmarks":
        runs = {}
        for b in json.loads(output)["benchmarks"]:
            if b.get("aggregate_name", "median") != "median":
                continue
            name = b.get("run_name", b["name"])
            runs[name] = {"name": name,
                          "items_per_second":
                              round(b.get("items_per_second", 0.0), 1),
                          "real_time_ns": round(b["real_time"], 2)}
        return list(runs.values())
    runs = []
    for line in output.splitlines():
        if line.startswith("RESULT "):
            pairs = (item.split("=", 1) for item in line.split()[1:])
            runs.append({k: parse_value(k, v) for k, v in pairs})
    return runs


def key(run):
    return tuple(run.get(k) for k in KEY)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"schema": 2}


def record(path, section, bench, args, runs):
    doc = load(path)
    stamp = commit()
    command = " ".join([bench, *args])
    old = doc.get(section)
    if old is not None and old["commit"] == stamp:
        new_keys = {key(r) for r in runs}
        runs = [r for r in old["runs"] if key(r) not in new_keys] + runs
        commands = old["args"] + ([] if command in old["args"] else [command])
    else:
        commands = [command]
    cpus = int(subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True).stdout)
    doc[section] = {"commit": stamp, "cpus": cpus, "args": commands,
                    "runs": runs}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote section '{section}' ({stamp}, {cpus} cpus) to {path}")


def gate(runs, reference, ref_name):
    """Prints one verdict per gated field; returns the failure count."""
    ref = {key(r): r for r in reference["runs"]}
    failures = 0
    matched = 0
    compared = 0
    for r in runs:
        b = ref.get(key(r))
        if b is None:
            continue
        matched += 1
        label = " ".join(f"{k}={r[k]}" for k in KEY if k in r)
        for field in THROUGHPUT + WORK:
            new, old = r.get(field, 0), b.get(field, 0)
            if new <= 0 or old <= 0:
                continue
            compared += 1
            if field in THROUGHPUT:
                bound, limit = "floor", old * (1 - MAX_SLOWDOWN)
                ok = new >= limit
            else:
                bound, limit = "ceiling", old * MAX_WORK_GROWTH
                ok = new <= limit
            print(f"gate {label}: {field} {new:g} vs {ref_name} {old:g} "
                  f"({bound} {limit:g}) -> {'ok' if ok else 'REGRESSED'}")
            failures += not ok
    if matched == 0:
        sys.exit(f"no run matches a run of section '{ref_name}'")
    if compared == 0:
        sys.exit(f"the runs matching section '{ref_name}' carry no gated "
                 "field; nothing was checked")
    return failures


def main():
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    bench_args = argv[split + 1:]
    parser = argparse.ArgumentParser(
        add_help=False,
        usage="%(prog)s BENCH [--section=S] [--check-against=S] [-- ARGS]")
    parser.add_argument("bench", choices=sorted(OUTPUT))
    parser.add_argument("--section", default="current")
    parser.add_argument("--check-against")
    opts = parser.parse_args(argv[:split])

    runs = parse_runs(opts.bench, run_bench(opts.bench, bench_args))
    if not runs:
        sys.exit(f"{opts.bench} printed no runs; nothing recorded")
    path = os.path.join(ROOT, "results", OUTPUT[opts.bench])
    # The reference as it stood before this run, so that recording into the
    # section being checked against cannot compare the runs with themselves.
    reference = load(path).get(opts.check_against)
    record(path, opts.section, opts.bench, bench_args, runs)
    if opts.check_against:
        if reference is None:
            sys.exit(f"no section '{opts.check_against}' in {path}")
        failures = gate(runs, reference, opts.check_against)
        if failures:
            sys.exit(f"{failures} gated field(s) regressed against section "
                     f"'{opts.check_against}' (throughput floor "
                     f"-{MAX_SLOWDOWN:.0%}, work ceiling {MAX_WORK_GROWTH}x)")
        print(f"gate passed against section '{opts.check_against}'")


if __name__ == "__main__":
    main()
