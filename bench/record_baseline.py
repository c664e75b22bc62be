#!/usr/bin/env python3
"""Records one bench's runs into results/BENCH_*.json.

Usage:
  bench/record_baseline.py BENCH [--section=S] [--tree=DIR] [-- ARGS]

Runs DIR/build/bench/BENCH with ARGS (the bench's own flags, e.g. --quick
for cluster_scale) from DIR and parses its runs:
`RESULT k=v ...` lines from cluster_scale and runner_scaling, google-
benchmark's --benchmark_format=json from micro_benchmarks (the median row
when repetitions are on). cluster_scale writes results/BENCH_scale.json; the
other two write results/BENCH_engine.json. DIR defaults to this repository;
another checkout (say, a clone of the parent commit with its own build/)
records the other side of a before/after pair into this repository's
results/, stamped with DIR's commit.

Schema 2: {"schema": 2, "<section>": {"commit", "cpus", "args", "runs"}}.
`commit` is DIR's `git rev-parse --short HEAD`, suffixed "-dirty" when
its src/, bench/ or CMakeLists.txt differ from it; `cpus` is `nproc`;
`args` lists the command lines recorded into the section. Recording into a
section written at the same commit adds to it (a run replaces the run with
the same name, jobs, shards and threads); at another commit the section
starts afresh.

It gates nothing: bench/perf_pairs.py compares wall time with the parent
commit (recording through the helpers below), and the cluster_scale_quick
ctest holds cluster_scale's work per transfer.
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
KEY = ("name", "jobs", "shards", "threads")
STRING_FIELDS = {"name", "digest"}


def commit(tree=ROOT):
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src",
                            "bench", "CMakeLists.txt"], cwd=tree).returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def cpus():
    return len(os.sched_getaffinity(0))  # What nproc counts.


def run_bench(bench, args, tree):
    """Runs tree's bench, echoing RESULT-style output; returns its stdout."""
    cmd = [os.path.join(tree, "build", "bench", bench), *args]
    if bench == "micro_benchmarks":
        cmd.append("--benchmark_format=json")
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
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


def save(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def record(path, section, bench, args, runs, tree=ROOT):
    doc = load(path)
    stamp = commit(tree)
    command = " ".join([bench, *args])
    old = doc.get(section)
    if old is not None and old["commit"] == stamp:
        new_keys = {key(r) for r in runs}
        runs = [r for r in old["runs"] if key(r) not in new_keys] + runs
        commands = old["args"] + ([] if command in old["args"] else [command])
    else:
        commands = [command]
    n = cpus()
    doc[section] = {"commit": stamp, "cpus": n, "args": commands, "runs": runs}
    save(path, doc)
    print(f"wrote section '{section}' ({stamp}, {n} cpus) to {path}")


def main():
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    bench_args = argv[split + 1:]
    parser = argparse.ArgumentParser(
        add_help=False,
        usage="%(prog)s BENCH [--section=S] [--tree=DIR] [-- ARGS]")
    parser.add_argument("bench", choices=sorted(OUTPUT))
    parser.add_argument("--section", default="current")
    parser.add_argument("--tree", default=ROOT, type=os.path.abspath)
    opts = parser.parse_args(argv[:split])

    runs = parse_runs(opts.bench, run_bench(opts.bench, bench_args, opts.tree))
    if not runs:
        sys.exit(f"{opts.bench} printed no runs; nothing recorded")
    record(os.path.join(ROOT, "results", OUTPUT[opts.bench]), opts.section,
           opts.bench, bench_args, runs, opts.tree)


if __name__ == "__main__":
    main()
