#!/usr/bin/env python3
"""The repository benchmark: builds mltcp_perf, runs it, reports metrics.

One workload, the form BENCHMARK.json's command takes (the last stdout line
is the JSON result):

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, repeats ordered round-robin so host noise spreads evenly; one
METRIC line per metric, build-perf/out/results.json, exit 1 if any
correctness check fails:

    python3 bench/perf/run.py [--seed=N] [--repeats=R] [--trace]

Each repeat is a fresh `mltcp_perf` process, so set-up time and peak RSS
belong to one workload. End-to-end metrics come from untraced repeats;
per-layer metrics from traced repeats (span times) and untraced ones (counts,
which are deterministic). See README.md for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
OUT = BUILD / "out"
BINARY = BUILD / "mltcp_perf"

WORKLOADS = ["dumbbell-8", "leafspine-256", "packet-poisson",
             "flowsim-poisson-1m", "flowsim-training"]
TRAINING = {"dumbbell-8", "leafspine-256", "flowsim-training"}
POISSON = {"packet-poisson", "flowsim-poisson-1m"}
CHILD_TIMEOUT_S = 170


def build():
    """Configures (once) and builds mltcp_perf; build output goes to stderr."""
    steps = []
    # A configure run that failed leaves a cache but no build system.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mltcp_perf",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    OUT.mkdir(parents=True, exist_ok=True)


def repeat(workload, seed, traced):
    """One fresh mltcp_perf process. Returns its JSON, or None if it failed."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed % 2**64}"]
    if traced:
        cmd += ["--trace", f"--trace-out={OUT / f'trace.{workload}.json'}"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repeat timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"{workload}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(runs):
    """Correctness of one workload's repeats: each repeat passed its own
    checks and every digest equals the first one. Returns failed repeats and
    a description of each failure."""
    failed, why = 0, []
    digest = next((r["digest"] for r in runs if r), None)
    for r in runs:
        if r is None:
            failed += 1
            why.append("repeat crashed")
        elif r["failed_checks"] or r["digest"] != digest:
            failed += 1
            why.append(", ".join(r["failed_checks"]) or
                       f"digest {r['digest']} != {digest}")
    return failed, why


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def percentile(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric(value, unit, samples):
    """A metric with the quartiles of the per-sample values behind it."""
    q1, q3 = quartiles(samples)
    return {"value": value, "unit": unit, "n": len(samples),
            "p25": q1, "p75": q3}


def end_to_end(workload, runs):
    """Untraced repeats of one seed -> the end-to-end metrics.

    Every repeat simulates identical work in each slice of the window (the
    digests check it), and host noise only ever adds time, so a slice's cost
    is its fastest repeat; the run's cost is the sum of those. p25/p75 are
    the quartiles of the same metric taken from each repeat alone."""
    profile = [min(s) for s in zip(*(r["slice_ms"] for r in runs))]
    run_s = sum(profile) / 1e3
    first = runs[0]  # Model outputs are identical in every repeat.

    def per_run(f):
        return [f(r["run_s"], r["slice_ms"]) for r in runs]

    m = {
        "sim_s_per_wall_s": metric(first["sim_s"] / run_s, "s/s", per_run(
            lambda s, _: first["sim_s"] / s)),
        "wall_us_per_transfer": metric(
            1e6 * run_s / first["transfers"], "us",
            per_run(lambda s, _: 1e6 * s / first["transfers"])),
        "slice_ms_p50": metric(percentile(profile, 50), "ms",
                               per_run(lambda _, x: percentile(x, 50))),
        "slice_ms_p99": metric(percentile(profile, 99), "ms",
                               per_run(lambda _, x: percentile(x, 99))),
    }
    setups = [s for r in runs for s in r["setup_s"]]
    rss = [r["peak_rss_mb"] for r in runs]
    m["setup_s"] = metric(statistics.median(setups), "s", setups)
    m["peak_rss_mb"] = metric(statistics.median(rss), "MB", rss)
    if workload in TRAINING:
        m["wall_ms_per_iter"] = metric(
            1e3 * run_s / first["iterations"], "ms",
            per_run(lambda s, _: 1e3 * s / first["iterations"]))
        m["iter_slowdown"] = metric(first["iter_slowdown"], "ratio",
                                    [first["iter_slowdown"]])
    if workload in POISSON:
        m["fct_p99_ms"] = metric(first["fct_p99_ms"], "ms",
                                 [first["fct_p99_ms"]])
    return m


def per_layer(untraced, traced):
    """One (untraced, traced) pair of the same seed -> per-layer metrics.
    Counts come from the untraced repeat, span times from the traced one."""
    u, t = untraced, traced
    events, transfers = u["events"], u["transfers"]
    # The traced run's wall minus what the tracer itself cost.
    work_ns = 1e9 * t["run_s"] - t["trace.spans"] * t["trace.span_ns"]
    residual_ns = work_ns - t["trace.top_level_ns"]

    def calls(layer):
        return t[f"{layer}.calls"]

    def self_ns(*layers):
        return sum(t[f"{layer}.self_ns"] for layer in layers)

    def ns_per_call(layer):
        return self_ns(layer) / calls(layer) if calls(layer) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    cc = ("tcp.cc.on_ack", "tcp.cc.on_loss", "tcp.cc.on_timeout")
    fills = u.get("flowsim.waterfill_channels", 0)
    skips = u.get("flowsim.frozen_skips", 0)
    m = {
        "sim.events": (events, "count"),
        "sim.events_per_iter": (ratio(events, u["iterations"]), "count"),
        "sim.events_per_transfer": (events / transfers, "count"),
        "sim.residual_ns_per_event": (residual_ns / events, "ns"),
        "sim.residual_ns_per_transfer": (residual_ns / transfers, "ns"),
        "net.queue.calls": (calls("net.queue"), "count"),
        "net.queue.ns_per_call": (ns_per_call("net.queue"), "ns"),
        "net.queue.busy_frac": (self_ns("net.queue") / work_ns, "ratio"),
        "net.queue.drops": (u.get("net.queue.drops", 0), "count"),
        "net.queue.max_backlog_kb": (u.get("net.queue.max_backlog_kb", 0), "KB"),
        "net.link.packets": (u.get("net.link.packets", 0), "count"),
        "net.switch.forwarded": (u.get("net.switch.forwarded", 0), "count"),
        "tcp.cc.on_ack.calls": (calls("tcp.cc.on_ack"), "count"),
        "tcp.cc.on_ack.ns_per_call": (ns_per_call("tcp.cc.on_ack"), "ns"),
        "tcp.cc.on_loss.calls": (calls("tcp.cc.on_loss"), "count"),
        "tcp.cc.on_timeout.calls": (calls("tcp.cc.on_timeout"), "count"),
        "tcp.cc.busy_frac": (self_ns(*cc) / work_ns, "ratio"),
        "tcp.sender.retransmissions":
            (u.get("tcp.sender.retransmissions", 0), "count"),
        "tcp.sender.timeouts": (u.get("tcp.sender.timeouts", 0), "count"),
        "tcp.goodput_ratio": (ratio(u.get("tcp.sender.segments_acked", 0),
                                    u.get("tcp.sender.data_packets", 0)),
                              "ratio"),
        "tcp.flows": (u.get("tcp.flows", 0), "count"),
        "core.mltcp.on_ack.calls": (calls("core.mltcp.on_ack"), "count"),
        "core.mltcp.on_ack.ns_per_call":
            (ns_per_call("core.mltcp.on_ack"), "ns"),
        "core.mltcp.busy_frac": (self_ns("core.mltcp.on_ack") / work_ns,
                                 "ratio"),
        "workload.send_message.calls":
            (calls("workload.send_message"), "count"),
        "workload.send_message.ns_per_call":
            (ns_per_call("workload.send_message"), "ns"),
        "workload.on_complete.ns_per_call":
            (ns_per_call("workload.on_complete"), "ns"),
        "traffic.generate_ms": (u["traffic.generate_ms"], "ms"),
        "flowsim.recomputes": (u.get("flowsim.recomputes", 0), "count"),
        "flowsim.waterfill_channels": (fills, "count"),
        "flowsim.fills_per_transfer": (ratio(fills, transfers), "count"),
        "flowsim.frozen_skip_ratio": (ratio(skips, skips + fills), "ratio"),
        "flowsim.heap_updates": (u.get("flowsim.heap_updates", 0), "count"),
        "flowsim.stalls": (u.get("flowsim.stalls", 0), "count"),
        "trace.clock_ns": (t["trace.clock_ns"], "ns"),
        "trace.span_ns": (t["trace.span_ns"], "ns"),
        "trace.overhead_ratio": (t["run_s"] / u["run_s"], "ratio"),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in m.items()}


def median_layers(pairs):
    """Per-layer metrics of several pairs -> medians with quartiles."""
    each = [per_layer(u, t) for u, t in pairs]
    return {k: metric(statistics.median(x[k]["value"] for x in each),
                      each[0][k]["unit"], [x[k]["value"] for x in each])
            for k in each[0]}


def benchmark_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_one(args):
    """One-workload form: repeats until --seconds is used up (a repeat is not
    started if the longest one so far would overrun)."""
    e2e_names, layer_names = benchmark_contract()
    start = time.monotonic()
    runs, pairs, longest = [], [], 0.0
    while True:
        t0 = time.monotonic()
        u = repeat(args.workload, args.seed, False)
        runs.append(u)
        if u is not None and args.trace:
            t = repeat(args.workload, args.seed, True)
            runs.append(t)
            pairs.append((u, t))
        if None in runs:
            break
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > args.seconds:
            break
    failed, why = check(runs)
    for w in why:
        print(f"{args.workload}: {w}", file=sys.stderr)
    ok = failed == 0
    if not ok:
        metrics, names = {}, []
    elif args.trace:
        metrics, names = median_layers(pairs), layer_names
    else:
        metrics, names = end_to_end(args.workload, runs), e2e_names
    print(json.dumps({
        "correct": ok,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"],
                        "unit": metrics[k]["unit"]} for k in names},
    }))
    return 0


def run_suite(args):
    """Suite form: every workload, `repeats` rounds of one repeat each."""
    runs = {w: [] for w in WORKLOADS}
    for _ in range(args.repeats):
        for w in WORKLOADS:
            runs[w].append(repeat(w, args.seed, False))
    traced = {}
    if args.trace:
        for w in WORKLOADS:
            traced[w] = repeat(w, args.seed, True)
    results, failures = {}, []
    for w in WORKLOADS:
        checked = runs[w] + ([traced[w]] if args.trace else [])
        failed, why = check(checked)
        failures += [f"{w}: {x}" for x in why]
        ok = [r for r in runs[w] if r]
        m = end_to_end(w, ok) if ok else {}
        m["failed_frac"] = metric(failed / len(checked), "ratio",
                                  [failed / len(checked)])
        if args.trace and traced[w] and ok:
            m.update(median_layers([(ok[0], traced[w])]))
        results[w] = m
        for name, v in m.items():
            print(f"METRIC workload={w} name={name} value={v['value']:.6g} "
                  f"unit={v['unit']} n={v['n']} p25={v['p25']:.6g} "
                  f"p75={v['p75']:.6g}")
    with open(OUT / "results.json", "w") as f:
        json.dump({"seed": args.seed, "repeats": args.repeats,
                   "failures": failures, "workloads": results}, f, indent=1)
    for x in failures:
        print(f"FAILED {x}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    build()
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
