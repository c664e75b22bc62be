#!/usr/bin/env python3
"""Wall-time gate: the working tree (head) against commit REV (base).

Usage: bench/perf_pairs.py REV

Runs every BENCHMARK.json workload for 10 pairs, REV from a temporary git
worktree: each side of pair i is `python3 <tree>/bench/perf/run.py --workload
W --seed i --seconds 6 --trace 0`, and the side that runs first alternates.
Exits 1 when a workload's median head/base sim_s_per_wall_s is below 0.90,
its median head/base peak_rss_mb exceeds 1 + that metric's BENCHMARK.json
bound, or its head failed a larger share of repeats; one the base lacks is
not gated. Prints what bench/perf/README.md's paired rule needs ("gain" where
it holds) and records the pairs in results/BENCH_perf.json, section
"<base>..<head>".
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

import record_baseline as rb

OUTPUT = os.path.join(rb.ROOT, "results", "BENCH_perf.json")
PAIRS, SECONDS, GATED, FLOOR = 10, 6, "sim_s_per_wall_s", 0.90
MEMORY = "peak_rss_mb"  # Gated at 1 + its BENCHMARK.json bound.


def benchmark(tree):
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.exists(path):
        return {"workloads": []}
    with open(path) as f:
        return json.load(f)


def run_side(tree, workload, seed):
    """One tree's side of a pair -> {attempted, failed, <metric>: value}.
    A run.py that prints no result counts as one failed repeat."""
    p = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "perf", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True)
    try:
        r = json.loads(p.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        r = {"attempted": 1, "failed": 1, "metrics": {}}
    if r["failed"]:
        sys.stderr.write(p.stderr)
    return {"attempted": r["attempted"], "failed": r["failed"],
            **{k: m["value"] for k, m in r["metrics"].items()}}


def median_ratio(pairs, name):
    """Median over pairs of head/base `name`, or None if no pair has it."""
    ratios = [p["head"][name] / p["base"][name] for p in pairs
              if name in p["base"] and name in p["head"]]
    return statistics.median(ratios) if ratios else None


def gate(workload, pairs, end_to_end):
    """Prints one workload's paired statistics; returns why it fails the
    gate, or "" when it passes."""
    print(f"{workload:<24}{'base median':>12}{'head median':>12}"
          f"{'base IQR':>10}  head wins")
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        both = [(p["base"][name], p["head"][name]) for p in pairs
                if name in p["base"] and name in p["head"]]
        if both:
            base, head = [b for b, _ in both], [h for _, h in both]
            q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                         if len(base) > 1 else base * 3)
            wins = sum(sign * (h - b) > 0 for b, h in both)
            med_b, med_h = statistics.median(base), statistics.median(head)
            gain = (wins >= 0.9 * len(pairs)
                    and sign * (med_h - med_b) > q3 - q1)
            print(f"  {name:<22}{med_b:>12.5g}{med_h:>12.5g}{q3 - q1:>10.4g}"
                  f"  {wins}/{len(pairs)}{'  gain' if gain else ''}")
    median = median_ratio(pairs, GATED) or 0.0
    rss = median_ratio(pairs, MEMORY)
    ceiling = next((1 + m["bound"] for m in end_to_end
                    if m["name"] == MEMORY), None)
    failed = {s: sum(p[s]["failed"] for p in pairs) /
              sum(p[s]["attempted"] for p in pairs) for s in ("base", "head")}
    why = []
    if median < FLOOR:
        why.append(f"median head/base {GATED} {median:.3f} < {FLOOR}")
    if rss is not None and ceiling is not None and rss > ceiling:
        why.append(f"median head/base {MEMORY} {rss:.3f} > {ceiling:g}")
    if failed["head"] > failed["base"]:
        why.append(f"head failed {failed['head']:.1%} of its repeats, base "
                   f"{failed['base']:.1%}")
    rss_text = "-" if rss is None else f"{rss:.3f}"
    print(f"{workload}: median head/base {GATED} {median:.3f}, {MEMORY} "
          f"{rss_text}; failed repeats base {failed['base']:.1%}, head "
          f"{failed['head']:.1%} -> {'; '.join(why) or 'ok'}\n", flush=True)
    return "; ".join(why)


def compare(rev, base_tree):
    spec = benchmark(rb.ROOT)
    in_base = {w["name"] for w in benchmark(base_tree)["workloads"]}
    runs, failures = [], []
    for w in (w["name"] for w in spec["workloads"]):
        if w not in in_base:
            print(f"{w}: not in {rev}; not gated\n")
            continue
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            pair = {"workload": w, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(
                    base_tree if side == "base" else rb.ROOT, w, seed)
            b, h = pair["base"], pair["head"]
            ratio = (f"{h[GATED] / b[GATED]:.3f}" if GATED in b and GATED in h
                     else "-")
            print(f"{w} seed {seed} ({order[0]} first): head/base {GATED} "
                  f"{ratio}; failed base {b['failed']}/{b['attempted']} head "
                  f"{h['failed']}/{h['attempted']}", flush=True)
            pairs.append(pair)
        runs += pairs
        if why := gate(w, pairs, spec["end_to_end"]):
            failures.append(f"{w}: {why}")
    base, head = rb.commit(base_tree), rb.commit()
    doc = rb.load(OUTPUT)
    doc[f"{base}..{head}"] = {"base": base, "head": head, "cpus": rb.cpus(),
                              "args": [f"perf_pairs.py {rev}"], "runs": runs}
    rb.save(OUTPUT, doc)
    print(f"wrote section '{base}..{head}' to {OUTPUT}")
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: bench/perf_pairs.py REV")
    rev = sys.argv[1]
    # SIGTERM unwinds like an exception, so the worktree is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="perf_pairs.") as tmp:
        base_tree = os.path.join(tmp, "base")
        if subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                           rev], cwd=rb.ROOT, stdout=sys.stderr).returncode:
            sys.exit(f"cannot check out {rev}")
        try:
            return compare(rev, base_tree)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            base_tree], cwd=rb.ROOT)


if __name__ == "__main__":
    sys.exit(main())
