#!/usr/bin/env bash
# Records flow-level backend scale numbers into results/BENCH_flowsim.json,
# tracking the transfers/sec trajectory of the flowsim path the way
# record_scale_baseline.sh tracks the packet path's events/sec.
#
# Runs bench/flowsim_scale (RESULT lines: poisson-1m million-transfer point,
# poisson matrix, MLTCP training campaign) and merges the parsed numbers into
# the JSON file. Existing sections other than the one being written are
# preserved, so recorded baselines survive re-runs.
#
# Two gates run when CHECK_AGAINST is set:
#  - throughput: transfers/sec must stay within TOLERANCE of the named
#    section (machine-speed dependent -> coarse, default 10%).
#  - recompute ceiling: fills_per_transfer (waterfill channel-rate freezes
#    per completed transfer — the solver's algorithmic work metric) must not
#    exceed the named section's value by more than RECOMPUTE_CEILING
#    (default 1.5x). This is machine-independent: a silent fall-back from
#    the dirty-set recompute to full waterfills (~8 fills/transfer on the
#    poisson matrix vs ~1.2 incremental) trips it even on a fast box.
#
# Usage:
#   bench/record_flowsim_baseline.sh                    # record "current"
#   SECTION=baseline bench/record_flowsim_baseline.sh   # named section
#   QUICK=1 ...                                         # CI smoke variant
#   CHECK_AGAINST=baseline TOLERANCE=0.10 RECOMPUTE_CEILING=1.5 ...
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/results/BENCH_flowsim.json"
SECTION="${SECTION:-current}"
QUICK="${QUICK:-0}"
CHECK_AGAINST="${CHECK_AGAINST:-}"
TOLERANCE="${TOLERANCE:-0.10}"
RECOMPUTE_CEILING="${RECOMPUTE_CEILING:-1.5}"

RAW="$BUILD/flowsim_scale.txt"
ARGS=()
if [ "$QUICK" = "1" ]; then ARGS+=(--quick); fi

MLTCP_RESULTS_DIR="${MLTCP_RESULTS_DIR:-$ROOT/results}" \
  "$BUILD/bench/flowsim_scale" "${ARGS[@]+"${ARGS[@]}"}" | tee "$RAW"

python3 - "$OUT" "$SECTION" "$RAW" "$CHECK_AGAINST" "$TOLERANCE" \
  "$RECOMPUTE_CEILING" <<'PY'
import json, sys

(out_path, section, raw_path, check_against, tolerance,
 recompute_ceiling) = sys.argv[1:7]
tolerance = float(tolerance)
recompute_ceiling = float(recompute_ceiling)

INT_KEYS = {"transfers", "completed", "events", "recomputes",
            "full_recomputes", "waterfill_rounds", "waterfill_channels",
            "frozen_skips", "dirty_links", "heap_updates"}
runs = []
with open(raw_path) as f:
    for line in f:
        if not line.startswith("RESULT "):
            continue
        kv = dict(item.split("=", 1) for item in line.split()[1:])
        runs.append({k: (int(v) if k in INT_KEYS
                         else v if k == "name" else float(v))
                     for k, v in kv.items()})
if not runs:
    sys.exit("no RESULT lines found in " + raw_path)

try:
    with open(out_path) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {"schema": 1, "note": "flow-level backend scale record; see "
           "bench/record_flowsim_baseline.sh, bench/flowsim_scale and "
           "DESIGN.md 'Flow-level backend'"}

doc[section] = {"runs": runs}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote section '{section}' to {out_path}")

if check_against:
    base = {r["name"]: r
            for r in doc.get(check_against, {}).get("runs", [])}
    failures = []
    for r in runs:
        b = base.get(r["name"])
        if b is None:
            continue
        floor = b["transfers_per_sec"] * (1.0 - tolerance)
        verdict = "ok" if r["transfers_per_sec"] >= floor else "REGRESSED"
        print(f"gate {r['name']}: {r['transfers_per_sec']:.0f} transfers/s "
              f"vs {check_against} {b['transfers_per_sec']:.0f} "
              f"(floor {floor:.0f}) -> {verdict}")
        if verdict != "ok":
            failures.append(r)
        # Algorithmic gate: solver work per transfer (machine-independent).
        # Older sections predate the counter; skip them.
        if "fills_per_transfer" in b and b["fills_per_transfer"] > 0:
            ceiling = b["fills_per_transfer"] * recompute_ceiling
            fpt = r.get("fills_per_transfer", 0.0)
            verdict = "ok" if fpt <= ceiling else "REGRESSED"
            print(f"gate {r['name']}: {fpt:.3f} fills/transfer vs "
                  f"{check_against} {b['fills_per_transfer']:.3f} "
                  f"(ceiling {ceiling:.3f}) -> {verdict}")
            if verdict != "ok":
                failures.append(r)
    if failures:
        sys.exit(f"{len(failures)} gate failure(s) vs section "
                 f"'{check_against}' (tolerance {tolerance:.0%}, "
                 f"recompute ceiling {recompute_ceiling:g}x)")
PY
