#!/usr/bin/env bash
# Sharded-PDES gate: the two properties the executor must hold at bench
# scale, checked in one script so CI exercises them together.
#
#  1. Determinism — a quick leaf-spine campaign run at 1 shard and at
#     N shards must produce byte-identical cluster_scale_sim.csv files
#     (the sim-deterministic view: events executed and the job/link/host/
#     switch state digest, no wall-clock or RSS columns). A sharded run
#     that reaches the serial state by different work fails the gate too.
#  2. Speedup — on a host with >= N cores the N-shard run must beat the
#     serial run by SPEEDUP_FLOOR in wall time over the leaf-spine points.
#     On smaller hosts (CI runners are often 1-2 cores) the executor falls
#     back to cooperative scheduling, so the floor drops to "not slower
#     than 1/OVERHEAD_CEIL" — the gate then only bounds sharding overhead.
#
# Usage: bench/check_shard_speedup.sh [N]   (default 4 shards)
# Env:   BUILD_DIR (default build/)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
SHARDS="${1:-4}"
SPEEDUP_FLOOR=2.0
OVERHEAD_CEIL=1.4
BIN="$BUILD/bench/cluster_scale"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (cmake --build $BUILD --target cluster_scale)"
  exit 2
fi

CORES="$(nproc 2>/dev/null || echo 1)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== serial reference (1 shard) =="
MLTCP_RESULTS_DIR="$TMP/serial" "$BIN" --quick --shards=1 \
  | tee "$TMP/serial.txt"
echo
echo "== sharded run ($SHARDS shards) =="
MLTCP_RESULTS_DIR="$TMP/sharded" "$BIN" --quick --shards="$SHARDS" \
  | tee "$TMP/sharded.txt"

echo
echo "== determinism: byte-diff of sim-deterministic CSVs =="
if ! diff -u "$TMP/serial/cluster_scale_sim.csv" \
             "$TMP/sharded/cluster_scale_sim.csv"; then
  echo "SHARD GATE FAILED: $SHARDS-shard run diverged from serial (digest or"
  echo "event-count mismatch above) — the PDES determinism guarantee is"
  echo "broken."
  exit 1
fi
echo "identical: serial and $SHARDS-shard runs did the same work and reached"
echo "the same model state"

# Wall-time comparison over the leaf-spine points (the only scenarios the
# sharded path executes; dumbbell rows stay serial in both runs).
python3 - "$TMP/serial.txt" "$TMP/sharded.txt" "$SHARDS" "$CORES" \
    "$SPEEDUP_FLOOR" "$OVERHEAD_CEIL" <<'PY'
import sys

serial_path, sharded_path, shards, cores, floor, ceil = sys.argv[1:7]
shards, cores = int(shards), int(cores)
floor, ceil = float(floor), float(ceil)

def leafspine_wall(path):
    total = 0.0
    with open(path) as f:
        for line in f:
            if not line.startswith("RESULT "):
                continue
            kv = dict(item.split("=", 1) for item in line.split()[1:])
            if kv["name"].startswith("leafspine"):
                total += float(kv["wall_s"])
    return total

serial = leafspine_wall(serial_path)
sharded = leafspine_wall(sharded_path)
if sharded <= 0.0:
    sys.exit("no leaf-spine RESULT rows in the sharded run")
speedup = serial / sharded

if cores >= shards:
    need = floor
    print(f"speedup: {speedup:.2f}x over serial ({cores} cores, "
          f"floor {need:.1f}x)")
    if speedup < need:
        sys.exit(f"SHARD GATE FAILED: {speedup:.2f}x < {need:.1f}x floor "
                 f"on a {cores}-core host")
else:
    # Cooperative fallback: no parallel hardware to win on; bound the
    # overhead instead so sharding never silently becomes a slowdown.
    need = 1.0 / ceil
    print(f"speedup: {speedup:.2f}x over serial — host has {cores} core(s) "
          f"for {shards} shards, so only the overhead bound applies "
          f"(>= {need:.2f}x, i.e. <= {ceil:.1f}x slower)")
    if speedup < need:
        sys.exit(f"SHARD GATE FAILED: cooperative {shards}-shard run is "
                 f"{1.0 / speedup:.2f}x slower than serial "
                 f"(ceiling {ceil:.1f}x)")
print("shard gate passed")
PY
