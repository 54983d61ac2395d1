#!/usr/bin/env bash
# Benchmark smoke test: run the quick `psj bench-join` suite and compare the
# result against the committed baseline (BENCH_join.json) with bench-check.
# CI machines are noisy and slower than the baseline host, so only
# machine-independent numbers are gated: the kernel speedup ratio, each
# row's *scheduled* speedup vs. its own t=1 run (per-morsel t=1 costs
# replayed through the deterministic scheduler simulator — meaningful even
# on single-core runners), an absolute floor on the 4-thread dynamic row,
# and proof that the quick matrix exercised the steal path at least once.
# Absolute wall-clock throughput is reported but never asserted.
set -euo pipefail

PSJ="${PSJ:-target/release/psj}"
BASELINE="${BENCH_BASELINE:-BENCH_join.json}"
TOLERANCE="${BENCH_TOLERANCE:-0.25}"
# The quick matrix must keep at least this scheduled speedup at 4 threads
# on the dynamic/global row. The committed baseline sits well above it;
# the floor catches scheduler regressions that relative drift would let
# slide when the baseline itself degrades.
MIN_T4="${BENCH_MIN_T4:-1.2}"
# The partition engine must stay genuinely faster than build-index-then-join
# on unindexed streams (the config `partition_speedup_vs_rtree` gates). The
# baseline host measures ~2.3x; 1.3 leaves room for runner noise while still
# catching a partition engine that has stopped paying for itself.
MIN_PARTITION="${BENCH_MIN_PARTITION:-1.3}"
# The contended-read row re-reads a fully resident tree from 4 workers; the
# optimistic (seqlock) path must serve essentially every hit without taking
# a shard mutex. The share is a pure path-count ratio — machine-independent
# — and sits at 1.0 when healthy; 0.9 tolerates scheduling artifacts only.
MIN_OPT_SHARE="${BENCH_MIN_OPT_SHARE:-0.9}"
# Wall ratios between the three contended read paths, measured back to back
# in one process on identical read sequences — they gate the *relative*
# cost of the paths, not the machine. The optimistic path must beat the
# all-mutex locked path (baseline host ~1.45x), and the borrowing guard
# read must beat the Arc-clone optimistic read (baseline host ~1.4x; the
# guard halves the contended atomic RMWs per hit).
MIN_OPT_SPEEDUP="${BENCH_MIN_OPT_SPEEDUP:-1.1}"
MIN_GUARD_SPEEDUP="${BENCH_MIN_GUARD_SPEEDUP:-1.15}"
# Opening both saved trees from disk (page CRCs, trailer hash, decode,
# verify) against the refined one-thread join of them, medians from one
# process. The quick matrix measures ~3.0 on the baseline host (the
# committed full-scale baseline: 2.3); with the bytewise page CRC and a
# full-file trailer hash it measured 6-7. 4.5 leaves headroom for noise.
MAX_LOAD_OVER_JOIN="${BENCH_MAX_LOAD_OVER_JOIN:-4.5}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if [ ! -f "$BASELINE" ]; then
  echo "FAIL: committed baseline $BASELINE not found"; exit 1
fi

echo "== bench-join (quick) =="
"$PSJ" bench-join --quick --seed 1996 --out "$WORK/candidate.json" \
  | tee "$WORK/bench.log"

echo "== bench-check vs $BASELINE (tolerance $TOLERANCE, t4 floor $MIN_T4, partition floor $MIN_PARTITION, opt-share floor $MIN_OPT_SHARE, opt-speedup floor $MIN_OPT_SPEEDUP, guard-speedup floor $MIN_GUARD_SPEEDUP, load/join ceiling $MAX_LOAD_OVER_JOIN) =="
"$PSJ" bench-check --baseline "$BASELINE" --candidate "$WORK/candidate.json" \
  --tolerance "$TOLERANCE" --min "t4_gd_global=$MIN_T4" --require-steals \
  --min-partition "$MIN_PARTITION" --min-opt-share "$MIN_OPT_SHARE" \
  --min-opt-speedup "$MIN_OPT_SPEEDUP" --min-guard-speedup "$MIN_GUARD_SPEEDUP" \
  --max-load-over-join "$MAX_LOAD_OVER_JOIN"

echo "bench smoke test passed"
