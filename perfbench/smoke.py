#!/usr/bin/env python3
"""Smoke test of the vismat benchmark.

    python3 perfbench/smoke.py

From the root of a vismat source tree, runs every workload BENCHMARK.json
names for the shortest window, with seed 7: once untraced and twice traced.
It checks that each run exits 0 with "correct": true and sane
attempted/failed counts, and that the seed-determined figures repeat
exactly between the two traced runs.  (vbench takes its metric names and
units from BENCHMARK.json, so they need no check here.)  Takes about two
minutes on a 2-core host.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
TRACE_DIR = os.path.join(".bench_build", "perfbench-traces")

# Figures fixed by the seed, compared across two same-seed runs.  The memo
# counters of a jobs-2 search are not among them: racing domains may both
# derive one entry (see wl_optimize.ml).
EXACT = [
    "design_cost_io", "ok_frac", "core.certificate_gap", "maintenance.io_per_row",
    "maintenance.predicted_over_measured_io", "maintenance.scrub_convicted",
] + ["core." + c for c in (
    "expanded", "generated", "evaluated", "max_frontier", "rounds",
    "modeled_speedup", "pruned.dominance", "pruned.incumbent-bound",
    "pruned.ineligible-index", "pruned.stale-bound", "pruned.beam-width",
    "pruned.expansion-budget")] + ["costmodel." + c for c in (
    "full_evals", "delta_evals", "reused_evals", "elems_computed",
    "elems_copied")] + ["storage." + c for c in (
    "reads", "writes", "accesses", "pool_hit_rate", "pool_evictions",
    "pool_overflows", "wal_writes", "wal_syncs", "checksum_verifications",
    "checksum_failures")] + ["service." + c for c in (
    "reopts", "checks", "gated", "swaps", "bounded", "group_syncs",
    "batches_per_sync", "sim_p99_latency_ms")]
EXACT_AT_JOBS1 = ["costmodel." + c for c in (
    "cache_hits", "cache_misses", "cache_entries", "cache_evictions")]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    everything = None
    if trace:
        with open(os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, SEED))) as f:
            everything = json.load(f)["metrics"]
    return p.returncode, result, everything, p.stdout + p.stderr


def main():
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    errors = []
    for w in names:
        runs = {}
        for key, trace in (("plain", 0), ("traced", 1), ("again", 1)):
            code, result, everything, out = run(w, trace)
            runs[key] = everything
            if code != 0 or result is None or result.get("correct") is not True:
                errors.append("%s trace %d: exit %d, output:\n%s" % (w, trace, code, out))
                continue
            if not 0 <= result["failed"] <= result["attempted"] or result["attempted"] < 1:
                errors.append("%s: bad attempted/failed counts" % w)
        a, b = runs.get("traced"), runs.get("again")
        if a and b:
            exact = EXACT + (EXACT_AT_JOBS1 if w != "optimize-star7" else [])
            for m in exact:
                if a.get(m) != b.get(m):
                    errors.append("%s: %s differs between same-seed runs: %r vs %r"
                                  % (w, m, a.get(m), b.get(m)))
        print("%-16s %s" % (w, "ok" if not any(e.startswith(w) for e in errors) else "FAILED"))
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
