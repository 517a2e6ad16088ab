#!/usr/bin/env bash
# Report-only perf comparison: diff a fresh BENCH_sim.json against the
# committed copy, column by column — per-cell events/sec, plan-cache hit
# rate, peak RSS and topology-delta apply latency (always shown for fault
# cells, where surgical invalidation and repair make all of these the
# regression surface), the sharded-engine cells (events/sec per worker
# count plus the shard-invariance signature), the flow-fidelity cells
# (reference-cell events/sec per fidelity, events reduction, the k=32
# tenancy sweep), and the microbench columns (scheduler events/sec per
# queue depth and per same-instant fan-out burst size, tree builds/sec,
# cached lookups/sec).
#
# Cells are keyed by fidelity since schema v5; v4 baselines (no fidelity
# key) read as packet. Sharded wall-clock rows are diffed only when both
# sides ran with host_cpus > 1 — a serial CI host shows ~0.9x pool
# overhead at every worker count, which is not a regression.
#
# Usage: scripts/perf_diff.sh [fresh_json]
#   fresh_json   default: BENCH_sim.json in the repo root (as written by
#                scripts/perf.sh); compared against `git show HEAD`'s copy.
#
# ALWAYS exits 0. Wall-clock throughput is machine-dependent; this script
# exists so a perf-smoke log shows drift at a glance, not to gate a build
# (the gate is perf_suite --check, which is byte-exact and machine-free).
set -uo pipefail
cd "$(dirname "$0")/.."

FRESH="${1:-BENCH_sim.json}"

if [[ ! -f "${FRESH}" ]]; then
  echo "perf_diff: ${FRESH} not found (run scripts/perf.sh first) -- skipping"
  exit 0
fi
if ! git show HEAD:BENCH_sim.json >/dev/null 2>&1; then
  echo "perf_diff: no committed BENCH_sim.json at HEAD -- nothing to diff"
  exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "perf_diff: python3 unavailable -- skipping"
  exit 0
fi

# The heredoc is python's stdin (the script itself), so the committed copy
# has to travel as a file, not a pipe.
COMMITTED="$(mktemp)"
trap 'rm -f "${COMMITTED}"' EXIT
git show HEAD:BENCH_sim.json > "${COMMITTED}"

python3 - "${COMMITTED}" "${FRESH}" <<'PY' || true
import json, sys

with open(sys.argv[1]) as f:
    committed = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

def pct(old, new):
    if not old:
        return "   n/a"
    return f"{(new - old) / old * 100.0:+6.1f}%"

def row(label, old, new):
    print(f"  {label:<44} {old:>12.0f} {new:>12.0f} {pct(old, new)}")

print(f"perf diff: committed ({committed.get('schema', '?')}, "
      f"quick={committed.get('quick')}) vs fresh ({fresh.get('schema', '?')}, "
      f"quick={fresh.get('quick')})")
if committed.get("quick") != fresh.get("quick"):
    print("  NOTE: quick-mode mismatch -- per-cell numbers are not comparable")
print(f"  {'column':<44} {'committed':>12} {'fresh':>12} {'delta':>7}")

def cells_by_key(doc):
    # "scheme" arrived with schema v3 (the in-network AllReduce cells);
    # older committed copies carried a single top-level scheme. "fidelity"
    # arrived with v5 (the flow-level engine); v4 cells are all packet.
    return {(c.get("scheme", doc.get("scheme", "Peel")), c["collective"],
             c["fat_tree_k"], c["faults"],
             c.get("fidelity", "packet")): c
            for c in doc.get("cells", [])}

old_cells, new_cells = cells_by_key(committed), cells_by_key(fresh)
for key in old_cells:
    if key not in new_cells:
        continue
    o, n = old_cells[key], new_cells[key]
    faulty = bool(key[3])
    fid = "" if key[4] == "packet" else f" {key[4]}"
    label = (f"{key[0]} {key[1]} k={key[2]}"
             f" faults={'on' if faulty else 'off'}{fid} ev/s")
    row(label, o.get("events_per_sec", 0), n.get("events_per_sec", 0))
    # Fault cells are the surgical-invalidation regression surface: always
    # show their hit rate and peak RSS; elsewhere only a changed hit rate.
    ohr, nhr = o.get("plan_cache_hit_rate"), n.get("plan_cache_hit_rate")
    if ohr is not None and nhr is not None and (faulty or ohr != nhr):
        print(f"  {'  plan-cache hit rate':<44} {ohr:>12.4f} {nhr:>12.4f}")
    if faulty:
        row("  peak_rss_kib", o.get("peak_rss_kib", 0), n.get("peak_rss_kib", 0))
        # Topology-delta apply latency: the fault-path control-plane cost.
        oda, nda = o.get("delta_apply_mean_us"), n.get("delta_apply_mean_us")
        if oda is not None and nda is not None:
            print(f"  {'  delta apply mean us':<44} {oda:>12.3f} {nda:>12.3f} "
                  f"{pct(oda, nda)}")
            row("  delta applies", o.get("delta_applies", 0),
                n.get("delta_applies", 0))
            row("  delta plans repaired", o.get("delta_plans_repaired", 0),
                n.get("delta_plans_repaired", 0))
            row("  delta plans evicted", o.get("delta_plans_evicted", 0),
                n.get("delta_plans_evicted", 0))

osh, nsh = committed.get("sharded", {}), fresh.get("sharded", {})
oshc = {c["shards"]: c for c in osh.get("cells", [])}
nshc = {c["shards"]: c for c in nsh.get("cells", [])}
# host_cpus gate: on a single-hardware-thread host the multi-worker cells
# measure pool overhead (~0.9x of shards=1), not the parallel win, so a
# sub-1x "regression" there is expected — report the rows as informational
# instead of diffing them.
host_cpus = min(osh.get("host_cpus", 0) or 0, nsh.get("host_cpus", 0) or 0)
if oshc and nshc and host_cpus <= 1:
    print(f"  sharded cells: host_cpus={nsh.get('host_cpus')} (committed "
          f"{osh.get('host_cpus')}) -- wall-clock rows reflect engine "
          f"overhead on a serial host, not the parallel win; not diffed")
else:
    for shards in sorted(oshc):
        if shards in nshc:
            row(f"sharded ev/s @ shards={shards}",
                oshc[shards].get("events_per_sec", 0),
                nshc[shards].get("events_per_sec", 0))
if nsh:
    if not nsh.get("invariant", True):
        print("  WARNING: fresh sharded cells are NOT shard-invariant "
              "(determinism bug)")
    osig, nsig = osh.get("signature", {}), nsh.get("signature", {})
    if osig and nsig and osig != nsig:
        print("  NOTE: sharded signature changed -- simulated behavior "
              "drifted (expected only when the workload or sim changed)")

owl, nwl = committed.get("workload", {}), fresh.get("workload", {})
owlc = {(c["scheme"], c.get("table_capacity", 0)): c
        for c in owl.get("cells", [])}
nwlc = {(c["scheme"], c.get("table_capacity", 0)): c
        for c in nwl.get("cells", [])}
for key in sorted(owlc):
    if key not in nwlc:
        continue
    o, n = owlc[key], nwlc[key]
    row(f"workload {key[0]} cap={key[1]} ev/s",
        o.get("events_per_sec", 0), n.get("events_per_sec", 0))
    # Admission counters are deterministic: any drift is a behavior change,
    # not noise — call it out like the sharded signature.
    for col in ("jobs_admitted", "jobs_fell_back", "admission_failures",
                "controller_updates"):
        if o.get(col) != n.get(col):
            print(f"  NOTE: workload {key[0]} cap={key[1]} {col} changed "
                  f"{o.get(col)} -> {n.get(col)}")

off, nff = committed.get("flow_fidelity", {}), fresh.get("flow_fidelity", {})
if off and nff:
    offc = {c["fidelity"]: c for c in off.get("cells", [])}
    nffc = {c["fidelity"]: c for c in nff.get("cells", [])}
    for fid in sorted(offc):
        if fid in nffc:
            row(f"flow-fidelity ref cell ({fid}) ev/s",
                offc[fid].get("events_per_sec", 0),
                nffc[fid].get("events_per_sec", 0))
    row("flow-fidelity events reduction (x)",
        off.get("events_reduction", 0), nff.get("events_reduction", 0))
    ot, nt = off.get("tenancy", {}), nff.get("tenancy", {})
    if ot and nt:
        row("flow tenancy k=32 ev/s",
            ot.get("events_per_sec", 0), nt.get("events_per_sec", 0))
        for col in ("jobs_admitted", "jobs_fell_back", "unfinished"):
            if ot.get(col) != nt.get(col):
                print(f"  NOTE: flow tenancy {col} changed "
                      f"{ot.get(col)} -> {nt.get(col)}")
if nff and not nff.get("bytes_identical", True):
    print("  WARNING: flow vs packet byte totals diverged on the reference "
          "cell (the engines no longer share tree/chunk decisions)")

om, nm = committed.get("microbench", {}), fresh.get("microbench", {})
osched = {s["queue_depth"]: s["events_per_sec"] for s in om.get("scheduler", [])}
nsched = {s["queue_depth"]: s["events_per_sec"] for s in nm.get("scheduler", [])}
for depth in sorted(osched):
    if depth in nsched:
        row(f"scheduler ev/s @ depth {depth}", osched[depth], nsched[depth])
# Fan-out rows arrived after schema v5; a side without them reads 0 (n/a).
ofan = {s["burst"]: s["events_per_sec"] for s in om.get("fanout", [])}
nfan = {s["burst"]: s["events_per_sec"] for s in nm.get("fanout", [])}
for burst in sorted(set(ofan) | set(nfan)):
    row(f"scheduler fan-out ev/s @ burst {burst}",
        ofan.get(burst, 0), nfan.get(burst, 0))
for col in ("tree_builds_per_sec", "cached_lookups_per_sec"):
    if col in om and col in nm:
        row(col, om[col], nm[col])

oref = committed.get("reference_events_per_sec", 0)
nref = fresh.get("reference_events_per_sec", 0)
row("reference cell ev/s", oref, nref)
PY

exit 0
