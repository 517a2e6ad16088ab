// Simulator performance suite: the repo's persistent perf trajectory.
//
// Default mode runs a fixed grid of scenario cells — Broadcast / AllGather /
// AllReduce (host-side Peel plus the in-network InNet AllReduce) on 8-ary
// and 16-ary fat-trees, with and without flapping links —
// plus a component microbench section (raw scheduler throughput at three
// queue-depth regimes and under same-instant fan-out bursts of 8 and 512,
// control-plane tree-builds/sec, memoized lookups/sec)
// and writes BENCH_sim.json (events/sec, segments/sec, wall time, peak RSS,
// plan-cache hit rate per cell, microbench columns) so successive PRs can
// compare data-plane throughput on the same workload. The reference cell for
// speedup tracking is the k=16 Broadcast without faults.
//
// Schema v5 keys every cell by `fidelity` (packet | flow) and adds a
// `flow_fidelity` section: the reference cell re-run under the flow-level
// engine (events reduction vs packet is the headline number, >= 20x
// expected at the 8 MiB grid message) plus a k=32 fat-tree 1000-job
// multi-tenant tenancy sweep that is only tractable under flow fidelity.
//
// `perf_suite --microbench` runs only the component microbenches (fast, no
// JSON) — the quick perf leg of scripts/check.sh.
//
// `perf_suite --check <repo_root>` is the determinism gate (wired into
// ctest): it recomputes a slice of two committed reference CSVs with the
// exact full-mode bench parameters — the 2 MiB row set of
// fig5_cct_vs_msgsize.csv and the 2-flapping-links row set of
// fig7_dynamic_failures.csv — and fails unless every recomputed row is
// byte-for-byte identical to the committed one. Environment knobs
// (PEEL_BENCH_*) are deliberately ignored here; the check must reproduce
// what the full benches wrote, not what the current shell says.
//
// Environment (default and --microbench modes only):
//   PEEL_BENCH_QUICK=1            smaller sample counts for CI smoke runs
//   PEEL_BENCH_SAMPLES=<n>        override the per-cell collective count
//   PEEL_PERF_BASELINE_EPS=<x>    events/sec of the reference cell measured
//                                 on a baseline build; emitted into the JSON
//                                 with the resulting speedup factor
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/collectives/plan_cache.h"
#include "src/harness/bench_env.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/harness/workload.h"
#include "src/prefix/plan.h"
#include "src/sim/event_queue.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"

using namespace peel;

namespace {

[[nodiscard]] long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

[[nodiscard]] const char* json_bool(bool b) { return b ? "true" : "false"; }

/// Every cell runs once unmeasured before its timed run. Each run builds its
/// own engine, so the timed run must reproduce the warm-up's CCTs exactly;
/// anything else is a determinism bug, and the suite stops on it.
void require_same_ccts(const ScenarioResult& warmup,
                       const ScenarioResult& measured, const char* cell) {
  if (warmup.cct_seconds.values() == measured.cct_seconds.values()) return;
  std::fprintf(stderr,
               "perf_suite: %s: the timed run's CCTs differ from its "
               "warm-up's -- the simulation is not deterministic\n",
               cell);
  std::abort();
}

// ---------------------------------------------------------------------------
// Default mode: the measured perf grid.
// ---------------------------------------------------------------------------

struct PerfCellResult {
  Scheme scheme;
  CollectiveKind kind;
  int fat_tree_k;
  bool faults;
  double wall_seconds = 0.0;
  ScenarioResult result;
  long rss_kib = 0;
};

ScenarioConfig perf_cell_config(Scheme scheme, CollectiveKind kind, bool faults,
                                int samples) {
  ScenarioConfig c;
  c.scheme = scheme;
  c.collective = kind;
  c.group_size = 64;
  c.message_bytes = 8 * kMiB;
  c.collectives = samples;
  // Iteration reuse: cycle the samples over 4 member sets, the way training
  // jobs resubmit on fixed ranks — the grid's cache columns measure real
  // memoization instead of an all-miss parade of one-shot groups.
  c.group_pool = 4;
  c.sim = bench::scaled_sim(c.message_bytes, 42);
  c.seed = 4242;
  c.byte_audit = false;
  if (faults) {
    c.faults.flap.mtbf_seconds = 2e-3;
    c.faults.flap.mttr_seconds = 300e-6;
    c.faults.flap.links = 4;
    c.faults.flap.horizon_seconds = 15e-3;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Sharded engine reference cells: the same workload at 1/2/4/8 worker
// threads through the pod-sharded engine (src/sim/sharded.h). The cells
// serve two purposes: a wall-clock trajectory for the parallel engine
// (meaningful only on multi-core hosts — host_cpus is recorded next to the
// numbers), and an invariance signature (events, segments, bytes, CCT sum)
// that must be identical at every worker count — the grid-level version of
// tests/shard_invariance_test.cpp.
// ---------------------------------------------------------------------------

struct ShardedCellResult {
  int shards = 0;
  double wall_seconds = 0.0;
  ScenarioResult result;
};

ScenarioConfig sharded_cell_config(int samples) {
  ScenarioConfig c;
  c.scheme = Scheme::Peel;
  c.collective = CollectiveKind::Broadcast;
  // 2048 GPUs on the k=16 fat-tree span 4 pods (512 GPUs per pod), so every
  // collective exercises the cross-domain mailbox paths, not just one shard.
  c.group_size = 2048;
  c.message_bytes = 4 * kMiB;
  c.collectives = samples;
  c.group_pool = 2;
  c.sim = bench::scaled_sim(c.message_bytes, 42);
  c.seed = 20338;
  c.byte_audit = false;
  return c;
}

[[nodiscard]] std::vector<ShardedCellResult> run_sharded_cells(int samples) {
  const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
  const Fabric fabric = Fabric::of(ft);
  const ScenarioConfig base = sharded_cell_config(samples);

  std::vector<ShardedCellResult> cells;
  for (int shards : {1, 2, 4, 8}) {
    ScenarioConfig config = base;
    config.shards = shards;
    // Unmeasured warmup (see the grid above).
    const ScenarioResult warmup = run_scenario(fabric, config);
    const auto start = std::chrono::steady_clock::now();
    ScenarioResult r = run_scenario(fabric, config);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    require_same_ccts(warmup, r, "sharded cell");
    ShardedCellResult cell;
    cell.shards = shards;
    cell.wall_seconds = wall.count();
    cell.result = std::move(r);
    cells.push_back(std::move(cell));
    std::printf("  sharded shards=%d  %8.2fs wall  %9.0f events/s\n", shards,
                cell.wall_seconds,
                static_cast<double>(cell.result.events) / cell.wall_seconds);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Workload engine cells: the continuous multi-tenant traffic path
// (src/harness/workload.h) — job arrivals, churn, and group-table admission
// on top of the same data plane. One PEEL cell and one table-constrained
// IP-multicast cell, so the trajectory catches regressions in the arrival/
// churn control plane as well as the underlying engine.
// ---------------------------------------------------------------------------

struct WorkloadCellResult {
  Scheme scheme = Scheme::Peel;
  std::size_t capacity = 0;
  double wall_seconds = 0.0;
  WorkloadResult result;
};

[[nodiscard]] std::vector<WorkloadCellResult> run_workload_cells(int jobs) {
  const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
  const Fabric fabric = Fabric::of(ft);
  WorkloadConfig base;
  base.arrivals.jobs = jobs;
  base.arrivals.message_bytes = 512 * kKiB;
  base.arrivals.group_sizes = {8, 16, 32};
  base.arrivals.iterations = 2;
  base.arrivals.iteration_gap_seconds = 100e-6;
  base.arrivals.hold_seconds = 1e-3;
  base.arrivals.fragmented_share = 0.25;
  base.arrivals.buddy_share = 0.5;
  base.arrivals.rate_per_second = job_rate_for_load(
      fabric, 0.20, base.arrivals.message_bytes, 16, base.arrivals.iterations);
  base.churn.events_per_job = 1;
  base.seed = 20260809;
  base.byte_audit = false;

  std::vector<WorkloadCellResult> cells;
  for (const auto& [scheme, capacity] :
       std::vector<std::pair<Scheme, std::size_t>>{{Scheme::Peel, 0},
                                                   {Scheme::Optimal, 16}}) {
    WorkloadConfig config = base;
    config.scheme = scheme;
    config.table_capacity = capacity;
    (void)run_workload(fabric, config);  // unmeasured warmup, as in the grid
    const auto start = std::chrono::steady_clock::now();
    WorkloadResult r = run_workload(fabric, config);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    WorkloadCellResult cell;
    cell.scheme = scheme;
    cell.capacity = capacity;
    cell.wall_seconds = wall.count();
    cell.result = std::move(r);
    std::printf("  workload %-7s cap=%-3zu %8.2fs wall  %9.0f events/s\n",
                to_string(scheme), capacity, cell.wall_seconds,
                static_cast<double>(cell.result.sim.events) /
                    cell.wall_seconds);
    cells.push_back(std::move(cell));
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Flow-fidelity cells (schema v5): the reference grid cell under both
// engines — same trees, same chunks, so byte totals match exactly and the
// events column shows the fluid model's discount — plus the k=32 tenancy
// sweep the packet engine cannot finish in bench-budget wall time.
// ---------------------------------------------------------------------------

struct FlowFidelityResults {
  double packet_wall = 0.0;
  double flow_wall = 0.0;
  ScenarioResult packet;
  ScenarioResult flow;
  int tenancy_jobs = 0;
  double tenancy_wall = 0.0;
  WorkloadResult tenancy;
};

[[nodiscard]] FlowFidelityResults run_flow_fidelity_cells(int samples) {
  FlowFidelityResults out;
  const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
  const Fabric fabric = Fabric::of(ft);
  ScenarioConfig config = perf_cell_config(Scheme::Peel,
                                           CollectiveKind::Broadcast,
                                           /*faults=*/false, samples);
  for (const Fidelity fidelity : {Fidelity::Packet, Fidelity::Flow}) {
    config.fidelity = fidelity;
    // Unmeasured warmup, as in the grid.
    const ScenarioResult warmup = run_scenario(fabric, config);
    const auto start = std::chrono::steady_clock::now();
    ScenarioResult r = run_scenario(fabric, config);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    require_same_ccts(warmup, r, "flow-fidelity cell");
    std::printf("  fidelity=%-6s %8.2fs wall  %12llu events  %9.0f events/s\n",
                to_string(fidelity), wall.count(),
                static_cast<unsigned long long>(r.events),
                static_cast<double>(r.events) / wall.count());
    if (fidelity == Fidelity::Packet) {
      out.packet_wall = wall.count();
      out.packet = std::move(r);
    } else {
      out.flow_wall = wall.count();
      out.flow = std::move(r);
    }
  }
  const double reduction =
      out.flow.events > 0
          ? static_cast<double>(out.packet.events) /
                static_cast<double>(out.flow.events)
          : 0.0;
  std::printf("  events reduction: %.1fx%s\n", reduction,
              reduction < 20.0 ? "  (WARNING: below the 20x target)" : "");

  // k=32 tenancy sweep: 1000 jobs (quick: 100) on a 512-endpoint fat-tree.
  // Lean per-ToR fan-out keeps the exercise on the pod/core tiers.
  FatTreeConfig big;
  big.k = 32;
  big.hosts_per_tor = 1;
  big.gpus_per_host = 1;
  const FatTree ft32 = build_fat_tree(big);
  const Fabric fabric32 = Fabric::of(ft32);
  WorkloadConfig wc;
  wc.scheme = Scheme::Peel;
  wc.fidelity = Fidelity::Flow;
  wc.arrivals.jobs = bench::samples_override(1000, 100);
  wc.arrivals.message_bytes = 512 * kKiB;
  wc.arrivals.group_sizes = {8, 16, 32};
  wc.arrivals.iterations = 2;
  wc.arrivals.iteration_gap_seconds = 100e-6;
  wc.arrivals.hold_seconds = 1e-3;
  wc.arrivals.fragmented_share = 0.25;
  wc.arrivals.buddy_share = 0.5;
  wc.arrivals.rate_per_second = job_rate_for_load(
      fabric32, 0.20, wc.arrivals.message_bytes, 16, wc.arrivals.iterations);
  wc.churn.events_per_job = 1;
  wc.seed = 20260809;
  wc.byte_audit = false;
  out.tenancy_jobs = wc.arrivals.jobs;
  const auto start = std::chrono::steady_clock::now();
  out.tenancy = run_workload(fabric32, wc);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  out.tenancy_wall = wall.count();
  std::printf("  tenancy k=32 jobs=%d (flow)  %8.2fs wall  %9.0f events/s  "
              "%zu/%zu admitted\n",
              out.tenancy_jobs, out.tenancy_wall,
              static_cast<double>(out.tenancy.sim.events) / out.tenancy_wall,
              out.tenancy.jobs_admitted, out.tenancy.jobs_submitted);
  return out;
}

/// True iff every cell carries the same simulated results as the first —
/// the byte-identity claim at grid scale.
[[nodiscard]] bool sharded_cells_invariant(
    const std::vector<ShardedCellResult>& cells) {
  const ScenarioResult& ref = cells.front().result;
  for (const ShardedCellResult& c : cells) {
    if (c.result.events != ref.events || c.result.segments != ref.segments ||
        c.result.fabric_bytes != ref.fabric_bytes ||
        c.result.core_bytes != ref.core_bytes ||
        c.result.unfinished != ref.unfinished ||
        c.result.cct_seconds.values() != ref.cct_seconds.values()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Component microbenches: scheduler and control-plane construction in
// isolation, free of data-plane logic — the columns that say WHERE a grid
// regression lives.
// ---------------------------------------------------------------------------

/// Pseudo-random scheduling deltas: mostly ladder-scale (1 ns – ~8 µs, the
/// serialization/propagation range) with every 256th thrown ~1 ms out, so
/// rungs, the active heap, overflow, and rebase all stay on the measured
/// path.
struct LadderDeltas {
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;

  SimTime next() noexcept {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t draw = lcg >> 33;
    if ((draw & 0xff) == 0) return kMillisecond;
    return 1 + static_cast<SimTime>(draw % 8192);
  }
};

/// Self-sustaining event churn: every fired event reschedules itself a
/// pseudo-random delta ahead, so the queue holds a constant population while
/// the clock advances — the pop-one-push-one steady state of a simulation.
struct ChurnSink final : SimEventSink {
  EventQueue* queue = nullptr;
  LadderDeltas deltas;
  std::uint64_t remaining = 0;

  void on_sim_event(const SimEvent& ev) override {
    if (remaining == 0) return;
    --remaining;
    queue->after(deltas.next(), ev);
  }
};

/// Steady-state scheduler throughput at a fixed queue depth.
[[nodiscard]] double scheduler_events_per_sec(std::size_t depth,
                                              std::uint64_t ops) {
  EventQueue queue;
  ChurnSink sink;
  sink.queue = &queue;
  sink.remaining = ops;
  queue.bind_sink(&sink);
  SimEvent ev;
  ev.kind = SimEventKind::Pump;
  for (std::size_t i = 0; i < depth; ++i) queue.after(sink.deltas.next(), ev);

  const auto start = std::chrono::steady_clock::now();
  while (queue.processed() < ops && queue.step()) {
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(queue.processed()) / wall.count();
}

/// Multicast fan-out: the queue holds `depth` events in same-instant bursts
/// of `burst` (a switch replicating a segment onto every out-link, a CNP
/// from every receiver); the last member of each burst schedules the next
/// burst a ladder-scale delta ahead.
struct FanoutSink final : SimEventSink {
  EventQueue* queue = nullptr;
  LadderDeltas deltas;
  std::int32_t burst = 1;
  std::uint64_t remaining = 0;

  void schedule_burst() {
    const SimTime t = queue->now() + deltas.next();
    SimEvent ev;
    ev.kind = SimEventKind::Pump;
    for (ev.b = 0; ev.b < burst; ++ev.b) queue->at(t, ev);
  }

  void on_sim_event(const SimEvent& ev) override {
    if (ev.b + 1 < burst || remaining == 0) return;
    remaining -= std::min<std::uint64_t>(remaining,
                                         static_cast<std::uint64_t>(burst));
    schedule_burst();
  }
};

/// Scheduler throughput under same-instant bursts at a fixed queue depth.
[[nodiscard]] double fanout_events_per_sec(std::size_t depth, int burst,
                                           std::uint64_t ops) {
  EventQueue queue;
  FanoutSink sink;
  sink.queue = &queue;
  sink.burst = burst;
  sink.remaining = ops;
  queue.bind_sink(&sink);
  for (std::size_t i = 0; i < depth; i += static_cast<std::size_t>(burst)) {
    sink.schedule_burst();
  }

  const auto start = std::chrono::steady_clock::now();
  while (queue.processed() < ops && queue.step()) {
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(queue.processed()) / wall.count();
}

struct MicrobenchResults {
  // events/sec at shallow / typical / deep queue populations.
  std::vector<std::pair<std::size_t, double>> scheduler;
  /// events/sec per same-instant burst size, at kFanoutDepth.
  std::vector<std::pair<int, double>> fanout;
  double tree_builds_per_sec = 0.0;    ///< raw build_peel_plan, k=16, 64 GPUs
  double cached_lookups_per_sec = 0.0; ///< same key through TreePlanCache
};

constexpr std::size_t kFanoutDepth = std::size_t{1} << 10;

[[nodiscard]] MicrobenchResults run_microbench() {
  MicrobenchResults r;
  const bool quick = bench::quick_mode();
  const std::uint64_t sched_ops = quick ? 200'000 : 2'000'000;
  for (std::size_t depth : {std::size_t{1} << 10, std::size_t{1} << 15,
                            std::size_t{1} << 18}) {
    r.scheduler.emplace_back(depth, scheduler_events_per_sec(depth, sched_ops));
  }
  for (int burst : {8, 512}) {
    r.fanout.emplace_back(burst,
                          fanout_events_per_sec(kFanoutDepth, burst, sched_ops));
  }

  const FatTree ft = build_fat_tree(FatTreeConfig{16, 8, 8});
  const std::vector<NodeId>& gpus = ft.endpoints();
  const NodeId source = gpus.front();
  const std::vector<NodeId> dests(gpus.begin() + 1, gpus.begin() + 64);

  const int builds = quick ? 300 : 3000;
  std::size_t sink_packets = 0;  // defeat dead-code elimination
  const auto build_start = std::chrono::steady_clock::now();
  for (int i = 0; i < builds; ++i) {
    sink_packets += build_peel_plan(ft, source, dests).packets.size();
  }
  const std::chrono::duration<double> build_wall =
      std::chrono::steady_clock::now() - build_start;
  r.tree_builds_per_sec = builds / build_wall.count();

  TreePlanCache cache;
  const int lookups = builds * 100;
  const auto hit_start = std::chrono::steady_clock::now();
  for (int i = 0; i < lookups; ++i) {
    const auto plan = cache.get_or_build<PeelPlan>(
        PlanKind::PeelPlan, source, dests, PeelCoverOptions{},
        [&] { return build_peel_plan(ft, source, dests); });
    sink_packets += plan->packets.size();
  }
  const std::chrono::duration<double> hit_wall =
      std::chrono::steady_clock::now() - hit_start;
  r.cached_lookups_per_sec = lookups / hit_wall.count();

  if (sink_packets == 0) std::fprintf(stderr, "microbench: empty plans?\n");
  return r;
}

void print_microbench(const MicrobenchResults& r) {
  Table table({"microbench", "depth / key", "ops/s"});
  for (const auto& [depth, eps] : r.scheduler) {
    table.add_row({"scheduler steady-state", cell("%zu events", depth),
                   cell("%.0f", eps)});
  }
  for (const auto& [burst, eps] : r.fanout) {
    table.add_row({"scheduler fan-out",
                   cell("%zu events, bursts of %d", kFanoutDepth, burst),
                   cell("%.0f", eps)});
  }
  table.add_row({"peel plan build", "k=16, 64 GPUs",
                 cell("%.0f", r.tree_builds_per_sec)});
  table.add_row({"plan cache hit", "same key",
                 cell("%.0f", r.cached_lookups_per_sec)});
  table.print(std::cout);
}

int run_perf_grid() {
  bench::banner("Simulator performance suite",
                "data-plane throughput trajectory (BENCH_sim.json)");
  const int samples = bench::samples_override(12, 3);
  const std::vector<int> fat_tree_ks = {8, 16};
  // (scheme, collective) rows of the grid. AllReduce runs twice: the
  // host-side tree-reduce + multicast baseline and the in-network InNet
  // scheme (switch-combined reduce up the mirrored prefix tree), so the
  // JSON carries both sides of the in-network-vs-host comparison under
  // identical load, clean and faulted.
  const std::vector<std::pair<Scheme, CollectiveKind>> rows = {
      {Scheme::Peel, CollectiveKind::Broadcast},
      {Scheme::Peel, CollectiveKind::AllGather},
      {Scheme::Peel, CollectiveKind::AllReduce},
      {Scheme::InNet, CollectiveKind::AllReduce},
  };

  std::vector<PerfCellResult> cells;
  for (int k : fat_tree_ks) {
    const FatTree ft = build_fat_tree(FatTreeConfig{k, k / 2, 8});
    const Fabric fabric = Fabric::of(ft);
    for (const auto& [scheme, kind] : rows) {
      for (bool faults : {false, true}) {
        const ScenarioConfig config =
            perf_cell_config(scheme, kind, faults, samples);
        // Unmeasured warmup run: the small cells finish in ~100 ms, where
        // first-touch page faults and the allocator state left behind by
        // the previous cell would otherwise dominate the wall time. Each
        // run constructs its own Network/runner/cache, so the measured
        // run's simulation results and counters are unaffected.
        const ScenarioResult warmup = run_scenario(fabric, config);
        const auto start = std::chrono::steady_clock::now();
        ScenarioResult r = run_scenario(fabric, config);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        require_same_ccts(warmup, r, "grid cell");
        PerfCellResult cell;
        cell.scheme = scheme;
        cell.kind = kind;
        cell.fat_tree_k = k;
        cell.faults = faults;
        cell.wall_seconds = wall.count();
        cell.result = std::move(r);
        cell.rss_kib = peak_rss_kib();
        cells.push_back(std::move(cell));
        std::printf("  %-5s %-9s k=%-2d faults=%d  %8.2fs wall  %9.0f events/s\n",
                    to_string(scheme), to_string(kind), k, faults ? 1 : 0,
                    cell.wall_seconds,
                    static_cast<double>(cell.result.events) /
                        cell.wall_seconds);
      }
    }
  }

  Table table({"scheme", "collective", "fat-tree k", "faults", "wall (s)",
               "events/s", "segments/s", "plan hit %", "peak RSS (MiB)"});
  double reference_eps = 0.0;
  for (const PerfCellResult& c : cells) {
    const double eps =
        static_cast<double>(c.result.events) / c.wall_seconds;
    const double sps =
        static_cast<double>(c.result.segments) / c.wall_seconds;
    if (c.kind == CollectiveKind::Broadcast && c.fat_tree_k == 16 &&
        !c.faults) {
      reference_eps = eps;
    }
    table.add_row({to_string(c.scheme), to_string(c.kind),
                   cell("%d", c.fat_tree_k),
                   c.faults ? "on" : "off", cell("%.2f", c.wall_seconds),
                   cell("%.0f", eps), cell("%.0f", sps),
                   cell("%.1f", c.result.plan_cache.hit_rate() * 100.0),
                   cell("%.1f", static_cast<double>(c.rss_kib) / 1024.0)});
  }
  table.print(std::cout);

  std::printf("\nsharded engine (k=16 fat-tree, 2048-GPU broadcast, 4 pods)\n");
  const int sharded_samples = bench::samples_override(4, 1);
  const std::vector<ShardedCellResult> sharded =
      run_sharded_cells(sharded_samples);
  const bool sharded_ok = sharded_cells_invariant(sharded);
  const double sharded_base_eps =
      static_cast<double>(sharded.front().result.events) /
      sharded.front().wall_seconds;
  {
    Table stable({"shards", "wall (s)", "events/s", "speedup vs 1"});
    for (const ShardedCellResult& c : sharded) {
      const double eps =
          static_cast<double>(c.result.events) / c.wall_seconds;
      stable.add_row({cell("%d", c.shards), cell("%.2f", c.wall_seconds),
                      cell("%.0f", eps),
                      cell("%.2f", eps / sharded_base_eps)});
    }
    stable.print(std::cout);
    std::printf("  invariance signature %s (%u hardware thread(s))\n",
                sharded_ok ? "IDENTICAL across shard counts"
                           : "DIVERGED — determinism bug",
                std::thread::hardware_concurrency());
  }

  std::printf("\nworkload engine (k=8 fat-tree, continuous job arrivals)\n");
  const int workload_jobs = bench::samples_override(300, 60);
  const std::vector<WorkloadCellResult> workload =
      run_workload_cells(workload_jobs);
  {
    Table wtable({"scheme", "capacity", "wall (s)", "events/s", "admitted",
                  "fell back", "ctrl updates", "hottest switch"});
    for (const WorkloadCellResult& c : workload) {
      wtable.add_row(
          {to_string(c.scheme),
           c.capacity == 0 ? std::string("-") : std::to_string(c.capacity),
           cell("%.2f", c.wall_seconds),
           cell("%.0f", static_cast<double>(c.result.sim.events) /
                            c.wall_seconds),
           cell("%zu / %zu", c.result.jobs_admitted, c.result.jobs_submitted),
           cell("%zu", c.result.jobs_fell_back),
           cell("%llu",
                static_cast<unsigned long long>(c.result.controller_updates)),
           cell("%zu", c.result.tcam_peak_occupancy)});
    }
    wtable.print(std::cout);
  }

  std::printf(
      "\nflow fidelity (reference cell both engines; k=32 tenancy sweep)\n");
  const FlowFidelityResults flowf = run_flow_fidelity_cells(samples);

  std::printf("\ncomponent microbenches\n");
  const MicrobenchResults micro = run_microbench();
  print_microbench(micro);

  double baseline_eps = 0.0;
  if (const char* v = std::getenv("PEEL_PERF_BASELINE_EPS")) {
    baseline_eps = std::atof(v);
  }

  std::FILE* out = std::fopen("BENCH_sim.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sim.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"peel.perf_suite.v5\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", json_bool(bench::quick_mode()));
  std::fprintf(out, "  \"group_size\": 64,\n");
  std::fprintf(out, "  \"group_pool\": 4,\n");
  std::fprintf(out, "  \"message_mib\": 8,\n");
  std::fprintf(out, "  \"samples_per_cell\": %d,\n", samples);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PerfCellResult& c = cells[i];
    const double eps = static_cast<double>(c.result.events) / c.wall_seconds;
    const double sps = static_cast<double>(c.result.segments) / c.wall_seconds;
    const PlanCacheStats& pc = c.result.plan_cache;
    std::fprintf(
        out,
        "    {\"scheme\": \"%s\", \"collective\": \"%s\", "
        "\"fat_tree_k\": %d, \"faults\": %s, \"fidelity\": \"packet\",\n"
        "     \"wall_seconds\": %.3f, \"sim_seconds\": %.6f,\n"
        "     \"events\": %llu, \"events_per_sec\": %.0f,\n"
        "     \"segments\": %llu, \"segments_per_sec\": %.0f,\n"
        "     \"plan_cache_hits\": %llu, \"plan_cache_misses\": %llu,\n"
        "     \"plan_cache_hit_rate\": %.4f, "
        "\"plan_cache_invalidations\": %llu, "
        "\"plan_cache_repairs\": %llu,\n"
        "     \"delta_applies\": %llu, \"delta_apply_mean_us\": %.3f, "
        "\"delta_apply_max_us\": %.3f,\n"
        "     \"delta_plans_repaired\": %llu, "
        "\"delta_plans_evicted\": %llu,\n"
        "     \"reduce_sram_peak\": %llu, "
        "\"reduce_sram_peak_max_domain\": %llu,\n"
        "     \"unfinished\": %zu, \"peak_rss_kib\": %ld}%s\n",
        to_string(c.scheme), to_string(c.kind), c.fat_tree_k,
        json_bool(c.faults), c.wall_seconds,
        c.result.sim_seconds,
        static_cast<unsigned long long>(c.result.events), eps,
        static_cast<unsigned long long>(c.result.segments), sps,
        static_cast<unsigned long long>(pc.hits),
        static_cast<unsigned long long>(pc.misses), pc.hit_rate(),
        static_cast<unsigned long long>(pc.invalidations),
        static_cast<unsigned long long>(pc.repairs),
        static_cast<unsigned long long>(c.result.delta_applies),
        c.result.delta_applies > 0
            ? c.result.delta_apply_total_us /
                  static_cast<double>(c.result.delta_applies)
            : 0.0,
        c.result.delta_apply_max_us,
        static_cast<unsigned long long>(c.result.delta_plans_repaired),
        static_cast<unsigned long long>(c.result.delta_plans_evicted),
        static_cast<unsigned long long>(c.result.reduce_sram_peak),
        static_cast<unsigned long long>(c.result.reduce_sram_peak_max_domain),
        c.result.unfinished, c.rss_kib, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"sharded\": {\n");
  std::fprintf(out,
               "    \"fat_tree_k\": 16, \"group_size\": 2048, "
               "\"message_mib\": 4, \"samples\": %d,\n",
               sharded_samples);
  std::fprintf(out, "    \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(
      out,
      "    \"signature\": {\"events\": %llu, \"segments\": %llu, "
      "\"fabric_bytes\": %llu, \"cct_mean_seconds\": %.9f},\n",
      static_cast<unsigned long long>(sharded.front().result.events),
      static_cast<unsigned long long>(sharded.front().result.segments),
      static_cast<unsigned long long>(sharded.front().result.fabric_bytes),
      sharded.front().result.cct_seconds.mean());
  std::fprintf(out, "    \"invariant\": %s,\n", json_bool(sharded_ok));
  std::fprintf(out, "    \"cells\": [\n");
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardedCellResult& c = sharded[i];
    const double eps = static_cast<double>(c.result.events) / c.wall_seconds;
    std::fprintf(out,
                 "      {\"shards\": %d, \"wall_seconds\": %.3f, "
                 "\"events_per_sec\": %.0f, \"speedup_vs_1\": %.3f}%s\n",
                 c.shards, c.wall_seconds, eps, eps / sharded_base_eps,
                 i + 1 < sharded.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"workload\": {\n");
  std::fprintf(out, "    \"fat_tree_k\": 8, \"jobs\": %d,\n", workload_jobs);
  std::fprintf(out, "    \"cells\": [\n");
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const WorkloadCellResult& c = workload[i];
    std::fprintf(
        out,
        "      {\"scheme\": \"%s\", \"table_capacity\": %zu,\n"
        "       \"wall_seconds\": %.3f, \"events\": %llu, "
        "\"events_per_sec\": %.0f,\n"
        "       \"jobs_admitted\": %zu, \"jobs_fell_back\": %zu, "
        "\"admission_failures\": %zu,\n"
        "       \"controller_updates\": %llu, "
        "\"controller_update_rate_hz\": %.1f, \"churn_events\": %llu,\n"
        "       \"tcam_peak_occupancy\": %zu, \"unfinished\": %zu}%s\n",
        to_string(c.scheme), c.capacity, c.wall_seconds,
        static_cast<unsigned long long>(c.result.sim.events),
        static_cast<double>(c.result.sim.events) / c.wall_seconds,
        c.result.jobs_admitted, c.result.jobs_fell_back,
        c.result.admission_failures,
        static_cast<unsigned long long>(c.result.controller_updates),
        c.result.controller_update_rate_hz,
        static_cast<unsigned long long>(c.result.churn_events),
        c.result.tcam_peak_occupancy, c.result.sim.unfinished,
        i + 1 < workload.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"flow_fidelity\": {\n");
  {
    const double peps =
        static_cast<double>(flowf.packet.events) / flowf.packet_wall;
    const double feps =
        static_cast<double>(flowf.flow.events) / flowf.flow_wall;
    const double reduction =
        flowf.flow.events > 0
            ? static_cast<double>(flowf.packet.events) /
                  static_cast<double>(flowf.flow.events)
            : 0.0;
    const double cct_ratio =
        flowf.packet.cct_seconds.mean() > 0.0
            ? flowf.flow.cct_seconds.mean() / flowf.packet.cct_seconds.mean()
            : 0.0;
    std::fprintf(out,
                 "    \"reference_cell\": {\"scheme\": \"Peel\", "
                 "\"collective\": \"Broadcast\", \"fat_tree_k\": 16, "
                 "\"faults\": false, \"samples\": %d},\n",
                 samples);
    std::fprintf(out, "    \"cells\": [\n");
    std::fprintf(out,
                 "      {\"fidelity\": \"packet\", \"wall_seconds\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"fabric_bytes\": %llu},\n",
                 flowf.packet_wall,
                 static_cast<unsigned long long>(flowf.packet.events), peps,
                 static_cast<unsigned long long>(flowf.packet.fabric_bytes));
    std::fprintf(out,
                 "      {\"fidelity\": \"flow\", \"wall_seconds\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"fabric_bytes\": %llu}\n",
                 flowf.flow_wall,
                 static_cast<unsigned long long>(flowf.flow.events), feps,
                 static_cast<unsigned long long>(flowf.flow.fabric_bytes));
    std::fprintf(out, "    ],\n");
    std::fprintf(out, "    \"events_reduction\": %.2f,\n", reduction);
    std::fprintf(out, "    \"cct_mean_ratio\": %.4f,\n", cct_ratio);
    std::fprintf(out, "    \"bytes_identical\": %s,\n",
                 json_bool(flowf.packet.fabric_bytes ==
                           flowf.flow.fabric_bytes));
    std::fprintf(
        out,
        "    \"tenancy\": {\"fat_tree_k\": 32, \"fidelity\": \"flow\", "
        "\"jobs\": %d,\n"
        "      \"wall_seconds\": %.3f, \"events\": %llu, "
        "\"events_per_sec\": %.0f,\n"
        "      \"jobs_admitted\": %zu, \"jobs_fell_back\": %zu, "
        "\"unfinished\": %zu}\n",
        flowf.tenancy_jobs, flowf.tenancy_wall,
        static_cast<unsigned long long>(flowf.tenancy.sim.events),
        static_cast<double>(flowf.tenancy.sim.events) / flowf.tenancy_wall,
        flowf.tenancy.jobs_admitted, flowf.tenancy.jobs_fell_back,
        flowf.tenancy.sim.unfinished);
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"microbench\": {\n");
  std::fprintf(out, "    \"scheduler\": [\n");
  for (std::size_t i = 0; i < micro.scheduler.size(); ++i) {
    std::fprintf(out,
                 "      {\"queue_depth\": %zu, \"events_per_sec\": %.0f}%s\n",
                 micro.scheduler[i].first, micro.scheduler[i].second,
                 i + 1 < micro.scheduler.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"fanout\": [\n");
  for (std::size_t i = 0; i < micro.fanout.size(); ++i) {
    std::fprintf(out,
                 "      {\"queue_depth\": %zu, \"burst\": %d, "
                 "\"events_per_sec\": %.0f}%s\n",
                 kFanoutDepth, micro.fanout[i].first, micro.fanout[i].second,
                 i + 1 < micro.fanout.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"tree_builds_per_sec\": %.0f,\n",
               micro.tree_builds_per_sec);
  std::fprintf(out, "    \"cached_lookups_per_sec\": %.0f\n",
               micro.cached_lookups_per_sec);
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"reference_cell\": {\"collective\": \"Broadcast\", "
               "\"fat_tree_k\": 16, \"faults\": false},\n");
  std::fprintf(out, "  \"reference_events_per_sec\": %.0f", reference_eps);
  if (baseline_eps > 0.0) {
    std::fprintf(out, ",\n  \"baseline_events_per_sec\": %.0f", baseline_eps);
    std::fprintf(out, ",\n  \"speedup_vs_baseline\": %.2f",
                 reference_eps / baseline_eps);
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("\nreference cell (Broadcast, k=16, no faults): %.0f events/s",
              reference_eps);
  if (baseline_eps > 0.0) {
    std::printf("  (%.2fx vs baseline %.0f)", reference_eps / baseline_eps,
                baseline_eps);
  }
  std::printf("\nJSON -> BENCH_sim.json\n");
  return 0;
}

// ---------------------------------------------------------------------------
// --check mode: byte-for-byte reproduction of committed reference CSVs.
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("perf_suite --check: cannot read " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Verifies every expected row appears verbatim in the committed CSV.
int check_rows(const std::string& csv_path,
               const std::vector<std::string>& expected) {
  const std::vector<std::string> committed = read_lines(csv_path);
  int failures = 0;
  for (const std::string& row : expected) {
    bool found = false;
    for (const std::string& line : committed) {
      if (line == row) {
        found = true;
        break;
      }
    }
    if (!found) {
      ++failures;
      std::fprintf(stderr, "MISMATCH in %s\n  recomputed: %s\n", csv_path.c_str(),
                   row.c_str());
      // Show the committed row with the same prefix (axis + scheme columns)
      // to make the drift visible.
      const std::string prefix = row.substr(0, row.find(',', row.find(',') + 1));
      for (const std::string& line : committed) {
        if (line.rfind(prefix, 0) == 0) {
          std::fprintf(stderr, "  committed:  %s\n", line.c_str());
        }
      }
    }
  }
  return failures;
}

int run_check(const std::string& repo_root) {
  std::printf("== perf_suite --check: determinism against committed CSVs ==\n");
  int failures = 0;

  // --- fig5, 2 MiB row set: full-mode parameters, no environment input. ---
  {
    const FatTree ft = build_fat_tree(FatTreeConfig{8, 4, 8});
    const Fabric fabric = Fabric::of(ft);
    const Bytes message = 2 * kMiB;
    const std::vector<Scheme> schemes = {Scheme::Ring, Scheme::BinaryTree,
                                         Scheme::Optimal, Scheme::Orca,
                                         Scheme::Peel, Scheme::PeelProgCores};
    std::vector<std::string> rows;
    for (Scheme scheme : schemes) {
      ScenarioConfig c;
      c.scheme = scheme;
      c.collective = CollectiveKind::Broadcast;
      c.group_size = 512;
      c.message_bytes = message;
      c.fragmentation = 0.0;
      c.collectives = 24;  // samples_for(2 MiB) in full mode
      c.sim = bench::scaled_sim(message, 5);
      c.seed = 555;
      c.byte_audit = false;
      const ScenarioResult r = run_scenario(fabric, c);
      rows.push_back(std::to_string(message / kMiB) + "," + to_string(scheme) +
                     "," + cell("%.6f", r.cct_seconds.mean()) + "," +
                     cell("%.6f", r.cct_seconds.p99()));
    }
    failures += check_rows(repo_root + "/fig5_cct_vs_msgsize.csv", rows);
    std::printf("fig5 2 MiB rows: %zu recomputed\n", rows.size());
  }

  // --- fig7 dynamic failures, 2-flapping-links row set. ---
  {
    const LeafSpine ls = build_leaf_spine(LeafSpineConfig{16, 48, 2, 8});
    const Fabric fabric = Fabric::of(ls);
    const Bytes message = 8 * kMiB;
    const int links = 2;
    const std::vector<Scheme> schemes = {Scheme::BinaryTree, Scheme::Ring,
                                         Scheme::Peel};
    std::vector<std::string> rows;
    for (Scheme scheme : schemes) {
      ScenarioConfig c;
      c.scheme = scheme;
      c.collective = CollectiveKind::Broadcast;
      c.group_size = 64;
      c.message_bytes = message;
      c.collectives = 24;  // samples_for(8 MiB) in full mode
      c.sim = bench::scaled_sim(message, 7);
      c.seed = 31000 + static_cast<std::uint64_t>(links);
      c.byte_audit = false;
      c.faults.flap.mtbf_seconds = 2e-3;
      c.faults.flap.mttr_seconds = 300e-6;
      c.faults.flap.links = links;
      c.faults.flap.horizon_seconds = 15e-3;
      c.runner.peel_asymmetric = (scheme == Scheme::Peel);
      const ScenarioResult r = run_scenario(fabric, c);
      rows.push_back(cell("%d", links) + "," + to_string(scheme) + "," +
                     cell("%.6f", r.cct_seconds.mean()) + "," +
                     cell("%.6f", r.cct_seconds.p99()) + "," +
                     cell("%zu", r.fault_downs) + "," +
                     cell("%zu", r.fault_ups) + "," +
                     cell("%zu", r.recovered_deliveries) + "," +
                     cell("%zu", r.unfinished));
    }
    failures += check_rows(repo_root + "/fig7_dynamic_failures.csv", rows);
    std::printf("fig7 dynamic 2-link rows: %zu recomputed\n", rows.size());
  }

  if (failures > 0) {
    std::fprintf(stderr,
                 "perf_suite --check: %d row(s) drifted from the committed "
                 "CSVs — the data plane is no longer byte-deterministic\n",
                 failures);
    return 1;
  }
  std::printf("perf_suite --check: all recomputed rows byte-identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--check") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: perf_suite --check <repo_root>\n");
      return 2;
    }
    return run_check(argv[2]);
  }
  if (argc >= 2 && std::string(argv[1]) == "--microbench") {
    bench::banner("Scheduler + control-plane microbench",
                  "component throughput, no scenario grid");
    print_microbench(run_microbench());
    return 0;
  }
  return run_perf_grid();
}
