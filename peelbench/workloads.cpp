#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "src/harness/bench_env.h"
#include "src/topology/failures.h"
#include "trace.h"

namespace peelbench {

namespace {

using peel::kKiB;
using peel::kMiB;

/// Per-cell seed: independent streams for every cell of one workload seed.
std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t cell) {
  return peel::Rng(seed).fork(cell + 1).next_u64();
}

peel::ScenarioConfig scenario_base(peel::Scheme scheme,
                                   peel::CollectiveKind kind, int group_size,
                                   int collectives, std::uint64_t seed) {
  peel::ScenarioConfig c;
  c.scheme = scheme;
  c.collective = kind;
  c.group_size = group_size;
  c.message_bytes = 8 * kMiB;
  c.offered_load = 0.30;
  c.collectives = collectives;
  c.sim = peel::bench::scaled_sim(c.message_bytes, seed);
  c.seed = seed;
  c.byte_audit = false;
  c.watchdog = true;
  return c;
}

Cell scenario_cell(std::string name, int replica,
                   const peel::ScenarioConfig& config) {
  Cell cell;
  cell.name = std::move(name) + "-r" + std::to_string(replica);
  cell.replica = replica;
  cell.scenario = config;
  return cell;
}

/// Draws every scenario cell's inputs; returns the host seconds it took.
double draw_inputs(Workload& w) {
  const auto start = Clock::now();
  for (Cell& cell : w.cells) {
    if (cell.scenario) {
      cell.inputs = draw_scenario_inputs(w.fabric(), *cell.scenario);
    }
  }
  return seconds_since(start);
}

// fig5-packet, per replica: PEEL vs the NCCL Ring baseline on 512-GPU
// groups, plus InNet AllReduce on 64-GPU groups (two racks, so switches
// combine). Groups are buddy-aligned and fresh per collective. On larger
// groups an InNet cell's cost and peak memory swing several-fold with how
// many AllReduces happen to overlap, more than an affordable number of
// samples averages out (README.md has the measurements). As many InNet as
// Ring collectives put the pooled median at PEEL's own median, and Ring's
// 14% share puts the p90 inside Ring's distribution, clear of the step its
// uncontended CCT makes in the CDF.
constexpr int kFig5Replicas = 7;
constexpr int kFig5Peel = 86;
constexpr int kFig5Ring = 17;
constexpr int kFig5InNet = 17;

// fig7-flap: a replica is one fault seed: one 24-collective cell per scheme
// (as in fig7_dynamic_failures.csv), all three on the same flap schedule.
constexpr int kFig7FaultSeeds = 25;
constexpr int kFig7Collectives = 24;

// flow-tenancy: replicas of perf_suite's quick k=32 tenancy cell.
constexpr int kTenancyReplicas = 7;
constexpr int kTenancyJobs = 100;

Workload fig5_packet(std::uint64_t seed) {
  Workload w;
  w.name = "fig5-packet";
  const auto start = Clock::now();
  w.fat_tree.emplace(peel::build_fat_tree(peel::FatTreeConfig{8, 4, 8}));
  w.build_s = seconds_since(start);

  using peel::CollectiveKind;
  using peel::Scheme;
  w.replicas = kFig5Replicas;
  for (int r = 0; r < kFig5Replicas; ++r) {
    const auto cell = [&](int i) {
      return cell_seed(seed, static_cast<std::uint64_t>(3 * r + i));
    };
    w.cells.push_back(scenario_cell(
        "peel-bcast-512", r,
        scenario_base(Scheme::Peel, CollectiveKind::Broadcast, 512, kFig5Peel,
                      cell(0))));
    w.cells.push_back(scenario_cell(
        "ring-bcast-512", r,
        scenario_base(Scheme::Ring, CollectiveKind::Broadcast, 512, kFig5Ring,
                      cell(1))));
    w.cells.push_back(scenario_cell(
        "innet-allreduce-64", r,
        scenario_base(Scheme::InNet, CollectiveKind::AllReduce, 64, kFig5InNet,
                      cell(2))));
  }
  w.inputs_s = draw_inputs(w);
  return w;
}

Workload fig7_flap(std::uint64_t seed) {
  Workload w;
  w.name = "fig7-flap";
  const auto start = Clock::now();
  w.leaf_spine.emplace(
      peel::build_leaf_spine(peel::LeafSpineConfig{16, 48, 2, 8}));
  w.build_s = seconds_since(start);

  using peel::Scheme;
  w.replicas = kFig7FaultSeeds;
  w.traced_replicas = 8;  // 24 cells: enough for the 4-thread sweep
  const Scheme schemes[] = {Scheme::Peel, Scheme::Ring, Scheme::BinaryTree};
  for (int f = 0; f < kFig7FaultSeeds; ++f) {
    for (Scheme scheme : schemes) {
      peel::ScenarioConfig c = scenario_base(
          scheme, peel::CollectiveKind::Broadcast, 64, kFig7Collectives,
          cell_seed(seed, static_cast<std::uint64_t>(f)));
      c.faults.flap.mtbf_seconds = 2e-3;
      c.faults.flap.mttr_seconds = 300e-6;
      c.faults.flap.links = 8;
      c.faults.flap.horizon_seconds = 15e-3;
      c.faults.detection_delay_seconds = 100e-6;
      c.faults.auto_recover = true;
      // Layer-peel trees: PEEL's mode for an asymmetric (failed) fabric.
      c.runner.peel_asymmetric = scheme == Scheme::Peel;
      w.cells.push_back(scenario_cell(peel::to_string(scheme), f, c));
    }
  }
  w.inputs_s = draw_inputs(w);
  return w;
}

Workload flow_tenancy(std::uint64_t seed) {
  Workload w;
  w.name = "flow-tenancy";
  auto start = Clock::now();
  // One single-GPU host per ToR keeps the traffic on the pod/core tiers.
  peel::FatTreeConfig big;
  big.k = 32;
  big.hosts_per_tor = 1;
  big.gpus_per_host = 1;
  w.fat_tree.emplace(peel::build_fat_tree(big));
  w.build_s = seconds_since(start);

  start = Clock::now();
  peel::WorkloadConfig wc;
  wc.scheme = peel::Scheme::Peel;
  wc.fidelity = peel::Fidelity::Flow;
  wc.arrivals.jobs = kTenancyJobs;
  wc.arrivals.message_bytes = 512 * kKiB;
  wc.arrivals.group_sizes = {8, 16, 32};
  wc.arrivals.iterations = 2;
  wc.arrivals.iteration_gap_seconds = 100e-6;
  wc.arrivals.hold_seconds = 1e-3;
  wc.arrivals.fragmented_share = 0.25;
  wc.arrivals.buddy_share = 0.5;
  wc.arrivals.rate_per_second =
      peel::job_rate_for_load(w.fabric(), 0.20, wc.arrivals.message_bytes, 16,
                              wc.arrivals.iterations);
  wc.churn.events_per_job = 1;
  wc.byte_audit = false;
  wc.watchdog = true;
  w.replicas = kTenancyReplicas;
  for (int r = 0; r < kTenancyReplicas; ++r) {
    Cell cell;
    cell.name = "tenancy-r" + std::to_string(r);
    cell.replica = r;
    wc.seed = cell_seed(seed, static_cast<std::uint64_t>(r));
    wc.sim.seed = wc.seed;
    // run_workload draws its job schedule from this fork of its seed.
    peel::Rng arrivals = peel::Rng(wc.seed).fork(fork_tag::kArrivals);
    cell.jobs = peel::generate_arrivals(wc.arrivals, arrivals);
    cell.tenancy = wc;
    w.cells.push_back(std::move(cell));
  }
  w.inputs_s = seconds_since(start);
  return w;
}

}  // namespace

std::size_t Cell::collectives() const {
  std::size_t n = scenario ? static_cast<std::size_t>(scenario->collectives) : 0;
  for (const peel::JobSpec& job : jobs) {
    n += static_cast<std::size_t>(job.iterations);
  }
  return n;
}

peel::Bytes Cell::min_message_bytes() const {
  if (scenario) return scenario->message_bytes;
  peel::Bytes bytes = jobs.empty() ? 0 : jobs.front().message_bytes;
  for (const peel::JobSpec& job : jobs) bytes = std::min(bytes, job.message_bytes);
  return bytes;
}

std::size_t Workload::collectives() const {
  std::size_t n = 0;
  for (const Cell& cell : cells) n += cell.collectives();
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig5-packet", "flow-tenancy",
                                                 "fig7-flap"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig5-packet") return fig5_packet(seed);
  if (name == "flow-tenancy") return flow_tenancy(seed);
  if (name == "fig7-flap") return fig7_flap(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ScenarioInputs draw_scenario_inputs(const peel::Fabric& fabric,
                                    const peel::ScenarioConfig& config) {
  // Mirrors run_scenario's draws: arrivals and placements come from their
  // own forks of the scenario seed (group_pool = 0: a fresh group each).
  const peel::Rng rng(config.seed);
  ScenarioInputs in;
  const double lambda = peel::arrival_rate_for_load(
      fabric, config.offered_load, config.message_bytes, config.group_size);
  const double mean_gap_ns = 1e9 / lambda;
  peel::PlacementOptions placement;
  placement.group_size = config.group_size;
  placement.fragmentation = config.fragmentation;
  placement.buddy_aligned = config.buddy_aligned;
  peel::Rng arrivals = rng.fork(fork_tag::kArrivals);
  peel::Rng placer = rng.fork(fork_tag::kPlacer);
  in.submissions.reserve(static_cast<std::size_t>(config.collectives));
  peel::SimTime t = 0;
  for (int i = 0; i < config.collectives; ++i) {
    t += static_cast<peel::SimTime>(arrivals.exponential(mean_gap_ns));
    in.submissions.push_back(
        {t, peel::select_local_group(fabric, placement, placer)});
  }
  if (config.faults.any()) {
    in.faults = config.faults.schedule;
    if (config.faults.flap.enabled()) {
      const std::vector<peel::LinkId> candidates =
          fabric.leaf_spine ? peel::duplex_spine_leaf_links(fabric.topo())
                            : peel::duplex_fabric_links(fabric.topo());
      peel::Rng flap = rng.fork(fork_tag::kFlap);
      in.faults.merge(
          peel::generate_flap_schedule(candidates, config.faults.flap, flap));
    }
    in.faults.normalize();
  }
  return in;
}

}  // namespace peelbench
