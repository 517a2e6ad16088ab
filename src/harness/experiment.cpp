#include "src/harness/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/faults/injector.h"
#include "src/harness/engine.h"
#include "src/sim/sharded.h"
#include "src/topology/failures.h"

namespace peel {

namespace {

using detail::audit_message;
using detail::FlowEngine;
using detail::make_summary;
using detail::ShardedEngine;
using detail::SoloEngine;

/// Owning deep copy of a fabric, for scenarios that mutate the topology
/// mid-run (dynamic faults). The caller's fabric is often shared by
/// concurrent sweep cells and must stay untouched.
struct FabricStore {
  std::optional<FatTree> fat_tree;
  std::optional<LeafSpine> leaf_spine;

  explicit FabricStore(const Fabric& f) {
    if (f.fat_tree) {
      fat_tree.emplace(*f.fat_tree);
    } else {
      leaf_spine.emplace(*f.leaf_spine);
    }
  }
  [[nodiscard]] Fabric view() const {
    return fat_tree ? Fabric::of(*fat_tree) : Fabric::of(*leaf_spine);
  }
  [[nodiscard]] Topology& topo() {
    return fat_tree ? fat_tree->topo : leaf_spine->topo;
  }
};

// The engine adapters (SoloEngine / ShardedEngine) and the audit/summary
// helpers moved to src/harness/engine.h so run_workload
// (src/harness/workload.cpp) drives the same surfaces.

template <typename Engine>
ScenarioResult run_scenario_with(Engine& engine, const Fabric& fabric,
                                 const ScenarioConfig& config,
                                 const SimConfig& sim, Topology* faulty_topo) {
  EventQueue& queue = engine.control();
  Rng rng(config.seed);
  CollectiveRunner runner(fabric, engine.data(), queue, rng.fork(0xc0'11ec),
                          config.runner);

  std::optional<FaultInjector> injector;
  TopologyEventBus bus;
  std::size_t recovered = 0;
  if (faulty_topo != nullptr) {
    FaultSchedule schedule = config.faults.schedule;
    if (config.faults.flap.enabled()) {
      // Flap draws come from a dedicated fork of the scenario seed, so the
      // schedule is reproducible and independent of arrivals/placement.
      const std::vector<LinkId> candidates =
          fabric.leaf_spine ? duplex_spine_leaf_links(*faulty_topo)
                            : duplex_fabric_links(*faulty_topo);
      Rng flap_rng = rng.fork(0xf417);
      schedule.merge(
          generate_flap_schedule(candidates, config.faults.flap, flap_rng));
    }
    schedule.normalize();
    // The runner consumes each published TopologyDelta at the event's
    // simulated time: route flush plus surgical repair/eviction of exactly
    // the cached plans whose trees traverse a failed pair.
    bus.subscribe(&runner);
    injector.emplace(*faulty_topo, engine.data(), queue, &bus);
    const SimTime detect =
        seconds_to_sim(config.faults.detection_delay_seconds);
    injector->set_handler([&queue, &runner, &recovered, detect,
                           auto_recover =
                               config.faults.auto_recover](const AppliedFault&) {
      // Recovery waits for the detection delay (the delta already landed).
      if (!auto_recover) return;
      queue.after(detect,
                  [&runner, &recovered] { recovered += runner.recover_all(); });
    });
    injector->arm(schedule);
  }

  const double lambda = arrival_rate_for_load(
      fabric, config.offered_load, config.message_bytes, config.group_size);
  const double mean_gap_ns = 1e9 / lambda;

  if (sim.telemetry.enabled && sim.telemetry.sample_interval > 0) {
    // Pre-size the queue-depth series: a deadline bounds the sample count
    // exactly; a run-to-drain is sized from the arrival span (collectives x
    // mean gap) with 2x headroom for the drain tail.
    const double horizon_ns =
        config.deadline_seconds > 0.0
            ? config.deadline_seconds * 1e9
            : mean_gap_ns * static_cast<double>(config.collectives) * 2.0;
    const double expected =
        horizon_ns / static_cast<double>(sim.telemetry.sample_interval);
    engine.reserve_series(
        static_cast<std::size_t>(std::min(expected, 1e6)) + 16);
  }

  PlacementOptions placement;
  placement.group_size = config.group_size;
  placement.fragmentation = config.fragmentation;
  placement.buddy_aligned = config.buddy_aligned;

  Rng arrivals = rng.fork(0xa41);
  Rng placer = rng.fork(0x97ace);

  // group_pool > 0 models iteration reuse: the same member sets are
  // resubmitted round-robin instead of a fresh placement per collective.
  std::vector<GroupSelection> pool;
  if (config.group_pool > 0) {
    pool.reserve(static_cast<std::size_t>(
        std::min(config.group_pool, config.collectives)));
    for (int i = 0; i < config.group_pool && i < config.collectives; ++i) {
      pool.push_back(select_local_group(fabric, placement, placer));
    }
  }

  SimTime t = 0;
  for (int i = 0; i < config.collectives; ++i) {
    t += static_cast<SimTime>(arrivals.exponential(mean_gap_ns));
    GroupSelection group =
        pool.empty() ? select_local_group(fabric, placement, placer)
                     : pool[static_cast<std::size_t>(i) % pool.size()];
    const auto id = static_cast<std::uint64_t>(i) + 1;
    if (config.collective == CollectiveKind::AllGather) {
      AllGatherRequest req;
      req.id = id;
      req.members = std::move(group.destinations);
      req.members.push_back(group.source);
      req.total_bytes = config.message_bytes;
      queue.at(t, [&runner, req, scheme = config.scheme]() mutable {
        runner.submit_allgather(scheme, std::move(req));
      });
    } else if (config.collective == CollectiveKind::AllReduce) {
      AllReduceRequest req;
      req.id = id;
      req.members = std::move(group.destinations);
      req.members.push_back(group.source);
      req.buffer_bytes = config.message_bytes;
      queue.at(t, [&runner, req, scheme = config.scheme]() mutable {
        runner.submit_allreduce(scheme, std::move(req));
      });
    } else {
      BroadcastRequest req;
      req.id = id;
      req.source = group.source;
      req.destinations = std::move(group.destinations);
      req.message_bytes = config.message_bytes;
      queue.at(t, [&runner, req, scheme = config.scheme]() mutable {
        runner.submit(scheme, std::move(req));
      });
    }
  }

  if (config.deadline_seconds > 0.0) {
    engine.run_until(seconds_to_sim(config.deadline_seconds));
  } else {
    engine.run();
  }

  if (config.watchdog) {
    enforce_all_finished(runner, engine.empty()
                                     ? "event queue drained"
                                     : "deadline " +
                                           std::to_string(
                                               config.deadline_seconds) +
                                           " s exceeded");
  }

  ScenarioResult result;
  result.cct_seconds.reserve(runner.records().size());
  for (const auto& record : runner.records()) {
    if (!record.finished) {
      ++result.unfinished;
      continue;
    }
    result.cct_seconds.add(record.cct_seconds());
  }

  if (const Telemetry* telem = engine.finished_telemetry()) {
    if (config.byte_audit) {
      // The full conservation check only holds once everything drained and
      // finished; a deadline-truncated or unfinished run still must never
      // over-deliver (a byte credited twice is a bug at any point).
      const bool clean = result.unfinished == 0 && engine.empty();
      const std::vector<std::string> violations =
          clean ? telem->conservation_violations()
                : telem->over_delivery_violations();
      if (!violations.empty()) {
        throw std::runtime_error(audit_message(
            clean ? "at drain" : "partial run, over-delivery check only",
            violations));
      }
    }
    result.telemetry = make_summary(*telem, runner, engine.now());
  }

  result.fabric_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, true, false);
  result.core_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, false, false);
  result.sim_seconds = sim_to_seconds(engine.now());
  result.events = engine.events();
  result.events_chained = engine.events_chained();
  result.segments = engine.segments_serialized();
  result.segments_lost = engine.segments_lost();
  result.pfc_pauses = engine.pfc_pauses();
  result.ecn_marks = engine.segments_marked();
  harvest_flow_solver(engine, result);
  result.reduce_sram_peak = engine.reduce_sram_peak();
  result.reduce_sram_peak_max_domain = engine.reduce_sram_peak_max_domain();
  result.plan_cache = runner.plan_cache().stats();
  const DeltaApplyStats& deltas = runner.delta_stats();
  result.delta_applies = deltas.deltas;
  result.delta_apply_total_us = deltas.total_us;
  result.delta_apply_max_us = deltas.max_us;
  result.delta_plans_repaired = deltas.plans_repaired;
  result.delta_plans_evicted = deltas.plans_evicted;
  if (injector) {
    result.fault_downs = injector->pairs_failed();
    result.fault_ups = injector->pairs_restored();
    result.recovered_deliveries = recovered;
  }
  return result;
}

ScenarioResult run_scenario_impl(const Fabric& fabric,
                                 const ScenarioConfig& config,
                                 Topology* faulty_topo) {
  SimConfig sim = config.sim;
  if (config.byte_audit) sim.telemetry.enabled = true;  // audit needs accounting

  // Fidelity wins over shards: the flow engine is single-queue by design
  // (its event count is small enough that sharding would only add barriers).
  if (config.fidelity == Fidelity::Flow) {
    FlowEngine engine(fabric.topo(), sim);
    return run_scenario_with(engine, fabric, config, sim, faulty_topo);
  }
  if (config.shards > 0) {
    ShardedEngine engine(fabric.topo(), sim, config.shards);
    return run_scenario_with(engine, fabric, config, sim, faulty_topo);
  }
  SoloEngine engine(fabric.topo(), sim);
  return run_scenario_with(engine, fabric, config, sim, faulty_topo);
}

template <typename Engine>
SingleResult run_single_with(Engine& engine, const Fabric& fabric,
                             const SingleRunOptions& options) {
  CollectiveRunner runner(fabric, engine.data(), engine.control(),
                          Rng(options.sim.seed), options.runner);

  BroadcastRequest req;
  req.id = 1;
  req.source = options.group.source;
  req.destinations = options.group.destinations;
  req.message_bytes = options.message_bytes;
  runner.submit(options.scheme, std::move(req));
  engine.run();

  if (runner.records().empty() || !runner.records().front().finished) {
    throw std::runtime_error("single broadcast did not complete");
  }
  if (const Telemetry* telem = engine.finished_telemetry();
      telem && options.byte_audit) {
    const std::vector<std::string> violations = telem->conservation_violations();
    if (!violations.empty()) {
      throw std::runtime_error(
          audit_message("single broadcast", violations));
    }
  }
  SingleResult result;
  result.cct_seconds = runner.records().front().cct_seconds();
  result.fabric_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, true, false);
  result.core_bytes =
      bytes_on_links(engine.data(), fabric.topo(), true, false, false);
  result.nvlink_bytes =
      bytes_on_links(engine.data(), fabric.topo(), false, false, true);
  return result;
}

}  // namespace

bool byte_audit_env_default() {
  const char* v = std::getenv("PEEL_BYTE_AUDIT");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

const char* to_string(CollectiveKind kind) noexcept {
  switch (kind) {
    case CollectiveKind::Broadcast: return "Broadcast";
    case CollectiveKind::AllGather: return "AllGather";
    case CollectiveKind::AllReduce: return "AllReduce";
  }
  return "?";
}

const char* to_string(Fidelity f) noexcept {
  switch (f) {
    case Fidelity::Packet: return "packet";
    case Fidelity::Flow: return "flow";
  }
  return "?";
}

Fidelity parse_fidelity(const std::string& name) {
  if (name == "packet") return Fidelity::Packet;
  if (name == "flow") return Fidelity::Flow;
  throw std::invalid_argument("unknown fidelity '" + name +
                              "' (expected packet | flow)");
}

Bytes bytes_on_links(const DataPlane& net, const Topology& topo, bool fabric,
                     bool host_nic, bool nvlink) {
  Bytes total = 0;
  for (LinkId l = 0; static_cast<std::size_t>(l) < topo.link_count(); ++l) {
    const LinkKind kind = topo.link(l).kind;
    const bool counted = (kind == LinkKind::Fabric && fabric) ||
                         (kind == LinkKind::HostNic && host_nic) ||
                         (kind == LinkKind::NvLink && nvlink);
    if (counted) total += net.link_bytes(l);
  }
  return total;
}

ScenarioResult run_scenario(const Fabric& fabric, const ScenarioConfig& config) {
  if (!config.faults.any()) return run_scenario_impl(fabric, config, nullptr);
  // Dynamic faults mutate the Topology; run against a private deep copy so
  // the caller's (possibly sweep-shared) fabric stays pristine.
  FabricStore store(fabric);
  return run_scenario_impl(store.view(), config, &store.topo());
}

SingleResult run_single_broadcast(const Fabric& fabric,
                                  const SingleRunOptions& options) {
  SimConfig sim = options.sim;
  if (options.byte_audit) sim.telemetry.enabled = true;

  if (options.fidelity == Fidelity::Flow) {
    FlowEngine engine(fabric.topo(), sim);
    return run_single_with(engine, fabric, options);
  }
  if (options.shards > 0) {
    ShardedEngine engine(fabric.topo(), sim, options.shards);
    return run_single_with(engine, fabric, options);
  }
  SoloEngine engine(fabric.topo(), sim);
  return run_single_with(engine, fabric, options);
}

}  // namespace peel
