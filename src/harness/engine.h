// Shared engine adapters for the harness drivers (run_scenario, run_single,
// run_workload). Internal to src/harness — not part of the public API.
//
// Both engines expose one uniform surface the drivers are templated over:
// the control-plane queue (submissions, fault timers, recovery closures),
// the DataPlane the runner/injector talk to, the run loop, clocks/counters,
// and telemetry access.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/collectives/runner.h"
#include "src/harness/experiment.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/sim/telemetry.h"

namespace peel::detail {

/// Classic single-queue engine: one EventQueue, one Network.
struct SoloEngine {
  EventQueue queue;
  Network net;

  SoloEngine(const Topology& topo, const SimConfig& sim)
      : net(topo, sim, queue) {}

  [[nodiscard]] EventQueue& control() noexcept { return queue; }
  [[nodiscard]] DataPlane& data() noexcept { return net; }
  void run() { queue.run(); }
  void run_until(SimTime t) { queue.run_until(t); }
  [[nodiscard]] bool empty() const { return queue.empty(); }
  [[nodiscard]] SimTime now() const { return queue.now(); }
  [[nodiscard]] std::uint64_t events() const { return queue.processed(); }
  [[nodiscard]] std::uint64_t events_chained() const {
    return queue.chained();
  }
  [[nodiscard]] std::uint64_t segments_serialized() const {
    return net.segments_serialized();
  }
  [[nodiscard]] std::uint64_t segments_lost() const {
    return net.segments_lost();
  }
  [[nodiscard]] std::uint64_t pfc_pauses() const { return net.pfc_pauses(); }
  [[nodiscard]] std::uint64_t segments_marked() const {
    return net.segments_marked();
  }
  [[nodiscard]] Bytes reduce_sram_peak() const {
    return net.reduce_sram_peak();
  }
  /// Solo has one fabric-wide gauge; sum and max-domain coincide.
  [[nodiscard]] Bytes reduce_sram_peak_max_domain() const {
    return net.reduce_sram_peak();
  }
  void reserve_series(std::size_t expected) {
    if (Telemetry* telem = net.telemetry()) telem->reserve_series(expected);
  }
  /// Telemetry for audit/summary once the run has quiesced; null = disabled.
  [[nodiscard]] const Telemetry* finished_telemetry() const {
    return net.telemetry();
  }
};

/// Flow-level (fluid) engine: one EventQueue, one FlowNetwork
/// (src/sim/flow_network.h). Same shape as SoloEngine — the drivers cannot
/// tell the fidelities apart.
struct FlowEngine {
  EventQueue queue;
  FlowNetwork net;

  FlowEngine(const Topology& topo, const SimConfig& sim)
      : net(topo, sim, queue) {}

  [[nodiscard]] EventQueue& control() noexcept { return queue; }
  [[nodiscard]] DataPlane& data() noexcept { return net; }
  void run() { queue.run(); }
  void run_until(SimTime t) { queue.run_until(t); }
  [[nodiscard]] bool empty() const { return queue.empty(); }
  [[nodiscard]] SimTime now() const { return queue.now(); }
  [[nodiscard]] std::uint64_t events() const { return queue.processed(); }
  [[nodiscard]] std::uint64_t events_chained() const {
    return queue.chained();
  }
  [[nodiscard]] std::uint64_t segments_serialized() const {
    return net.segments_serialized();
  }
  [[nodiscard]] std::uint64_t segments_lost() const {
    return net.segments_lost();
  }
  [[nodiscard]] std::uint64_t pfc_pauses() const { return net.pfc_pauses(); }
  [[nodiscard]] std::uint64_t segments_marked() const {
    return net.segments_marked();
  }
  [[nodiscard]] Bytes reduce_sram_peak() const {
    return net.reduce_sram_peak();
  }
  [[nodiscard]] Bytes reduce_sram_peak_max_domain() const {
    return net.reduce_sram_peak();
  }
  void reserve_series(std::size_t expected) {
    if (Telemetry* telem = net.telemetry()) telem->reserve_series(expected);
  }
  [[nodiscard]] const Telemetry* finished_telemetry() const {
    return net.telemetry();
  }
};

/// Flow-solver counters: zero on the packet engines.
template <typename Engine>
void harvest_flow_solver(const Engine& /*engine*/, ScenarioResult& /*out*/) {}
inline void harvest_flow_solver(const FlowEngine& engine, ScenarioResult& out) {
  out.flow_solves = engine.net.rate_recomputes();
  out.flow_solve_requests = engine.net.solve_requests();
  out.flow_rerated = engine.net.flows_rerated();
  out.flow_rates_changed = engine.net.rates_changed();
  out.flow_stale_fills = engine.net.stale_fills();
  out.flow_cascade_fills = engine.net.cascade_fills();
}

/// Pod-sharded parallel engine (src/sim/sharded.h).
struct ShardedEngine {
  ShardedNetwork net;

  ShardedEngine(const Topology& topo, const SimConfig& sim, int threads)
      : net(topo, sim, threads) {}

  [[nodiscard]] EventQueue& control() noexcept { return net.control(); }
  [[nodiscard]] DataPlane& data() noexcept { return net; }
  void run() { net.run(); }
  void run_until(SimTime t) { net.run_until(t); }
  [[nodiscard]] bool empty() const { return net.empty(); }
  [[nodiscard]] SimTime now() const { return net.now(); }
  [[nodiscard]] std::uint64_t events() const { return net.events_processed(); }
  [[nodiscard]] std::uint64_t events_chained() const {
    return net.events_chained();
  }
  [[nodiscard]] std::uint64_t segments_serialized() const {
    return net.segments_serialized();
  }
  [[nodiscard]] std::uint64_t segments_lost() const {
    return net.segments_lost();
  }
  [[nodiscard]] std::uint64_t pfc_pauses() const { return net.pfc_pauses(); }
  [[nodiscard]] std::uint64_t segments_marked() const {
    return net.segments_marked();
  }
  [[nodiscard]] Bytes reduce_sram_peak() const {
    return net.reduce_sram_peak();
  }
  [[nodiscard]] Bytes reduce_sram_peak_max_domain() const {
    return net.reduce_sram_peak_max_domain();
  }
  void reserve_series(std::size_t expected) {
    if (net.telemetry_enabled()) net.reserve_series(expected);
  }
  [[nodiscard]] const Telemetry* finished_telemetry() const {
    return net.merged_telemetry();
  }
};

/// Joins audit violation lines into one exception message.
inline std::string audit_message(const char* context,
                                 const std::vector<std::string>& violations) {
  std::string msg = "byte-conservation audit failed (";
  msg += context;
  msg += "):";
  for (const std::string& v : violations) {
    msg += "\n  ";
    msg += v;
  }
  return msg;
}

/// Builds the summary for result consumers, attaching flow lifetimes from
/// collective records (the Network cannot know them).
inline std::shared_ptr<const TelemetrySummary> make_summary(
    const Telemetry& telem, const CollectiveRunner& runner, SimTime now) {
  auto summary = std::make_shared<TelemetrySummary>(telem.summary(now));
  summary->flows.reserve(runner.records().size());
  for (const CollectiveRecord& record : runner.records()) {
    FlowSpan f;
    f.id = record.id;
    f.name =
        std::string(to_string(record.scheme)) + " #" + std::to_string(record.id);
    f.begin = record.submit_time;
    f.end = record.finished ? record.finish_time : now;
    f.finished = record.finished;
    summary->flows.push_back(std::move(f));
  }
  return summary;
}

}  // namespace peel::detail
