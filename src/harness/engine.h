// The simulation engine the harness drivers (run_scenario,
// run_single_broadcast, run_workload) run on, and the harvest they share.
// Internal to src/harness — not part of the public API.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "src/collectives/runner.h"
#include "src/harness/experiment.h"
#include "src/sim/flow_network.h"
#include "src/sim/network.h"
#include "src/sim/sharded.h"
#include "src/sim/telemetry.h"

namespace peel::detail {

/// One simulation engine, chosen here and nowhere else:
///   Fidelity::Flow — one EventQueue driving a FlowNetwork. Flow wins over
///                    `shards`: the flow engine is single-queue by design (its
///                    event count is small enough that sharding would only
///                    add barriers);
///   shards > 0     — a ShardedNetwork with that many workers, which owns the
///                    control queue;
///   otherwise      — one EventQueue driving a packet Network.
/// The drivers see only the control queue, the DataPlane and the run loop, so
/// they cannot tell the engines apart.
class Engine {
 public:
  /// Throws std::invalid_argument if `shards` is negative. `byte_audit`
  /// forces telemetry on: the audit reads its accounting.
  Engine(const Topology& topo, SimConfig sim, Fidelity fidelity, int shards,
         bool byte_audit);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Queue for control-plane work: submissions, fault timers, recovery.
  [[nodiscard]] EventQueue& control() noexcept { return *control_; }
  [[nodiscard]] DataPlane& data() noexcept { return *data_; }
  void run();
  void run_until(SimTime t);
  [[nodiscard]] bool empty() const;
  [[nodiscard]] SimTime now() const;
  /// Pre-sizes the telemetry queue-depth series; no-op without telemetry.
  void reserve_series(std::size_t expected);
  /// Telemetry for audit/summary once the run has quiesced; null = disabled.
  [[nodiscard]] const Telemetry* finished_telemetry() const;
  /// Every engine counter; the flow-solver ones stay 0 on the packet engines.
  [[nodiscard]] EngineStats stats() const;

 private:
  EventQueue queue_;  ///< the single-queue engines' queue (unused if sharded)
  std::optional<Network> packet_;
  std::optional<FlowNetwork> flow_;
  std::optional<ShardedNetwork> sharded_;
  EventQueue* control_ = &queue_;
  DataPlane* data_ = nullptr;
};

/// Throws std::runtime_error listing the byte audit's violations, if any:
/// the full conservation check when the run drained `clean` (everything
/// finished), else the over-delivery check only (a byte credited twice is a
/// bug at any point). `context` names the run in the message.
void audit_or_throw(const Telemetry& telem, bool clean,
                    const std::string& context);

/// What run_scenario and run_workload share once their control plane is
/// scheduled: runs `engine` to drain (or to `deadline_seconds` if > 0),
/// enforces the stuck-flow watchdog, fills `out`'s CCT samples and
/// `unfinished`, runs the byte audit, and fills the telemetry summary, byte
/// totals, simulated time, engine counters and plan-cache counters.
void run_and_harvest(Engine& engine, const CollectiveRunner& runner,
                     const Topology& topo, double deadline_seconds,
                     bool watchdog, bool byte_audit, const std::string& context,
                     ScenarioResult& out);

}  // namespace peel::detail
