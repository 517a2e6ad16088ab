// The traced run's composition: the benchmark rebuilds run_scenario and
// run_workload (PEEL open loop) from the simulator's public interfaces —
// EventQueue, Network / FlowNetwork / ShardedNetwork, CollectiveRunner,
// FaultInjector, TopologyEventBus and the src/workload generators — so that
// it can time each layer from the outside:
//
//   * a timing DataPlane proxy between the runner/injector and the engine,
//     which also wraps the runner's delivery handler;
//   * a timing SimEventSink rebound on the packet queue, forwarding to
//     Network::on_sim_event;
//   * a timing TopologyObserver on the fault bus in place of the runner;
//   * submissions, recover_all and the workload generators called from
//     timed closures.
//
// With a null Tracer the same code runs untimed (audited and sharded passes).
// Every composition must reproduce the harness's simulated outputs exactly;
// same_simulation() is the check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/collectives/plan_cache.h"
#include "src/harness/experiment.h"
#include "trace.h"
#include "workloads.h"

namespace peelbench {

/// Simulated outputs and host-side counters of one cell (or tenancy run).
struct Outcome {
  std::vector<double> cct_seconds;  ///< finished collectives, record order
  std::size_t unfinished = 0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_lost = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pfc_pauses = 0;
  peel::Bytes fabric_bytes = 0;
  peel::Bytes core_bytes = 0;
  std::uint64_t fault_downs = 0;
  std::uint64_t fault_ups = 0;
  std::size_t recovered = 0;
  peel::PlanCacheStats plan_cache;

  // Composition-only counters (zero for harness outcomes).
  std::uint64_t flow_recomputes = 0;
  std::uint64_t windows_inline = 0;
  std::uint64_t windows_parallel = 0;
  double run_s = 0.0;  ///< host seconds inside the engine's run()
  /// Byte audit + reduction ledger verdict (compositions with byte_audit).
  double audit_s = 0.0;  ///< host seconds of the drain check
  std::vector<std::string> audit_violations;
};

/// Simulated outputs of a harness result (run_scenario / run_workload).
[[nodiscard]] Outcome outcome_of(const peel::ScenarioResult& result);

/// True when every simulated output (CCT samples, events, segments, fabric
/// and core bytes, losses, marks, pauses, fault and recovery counts) is
/// identical; otherwise false with the first difference in `why`.
[[nodiscard]] bool same_simulation(const Outcome& a, const Outcome& b,
                                   std::string* why);

/// run_scenario(fabric, config) rebuilt from public interfaces, replaying
/// `inputs` (draw_scenario_inputs of the same config), for the Broadcast and
/// AllReduce cells the workloads use (fresh groups, run to drain; throws
/// std::invalid_argument otherwise). Engine selection follows the config
/// (fidelity, then shards). Throws what the run throws.
[[nodiscard]] Outcome compose_scenario(const peel::Fabric& fabric,
                                       const peel::ScenarioConfig& config,
                                       const ScenarioInputs& inputs,
                                       Tracer* tracer);

/// run_workload(fabric, config) rebuilt from public interfaces, replaying
/// `jobs` (the schedule generate_arrivals draws for the config), for the
/// open-loop PEEL flow-fidelity configuration flow-tenancy uses; throws
/// std::invalid_argument for anything else.
[[nodiscard]] Outcome compose_tenancy(const peel::Fabric& fabric,
                                      const peel::WorkloadConfig& config,
                                      const std::vector<peel::JobSpec>& jobs,
                                      Tracer* tracer);

}  // namespace peelbench
