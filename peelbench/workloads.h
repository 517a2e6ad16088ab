// The benchmark's three workloads (README.md explains why each exists):
//
//   fig5-packet   Fig. 5 regime: k=8 fat-tree, 1024 GPUs, packet fidelity,
//                 PEEL/Ring Broadcast on 512-GPU groups + InNet AllReduce on
//                 128-GPU groups, in several replicas.
//   flow-tenancy  k=32 fat-tree, replicas of a 100-job churned PEEL
//                 Broadcast tenancy cell through run_workload at flow fidelity.
//   fig7-flap     Fig. 7 regime: 16x48 leaf-spine, 64-GPU groups, 8 flapping
//                 spine-leaf links with automatic recovery, PEEL (layer-peel
//                 trees) / Ring / BinaryTree over many fault seeds.
//
// A replica is the same cell set under another seed drawn from the workload
// seed; replicas make one run average over enough placements, arrival
// patterns and flap schedules that its figures barely depend on the seed.
//
// Everything a workload runs is a pure function of (name, seed). Besides the
// harness configs, make_workload draws the inputs the harness draws internally
// (arrival instants, member groups, flap schedules, job schedule) with the
// same public generators and seed forks, so the traced composition
// (compose.h) can replay them and be checked against the harness's output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/faults/schedule.h"
#include "src/harness/experiment.h"
#include "src/harness/workload.h"
#include "src/topology/fat_tree.h"
#include "src/topology/leaf_spine.h"
#include "src/workload/arrivals.h"
#include "src/workload/placement.h"

namespace peelbench {

/// Rng::fork tags run_scenario / run_workload derive their streams with
/// (src/harness/experiment.cpp, src/harness/workload.cpp). The traced run's
/// exact-match check fails if these drift from the harness's.
namespace fork_tag {
inline constexpr std::uint64_t kRunner = 0xc0'11ec;
inline constexpr std::uint64_t kArrivals = 0xa41;
inline constexpr std::uint64_t kPlacer = 0x97ace;
inline constexpr std::uint64_t kFlap = 0xf417;
inline constexpr std::uint64_t kChurn = 0xc4112;
}  // namespace fork_tag

/// One collective run_scenario submits: its arrival instant and members.
struct Submission {
  peel::SimTime t = 0;
  peel::GroupSelection group;
};

/// What run_scenario draws for one cell before its first collective.
struct ScenarioInputs {
  std::vector<Submission> submissions;
  /// Normalized flap schedule; empty when the cell has no faults.
  peel::FaultSchedule faults;
};

/// One harness call: a run_scenario cell or a run_workload (tenancy) cell,
/// with the inputs that harness draws.
struct Cell {
  std::string name;
  int replica = 0;
  std::optional<peel::ScenarioConfig> scenario;
  ScenarioInputs inputs;
  std::optional<peel::WorkloadConfig> tenancy;
  std::vector<peel::JobSpec> jobs;  ///< the tenancy cell's job schedule

  /// Collectives the cell submits.
  [[nodiscard]] std::size_t collectives() const;
  /// Smallest message (or per-rank buffer) any of its collectives moves.
  [[nodiscard]] peel::Bytes min_message_bytes() const;
};

struct Workload {
  std::string name;
  std::optional<peel::FatTree> fat_tree;
  std::optional<peel::LeafSpine> leaf_spine;
  /// Cells in replica order: every cell of replica 0, then of replica 1...
  std::vector<Cell> cells;
  int replicas = 1;
  /// Replicas the traced mode runs (0 .. traced_replicas-1): enough for a
  /// stable host-time split, few enough that the traced run with its side
  /// runs stays within a few minutes.
  int traced_replicas = 1;

  /// Host seconds make_workload spent building the fabric / drawing inputs.
  double build_s = 0.0;
  double inputs_s = 0.0;

  [[nodiscard]] peel::Fabric fabric() const {
    return fat_tree ? peel::Fabric::of(*fat_tree) : peel::Fabric::of(*leaf_spine);
  }
  /// Collectives one pass of the workload submits.
  [[nodiscard]] std::size_t collectives() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload's fabric and inputs (the benchmark's set-up).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Inputs run_scenario(fabric, config) will draw, from the same seed forks.
[[nodiscard]] ScenarioInputs draw_scenario_inputs(const peel::Fabric& fabric,
                                                  const peel::ScenarioConfig& config);

}  // namespace peelbench
