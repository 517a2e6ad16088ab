// Collective execution engine: turns broadcast requests into streams on the
// simulated network, implements every scheme the paper evaluates, and records
// collective completion times (CCT).
//
// Schemes (§4 "Baselines"):
//   Ring          — pipelined unicast ring in locality order (NCCL-style)
//   BinaryTree    — pipelined unicast binary tree rooted at the source
//   Optimal       — bandwidth-optimal in-network Steiner-tree multicast
//   Orca          — controller-installed multicast to one designated host per
//                   rack + host relays; pays N(10ms,5ms) flow-setup delay
//   Peel          — static power-of-two prefixes, one packet per prefix,
//                   zero setup latency
//   PeelProgCores — PEEL fast start + background controller that migrates
//                   remaining chunks onto the exact tree (§3.3)
//   InNet         — AllReduce-only: each PEEL prefix tree is mirrored into a
//                   switch-combining reduce tree (contributions aggregate in
//                   SRAM on the way up), then the PEEL prefix multicast
//                   broadcasts the result — each fabric link is crossed once
//                   up and once down, no host bounces
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/collectives/fabric.h"
#include "src/collectives/plan_cache.h"
#include "src/collectives/trees.h"
#include "src/common/rng.h"
#include "src/routing/router.h"
#include "src/sim/data_plane.h"
#include "src/sim/event_queue.h"

namespace peel {

enum class Scheme {
  Ring,
  BinaryTree,
  Optimal,
  Orca,
  Peel,
  PeelProgCores,
  InNet,
};

[[nodiscard]] const char* to_string(Scheme s) noexcept;

struct BroadcastRequest {
  std::uint64_t id = 0;
  NodeId source = kInvalidNode;
  std::vector<NodeId> destinations;  ///< member endpoints, source excluded
  Bytes message_bytes = 0;
  /// Owning job for multi-tenant workloads (src/harness/workload.h); 0 =
  /// standalone. Copied onto the CollectiveRecord for per-job attribution.
  std::uint64_t job = 0;
};

/// AllGather: every member contributes a shard; afterwards every member
/// holds all shards (total_bytes in aggregate).  An extension beyond the
/// paper's Broadcast evaluation — AllGather is the other bandwidth-heavy
/// collective the paper's motivation cites [23], and it composes naturally
/// as one multicast per member.
struct AllGatherRequest {
  std::uint64_t id = 0;
  std::vector<NodeId> members;  ///< all ranks, >= 2
  Bytes total_bytes = 0;        ///< gathered buffer size (sum of shards)
  std::uint64_t job = 0;        ///< owning job; 0 = standalone
};

/// AllReduce: every member contributes a buffer; afterwards every member
/// holds the element-wise reduction.  Ring runs the classic reduce-scatter +
/// all-gather; multicast schemes reduce up a binary rank tree (combining at
/// hosts — no in-network compute assumed) and broadcast the result through
/// the scheme's multicast tree, which is where PEEL halves the heavy phase.
/// InNet additionally offloads the reduction itself: the PEEL prefix trees
/// run mirrored, with switches combining contributions in SRAM.
struct AllReduceRequest {
  std::uint64_t id = 0;
  std::vector<NodeId> members;  ///< all ranks, >= 2
  Bytes buffer_bytes = 0;       ///< per-rank gradient buffer size
  std::uint64_t job = 0;        ///< owning job; 0 = standalone
};

struct CollectiveRecord {
  std::uint64_t id = 0;
  std::uint64_t job = 0;  ///< owning job (request.job); 0 = standalone
  Scheme scheme = Scheme::Ring;
  SimTime submit_time = 0;
  SimTime setup_delay = 0;  ///< controller latency charged to this collective
  SimTime finish_time = 0;
  bool finished = false;
  Bytes message_bytes = 0;
  std::size_t group_size = 0;

  [[nodiscard]] double cct_seconds() const {
    return sim_to_seconds(finish_time - submit_time);
  }
};

/// Diagnostic snapshot of one unfinished collective — why it is stuck, per
/// stream (see the stuck-flow watchdog in src/harness/experiment.h).
struct StuckFlowInfo {
  std::uint64_t id = 0;
  Scheme scheme = Scheme::Ring;
  SimTime submit_time = 0;
  std::size_t delivered = 0;  ///< (receiver, chunk) pairs completed
  std::size_t expected = 0;
  std::size_t ledger_flags = 0;  ///< delivery-ledger flags the collective holds
  std::vector<StreamDiagnostic> streams;
};

/// Thrown by the watchdog when the simulation drained (or hit its deadline)
/// with collectives still unfinished. what() carries a per-flow report.
class StuckFlowError : public std::runtime_error {
 public:
  StuckFlowError(std::string what, std::vector<StuckFlowInfo> flows)
      : std::runtime_error(std::move(what)), flows_(std::move(flows)) {}

  [[nodiscard]] const std::vector<StuckFlowInfo>& flows() const noexcept {
    return flows_;
  }

 private:
  std::vector<StuckFlowInfo> flows_;
};

struct RunnerOptions {
  /// Pipelining chunks per message (paper §4: eight).
  int chunks = 8;
  /// Charge Orca/PEEL+cores the controller flow-setup delay (Figure 4's
  /// "with/without controller overhead" toggle).
  bool controller_delay_enabled = true;
  SimTime controller_mean = 10 * kMillisecond;
  SimTime controller_stddev = 5 * kMillisecond;
  /// CNP coalescing for in-network multicast streams (§4's guard timer;
  /// CnpMode::Unthrottled reproduces the 12x ablation).
  CnpMode multicast_cnp_mode = CnpMode::SenderGuard;
  /// Prefix-cover policy: exact covers by default; bound prefixes/pod or
  /// pod blocks (PeelCoverOptions::compact()) to trade source packet count
  /// for over-covered racks (§3.3/§3.4).
  PeelCoverOptions peel_cover;
  /// Use §2.3 layer-peeling greedy trees (required once links have failed;
  /// only supported on leaf–spine fabrics, as in Figure 7).
  bool peel_asymmetric = false;
  /// §2.3's "multicast vs multipath" open question: build this many
  /// near-optimal trees per collective (distinct core/aggregation choices)
  /// and stripe chunks across them round-robin. 1 = the paper's single tree.
  /// Applies to Optimal and symmetric PEEL.
  int stripe_trees = 1;
  /// Recovery passes re-send to >= 2 missing receivers of one origin over a
  /// fresh §2.3 layer-peel multicast tree (falling back to per-receiver
  /// unicasts when some receiver is currently unreachable). false = always
  /// unicast, the original recover_broadcast behavior.
  bool recovery_trees = true;
  /// Memoize control-plane construction (prefix plans, asymmetric trees,
  /// recovery trees) in a TreePlanCache with link-keyed surgical
  /// invalidation: topology deltas repair or evict exactly the plans whose
  /// trees traverse an affected link. Behavior-transparent on a stable
  /// fabric; under churn the cache guarantees validity (never a plan over a
  /// failed link), not byte-equality with a from-scratch rebuild.
  bool plan_cache = true;
};

/// One (receiver, chunk) delivery a collective still owes, with the endpoint
/// that can re-send the payload and the chunk's size — the unit of the
/// runner's recovery accounting (see CollectiveRunner::recover_collective).
struct ExpectedDelivery {
  NodeId receiver = kInvalidNode;
  int chunk = -1;
  NodeId origin = kInvalidNode;  ///< endpoint that holds the bytes
  Bytes bytes = 0;
};

/// Accumulated wall-clock cost of the control plane's topology-delta apply
/// path (on_topology_delta: route flush, damage marking, surgical plan
/// repair/eviction), surfaced through ScenarioResult so fault-cell perf
/// regressions show up in perf_diff output. Host time, never simulated time
/// — it can never perturb a run's byte streams.
struct DeltaApplyStats {
  std::uint64_t deltas = 0;          ///< on_topology_delta invocations
  double total_us = 0.0;             ///< summed apply latency
  double max_us = 0.0;               ///< worst single delta
  std::uint64_t plans_repaired = 0;  ///< cache entries patched in place
  std::uint64_t plans_evicted = 0;   ///< cache entries evicted
};

class CollectiveRunner : public TopologyObserver {
 public:
  /// `net` is any DataPlane — the single-queue Network or the pod-sharded
  /// engine; `queue` is that engine's control-plane queue (the same
  /// EventQueue for the solo Network, ShardedNetwork::control() when
  /// sharded).
  CollectiveRunner(Fabric fabric, DataPlane& net, EventQueue& queue, Rng rng,
                   RunnerOptions options);
  ~CollectiveRunner();

  CollectiveRunner(const CollectiveRunner&) = delete;
  CollectiveRunner& operator=(const CollectiveRunner&) = delete;

  /// Starts a broadcast at the current simulation time. Request ids must be
  /// unique across the run.
  void submit(Scheme scheme, BroadcastRequest request);

  /// Starts an AllGather. Ring uses the classic rotating-ring algorithm;
  /// multicast schemes (Optimal, Orca, Peel, PeelProgCores) run one
  /// in-network multicast per member shard. BinaryTree is not supported for
  /// AllGather (NCCL's trees are broadcast/reduce shapes).
  void submit_allgather(Scheme scheme, AllGatherRequest request);

  /// Starts an AllReduce. Ring = reduce-scatter + all-gather; InNet =
  /// switch-combining reduction up mirrored PEEL prefix trees followed by
  /// the PEEL prefix multicast down; every other scheme = binary-tree
  /// host-side reduction followed by that scheme's broadcast of the reduced
  /// buffer.
  void submit_allreduce(Scheme scheme, AllReduceRequest request);

  /// Consumes one topology-change event: flushes the router's distance
  /// fields and surgically repairs/evicts the cached plans whose trees
  /// traverse a failed pair (TreePlanCache::apply_delta with the
  /// incremental-repair hook, src/steiner/tree_repair.h). Subscribe the
  /// runner to the TopologyEventBus the FaultInjector publishes on, or call
  /// this directly (e.g. TopologyDelta::link_down(pair)) after mutating the
  /// Topology by hand.
  void on_topology_delta(const TopologyDelta& delta) override;

  /// Repairs one still-active collective (any kind) after mid-run link
  /// failures. The caller sequence is: Topology::fail_duplex /
  /// restore_duplex, Network::on_duplex_failed / on_duplex_restored,
  /// on_topology_delta(...), then this. Every missing (receiver, chunk) pair
  /// is re-sent from the endpoint that holds it — over one layer-peel
  /// multicast tree per origin when RunnerOptions::recovery_trees is set and
  /// several receivers are missing, else per-receiver unicasts. Earlier
  /// recovery streams of the collective are superseded (closed) first, so
  /// repeated passes under flapping never stack. Receivers unreachable over
  /// live links are skipped — a later pass (after repair) picks them up.
  /// The paper defers reliability engineering (§1 footnote); this models the
  /// simplest RDMA-style retransmission a deployment would inherit. Returns
  /// the number of chunk deliveries rescheduled (0 if finished or unknown).
  std::size_t recover_collective(std::uint64_t id);

  /// recover_collective over every collective the observed deltas actually
  /// damaged (a down pair crossed one of its open streams' forwarding
  /// tables), in id order. Undamaged collectives merely have deliveries in
  /// flight — re-sending those is pure duplicate traffic, and on fault-heavy
  /// runs it is the dominant cost of the recovery path. A collective stays
  /// marked until a pass covers every missing delivery, so receivers that
  /// are unreachable right now are retried on the next pass (e.g. after a
  /// link-up delta). Returns the total deliveries rescheduled.
  std::size_t recover_all();

  /// Backward-compatible alias: recover_collective restricted to broadcasts
  /// (returns 0 for other collective kinds, as it always did).
  std::size_t recover_broadcast(std::uint64_t id);

  [[nodiscard]] const std::vector<CollectiveRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t active_count() const noexcept { return execs_.size(); }
  [[nodiscard]] Router& router() noexcept { return router_; }
  /// Control-plane memoization counters (hits/misses/invalidations); the
  /// cache itself is private, consulted by the scheme executors.
  [[nodiscard]] const TreePlanCache& plan_cache() const noexcept {
    return plan_cache_;
  }
  /// Wall-clock cost of every on_topology_delta call so far.
  [[nodiscard]] const DeltaApplyStats& delta_stats() const noexcept {
    return delta_stats_;
  }

  /// Diagnostics for every still-active (unfinished) collective, with each
  /// of its streams' progress. Empty when everything completed.
  [[nodiscard]] std::vector<StuckFlowInfo> stuck_flows() const;

  /// Called at the end of finish_exec, after the record is finalized and the
  /// exec's streams are closed — the hook the workload engine uses to chain a
  /// job's next iteration off the previous one's completion. The handler runs
  /// on the control-plane queue's thread; it may submit new collectives or
  /// schedule closures, but must not destroy the runner.
  void set_finish_handler(std::function<void(const CollectiveRecord&)> handler) {
    finish_handler_ = std::move(handler);
  }

 private:
  friend struct ExecBase;
  struct ExecBase;
  struct RingExec;
  struct BinaryTreeExec;
  struct MulticastExec;
  struct OrcaExec;
  struct PeelProgCoresExec;
  struct RingAllGatherExec;
  struct MulticastAllGatherExec;
  struct RingAllReduceExec;
  struct TreeReduceBroadcastExec;
  struct InNetAllReduceExec;

  void register_exec(std::unique_ptr<ExecBase> exec, Scheme scheme,
                     SimTime setup_delay, Bytes message_bytes,
                     std::size_t group_size);

  void handle_delivery(const DeliveryEvent& ev);
  void finish_exec(std::uint64_t id);

  /// Opens one multicast recovery stream from `origin` to all its missing
  /// receivers; false when no tree exists over live links (the caller then
  /// falls back to per-receiver unicasts).
  bool recover_group_multicast(
      ExecBase& exec, NodeId origin,
      const std::map<NodeId, std::vector<const ExpectedDelivery*>>& by_receiver);

  // Memoized control-plane builders (TreePlanCache-backed; direct calls when
  // RunnerOptions::plan_cache is off). Each returns a shared, immutable
  // artifact — hold the pointer while reading.
  [[nodiscard]] std::shared_ptr<const PeelPlan> peel_plan_for(
      NodeId source, const std::vector<NodeId>& dests);
  [[nodiscard]] std::shared_ptr<const std::vector<PeelStream>>
  asymmetric_trees_for(NodeId source, const std::vector<NodeId>& dests);
  /// PEEL prefix parts for (root, dests), fused at spec-build time into the
  /// single up+down reduce stream (innet_fused_spec mirrors the merged
  /// member-serving tree). Selector-free, so every
  /// collective over the same group shares one cached artifact; cached WITH
  /// its edge set so topology deltas surgically repair the parts.
  [[nodiscard]] std::shared_ptr<const std::vector<PeelStream>> reduce_plan_for(
      NodeId root, const std::vector<NodeId>& dests);
  /// Throws (propagated from layer_peel_tree) when some receiver is
  /// unreachable over live links; failures are never cached.
  [[nodiscard]] std::shared_ptr<const MulticastTree> recovery_tree_for(
      NodeId origin, const std::vector<NodeId>& receivers);

  /// TreePlanCache::apply_delta hook: incrementally repairs a delta-affected
  /// cached artifact (null value = evict).
  [[nodiscard]] PlanRepair repair_cached_plan(
      PlanKind kind, const std::shared_ptr<const void>& value) const;

  Fabric fabric_;
  DataPlane* net_;
  EventQueue* queue_;
  Rng rng_;
  RunnerOptions options_;
  Router router_;
  TreePlanCache plan_cache_;

  std::unordered_map<std::uint64_t, std::unique_ptr<ExecBase>> execs_;
  std::unordered_map<std::uint64_t, std::size_t> record_index_;
  std::vector<CollectiveRecord> records_;
  /// Collectives a down delta has hit (an open stream of theirs forwarded
  /// over a failed pair) and no recovery pass has fully covered yet.
  /// Maintained by on_topology_delta, consumed by recover_all.
  std::unordered_set<std::uint64_t> damaged_execs_;
  DeltaApplyStats delta_stats_;
  std::function<void(const CollectiveRecord&)> finish_handler_;
};

/// Formats `flows` as a human-readable multi-line stuck-flow report.
[[nodiscard]] std::string format_stuck_flows(
    const std::vector<StuckFlowInfo>& flows);

/// Watchdog: throws StuckFlowError with a per-flow diagnostic report if any
/// submitted collective is unfinished. `context` prefixes the message (e.g.
/// "event queue drained" or "deadline 2s exceeded").
void enforce_all_finished(const CollectiveRunner& runner,
                          const std::string& context);

}  // namespace peel
