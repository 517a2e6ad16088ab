// Pod-sharded simulation engine: conservative parallel discrete-event
// execution over the pod decomposition of a topology (src/topology/shard_plan.h).
//
// ## Execution model
//
// The fabric is split into one *domain* per pod plus one for the core tier
// (pod < 0). Each domain owns a full Network replica over the full topology
// but executes only the events whose handler state lives in its domain:
//
//   - a link's serializer (egress queue, busy/blocked bits, FinishTx) runs
//     in the domain of the link's *source* node;
//   - a node's shared buffer, per-ingress accounting, and Arrive handling
//     run in the node's domain;
//   - a stream's pump and congestion-control state run in the source node's
//     domain; per-receiver delivery progress runs in each receiver's domain.
//
// Exactly three event kinds can cross a domain boundary, and each carries a
// physical delay of at least one cross-domain link propagation:
//
//   - Arrive over a cross-domain link (delay = that link's propagation),
//   - CnpRate back to the sender (delay = SimConfig::cnp_delay, validated
//     against the lookahead at construction),
//   - PfcPause / PfcResume frames from the buffer-owning mirror side to the
//     serializer-owning side (delay = the ingress link's propagation).
//
// In-network reduce streams introduce no fourth kind: each injector paces in
// its contributor's domain, a combiner's absorb/emit runs in its node's
// domain (ReduceEmit schedules on the local queue and the links it emits on
// originate at that node), and only the Arrive hops between them cross.
//
// That minimum — the smallest propagation over cross-domain links — is the
// conservative lookahead L. The engine repeatedly: finds the global minimum
// pending timestamp W; if a control-plane closure is due at W it runs it
// sequentially (with every domain clock advanced to W); otherwise it runs
// every domain in parallel up to the horizon min(W + L, next control event),
// barriers, then drains the per-domain-pair mailboxes into the destination
// queues and replays collected delivery callbacks on the control queue.
//
// ## Determinism
//
// The domain decomposition is a pure function of the topology — the
// `threads` knob only sets how many workers execute the (fixed) domains, so
// results are byte-identical at any thread count:
//
//   - within a domain, the EventQueue's (t, seq) order is untouched;
//   - mailboxes drain in destination-major, source-domain-minor, FIFO order,
//     so the destination queue's sequence counter encodes exactly the
//     (t, source domain, seq) cross-domain merge rule;
//   - delivery callbacks replay on the control queue in (window, domain id,
//     collection order), and every domain RNG is seeded from the scenario
//     seed and its domain id alone.
//
// Relative to the single-queue engine the *timing* differs slightly — PFC
// frames and delivery notifications carry real wire delays that the solo
// engine applies instantaneously — so the sharded engine is selected
// explicitly (ScenarioConfig::shards > 0), never silently.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/topology/shard_plan.h"

namespace peel {

class ShardedNetwork final : public DataPlane {
 public:
  /// `threads` >= 1 is the worker count — an execution knob only (clamped to
  /// the domain count). Throws std::invalid_argument when the topology's
  /// cross-domain structure defeats conservative execution (a cross-domain
  /// link with zero propagation, or cnp_delay below the lookahead).
  ShardedNetwork(const Topology& topo, const SimConfig& config, int threads);
  ~ShardedNetwork() override;

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  // --- DataPlane ----------------------------------------------------------
  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    on_delivery_ = std::move(handler);
  }
  StreamId open_stream(StreamSpec spec) override;
  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override;
  std::vector<int> cancel_unsent_chunks(StreamId stream) override;
  void close_stream(StreamId stream) override;
  void on_duplex_failed(LinkId l) override;
  void on_duplex_restored(LinkId l) override;
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override;
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override;
  [[nodiscard]] Bytes link_bytes(LinkId l) const override;

  // --- engine surface (mirrors EventQueue/Network for the harness) --------
  /// Control-plane queue: collective submissions, fault events, recovery
  /// timers, and replayed delivery callbacks. Closures scheduled here run
  /// sequentially between parallel windows, with every domain clock advanced
  /// to the closure's timestamp first.
  [[nodiscard]] EventQueue& control() noexcept { return control_; }

  /// Runs until every domain queue and the control queue drain.
  void run();
  /// Runs events with timestamps <= `t`, then advances all clocks to `t`.
  void run_until(SimTime t);

  [[nodiscard]] bool empty() const;
  /// Latest clock across the control queue and all domains.
  [[nodiscard]] SimTime now() const;
  /// Total events processed across the control queue and all domains.
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Same-instant burst members across all queues (EventQueue::chained).
  [[nodiscard]] std::uint64_t events_chained() const;

  [[nodiscard]] int domain_count() const noexcept { return domain_total_; }
  [[nodiscard]] int worker_count() const noexcept { return workers_; }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }

  /// Adaptive-window execution counters. Dense control planes (fault
  /// storms, churny workloads) clamp every advance window to the next
  /// control event, so windows shrink until most hold events in a single
  /// domain; such a window runs inline on the coordinator thread
  /// (`windows_inline`) instead of paying a pool barrier round-trip, while
  /// multi-domain windows still fan out (`windows_parallel`). Diagnostics
  /// only — the split never changes results: a skipped domain's
  /// run_window would process nothing.
  [[nodiscard]] std::uint64_t windows_inline() const noexcept {
    return windows_inline_;
  }
  [[nodiscard]] std::uint64_t windows_parallel() const noexcept {
    return windows_parallel_;
  }

  // --- merged counters (sums / maxima over the domain replicas) -----------
  [[nodiscard]] Bytes total_bytes_serialized() const;
  [[nodiscard]] std::uint64_t segments_serialized() const;
  [[nodiscard]] std::uint64_t segments_marked() const;
  [[nodiscard]] std::uint64_t pfc_pauses() const;
  [[nodiscard]] std::uint64_t segments_lost() const;
  [[nodiscard]] std::uint64_t duplex_repairs() const;
  [[nodiscard]] Bytes max_queue_peak() const;
  /// Sum of per-domain combining-SRAM high-water marks. Combining state is
  /// domain-local (a combiner's arrivals and emits all run in its node's
  /// domain), so each domain's gauge peaks independently; the sum is an
  /// UPPER BOUND on the fabric-wide SRAM demand — the domains need not peak
  /// at the same instant, so the sum overstates what a single fabric-wide
  /// gauge (the solo engine's reduce_sram_peak) would read. Not
  /// shard-invariant. Use reduce_sram_peak_max_domain for a figure that is
  /// comparable across engines.
  [[nodiscard]] Bytes reduce_sram_peak() const;
  /// Largest single-domain combining-SRAM high-water mark — a LOWER BOUND on
  /// the fabric-wide peak (the true peak is at least the hottest domain's).
  /// This is the per-switch-budget-relevant figure: no individual switch ever
  /// held more than its domain's gauge, so solo and sharded cells can be
  /// compared on it (solo's single gauge lies in [max_domain, sum]).
  [[nodiscard]] Bytes reduce_sram_peak_max_domain() const;

  // --- telemetry ----------------------------------------------------------
  [[nodiscard]] bool telemetry_enabled() const;
  /// Forwards the series capacity hint to every domain's Telemetry.
  void reserve_series(std::size_t expected_samples);
  /// Merged cross-domain Telemetry (audit + summary); nullptr when disabled.
  /// Materialized on call — use after the run has quiesced, and reuse the
  /// returned pointer rather than calling repeatedly. Valid until the next
  /// call or destruction.
  [[nodiscard]] const Telemetry* merged_telemetry() const;

 private:
  struct DomainHook final : public CrossDomainHook {
    ShardedNetwork* owner = nullptr;
    int domain = -1;
    bool post(SimTime t, const SimEvent& ev) override;
  };

  struct Mail {
    SimTime t;
    SimEvent ev;
  };

  struct Domain {
    EventQueue queue;
    std::unique_ptr<Network> net;  // after queue: destroyed first (unbinds)
    DomainHook hook;
    /// outbox[dst]: cross-domain events generated here this window. Written
    /// only by the thread executing this domain; drained at the barrier.
    std::vector<std::vector<Mail>> outbox;
    /// Deliveries fired inside this domain this window, in firing order.
    std::vector<std::pair<SimTime, DeliveryEvent>> deliveries;
    /// A throw inside run_window, surfaced after the barrier.
    std::exception_ptr error;
  };

  struct StreamInfo {
    int src_domain = -1;
    /// Domains holding real (non-stub) replicas, ascending.
    std::vector<int> footprint;
    /// Reduce streams only: contributor index -> owning domain (CnpRate
    /// events carry the injector index, not a node). Empty = not a reduce
    /// stream.
    std::vector<int> injector_domain;
    /// Distinct owning domains of the above, ascending: the replicas whose
    /// send_chunk actually paces injectors (the rest only note_chunk).
    std::vector<int> injector_domains;
  };

  /// Routes a hook-posted event: false = local to `from` (schedule there),
  /// true = captured into from's outbox for another domain.
  bool route(int from, SimTime t, const SimEvent& ev);
  /// Window loop shared by run() / run_until().
  void advance(bool bounded, SimTime deadline);
  /// Runs every domain up to `horizon`, via the worker pool or inline.
  void run_domains(SimTime horizon);
  /// Moves outbox mail into destination queues (dst-major, src-minor, FIFO)
  /// and replays collected deliveries on the control queue at t + lookahead.
  void drain_windows();
  void worker_main(int wid);

  const Topology* topo_;
  ShardPlan plan_;
  SimConfig config_;
  int domain_total_ = 0;
  SimTime xdelay_ = 0;  ///< conservative lookahead; 0 = no cross-domain links

  std::vector<std::unique_ptr<Domain>> domains_;
  EventQueue control_;
  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::vector<StreamInfo> streams_;

  // Worker pool: generation-counted start barrier + cumulative completion
  // counter. Workers spin (with yield back-off) because windows are short —
  // a condvar round-trip per window would dominate small fabrics.
  int workers_ = 1;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> go_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  std::uint64_t windows_issued_ = 0;
  SimTime horizon_ = 0;  ///< published before each go_ bump
  std::uint64_t windows_inline_ = 0;    ///< single-domain windows, no barrier
  std::uint64_t windows_parallel_ = 0;  ///< windows run through run_domains

  mutable std::unique_ptr<Telemetry> merged_telem_;
};

}  // namespace peel
