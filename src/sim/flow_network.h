// Flow-level (fluid) network data plane — the fast fidelity of the
// multi-fidelity engine (ROADMAP item 5).
//
// Where the packet-level Network serializes 64 KiB segments through FIFO
// egress queues, the FlowNetwork models every stream as a single-rate fluid
// flow over its full compiled link set. Links share bandwidth by
// progressive-filling max-min fair allocation, and DCQCN/ECN/PFC dynamics
// collapse into per-CnpMode utilization caps fitted from cnp_dynamics.csv
// (SimConfig::flow): a contended flow sustains only a fraction of its fair
// share, exactly as the packet-level rate controllers do in steady state.
//
// Events fire only when something discrete happens — a chunk finishes, a
// stream arrives or departs, a link fails or is repaired. Each such change
// marks its stream dirty; one FlowSolve event at the end of the simulated
// instant re-solves rates. A PEEL collective opens and retires its streams
// together, so one solve serves many changes. The rates equal those of
// solving after every change: a rate set mid-instant would last 0 ns, and
// settling at dt = 0 moves no bytes.
//
// A solve is incremental and exact. Every active flow keeps the key of the
// progressive-filling round that froze it, (level, bottleneck link), and a
// solve re-fills only the region a change can reach: the dirty streams'
// links, plus the links of every flow whose key could move. Every other
// flow crossing a region link replays its old freeze at its old key, so
// each flow outside the region keeps its rate bitwise, and the rates equal
// a from-scratch fill of the whole component (docs/simulator.md, "The flow
// solver").
//
// Scheduled chunk completions are invalidated lazily via per-stream
// generation counters, so a rate change costs one reschedule, not a queue
// scan. Completions, deliveries and solves are POD SimEvents dispatched to
// this class as the queue's SimEventSink. The result is O(receivers + links)
// work per chunk instead of O(segments x hops), which is where the >= 20x
// event reduction in BENCH_sim.json's flow_fidelity section comes from.
//
// The byte-audit contract is identical to the packet engine's: all integer
// telemetry for a chunk (inject, per-link enqueue+serialize, per-receiver
// delivery credit, and the reduction ledger for fused reduce streams) is
// recorded lump-sum at the chunk's completion instant, so conservation holds
// by construction and cancelled or truncated chunks never leave phantom
// bytes behind. Delivery *callbacks* still fire at physically plausible
// times (completion + per-receiver path delay), so pipelined collectives
// (Ring's store-and-forward chaining) see the same chunk-granularity timing
// structure as the packet engine.
//
// Fault semantics mirror the packet engine at flow granularity:
//   - a broadcast stream crossing a failed duplex pair keeps flowing on the
//     source-reachable part of its tree; severed receivers stop being
//     credited (the bytes are recorded as wire losses, which exempts the
//     stream from the under-delivery audit exactly like packet-level
//     losses), and chunks completing after a repair reach the full tree;
//   - an in-network reduce stream freezes on any failure in its fused tree
//     (rate 0) until the recovery pass supersedes it — the packet engine's
//     combiners stall the same way when a child's segments stop arriving.
// stream_uses_link keeps answering for the full compiled forward set, so
// CollectiveRunner damage detection and recovery work unchanged.
//
// In addition to the audited lump-sum link bytes, every link integrates its
// piecewise-constant allocated rate (∫ rate dt). The two accountings are
// kept equal by construction — partial progress of a chunk that dies
// (cancel, close, truncation) is retroactively removed from the integral —
// and tests/flow_fidelity_test.cpp asserts the identity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/data_plane.h"
#include "src/sim/event_queue.h"
#include "src/sim/telemetry.h"
#include "src/topology/topology.h"

namespace peel {

class FlowNetwork final : public DataPlane, public SimEventSink {
 public:
  FlowNetwork(const Topology& topo, const SimConfig& config, EventQueue& queue);
  ~FlowNetwork() override;

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

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
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return links_[static_cast<std::size_t>(l)].serialized;
  }

  // --- SimEventSink (binds itself to the queue on construction) -----------
  void on_sim_event(const SimEvent& ev) override;

  // --- engine surface -----------------------------------------------------
  [[nodiscard]] std::uint64_t segments_serialized() const noexcept {
    return segments_serialized_;
  }
  [[nodiscard]] std::uint64_t segments_lost() const noexcept {
    return lost_segments_;
  }
  /// The fluid model has no queues, so nothing ever marks or pauses.
  [[nodiscard]] std::uint64_t segments_marked() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t pfc_pauses() const noexcept { return 0; }
  /// Combiner SRAM holding is a segment-skew phenomenon; a single-rate fluid
  /// reduce stream has no skew to hold.
  [[nodiscard]] Bytes reduce_sram_peak() const noexcept { return 0; }
  [[nodiscard]] Bytes total_bytes_serialized() const noexcept {
    return total_bytes_;
  }
  /// Max-min solves performed, one per perturbed instant (diagnostic).
  [[nodiscard]] std::uint64_t rate_recomputes() const noexcept {
    return rate_recomputes_;
  }
  /// Solve requests before coalescing: one per stream change (diagnostic).
  [[nodiscard]] std::uint64_t solve_requests() const noexcept {
    return solve_requests_;
  }
  /// Flows whose fill key the solves recomputed, summed over solves: the
  /// region size (diagnostic).
  [[nodiscard]] std::uint64_t flows_rerated() const noexcept {
    return flows_rerated_;
  }
  /// Flows whose applied rate changed, summed over solves (diagnostic).
  [[nodiscard]] std::uint64_t rates_changed() const noexcept {
    return rates_changed_;
  }
  /// Solves that re-filled whole components instead of a region: because
  /// stale links were pending, or as the re-run after a rounding cascade
  /// (diagnostic; the two are disjoint).
  [[nodiscard]] std::uint64_t stale_fills() const noexcept { return stale_fills_; }
  [[nodiscard]] std::uint64_t cascade_fills() const noexcept {
    return cascade_fills_;
  }

  /// Current summed allocated rate on a directed link, in bytes/ns — one
  /// point of the piecewise-constant utilization series. Runs a pending
  /// solve first, so it never shows a half-solved instant.
  [[nodiscard]] double link_rate(LinkId l) const;
  /// Current allocated rate of a stream, bytes/ns (0 when inactive). Runs a
  /// pending solve first, like link_rate.
  [[nodiscard]] double stream_rate(StreamId s) const;
  /// Links whose flows still run at rates solved beside a stream that left
  /// them unsolved (close_stream of an active stream, a link dropped from an
  /// active stream's live set), until a solve's component reaches them.
  /// Every other component's rates equal a full progressive fill.
  [[nodiscard]] const std::vector<LinkId>& stale_links() const {
    return stale_links_;
  }
  /// ∫ rate dt over the run so far, in bytes. At drain this equals the
  /// audited link_bytes(l) (see the header comment and the property test).
  [[nodiscard]] double link_rate_integral(LinkId l) const {
    return links_[static_cast<std::size_t>(l)].util_integral;
  }

  [[nodiscard]] Telemetry* telemetry() noexcept { return telem_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const noexcept {
    return telem_.get();
  }
  [[nodiscard]] EventQueue& queue() noexcept { return *queue_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  struct PendingChunk {
    int chunk;
    Bytes bytes;
  };

  /// One receiver's precompiled path timing: last-byte delivery lags the
  /// source-side chunk completion by prop_sum + last_segment * inv_rate_sum
  /// (per-hop cut-through at segment granularity, matching the packet
  /// engine's store-and-forward of the final segment).
  struct RecvInfo {
    NodeId node = kInvalidNode;
    SimTime prop_sum = 0;
    double inv_rate_sum = 0.0;  ///< ns per byte, summed over path hops
    bool live = true;           ///< still source-reachable (faults)
  };

  /// A flow's part in the current solve.
  enum class FillState : std::uint8_t {
    Fixed,   ///< outside the region: freezes at its old key (pending)
    Fired,   ///< outside the region: its old freeze has been replayed
    Region,  ///< in the region, not yet frozen
    Frozen,  ///< in the region, frozen at a new key
    Gone,    ///< an inactive dirty seed (its links seed the region)
  };

  /// A fill round's place: rounds run in ascending (level, link id).
  struct FillKey {
    double level;
    LinkId link;
  };

  struct FlowState {
    // What outlives open_stream of the spec; the forwarding map and the
    // receiver list are compiled into the link and receiver sets below.
    NodeId source = kInvalidNode;
    std::uint64_t tag = 0;
    CnpMode cnp_mode = CnpMode::ReceiverTimer;
    std::vector<NodeId> contributors;  ///< reduce streams only
    bool closed = false;
    bool reduce = false;
    /// Reduce stream hit a failure in its fused tree; rate pinned to 0
    /// until the recovery pass closes (supersedes) it.
    bool frozen = false;
    /// Some (receiver, chunk) credit was skipped by fault truncation.
    bool short_delivery = false;
    bool active = false;  ///< open, pending non-empty, not frozen

    /// Every directed link the fluid occupies: the compiled forward set,
    /// plus (reduce streams) the reverse of each forward link — the
    /// contributor up-paths that mirror the down-tree.
    std::vector<LinkId> links;
    std::vector<char> link_live;  ///< parallel: on the source-reachable part
    /// Forward links only (what stream_uses_link answers for, mirroring the
    /// packet engine's compiled fwd_links).
    std::vector<LinkId> fwd_links;

    std::vector<RecvInfo> recvs;
    /// Reduce streams: the mirrored child links (reverse of each forward
    /// link) and combiner nodes for the ledger records, plus the worst-case
    /// contributor->pivot pipeline delay added to every delivery offset.
    std::vector<LinkId> up_links;
    std::vector<NodeId> combiner_nodes;
    SimTime up_offset = 0;

    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    double head_done = 0.0;  ///< bytes of the head chunk already carried
    double rate = 0.0;       ///< allocated rate, bytes/ns
    SimTime last_settle = 0;
    /// Bumped on every rate change / reschedule; a scheduled completion
    /// whose generation no longer matches is stale and ignored. (It rides
    /// in the 32-bit SimEvent epoch; a stale completion would need 2^32
    /// reschedules of one stream in flight to alias.)
    std::uint32_t gen = 0;
    bool completion_scheduled = false;

    /// Fill key of the round that froze this flow at its last solve: its
    /// max-min fair share (before the contention cap) and the link that
    /// saturated. `cascade`: the round popped below an earlier round's key
    /// (rounding can make a tied link's fill dip after its neighbour's
    /// round), so key order does not give its place in the fill.
    double level = 0.0;
    LinkId bottleneck = kInvalidLink;
    bool cascade = false;
    /// This solve's view of the flow, valid while fill_epoch is current.
    std::uint32_t fill_epoch = 0;
    FillState fill_state = FillState::Fixed;
  };

  struct LinkAccum {
    Bytes serialized = 0;      ///< audited lump-sum bytes (chunk completion)
    double util_integral = 0.0;  ///< ∫ allocated rate dt, bytes
    std::vector<StreamId> active;  ///< active flows whose live set has this link
  };

  [[nodiscard]] FlowState& flow(StreamId s) {
    return flows_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const FlowState& flow(StreamId s) const {
    return flows_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t chunk_segments(Bytes bytes) const noexcept {
    return static_cast<std::uint64_t>((bytes + config_.segment_bytes - 1) /
                                      config_.segment_bytes);
  }
  /// Last segment of a chunk (what the per-hop cut-through delay carries).
  [[nodiscard]] Bytes last_segment(Bytes bytes) const noexcept;

  /// Accrues head-chunk progress (and per-link rate integrals) up to `now`.
  void settle(StreamId s, SimTime now);
  /// Adds/removes `s` from its live links' active lists.
  void attach(StreamId s);
  void detach(StreamId s);
  /// Marks `s` active/inactive and requests a solve of its component.
  void activate(StreamId s);
  void deactivate(StreamId s);
  /// Marks `seed` dirty; the first request of an instant posts the FlowSolve
  /// event that will re-rate the seed's component (seed included, active or
  /// not) together with every other dirty seed's.
  void recompute_component(StreamId seed);
  /// Runs the pending solve now, if any (the posted event then finds
  /// nothing to do). Called before a change that shrinks a component without
  /// re-rating the flows it leaves behind, so those keep exactly the rates
  /// a solve after every change would have given them.
  void solve();
  /// Progressive filling over the region the dirty streams reach; `whole`
  /// pulls every flow on every region link in, re-filling the components.
  /// Returns false when a region fill cannot order a round exactly (a
  /// cascade), and the caller re-runs it whole.
  bool fill_region(bool whole);
  /// Adds `l` to the region with the residual it has just before `point`:
  /// capacity minus the old levels frozen earlier, replayed in key order.
  bool join(LinkId l, FillKey point);
  /// Moves fixed flow `s` into the region: its key is re-filled and its
  /// links join at `point`.
  bool pull_in(StreamId s, FillKey point);
  /// Subtracts `level` from every region link of `s`.
  void freeze(StreamId s, double level);
  void push_link(std::uint32_t slot);
  [[nodiscard]] bool in_region(LinkId l) const {
    const std::uint32_t slot = slot_of_[static_cast<std::size_t>(l)];
    return slot < region_.size() && region_[slot].link == l;
  }
  /// True while `s` waits for the pending solve.
  [[nodiscard]] bool is_dirty(StreamId s) const;
  /// solve() for the rate readers: finishing the instant completes a
  /// mutation that already happened, so the readers stay logically const.
  void finish_instant() const;
  /// Fitted DCQCN utilization cap for a contended flow.
  [[nodiscard]] double utilization_cap(const FlowState& f) const;
  /// (Re)schedules the head-chunk completion event at the current rate.
  void schedule_completion(StreamId s);
  /// Head chunk of `s` finished: record the audited lump, fire delivery
  /// callbacks at per-receiver offsets, advance the FIFO.
  void complete_head_chunk(StreamId s);
  /// Recomputes the source-reachable live subset of `s`'s links/receivers
  /// after a topology change; adjusts active lists and rate integrals.
  void refresh_live_set(StreamId s);
  /// Smallest line rate over the compiled link set — the pacing fallback
  /// when a fault leaves a flow with no live links (the packet engine's
  /// source keeps injecting into the dead port at line rate).
  [[nodiscard]] double line_rate_floor(const FlowState& f) const;

  const Topology* topo_;
  SimConfig config_;
  EventQueue* queue_;

  std::vector<FlowState> flows_;
  std::vector<LinkAccum> links_;
  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::unique_ptr<Telemetry> telem_;

  /// Streams changed since the last solve, and whether a FlowSolve event
  /// is queued.
  std::vector<StreamId> dirty_;
  bool solve_posted_ = false;

  /// Links whose flows kept rates computed with a departed neighbour (a
  /// close of an active stream, a link dropped from an active stream's live
  /// set): the solver re-fills whole components until a solve reaches each.
  std::vector<LinkId> stale_links_;

  // Solve scratch, reused across calls. Region links form a sparse set:
  // link l is in the region iff region_[slot_of_[l]].link == l.
  struct RegionLink {
    LinkId link;
    std::int32_t unfrozen;   ///< flows on the link not frozen yet
    double residual;         ///< capacity minus the levels frozen so far
    std::uint32_t version;   ///< live heap entry
    std::uint32_t touched;   ///< last round that changed the residual
  };
  /// Heap entry: a region link's current fill, or (flow >= 0) a fixed flow's
  /// old freeze. Both are keyed (level, link); a link sorts before a freeze
  /// at the same key.
  struct FillEntry {
    double level;
    LinkId link;
    StreamId flow;
    std::uint32_t version;
  };
  std::vector<std::uint32_t> slot_of_;
  std::vector<RegionLink> region_;
  std::vector<FillEntry> heap_;
  std::vector<StreamId> region_flows_;  ///< active flows whose key is re-filled
  std::vector<StreamId> recheck_;       ///< flows whose rate the solve re-applies
  std::vector<StreamId> round_;
  std::vector<StreamId> replay_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t solve_epoch_ = 0;
  std::uint32_t fill_round_ = 0;
  std::uint32_t push_seq_ = 0;
  bool whole_ = false;

  /// Epoch-stamped node scratch: the live-set reachability walk's visited
  /// set, and open_stream's in-link per tree node (node_parent_).
  std::vector<std::uint32_t> node_stamp_;
  std::vector<LinkId> node_parent_;
  std::uint32_t node_epoch_ = 0;

  Bytes total_bytes_ = 0;
  std::uint64_t segments_serialized_ = 0;
  std::uint64_t lost_segments_ = 0;
  std::uint64_t rate_recomputes_ = 0;
  std::uint64_t solve_requests_ = 0;
  std::uint64_t flows_rerated_ = 0;
  std::uint64_t rates_changed_ = 0;
  std::uint64_t stale_fills_ = 0;
  std::uint64_t cascade_fills_ = 0;
};

}  // namespace peel
