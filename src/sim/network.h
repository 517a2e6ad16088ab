// Packet-level network data plane.
//
// The Network turns a Topology into a running fabric: every link is a FIFO
// serializer with an egress queue, every switch has a shared-buffer occupancy
// driving ECN marking and PFC pause/resume, and every transfer is a Stream —
// a source plus a forwarding map (a multicast tree; unicast is the
// degenerate linear tree).  Switches replicate segments onto all of a
// stream's out-links, which is exactly the replication PEEL's prefix rules,
// Orca's controller rules, or classic IP multicast entries would perform.
//
// Collectives drive the network by opening streams and feeding them chunks;
// the network calls back on every completed (receiver, chunk) delivery so
// schemes like Ring can pipeline (forward a chunk as soon as it landed).
//
// Hot-path layout: open_stream compiles the StreamSpec into *tree slots*,
// one per node its forwarding map names, numbered in ascending node order.
// A slot holds the node's slice of one flat out-link array (each entry
// carrying its child's slot), its receiver index and its combiner index, so
// per-stream state is sized to the tree, not the fabric. A queued segment
// carries the slot of its link's far end (the Arrive event's `e` field), so
// the per-segment work in arrive() is array indexing with no hashing. The
// numbering depends on the forward map alone, so every sharded replica of a
// stream agrees on it. Steady-state events (pump, finish_tx, arrive, CNP
// delivery, telemetry ticks) are scheduled as packed SimEvents dispatched
// back through SimEventSink instead of heap-allocated std::function
// closures; the Network binds itself as the queue's sink on construction.
// Both changes are behavior-neutral: event sequence numbers, firing order,
// and RNG draw order are exactly what the closure-based code produced.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/config.h"
#include "src/sim/data_plane.h"
#include "src/sim/dcqcn.h"
#include "src/sim/event_queue.h"
#include "src/sim/telemetry.h"
#include "src/topology/topology.h"

namespace peel {

/// Shard-mode routing hook (src/sim/sharded.h): claims events whose handler
/// lives in another execution domain. `post` returns true when it captured
/// the event for cross-domain delivery at absolute time `t`; false means the
/// event is domain-local and the Network schedules it on its own queue. A
/// Network with no hook bound behaves exactly as before — the hook sites are
/// behavior-neutral for the single-queue engine.
class CrossDomainHook {
 public:
  virtual ~CrossDomainHook() = default;
  virtual bool post(SimTime t, const SimEvent& ev) = 0;
};

class Network final : public SimEventSink, public DataPlane {
 public:
  Network(const Topology& topo, const SimConfig& config, EventQueue& queue);
  ~Network() override;

  /// Invoked whenever a member receiver finishes a chunk.
  void set_delivery_handler(
      std::function<void(const DeliveryEvent&)> handler) override {
    on_delivery_ = std::move(handler);
  }

  StreamId open_stream(StreamSpec spec) override;

  /// Shard-mode: reserves the next StreamId with no forwarding/receiver
  /// state, keeping ids aligned across domain replicas that do not
  /// participate in the stream. Events for a stub stream must never be
  /// routed to this instance.
  StreamId open_stream_stub();

  /// Queues `bytes` of chunk `chunk_index` for paced injection at the source.
  /// Chunk indices must be non-negative (they key dense per-receiver state).
  void send_chunk(StreamId stream, int chunk_index, Bytes bytes) override;

  /// Shard-mode mirror of send_chunk for non-source domain replicas: records
  /// the chunk's target size so arrivals in this domain can complete
  /// deliveries, without scheduling any injection here. `bytes` 0 un-records
  /// a chunk (mirrors cancel_unsent_chunks on the source domain).
  void note_chunk(StreamId stream, int chunk_index, Bytes bytes);

  /// Removes chunks whose injection has not begun; returns their indices
  /// (used by PEEL+programmable cores to migrate traffic mid-collective).
  std::vector<int> cancel_unsent_chunks(StreamId stream) override;

  /// Frees a finished stream's bookkeeping (forwarding table, progress).
  void close_stream(StreamId stream) override;

  /// Reacts to a mid-run failure of the duplex pair containing `l` (mark the
  /// Topology failed first): queued segments on both directions are lost, as
  /// are segments still in flight on the dead wire. Streams routed through
  /// the link silently stop delivering past it — recovery is the collective
  /// layer's job (CollectiveRunner::recover_broadcast).
  void on_duplex_failed(LinkId l) override;

  /// Reacts to a mid-run repair of the duplex pair containing `l` (call
  /// Topology::restore_duplex first). Segments that were on the wire or
  /// queued when the link died stay dead — each failure advances the link's
  /// fail epoch, and arrivals from an older epoch are dropped even if the
  /// link is live again by then. New traffic flows immediately.
  void on_duplex_restored(LinkId l) override;

  /// Binds the shard-mode routing hook (nullptr to unbind). With a hook
  /// bound, cross-domain Arrive / CnpRate events are diverted to it, and PFC
  /// pause state changes on remote-owned ingress links are forwarded as
  /// PfcPause / PfcResume frames carrying one propagation delay.
  void set_cross_domain_hook(CrossDomainHook* hook) noexcept {
    xhook_ = hook;
  }

  /// Dispatches a packed data-plane event (EventQueue calls this; not for
  /// external use).
  void on_sim_event(const SimEvent& ev) override;

  /// Shard-mode: restarts a lapsed telemetry sampler after a mailbox drain
  /// delivered fresh cross-domain work to this domain's queue (the same
  /// re-arming send_chunk performs when new local work shows up).
  void rearm_sampler();

  /// Segments dropped by mid-run failures.
  [[nodiscard]] std::uint64_t segments_lost() const noexcept { return lost_segments_; }
  /// Duplex pairs repaired mid-run via on_duplex_restored.
  [[nodiscard]] std::uint64_t duplex_repairs() const noexcept { return duplex_repairs_; }

  // --- telemetry ----------------------------------------------------------
  [[nodiscard]] Bytes total_bytes_serialized() const noexcept { return total_bytes_; }
  /// Segments that completed serialization on some link (each replication
  /// hop counts once) — the natural unit for data-plane throughput.
  [[nodiscard]] std::uint64_t segments_serialized() const noexcept {
    return segments_serialized_;
  }
  [[nodiscard]] Bytes link_bytes(LinkId l) const override {
    return links_[static_cast<std::size_t>(l)].serialized;
  }
  [[nodiscard]] std::uint64_t segments_marked() const noexcept { return marked_segments_; }
  /// High-water mark of combiner SRAM held across all reduce streams (bytes
  /// a fast child is ahead of its slowest sibling at some aggregation point).
  [[nodiscard]] Bytes reduce_sram_peak() const noexcept { return reduce_held_peak_; }
  [[nodiscard]] std::uint64_t pfc_pauses() const noexcept { return pfc_pauses_; }
  /// High-water mark of one link's egress queue.
  [[nodiscard]] Bytes link_queue_peak(LinkId l) const {
    return links_[static_cast<std::size_t>(l)].queue_peak;
  }
  /// Deepest egress queue observed anywhere in the fabric.
  [[nodiscard]] Bytes max_queue_peak() const;
  [[nodiscard]] const Dcqcn& stream_cc(StreamId s) const {
    return streams_[static_cast<std::size_t>(s)].cc;
  }
  [[nodiscard]] EventQueue& queue() noexcept { return *queue_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Non-null iff SimConfig::telemetry.enabled (src/sim/telemetry.h).
  /// Mutable access for capacity hints (Telemetry::reserve_series); counter
  /// mutation stays behind the Network's own hooks.
  [[nodiscard]] Telemetry* telemetry() noexcept { return telem_.get(); }
  [[nodiscard]] const Telemetry* telemetry() const noexcept {
    return telem_.get();
  }
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }
  /// True while `s` is open and its compiled forwarding table replicates
  /// onto `l` (one direction; callers check both directions of a duplex
  /// pair). Closed streams report false — their tables are released.
  [[nodiscard]] bool stream_uses_link(StreamId s, LinkId l) const override {
    const StreamState& st = streams_[static_cast<std::size_t>(s)];
    if (st.closed) return false;
    return std::any_of(st.fwd.begin(), st.fwd.end(),
                       [l](const OutLink& o) { return o.link == l; });
  }
  /// Progress snapshot for stuck-flow reports (works without telemetry).
  [[nodiscard]] StreamDiagnostic stream_diagnostic(StreamId s) const override;

 private:
  struct Segment {
    StreamId stream;
    std::int32_t chunk;
    std::int32_t bytes;
    LinkId ingress;  // link that delivered it to the current node (or invalid)
    std::int32_t slot;  // tree slot of the far end of the link it is queued on
    bool marked;
  };

  struct LinkState {
    std::vector<Segment> q;  // FIFO via head index
    std::size_t head = 0;
    Bytes queued = 0;
    bool busy = false;
    bool blocked = false;     // wants to serialize but is PFC-paused
    bool pfc_paused = false;  // downstream asked this link's sender to stop
    Bytes serialized = 0;
    Bytes queue_peak = 0;     // high-water mark of the egress queue
    /// Bumped on every failure of this link; a segment snapshots it when its
    /// serialization starts and is dropped on arrival if it no longer
    /// matches — a repair must never resurrect traffic that was on the dead
    /// wire (or queued behind it) during the outage.
    std::uint32_t fail_epoch = 0;
  };

  struct NodeState {
    Bytes buffered = 0;
    /// Buffered bytes attributed to the ingress link that delivered them —
    /// PFC pauses per ingress port, which is what keeps bidirectional
    /// traffic through a node from deadlocking. Indexed by the link's
    /// position in this node's in-link list (in_slot_of_link_).
    std::vector<Bytes> per_ingress;
    /// In-links whose pfc_paused flag is set (release_buffer skips its
    /// resume walk while this is 0).
    std::int32_t paused_in = 0;
  };

  struct PendingChunk {
    int chunk;
    Bytes bytes;
    Bytes injected = 0;
  };

  /// One contributor's paced sender on an in-network reduce stream — the
  /// per-source half of StreamState, replicated per contributing endpoint.
  struct ReduceInjector {
    NodeId node = kInvalidNode;
    LinkId up_link = kInvalidLink;  ///< mirror of the spec's in-link to `node`
    std::int32_t up_slot = -1;      ///< tree slot of up_link's far end
    Dcqcn cc;
    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    bool pump_scheduled = false;
    bool pump_blocked = false;
    bool local = true;  ///< sharded engine: false = a peer domain paces this
    SimTime pace_next = 0;
  };

  /// Combining state at one aggregation point of a reduce stream — an
  /// interior node of the spec's down-tree, whose fan-in set is the exact
  /// mirror of its forward fan-out. A chunk's bytes move upstream only once
  /// every child link has delivered them, so out_progress[chunk] tracks min
  /// over children. Bytes a faster child is ahead by sit in switch SRAM (the
  /// Network-wide reduce_held gauge).
  struct ReduceCombiner {
    NodeId node = kInvalidNode;
    /// Mirror of the in-link above `node`; kInvalidLink marks the pivot
    /// (spec.source), whose combined bytes launch the forward multicast.
    LinkId up_link = kInvalidLink;
    std::int32_t up_slot = -1;  ///< tree slot of up_link's far end
    std::vector<LinkId> child_links;  ///< sorted; mirrors of the fan-out links
    std::vector<std::vector<Bytes>> child_bytes;  ///< [chunk][child slot]
    std::vector<Bytes> out_progress;              ///< [chunk] bytes forwarded
  };

  /// One entry of a node's out-link slice: the link and the tree slot of
  /// its far end.
  struct OutLink {
    LinkId link;
    std::int32_t slot;
  };

  /// One node of a stream's tree (see the header comment).
  struct TreeSlot {
    std::int32_t out_begin = 0;  ///< out-links: fwd[out_begin, out_end), in
    std::int32_t out_end = 0;    ///< the order the spec's forward map lists
    std::int32_t recv = -1;      ///< compact receiver index, or -1
    std::int32_t combiner = -1;  ///< reduce streams: combiner index, or -1
  };

  struct StreamState {
    // The few spec fields the data plane reads after open_stream; the spec
    // itself (forwarding map, receiver and contributor lists) is compiled
    // into the tables below and dropped.
    NodeId source = kInvalidNode;
    std::uint64_t tag = 0;
    CnpMode cnp_mode = CnpMode::ReceiverTimer;
    Dcqcn cc;
    std::vector<PendingChunk> pending;  // FIFO via pending_head
    std::size_t pending_head = 0;
    bool pump_scheduled = false;
    bool pump_blocked = false;  // waiting for the source's buffer to drain
    bool closed = false;
    SimTime pace_next = 0;

    // In-network reduction (non-empty injectors <=> spec.contributors set):
    // one paced injector per contributor, one combiner per aggregation node.
    std::vector<ReduceInjector> injectors;
    std::vector<ReduceCombiner> combiners;
    Bytes reduce_held = 0;  ///< this stream's share of the SRAM gauge

    // Compiled tree: slots in ascending node order, out-links in one array.
    std::vector<TreeSlot> slots;
    std::vector<OutLink> fwd;
    std::int32_t src_slot = -1;

    /// chunk -> bytes the collective queued for it; 0 = no such chunk
    /// (send_chunk enforces positive sizes, so 0 is unambiguous).
    std::vector<Bytes> chunk_want;
    /// [receiver index][chunk] -> bytes received so far (grown on demand).
    /// Receivers the tree never reaches keep an empty row, so they still
    /// count as incomplete in stream_diagnostic.
    std::vector<std::vector<Bytes>> progress;
    /// [receiver index] -> last CNP emission (CnpMode::ReceiverTimer).
    std::vector<SimTime> last_cnp;
  };

  /// Enqueues `seg` on every out-link of `slot`, stamping each copy with its
  /// link's far-end slot.
  void replicate(const StreamState& st, std::int32_t slot, Segment seg);
  void pump(StreamId s);
  /// Paced injection for contributor `injector` of reduce stream `s` (the
  /// reduce-stream twin of pump()).
  void pump_reduce(StreamId s, std::int32_t injector);
  /// A segment of reduce stream `s` arrived at combiner `combiner` over the
  /// child link in `slot`: absorb it, advance the min-over-children
  /// frontier, and schedule a ReduceEmit for any newly combined bytes.
  void reduce_absorb(StreamId s, std::int32_t combiner, std::size_t slot,
                     const Segment& seg);
  /// Fires combine_latency after a frontier advance: enqueues the combined
  /// bytes on the combiner's upstream egress — or, at the pivot, launches
  /// them onto the forward multicast fan-out.
  void reduce_emit(StreamId s, std::int32_t combiner, std::int32_t chunk,
                   Bytes bytes, bool marked);
  /// Schedules `ev` at `t`, letting the cross-domain hook (if any) claim it
  /// for another domain's queue first.
  void post_event(SimTime t, const SimEvent& ev) {
    if (xhook_ != nullptr && xhook_->post(t, ev)) return;
    queue_->at(t, ev);
  }
  /// Shard-mode: forwards a PFC pause-state change on `ingress` to the
  /// link's owning domain, one propagation delay out. No-op without a hook
  /// (single-queue engine: the local state flip already IS the real state).
  void post_pfc(SimEventKind kind, LinkId ingress);
  void enqueue_segment(LinkId l, Segment seg);
  void try_start(LinkId l);
  void finish_tx(LinkId l, std::uint32_t fail_epoch);
  void arrive(LinkId l, Segment seg, std::uint32_t fail_epoch);
  /// Buffer released at node `n` for a segment that arrived over `ingress`;
  /// lifts PFC pauses and re-arms blocked source pumps as thresholds allow.
  void release_buffer(NodeId n, LinkId ingress, Bytes bytes);
  /// Every pfc_paused flip goes through here to keep NodeState::paused_in.
  void set_paused(LinkId l, bool paused);
  void unpause(LinkId l);
  void maybe_cnp(StreamId s, std::int32_t recv_idx, NodeId receiver);
  /// Telemetry time-series sampler: records one sample, then reschedules
  /// itself only while other events remain, so it never keeps an otherwise
  /// drained simulation alive. send_chunk re-arms a lapsed sampler, so quiet
  /// gaps between collective phases don't kill the time series for good.
  void sample_tick();
  /// Rate of the first fabric-class link a segment injected at `start`
  /// traverses (NVLink hops are skipped — the NIC, not NVLink, paces).
  /// `start` is spec.source for broadcast streams and each contributor for
  /// reduce streams.
  [[nodiscard]] double source_line_rate(const StreamSpec& spec,
                                        NodeId start) const;

  const Topology* topo_;
  SimConfig config_;
  EventQueue* queue_;
  Rng rng_;

  std::vector<LinkState> links_;
  std::vector<NodeState> nodes_;
  std::vector<StreamState> streams_;
  /// link -> its slot within its destination node's in-link list; valid for
  /// every link because each directed link has exactly one destination.
  std::vector<std::int32_t> in_slot_of_link_;
  /// Streams whose pacing is blocked on a full source buffer, per node.
  /// `injector` is -1 for broadcast streams, else the index of the reduce
  /// injector parked at the node.
  struct BlockedPump {
    StreamId stream;
    std::int32_t injector;
  };
  std::vector<std::vector<BlockedPump>> blocked_pumps_;

  std::function<void(const DeliveryEvent&)> on_delivery_;
  std::unique_ptr<Telemetry> telem_;
  CrossDomainHook* xhook_ = nullptr;

  Bytes total_bytes_ = 0;
  Bytes reduce_held_ = 0;       ///< combiner SRAM currently occupied
  Bytes reduce_held_peak_ = 0;  ///< high-water mark of the above
  std::uint64_t segments_serialized_ = 0;
  std::uint64_t marked_segments_ = 0;
  std::uint64_t pfc_pauses_ = 0;
  std::uint64_t lost_segments_ = 0;
  std::uint64_t duplex_repairs_ = 0;
  Bytes pause_threshold_ = 0;
  /// PFC resume level: pause threshold minus hysteresis, clamped at zero so
  /// an over-sized hysteresis can never make resumption unreachable.
  Bytes resume_threshold_ = 0;
  bool sampler_armed_ = false;

  static constexpr SimTime kMinCnp = -(1LL << 62);
};

}  // namespace peel
