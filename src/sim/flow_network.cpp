#include "src/sim/flow_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace peel {

namespace {

/// Rate floor for a flow whose compiled link set is empty (a degenerate
/// single-node spec): chunks complete in ~1 ns instead of dividing by zero.
constexpr double kUnboundedRate = 1e6;  // bytes per ns

/// (level, link) order of fill rounds.
bool key_less(double la, LinkId a, double lb, LinkId b) {
  return la != lb ? la < lb : a < b;
}

/// Min-heap order on (level, link, flow): std heaps keep the "largest" on
/// top, and a link entry (flow -1) pops before freezes at the same key.
struct FillLater {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    if (a.level != b.level) return a.level > b.level;
    if (a.link != b.link) return a.link > b.link;
    return a.flow > b.flow;
  }
};

}  // namespace

FlowNetwork::FlowNetwork(const Topology& topo, const SimConfig& config,
                         EventQueue& queue)
    : topo_(&topo), config_(config), queue_(&queue) {
  config_.validate();
  links_.resize(topo.link_count());
  slot_of_.assign(topo.link_count(), 0);
  node_stamp_.assign(topo.node_count(), 0);
  node_parent_.assign(topo.node_count(), kInvalidLink);
  if (config_.telemetry.enabled) {
    telem_ = std::make_unique<Telemetry>(config_.telemetry, topo);
  }
  queue_->bind_sink(this);
}

FlowNetwork::~FlowNetwork() {
  if (queue_->sink() == this) queue_->bind_sink(nullptr);
}

void FlowNetwork::on_sim_event(const SimEvent& ev) {
  switch (ev.kind) {
    case SimEventKind::FlowComplete: {
      const FlowState& f = flow(ev.a);
      if (f.closed || f.gen != ev.epoch) return;  // stale (rate changed since)
      settle(ev.a, queue_->now());
      complete_head_chunk(ev.a);
      return;
    }
    case SimEventKind::FlowDeliver:
      if (on_delivery_) {
        on_delivery_(DeliveryEvent{ev.a, flow(ev.a).tag, ev.b, ev.c});
      }
      return;
    case SimEventKind::FlowSolve:
      solve_posted_ = false;
      solve();
      return;
    default:
      throw std::logic_error("FlowNetwork: unexpected SimEvent kind");
  }
}

Bytes FlowNetwork::last_segment(Bytes bytes) const noexcept {
  const Bytes rem = bytes % config_.segment_bytes;
  return rem > 0 ? rem : std::min(bytes, config_.segment_bytes);
}

// ---------------------------------------------------------------------------
// Stream lifecycle

StreamId FlowNetwork::open_stream(StreamSpec spec) {
  const auto id = static_cast<StreamId>(flows_.size());
  flows_.emplace_back();
  FlowState& f = flows_.back();
  f.reduce = !spec.contributors.empty();

  // Compile the directed link set. The forward map is the multicast tree
  // oriented away from the source (toward it, semantically, for a reduce
  // stream); a reduce flow additionally occupies the reverse of every
  // forward link — the contributor up-paths that mirror the down-tree.
  // Each child's in-link (the first the forward map lists), in node-indexed
  // scratch stamped with a fresh epoch, so opening a stream never clears or
  // allocates a fabric-sized table.
  const auto node_total = static_cast<std::size_t>(topo_->node_count());
  const std::uint32_t epoch = ++node_epoch_;
  std::size_t link_total = 0;
  for (const auto& [node, outs] : spec.forward) link_total += outs.size();
  f.fwd_links.reserve(link_total);
  for (const auto& [node, outs] : spec.forward) {
    if (node < 0 || static_cast<std::size_t>(node) >= node_total) {
      throw std::invalid_argument("stream spec names an unknown node");
    }
    for (LinkId l : outs) {
      if (l < 0 || static_cast<std::size_t>(l) >= links_.size()) {
        throw std::invalid_argument("stream spec names an unknown link");
      }
      f.fwd_links.push_back(l);
      const auto child = static_cast<std::size_t>(topo_->link(l).dst);
      if (node_stamp_[child] == epoch) {
        if (f.reduce) {
          throw std::invalid_argument(
              "reduce stream forward map is not a tree (node has two parents)");
        }
        continue;
      }
      node_stamp_[child] = epoch;
      node_parent_[child] = l;
    }
  }
  std::sort(f.fwd_links.begin(), f.fwd_links.end());
  f.fwd_links.erase(std::unique(f.fwd_links.begin(), f.fwd_links.end()),
                    f.fwd_links.end());
  f.links = f.fwd_links;
  if (f.reduce) {
    f.up_links.reserve(f.fwd_links.size());
    for (LinkId l : f.fwd_links) f.up_links.push_back(topo_->reverse_of(l));
    std::sort(f.up_links.begin(), f.up_links.end());
    f.links.insert(f.links.end(), f.up_links.begin(), f.up_links.end());
    std::sort(f.links.begin(), f.links.end());
    f.links.erase(std::unique(f.links.begin(), f.links.end()), f.links.end());
    for (const auto& [node, outs] : spec.forward) {
      if (!outs.empty()) f.combiner_nodes.push_back(node);
    }
    std::sort(f.combiner_nodes.begin(), f.combiner_nodes.end());
  }
  f.link_live.assign(f.links.size(), 1);

  // Per-receiver path timing: walk the parent chain back to the source and
  // accumulate propagation plus per-hop line-rate inverse (the cut-through
  // delay of the chunk's final segment).
  const auto walk = [&](NodeId from, SimTime& prop, double& inv, int& hops) {
    prop = 0;
    inv = 0.0;
    hops = 0;
    NodeId at = from;
    std::size_t guard = 0;
    while (at != spec.source) {
      const auto n = static_cast<std::size_t>(at);
      if (at < 0 || n >= node_total || node_stamp_[n] != epoch ||
          ++guard > node_total) {
        throw std::invalid_argument(
            "stream spec has no forward path between source and endpoint");
      }
      const Link& lk = topo_->link(node_parent_[n]);
      prop += lk.propagation;
      inv += 1.0 / lk.rate.bytes_per_ns();
      ++hops;
      at = lk.src;
    }
  };
  f.recvs.reserve(spec.receivers.size());
  for (NodeId r : spec.receivers) {
    const bool dup =
        std::any_of(f.recvs.begin(), f.recvs.end(),
                    [r](const RecvInfo& ri) { return ri.node == r; });
    if (dup) continue;  // first entry wins, as in the packet engine
    RecvInfo ri;
    ri.node = r;
    int hops = 0;
    walk(r, ri.prop_sum, ri.inv_rate_sum, hops);
    f.recvs.push_back(ri);
  }
  if (f.reduce) {
    // The pipeline's tail byte must climb from the slowest contributor to
    // the pivot (one combine latency per aggregation hop) before the down
    // multicast can retire it.
    for (NodeId c : spec.contributors) {
      SimTime prop = 0;
      double inv = 0.0;
      int hops = 0;
      walk(c, prop, inv, hops);
      const SimTime up =
          prop +
          static_cast<SimTime>(std::ceil(
              static_cast<double>(last_segment(config_.segment_bytes)) * inv)) +
          config_.reduce_combine_latency * hops;
      f.up_offset = std::max(f.up_offset, up);
    }
  }

  if (telem_) {
    std::vector<NodeId> recvs;
    recvs.reserve(f.recvs.size());
    for (const RecvInfo& ri : f.recvs) recvs.push_back(ri.node);
    telem_->on_stream_open(id, spec.tag, recvs);
    if (f.reduce) telem_->on_reduce_open(id, spec.contributors);
  }

  f.source = spec.source;
  f.tag = spec.tag;
  f.cnp_mode = spec.cnp_mode;
  f.contributors = std::move(spec.contributors);
  if (topo_->failed_link_count() > 0) refresh_live_set(id);
  return id;
}

void FlowNetwork::send_chunk(StreamId stream, int chunk_index, Bytes bytes) {
  FlowState& f = flow(stream);
  if (f.closed) throw std::logic_error("send_chunk on closed stream");
  if (bytes <= 0) throw std::invalid_argument("chunk bytes must be positive");
  if (chunk_index < 0) {
    throw std::invalid_argument("chunk index must be non-negative");
  }
  if (telem_ && f.reduce) {
    telem_->on_reduce_target(stream, chunk_index, bytes);
  }
  f.pending.push_back(PendingChunk{chunk_index, bytes});
  if (!f.active && !f.frozen) activate(stream);
}

std::vector<int> FlowNetwork::cancel_unsent_chunks(StreamId stream) {
  FlowState& f = flow(stream);
  std::vector<int> cancelled;
  if (f.closed) return cancelled;
  settle(stream, queue_->now());
  // Keep the chunk currently mid-transfer (if any); drop the rest.
  std::size_t keep = f.pending_head;
  if (keep < f.pending.size() && f.head_done > 0.0) ++keep;
  for (std::size_t i = keep; i < f.pending.size(); ++i) {
    cancelled.push_back(f.pending[i].chunk);
  }
  f.pending.resize(keep);
  if (f.active && f.pending_head == f.pending.size()) deactivate(stream);
  return cancelled;
}

void FlowNetwork::close_stream(StreamId stream) {
  FlowState& f = flow(stream);
  if (f.closed) return;
  // Closing shrinks the component without re-rating the flows the stream
  // shared links with: they keep their rates until their next change. Run
  // the instant's pending solve while the stream still joins them.
  if (f.active || is_dirty(stream)) solve();
  const SimTime now = queue_->now();
  settle(stream, now);
  if (f.active && f.head_done > 0.0) {
    // The head chunk's partial fluid dies with the stream: it was never
    // serialized (lump-sum accounting fires at completion), so take it back
    // out of the rate integrals to keep them equal to the audited bytes.
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      if (f.link_live[i]) {
        links_[static_cast<std::size_t>(f.links[i])].util_integral -=
            f.head_done;
      }
    }
  }
  const bool complete = f.pending_head == f.pending.size() &&
                        !f.short_delivery && !f.frozen;
  if (telem_) telem_->on_stream_close(stream, complete);
  if (f.active) {
    // Its neighbours keep the rates they had beside it (see above).
    for (std::size_t i = 0; i < f.links.size(); ++i) {
      if (f.link_live[i]) stale_links_.push_back(f.links[i]);
    }
    detach(stream);
    f.active = false;
    f.rate = 0.0;
    ++f.gen;
    f.completion_scheduled = false;
  }
  f.closed = true;
  auto release = [](auto& c) { std::decay_t<decltype(c)>{}.swap(c); };
  release(f.contributors);
  release(f.links);
  release(f.link_live);
  release(f.fwd_links);
  release(f.recvs);
  release(f.up_links);
  release(f.combiner_nodes);
  release(f.pending);
  f.pending_head = 0;
  f.head_done = 0.0;
}

// ---------------------------------------------------------------------------
// Progress accrual and completion

void FlowNetwork::settle(StreamId s, SimTime now) {
  FlowState& f = flow(s);
  const SimTime dt = now - f.last_settle;
  f.last_settle = now;
  if (!f.active || dt <= 0 || f.rate <= 0.0) return;
  const PendingChunk& head = f.pending[f.pending_head];
  const double remaining = static_cast<double>(head.bytes) - f.head_done;
  const double progressed =
      std::min(f.rate * static_cast<double>(dt), remaining);
  if (progressed <= 0.0) return;
  f.head_done += progressed;
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (f.link_live[i]) {
      links_[static_cast<std::size_t>(f.links[i])].util_integral += progressed;
    }
  }
}

void FlowNetwork::attach(StreamId s) {
  FlowState& f = flow(s);
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (f.link_live[i]) {
      links_[static_cast<std::size_t>(f.links[i])].active.push_back(s);
    }
  }
}

void FlowNetwork::detach(StreamId s) {
  FlowState& f = flow(s);
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    if (!f.link_live[i]) continue;
    auto& v = links_[static_cast<std::size_t>(f.links[i])].active;
    v.erase(std::remove(v.begin(), v.end(), s), v.end());
  }
}

void FlowNetwork::activate(StreamId s) {
  FlowState& f = flow(s);
  f.active = true;
  f.last_settle = queue_->now();
  f.head_done = 0.0;
  attach(s);
  recompute_component(s);
}

void FlowNetwork::deactivate(StreamId s) {
  FlowState& f = flow(s);
  settle(s, queue_->now());
  detach(s);
  f.active = false;
  f.rate = 0.0;
  ++f.gen;
  f.completion_scheduled = false;
  recompute_component(s);
}

double FlowNetwork::utilization_cap(const FlowState& f) const {
  switch (f.cnp_mode) {
    case CnpMode::SenderGuard:
      return config_.flow.guard_utilization;
    case CnpMode::ReceiverTimer:
      return f.recvs.size() > 1
                 ? config_.flow.receiver_timer_multicast_utilization
                 : config_.flow.receiver_timer_unicast_utilization;
    case CnpMode::Unthrottled:
      return config_.flow.unthrottled_utilization;
  }
  return 1.0;
}

double FlowNetwork::line_rate_floor(const FlowState& f) const {
  double floor = kUnboundedRate;
  for (LinkId l : f.links) {
    floor = std::min(floor, topo_->link(l).rate.bytes_per_ns());
  }
  return floor;
}

bool FlowNetwork::is_dirty(StreamId s) const {
  return std::find(dirty_.begin(), dirty_.end(), s) != dirty_.end();
}

void FlowNetwork::recompute_component(StreamId seed) {
  ++solve_requests_;
  dirty_.push_back(seed);
  if (solve_posted_) return;
  solve_posted_ = true;
  SimEvent ev;
  ev.kind = SimEventKind::FlowSolve;
  queue_->at(queue_->now(), ev);
}

void FlowNetwork::finish_instant() const {
  if (!dirty_.empty()) const_cast<FlowNetwork*>(this)->solve();
}

void FlowNetwork::solve() {
  if (dirty_.empty()) return;
  const SimTime now = queue_->now();
  ++rate_recomputes_;

  // A stale link no active flow crosses any more holds no stale rate.
  std::erase_if(stale_links_, [this](LinkId l) {
    return links_[static_cast<std::size_t>(l)].active.empty();
  });
  bool whole = !stale_links_.empty();
  if (whole) ++stale_fills_;
  while (!fill_region(whole)) {
    whole = true;  // a whole-component fill never cascades
    ++cascade_fills_;
  }
  std::erase_if(stale_links_, [this](LinkId l) { return in_region(l); });
  dirty_.clear();

  // Apply the rates in ascending stream id, so completions are scheduled in
  // the order a full re-fill of the component schedules them. A flow
  // outside the region keeps its level; only a flow on a link whose active
  // count changed (a seed's link) can change contention.
  flows_rerated_ += region_flows_.size();
  recheck_.insert(recheck_.end(), region_flows_.begin(), region_flows_.end());
  std::sort(recheck_.begin(), recheck_.end());
  recheck_.erase(std::unique(recheck_.begin(), recheck_.end()),
                 recheck_.end());
  for (const StreamId s : recheck_) {
    FlowState& f = flow(s);
    if (!f.active) continue;
    bool live = false;
    bool contended = false;
    for (std::size_t j = 0; j < f.links.size(); ++j) {
      if (!f.link_live[j]) continue;
      live = true;
      if (links_[static_cast<std::size_t>(f.links[j])].active.size() >= 2) {
        contended = true;
        break;
      }
    }
    double rate;
    if (!live) {
      // Every link this flow occupies is dead: the source keeps pacing into
      // the outage at line rate, exactly as the packet engine's pump keeps
      // injecting into a dead port (the bytes are recorded as losses when
      // each chunk retires).
      rate = line_rate_floor(f);
    } else {
      rate = f.level;
      if (contended && config_.congestion_control) {
        rate *= utilization_cap(f);
      }
    }
    if (rate != f.rate || !f.completion_scheduled) {
      if (rate != f.rate) ++rates_changed_;
      settle(s, now);
      f.rate = rate;
      schedule_completion(s);
    }
  }
}

bool FlowNetwork::fill_region(bool whole) {
  const std::uint32_t epoch = ++solve_epoch_;
  whole_ = whole;
  region_.clear();
  heap_.clear();
  region_flows_.clear();
  recheck_.clear();
  fill_round_ = 0;

  // Seeds: every dirty stream's live links, with all flows on them
  // unfrozen. An active seed is re-filled; the flows on a seed's links are
  // re-checked for contention.
  for (const StreamId seed : dirty_) {
    FlowState& f = flow(seed);
    if (f.fill_epoch == epoch) continue;
    f.fill_epoch = epoch;
    f.fill_state = f.active ? FillState::Region : FillState::Gone;
    if (f.active) region_flows_.push_back(seed);
  }
  constexpr FillKey kStart{-std::numeric_limits<double>::infinity(),
                           kInvalidLink};
  for (const StreamId seed : dirty_) {
    const FlowState& f = flow(seed);
    for (std::size_t j = 0; j < f.links.size(); ++j) {
      if (!f.link_live[j] || in_region(f.links[j])) continue;
      const auto& active = links_[static_cast<std::size_t>(f.links[j])].active;
      recheck_.insert(recheck_.end(), active.begin(), active.end());
      if (!join(f.links[j], kStart)) return false;
    }
  }
  // A whole fill pulls every flow it meets in: join appends them to
  // region_flows_, and their links join in turn.
  for (std::size_t i = 0; whole_ && i < region_flows_.size(); ++i) {
    const FlowState& f = flow(region_flows_[i]);
    for (std::size_t j = 0; j < f.links.size(); ++j) {
      if (f.link_live[j]) join(f.links[j], kStart);
    }
  }

  FillKey last = kStart;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), FillLater{});
    const FillEntry top = heap_.back();
    heap_.pop_back();
    if (top.flow < 0) {
      const RegionLink& r = region_[slot_of_[static_cast<std::size_t>(top.link)]];
      if (top.version != r.version || r.unfrozen <= 0) continue;
    } else if (flow(top.flow).fill_state != FillState::Fixed) {
      continue;
    }
    // Rounds pop in ascending key unless rounding dipped a tied link's fill
    // below the round before. Only a whole fill orders such a round exactly;
    // its flows are marked so no later region fill replays them by key.
    const FillKey key{top.level, top.link};
    const bool below = key_less(key.level, key.link, last.level, last.link);
    if (below && !whole_) return false;
    if (!below) last = key;
    ++fill_round_;
    touched_.clear();

    if (top.flow >= 0) {
      // A fixed flow's old freeze. If its bottleneck is in the region and
      // did not saturate at this key (it would have popped first), the
      // flow's key moves: re-fill it.
      if (in_region(flow(top.flow).bottleneck)) {
        if (!pull_in(top.flow, key)) return false;
      } else {
        flow(top.flow).fill_state = FillState::Fired;
        freeze(top.flow, top.level);
      }
    } else {
      // A region link saturates: every unfrozen flow on it freezes at its
      // fill. A fixed flow whose old key lies above this one freezes lower
      // than before, so its key moves: re-fill it.
      round_.clear();
      for (const StreamId s : links_[static_cast<std::size_t>(top.link)].active) {
        const FlowState& f = flow(s);
        if (f.fill_state == FillState::Region) {
          round_.push_back(s);
        } else if (f.fill_state == FillState::Fixed) {
          if (f.level != top.level || f.bottleneck != top.link) {
            if (!pull_in(s, key)) return false;
          }
          round_.push_back(s);
        }
      }
      for (const StreamId s : round_) {
        FlowState& f = flow(s);
        if (f.fill_state == FillState::Region) {
          f.level = top.level;
          f.bottleneck = top.link;
          f.cascade = below;
          f.fill_state = FillState::Frozen;
        } else {
          f.fill_state = FillState::Fired;
        }
        freeze(s, top.level);
      }
    }
    for (const std::uint32_t slot : touched_) {
      if (region_[slot].unfrozen > 0) push_link(slot);
    }
  }
  return true;
}

bool FlowNetwork::join(LinkId l, FillKey point) {
  if (in_region(l)) return true;
  const std::uint32_t slot = static_cast<std::uint32_t>(region_.size());
  slot_of_[static_cast<std::size_t>(l)] = slot;
  std::int32_t unfrozen = 0;
  replay_.clear();
  for (const StreamId s : links_[static_cast<std::size_t>(l)].active) {
    FlowState& f = flow(s);
    if (f.fill_epoch != solve_epoch_) {
      f.fill_epoch = solve_epoch_;
      if (whole_) {
        f.fill_state = FillState::Region;
        region_flows_.push_back(s);
      } else if (f.cascade) {
        return false;  // its place among the rounds is not its key's
      } else if (key_less(f.level, f.bottleneck, point.level, point.link)) {
        f.fill_state = FillState::Fired;  // froze before `point`
      } else {
        f.fill_state = FillState::Fixed;
        heap_.push_back(FillEntry{f.level, f.bottleneck, s, 0});
        std::push_heap(heap_.begin(), heap_.end(), FillLater{});
      }
    }
    if (f.fill_state == FillState::Fired || f.fill_state == FillState::Frozen) {
      replay_.push_back(s);
    } else {
      ++unfrozen;
    }
  }
  // Within one round every level is equal, so key order is round order.
  std::sort(replay_.begin(), replay_.end(), [this](StreamId a, StreamId b) {
    const FlowState& fa = flow(a);
    const FlowState& fb = flow(b);
    return key_less(fa.level, fa.bottleneck, fb.level, fb.bottleneck);
  });
  double residual = topo_->link(l).rate.bytes_per_ns();
  for (const StreamId s : replay_) residual -= flow(s).level;
  region_.push_back(RegionLink{l, unfrozen, residual, 0, 0});
  if (unfrozen > 0) push_link(slot);
  return true;
}

bool FlowNetwork::pull_in(StreamId s, FillKey point) {
  FlowState& f = flow(s);
  f.fill_state = FillState::Region;
  region_flows_.push_back(s);
  for (std::size_t j = 0; j < f.links.size(); ++j) {
    if (f.link_live[j] && !join(f.links[j], point)) return false;
  }
  return true;
}

void FlowNetwork::freeze(StreamId s, double level) {
  const FlowState& f = flow(s);
  for (std::size_t j = 0; j < f.links.size(); ++j) {
    if (!f.link_live[j] || !in_region(f.links[j])) continue;
    const std::uint32_t slot = slot_of_[static_cast<std::size_t>(f.links[j])];
    RegionLink& r = region_[slot];
    r.residual -= level;
    --r.unfrozen;
    if (r.touched != fill_round_) {
      r.touched = fill_round_;
      touched_.push_back(slot);
    }
  }
}

void FlowNetwork::push_link(std::uint32_t slot) {
  RegionLink& r = region_[slot];
  r.version = ++push_seq_;
  heap_.push_back(FillEntry{
      std::max(r.residual, 0.0) / static_cast<double>(r.unfrozen), r.link, -1,
      r.version});
  std::push_heap(heap_.begin(), heap_.end(), FillLater{});
}

void FlowNetwork::schedule_completion(StreamId s) {
  FlowState& f = flow(s);
  ++f.gen;
  if (f.rate <= 0.0 || f.pending_head >= f.pending.size()) {
    f.completion_scheduled = false;
    return;
  }
  const PendingChunk& head = f.pending[f.pending_head];
  const double remaining = static_cast<double>(head.bytes) - f.head_done;
  const auto dt = static_cast<SimTime>(std::ceil(remaining / f.rate));
  const SimTime at = queue_->now() + std::max<SimTime>(dt, 0);
  f.completion_scheduled = true;
  SimEvent ev;
  ev.kind = SimEventKind::FlowComplete;
  ev.a = s;
  ev.epoch = f.gen;
  queue_->at(at, ev);
}

void FlowNetwork::complete_head_chunk(StreamId s) {
  FlowState& f = flow(s);
  const SimTime now = queue_->now();
  const PendingChunk head = f.pending[f.pending_head];
  f.head_done = 0.0;
  ++f.pending_head;
  if (f.pending_head == f.pending.size()) {
    f.pending.clear();
    f.pending_head = 0;
  }

  // The audited lump: every integer record for this chunk lands here, at one
  // instant, so hop conservation (enqueued == serialized) holds by
  // construction and a chunk that never completes leaves no trace.
  const std::uint64_t nseg = chunk_segments(head.bytes);
  if (f.reduce && telem_) {
    for (NodeId c : f.contributors) {
      telem_->on_inject(s, head.chunk, head.bytes);
      telem_->on_reduce_contribute(s, c, head.chunk, head.bytes);
    }
  } else if (telem_) {
    telem_->on_inject(s, head.chunk, head.bytes);
  }
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    const LinkId l = f.links[i];
    if (f.link_live[i]) {
      LinkAccum& a = links_[static_cast<std::size_t>(l)];
      a.serialized += head.bytes;
      total_bytes_ += head.bytes;
      segments_serialized_ += nseg;
      if (telem_) {
        telem_->on_enqueue(l, s, head.bytes, 0, now);
        telem_->on_serialized(l, s, head.bytes, 0, now);
      }
    } else {
      // The replication onto the severed subtree died on the wire.
      lost_segments_ += nseg;
      if (telem_) telem_->on_wire_drop(s, head.bytes);
    }
  }
  if (f.reduce && telem_) {
    for (LinkId l : f.up_links) {
      telem_->on_reduce_absorb(s, l, head.chunk, head.bytes);
    }
    for (NodeId n : f.combiner_nodes) {
      telem_->on_reduce_emit(s, n, head.chunk, head.bytes);
    }
  }

  const Bytes tail = last_segment(head.bytes);
  for (const RecvInfo& ri : f.recvs) {
    if (!ri.live) {
      f.short_delivery = true;
      continue;
    }
    if (telem_) telem_->on_deliver(s, ri.node, head.chunk, head.bytes);
    const SimTime offset =
        f.up_offset + ri.prop_sum +
        static_cast<SimTime>(
            std::ceil(static_cast<double>(tail) * ri.inv_rate_sum));
    SimEvent ev;
    ev.kind = SimEventKind::FlowDeliver;
    ev.a = s;
    ev.b = ri.node;
    ev.c = head.chunk;
    queue_->at(now + offset, ev);
  }

  if (f.pending_head == f.pending.size()) {
    deactivate(s);
  } else {
    schedule_completion(s);
  }
}

// ---------------------------------------------------------------------------
// Faults

void FlowNetwork::refresh_live_set(StreamId s) {
  FlowState& f = flow(s);
  if (f.closed) return;
  // A link going dead drops `s` from that link's active list, and the
  // follow-up solve from `s` no longer reaches the flows left on it. Run the
  // instant's pending solve while `s` still joins them.
  if (f.active || is_dirty(s)) solve();
  settle(s, queue_->now());

  // Source-reachable subset of the compiled links over the current topology.
  const std::uint32_t epoch = ++node_epoch_;
  std::vector<NodeId> frontier;
  frontier.push_back(f.source);
  node_stamp_[static_cast<std::size_t>(f.source)] = epoch;
  // The compiled set is small; scan it per frontier node (flat and cheap).
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId at = frontier[i];
    for (LinkId l : f.fwd_links) {
      const Link& lk = topo_->link(l);
      if (lk.src != at || lk.failed) continue;
      auto& stamp = node_stamp_[static_cast<std::size_t>(lk.dst)];
      if (stamp == epoch) continue;
      stamp = epoch;
      frontier.push_back(lk.dst);
    }
  }
  const auto reached = [&](NodeId n) {
    return node_stamp_[static_cast<std::size_t>(n)] == epoch;
  };

  bool lost_partial = false;
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    const Link& lk = topo_->link(f.links[i]);
    // A forward link is live when its upstream end is reachable and the wire
    // itself is up; an up-path (reduce mirror) link hangs off the same
    // duplex pair, so the same test applies to its reverse orientation.
    const NodeId upstream_end =
        f.reduce && !std::binary_search(f.fwd_links.begin(), f.fwd_links.end(),
                                        f.links[i])
            ? lk.dst
            : lk.src;
    const char live = static_cast<char>(!lk.failed && reached(upstream_end));
    if (live == f.link_live[i]) continue;
    LinkAccum& a = links_[static_cast<std::size_t>(f.links[i])];
    if (f.active) {
      if (live) {
        a.active.push_back(s);
        // Catch the link's integral up with the head chunk's progress so the
        // completion lump matches it (the chunk retires over the full set).
        a.util_integral += f.head_done;
      } else {
        a.active.erase(std::remove(a.active.begin(), a.active.end(), s),
                       a.active.end());
        // The partial fluid on the dead wire is gone.
        a.util_integral -= f.head_done;
        lost_partial = true;
        stale_links_.push_back(f.links[i]);
      }
    }
    f.link_live[i] = live;
  }
  for (RecvInfo& ri : f.recvs) ri.live = reached(ri.node);
  if (lost_partial && f.head_done > 0.0) {
    lost_segments_ += chunk_segments(
        std::max<Bytes>(static_cast<Bytes>(f.head_done), 1));
    if (telem_) telem_->on_wire_drop(s, static_cast<Bytes>(f.head_done));
  }
}

void FlowNetwork::on_duplex_failed(LinkId l) {
  const LinkId a = l;
  const LinkId b = topo_->reverse_of(l);
  for (StreamId s = 0; static_cast<StreamId>(flows_.size()) > s; ++s) {
    FlowState& f = flow(s);
    if (f.closed) continue;
    const bool uses =
        std::binary_search(f.links.begin(), f.links.end(), a) ||
        std::binary_search(f.links.begin(), f.links.end(), b);
    if (!uses) continue;
    if (f.reduce) {
      if (f.frozen) continue;
      // A reduce pipeline cannot run truncated (the pivot would combine
      // short); freeze it and let the recovery pass supersede the stream,
      // exactly as the packet engine's combiners stall on the missing child.
      settle(s, queue_->now());
      if (f.active) {
        if (f.head_done > 0.0) {
          for (std::size_t i = 0; i < f.links.size(); ++i) {
            if (f.link_live[i]) {
              links_[static_cast<std::size_t>(f.links[i])].util_integral -=
                  f.head_done;
            }
          }
          lost_segments_ += chunk_segments(
              std::max<Bytes>(static_cast<Bytes>(f.head_done), 1));
          if (telem_) {
            telem_->on_wire_drop(s, static_cast<Bytes>(f.head_done));
          }
          f.head_done = 0.0;
        }
        detach(s);
        f.active = false;
        f.rate = 0.0;
        ++f.gen;
        f.completion_scheduled = false;
        f.frozen = true;
        recompute_component(s);
      } else {
        f.frozen = true;
      }
      continue;
    }
    refresh_live_set(s);
    recompute_component(s);
  }
}

void FlowNetwork::on_duplex_restored(LinkId l) {
  const LinkId a = l;
  const LinkId b = topo_->reverse_of(l);
  for (StreamId s = 0; static_cast<StreamId>(flows_.size()) > s; ++s) {
    FlowState& f = flow(s);
    if (f.closed || f.reduce) continue;  // frozen reduce awaits supersede
    const bool uses =
        std::binary_search(f.links.begin(), f.links.end(), a) ||
        std::binary_search(f.links.begin(), f.links.end(), b);
    if (!uses) continue;
    refresh_live_set(s);
    recompute_component(s);
  }
}

// ---------------------------------------------------------------------------
// Introspection

bool FlowNetwork::stream_uses_link(StreamId s, LinkId l) const {
  const FlowState& f = flow(s);
  if (f.closed) return false;
  return std::binary_search(f.fwd_links.begin(), f.fwd_links.end(), l);
}

StreamDiagnostic FlowNetwork::stream_diagnostic(StreamId s) const {
  finish_instant();
  const FlowState& f = flow(s);
  StreamDiagnostic d;
  d.stream = s;
  d.tag = f.tag;
  d.closed = f.closed;
  d.pump_blocked = f.frozen;
  d.pump_scheduled = f.completion_scheduled;
  d.pending_chunks = f.pending.size() - f.pending_head;
  for (std::size_t i = f.pending_head; i < f.pending.size(); ++i) {
    d.bytes_pending_injection += f.pending[i].bytes;
  }
  d.bytes_pending_injection -= static_cast<Bytes>(f.head_done);
  d.incomplete_deliveries =
      d.pending_chunks * f.recvs.size() + (f.short_delivery ? 1 : 0);
  return d;
}

double FlowNetwork::stream_rate(StreamId s) const {
  finish_instant();
  return flow(s).rate;
}

double FlowNetwork::link_rate(LinkId l) const {
  finish_instant();
  double sum = 0.0;
  for (StreamId s : links_[static_cast<std::size_t>(l)].active) {
    sum += flow(s).rate;
  }
  return sum;
}

}  // namespace peel
