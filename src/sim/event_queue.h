// Discrete-event engine: a time-ordered queue of callbacks.
//
// Events at equal timestamps run in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation run
// deterministic for a fixed seed.
//
// Two scheduling flavors share one sequence counter, so their relative order
// is exactly the scheduling order:
//
//   - `at(t, Action)` boxes an arbitrary callback in a std::function. Fine
//     for control-plane events (collective submission, fault injection,
//     recovery passes), which are rare. Closures live in a small side heap.
//   - `at(t, SimEvent)` carries a type-tagged POD describing one of the
//     data-plane transitions and dispatches it to the bound SimEventSink
//     (the Network, or the FlowNetwork at flow fidelity). The steady state
//     of a simulation is millions of pump / finish_tx / arrive events (chunk
//     completions and deliveries in the fluid model); scheduling them as
//     PODs performs no heap allocation and no std::function indirection on
//     the hot path.
//
// POD storage is a ladder (calendar) queue (docs/performance.md):
//
//   - `rungs_` is a ring of kBuckets fixed-width buckets covering
//     [window_end, window_end + kBuckets << shift). Scheduling into a bucket
//     is an O(1) push_back; a bucket is sorted only when the clock reaches
//     it, becoming `run_`, the active window [now, window_end), popped in
//     O(1) through a head index. Inserts INTO it go to the small heap side_.
//   - `overflow_` holds everything past the ladder, unsorted. When the
//     ladder drains, rebase() re-centers it on the overflow span, widening
//     the bucket stride (shift_) until the span fits — correctness never
//     depends on the bucket width, only the constant factors do.
//
// Same-instant bursts (a switch copying a segment onto every out-link of a
// tree node, a CNP from every receiver of a marked multicast) cost one
// ladder entry: a POD scheduled at the same timestamp as the insert just
// before it, taking the very next sequence number, is chained behind that
// entry while it still sits in a rung or in overflow_. No other event can
// order between two such inserts, so the chain fires as a contiguous run
// right after its head, each member keeping its own sequence number (head
// seq + position). step() still fires one event per call.
//
// Every tier orders by the same (t, seq) key, so firing order is identical
// to the single-heap implementation this replaced (the `perf_suite --check`
// byte-identical CSV gate and the thread-invariance tests enforce that).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"

namespace peel {

/// Type tag of a packed data-plane event (see SimEvent).
enum class SimEventKind : std::uint8_t {
  None = 0,   ///< entry carries a boxed Action instead
  Pump,       ///< inject the next paced segment of stream `a`
  FinishTx,   ///< link `a` finished serializing its head segment (epoch)
  Arrive,     ///< segment (stream b, chunk c, bytes d, marked flag)
              ///< reaches the far end of link `a`, tree slot e (epoch)
  CnpRate,    ///< congestion notification reaches stream `a`'s sender
  SampleTick, ///< telemetry time-series sampler
  PfcPause,   ///< cross-domain PFC pause frame reaches link `a`'s sender
              ///< (sharded engine only; epoch guards stale frames)
  PfcResume,  ///< cross-domain PFC resume frame reaches link `a`'s sender
  ReduceEmit, ///< combiner `b` of reduce stream `a` forwards `d` combined
              ///< bytes of chunk `c` upstream (scheduled combine_latency
              ///< after the last expected child byte arrived; marked flag)
  // FlowNetwork (flow fidelity):
  FlowComplete, ///< head chunk of fluid stream `a` finishes (epoch =
                ///< the stream's rate generation; stale when it moved)
  FlowDeliver,  ///< fluid stream `a` delivers chunk `c` to receiver `b`
  FlowSolve,    ///< end-of-instant max-min solve over the dirty streams
};

/// Packed arguments of one hot data-plane event. Field meaning is
/// kind-specific (documented at SimEventKind); the struct is deliberately a
/// flat POD so scheduling one never touches the heap.
struct SimEvent {
  SimEventKind kind = SimEventKind::None;
  bool flag = false;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
  std::int32_t e = 0;
  std::uint32_t epoch = 0;
};

/// Receiver of packed SimEvents (implemented by the Network and the
/// FlowNetwork). Exactly one sink can be bound to an EventQueue at a time.
class SimEventSink {
 public:
  virtual ~SimEventSink() = default;
  virtual void on_sim_event(const SimEvent& ev) = 0;
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  void at(SimTime t, Action fn);

  /// Schedules `fn` `delay` nanoseconds from now.
  void after(SimTime delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules a packed data-plane event at absolute time `t`. A sink must
  /// be bound (bind_sink) before the event fires.
  void at(SimTime t, const SimEvent& ev) {
    check_not_past(t);
    ++pod_count_;
    if (next_seq_ == anchor_seq_ && t == anchor_t_) {
      chain_onto_anchor(ev);
      return;
    }
    const PodEntry entry{t, next_seq_++, ev};
    if (pod_count_ > 1 && t < window_end_) {
      side_.push_back(entry);
      std::push_heap(side_.begin(), side_.end(), Later{});
    } else {
      insert_slow(entry);
    }
  }

  void after(SimTime delay, const SimEvent& ev) { at(now_ + delay, ev); }

  /// Binds the dispatcher for SimEvents (the Network and the FlowNetwork
  /// bind themselves on construction). Pass nullptr to unbind.
  void bind_sink(SimEventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] SimEventSink* sink() const noexcept { return sink_; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept {
    return pod_count_ == 0 && acts_.empty();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pod_count_ + acts_.size();
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  /// PODs scheduled into a same-instant burst behind an earlier entry
  /// instead of taking a ladder entry of their own (counted at insert).
  [[nodiscard]] std::uint64_t chained() const noexcept { return chained_; }

  /// Runs the earliest event; returns false if the queue was empty.
  bool step();

  /// Runs events until the queue drains.
  void run();

  /// Runs events with timestamps <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Earliest pending timestamp across every tier; false when empty. (The
  /// sharded engine's window loop takes the min over all domain queues.)
  [[nodiscard]] bool next_event_time(SimTime& t);

  /// Runs events with timestamps strictly BEFORE `end` (a conservative PDES
  /// window), leaving the clock at the last processed event. Unlike
  /// run_until, the clock is NOT advanced to the horizon — events may still
  /// arrive inside [now, end) from another domain's mailbox drain.
  void run_window(SimTime end);

  /// Moves the clock forward to `t` without running anything. Precondition:
  /// no pending event is earlier than `t` (the caller knows a global bound,
  /// e.g. the sharded engine's window minimum). A no-op when t <= now().
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  /// Hot-tier entry: 48 bytes, trivially copyable — sorting and sifting it
  /// is a plain memcpy-class move.
  struct PodEntry {
    SimTime t;
    std::uint64_t seq;
    SimEvent ev;
    /// 1 + index into bursts_ of the events chained behind this one; 0 =
    /// none. Occupies what would otherwise be tail padding.
    std::uint32_t burst = 0;
  };
  static_assert(sizeof(PodEntry) == 48, "the chain index must fit padding");
  struct ClosureEntry {
    SimTime t;
    std::uint64_t seq;
    Action fn;
  };
  /// (t, seq) "fires after": the heap order, and the merge order of tiers.
  struct Later {
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static constexpr int kBuckets = 512;  // power of two (ring indexing)
  static constexpr int kBucketMask = kBuckets - 1;
  /// Default bucket stride: 2^6 ns = 64 ns per bucket, ~33 µs ladder span.
  /// Tuned on the perf_suite reference cell: segment serialization and
  /// propagation delays (0.1–5 µs) land in rungs as O(1) push_backs instead
  /// of active-window inserts; slower timers (telemetry sampler, throttled
  /// pacing) overflow and are folded back in by the periodic rebase.
  static constexpr int kDefaultShift = 6;

  void check_not_past(SimTime t) const;
  /// Cold insert paths: first pod (ladder reset), rung push, or overflow.
  /// The entry becomes the chaining anchor.
  void insert_slow(const PodEntry& entry);
  /// Appends `ev` to the burst behind the anchor entry (taking the next
  /// sequence number). Precondition: the anchor is live and adjacent.
  void chain_onto_anchor(const SimEvent& ev);
  /// Fires the next event of the active burst.
  void fire_chained();
  /// Fires the rest of the active burst (if any) in a tight loop.
  void drain_burst() {
    while (active_ != kNoBurst) fire_chained();
  }
  /// Earliest pending POD if it fires before every closure, else nullptr.
  const PodEntry* next_pod();
  /// Refills run_ from the next non-empty rung (rebasing from overflow when
  /// the ladder is empty). Precondition: run_ spent, side_ empty, pods left.
  void advance();
  /// Moves a rung's entries (in seq order) into run_, sorted by (t, seq).
  void sort_run(std::vector<PodEntry>& bucket);
  /// Re-centers the ladder on the overflow span. Precondition: run_, side_
  /// and all rungs empty, overflow_ non-empty.
  void rebase();

  // POD tiers. Invariants while pod_count_ > 0:
  //   run_[head_..], side_: t < window_end_
  //   rung entries        : window_end_ <= t < bucket_hi_ << shift_, in seq
  //                         order in rung (t >> shift_) & kBucketMask
  //   overflow entries    : t >= bucket_hi_ << shift_, in seq order
  // so, once the active burst is spent, the earlier of run_[head_] and
  // side_'s top is the POD minimum. pod_count_ counts every POD, chained
  // burst members included; rung_count_ counts rung entries.
  // bucket_hi_ is pinned between rebases: the ladder frontier must NOT
  // slide forward as bucket_lo_ advances, or a fresh rung insert could land
  // past an entry already parked in overflow and fire before it.
  std::vector<PodEntry> run_;
  std::size_t head_ = 0;
  std::vector<PodEntry> side_;
  std::vector<PodEntry> scratch_;  ///< sort_run()'s ping-pong buffer
  std::array<std::vector<PodEntry>, kBuckets> rungs_;
  std::vector<PodEntry> overflow_;
  std::size_t pod_count_ = 0;
  std::size_t rung_count_ = 0;
  int shift_ = kDefaultShift;
  std::int64_t bucket_lo_ = 0;   ///< first rung's absolute bucket number
  std::int64_t bucket_hi_ = 0;   ///< ladder frontier (absolute bucket number)
  SimTime window_end_ = 0;       ///< run_ and side_ cover [now, window_end_)

  // Same-instant bursts. The anchor is the entry the last POD insert put in
  // a rung or in overflow_, named by position (tier, index) because
  // push_backs may move it. It takes chained inserts only while
  // next_seq_ == anchor_seq_ (nothing else was scheduled since) and the
  // timestamp matches; advance() and rebase() move entries between tiers,
  // so they drop it (anchor_seq_ = kNoAnchor).
  static constexpr std::uint64_t kNoAnchor = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoBurst = ~std::uint32_t{0};
  static constexpr std::size_t kOverflowTier = kBuckets;  ///< else a rung
  std::vector<PodEntry>& tier_of(std::size_t tier) {
    return tier == kOverflowTier ? overflow_ : rungs_[tier];
  }
  std::size_t anchor_tier_ = kOverflowTier;
  std::size_t anchor_pos_ = 0;
  SimTime anchor_t_ = 0;
  std::uint64_t anchor_seq_ = kNoAnchor;
  /// Chained payloads, recycled through free_bursts_ (capacity kept, so the
  /// steady state allocates nothing).
  std::vector<std::vector<SimEvent>> bursts_;
  std::vector<std::uint32_t> free_bursts_;
  std::uint32_t active_ = kNoBurst;  ///< burst firing now (its head fired)
  std::size_t active_pos_ = 0;       ///< next member of the active burst
  std::uint64_t chained_ = 0;

  /// Control-plane closures: rare, so a plain binary heap is fine.
  std::vector<ClosureEntry> acts_;

  SimEventSink* sink_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace peel
