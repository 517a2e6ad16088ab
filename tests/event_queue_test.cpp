// Ladder-scheduler tests: the (t, seq) total order across every storage tier
// of the EventQueue — the active window's sorted run and side heap, rungs,
// overflow, same-instant bursts chained behind one entry, and the closure
// heap. The data-plane determinism gate (perf_suite --check) would catch a
// global ordering break eventually; these tests pin the contract at the unit
// level, including the tier-boundary cases a scenario may not visit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "src/sim/event_queue.h"

namespace peel {
namespace {

/// Records the `a` field of every fired SimEvent, optionally running a
/// caller-supplied reaction (to schedule follow-up events from inside the
/// dispatch, as the Network does).
struct RecordingSink final : SimEventSink {
  std::vector<std::int32_t> fired;
  std::function<void(const SimEvent&)> react;

  void on_sim_event(const SimEvent& ev) override {
    fired.push_back(ev.a);
    if (react) react(ev);
  }
};

SimEvent labeled(std::int32_t label) {
  SimEvent ev;
  ev.kind = SimEventKind::Pump;
  ev.a = label;
  return ev;
}

// Equal timestamps run in scheduling order even when the entries alternate
// between the POD ladder and the closure side heap — the two flavors share
// one sequence counter, and that counter is the tie-break.
TEST(EventQueueLadder, EqualTimestampFifoAcrossClosureAndPodTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  std::vector<std::int32_t> order;  // closures append here, PODs to the sink

  q.at(50, labeled(0));
  q.at(50, [&] { order.push_back(1); });
  q.at(50, labeled(2));
  q.at(50, [&] { order.push_back(3); });
  q.at(50, labeled(4));
  // An earlier event scheduled later still fires first.
  q.at(10, [&] { order.push_back(-1); });

  // Merge both recorders through a shared log: replay deterministically by
  // stepping one event at a time and noting which recorder grew.
  std::vector<std::int32_t> merged;
  std::size_t seen_pod = 0, seen_act = 0;
  while (q.step()) {
    if (sink.fired.size() > seen_pod) merged.push_back(sink.fired[seen_pod++]);
    if (order.size() > seen_act) merged.push_back(order[seen_act++]);
  }
  EXPECT_EQ(merged, (std::vector<std::int32_t>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 6u);
}

// Regression for the pinned-frontier invariant: an entry parked in overflow
// must fire before any LATER entry, even when the ladder's low edge has
// advanced far enough that the later timestamp would fit inside a sliding
// window. (The broken variant — frontier tracking bucket_lo_ instead of
// staying pinned until rebase — filed the later event into a rung and fired
// it first.)
TEST(EventQueueLadder, OverflowEntryFiresBeforeLaterRungInsert) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  // First event resets the ladder around t=64; with the default 64 ns
  // stride and 512 rungs the window ends near t ≈ 33k, so t=40000 overflows.
  q.at(64, labeled(1));
  q.at(40000, labeled(100));

  // Walk the ladder: each chain event schedules the next 64 ns ahead until
  // just short of the overflow entry, dragging the low edge across hundreds
  // of buckets. Then insert an event PAST the overflow entry.
  sink.react = [&](const SimEvent& ev) {
    if (ev.a == 1 && q.now() + 64 < 39000) {
      q.after(64, labeled(1));
    } else if (ev.a == 1) {
      q.at(45000, labeled(200));  // later than the overflow entry
    }
  };
  q.run();

  const auto pos100 = std::find(sink.fired.begin(), sink.fired.end(), 100);
  const auto pos200 = std::find(sink.fired.begin(), sink.fired.end(), 200);
  ASSERT_NE(pos100, sink.fired.end());
  ASSERT_NE(pos200, sink.fired.end());
  EXPECT_LT(pos100 - sink.fired.begin(), pos200 - sink.fired.begin())
      << "overflow entry (t=40000) must fire before the rung insert "
         "(t=45000)";
  EXPECT_EQ(q.now(), 45000);
}

// Stress: a few thousand pseudo-random inserts spanning ns-to-ms deltas —
// some up-front, some scheduled from inside dispatches — must fire in exactly
// the order a sorted (t, seq) reference model predicts. Deltas are chosen so
// every tier participates: active window, rungs, overflow, several rebases.
TEST(EventQueueLadder, StressMatchesSortedReferenceModel) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  struct Ref {
    SimTime t;
    std::uint64_t seq;
    std::int32_t label;
  };
  std::vector<Ref> ref;
  std::uint64_t lcg = 0x853c49e6748fea9bULL;
  std::uint64_t seq = 0;
  std::int32_t next_label = 0;
  const auto draw = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  // Tri-modal deltas: mostly ladder-scale, some active-window, some far
  // overflow (forces rebase with widened stride).
  const auto delta = [&draw]() -> SimTime {
    const std::uint64_t d = draw();
    switch (d % 16) {
      case 0: return static_cast<SimTime>(d % 5'000'000);  // up to 5 ms
      case 1:
      case 2: return static_cast<SimTime>(d % 50);         // active window
      default: return static_cast<SimTime>(d % 20'000);    // rungs
    }
  };

  const auto schedule = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.push_back({t, seq++, label});
    q.at(t, labeled(label));
  };

  for (int i = 0; i < 2000; ++i) schedule(delta());
  int inflight_spawns = 6000;
  sink.react = [&](const SimEvent&) {
    for (int k = 0; k < 2 && inflight_spawns > 0; ++k, --inflight_spawns) {
      schedule(q.now() + delta());
    }
  };
  q.run();

  std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  ASSERT_EQ(sink.fired.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(sink.fired[i], ref[i].label)
        << "divergence from the (t, seq) reference order at index " << i;
  }
}

// Bursty oracle: the multicast shape of the packet hot path. Each round drops
// a burst of >= 256 PODs on one nanosecond (a segment finishing on every
// link of a tree at once) with closures interleaved at the same instant,
// stragglers one and two ns later, timers scattered over the next few µs,
// and far (ms) timers that force rebases with a widened stride. Dispatches
// spawn after(0) and +1 ns inserts into the active window. Every round ends
// on a horizon that cuts its burst window in half — run_until, or
// run_window followed by advance_to and an external insert at the horizon
// (the sharded engine's mailbox drain). The firing order must equal the
// (t, seq) model exactly.
TEST(EventQueueLadder, BurstsAndHorizonsMatchSortedReferenceModel) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  struct Ref {
    SimTime t;
    std::uint64_t seq;
    std::int32_t label;
  };
  std::vector<Ref> ref;
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  std::uint64_t seq = 0;
  std::int32_t next_label = 0;
  const auto draw = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  const auto pod = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.push_back({t, seq++, label});
    q.at(t, labeled(label));
  };
  const auto closure = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.push_back({t, seq++, label});
    q.at(t, [&sink, label] { sink.fired.push_back(label); });
  };

  int spawns = 20'000;
  sink.react = [&](const SimEvent&) {
    if (spawns <= 0) return;
    switch (draw() % 8) {
      case 0: --spawns; pod(q.now()); break;      // after(0)
      case 1: --spawns; pod(q.now() + 1); break;  // next nanosecond
      case 2: --spawns; closure(q.now()); break;
      default: break;
    }
  };

  for (int round = 0; round < 24; ++round) {
    // Far enough out that most bursts sit in a rung, not the active window.
    // The second half runs among the far timers, where a rebase has widened
    // the stride and a bucket takes several radix passes.
    const SimTime base =
        round < 12 ? q.now() : std::max<SimTime>(q.now(), 2'000'000);
    const SimTime burst = base + 1 + static_cast<SimTime>(draw() % 4'000);
    const int size = 256 + static_cast<int>(draw() % 200);
    for (int i = 0; i < size; ++i) {
      if (i % 61 == 7) closure(burst);
      pod(burst + (i % 17 == 0 ? static_cast<SimTime>(1 + draw() % 2) : 0));
    }
    // Scattered timers a few µs out: with a widened stride they share a
    // bucket with later bursts while differing above its low digit.
    for (int i = 0; i < 8; ++i) {
      pod(burst + 2 + static_cast<SimTime>(draw() % 3'000));
    }
    if (round % 3 == 0) {
      pod(burst + 1'000'000 + static_cast<SimTime>(draw() % 4'000'000));
    }
    if (round % 2 == 0) {
      q.run_until(burst);
      ASSERT_EQ(q.now(), burst);
    } else {
      q.run_window(burst + 1);
      ASSERT_EQ(q.now(), burst);
      q.advance_to(burst + 1);
      pod(burst + 1);
      closure(burst + 1);
    }
  }
  q.run();

  std::sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  ASSERT_EQ(sink.fired.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(sink.fired[i], ref[i].label)
        << "divergence from the (t, seq) reference order at index " << i;
  }
}

// run_until stops exactly at the boundary even when the remaining events sit
// in different tiers (rung vs overflow), and advances the clock to t.
TEST(EventQueueLadder, RunUntilHonorsBoundaryAcrossTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(100, labeled(1));
  q.at(5'000, labeled(2));        // rung
  q.at(10'000'000, labeled(3));   // overflow

  q.run_until(5'000);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(q.now(), 5'000);
  EXPECT_EQ(q.pending(), 1u);

  q.run_until(20'000'000);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20'000'000);
  EXPECT_TRUE(q.empty());
}

// Draining the queue and scheduling again re-anchors the ladder at the new
// time (a fresh reset, not a stale window) and keeps ordering.
TEST(EventQueueLadder, DrainThenRescheduleResetsLadder) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(1'000'000, labeled(1));
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 1'000'000);

  // New epoch of activity at and just past now, plus a far event.
  q.at(1'000'000, labeled(2));
  q.at(1'000'001, labeled(3));
  q.at(9'000'000, labeled(4));
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 4u);
}

// pending()/empty() count both flavors across all tiers.
TEST(EventQueueLadder, PendingCountsEveryTier) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));        // active window (first pod)
  q.at(2'000, labeled(2));     // rung
  q.at(90'000'000, labeled(3)); // overflow
  q.at(50, [] {});             // closure side heap
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_FALSE(q.empty());

  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), 4u);
}

// A POD event firing with no sink bound throws after the event is consumed
// (same semantics as the retired single-heap implementation).
TEST(EventQueueLadder, PodWithoutSinkThrows) {
  EventQueue q;
  q.at(10, labeled(1));
  EXPECT_THROW(q.step(), std::logic_error);
  EXPECT_EQ(q.processed(), 1u);
  EXPECT_TRUE(q.empty());
}

// Rebase where every overflow entry shares one timestamp: lo == hi, so the
// stride-widening loop must not run (span 0 fits any stride) and all entries
// land in a single rung, firing in scheduling order. (The off-by-one variant
// — widening while span >= kBuckets << shift with span 0, or filing the
// shared bucket at the ring's high edge — either loops forever or drops the
// entries back into overflow every rebase.)
TEST(EventQueueLadder, RebaseWithSingleTimestampOverflow) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  // Anchor at t=64: the ladder re-centers with its window ending near
  // t ≈ 33k (64 ns stride, 512 rungs), so t=1ms entries all overflow.
  q.at(64, labeled(0));
  for (std::int32_t i = 1; i <= 5; ++i) q.at(1'000'000, labeled(i));
  q.run();

  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 1'000'000);
}

// Rebase whose overflow span is EXACTLY kBuckets << kDefaultShift (512 x 64):
// the widen condition is (span >> shift) >= kBuckets, so equality must widen
// the stride once — a `>` comparison would leave hi's bucket number equal to
// bucket_hi_, aliasing ring slot 0 and firing the far entry before the near
// ones. Order must match the (t, seq) reference regardless.
TEST(EventQueueLadder, RebaseSpanExactlyRingCapacityKeepsOrder) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  const SimTime base = 1'000'000;
  const SimTime span = 512 * 64;  // kBuckets << kDefaultShift
  q.at(64, labeled(0));           // anchor; everything below overflows past it
  q.at(base + span, labeled(3));  // scheduled first, fires last
  q.at(base, labeled(1));
  q.at(base + 64, labeled(2));
  q.run();

  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), base + span);
}

// --- Window primitives (the sharded engine's conservative-PDES substrate) --

// run_window's horizon is EXCLUSIVE: an event exactly at `end` belongs to the
// next window (it may still be preceded by a cross-domain arrival at end-ε),
// and the clock stays at the last processed event rather than jumping to the
// horizon.
TEST(EventQueueWindow, RunWindowExcludesEventsAtTheHorizon) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(10, labeled(1));
  q.at(99, labeled(2));
  q.at(100, labeled(3));  // exactly at the horizon: must NOT fire
  q.at(100, [] {});       // closure flavor at the horizon: must NOT fire

  q.run_window(100);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(q.now(), 99) << "clock must stay at the last event, not the horizon";
  EXPECT_EQ(q.pending(), 2u);

  // An arrival landing inside [now, horizon) from a mailbox drain is legal
  // and fires in (t, seq) order in the next window.
  q.at(99, labeled(4));
  q.run_window(101);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1, 2, 4, 3}));
  EXPECT_TRUE(q.empty());
}

// An empty window (no events below the horizon) processes nothing and leaves
// the clock untouched — the barrier advance is advance_to's job.
TEST(EventQueueWindow, EmptyWindowIsANoOp) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.at(500, labeled(1));
  q.run_window(500);
  EXPECT_TRUE(sink.fired.empty());
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending(), 1u);

  q.run_window(501);
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
}

// advance_to moves the clock forward only; a stale (smaller) bound is a
// no-op, and scheduling at the advanced clock is legal while scheduling
// before it still throws.
TEST(EventQueueWindow, AdvanceToIsMonotoneAndGatesScheduling) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  q.advance_to(250);
  EXPECT_EQ(q.now(), 250);
  q.advance_to(100);  // backwards: no-op
  EXPECT_EQ(q.now(), 250);

  q.at(250, labeled(1));  // exactly at now: legal
  EXPECT_THROW(q.at(249, labeled(2)), std::logic_error);
  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(q.now(), 250);
}

// next_event_time peeks the global minimum across the POD ladder and the
// closure side heap without consuming anything — the sharded engine's window
// bound is computed from it every iteration.
TEST(EventQueueWindow, NextEventTimePeeksMinAcrossTiers) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  SimTime t = -1;
  EXPECT_FALSE(q.next_event_time(t));

  q.at(700, labeled(1));        // rung
  q.at(90'000'000, labeled(2)); // overflow
  EXPECT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 700);

  q.at(300, [] {});  // closure earlier than every POD
  EXPECT_TRUE(q.next_event_time(t));
  EXPECT_EQ(t, 300);
  EXPECT_EQ(q.pending(), 3u) << "peeking must not consume";
  EXPECT_EQ(q.processed(), 0u);

  q.run();
  EXPECT_FALSE(q.next_event_time(t));
}

// --- Same-instant bursts (PODs chained behind one ladder entry) -----------

// A POD scheduled at the timestamp of the insert just before it, taking the
// next sequence number, rides behind that entry while it sits in a rung or
// in overflow; anything scheduled in between (a closure, an active-window
// insert) or a timestamp change starts a new entry.
TEST(EventQueueBursts, ChainsOnlyAdjacentSameInstantInserts) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  std::vector<std::int32_t> order;

  q.at(10, labeled(0));                          // first pod: active window
  for (std::int32_t i = 1; i <= 4; ++i) q.at(5'000, labeled(i));  // rung
  EXPECT_EQ(q.chained(), 3u);
  q.at(5'000, [&] { order.push_back(5); });      // closure: ends the chain
  q.at(5'000, labeled(6));                       // new rung entry
  q.at(5'000, labeled(7));                       // chained behind 6
  q.at(5'001, labeled(8));                       // next instant: new entry
  q.at(9'000'000, labeled(9));                   // overflow
  q.at(9'000'000, labeled(10));                  // chained in overflow
  EXPECT_EQ(q.chained(), 5u);
  EXPECT_EQ(q.pending(), 11u);

  q.run();
  EXPECT_EQ(sink.fired, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 6, 7, 8, 9,
                                                   10}));
  EXPECT_EQ(order, (std::vector<std::int32_t>{5}));
  EXPECT_EQ(q.processed(), 11u);
  EXPECT_TRUE(q.empty());
}

// Burst oracle: random schedules rich in same-instant runs of 1-512 PODs (a
// switch replicating a segment onto every out-link, a CNP from every
// receiver), checked against a sorted (t, seq) reference on every fired
// event and after every step(): order, processed(), pending(), now() and
// next_event_time. The mix covers after(0) inserts and fresh bursts made
// from inside dispatch, closures interleaved at the burst instant,
// run_until / run_window horizons landing exactly on a burst, advance_to
// followed by an external insert at the horizon (the sharded engine's
// mailbox drain), and far timers whose rebase widens the stride so bursts
// chain in overflow and re-enter wide rungs.
TEST(EventQueueBursts, RandomBurstSchedulesMatchReferenceStepByStep) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);

  using Key = std::tuple<SimTime, std::uint64_t, std::int32_t>;
  std::set<Key> ref;  // pending events in (t, seq) order
  std::uint64_t seq = 0;
  std::uint64_t fired = 0;
  std::int32_t next_label = 0;
  bool diverged = false;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  const auto draw = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };

  // Every fired event must be the reference minimum, with the counters
  // already reflecting it when its handler runs.
  const auto on_fire = [&](std::int32_t label) {
    if (diverged) return;
    if (ref.empty() || std::get<2>(*ref.begin()) != label) {
      ADD_FAILURE() << "event " << label << " fired out of (t, seq) order "
                    << "after " << fired << " events";
      diverged = true;
      return;
    }
    const SimTime t = std::get<0>(*ref.begin());
    ref.erase(ref.begin());
    ++fired;
    if (q.now() != t || q.processed() != fired || q.pending() != ref.size()) {
      ADD_FAILURE() << "counters diverged at event " << label << ": now "
                    << q.now() << " vs " << t << ", processed "
                    << q.processed() << " vs " << fired << ", pending "
                    << q.pending() << " vs " << ref.size();
      diverged = true;
    }
  };
  const auto pod = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.insert({t, seq++, label});
    q.at(t, labeled(label));
  };
  const auto closure = [&](SimTime t) {
    const std::int32_t label = next_label++;
    ref.insert({t, seq++, label});
    q.at(t, [&on_fire, label] { on_fire(label); });
  };
  const auto burst_size = [&]() -> int {
    static constexpr int kSizes[] = {1, 2, 3, 8, 8, 64, 512};
    return kSizes[draw() % std::size(kSizes)];
  };
  // A burst at `t`, sometimes cut by a closure at the same instant or by a
  // straggler one nanosecond later (either must start a new entry).
  const auto burst = [&](SimTime t) {
    const int n = burst_size();
    const int cut = static_cast<int>(draw() % static_cast<std::uint64_t>(n));
    const std::uint64_t how = draw() % 4;
    for (int i = 0; i < n; ++i) {
      if (i == cut && how == 0) closure(t);
      if (i == cut && how == 1) pod(t + 1);
      pod(t);
    }
  };
  const auto check_peek = [&] {
    SimTime t = -1;
    const bool has = q.next_event_time(t);
    if (has != !ref.empty() ||
        (has && t != std::get<0>(*ref.begin()))) {
      ADD_FAILURE() << "next_event_time " << (has ? t : -1) << " vs "
                    << (ref.empty() ? -1 : std::get<0>(*ref.begin()));
      diverged = true;
    }
  };

  int spawns = 40'000;
  sink.react = [&](const SimEvent& ev) {
    on_fire(ev.a);
    if (spawns <= 0 || diverged) return;
    switch (draw() % 16) {
      case 0: --spawns; pod(q.now()); break;  // after(0): active window
      case 1: --spawns; pod(q.now() + 1); break;
      case 2: --spawns; closure(q.now()); break;
      case 3:  // the fan-out: a burst a serialization time ahead
        spawns -= 8;
        burst(q.now() + 50 + static_cast<SimTime>(draw() % 3'000));
        break;
      case 4:  // several replicas each scheduling a follow-up
        spawns -= 2;
        pod(q.now() + 700);
        pod(q.now() + 700);
        break;
      default: break;
    }
  };

  // Burst instants still pending, for the horizons to land on.
  std::vector<SimTime> instants;
  for (int round = 0; round < 160 && !diverged; ++round) {
    const SimTime now = q.now();
    SimTime at = now;
    switch (draw() % 8) {
      case 0: at = now + static_cast<SimTime>(draw() % 64); break;
      case 1:  // far: overflow, then a rebase with a widened stride
        at = now + 1'000'000 + static_cast<SimTime>(draw() % 4'000'000);
        break;
      default: at = now + 64 + static_cast<SimTime>(draw() % 30'000); break;
    }
    burst(at);
    instants.push_back(at);
    if (draw() % 4 == 0) burst(at + 64 + static_cast<SimTime>(draw() % 5'000));

    const std::uint64_t action = draw() % 4;
    if (action == 0) {
      for (int i = static_cast<int>(draw() % 400); i > 0 && !diverged; --i) {
        if (!q.step()) break;
        check_peek();
      }
      continue;
    }
    // A horizon exactly on a pending burst instant.
    std::erase_if(instants, [&](SimTime t) { return t < q.now(); });
    if (instants.empty()) continue;
    const SimTime h = instants[draw() % instants.size()];
    if (action == 1) {
      q.run_until(h);
      EXPECT_EQ(q.now(), h);
    } else {
      q.run_window(h);  // the burst at h stays pending
      check_peek();
      if (action == 3) {
        q.advance_to(h);
        EXPECT_EQ(q.now(), h);
        pod(h);  // a mailbox arrival at the horizon, then more of its burst
        burst(h);
        closure(h);
      }
    }
    EXPECT_EQ(q.processed(), fired);
    EXPECT_EQ(q.pending(), ref.size());
    check_peek();
  }
  while (!diverged && q.step()) check_peek();

  EXPECT_FALSE(diverged);
  EXPECT_TRUE(ref.empty());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), fired);
  EXPECT_EQ(fired, seq);
  // The schedule must actually exercise chaining, not just pass around it.
  EXPECT_GT(q.chained(), seq / 4);
}

}  // namespace
}  // namespace peel
