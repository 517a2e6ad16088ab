#include "src/sim/event_queue.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace peel {

void EventQueue::check_not_past(SimTime t) const {
  if (t < now_) {
    throw std::logic_error("EventQueue: scheduling into the past (t=" +
                           std::to_string(t) + " ns < now=" +
                           std::to_string(now_) + " ns)");
  }
}

void EventQueue::at(SimTime t, Action fn) {
  check_not_past(t);
  acts_.push_back(ClosureEntry{t, next_seq_++, std::move(fn)});
  std::push_heap(acts_.begin(), acts_.end(), Later{});
}

void EventQueue::insert_slow(const PodEntry& entry) {
  // pod_count_ was already incremented by the caller.
  const std::int64_t bn = entry.t >> shift_;
  std::size_t tier = kOverflowTier;
  if (pod_count_ > 1 && bn < bucket_hi_) {
    // Boundary hardening: an entry reaching this branch sits at or past
    // window_end_ (side_ claims everything below it), so its bucket
    // number can never trail the ladder's low edge. If it did, the ring
    // index (bn & kBucketMask) would alias a future bucket and the entry
    // would fire out of order — fail loudly instead of silently reordering.
    if (bn < bucket_lo_) {
      throw std::logic_error(
          "EventQueue: rung insert below the ladder frontier (t=" +
          std::to_string(entry.t) + " ns, window_end=" +
          std::to_string(window_end_) + " ns)");
    }
    tier = static_cast<std::size_t>(bn & kBucketMask);
    ++rung_count_;
  }
  tier_of(tier).push_back(entry);
  if (pod_count_ == 1) {
    rebase();  // first pod after a drain: re-center on it (lands in a rung)
    tier = static_cast<std::size_t>((entry.t >> shift_) & kBucketMask);
  }
  anchor_tier_ = tier;
  anchor_pos_ = tier_of(tier).size() - 1;
  anchor_t_ = entry.t;
  anchor_seq_ = next_seq_;
}

void EventQueue::chain_onto_anchor(const SimEvent& ev) {
  PodEntry& head = tier_of(anchor_tier_)[anchor_pos_];
  if (head.burst == 0) {
    if (free_bursts_.empty()) {
      bursts_.emplace_back();
      head.burst = static_cast<std::uint32_t>(bursts_.size());
    } else {
      head.burst = free_bursts_.back() + 1;
      free_bursts_.pop_back();
    }
  }
  bursts_[head.burst - 1].push_back(ev);
  anchor_seq_ = ++next_seq_;
  ++chained_;
}

void EventQueue::fire_chained() {
  std::vector<SimEvent>& burst = bursts_[active_];
  const SimEvent ev = burst[active_pos_++];
  if (active_pos_ == burst.size()) {
    burst.clear();
    free_bursts_.push_back(active_);
    active_ = kNoBurst;
  }
  --pod_count_;
  ++processed_;
  if (sink_ == nullptr) {
    throw std::logic_error("EventQueue: SimEvent fired with no sink bound");
  }
  sink_->on_sim_event(ev);
}

void EventQueue::advance() {
  anchor_seq_ = kNoAnchor;
  for (;;) {
    while (rung_count_ > 0) {
      std::vector<PodEntry>& bucket =
          rungs_[static_cast<std::size_t>(bucket_lo_ & kBucketMask)];
      ++bucket_lo_;
      window_end_ = static_cast<SimTime>(bucket_lo_) << shift_;
      if (bucket.empty()) continue;
      rung_count_ -= bucket.size();
      head_ = 0;
      sort_run(bucket);
      return;
    }
    rebase();
  }
}

void EventQueue::sort_run(std::vector<PodEntry>& bucket) {
  // LSD radix sort: a stable counting sort per 6-bit digit of the offset in
  // the bucket (higher digits are equal across it). Entries arrive in seq
  // order, so the result is exact (t, seq) order. Passes ping-pong between
  // run_ and scratch_; no capacity migrates into the rungs.
  const std::vector<PodEntry>* in = &bucket;
  for (int bit = 0; bit < shift_; bit += kDefaultShift) {
    const auto digit = [bit](const PodEntry& e) {
      return static_cast<std::size_t>(e.t >> bit) & ((1u << kDefaultShift) - 1);
    };
    std::array<std::uint32_t, (1 << kDefaultShift) + 1> next{};
    for (const PodEntry& e : *in) ++next[digit(e) + 1];
    if (next[digit(in->front()) + 1] == in->size()) continue;  // a burst
    for (std::size_t i = 1; i < next.size(); ++i) next[i] += next[i - 1];
    std::vector<PodEntry>& out = in == &run_ ? scratch_ : run_;
    out.resize(in->size());
    for (const PodEntry& e : *in) out[next[digit(e)]++] = e;
    in = &out;
  }
  if (in == &bucket) run_.assign(bucket.begin(), bucket.end());
  if (in == &scratch_) run_.swap(scratch_);
  bucket.clear();
}

void EventQueue::rebase() {
  anchor_seq_ = kNoAnchor;
  const auto [lo, hi] = std::minmax_element(
      overflow_.begin(), overflow_.end(),
      [](const PodEntry& a, const PodEntry& b) { return a.t < b.t; });
  // Widen the stride until the span fits the ring; entries in the ragged
  // last bucket simply stay in overflow for the next rebase.
  shift_ = kDefaultShift;
  while (((hi->t - lo->t) >> shift_) >= kBuckets) ++shift_;
  bucket_lo_ = lo->t >> shift_;
  bucket_hi_ = bucket_lo_ + kBuckets;
  window_end_ = static_cast<SimTime>(bucket_lo_) << shift_;
  std::vector<PodEntry> rest;
  for (const PodEntry& e : overflow_) {
    const std::int64_t bn = e.t >> shift_;
    if (bn < bucket_hi_) {
      rungs_[static_cast<std::size_t>(bn & kBucketMask)].push_back(e);
      ++rung_count_;
    } else {
      rest.push_back(e);
    }
  }
  overflow_ = std::move(rest);
}

const EventQueue::PodEntry* EventQueue::next_pod() {
  if (pod_count_ == 0) return nullptr;
  if (head_ == run_.size() && side_.empty()) advance();
  const bool run_first = head_ < run_.size() &&
                         (side_.empty() || Later{}(side_.front(), run_[head_]));
  const PodEntry* pod = run_first ? &run_[head_] : &side_.front();
  return acts_.empty() || Later{}(acts_.front(), *pod) ? pod : nullptr;
}

bool EventQueue::next_event_time(SimTime& t) {
  if (active_ != kNoBurst) {
    t = now_;  // the rest of the burst fires before anything else
    return true;
  }
  const PodEntry* pod = next_pod();
  if (pod == nullptr && acts_.empty()) return false;
  t = pod != nullptr ? pod->t : acts_.front().t;
  return true;
}

bool EventQueue::step() {
  if (active_ != kNoBurst) {
    fire_chained();
    return true;
  }
  const PodEntry* pod = next_pod();
  if (pod == nullptr && acts_.empty()) return false;
  if (pod != nullptr) {
    const PodEntry entry = *pod;
    if (!side_.empty() && pod == side_.data()) {
      std::pop_heap(side_.begin(), side_.end(), Later{});
      side_.pop_back();
    } else {
      ++head_;
    }
    --pod_count_;
    now_ = entry.t;
    ++processed_;
    if (entry.burst != 0) {
      active_ = entry.burst - 1;
      active_pos_ = 0;
    }
    if (sink_ == nullptr) {
      throw std::logic_error("EventQueue: SimEvent fired with no sink bound");
    }
    sink_->on_sim_event(entry.ev);
  } else {
    std::pop_heap(acts_.begin(), acts_.end(), Later{});
    ClosureEntry entry = std::move(acts_.back());
    acts_.pop_back();
    now_ = entry.t;
    ++processed_;
    entry.fn();
  }
  return true;
}

// A burst shares its head's timestamp, so once the head is inside a
// horizon the whole burst is.
void EventQueue::run() {
  while (step()) drain_burst();
}

void EventQueue::run_until(SimTime t) {
  SimTime next = 0;
  while (next_event_time(next) && next <= t) {
    step();
    drain_burst();
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run_window(SimTime end) {
  SimTime next = 0;
  while (next_event_time(next) && next < end) {
    step();
    drain_burst();
  }
}

}  // namespace peel
