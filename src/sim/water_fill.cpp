#include "src/sim/water_fill.h"

#include <algorithm>

namespace peel {

namespace {

/// Min-heap order on (fill, slot): std heaps keep the "largest" on top.
struct FillLater {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    return a.fill != b.fill ? a.fill > b.fill : a.slot > b.slot;
  }
};

}  // namespace

void WaterFill::solve(const WaterFillProblem& problem,
                      std::vector<double>& rate) {
  const std::size_t slots = problem.capacity.size();
  const std::size_t flows =
      problem.flow_begin.empty() ? 0 : problem.flow_begin.size() - 1;
  rate.assign(flows, 0.0);

  residual_.assign(problem.capacity.begin(), problem.capacity.end());
  count_.assign(slots, 0);
  pushed_in_.assign(slots, 0);
  frozen_.assign(flows, 0);

  // Inverted index slot -> flows, each run in ascending flow order.
  for (const std::uint32_t s : problem.flow_slots) ++count_[s];
  slot_begin_.assign(slots + 1, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    slot_begin_[s + 1] =
        slot_begin_[s] + static_cast<std::uint32_t>(count_[s]);
  }
  slot_flows_.resize(problem.flow_slots.size());
  cursor_.assign(slot_begin_.begin(), slot_begin_.end() - 1);
  std::size_t pending = 0;  // flows still to freeze
  for (std::size_t f = 0; f < flows; ++f) {
    const std::uint32_t begin = problem.flow_begin[f];
    const std::uint32_t end = problem.flow_begin[f + 1];
    if (begin != end) ++pending;
    for (std::uint32_t i = begin; i < end; ++i) {
      slot_flows_[cursor_[problem.flow_slots[i]]++] =
          static_cast<std::uint32_t>(f);
    }
  }

  const auto fill_of = [this](std::size_t s) {
    return std::max(residual_[s], 0.0) / static_cast<double>(count_[s]);
  };
  heap_.clear();
  for (std::size_t s = 0; s < slots; ++s) {
    if (count_[s] > 0) {
      heap_.push_back(HeapEntry{fill_of(s), static_cast<std::uint32_t>(s), 0});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), FillLater{});

  std::uint32_t round = 0;
  while (pending > 0 && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), FillLater{});
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.round != pushed_in_[top.slot] || count_[top.slot] <= 0) continue;

    // Freeze every flow crossing the saturated slot at its fill level.
    ++round;
    touched_.clear();
    const double level = top.fill;
    for (std::uint32_t i = slot_begin_[top.slot];
         i < slot_begin_[top.slot + 1]; ++i) {
      const std::uint32_t f = slot_flows_[i];
      if (frozen_[f]) continue;
      frozen_[f] = 1;
      --pending;
      rate[f] = level;
      for (std::uint32_t j = problem.flow_begin[f];
           j < problem.flow_begin[f + 1]; ++j) {
        const std::uint32_t s = problem.flow_slots[j];
        residual_[s] -= level;
        --count_[s];
        if (pushed_in_[s] != round) {
          pushed_in_[s] = round;
          touched_.push_back(s);
        }
      }
    }
    for (const std::uint32_t s : touched_) {
      if (count_[s] <= 0) continue;
      heap_.push_back(HeapEntry{fill_of(s), s, round});
      std::push_heap(heap_.begin(), heap_.end(), FillLater{});
    }
  }
}

}  // namespace peel
