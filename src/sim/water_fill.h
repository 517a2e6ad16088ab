// Max-min fair rates by progressive filling (water-filling), as a pure
// function over a flat flow/link incidence.
//
// The FlowNetwork hands one connected component to the solver as a
// compressed incidence: a capacity per link slot and, for each flow, the run
// of slots it crosses. Every round raises all unfrozen flows together until
// some slot saturates — the one with the lowest fill level
// max(residual, 0) / unfrozen flows, ties going to the lowest slot index —
// and freezes every flow crossing it at that level.
//
// The rounds are driven by a min-heap keyed on (fill, slot) with lazy
// versions: a slot is re-pushed with its exact current fill once per round
// in which its residual changed, and superseded entries are skipped on pop.
// Every slot's live entry thus carries the value a full rescan of every slot
// would compute, so the heap top is that rescan's pick, ties included. The
// per-slot residual subtractions happen round by round in the same order, so
// the rates are bitwise identical to the rescan, which
// tests/flow_solver_test.cpp keeps as the oracle.
//
// A WaterFill keeps its scratch arenas across calls: solving performs no
// allocation once the arenas have grown to the largest component seen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace peel {

/// One max-min problem: flow f crosses slots
/// flow_slots[flow_begin[f] .. flow_begin[f + 1]).
struct WaterFillProblem {
  std::span<const double> capacity;           ///< per slot, bytes/ns
  std::span<const std::uint32_t> flow_begin;  ///< flows + 1 offsets
  std::span<const std::uint32_t> flow_slots;  ///< slot ids, per flow
};

class WaterFill {
 public:
  /// Writes each flow's max-min fair rate to `rate` (resized to the flow
  /// count). A flow crossing no slot gets 0; the caller decides its pacing.
  void solve(const WaterFillProblem& problem, std::vector<double>& rate);

 private:
  struct HeapEntry {
    double fill;
    std::uint32_t slot;
    std::uint32_t round;  ///< live iff it is the slot's pushed_in_ round
  };

  std::vector<double> residual_;
  std::vector<std::int32_t> count_;       ///< unfrozen flows per slot
  std::vector<std::uint32_t> pushed_in_;  ///< round of the slot's live entry
  std::vector<std::uint32_t> slot_begin_;  ///< slot -> flows (CSR)
  std::vector<std::uint32_t> slot_flows_;
  std::vector<std::uint32_t> cursor_;      ///< CSR fill position per slot
  std::vector<char> frozen_;
  std::vector<std::uint32_t> touched_;
  std::vector<HeapEntry> heap_;
};

}  // namespace peel
