// Power-of-two prefix primitives (§3.2).
//
// Every ToR in a pod gets an m-bit identifier (m = log2(k/2) in a k-ary
// fat-tree).  A Prefix denotes an aligned block of identifiers: the top
// `length` bits are fixed to `value`, the rest wildcarded — exactly the CIDR
// aggregation trick applied to rack identifiers.  An aggregation switch
// pre-installs one forwarding rule per possible prefix: sum over lengths of
// 2^len blocks = 2^(m+1) - 1 = k - 1 rules, installed once, never touched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace peel {

struct Prefix {
  std::uint32_t value = 0;  ///< the fixed top bits, right-aligned (< 2^length)
  int length = 0;           ///< number of fixed bits, 0..m

  friend auto operator<=>(const Prefix&, const Prefix&) = default;

  /// Lowest identifier in the block, given m identifier bits.
  [[nodiscard]] std::uint32_t block_start(int m) const {
    return value << (m - length);
  }
  /// Number of identifiers covered.
  [[nodiscard]] std::uint32_t block_size(int m) const {
    return std::uint32_t{1} << (m - length);
  }
  /// True if identifier `id` (< 2^m) falls inside the block.
  [[nodiscard]] bool matches(std::uint32_t id, int m) const {
    return (id >> (m - length)) == value;
  }

  /// "01*" style rendering for m identifier bits.
  [[nodiscard]] std::string to_string(int m) const;
};

/// Identifier bit-width for a block of `count` entities (ceil(log2(count)),
/// at least 1 so a ⟨value,len⟩ tuple is always expressible).
[[nodiscard]] int id_bits(int count);

/// Header bits for one ⟨prefix value, prefix length⟩ tuple over an m-bit
/// identifier space: m bits of value + ceil(log2(m+1)) bits of length (§3.2).
[[nodiscard]] int tuple_header_bits(int m);

/// Paper's headline header-bits formula for a k-ary fat-tree:
/// log2(k/2) + ceil(log2(log2(k/2)+1)).
[[nodiscard]] int fat_tree_header_bits(int k);

/// Static rules an aggregation switch pre-installs for an m-bit identifier
/// space: 2^(m+1) - 1 (= k - 1 for m = log2(k/2)).
[[nodiscard]] std::size_t rule_count(int m);

/// Per-group entries naive IP multicast would need in a k-ary fat-tree pod:
/// one per subset of the k/2 ToRs, i.e. 2^(k/2). Returned as double because
/// it overflows 64 bits past k = 128.
[[nodiscard]] double naive_multicast_entries(int k);

/// Lossless wire encoding of a tuple into ⌈tuple_header_bits/8⌉ bytes.
[[nodiscard]] std::uint32_t encode_tuple(const Prefix& p, int m);
[[nodiscard]] Prefix decode_tuple(std::uint32_t wire, int m);

/// The static rule table of one aggregation switch: maps any ⟨value,len⟩ to
/// the member ToR ports. Pre-computed once ("deploy-once, touch-never").
class PrefixRuleTable {
 public:
  /// `m` identifier bits; `live_ports` = how many ToRs actually exist (ports
  /// beyond this are unequipped and silently dropped from matches).
  PrefixRuleTable(int m, int live_ports);

  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] std::size_t size() const noexcept;  ///< = rule_count(m)

  /// ToR indices selected by the rule for `p`. Throws std::out_of_range for a
  /// malformed prefix (length > m or value >= 2^length).
  [[nodiscard]] const std::vector<int>& match(const Prefix& p) const;

 private:
  int m_;
  int live_ports_;
  // Rules indexed by (length, value): offset(length) + value, where
  // offset(len) = 2^len - 1.
  std::vector<std::vector<int>> rules_;
};

}  // namespace peel
