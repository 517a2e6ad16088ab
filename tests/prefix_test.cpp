#include <gtest/gtest.h>

#include "src/prefix/cover.h"
#include "src/prefix/prefix.h"
#include "src/common/rng.h"

namespace peel {
namespace {

TEST(Prefix, IdBits) {
  EXPECT_EQ(id_bits(1), 1);
  EXPECT_EQ(id_bits(2), 1);
  EXPECT_EQ(id_bits(3), 2);
  EXPECT_EQ(id_bits(4), 2);
  EXPECT_EQ(id_bits(32), 5);   // k=64 fat-tree: 32 ToRs per pod
  EXPECT_EQ(id_bits(48), 6);   // 48-leaf leaf-spine
  EXPECT_EQ(id_bits(64), 6);   // k=128
  EXPECT_THROW((void)id_bits(0), std::invalid_argument);
}

TEST(Prefix, HeaderBitsFormula) {
  // §3.2: header bits = log2(k/2) + ceil(log2(log2(k/2)+1)).
  EXPECT_EQ(fat_tree_header_bits(8), 2 + 2);     // m=2
  EXPECT_EQ(fat_tree_header_bits(16), 3 + 2);    // m=3
  EXPECT_EQ(fat_tree_header_bits(64), 5 + 3);    // m=5
  EXPECT_EQ(fat_tree_header_bits(128), 6 + 3);   // m=6 -> 9 bits
  // "well under 8 B even for k=128"
  EXPECT_LT(fat_tree_header_bits(128), 8 * 8);
}

TEST(Prefix, RuleCountIsKMinusOne) {
  // 2^(m+1) - 1 entries; with m = log2(k/2) that is k - 1.
  EXPECT_EQ(rule_count(id_bits(32)), 63u);   // k=64 headline: 63 rules
  EXPECT_EQ(rule_count(id_bits(64)), 127u);  // k=128: 127 rules
  EXPECT_EQ(rule_count(id_bits(4)), 7u);     // k=8
}

TEST(Prefix, NaiveEntriesExplode) {
  // ~4e9 for k=64 (2^32), ~1.8e19 for k=128 (2^64) — §1 and §3.2.
  EXPECT_NEAR(naive_multicast_entries(64), 4.294967296e9, 1.0);
  EXPECT_NEAR(naive_multicast_entries(128) / 1.8446744e19, 1.0, 1e-6);
}

TEST(Prefix, BlockGeometry) {
  const int m = 3;
  const Prefix whole{0, 0};
  EXPECT_EQ(whole.block_start(m), 0u);
  EXPECT_EQ(whole.block_size(m), 8u);
  const Prefix upper{1, 1};  // "1**"
  EXPECT_EQ(upper.block_start(m), 4u);
  EXPECT_EQ(upper.block_size(m), 4u);
  EXPECT_TRUE(upper.matches(5, m));
  EXPECT_FALSE(upper.matches(3, m));
  const Prefix exact{6, 3};  // "110"
  EXPECT_EQ(exact.block_size(m), 1u);
  EXPECT_TRUE(exact.matches(6, m));
}

TEST(Prefix, ToString) {
  EXPECT_EQ((Prefix{1, 1}.to_string(3)), "1**");
  EXPECT_EQ((Prefix{1, 2}.to_string(3)), "01*");
  EXPECT_EQ((Prefix{0, 0}.to_string(3)), "***");
  EXPECT_EQ((Prefix{5, 3}.to_string(3)), "101");
}

TEST(Prefix, EncodeDecodeRoundTrip) {
  for (int m = 1; m <= 6; ++m) {
    for (int len = 0; len <= m; ++len) {
      for (std::uint32_t v = 0; v < (1u << len); ++v) {
        const Prefix p{v, len};
        EXPECT_EQ(decode_tuple(encode_tuple(p, m), m), p) << "m=" << m;
      }
    }
  }
}

TEST(Prefix, EncodeRejectsMalformed) {
  EXPECT_THROW((void)encode_tuple(Prefix{4, 2}, 3), std::out_of_range);  // value >= 2^len
  EXPECT_THROW((void)encode_tuple(Prefix{0, 5}, 3), std::out_of_range);  // len > m
}

TEST(RuleTable, SizeMatchesFormula) {
  const PrefixRuleTable table(5, 32);  // k=64 pod
  EXPECT_EQ(table.size(), 63u);
}

TEST(RuleTable, MatchesExactBlocks) {
  const PrefixRuleTable table(3, 8);
  const auto& all = table.match(Prefix{0, 0});
  EXPECT_EQ(all.size(), 8u);
  const auto& upper = table.match(Prefix{1, 1});
  EXPECT_EQ(upper, (std::vector<int>{4, 5, 6, 7}));
  const auto& one = table.match(Prefix{2, 3});
  EXPECT_EQ(one, (std::vector<int>{2}));
  EXPECT_THROW((void)table.match(Prefix{9, 2}), std::out_of_range);
}

TEST(RuleTable, UnequippedPortsDropped) {
  // 48 live leaves in a 6-bit space: blocks clip at 48.
  const PrefixRuleTable table(6, 48);
  EXPECT_EQ(table.match(Prefix{0, 0}).size(), 48u);
  EXPECT_EQ(table.match(Prefix{1, 1}).size(), 16u);  // ids 32..63 -> 32..47
  EXPECT_TRUE(table.match(Prefix{3, 2}).empty());    // ids 48..63 all absent
}

// --- Cover selection ---------------------------------------------------------

TEST(Cover, PaperWalkthrough) {
  // §3.2 example: ToRs 010,011,100,101,110,111 -> prefixes 1** and 01*.
  const MemberSet members = make_member_set({2, 3, 4, 5, 6, 7}, 3);
  const auto cover = exact_cover(members, 3);
  ASSERT_EQ(cover.size(), 2u);
  EXPECT_EQ(cover[0].to_string(3), "01*");
  EXPECT_EQ(cover[1].to_string(3), "1**");
}

TEST(Cover, FullSetIsOnePrefix) {
  const MemberSet members = make_member_set({0, 1, 2, 3, 4, 5, 6, 7}, 3);
  const auto cover = exact_cover(members, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (Prefix{0, 0}));
}

TEST(Cover, EmptySetIsEmptyCover) {
  EXPECT_TRUE(exact_cover(MemberSet(8, 0), 3).empty());
}

TEST(Cover, AlternatingNeedsSingletons) {
  const MemberSet members = make_member_set({0, 2, 4, 6}, 3);
  const auto cover = exact_cover(members, 3);
  EXPECT_EQ(cover.size(), 4u);
  for (const auto& p : cover) EXPECT_EQ(p.length, 3);
}

TEST(Cover, ExactCoverIsExact) {
  // Property: union of blocks == member set, blocks disjoint.
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    MemberSet members(8, 0);
    for (int i = 0; i < 8; ++i) members[static_cast<std::size_t>(i)] = (bits >> i) & 1;
    const auto cover = exact_cover(members, 3);
    MemberSet covered(8, 0);
    for (const auto& p : cover) {
      for (std::uint32_t id = p.block_start(3); id < p.block_start(3) + p.block_size(3);
           ++id) {
        EXPECT_EQ(covered[id], 0) << "overlapping blocks for mask " << bits;
        covered[id] = 1;
      }
    }
    EXPECT_EQ(covered, members) << "mask " << bits;
  }
}

TEST(Cover, BoundedDegeneratesToExact) {
  const MemberSet members = make_member_set({2, 3, 4, 5, 6, 7}, 3);
  const auto bounded = bounded_cover(members, 3, 4);
  EXPECT_EQ(bounded.redundant, 0);
  EXPECT_EQ(bounded.prefixes, exact_cover(members, 3));
}

TEST(Cover, BoundedTradesPacketsForRedundancy) {
  // {0,2,4,6} needs 4 exact blocks; with a budget of 1 it must cover *** and
  // sweep up the 4 odd non-members.
  const MemberSet members = make_member_set({0, 2, 4, 6}, 3);
  const auto one = bounded_cover(members, 3, 1);
  ASSERT_EQ(one.prefixes.size(), 1u);
  EXPECT_EQ(one.prefixes[0], (Prefix{0, 0}));
  EXPECT_EQ(one.redundant, 4);
  // Budget 2: cover 0** and 1** (redundant 4) — no better 2-block split
  // exists, but waste must never exceed the budget-1 waste.
  const auto two = bounded_cover(members, 3, 2);
  EXPECT_LE(two.redundant, one.redundant);
  // Coverage must still include every member.
  for (int id : {0, 2, 4, 6}) {
    bool covered = false;
    for (const auto& p : two.prefixes) {
      covered |= p.matches(static_cast<std::uint32_t>(id), 3);
    }
    EXPECT_TRUE(covered);
  }
}

TEST(Cover, BoundedMinimizesWaste) {
  // Members {0,1,2}: exact = {00*, 010} (2 blocks). Budget 1 must cover 0**
  // wasting exactly one id (011).
  const MemberSet members = make_member_set({0, 1, 2}, 3);
  const auto one = bounded_cover(members, 3, 1);
  ASSERT_EQ(one.prefixes.size(), 1u);
  EXPECT_EQ(one.prefixes[0], (Prefix{0, 1}));
  EXPECT_EQ(one.redundant, 1);
}

TEST(Cover, DontCareMergesBlocks) {
  // Members {1,2,3} with 0 as don't-care: one 0** block instead of {001,01*}.
  const MemberSet members = make_member_set({1, 2, 3}, 3);
  const MemberSet dc = make_member_set({0}, 3);
  const auto cover = exact_cover(members, dc, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (Prefix{0, 1}));
  // Without the don't-care: two blocks.
  EXPECT_EQ(exact_cover(members, 3).size(), 2u);
}

TEST(Cover, DontCareNeverCoversPlainNonMembers) {
  // Members {1}, dc {0}; ids 2,3 are plain non-members and must stay out.
  const auto cover = exact_cover(make_member_set({1}, 3),
                                 make_member_set({0}, 3), 3);
  for (const auto& p : cover) {
    for (std::uint32_t id = p.block_start(3); id < p.block_start(3) + p.block_size(3);
         ++id) {
      EXPECT_LE(id, 1u);
    }
  }
}

TEST(Cover, DontCareOnlyRangeEmitsNothing) {
  const auto cover = exact_cover(MemberSet(8, 0), make_member_set({0, 1}, 3), 3);
  EXPECT_TRUE(cover.empty());
}

TEST(Cover, DontCareFullRange) {
  // Every id member or don't-care: single whole-range block.
  const auto cover = exact_cover(make_member_set({0, 1, 2, 3, 4, 5}, 3),
                                 make_member_set({6, 7}, 3), 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (Prefix{0, 0}));
}

TEST(Cover, DontCareNeverWorseThanExact) {
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    MemberSet members(16, 0);
    MemberSet dc(16, 0);
    for (std::size_t i = 0; i < 16; ++i) {
      const auto roll = rng.next_below(4);
      if (roll == 0) members[i] = 1;
      if (roll == 1) dc[i] = 1;
    }
    if (member_count(members) == 0) continue;
    EXPECT_LE(exact_cover(members, dc, 4).size(), exact_cover(members, 4).size());
  }
}

TEST(Cover, MemberCountAndValidation) {
  EXPECT_EQ(member_count(make_member_set({1, 3, 5}, 3)), 3);
  EXPECT_THROW(make_member_set({8}, 3), std::out_of_range);
  EXPECT_THROW(exact_cover(MemberSet(7, 0), 3), std::invalid_argument);
  EXPECT_THROW(bounded_cover(MemberSet(8, 0), 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace peel
