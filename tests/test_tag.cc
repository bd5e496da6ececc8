#include "core/tag.h"

#include <gtest/gtest.h>

#include <map>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::core {
namespace {

TEST(ChunkTag, FromBitsSortsAndDedupes) {
  const auto tag = ChunkTag::from_bits({5, 1, 5, 3});
  EXPECT_EQ(tag.bits(), (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(tag.popcount(), 3u);
  EXPECT_TRUE(tag.test(3));
  EXPECT_FALSE(tag.test(2));
}

TEST(ChunkTag, CommonBitsMatchesFig8) {
  // γ1 = {0,2,4}, γ3 = {0,2,4,6}: weight 3 in the paper's Fig. 8.
  const auto g1 = ChunkTag::from_bits({0, 2, 4});
  const auto g3 = ChunkTag::from_bits({0, 2, 4, 6});
  EXPECT_EQ(g1.common_bits(g3), 3u);
  // γ1 and γ5 = {0,4,6,8}: weight 2.
  const auto g5 = ChunkTag::from_bits({0, 4, 6, 8});
  EXPECT_EQ(g1.common_bits(g5), 2u);
}

TEST(ChunkTag, HammingDistance) {
  const auto a = ChunkTag::from_bits({1, 2, 3});
  const auto b = ChunkTag::from_bits({2, 3, 4, 5});
  EXPECT_EQ(a.hamming_distance(b), 3u);  // {1} vs {4,5}
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(ChunkTag, MergeAndRender) {
  const auto a = ChunkTag::from_bits({0, 2});
  const auto b = ChunkTag::from_bits({2, 3});
  const auto m = a.merged_with(b);
  EXPECT_EQ(m.bits(), (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(m.to_string(4), "1011");
  const auto bs = m.to_bitset(4);
  EXPECT_EQ(bs.count(), 3u);
}

TEST(ChunkTag, HashConsingBehaviour) {
  const auto a = ChunkTag::from_bits({7, 9});
  const auto b = ChunkTag::from_bits({9, 7});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  const auto c = ChunkTag::from_bits({7});
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ClusterTag, BitwiseSumAndDot) {
  ClusterTag cluster;
  cluster.add(ChunkTag::from_bits({0, 2, 4}));       // γ1
  cluster.add(ChunkTag::from_bits({0, 2, 4, 6}));    // γ3
  EXPECT_EQ(cluster.count_at(0), 2u);
  EXPECT_EQ(cluster.count_at(6), 1u);
  EXPECT_EQ(cluster.count_at(1), 0u);
  // Dot with γ5 = {0,4,6,8}: 2 + 2 + 1 = 5 (the paper's sum-tag dot).
  EXPECT_EQ(cluster.dot(ChunkTag::from_bits({0, 4, 6, 8})), 5u);
}

TEST(ClusterTag, DotOfClusters) {
  ClusterTag a;
  a.add(ChunkTag::from_bits({0, 1}));
  a.add(ChunkTag::from_bits({0, 2}));
  ClusterTag b;
  b.add(ChunkTag::from_bits({0, 3}));
  b.add(ChunkTag::from_bits({0, 1}));
  // counts a: {0:2, 1:1, 2:1}; b: {0:2, 1:1, 3:1} -> 4 + 1 = 5.
  EXPECT_EQ(a.dot(b), 5u);
}

TEST(ClusterTag, RemoveRestoresCounts) {
  ClusterTag t;
  const auto x = ChunkTag::from_bits({1, 2});
  const auto y = ChunkTag::from_bits({2, 3});
  t.add(x);
  t.add(y);
  t.remove(x);
  EXPECT_EQ(t.count_at(1), 0u);
  EXPECT_EQ(t.count_at(2), 1u);
  EXPECT_EQ(t.distinct_chunks(), 2u);
  t.remove(y);
  EXPECT_TRUE(t.empty());
}

TEST(ClusterTag, RemoveMissingBitThrows) {
  ClusterTag t;
  t.add(ChunkTag::from_bits({1}));
  EXPECT_THROW(t.remove(ChunkTag::from_bits({2})), mlsc::Error);
}

TEST(ClusterTag, PositionsAndEntries) {
  ClusterTag t;
  t.add(ChunkTag::from_bits({4, 9}));
  t.add(ChunkTag::from_bits({4}));
  EXPECT_EQ(t.positions(), (std::vector<std::uint32_t>{4, 9}));
  ASSERT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.entries()[0].count, 2u);
  EXPECT_EQ(t.entries()[1].count, 1u);
}

/// The in-place updates keep the entries equal to a reference count map
/// through random adds, cluster merges and removals, at both narrow and
/// wide (galloped) size ratios.
TEST(ClusterTag, InPlaceUpdatesMatchReferenceCounts) {
  mlsc::Rng rng(7);
  auto random_tag = [&](std::uint32_t width, std::size_t max_bits) {
    std::vector<std::uint32_t> bits;
    const std::size_t n = rng.next_below(max_bits + 1);
    for (std::size_t i = 0; i < n; ++i) {
      bits.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
    }
    return ChunkTag::from_bits(std::move(bits));
  };
  auto expect_matches = [](const ClusterTag& tag,
                           const std::map<std::uint32_t, std::uint32_t>& ref) {
    ASSERT_EQ(tag.entries().size(), ref.size());
    auto it = ref.begin();
    for (const auto& e : tag.entries()) {
      EXPECT_EQ(e.pos, it->first);
      EXPECT_EQ(e.count, it->second);
      ++it;
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    const auto width =
        static_cast<std::uint32_t>(1 + rng.next_below(300));
    ClusterTag tag;
    std::map<std::uint32_t, std::uint32_t> ref;
    std::vector<ChunkTag> members;
    for (int step = 0; step < 60; ++step) {
      const auto op = rng.next_below(4);
      if (op == 0 && !members.empty()) {
        const std::size_t victim = rng.next_below(members.size());
        tag.remove(members[victim]);
        for (std::uint32_t b : members[victim].bits()) {
          if (--ref[b] == 0) ref.erase(b);
        }
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
      } else if (op == 1) {
        ClusterTag other;
        const std::size_t n = 1 + rng.next_below(4);
        for (std::size_t i = 0; i < n; ++i) {
          members.push_back(random_tag(width, 1 + rng.next_below(40)));
          other.add(members.back());
          for (std::uint32_t b : members.back().bits()) ++ref[b];
        }
        tag.add(other);
      } else {
        members.push_back(random_tag(width, 1 + rng.next_below(40)));
        tag.add(members.back());
        for (std::uint32_t b : members.back().bits()) ++ref[b];
      }
      expect_matches(tag, ref);
    }
  }
}

}  // namespace
}  // namespace mlsc::core
