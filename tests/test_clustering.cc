#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(poly::NestId nest, std::uint64_t begin,
                          std::uint64_t end,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.nest = nest;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, end}};
  c.iterations = end - begin;
  return c;
}

/// The paper's worked example (Fig. 6/8): 8 iteration chunks of d
/// iterations each; γ1..γ8 tags over 12 data chunks.  d = 8 here.
std::vector<IterationChunk> fig8_chunks() {
  const std::uint64_t d = 8;
  std::vector<std::vector<std::uint32_t>> tags = {
      {0, 2, 4},     // γ1  101010000000
      {0, 1, 3, 5},  // γ2  110101000000
      {0, 2, 4, 6},  // γ3  101010100000
      {0, 3, 5, 7},  // γ4  100101010000
      {0, 4, 6, 8},  // γ5  100010101000
      {0, 5, 7, 9},  // γ6  100001010100
      {0, 6, 8, 10},  // γ7 100000101010
      {0, 7, 9, 11},  // γ8 100000010101
  };
  std::vector<IterationChunk> chunks;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    chunks.push_back(
        make_chunk(0, i * d, (i + 1) * d, std::move(tags[i])));
  }
  return chunks;
}

TEST(Cluster, SingletonAndAbsorb) {
  auto chunks = fig8_chunks();
  auto a = Cluster::singleton(0, chunks[0]);
  EXPECT_EQ(a.iterations, 8u);
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0}));
  auto b = Cluster::singleton(2, chunks[2]);
  a.absorb(std::move(b));
  EXPECT_EQ(a.iterations, 16u);
  EXPECT_EQ(a.tag.count_at(0), 2u);
  EXPECT_EQ(a.tag.count_at(6), 1u);
}

TEST(Cluster, RemoveMember) {
  auto chunks = fig8_chunks();
  auto c = Cluster::singleton(0, chunks[0]);
  c.add_member(1, chunks[1]);
  c.remove_member(0, chunks[0]);
  EXPECT_EQ(c.members, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(c.iterations, 8u);
  EXPECT_THROW(c.remove_member(0, chunks[0]), mlsc::Error);
}

/// Level-1 clustering of the worked example: the paper's Fig. 9 groups
/// the odd chunks {γ1,γ3,γ5,γ7} on one I/O node and the even chunks
/// {γ2,γ4,γ6,γ8} on the other.
TEST(Clustering, PaperFig9FirstLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);

  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  std::set<std::uint32_t> b(clusters[1].members.begin(),
                            clusters[1].members.end());
  const std::set<std::uint32_t> odd{0, 2, 4, 6};   // γ1 γ3 γ5 γ7
  const std::set<std::uint32_t> even{1, 3, 5, 7};  // γ2 γ4 γ6 γ8
  EXPECT_TRUE((a == odd && b == even) || (a == even && b == odd))
      << "clusters do not match the paper's Fig. 9 families";
}

/// Second level: each I/O cluster splits into the Fig. 9 client pairs.
TEST(Clustering, PaperFig9SecondLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> odd{0, 2, 4, 6};
  auto clusters = make_singletons(odd, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);
  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  const std::set<std::uint32_t> low{0, 2};   // γ1, γ3 -> one client
  const std::set<std::uint32_t> high{4, 6};  // γ5, γ7 -> the other
  EXPECT_TRUE(a == low || a == high);
}

TEST(Clustering, MergeReducesToTarget) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 3, chunks);
  EXPECT_EQ(clusters.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  EXPECT_EQ(total, 64u);
}

TEST(Clustering, SplitsWhenTooFewClusters) {
  // One chunk, four clients: Fig. 5's "case when the current number of
  // clusters is less than the required number" — split continually.
  std::vector<IterationChunk> chunks{make_chunk(0, 0, 100, {1, 2})};
  std::vector<std::uint32_t> all{0};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 4, chunks);
  EXPECT_EQ(clusters.size(), 4u);
  EXPECT_GT(chunks.size(), 1u);  // chunk table grew via splits
  std::uint64_t total = 0;
  for (const auto& c : clusters) {
    total += c.iterations;
    EXPECT_GE(c.iterations, 25u - 13u);  // roughly balanced halving
  }
  EXPECT_EQ(total, 100u);
}

TEST(Clustering, ZeroSharingMergesRankAdjacent) {
  // Four disjoint-tag chunks: the fallback should merge rank neighbours,
  // keeping the sequential order (disk-sequential) grouping.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {0}),
      make_chunk(0, 10, 20, {1}),
      make_chunk(0, 20, 30, {2}),
      make_chunk(0, 30, 40, {3}),
  };
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);
  for (auto& c : clusters) {
    std::sort(c.members.begin(), c.members.end());
  }
  const auto& a = clusters[0].members.front() == 0 ? clusters[0] : clusters[1];
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Clustering, TargetOneMergesEverything) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 1, chunks);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members.size(), 4u);
}

TEST(Clustering, RejectsEmptyInput) {
  std::vector<IterationChunk> chunks;
  std::vector<Cluster> clusters;
  EXPECT_THROW(cluster_to_count(clusters, 1, chunks), mlsc::Error);
}

ClusterOptions forest_options() {
  ClusterOptions options;
  options.algorithm = ClusterOptions::Algorithm::kForest;
  return options;
}

/// The affinity forest reproduces the paper's level-1 families on the
/// worked example: the best-neighbor forest connects the odd and even
/// chains, and the cut severs the single weakest cross edge.
TEST(Clustering, ForestMatchesFig9FirstLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  std::set<std::uint32_t> b(clusters[1].members.begin(),
                            clusters[1].members.end());
  const std::set<std::uint32_t> odd{0, 2, 4, 6};
  const std::set<std::uint32_t> even{1, 3, 5, 7};
  EXPECT_TRUE((a == odd && b == even) || (a == even && b == odd));
}

TEST(Clustering, ForestReducesToTargetPreservingTotals) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 3, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 3u);
  std::uint64_t total = 0;
  std::set<std::uint32_t> seen;
  for (const auto& c : clusters) {
    total += c.iterations;
    seen.insert(c.members.begin(), c.members.end());
  }
  EXPECT_EQ(total, 64u);
  EXPECT_EQ(seen.size(), 8u);  // every member survives exactly once
}

TEST(Clustering, ForestZeroSharingMergesRankAdjacent) {
  // Disconnected graph: the forest has no edges at all, so the whole
  // reduction runs through the rank-adjacent fallback.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {0}),
      make_chunk(0, 10, 20, {1}),
      make_chunk(0, 20, 30, {2}),
      make_chunk(0, 30, 40, {3}),
  };
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  for (auto& c : clusters) std::sort(c.members.begin(), c.members.end());
  const auto& a = clusters[0].members.front() == 0 ? clusters[0] : clusters[1];
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Clustering, ForestBalancedCutAvoidsGiantComponent) {
  // A chain a0-a1-...-a63 (each adjacent pair shares one data chunk) is
  // single-linkage's worst case: an uncapped cut would put everything in
  // one component.  The balance-aware cut must keep both sides near
  // half.
  std::vector<IterationChunk> chunks;
  for (std::uint32_t i = 0; i < 64; ++i) {
    chunks.push_back(make_chunk(0, i * 10, (i + 1) * 10, {i, i + 1}));
  }
  std::vector<std::uint32_t> all(64);
  for (std::uint32_t i = 0; i < 64; ++i) all[i] = i;
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  const std::uint64_t cap =
      static_cast<std::uint64_t>(640.0 / 2.0 * 1.1);
  EXPECT_LE(clusters[0].iterations, cap);
  EXPECT_LE(clusters[1].iterations, cap);
}

TEST(Clustering, AutoUsesGreedyBelowThresholdForestAbove) {
  // kAuto must route small inputs to the greedy oracle: identical result
  // to an explicit kGreedy run on the worked example.
  auto chunks_auto = fig8_chunks();
  auto chunks_greedy = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto auto_clusters = make_singletons(all, chunks_auto);
  auto greedy_clusters = make_singletons(all, chunks_greedy);
  ClusterOptions greedy;
  greedy.algorithm = ClusterOptions::Algorithm::kGreedy;
  cluster_to_count(auto_clusters, 3, chunks_auto);  // default: kAuto
  cluster_to_count(greedy_clusters, 3, chunks_greedy, nullptr, greedy);
  ASSERT_EQ(auto_clusters.size(), greedy_clusters.size());
  for (std::size_t i = 0; i < auto_clusters.size(); ++i) {
    EXPECT_EQ(auto_clusters[i].members, greedy_clusters[i].members);
  }

  // And a forest_threshold of 0 routes everything to the forest.
  auto chunks_forest = fig8_chunks();
  auto forest_clusters = make_singletons(all, chunks_forest);
  ClusterOptions forced_auto;
  forced_auto.forest_threshold = 0;
  cluster_to_count(forest_clusters, 2, chunks_forest, nullptr, forced_auto);
  ASSERT_EQ(forest_clusters.size(), 2u);
}

/// Reference greedy merge: every step rescores all alive pairs with
/// ClusterTag::dot and merges the best under edge_better (score, then
/// smaller ids), or — when no pair shares data — the rank-adjacent pair
/// with the smallest combined iterations.  Appends each merge (a, b),
/// a < b, to `merges`; the survivor keeps slot a.
struct NaiveMergeStats {
  std::size_t ties = 0;       // steps whose best score was shared
  std::size_t fallbacks = 0;  // steps with no pair sharing data
};

NaiveMergeStats naive_merge(std::vector<Cluster> clusters, std::size_t target,
                 std::vector<std::pair<std::uint32_t, std::uint32_t>>& merges) {
  NaiveMergeStats stats;
  std::vector<bool> alive(clusters.size(), true);
  std::size_t alive_count = clusters.size();
  while (alive_count > target) {
    AffinityEdge best{0, 0, UINT32_MAX};
    std::size_t at_best = 0;
    for (std::uint32_t a = 0; a < clusters.size(); ++a) {
      for (std::uint32_t b = a + 1; alive[a] && b < clusters.size(); ++b) {
        if (!alive[b]) continue;
        const std::uint64_t dot = clusters[a].tag.dot(clusters[b].tag);
        if (dot == 0) continue;
        const AffinityEdge e{
            static_cast<double>(dot) /
                (static_cast<double>(clusters[a].members.size()) *
                 static_cast<double>(clusters[b].members.size())),
            a, b};
        if (best.v != UINT32_MAX && e.score == best.score) ++at_best;
        if (best.v == UINT32_MAX || e.score > best.score) at_best = 1;
        if (best.v == UINT32_MAX || edge_better(e, best)) best = e;
      }
    }
    if (at_best > 1) ++stats.ties;
    if (best.v == UINT32_MAX) {
      ++stats.fallbacks;
      std::vector<std::uint32_t> ids;
      for (std::uint32_t i = 0; i < clusters.size(); ++i) {
        if (alive[i]) ids.push_back(i);
      }
      std::sort(ids.begin(), ids.end(), [&](std::uint32_t x, std::uint32_t y) {
        return clusters[x].order_key < clusters[y].order_key;
      });
      const std::size_t p =
          smallest_adjacent_pair(ids.size(), [&](std::size_t i) {
            return clusters[ids[i]].iterations;
          });
      best.u = std::min(ids[p], ids[p + 1]);
      best.v = std::max(ids[p], ids[p + 1]);
    }
    merges.emplace_back(best.u, best.v);
    clusters[best.u].absorb(std::move(clusters[best.v]));
    alive[best.v] = false;
    --alive_count;
  }
  return stats;
}

/// The clusters naive_merge's first `count` merges leave, in slot order.
std::vector<Cluster> replay_merges(
    std::vector<Cluster> clusters,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& merges,
    std::size_t count) {
  std::vector<bool> alive(clusters.size(), true);
  for (std::size_t m = 0; m < count; ++m) {
    clusters[merges[m].first].absorb(std::move(clusters[merges[m].second]));
    alive[merges[m].second] = false;
  }
  std::vector<Cluster> out;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (alive[i]) out.push_back(std::move(clusters[i]));
  }
  return out;
}

/// Differential oracle for the greedy kernel: for every target count
/// the result equals the naive merge's after the same number of steps,
/// so the whole merge sequence agrees — member order included, which
/// records the order clusters were absorbed in.  Narrow data spaces make
/// tied scores common; disjoint tag groups run into the zero-sharing
/// fallback; pre-merged inputs start from unequal member counts.
TEST(ClusteringOracle, GreedyMatchesNaiveRescoreSequence) {
  mlsc::Rng rng(99);
  ClusterOptions greedy;
  greedy.algorithm = ClusterOptions::Algorithm::kGreedy;
  NaiveMergeStats seen;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 2 + rng.next_below(63);
    const auto width =
        static_cast<std::uint32_t>(3 + rng.next_below(40));
    const auto groups =
        static_cast<std::uint32_t>(1 + rng.next_below(4));
    std::vector<IterationChunk> chunks;
    for (std::uint32_t i = 0; i < k; ++i) {
      // Each chunk draws its bits from one group's disjoint slice of
      // the data space.
      const std::uint32_t group =
          static_cast<std::uint32_t>(rng.next_below(groups));
      std::vector<std::uint32_t> bits;
      const std::size_t nbits = 1 + rng.next_below(4);
      for (std::size_t b = 0; b < nbits; ++b) {
        bits.push_back(group * width +
                       static_cast<std::uint32_t>(rng.next_below(width)));
      }
      const std::uint64_t begin = i * 100;
      chunks.push_back(make_chunk(static_cast<poly::NestId>(rng.next_below(2)),
                                  begin, begin + 1 + rng.next_below(99),
                                  std::move(bits)));
    }
    std::vector<std::uint32_t> all(k);
    for (std::uint32_t i = 0; i < k; ++i) all[i] = i;
    std::vector<Cluster> input = make_singletons(all, chunks);
    if (trial % 3 == 2) {
      // Pre-merge random neighbours so the input sizes differ.
      std::vector<Cluster> grouped;
      for (auto& c : input) {
        if (!grouped.empty() && rng.next_below(2) == 0) {
          grouped.back().absorb(std::move(c));
        } else {
          grouped.push_back(std::move(c));
        }
      }
      input = std::move(grouped);
    }

    std::vector<std::pair<std::uint32_t, std::uint32_t>> merges;
    const NaiveMergeStats naive = naive_merge(input, 1, merges);
    for (std::size_t target = input.size(); target >= 1; --target) {
      auto clusters = input;
      auto scratch = chunks;
      cluster_to_count(clusters, target, scratch, nullptr, greedy);
      const auto want = replay_merges(input, merges, input.size() - target);
      ASSERT_EQ(clusters.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(clusters[i].members, want[i].members)
            << "trial " << trial << ", target " << target << ", cluster " << i;
      }
    }
    seen.fallbacks += naive.fallbacks;
    seen.ties += naive.ties;
  }
  // The tables reached both the tie-break and the fallback.
  EXPECT_GT(seen.ties, 50u);
  EXPECT_GT(seen.fallbacks, 20u);
}

}  // namespace
}  // namespace mlsc::core
