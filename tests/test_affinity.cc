// Tests for the affinity kernel (core/affinity.h): the chunk similarity
// graph (§4.3) as score_clusters produces it, checked against a
// brute-force pairwise oracle on random tag tables, plus the posting
// index, the Borůvka hooking and the balance-capped cut.
#include "core/affinity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "core/clustering.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(std::uint64_t begin,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, begin + 4}};
  c.iterations = 4;
  return c;
}

std::vector<IterationChunk> random_chunks(std::size_t n, std::uint64_t seed,
                                          std::size_t width, int bits) {
  Rng rng(seed);
  std::vector<IterationChunk> chunks;
  chunks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> set;
    for (int k = 0; k < bits; ++k) {
      set.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
    }
    chunks.push_back(
        make_chunk(static_cast<std::uint64_t>(i) * 4, std::move(set)));
  }
  return chunks;
}

std::vector<Cluster> singletons(const std::vector<IterationChunk>& chunks) {
  std::vector<std::uint32_t> all(chunks.size());
  std::iota(all.begin(), all.end(), 0u);
  return make_singletons(all, chunks);
}

/// Edge weights keyed by (u, v), failing on a duplicate pair.
std::map<std::pair<std::uint32_t, std::uint32_t>, double> by_pair(
    const std::vector<AffinityEdge>& edges) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> out;
  for (const AffinityEdge& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(out.emplace(std::make_pair(e.u, e.v), e.score).second)
        << "duplicate edge " << e.u << "-" << e.v;
  }
  return out;
}

/// The brute-force oracle: every pair, scored by the cluster-tag dot
/// product normalized by the member counts; zero pairs omitted.
std::map<std::pair<std::uint32_t, std::uint32_t>, double> brute_force(
    const std::vector<Cluster>& clusters) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> out;
  for (std::uint32_t v = 0; v < clusters.size(); ++v) {
    for (std::uint32_t u = 0; u < v; ++u) {
      const std::uint64_t dot = clusters[u].tag.dot(clusters[v].tag);
      if (dot == 0) continue;
      out.emplace(std::make_pair(u, v),
                  static_cast<double>(dot) /
                      (static_cast<double>(clusters[v].members.size()) *
                       static_cast<double>(clusters[u].members.size())));
    }
  }
  return out;
}

TEST(ChunkGraph, WeightsAreCommonBits) {
  const std::vector<IterationChunk> small{
      make_chunk(0, {0, 2, 4}),
      make_chunk(4, {0, 2, 4, 6}),
      make_chunk(8, {1, 3}),
  };
  const auto edges = by_pair(score_clusters(singletons(small)));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.at({0, 1}), 3.0);

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto chunks = random_chunks(300, seed, 96, 5);
    const auto scored = by_pair(score_clusters(singletons(chunks)));
    for (const auto& [pair, weight] : scored) {
      const auto [u, v] = pair;
      EXPECT_EQ(weight,
                static_cast<double>(chunks[u].tag.common_bits(chunks[v].tag)))
          << u << "-" << v;
    }
  }
}

TEST(ChunkGraph, EdgesOmitZeroWeights) {
  const std::vector<IterationChunk> small{
      make_chunk(0, {0}),
      make_chunk(4, {1}),
      make_chunk(8, {0, 1}),
  };
  const auto edges = by_pair(score_clusters(singletons(small)));
  EXPECT_EQ(edges.size(), 2u);  // (0,2) and (1,2) only
  EXPECT_EQ(edges.count({0, 1}), 0u);

  // Every pair sharing a bit has an edge, and no other pair does.
  const auto chunks = random_chunks(300, 7, 400, 4);
  const auto scored = by_pair(score_clusters(singletons(chunks)));
  std::size_t sharing = 0;
  for (std::uint32_t v = 0; v < chunks.size(); ++v) {
    for (std::uint32_t u = 0; u < v; ++u) {
      const bool shares = chunks[u].tag.common_bits(chunks[v].tag) > 0;
      sharing += shares ? 1 : 0;
      EXPECT_EQ(scored.count({u, v}), shares ? 1u : 0u) << u << "-" << v;
    }
  }
  EXPECT_EQ(scored.size(), sharing);
  EXPECT_LT(scored.size(), chunks.size() * (chunks.size() - 1) / 2);
}

TEST(ChunkGraph, CandidateGenerationMatchesExactSweep) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto clusters = singletons(random_chunks(400, seed, 96, 5));
    EXPECT_EQ(by_pair(score_clusters(clusters)), brute_force(clusters));
  }
}

TEST(ChunkGraph, ParallelSweepMatchesSerial) {
  const auto clusters = singletons(random_chunks(2000, 11, 512, 8));
  const auto serial = score_clusters(clusters);
  ThreadPool pool(4);
  const auto parallel = score_clusters(clusters, &pool);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // same edges, same order
}

TEST(ChunkGraph, CandidatePathParallelMatchesSerial) {
  // Multi-member clusters: posting counts > 1 and average linkage.
  auto chunks = random_chunks(600, 5, 128, 6);
  std::vector<Cluster> clusters;
  for (std::uint32_t i = 0; i + 2 < chunks.size(); i += 3) {
    Cluster c = Cluster::singleton(i, chunks[i]);
    c.add_member(i + 1, chunks[i + 1]);
    if (i % 2 == 0) c.add_member(i + 2, chunks[i + 2]);
    clusters.push_back(std::move(c));
  }
  const auto serial = score_clusters(clusters);
  EXPECT_EQ(by_pair(serial), brute_force(clusters));
  ThreadPool pool(4);
  EXPECT_EQ(score_clusters(clusters, &pool), serial);
}

TEST(ChunkGraph, LiftsOldNodeCap) {
  const auto chunks = random_chunks(8192 + 64, 3, 1u << 14, 4);
  const auto edges = score_clusters(singletons(chunks));
  EXPECT_FALSE(edges.empty());
  EXPECT_EQ(edges.back().v, 8192u + 63u);  // rows come out in id order
}

TEST(Affinity, PostingIndexRepeatsCountsAndErases) {
  PostingIndex index;
  index.post(7, 1);
  index.post(7, 3, 2);
  ASSERT_NE(index.find(7), nullptr);
  EXPECT_EQ(*index.find(7), (std::vector<std::uint32_t>{1, 3, 3}));
  index.erase(7, 3);
  EXPECT_EQ(*index.find(7), (std::vector<std::uint32_t>{1}));
  index.erase(7, 1);
  EXPECT_EQ(index.find(7), nullptr);
  EXPECT_EQ(index.find(1000), nullptr);
}

TEST(Affinity, HookingIsEdgeOrderIndependent) {
  const auto clusters = singletons(random_chunks(500, 9, 256, 5));
  auto edges = score_clusters(clusters);
  auto build = [&](std::vector<AffinityEdge> input) {
    std::vector<std::uint32_t> parent(clusters.size());
    std::iota(parent.begin(), parent.end(), 0u);
    std::vector<AffinityEdge> forest;
    hook_edges(std::move(input), parent, forest);
    std::sort(forest.begin(), forest.end(), edge_better);
    return forest;
  };
  const auto forward = build(edges);
  std::reverse(edges.begin(), edges.end());
  EXPECT_EQ(build(edges), forward);
  // A spanning forest: acyclic, so at most n - 1 edges.
  EXPECT_LT(forward.size(), clusters.size());

  // The globally best edge always belongs to the maximum spanning forest.
  const auto best =
      *std::min_element(edges.begin(), edges.end(), edge_better);
  EXPECT_EQ(forward.front(), best);
}

TEST(Affinity, CutCapsComponentsAndMergesLeftoversRankAdjacent) {
  // A path 0-1-2-3 with decreasing scores and a lone vertex 4.
  const std::vector<AffinityEdge> forest{
      {3.0, 0, 1}, {2.0, 1, 2}, {1.0, 2, 3}};
  const std::vector<std::uint32_t> ids{0, 1, 2, 3, 4};
  const std::vector<std::uint64_t> iterations{10, 10, 10, 10, 10};
  const auto keys = [](std::size_t i) { return std::uint64_t{i}; };

  // Uncapped: best-first replay joins 0-1-2, leaving {0,1,2}, {3}, {4}.
  const CutResult loose = cut_forest(forest, ids, iterations, keys, 3, -1.0);
  auto parent = loose.parent;
  EXPECT_EQ(uf_find(parent, 2), 0u);
  EXPECT_EQ(uf_find(parent, 3), 3u);
  EXPECT_EQ(loose.skipped, 0u);

  // Capped at 1.0 x (50 / 2) = 25: 0-1 joins, 1-2 would reach 30 and is
  // skipped, 2-3 joins.  Of the rank-adjacent leftover pairs
  // ({0,1},{2,3}) = 40 and ({2,3},{4}) = 30, the smaller merges.
  const CutResult capped = cut_forest(forest, ids, iterations, keys, 2, 0.0);
  parent = capped.parent;
  EXPECT_EQ(capped.skipped, 1u);
  EXPECT_EQ(uf_find(parent, 1), 0u);
  EXPECT_EQ(uf_find(parent, 3), 2u);
  EXPECT_EQ(uf_find(parent, 4), 2u);
}

}  // namespace
}  // namespace mlsc::core
