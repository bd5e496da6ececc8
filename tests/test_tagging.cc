#include "core/tagging.h"

#include <gtest/gtest.h>

#include "core/clustering.h"

namespace mlsc::core {
namespace {

/// The paper's Fig. 6 example, expressible in the affine IR because the
/// A[x] (x = i % d) reference always lands in data chunk π0: we model it
/// as the constant reference A[0].  d = 8 elements of 64 B; A has 12
/// chunks; the loop runs i = 0 .. 8d-1.
poly::Program fig6_program(std::int64_t d = 8) {
  poly::Program p;
  const auto a = p.add_array({"A", {12 * d}, 64});
  poly::LoopNest nest;
  nest.name = "fig6";
  nest.space = poly::IterationSpace({{0, 8 * d - 1}});
  nest.refs = {
      {a, poly::AccessMap::identity(1, {0}), /*is_write=*/true},  // A[i]
      {a, poly::AccessMap::from_matrix({{0}}, {0}), false},       // A[x]
      {a, poly::AccessMap::identity(1, {4 * d}), false},          // A[i+4d]
      {a, poly::AccessMap::identity(1, {2 * d}), false},          // A[i+2d]
  };
  p.add_nest(std::move(nest));
  return p;
}

TEST(Tagging, Fig6ProducesEightChunksWithFig8Tags) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);  // chunk = d elements
  EXPECT_EQ(space.num_chunks(), 12u);

  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  EXPECT_FALSE(result.coarsened);
  ASSERT_EQ(result.chunks.size(), 8u);
  EXPECT_EQ(result.total_iterations, 64u);

  // Fig. 8's tags, in rank order.
  const std::vector<std::string> expected = {
      "101010000000", "110101000000", "101010100000", "100101010000",
      "100010101000", "100001010100", "100000101010", "100000010101",
  };
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.chunks[i].tag.to_string(12), expected[i])
        << "γ" << (i + 1);
    EXPECT_EQ(result.chunks[i].iterations, 8u);
  }
}

TEST(Tagging, Fig8GraphWeights) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);
  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  std::vector<std::uint32_t> all(result.chunks.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto edges = score_clusters(make_singletons(all, result.chunks));
  const auto weight = [&](std::uint32_t u, std::uint32_t v) {
    for (const AffinityEdge& e : edges) {
      if (e.u == u && e.v == v) return e.score;
    }
    return 0.0;
  };
  // Fig. 8: γ1-γ3 weight 3, γ1-γ5 weight 2, γ1-γ2 weight 1 (not drawn).
  EXPECT_EQ(weight(0, 2), 3.0);
  EXPECT_EQ(weight(0, 4), 2.0);
  EXPECT_EQ(weight(0, 1), 1.0);
  EXPECT_EQ(weight(2, 4), 3.0);  // γ3-γ5
  EXPECT_EQ(weight(1, 3), 3.0);  // γ2-γ4
}

TEST(Tagging, RecurringTagIsOneChunkWithManyRanges) {
  // A[i % 2 == parity] style recurrence: two alternating tags.  Model:
  // 1-deep loop where footprint alternates between chunk 0 and chunk 1
  // via B[i] with element = half chunk: runs of 2 share a tag.
  poly::Program p;
  const auto b = p.add_array({"B", {8}, 32});  // 4 chunks of 64 B
  poly::LoopNest nest;
  nest.space = poly::IterationSpace({{0, 7}});
  nest.refs = {{b, poly::AccessMap::identity(1, {0}), false}};
  p.add_nest(std::move(nest));
  const DataSpace space(p, 64);
  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  // Elements 0,1 -> chunk 0; 2,3 -> chunk 1; ... 4 distinct tags, each a
  // contiguous run of 2 iterations.
  ASSERT_EQ(result.chunks.size(), 4u);
  for (const auto& c : result.chunks) {
    EXPECT_EQ(c.iterations, 2u);
    EXPECT_EQ(c.ranges.size(), 1u);
  }
}

TEST(Tagging, CoarseningBoundsChunkCountAndKeepsPartition) {
  const auto p = fig6_program(32);  // 256 iterations, 8 natural chunks
  const DataSpace space(p, 64);     // fine chunks: many distinct tags
  const std::vector<poly::NestId> nests{0};
  TaggingOptions options;
  options.max_iteration_chunks = 16;
  const auto result = compute_iteration_chunks(p, space, nests, options);
  EXPECT_LE(result.chunks.size(), 16u);
  std::uint64_t covered = 0;
  for (const auto& c : result.chunks) covered += c.iterations;
  EXPECT_EQ(covered, result.total_iterations);
}

TEST(Tagging, MultiNestChunksCarryNestIds) {
  poly::Program p;
  const auto a = p.add_array({"A", {16}, 64});
  for (int n = 0; n < 2; ++n) {
    poly::LoopNest nest;
    nest.space = poly::IterationSpace({{0, 15}});
    nest.refs = {{a, poly::AccessMap::identity(1, {0}), n == 0}};
    p.add_nest(std::move(nest));
  }
  const DataSpace space(p, 256);  // 4 chunks
  const std::vector<poly::NestId> nests{0, 1};
  const auto result = compute_iteration_chunks(p, space, nests);
  EXPECT_EQ(result.total_iterations, 32u);
  bool saw_nest0 = false;
  bool saw_nest1 = false;
  for (const auto& c : result.chunks) {
    saw_nest0 |= (c.nest == 0);
    saw_nest1 |= (c.nest == 1);
  }
  EXPECT_TRUE(saw_nest0);
  EXPECT_TRUE(saw_nest1);
}

TEST(Tagging, FootprintHelperMatchesRefs) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);
  std::vector<std::uint32_t> out;
  const poly::Iteration iter{0};
  iteration_footprint(p, p.nest(0), space, iter, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 4}));  // γ1's tag
}

}  // namespace
}  // namespace mlsc::core
