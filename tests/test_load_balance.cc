#include "core/load_balance.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(std::uint64_t begin, std::uint64_t end,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.nest = 0;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, end}};
  c.iterations = end - begin;
  return c;
}

TEST(BalanceLimits, WindowAroundIdeal) {
  const auto limits = balance_limits(1000, 4, 0.10);
  EXPECT_EQ(limits.lower, 225u);  // 250 * 0.9
  EXPECT_EQ(limits.upper, 275u);  // 250 * 1.1
}

TEST(BalanceLimits, ZeroThresholdStillAdmitsPerfectPartition) {
  const auto limits = balance_limits(10, 3, 0.0);
  EXPECT_LE(limits.lower, 3u);   // floor(10/3)
  EXPECT_GE(limits.upper, 4u);   // ceil(10/3)
}

TEST(Balance, MovesChunkFromLargeToSmall) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, 50, {1}),
      make_chunk(50, 100, {1, 2}),
      make_chunk(100, 110, {3}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);  // 100 iterations
  clusters.push_back(Cluster::singleton(2, chunks[2]));  // 10 iterations
  EXPECT_FALSE(is_balanced(clusters, {0.10}));

  const auto moves = balance_clusters(clusters, chunks, {0.10});
  EXPECT_GE(moves, 1u);
  EXPECT_TRUE(is_balanced(clusters, {0.10}));
}

TEST(Balance, SplitsWhenNoWholeChunkFits) {
  // One giant chunk vs one tiny: only a split can balance.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 99, {1}),
      make_chunk(99, 100, {2}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.push_back(Cluster::singleton(1, chunks[1]));
  balance_clusters(clusters, chunks, {0.10});
  EXPECT_TRUE(is_balanced(clusters, {0.10}));
  EXPECT_GT(chunks.size(), 2u);  // a split happened
  // No iterations lost.
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  EXPECT_EQ(total, 100u);
}

TEST(Balance, PrefersHighAffinityChunk) {
  // Donor has two equal-size chunks; recipient's tag matches chunk B.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 40, {1}),        // A: no affinity with recipient
      make_chunk(40, 80, {7, 8}),    // B: shares {7,8} with recipient
      make_chunk(80, 90, {7, 8, 9}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);
  clusters.push_back(Cluster::singleton(2, chunks[2]));
  balance_clusters(clusters, chunks, {0.10});
  // Chunk 1 (B) should have moved to the recipient, not chunk 0.
  const auto& recipient = clusters[1];
  EXPECT_NE(std::find(recipient.members.begin(), recipient.members.end(), 1u),
            recipient.members.end());
}

TEST(Balance, ExplicitLimitsOverrideLocalWindow) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, 30, {1}),
      make_chunk(30, 60, {2}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);  // 60
  clusters.push_back(Cluster{});             // empty cluster
  clusters.back().members = {};
  // Wide explicit limits accept the lopsided state as-is.
  const BalanceLimits wide{0, 100};
  EXPECT_EQ(balance_clusters(clusters, chunks, {0.10}, &wide), 0u);
}

/// Property: balancing random cluster sets always terminates inside the
/// window and conserves both iterations and chunk coverage.
TEST(BalanceProperty, RandomSetsConvergeAndConserve) {
  mlsc::Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<IterationChunk> chunks;
    std::uint64_t pos = 0;
    const std::size_t num_chunks = 5 + rng.next_below(30);
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const std::uint64_t len = 1 + rng.next_below(60);
      std::vector<std::uint32_t> bits;
      for (int b = 0; b < 4; ++b) {
        bits.push_back(static_cast<std::uint32_t>(rng.next_below(20)));
      }
      chunks.push_back(make_chunk(pos, pos + len, std::move(bits)));
      pos += len;
    }
    const std::uint64_t total = pos;

    const std::size_t num_clusters = 2 + rng.next_below(4);
    std::vector<Cluster> clusters(num_clusters);
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      clusters[rng.next_below(num_clusters)].add_member(i, chunks[i]);
    }
    // Give every empty cluster one split share by pre-balancing by hand:
    // skip trials with empty clusters whose total is too small.
    bool any_empty = false;
    for (const auto& c : clusters) any_empty |= c.members.empty();
    if (any_empty) continue;

    balance_clusters(clusters, chunks, {0.10});
    EXPECT_TRUE(is_balanced(clusters, {0.10}));

    std::uint64_t covered = 0;
    std::vector<poly::LinearRange> all_ranges;
    for (const auto& c : clusters) {
      covered += c.iterations;
      for (std::uint32_t m : c.members) {
        all_ranges.insert(all_ranges.end(), chunks[m].ranges.begin(),
                          chunks[m].ranges.end());
      }
    }
    EXPECT_EQ(covered, total);
    const auto merged = poly::normalize_ranges(std::move(all_ranges));
    EXPECT_EQ(poly::total_range_size(merged), total)
        << "ranges overlap or were lost";
  }
}

/// What the reference balancer did, so the differential test can show
/// its random tables reach every branch.
struct NaiveStats {
  std::size_t moves = 0;
  std::size_t splits = 0;
  std::size_t pull_ups = 0;
};

/// Reference balancer: the balance loop as specified, re-dotting every
/// donor member against the recipient's cluster tag afresh on each move
/// (ClusterTag::dot), with the same donor, recipient and tie rules.
NaiveStats naive_balance(std::vector<Cluster>& clusters,
                         std::vector<IterationChunk>& chunks,
                         double threshold,
                         const BalanceLimits* explicit_limits) {
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  auto limits = balance_limits(total, clusters.size(), threshold);
  if (explicit_limits != nullptr) {
    limits = *explicit_limits;
    limits.lower = std::min(limits.lower, total / clusters.size());
    limits.upper = std::max(
        limits.upper, (total + clusters.size() - 1) / clusters.size());
  }
  NaiveStats stats;
  auto move = [&](std::size_t donor, std::size_t recipient,
                  std::uint64_t move_max) {
    std::uint32_t best_fit = UINT32_MAX;
    std::uint32_t best_any = UINT32_MAX;
    std::uint64_t fit_dot = 0;
    std::uint64_t any_dot = 0;
    for (std::uint32_t m : clusters[donor].members) {
      const std::uint64_t d = clusters[recipient].tag.dot(chunks[m].tag);
      if (chunks[m].iterations <= move_max &&
          (best_fit == UINT32_MAX || d > fit_dot ||
           (d == fit_dot &&
            chunks[m].iterations > chunks[best_fit].iterations))) {
        best_fit = m;
        fit_dot = d;
      }
      if (best_any == UINT32_MAX || d > any_dot) {
        best_any = m;
        any_dot = d;
      }
    }
    if (best_fit != UINT32_MAX) {
      clusters[donor].remove_member(best_fit, chunks[best_fit]);
      clusters[recipient].add_member(best_fit, chunks[best_fit]);
    } else {
      auto [head, tail] = split_chunk(chunks[best_any], move_max);
      clusters[donor].remove_member(best_any, chunks[best_any]);
      chunks[best_any] = std::move(head);
      chunks.push_back(std::move(tail));
      const auto tail_index = static_cast<std::uint32_t>(chunks.size() - 1);
      clusters[recipient].add_member(best_any, chunks[best_any]);
      clusters[donor].add_member(tail_index, chunks[tail_index]);
      ++stats.splits;
    }
    ++stats.moves;
  };

  for (;;) {
    std::size_t donor = clusters.size();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].iterations > limits.upper &&
          (donor == clusters.size() ||
           clusters[i].iterations > clusters[donor].iterations)) {
        donor = i;
      }
    }
    if (donor == clusters.size()) break;
    std::size_t recipient = donor == 0 ? 1 : 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (i != donor &&
          clusters[i].iterations < clusters[recipient].iterations) {
        recipient = i;
      }
    }
    const std::uint64_t move_max =
        std::min(clusters[donor].iterations - limits.lower,
                 limits.upper - clusters[recipient].iterations);
    MLSC_CHECK(move_max >= 1, "naive balance cannot make progress");
    move(donor, recipient, move_max);
  }
  for (;;) {
    std::size_t recipient = clusters.size();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].iterations < limits.lower &&
          (recipient == clusters.size() ||
           clusters[i].iterations < clusters[recipient].iterations)) {
        recipient = i;
      }
    }
    if (recipient == clusters.size()) break;
    std::size_t donor = recipient == 0 ? 1 : 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (i != recipient &&
          clusters[i].iterations > clusters[donor].iterations) {
        donor = i;
      }
    }
    MLSC_CHECK(clusters[donor].iterations > limits.lower,
               "naive pull-up cannot make progress");
    move(donor, recipient,
         std::min(limits.lower - clusters[recipient].iterations,
                  clusters[donor].iterations - limits.lower));
    ++stats.pull_ups;
  }
  return stats;
}

void expect_same_tables(const std::vector<Cluster>& got,
                        const std::vector<IterationChunk>& got_chunks,
                        const std::vector<Cluster>& want,
                        const std::vector<IterationChunk>& want_chunks) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].members, want[i].members) << "cluster " << i;
    EXPECT_EQ(got[i].iterations, want[i].iterations) << "cluster " << i;
    EXPECT_EQ(got[i].order_key, want[i].order_key) << "cluster " << i;
    ASSERT_EQ(got[i].tag.distinct_chunks(), want[i].tag.distinct_chunks());
    for (std::size_t e = 0; e < got[i].tag.entries().size(); ++e) {
      EXPECT_EQ(got[i].tag.entries()[e].pos, want[i].tag.entries()[e].pos);
      EXPECT_EQ(got[i].tag.entries()[e].count,
                want[i].tag.entries()[e].count);
    }
  }
  ASSERT_EQ(got_chunks.size(), want_chunks.size());
  for (std::size_t c = 0; c < got_chunks.size(); ++c) {
    EXPECT_EQ(got_chunks[c].ranges, want_chunks[c].ranges) << "chunk " << c;
    EXPECT_EQ(got_chunks[c].iterations, want_chunks[c].iterations);
    EXPECT_EQ(got_chunks[c].tag, want_chunks[c].tag) << "chunk " << c;
  }
}

/// Differential oracle: on random tag tables with 2-16 clusters the
/// balancer makes exactly the moves of the naive re-dotting loop —
/// equal members (in order), chunk tables and move counts — through
/// whole moves, forced splits, explicit limits and the pull-up pass.
TEST(BalanceOracle, MatchesNaiveRedotOnRandomTables) {
  mlsc::Rng rng(2024);
  NaiveStats seen;
  for (int trial = 0; trial < 300; ++trial) {
    // A narrow data space makes shared bits, and so affinity ties,
    // common; a few huge chunks force splits.
    const auto width =
        static_cast<std::uint32_t>(4 + rng.next_below(60));
    const std::size_t num_chunks = 2 + rng.next_below(80);
    std::vector<IterationChunk> chunks;
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const std::uint64_t len = rng.next_below(10) == 0
                                    ? 200 + rng.next_below(800)
                                    : 1 + rng.next_below(60);
      std::vector<std::uint32_t> bits;
      const std::size_t nbits = 1 + rng.next_below(6);
      for (std::size_t b = 0; b < nbits; ++b) {
        bits.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
      }
      chunks.push_back(make_chunk(pos, pos + len, std::move(bits)));
      pos += len;
    }
    const std::size_t num_clusters = 2 + rng.next_below(15);
    std::vector<Cluster> clusters(num_clusters);
    // Skewed placement: the first clusters collect most chunks.
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      const std::size_t home = rng.next_below(2) == 0
                                   ? rng.next_below(1 + num_clusters / 3)
                                   : rng.next_below(num_clusters);
      clusters[home].add_member(i, chunks[i]);
    }
    const double threshold = rng.next_below(4) * 0.05;
    BalanceLimits explicit_limits;
    const bool use_explicit = rng.next_below(2) == 0;
    if (use_explicit) {
      // A window around the ideal, sometimes narrower below than the
      // local threshold would make it, so the pull-up pass has work.
      const std::uint64_t ideal = pos / num_clusters;
      explicit_limits.lower = ideal - ideal * rng.next_below(10) / 100;
      explicit_limits.upper = ideal + ideal * rng.next_below(30) / 100;
    }
    const BalanceLimits* limits = use_explicit ? &explicit_limits : nullptr;

    auto naive_clusters = clusters;
    auto naive_chunks = chunks;
    NaiveStats stats;
    bool naive_threw = false;
    try {
      stats = naive_balance(naive_clusters, naive_chunks, threshold, limits);
    } catch (const mlsc::Error&) {
      naive_threw = true;
    }
    if (naive_threw) {
      EXPECT_THROW(balance_clusters(clusters, chunks, {threshold}, limits),
                   mlsc::Error);
      continue;
    }
    const std::size_t moves =
        balance_clusters(clusters, chunks, {threshold}, limits);
    EXPECT_EQ(moves, stats.moves) << "trial " << trial;
    expect_same_tables(clusters, chunks, naive_clusters, naive_chunks);
    seen.moves += stats.moves;
    seen.splits += stats.splits;
    seen.pull_ups += stats.pull_ups;
  }
  // The tables exercised every branch of the loop.
  EXPECT_GT(seen.moves, 1000u);
  EXPECT_GT(seen.splits, 100u);
  EXPECT_GT(seen.pull_ups, 100u);
}

}  // namespace
}  // namespace mlsc::core
