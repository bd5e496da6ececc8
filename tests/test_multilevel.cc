#include "cache/multilevel.h"

#include <gtest/gtest.h>

#include "cache/storage_cache.h"
#include "support/check.h"

namespace mlsc::cache {
namespace {

topology::HierarchyTree small_tree() {
  // 4 clients, 2 I/O nodes, 1 storage node; 4-chunk caches everywhere.
  return topology::make_layered_hierarchy(4, 2, 1, 4 * 64, 4 * 64, 4 * 64);
}

TEST(CacheStatsUnit, PlusEqualsSumsEveryField) {
  CacheStats a;
  a.accesses = 10;
  a.hits = 6;
  a.misses = 4;
  a.insertions = 4;
  a.evictions = 2;
  a.dirty_evictions = 1;
  CacheStats b;
  b.accesses = 5;
  b.hits = 1;
  b.misses = 4;
  b.insertions = 3;
  b.evictions = 3;
  b.dirty_evictions = 2;
  a += b;
  EXPECT_EQ(a.accesses, 15u);
  EXPECT_EQ(a.hits, 7u);
  EXPECT_EQ(a.misses, 8u);
  EXPECT_EQ(a.insertions, 7u);
  EXPECT_EQ(a.evictions, 5u);
  EXPECT_EQ(a.dirty_evictions, 3u);
}

TEST(CacheStatsUnit, MissRateHandlesZeroAccesses) {
  CacheStats fresh;
  EXPECT_DOUBLE_EQ(fresh.miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(fresh.hit_rate(), 0.0);
  fresh.accesses = 4;
  fresh.misses = 1;
  EXPECT_DOUBLE_EQ(fresh.miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(fresh.hit_rate(), 0.75);
}

TEST(CacheStatsUnit, ResetStatsZeroesButKeepsContents) {
  StorageCache cache("c", 2, PolicyKind::kLru);
  cache.access(1);
  cache.insert(1);
  cache.access(1);
  EXPECT_GT(cache.stats().accesses, 0u);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  // Contents survive a stats reset.
  EXPECT_TRUE(cache.contains(1));
}

TEST(StorageCacheUnit, CountsHitsAndMisses) {
  StorageCache cache("c", 2, PolicyKind::kLru);
  EXPECT_FALSE(cache.access(1));
  cache.insert(1);
  EXPECT_TRUE(cache.access(1));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().miss_rate(), 0.5);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
}

TEST(MultiLevel, ColdMissGoesToDiskAndFillsPath) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  const auto client = tree.clients()[0];
  const auto r0 = mlc.access(client, 7);
  EXPECT_TRUE(r0.from_disk());
  EXPECT_EQ(r0.caches_probed, 3u);  // L1, L2, L3 all missed
  // Second access hits the client's own (L1) cache.
  const auto r1 = mlc.access(client, 7);
  EXPECT_FALSE(r1.from_disk());
  EXPECT_EQ(r1.hit_node, client);
  EXPECT_EQ(r1.caches_probed, 1u);
}

TEST(MultiLevel, SiblingHitsSharedIoCache) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  mlc.access(tree.clients()[0], 9);  // fills CN0, IO0, SN0
  const auto r = mlc.access(tree.clients()[1], 9);
  EXPECT_FALSE(r.from_disk());
  EXPECT_EQ(tree.node(r.hit_node).kind, topology::NodeKind::kIo);
}

TEST(MultiLevel, DistantClientHitsStorageCache) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  mlc.access(tree.clients()[0], 9);
  const auto r = mlc.access(tree.clients()[3], 9);  // other IO subtree
  EXPECT_FALSE(r.from_disk());
  EXPECT_EQ(tree.node(r.hit_node).kind, topology::NodeKind::kStorage);
}

TEST(MultiLevel, AggregateStatsByKind) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  mlc.access(tree.clients()[0], 1);
  mlc.access(tree.clients()[0], 1);
  const auto l1 = mlc.aggregate_stats(topology::NodeKind::kCompute);
  EXPECT_EQ(l1.accesses, 2u);
  EXPECT_EQ(l1.hits, 1u);
  const auto l2 = mlc.aggregate_stats(topology::NodeKind::kIo);
  EXPECT_EQ(l2.accesses, 1u);  // only the first (L1-missing) access
  mlc.reset_stats();
  EXPECT_EQ(mlc.aggregate_stats(topology::NodeKind::kCompute).accesses, 0u);
}

TEST(MultiLevel, EvictionBasedPlacementFillsOnlyClient) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru,
                      PlacementMode::kEvictionBased);
  const auto client = tree.clients()[0];
  mlc.access(client, 3);
  // The chunk must be in the client cache but NOT yet in L2/L3.
  EXPECT_TRUE(mlc.cache(client).contains(3));
  const auto io = tree.node(client).parent;
  EXPECT_FALSE(mlc.cache(io).contains(3));
  // Evicting it from L1 (by filling with 4 more chunks) demotes it to L2.
  for (ChunkId c = 10; c < 14; ++c) mlc.access(client, c);
  EXPECT_FALSE(mlc.cache(client).contains(3));
  EXPECT_TRUE(mlc.cache(io).contains(3));
}

TEST(MultiLevel, ExclusivePlacementInvalidatesOnSharedHit) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru, PlacementMode::kExclusive);
  const auto cn0 = tree.clients()[0];
  const auto cn1 = tree.clients()[1];
  const auto io = tree.node(cn0).parent;
  // Load on CN0, push it down to IO0 by evicting from CN0.
  mlc.access(cn0, 3);
  for (ChunkId c = 10; c < 14; ++c) mlc.access(cn0, c);
  ASSERT_TRUE(mlc.cache(io).contains(3));
  // CN1 hits it at IO0; exclusivity moves it to CN1 and removes it there.
  const auto r = mlc.access(cn1, 3);
  EXPECT_EQ(r.hit_node, io);
  EXPECT_TRUE(mlc.cache(cn1).contains(3));
  EXPECT_FALSE(mlc.cache(io).contains(3));
}

TEST(MultiLevel, RejectsNonComputeOrigin) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  EXPECT_THROW(mlc.access(tree.root(), 1), Error);
}

TEST(MultiLevel, RejectsCacheSmallerThanChunk) {
  auto tree = topology::make_layered_hierarchy(2, 1, 1, 32, 64, 64);
  EXPECT_THROW(MultiLevelCache(tree, 64, PolicyKind::kLru), Error);
}

TEST(MultiLevel, UncachedDummyRootIsSkipped) {
  auto tree = topology::make_layered_hierarchy(4, 2, 2, 64, 64, 64);
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  EXPECT_FALSE(mlc.has_cache(tree.root()));
  const auto r = mlc.access(tree.clients()[0], 5);
  EXPECT_TRUE(r.from_disk());
  EXPECT_EQ(r.caches_probed, 3u);  // dummy root probes nothing
}

/// Both sibling probes: cooperative caching after the client's own miss,
/// and degraded routing past a failed cache.  A peer hit stops the walk,
/// and only the healthy caches that missed are filled.
TEST(MultiLevel, SiblingProbesServeCooperativeAndDegradedMisses) {
  auto tree = small_tree();
  MultiLevelCache mlc(tree, 64, PolicyKind::kLru);
  mlc.set_cooperative(true);
  const auto c0 = tree.clients()[0];
  const auto c1 = tree.clients()[1];
  const auto c2 = tree.clients()[2];
  mlc.access(c0, 5);  // fills CN0, IO0, SN0

  const auto coop = mlc.access(c1, 5);
  EXPECT_EQ(coop.hit_node, c0);
  EXPECT_TRUE(coop.peer_hit);
  EXPECT_EQ(coop.caches_probed, 1u);
  EXPECT_EQ(coop.failed_probes, 0u);
  EXPECT_TRUE(mlc.cache(c1).contains(5));

  const auto io1 = tree.node(c2).parent;
  mlc.set_node_failed(io1, true);
  const auto degraded = mlc.access(c2, 5);  // CN3 lacks it; IO1 failed
  EXPECT_EQ(degraded.hit_node, tree.node(c0).parent);
  EXPECT_TRUE(degraded.peer_hit);
  EXPECT_EQ(degraded.caches_probed, 1u);
  EXPECT_EQ(degraded.failed_probes, 1u);
  EXPECT_TRUE(mlc.cache(c2).contains(5));
  EXPECT_FALSE(mlc.cache(io1).contains(5));
  EXPECT_TRUE(mlc.resident_on_path(c2, 5));
}

}  // namespace
}  // namespace mlsc::cache
