// Tests for the red-blue-pebble I/O lower bound (obs/lower_bound.h) and
// the data-movement accounting it is compared against: closed-form
// oracles on matmul- and stencil-shaped nests, monotonicity in cache
// capacity, and the core soundness contract — the bound never exceeds
// the bytes a real engine run actually moved, for every registry
// workload at every cache boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cache/storage_cache.h"
#include "obs/lower_bound.h"
#include "poly/loop_nest.h"
#include "sim/experiment.h"
#include "sim/machine.h"
#include "workloads/registry.h"

namespace mlsc {
namespace {

using obs::IoLowerBound;
using obs::LevelSpec;
using obs::compute_io_lower_bound;
using poly::AccessMap;
using poly::AffineExpr;
using poly::IterationSpace;
using poly::LoopNest;
using poly::Program;

// C[i,j] += A[i,k] * B[k,j] over an N^3 space: the canonical Hong-Kung
// example.  The best fractional cover weights each of the three refs
// 1/2 (every loop is indexed by exactly two of them), so
// H(2M) = (2M/e)^{3/2}.
Program matmul_program(std::int64_t n, std::uint64_t element_bytes) {
  Program p;
  const auto c = p.add_array({"C", {n, n}, element_bytes});
  const auto a = p.add_array({"A", {n, n}, element_bytes});
  const auto b = p.add_array({"B", {n, n}, element_bytes});
  LoopNest nest;
  nest.name = "matmul";
  nest.space = IterationSpace({{0, n - 1}, {0, n - 1}, {0, n - 1}});
  const auto it = [](std::size_t k) { return AffineExpr::iterator(3, k); };
  nest.refs = {
      {c, AccessMap({it(0), it(1)}), true},   // C[i,j]
      {a, AccessMap({it(0), it(2)}), false},  // A[i,k]
      {b, AccessMap({it(2), it(1)}), false},  // B[k,j]
  };
  p.add_nest(std::move(nest));
  p.validate();
  return p;
}

TEST(IoLowerBound, MatmulClosedFormOracle) {
  // N = 64, e = 8, M = 1024 bytes: 2M/e = 256, so the 3/2-exponent
  // cover caps a segment at 256^1.5 = 4096 iterations, against the
  // alternatives N*(2M/e) = 16384 (single ref) and (2M/e)^2 = 65536
  // (two refs).  Capacity term: M * (N^3 / 4096 - 1) = 1024 * 63.
  const std::int64_t n = 64;
  const std::uint64_t e = 8;
  const Program p = matmul_program(n, e);
  const IoLowerBound bound =
      compute_io_lower_bound(p, {{"l1", 1024}});

  ASSERT_EQ(bound.levels.size(), 1u);
  // Compulsory: all three N x N arrays are touched wholesale.
  const std::uint64_t footprint = 3ull * n * n * e;
  EXPECT_EQ(bound.footprint_bytes, footprint);
  EXPECT_EQ(bound.levels[0].compulsory_bytes, footprint);
  EXPECT_NEAR(static_cast<double>(bound.levels[0].capacity_bytes),
              1024.0 * 63.0, 2.0);
  EXPECT_EQ(bound.levels[0].bound_bytes,
            std::max(bound.levels[0].compulsory_bytes,
                     bound.levels[0].capacity_bytes));

  ASSERT_EQ(bound.nests.size(), 1u);
  EXPECT_EQ(bound.nests[0].iterations,
            static_cast<std::uint64_t>(n) * n * n);
  EXPECT_NEAR(bound.nests[0].cover_exponent, 1.5, 1e-9);
}

TEST(IoLowerBound, MatmulCapacityTermDominatesWhenCacheIsTiny) {
  // Same nest, bigger problem: N = 256 with M = 1024 makes the
  // Hong-Kung term M*(N^3/4096 - 1) = 1024 * 4095 = 4193280 bytes
  // exceed the 3*N^2*e = 1572864-byte footprint, so the capacity term
  // is the reported bound.
  const Program p = matmul_program(256, 8);
  const IoLowerBound bound =
      compute_io_lower_bound(p, {{"l1", 1024}});
  ASSERT_EQ(bound.levels.size(), 1u);
  EXPECT_GT(bound.levels[0].capacity_bytes,
            bound.levels[0].compulsory_bytes);
  EXPECT_EQ(bound.levels[0].bound_bytes, bound.levels[0].capacity_bytes);
  EXPECT_NEAR(static_cast<double>(bound.levels[0].capacity_bytes),
              1024.0 * 4095.0, 4.0);
}

TEST(IoLowerBound, StencilIsCompulsoryDominated) {
  // A 2-D relaxation sweep reads a fixed-size neighborhood and writes
  // one point: every reference covers both loops on its own, so the
  // cover exponent is 1 and the capacity term M*(T/(2M/e) - 1) =
  // T*e/2 - M can never beat the T*e-per-array compulsory term.
  const std::int64_t n = 62;  // interior of a 64 x 64 grid
  const std::uint64_t e = 8;
  Program p;
  const auto a = p.add_array({"A", {64, 64}, e});
  const auto b = p.add_array({"B", {64, 64}, e});
  LoopNest nest;
  nest.name = "stencil";
  nest.space = IterationSpace({{0, n - 1}, {0, n - 1}});
  nest.refs = {
      {a, AccessMap::identity(2, {0, 0}), false},  // A[i, j]
      {a, AccessMap::identity(2, {1, 0}), false},  // A[i+1, j]
      {a, AccessMap::identity(2, {0, 1}), false},  // A[i, j+1]
      {b, AccessMap::identity(2, {0, 0}), true},   // B[i, j]
  };
  p.add_nest(std::move(nest));
  p.validate();

  const IoLowerBound bound = compute_io_lower_bound(p, {{"l1", 1024}});
  ASSERT_EQ(bound.levels.size(), 1u);
  // Footprint: each array contributes its touched n x n block.
  EXPECT_EQ(bound.footprint_bytes, 2ull * n * n * e);
  EXPECT_EQ(bound.levels[0].bound_bytes, bound.levels[0].compulsory_bytes);
  ASSERT_EQ(bound.nests.size(), 1u);
  EXPECT_NEAR(bound.nests[0].cover_exponent, 1.0, 1e-9);
}

TEST(IoLowerBound, BoundIsMonotoneNonIncreasingInCapacity) {
  const Program p = matmul_program(128, 8);
  std::vector<LevelSpec> levels;
  for (std::uint64_t m : {512ull, 1024ull, 4096ull, 65536ull,
                          1ull << 20, 1ull << 26}) {
    levels.push_back({std::string("m").append(std::to_string(m)), m});
  }
  const IoLowerBound bound = compute_io_lower_bound(p, levels);
  ASSERT_EQ(bound.levels.size(), levels.size());
  for (std::size_t i = 1; i < bound.levels.size(); ++i) {
    EXPECT_LE(bound.levels[i].bound_bytes, bound.levels[i - 1].bound_bytes)
        << levels[i].name;
    EXPECT_LE(bound.levels[i].capacity_bytes,
              bound.levels[i - 1].capacity_bytes)
        << levels[i].name;
    // The compulsory term is capacity-independent.
    EXPECT_EQ(bound.levels[i].compulsory_bytes,
              bound.levels[i - 1].compulsory_bytes);
  }
}

TEST(IoLowerBound, ZeroFastMemoryYieldsCompulsoryBound) {
  const Program p = matmul_program(32, 8);
  const IoLowerBound bound = compute_io_lower_bound(p, {{"l0", 0}});
  ASSERT_EQ(bound.levels.size(), 1u);
  EXPECT_EQ(bound.levels[0].capacity_bytes, 0u);
  EXPECT_EQ(bound.levels[0].bound_bytes, bound.footprint_bytes);
}

TEST(IoLowerBound, FootprintIsCappedAtArraySize) {
  // A reference whose iteration space is larger than the array it walks
  // (modular/strided reuse collapsed to dim 0) must not claim a
  // footprint beyond the array's declared size.
  Program p;
  const auto a = p.add_array({"A", {16}, 8});
  LoopNest nest;
  nest.name = "reuse";
  nest.space = IterationSpace({{0, 15}, {0, 63}});
  nest.refs = {{a, AccessMap({AffineExpr::iterator(2, 0)}), false}};
  p.add_nest(std::move(nest));
  const IoLowerBound bound = compute_io_lower_bound(p, {{"l1", 128}});
  EXPECT_EQ(bound.footprint_bytes, p.array(a).size_bytes());
}

TEST(IoLowerBound, IndirectRefsAreSkippedConservatively) {
  // nodes[edge[e]]: the indirect ref earns no cover credit and no
  // compulsory credit — the bound stays finite and valid (possibly
  // loose), never overstated.
  Program p;
  const auto nodes = p.add_array({"nodes", {64}, 8});
  const auto table = p.add_index_table({"edge", {0, 3, 5, 7}});
  LoopNest nest;
  nest.name = "gather";
  nest.space = IterationSpace({{0, 3}});
  nest.refs = {{nodes, AccessMap::identity(1, {0}), false, table}};
  p.add_nest(std::move(nest));
  const IoLowerBound bound = compute_io_lower_bound(p, {{"l1", 256}});
  EXPECT_EQ(bound.footprint_bytes, 0u);
  EXPECT_EQ(bound.levels[0].bound_bytes, 0u);
}

// ---------------------------------------------------------------------
// Machine-level plumbing: level specs, engine accounting, and the
// bound <= measured soundness contract on the real registry.

TEST(Movement, MachineLevelSpecsAreCumulative) {
  const auto config = sim::MachineConfig::paper_default();
  const auto specs = sim::machine_level_specs(config);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "l1");
  EXPECT_EQ(specs[0].fast_memory_bytes,
            config.clients * config.client_cache_bytes);
  EXPECT_EQ(specs[1].fast_memory_bytes,
            specs[0].fast_memory_bytes +
                config.io_nodes * config.io_cache_bytes);
  EXPECT_EQ(specs[2].fast_memory_bytes,
            specs[1].fast_memory_bytes +
                config.storage_nodes * config.storage_cache_bytes);
}

TEST(Movement, HeadroomOfZeroMovedIsTriviallyOptimal) {
  EXPECT_DOUBLE_EQ(sim::LevelMovement::headroom(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(sim::LevelMovement::headroom(50, 100), 50.0);
}

TEST(Movement, BoundNeverExceedsMeasuredBytesOnRegistry) {
  // The acceptance contract: for every Table 2 workload and every cache
  // boundary, the engine must move at least as many bytes as the
  // red-blue-pebble bound says any mapping must.  1/16 scale keeps the
  // sweep fast; the bound is computed on the same scaled program the
  // engine replays, so the comparison is exact.
  const auto config = sim::MachineConfig::paper_default();
  for (const auto& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name, 1.0 / 16.0);
    const auto result =
        sim::run_experiment(workload, sim::SchemeSpec::inter(), config);

    ASSERT_EQ(result.movement.size(), 3u);
    const auto& bytes = result.engine.bytes;
    const std::uint64_t moved[3] = {bytes.below_l1(), bytes.below_l2(),
                                    bytes.below_l3()};
    for (std::size_t i = 0; i < 3; ++i) {
      const auto& level = result.movement[i];
      EXPECT_EQ(level.bytes_moved, moved[i]) << level.level;
      EXPECT_LE(level.io_lower_bound, level.bytes_moved) << level.level;
      EXPECT_GT(level.headroom_pct, 0.0) << level.level;
      EXPECT_LE(level.headroom_pct, 100.0) << level.level;
    }
    // Boundaries nest: traffic below l1 includes everything below l2,
    // which includes everything below l3; the bound shrinks the same
    // way because fast memory accumulates.
    EXPECT_GE(moved[0], moved[1]);
    EXPECT_GE(moved[1], moved[2]);
    EXPECT_GE(result.movement[0].io_lower_bound,
              result.movement[1].io_lower_bound);
    EXPECT_GE(result.movement[1].io_lower_bound,
              result.movement[2].io_lower_bound);

    // Per-client demand shares must sum to the aggregate demand traffic
    // served from beyond the private caches.
    std::uint64_t demand = 0;
    for (std::uint64_t b : result.engine.client_demand_bytes) demand += b;
    EXPECT_EQ(demand, bytes.from_peer + bytes.from_l2 + bytes.from_l3 +
                          bytes.from_disk);
    // Every boundary crossing moves whole chunks.
    for (std::uint64_t m : moved) {
      EXPECT_EQ(m % config.chunk_size_bytes, 0u);
    }
  }
}

TEST(Movement, StorageCacheCountsServedAndFilledBytes) {
  cache::StorageCache c("t", 2, cache::PolicyKind::kLru, 64);
  EXPECT_FALSE(c.access(1));  // cold miss: no bytes served
  c.insert(1);
  EXPECT_TRUE(c.access(1));
  EXPECT_TRUE(c.access(1));
  c.insert(2);
  EXPECT_EQ(c.stats().bytes_filled, 2u * 64);
  EXPECT_EQ(c.stats().bytes_served, 2u * 64);

  // Without a chunk size the byte stats stay dormant.
  cache::StorageCache plain("p", 2, cache::PolicyKind::kLru);
  plain.insert(1);
  plain.access(1);
  EXPECT_EQ(plain.stats().bytes_filled, 0u);
  EXPECT_EQ(plain.stats().bytes_served, 0u);
}

}  // namespace
}  // namespace mlsc
