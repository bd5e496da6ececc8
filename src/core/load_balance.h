// Stage 2 of the hierarchical distribution algorithm (Fig. 5): greedy
// load balancing of a cluster set against the balance threshold BThres.
//
// Iteration chunks are evicted progressively from over-full clusters to
// under-full ones; each eviction picks the chunk whose tag has maximal
// dot product with the recipient's cluster tag, and a chunk is split (as
// per the paper) when no whole chunk fits the limits.
#pragma once

#include <cstdint>
#include <vector>

#include "core/clustering.h"

namespace mlsc::core {

struct BalanceOptions {
  /// Maximum tolerable relative imbalance: limits are
  /// ideal*(1 ± threshold) where ideal = total/N.  The paper's default
  /// experiments use 10%.
  double threshold = 0.10;
};

struct BalanceLimits {
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
};

/// The [LLim, ULim] window for a cluster set with `total` iterations and
/// `count` clusters.  The window always admits a perfectly balanced
/// partition (lower <= floor(ideal), upper >= ceil(ideal)).
BalanceLimits balance_limits(std::uint64_t total, std::size_t count,
                             double threshold);

/// Balances `clusters` in place.  Returns the number of chunk moves
/// (splits count as one move).  Postcondition: every cluster's iteration
/// count is within [LLim, ULim].
///
/// When `explicit_limits` is provided it overrides the locally computed
/// window.  The hierarchical mapper passes limits derived from the
/// *global* per-client ideal so that per-level tolerances do not
/// compound: BThres bounds the imbalance "across the iteration counts of
/// any two client nodes" (§4.3), not per tree level.
///
/// Runs serially: each eviction scores the donor's members against a
/// dense count table of the recipient's tag, a few direct loads per
/// member, so there is nothing worth fanning out over a pool.
std::size_t balance_clusters(std::vector<Cluster>& clusters,
                             std::vector<IterationChunk>& chunks,
                             const BalanceOptions& options,
                             const BalanceLimits* explicit_limits = nullptr);

/// True when every cluster is within the limits implied by `options`.
bool is_balanced(const std::vector<Cluster>& clusters,
                 const BalanceOptions& options);

}  // namespace mlsc::core
