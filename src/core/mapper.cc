#include "core/mapper.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "support/check.h"

namespace mlsc::core {

namespace {

/// Materializes the options' thread knob: a live pool when more than one
/// thread is requested, nullptr (serial) otherwise.  The pool lives in
/// `storage` so it tears down when the mapping call returns.
ThreadPool* acquire_pool(std::size_t num_threads,
                         std::optional<ThreadPool>& storage) {
  if (resolve_num_threads(num_threads) <= 1) return nullptr;
  storage.emplace(num_threads);
  return &*storage;
}

}  // namespace

HierarchicalMapper::HierarchicalMapper(const topology::HierarchyTree& tree,
                                       HierarchicalMapperOptions options)
    : tree_(tree), options_(options) {
  MLSC_CHECK(tree_.finalized(), "hierarchy tree must be finalized");
}

MappingResult HierarchicalMapper::map(const poly::Program& program,
                                      const DataSpace& space,
                                      std::span<const poly::NestId> nests) const {
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = acquire_pool(options_.num_threads, pool_storage);
  auto tagging = compute_iteration_chunks(program, space, nests,
                                          options_.tagging, pool);
  return map_chunks_with_pool(std::move(tagging.chunks), pool);
}

MappingResult HierarchicalMapper::map_chunks(
    std::vector<IterationChunk> chunks) const {
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = acquire_pool(options_.num_threads, pool_storage);
  return map_chunks_with_pool(std::move(chunks), pool);
}

MappingResult HierarchicalMapper::map_chunks_with_pool(
    std::vector<IterationChunk> chunks, ThreadPool* pool) const {
  MLSC_CHECK(!chunks.empty(), "no iteration chunks to map");

  // Hierarchical iteration distribution: each tree node owns the set of
  // chunk indices routed to it; the root owns everything.  Walking the
  // levels from the root, every interior node's set is clustered into
  // degree-many clusters and balanced, and each cluster flows to one
  // child ("NC = NC + {{γ} ∀γ ∈ cαp}" — clusters dissolve back to
  // singletons for the next level).
  std::vector<std::vector<std::uint32_t>> owned(tree_.num_nodes());
  owned[tree_.root()].resize(chunks.size());
  std::iota(owned[tree_.root()].begin(), owned[tree_.root()].end(), 0u);

  const BalanceOptions balance{options_.balance_threshold};

  // BThres bounds the imbalance between any two *client nodes* (§4.3), so
  // every level balances against the same global per-client ideal scaled
  // by the number of leaves under each child — per-level tolerances would
  // otherwise compound down the tree.
  std::uint64_t total_iterations = 0;
  for (const auto& chunk : chunks) total_iterations += chunk.iterations;
  std::vector<std::size_t> leaves_under(tree_.num_nodes(), 0);
  for (topology::NodeId client : tree_.clients()) leaves_under[client] = 1;
  for (std::uint32_t level = tree_.num_levels(); level-- > 0;) {
    for (topology::NodeId node : tree_.level_nodes(level)) {
      for (topology::NodeId child : tree_.node(node).children) {
        leaves_under[node] += leaves_under[child];
      }
    }
  }
  const auto global = balance_limits(total_iterations, tree_.num_clients(),
                                     options_.balance_threshold);

  for (std::uint32_t level = 0; level + 1 < tree_.num_levels(); ++level) {
    for (topology::NodeId node : tree_.level_nodes(level)) {
      const auto& children = tree_.node(node).children;
      if (children.empty()) continue;
      auto& set = owned[node];
      if (set.empty()) continue;

      auto clusters = make_singletons(set, chunks);
      cluster_to_count(clusters, children.size(), chunks, pool,
                       options_.clustering);
      // All children of a layered tree have equal leaf counts; scale the
      // global per-client window by that count.
      const auto leaves =
          static_cast<std::uint64_t>(leaves_under[children.front()]);
      const BalanceLimits limits{global.lower * leaves,
                                 global.upper * leaves};
      balance_clusters(clusters, chunks, balance, &limits);

      MLSC_CHECK(clusters.size() == children.size(),
                 "cluster count does not match fan-out");
      for (std::size_t j = 0; j < children.size(); ++j) {
        owned[children[j]] = std::move(clusters[j].members);
      }
      set.clear();
    }
  }

  MappingResult result;
  result.kind = MapperKind::kInterProcessor;
  result.mapper_name = "inter-processor";
  result.client_work.resize(tree_.num_clients());

  for (std::size_t rank = 0; rank < tree_.num_clients(); ++rank) {
    const topology::NodeId client = tree_.clients()[rank];
    auto chunk_ids = owned[client];
    // Deterministic baseline order: by first rank within nest.  The
    // scheduling enhancement (Fig. 15) reorders this.
    std::sort(chunk_ids.begin(), chunk_ids.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (chunks[a].nest != chunks[b].nest) {
                  return chunks[a].nest < chunks[b].nest;
                }
                return chunks[a].first_rank() < chunks[b].first_rank();
              });
    for (std::uint32_t id : chunk_ids) {
      WorkItem item;
      item.nest = chunks[id].nest;
      item.order = poly::IterationOrder::identity(0);  // fixed up below
      item.ranges = chunks[id].ranges;
      item.iterations = chunks[id].iterations;
      item.chunk = static_cast<std::int32_t>(id);
      result.client_work[rank].push_back(std::move(item));
    }
  }

  result.chunk_table = std::move(chunks);
  return result;
}

}  // namespace mlsc::core
