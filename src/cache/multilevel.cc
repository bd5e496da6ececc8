#include "cache/multilevel.h"

#include <array>

#include "obs/cache_insight.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace mlsc::cache {

namespace {

/// Metric prefix per hierarchy level: compute-node caches are "L1",
/// I/O-node caches "L2", storage-node caches "L3" (paper §3's three
/// cache levels).  The dummy root never carries a cache.
const char* metric_prefix(topology::NodeKind kind) {
  switch (kind) {
    case topology::NodeKind::kCompute:
      return "cache.l1";
    case topology::NodeKind::kIo:
      return "cache.l2";
    case topology::NodeKind::kStorage:
      return "cache.l3";
    case topology::NodeKind::kDummyRoot:
      break;
  }
  return "cache.other";
}

}  // namespace

const char* placement_mode_name(PlacementMode mode) {
  switch (mode) {
    case PlacementMode::kAccessBased:
      return "access-based";
    case PlacementMode::kEvictionBased:
      return "eviction-based";
    case PlacementMode::kExclusive:
      return "exclusive";
  }
  return "?";
}

MultiLevelCache::MultiLevelCache(const topology::HierarchyTree& tree,
                                 std::uint64_t chunk_size_bytes,
                                 PolicyKind policy, PlacementMode placement)
    : tree_(tree), chunk_size_(chunk_size_bytes), placement_(placement) {
  MLSC_CHECK(tree_.finalized(), "hierarchy tree must be finalized");
  MLSC_CHECK(chunk_size_ > 0, "chunk size must be positive");
  caches_.resize(tree_.num_nodes());
  failed_.assign(tree_.num_nodes(), 0);
  base_chunks_.assign(tree_.num_nodes(), 0);
  for (topology::NodeId id = 0; id < tree_.num_nodes(); ++id) {
    const auto& node = tree_.node(id);
    if (node.cache_capacity_bytes == 0) continue;
    const std::size_t chunks =
        static_cast<std::size_t>(node.cache_capacity_bytes / chunk_size_);
    MLSC_CHECK(chunks > 0, "cache at " << node.name
                                       << " smaller than one chunk");
    base_chunks_[id] = chunks;
    caches_[id] = std::make_unique<StorageCache>(node.name, chunks, policy,
                                                 chunk_size_);
    if (obs::metrics_enabled()) {
      caches_[id]->bind_metrics(metric_prefix(node.kind));
    }
  }
  cached_paths_.resize(tree_.num_nodes());
  for (topology::NodeId id = 0; id < tree_.num_nodes(); ++id) {
    for (topology::NodeId node : tree_.path_to_root(id)) {
      if (caches_[node] != nullptr) cached_paths_[id].push_back(node);
    }
    MLSC_CHECK(cached_paths_[id].size() <= kMaxCachedLevels,
               "more than " << kMaxCachedLevels << " cached levels above "
                            << tree_.node(id).name);
  }
}

topology::NodeId MultiLevelCache::sibling_holding(topology::NodeId node,
                                                  ChunkId chunk) const {
  const topology::NodeId parent = tree_.node(node).parent;
  if (parent == topology::kInvalidNode) return topology::kInvalidNode;
  for (topology::NodeId sibling : tree_.node(parent).children) {
    if (sibling != node && caches_[sibling] != nullptr &&
        failed_[sibling] == 0 && caches_[sibling]->contains(chunk)) {
      return sibling;
    }
  }
  return topology::kInvalidNode;
}

const StorageCache& MultiLevelCache::cache(topology::NodeId node) const {
  MLSC_CHECK(node < caches_.size() && caches_[node] != nullptr,
             "node " << node << " has no cache");
  return *caches_[node];
}

void MultiLevelCache::set_node_failed(topology::NodeId node, bool failed) {
  MLSC_CHECK(node < caches_.size(), "node " << node << " out of range");
  if (caches_[node] == nullptr) return;
  if (failed && failed_[node] == 0) {
    caches_[node]->clear();  // fail-stop: contents (dirty data too) lost
  } else if (!failed && failed_[node] != 0) {
    caches_[node]->set_capacity(base_chunks_[node]);  // cold restart
  }
  failed_[node] = failed ? 1 : 0;
}

void MultiLevelCache::set_node_capacity_divisor(topology::NodeId node,
                                                double divisor) {
  MLSC_CHECK(node < caches_.size(), "node " << node << " out of range");
  MLSC_CHECK(divisor >= 1.0, "capacity divisor must be >= 1");
  if (caches_[node] == nullptr) return;
  const auto chunks = static_cast<std::size_t>(
      static_cast<double>(base_chunks_[node]) / divisor);
  caches_[node]->set_capacity(chunks > 0 ? chunks : 1);
}

void MultiLevelCache::fill(topology::NodeId node, ChunkId chunk, bool dirty,
                           std::uint32_t& writebacks) {
  auto evicted = caches_[node]->insert(chunk);
  if (dirty && write_back_) caches_[node]->mark_dirty(chunk);
  if (!evicted.has_value()) return;

  // Decide where the evicted chunk goes.  Under eviction-based and
  // exclusive placement every eviction demotes toward the root; under
  // the default access-based placement only *dirty* data must survive
  // (it has to reach the disk eventually).
  const bool must_demote = placement_ != PlacementMode::kAccessBased ||
                           (write_back_ && evicted->dirty);
  if (!must_demote) return;

  topology::NodeId parent = tree_.node(node).parent;
  while (parent != topology::kInvalidNode) {
    if (caches_[parent] != nullptr && failed_[parent] == 0) {
      if (placement_ != PlacementMode::kAccessBased) {
        fill(parent, evicted->chunk, evicted->dirty, writebacks);
      } else if (caches_[parent]->contains(evicted->chunk)) {
        // Inclusive copy already present: just transfer dirtiness.
        if (evicted->dirty) caches_[parent]->mark_dirty(evicted->chunk);
      } else {
        fill(parent, evicted->chunk, evicted->dirty, writebacks);
      }
      return;
    }
    parent = tree_.node(parent).parent;
  }
  // No cache above: a dirty chunk leaves the hierarchy -> disk write.
  if (evicted->dirty) ++writebacks;
}

AccessResult MultiLevelCache::access(topology::NodeId client, ChunkId chunk,
                                     bool is_write) {
  MLSC_CHECK(tree_.node(client).kind == topology::NodeKind::kCompute,
             "accesses must originate at a compute node");
  AccessResult result;
  // Cached nodes probed and missed, in walk order.
  std::array<topology::NodeId, kMaxCachedLevels> missed{};
  std::size_t num_missed = 0;
  for (topology::NodeId node : cached_paths_[client]) {
    // Degraded routing: a failed cache is detected (costing a failover
    // penalty upstream), then its healthy siblings are probed before the
    // walk falls through to the next level.  Cooperative caching probes
    // the sibling compute nodes right after the client's own cache
    // missed.
    if (failed_[node] != 0) {
      ++result.failed_probes;
    } else {
      ++result.caches_probed;
      if (caches_[node]->access(chunk)) {
        result.hit_node = node;
        break;
      }
      missed[num_missed++] = node;
      if (!cooperative_ || node != client) continue;
    }
    const topology::NodeId peer = sibling_holding(node, chunk);
    if (peer != topology::kInvalidNode) {
      result.hit_node = peer;
      result.peer_hit = true;
      break;
    }
  }

  switch (placement_) {
    case PlacementMode::kAccessBased:
      // Fill every cache that missed on the way to the hit/disk.
      for (std::size_t i = 0; i < num_missed; ++i) {
        fill(missed[i], chunk, /*dirty=*/false, result.writebacks_to_disk);
      }
      break;
    case PlacementMode::kEvictionBased:
    case PlacementMode::kExclusive:
      // Fill only the cache closest to the client; evictions trickle down
      // via fill().  Exclusive placement additionally removes the chunk
      // from the shared cache that hit.
      if (num_missed != 0) {
        fill(missed[0], chunk, /*dirty=*/false, result.writebacks_to_disk);
      }
      if (placement_ == PlacementMode::kExclusive &&
          result.hit_node != topology::kInvalidNode &&
          result.hit_node != client && !result.peer_hit && num_missed != 0) {
        caches_[result.hit_node]->erase(chunk);
      }
      break;
  }

  if (is_write && write_back_ && caches_[client] != nullptr &&
      failed_[client] == 0) {
    caches_[client]->mark_dirty(chunk);
  }
  return result;
}

std::uint32_t MultiLevelCache::install(topology::NodeId client,
                                       ChunkId chunk) {
  std::uint32_t writebacks = 0;
  for (topology::NodeId node : cached_paths_[client]) {
    if (failed_[node] != 0) continue;
    if (!caches_[node]->contains(chunk)) {
      fill(node, chunk, /*dirty=*/false, writebacks);
    }
  }
  return writebacks;
}

bool MultiLevelCache::resident_on_path(topology::NodeId client,
                                       ChunkId chunk) const {
  for (topology::NodeId node : cached_paths_[client]) {
    if (failed_[node] == 0 && caches_[node]->contains(chunk)) {
      return true;
    }
  }
  return false;
}

CacheStats MultiLevelCache::aggregate_stats(topology::NodeKind kind) const {
  CacheStats total;
  for (topology::NodeId id = 0; id < tree_.num_nodes(); ++id) {
    if (caches_[id] != nullptr && tree_.node(id).kind == kind) {
      total += caches_[id]->stats();
    }
  }
  return total;
}

void MultiLevelCache::attach_insight(obs::HierarchyInsight& insight) {
  for (topology::NodeId id = 0; id < tree_.num_nodes(); ++id) {
    if (caches_[id] == nullptr) continue;
    int level = 0;
    switch (tree_.node(id).kind) {
      case topology::NodeKind::kCompute:
        level = 1;
        break;
      case topology::NodeKind::kIo:
        level = 2;
        break;
      case topology::NodeKind::kStorage:
        level = 3;
        break;
      case topology::NodeKind::kDummyRoot:
        continue;
    }
    caches_[id]->set_insight(&insight.add_cache(
        tree_.node(id).name, level,
        static_cast<std::uint64_t>(base_chunks_[id])));
  }
}

void MultiLevelCache::reset_stats() {
  for (auto& cache : caches_) {
    if (cache != nullptr) cache->reset_stats();
  }
}

}  // namespace mlsc::cache
