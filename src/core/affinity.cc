#include "core/affinity.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "support/check.h"

namespace mlsc::core {

bool edge_better(const AffinityEdge& x, const AffinityEdge& y) {
  if (x.score != y.score) return x.score > y.score;
  if (x.u != y.u) return x.u < y.u;
  return x.v < y.v;
}

std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  std::uint32_t root = x;
  while (parent[root] != root) root = parent[root];
  while (parent[x] != root) {
    const std::uint32_t next = parent[x];
    parent[x] = root;
    x = next;
  }
  return root;
}

bool uf_union(std::vector<std::uint32_t>& parent, std::uint32_t a,
              std::uint32_t b) {
  const std::uint32_t ra = uf_find(parent, a);
  const std::uint32_t rb = uf_find(parent, b);
  if (ra == rb) return false;
  parent[std::max(ra, rb)] = std::min(ra, rb);
  return true;
}

void PostingIndex::post(std::uint64_t key, std::uint32_t id,
                        std::uint32_t count) {
  if (key >= lists_.size()) lists_.resize(key + 1);
  auto& list = lists_[key];
  MLSC_CHECK(list.empty() || list.back() <= id,
             "posting ids must arrive in ascending order");
  for (std::uint32_t c = 0; c < count; ++c) list.push_back(id);
}

void PostingIndex::erase(std::uint64_t key, std::uint32_t id) {
  MLSC_CHECK(key < lists_.size(), "posting key missing for id " << id);
  auto& list = lists_[key];
  const auto range = std::equal_range(list.begin(), list.end(), id);
  MLSC_CHECK(range.first != range.second, "posting list missing id " << id);
  list.erase(range.first, range.second);
  if (list.empty()) list = {};  // release the storage
}

const std::vector<std::uint32_t>* PostingIndex::find(std::uint64_t key) const {
  if (key >= lists_.size() || lists_[key].empty()) return nullptr;
  return &lists_[key];
}

std::vector<AffinityEdge> score_rows(const PostingIndex& index,
                                     std::span<const std::uint32_t> rows,
                                     const RowKeys& keys_of,
                                     std::span<const std::uint32_t> sizes,
                                     ThreadPool* pool) {
  std::size_t bound = 0;
  for (const std::uint32_t a : rows) {
    bound = std::max<std::size_t>(bound, std::size_t{a} + 1);
  }
  const auto size_of = [&](std::uint32_t id) {
    return sizes.empty() ? 1.0 : static_cast<double>(sizes[id]);
  };

  // Per-row slots keep the parallel fill deterministic.  Posting lists
  // are id-ascending, so scoring a stops at the first entry >= a.
  std::vector<std::vector<AffinityEdge>> per_row(rows.size());
  auto score_range = [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<std::uint64_t> acc;
    thread_local std::vector<std::uint32_t> touched;
    thread_local std::vector<PostedKey> keys;
    if (acc.size() < bound) acc.resize(bound, 0);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t a = rows[i];
      keys.clear();
      keys_of(a, keys);
      touched.clear();
      for (const PostedKey& k : keys) {
        const std::vector<std::uint32_t>* list = index.find(k.key);
        if (list == nullptr) continue;
        for (const std::uint32_t b : *list) {
          if (b >= a) break;
          if (acc[b] == 0) touched.push_back(b);
          acc[b] += k.count;
        }
      }
      auto& out = per_row[i];
      out.reserve(touched.size());
      for (const std::uint32_t b : touched) {
        const double denom = size_of(a) * size_of(b);
        out.push_back(
            AffinityEdge{static_cast<double>(acc[b]) / denom, b, a});
        acc[b] = 0;  // keep the scratch all-zero between rows
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && rows.size() >= 64) {
    pool->parallel_for(0, rows.size(), pool->default_grain(rows.size()),
                       score_range);
  } else {
    score_range(0, rows.size());
  }

  std::size_t total = 0;
  for (const auto& row : per_row) total += row.size();
  std::vector<AffinityEdge> edges;
  edges.reserve(total);
  for (auto& row : per_row) {
    edges.insert(edges.end(), row.begin(), row.end());
    row = {};
  }
  return edges;
}

std::size_t hook_edges(std::vector<AffinityEdge> edges,
                       std::vector<std::uint32_t>& parent,
                       std::vector<AffinityEdge>& forest) {
  constexpr std::uint32_t kNone = UINT32_MAX;
  // best[root] = index of the root's best edge this round.  Entries are
  // reset as they are consumed, so only touched roots cost anything.
  thread_local std::vector<std::uint32_t> best;
  if (best.size() < parent.size()) best.resize(parent.size(), kNone);
  std::vector<std::uint32_t> roots;
  std::size_t rounds = 0;
  for (;;) {
    roots.clear();
    std::size_t kept = 0;
    for (std::size_t r = 0; r < edges.size(); ++r) {
      const AffinityEdge e = edges[r];
      const std::uint32_t ru = uf_find(parent, e.u);
      const std::uint32_t rv = uf_find(parent, e.v);
      if (ru == rv) continue;
      edges[kept] = e;
      for (const std::uint32_t root : {ru, rv}) {
        std::uint32_t& pick = best[root];
        if (pick == kNone) {
          roots.push_back(root);
          pick = static_cast<std::uint32_t>(kept);
        } else if (edge_better(e, edges[pick])) {
          pick = static_cast<std::uint32_t>(kept);
        }
      }
      ++kept;
    }
    edges.resize(kept);
    if (edges.empty()) break;
    ++rounds;
    // The smallest root's pick joins two distinct components, so every
    // round hooks at least one edge and the loop terminates.
    std::sort(roots.begin(), roots.end());
    for (const std::uint32_t root : roots) {
      const AffinityEdge& e = edges[best[root]];
      best[root] = kNone;
      if (uf_union(parent, e.u, e.v)) forest.push_back(e);
    }
  }
  return rounds;
}

CutResult cut_forest(std::vector<AffinityEdge> forest,
                     std::span<const std::uint32_t> ids,
                     std::span<const std::uint64_t> iterations,
                     const OrderKeyOf& order_key_of, std::size_t target,
                     double slack) {
  const std::size_t id_bound = ids.empty() ? 0 : std::size_t{ids.back()} + 1;
  CutResult out;
  std::vector<std::uint32_t>& parent = out.parent;
  parent.resize(id_bound);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<std::uint64_t> comp_iterations(id_bound, 0);
  std::uint64_t total_iterations = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    comp_iterations[ids[i]] = iterations[i];
    total_iterations += iterations[i];
  }

  // The forest is acyclic, so every replayed edge joins two distinct
  // components; skipping one keeps the union acyclic too.
  std::sort(forest.begin(), forest.end(), edge_better);
  const bool capped = slack >= 0.0;
  const auto cap = static_cast<std::uint64_t>(
      static_cast<double>(total_iterations) / static_cast<double>(target) *
      (1.0 + slack));
  std::size_t components = ids.size();
  for (const AffinityEdge& e : forest) {
    if (components <= target) break;
    const std::uint32_t ru = uf_find(parent, e.u);
    const std::uint32_t rv = uf_find(parent, e.v);
    MLSC_CHECK(ru != rv, "forest edge formed a cycle");
    const std::uint64_t merged = comp_iterations[ru] + comp_iterations[rv];
    if (capped && merged > cap) {
      ++out.skipped;
      continue;
    }
    uf_union(parent, ru, rv);
    comp_iterations[std::min(ru, rv)] = merged;
    --components;
  }
  if (components <= target) return out;

  // Leftovers — components the cap stopped or that share no data: merge
  // rank-adjacent (by order key), smallest combined size first.
  // Smallest-first evens the sizes, and rank adjacency keeps the mapping
  // close to the sequential (disk-sequential) order.
  struct Comp {
    std::uint32_t root;
    std::uint64_t order_key;
    std::uint64_t iterations;
  };
  std::unordered_map<std::uint32_t, std::size_t> slot;
  std::vector<Comp> comps;
  comps.reserve(components);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t root = uf_find(parent, ids[i]);
    const auto [it, inserted] = slot.try_emplace(root, comps.size());
    if (inserted) {
      comps.push_back(Comp{root, order_key_of(i), iterations[i]});
    } else {
      Comp& c = comps[it->second];
      c.order_key = std::min(c.order_key, order_key_of(i));
      c.iterations += iterations[i];
    }
  }
  std::sort(comps.begin(), comps.end(), [](const Comp& x, const Comp& y) {
    if (x.order_key != y.order_key) return x.order_key < y.order_key;
    return x.root < y.root;
  });
  while (comps.size() > target) {
    const std::size_t pos = smallest_adjacent_pair(
        comps.size(), [&](std::size_t p) { return comps[p].iterations; });
    uf_union(parent, comps[pos].root, comps[pos + 1].root);
    comps[pos].root = std::min(comps[pos].root, comps[pos + 1].root);
    comps[pos].iterations += comps[pos + 1].iterations;
    comps.erase(comps.begin() + pos + 1);
  }
  return out;
}

}  // namespace mlsc::core
