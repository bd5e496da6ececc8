#include "core/clustering.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/log.h"

namespace mlsc::core {

std::uint64_t Cluster::make_order_key(const IterationChunk& chunk) {
  // (nest, first rank) packed so nests sort before ranks; ranks stay
  // below 2^48 for any tractable nest.
  return (static_cast<std::uint64_t>(chunk.nest) << 48) |
         (chunk.first_rank() & ((std::uint64_t{1} << 48) - 1));
}

Cluster Cluster::singleton(std::uint32_t chunk_index,
                           const IterationChunk& chunk) {
  Cluster c;
  c.add_member(chunk_index, chunk);
  return c;
}

void Cluster::absorb(Cluster&& other) {
  members.insert(members.end(), other.members.begin(), other.members.end());
  tag.add(other.tag);
  iterations += other.iterations;
  order_key = std::min(order_key, other.order_key);
  other = Cluster{};
}

void Cluster::add_member(std::uint32_t chunk_index,
                         const IterationChunk& chunk) {
  members.push_back(chunk_index);
  tag.add(chunk.tag);
  iterations += chunk.iterations;
  order_key = std::min(order_key, make_order_key(chunk));
}

void Cluster::remove_member(std::uint32_t chunk_index,
                            const IterationChunk& chunk) {
  auto it = std::find(members.begin(), members.end(), chunk_index);
  MLSC_CHECK(it != members.end(),
             "chunk " << chunk_index << " is not a member of this cluster");
  members.erase(it);
  tag.remove(chunk.tag);
  MLSC_CHECK(iterations >= chunk.iterations, "cluster size underflow");
  iterations -= chunk.iterations;
}

std::vector<Cluster> make_singletons(
    const std::vector<std::uint32_t>& indices,
    const std::vector<IterationChunk>& chunks) {
  std::vector<Cluster> out;
  out.reserve(indices.size());
  for (std::uint32_t idx : indices) {
    MLSC_CHECK(idx < chunks.size(), "chunk index out of range");
    out.push_back(Cluster::singleton(idx, chunks[idx]));
  }
  return out;
}

std::vector<AffinityEdge> score_clusters(const std::vector<Cluster>& clusters,
                                         ThreadPool* pool) {
  const auto n = static_cast<std::uint32_t>(clusters.size());
  // Post under the touched data chunks renumbered densely, so the index
  // is as large as the data these clusters touch, not the data space.
  std::uint32_t width = 0;
  for (const Cluster& c : clusters) {
    if (!c.tag.empty()) width = std::max(width, c.tag.entries().back().pos + 1);
  }
  std::vector<std::uint32_t> key_of(width, UINT32_MAX);
  std::uint32_t num_keys = 0;
  PostingIndex index;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint32_t> sizes(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    rows[a] = a;
    sizes[a] = static_cast<std::uint32_t>(clusters[a].members.size());
    for (const auto& entry : clusters[a].tag.entries()) {
      std::uint32_t& key = key_of[entry.pos];
      if (key == UINT32_MAX) key = num_keys++;
      index.post(key, a, entry.count);
    }
  }
  const RowKeys keys_of = [&](std::uint32_t a, std::vector<PostedKey>& out) {
    for (const auto& entry : clusters[a].tag.entries()) {
      out.push_back(PostedKey{key_of[entry.pos], entry.count});
    }
  };
  return score_rows(index, rows, keys_of, sizes, pool);
}

namespace {

/// The greedy kernel's candidate queue (Müllner's "generic" scheme,
/// arXiv:1109.2378): every alive cluster x keeps best[x], its best pair
/// (x, y > x) under edge_better — a pair belongs to its smaller id — and
/// this binary max-heap orders the clusters with a candidate by it.
/// Slots are tracked per cluster, so a cluster's entry moves or leaves
/// in O(log n) and the heap never holds more than one entry per cluster.
class CandidateHeap {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;  // "no partner"

  CandidateHeap(const std::vector<AffinityEdge>& best, std::size_t n)
      : best_(best), slot_(n, kAbsent) {}

  bool empty() const { return ids_.empty(); }
  std::uint32_t top() const { return ids_.front(); }

  /// Brings id's entry in line with best[id]: inserted or re-sifted, or
  /// removed when id has no candidate (best[id].v == kNone).
  void update(std::uint32_t id) {
    if (best_[id].v == kNone) {
      erase(id);
      return;
    }
    if (slot_[id] == kAbsent) {
      slot_[id] = ids_.size();
      ids_.push_back(id);
    }
    sift_down(sift_up(slot_[id]));
  }

  void erase(std::uint32_t id) {
    const std::size_t s = slot_[id];
    if (s == kAbsent) return;
    slot_[id] = kAbsent;
    const std::uint32_t last = ids_.back();
    ids_.pop_back();
    if (s == ids_.size()) return;
    place(s, last);
    sift_down(sift_up(s));
  }

 private:
  static constexpr std::size_t kAbsent = SIZE_MAX;

  bool above(std::uint32_t x, std::uint32_t y) const {
    return edge_better(best_[x], best_[y]);
  }
  void place(std::size_t s, std::uint32_t id) {
    ids_[s] = id;
    slot_[id] = s;
  }
  std::size_t sift_up(std::size_t s) {
    const std::uint32_t id = ids_[s];
    while (s > 0 && above(id, ids_[(s - 1) / 2])) {
      place(s, ids_[(s - 1) / 2]);
      s = (s - 1) / 2;
    }
    place(s, id);
    return s;
  }
  void sift_down(std::size_t s) {
    const std::uint32_t id = ids_[s];
    for (;;) {
      std::size_t child = 2 * s + 1;
      if (child >= ids_.size()) break;
      if (child + 1 < ids_.size() && above(ids_[child + 1], ids_[child])) {
        ++child;
      }
      if (!above(ids_[child], id)) break;
      place(s, ids_[child]);
      s = child;
    }
    place(s, id);
  }

  const std::vector<AffinityEdge>& best_;
  std::vector<std::uint32_t> ids_;   // heap order
  std::vector<std::size_t> slot_;    // by cluster id
};

/// Greedy agglomerative merge down to `target` clusters.  Each step
/// merges the alive pair with the best (score, a, b) under edge_better,
/// where the score is the cluster-tag dot product normalized by the
/// member counts (average linkage).  The raw bitwise-sum dot grows
/// linearly with cluster size, so once any data chunk is shared
/// universally (a Fock matrix, a catalog) the largest cluster out-bids
/// every genuinely similar pair and the greedy snowballs into one blob.
/// Normalizing by |a|*|b| measures per-member similarity; on the paper's
/// worked example (Fig. 8) it is what reproduces the Fig. 9 clusters.
///
/// Heap invariant: for every alive cluster x, best[x] is either exact —
/// x's best pair (x, y > x) with its current score, or none when x has
/// no such pair sharing data — or a stale upper bound that ranks at or
/// above x's true best under edge_better.  Every cluster with a
/// candidate (exact or stale) is in the heap, once.  When the top is
/// exact it is therefore the best pair overall; a stale top is rescored
/// and re-sifted first.  A merge a <- b (a < b) changes only the pairs
/// touching a and b, so it touches only their partners' entries: a
/// rescored pair (c, a) that ranks at or above best[c] becomes c's
/// exact best; an entry that named a or b otherwise goes stale, keeping
/// its old rank as the bound.  Scores are exact integer dots over
/// double member counts, so the merge sequence is the one rescoring all
/// pairs after every merge would give, with O(clusters) heap entries.
void merge_to_count(std::vector<Cluster>& clusters, std::size_t target,
                    ThreadPool* pool) {
  constexpr std::uint32_t kNone = CandidateHeap::kNone;
  const std::size_t n = clusters.size();
  std::vector<bool> alive(n, true);
  std::vector<std::uint32_t> version(n, 0);

  // Versioned inverted index for re-scoring merged clusters: data chunk
  // -> (cluster, per-chunk count, version).  The dot products of one
  // cluster against every candidate accumulate in a single pass
  // (dot(a,c) = sum over shared chunks of count_a * count_c).  Entries go
  // stale when their cluster merges (its version bumps) and are
  // compacted away on the next scan.
  struct IndexEntry {
    std::uint32_t cluster;
    std::uint32_t count;
    std::uint32_t version;
  };
  std::unordered_map<std::uint32_t, std::vector<IndexEntry>> bit_index;
  auto index_cluster = [&](std::uint32_t id) {
    for (const auto& entry : clusters[id].tag.entries()) {
      bit_index[entry.pos].push_back(
          IndexEntry{id, entry.count, version[id]});
    }
  };

  // Calls visit(c, score of (a, c)) for every alive c != a sharing data
  // with a, each once.
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<std::uint32_t> touched;
  auto for_each_partner = [&](std::uint32_t a, auto&& visit) {
    touched.clear();
    for (const auto& tag_entry : clusters[a].tag.entries()) {
      auto it = bit_index.find(tag_entry.pos);
      if (it == bit_index.end()) continue;
      const std::uint64_t ca = tag_entry.count;
      // Compact stale entries while scanning.
      auto& list = it->second;
      std::size_t w = 0;
      for (std::size_t r = 0; r < list.size(); ++r) {
        const IndexEntry& e = list[r];
        if (!alive[e.cluster] || version[e.cluster] != e.version) continue;
        list[w++] = e;
        if (e.cluster == a) continue;
        if (acc[e.cluster] == 0) touched.push_back(e.cluster);
        acc[e.cluster] += ca * e.count;
      }
      list.resize(w);
    }
    for (std::uint32_t c : touched) {
      const double denom = static_cast<double>(clusters[a].members.size()) *
                           static_cast<double>(clusters[c].members.size());
      visit(c, static_cast<double>(acc[c]) / denom);
      acc[c] = 0;
    }
  };
  auto offer = [](AffinityEdge& slot, const AffinityEdge& e) {
    if (slot.v == kNone || edge_better(e, slot)) slot = e;
  };

  std::vector<AffinityEdge> best(n);
  for (std::uint32_t x = 0; x < n; ++x) best[x] = AffinityEdge{0, x, kNone};
  std::vector<bool> stale(n, false);
  CandidateHeap heap(best, n);

  // Initial candidates: every pair sharing data, from the shared
  // affinity kernel, folded into each owner's best.
  obs::Span sweep_span("pipeline.similarity_sweep");
  sweep_span.arg("clusters", static_cast<std::uint64_t>(n));
  std::size_t candidates = 0;
  {
    const std::vector<AffinityEdge> edges = score_clusters(clusters, pool);
    candidates = edges.size();
    for (const AffinityEdge& e : edges) offer(best[e.u], e);
  }
  for (std::uint32_t x = 0; x < n; ++x) heap.update(x);
  for (std::uint32_t a = 0; a < n; ++a) index_cluster(a);
  sweep_span.arg("candidates", static_cast<std::uint64_t>(candidates));
  sweep_span.end();
  MLSC_COUNTER_ADD("pipeline.sweep_candidates", candidates);

  // Zero-sharing fallback order, built lazily the first time the heap
  // runs dry.  An empty heap means *no* alive pair shares data — and
  // since dots are bilinear, merging zero-dot clusters keeps every dot
  // zero.  The fallback list can therefore be maintained incrementally
  // instead of re-sorted per merge: it stays sorted by order_key because
  // the merged cluster keeps the smaller key of the adjacent pair.
  std::vector<std::uint32_t> fallback_ids;

  std::size_t alive_count = n;
  while (alive_count > target) {
    // Rescore stale bounds until the top is exact.
    while (!heap.empty() && stale[heap.top()]) {
      const std::uint32_t x = heap.top();
      stale[x] = false;
      best[x] = AffinityEdge{0, x, kNone};
      for_each_partner(x, [&](std::uint32_t c, double score) {
        if (c > x) offer(best[x], AffinityEdge{score, x, c});
      });
      heap.update(x);
    }
    const bool found = !heap.empty();
    AffinityEdge pick = found ? best[heap.top()] : AffinityEdge{};
    std::size_t fallback_pos = 0;
    if (!found) {
      // All remaining pairs share no data.  With zero sharing, cache
      // behaviour is indifferent to the grouping, but disk behaviour is
      // not: merge the rank-adjacent pair with the smallest combined
      // size, which keeps the mapping close to the sequential order
      // (sequential on disk) and balanced.
      if (fallback_ids.empty()) {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (alive[i]) fallback_ids.push_back(i);
        }
        std::sort(fallback_ids.begin(), fallback_ids.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                    return clusters[x].order_key < clusters[y].order_key;
                  });
      }
      MLSC_CHECK(fallback_ids.size() >= 2, "fewer than two clusters alive");
      fallback_pos = smallest_adjacent_pair(
          fallback_ids.size(),
          [&](std::size_t p) { return clusters[fallback_ids[p]].iterations; });
      pick.u = std::min(fallback_ids[fallback_pos],
                        fallback_ids[fallback_pos + 1]);
      pick.v = std::max(fallback_ids[fallback_pos],
                        fallback_ids[fallback_pos + 1]);
    }
    const std::uint32_t a = pick.u;
    const std::uint32_t b = pick.v;

    MLSC_DEBUG("cluster merge: "
               << b << " -> " << a
               << (found ? " (shared-data score " : " (zero-sharing fallback")
               << (found ? std::to_string(pick.score) : std::string())
               << "), " << clusters[a].members.size() << "+"
               << clusters[b].members.size() << " members, "
               << alive_count - 1 << " clusters left");
    clusters[a].absorb(std::move(clusters[b]));
    alive[b] = false;
    ++version[a];  // invalidates a's old index entries
    --alive_count;

    if (alive_count <= target) break;
    if (!found) {
      // The merged cluster takes the pair's slot (its order_key is the
      // pair's minimum, i.e. the key already at fallback_pos).  No
      // re-scoring: the heap is permanently dry in fallback mode.
      fallback_ids[fallback_pos] = a;
      fallback_ids.erase(fallback_ids.begin() + fallback_pos + 1);
      continue;
    }

    // Rescore the merged cluster against every partner (its tag now
    // holds both halves' counts) and repair the entries that named it.
    // a leaves the heap while its key is rebuilt, so the partners'
    // re-sifts below never compare against a half-built key.
    heap.erase(a);
    heap.erase(b);
    best[a] = AffinityEdge{0, a, kNone};
    stale[a] = false;
    for_each_partner(a, [&](std::uint32_t c, double score) {
      if (c > a) {
        offer(best[a], AffinityEdge{score, a, c});
        if (best[c].v == b) stale[c] = true;  // (c, b) is gone
        return;
      }
      const AffinityEdge e{score, c, a};
      if (best[c].v == kNone || !edge_better(best[c], e)) {
        best[c] = e;  // ranks at or above the old best or bound: exact
        stale[c] = false;
        heap.update(c);
      } else if (best[c].v == a || best[c].v == b) {
        stale[c] = true;
      }
    });
    heap.update(a);
    index_cluster(a);  // re-index under the new version
  }

  std::vector<Cluster> survivors;
  survivors.reserve(target);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (alive[i]) survivors.push_back(std::move(clusters[i]));
  }
  clusters = std::move(survivors);
}

// Affinity-forest kernel (DESIGN.md §15): the scalable replacement for
// the greedy merge heap.  Every pair sharing data is scored by the
// affinity kernel, Borůvka rounds hook the edges into a maximum spanning
// forest, and the forest is cut to `target` components best-first
// (single-linkage semantics, balance-capped), leftovers merged
// rank-adjacent — the same fallback the greedy kernel uses.
void forest_to_count(std::vector<Cluster>& clusters, std::size_t target,
                     ThreadPool* pool, const ClusterOptions& options) {
  const std::size_t n = clusters.size();
  obs::Span span("pipeline.affinity_forest");
  span.arg("clusters", static_cast<std::uint64_t>(n));
  span.arg("target", static_cast<std::uint64_t>(target));

  obs::Span gen_span("pipeline.candidate_gen");
  gen_span.arg("clusters", static_cast<std::uint64_t>(n));
  std::vector<AffinityEdge> edges = score_clusters(clusters, pool);
  gen_span.arg("candidate_pairs", static_cast<std::uint64_t>(edges.size()));
  gen_span.end();
  MLSC_COUNTER_ADD("graph.candidate_pairs", edges.size());

  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<AffinityEdge> forest;
  forest.reserve(n > 0 ? n - 1 : 0);
  const std::size_t rounds = hook_edges(std::move(edges), parent, forest);
  span.arg("rounds", static_cast<std::uint64_t>(rounds));
  span.arg("forest_edges", static_cast<std::uint64_t>(forest.size()));

  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint64_t> iterations(n);
  for (std::uint32_t i = 0; i < n; ++i) iterations[i] = clusters[i].iterations;
  CutResult cut = cut_forest(
      std::move(forest), ids, iterations,
      [&](std::size_t i) { return clusters[i].order_key; }, target,
      options.cut_balance_slack);
  span.arg("cut_skipped", cut.skipped);

  // Materialize: members grouped by component, components emitted in
  // ascending root (== smallest member) order — the same deterministic
  // shape the greedy kernel produces.
  std::vector<std::vector<std::uint32_t>> groups(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    groups[uf_find(cut.parent, i)].push_back(i);
  }
  std::vector<Cluster> result;
  result.reserve(target);
  for (std::uint32_t root = 0; root < n; ++root) {
    if (groups[root].empty()) continue;
    Cluster merged = std::move(clusters[groups[root].front()]);
    for (std::size_t m = 1; m < groups[root].size(); ++m) {
      merged.absorb(std::move(clusters[groups[root][m]]));
    }
    result.push_back(std::move(merged));
  }
  MLSC_CHECK(result.size() == target,
             "affinity forest produced " << result.size()
                                         << " clusters, wanted " << target);
  clusters = std::move(result);
}

/// Splits one cluster into two of roughly equal iteration counts.  A
/// multi-member cluster is split by members (greedy first-fit descending,
/// keeping shared-data members together is secondary to balance here,
/// mirroring Fig. 5 which only splits for count, not affinity).  A
/// single-member cluster splits its iteration chunk in half, growing the
/// chunk table.
std::pair<Cluster, Cluster> split_cluster(Cluster cluster,
                                          std::vector<IterationChunk>& chunks) {
  Cluster left;
  Cluster right;
  if (cluster.members.size() == 1) {
    const std::uint32_t original = cluster.members.front();
    MLSC_CHECK(chunks[original].iterations >= 2,
               "cannot split a single-iteration chunk");
    auto [head, tail] =
        split_chunk(chunks[original], chunks[original].iterations / 2);
    chunks[original] = std::move(head);
    chunks.push_back(std::move(tail));
    left.add_member(original, chunks[original]);
    right.add_member(static_cast<std::uint32_t>(chunks.size() - 1),
                     chunks.back());
    return {std::move(left), std::move(right)};
  }

  std::sort(cluster.members.begin(), cluster.members.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (chunks[x].iterations != chunks[y].iterations) {
                return chunks[x].iterations > chunks[y].iterations;
              }
              return x < y;
            });
  for (std::uint32_t member : cluster.members) {
    Cluster& smaller = left.iterations <= right.iterations ? left : right;
    smaller.add_member(member, chunks[member]);
  }
  return {std::move(left), std::move(right)};
}

}  // namespace

void cluster_to_count(std::vector<Cluster>& clusters, std::size_t target,
                      std::vector<IterationChunk>& chunks,
                      ThreadPool* pool, const ClusterOptions& options) {
  MLSC_CHECK(target >= 1, "target cluster count must be at least 1");
  MLSC_CHECK(!clusters.empty(), "cannot cluster an empty set");

  obs::Span span("pipeline.clustering");
  span.arg("input_clusters", static_cast<std::uint64_t>(clusters.size()));
  span.arg("target", static_cast<std::uint64_t>(target));
  MLSC_COUNTER_INC("pipeline.clustering_calls");

  if (clusters.size() > target) {
    const bool use_forest =
        options.algorithm == ClusterOptions::Algorithm::kForest ||
        (options.algorithm == ClusterOptions::Algorithm::kAuto &&
         clusters.size() >= options.forest_threshold);
    if (use_forest) {
      forest_to_count(clusters, target, pool, options);
    } else {
      merge_to_count(clusters, target, pool);
    }
  }
  while (clusters.size() < target) {
    // Select the largest cluster (by iterations) and break it in two.
    std::size_t largest = 0;
    for (std::size_t i = 1; i < clusters.size(); ++i) {
      if (clusters[i].iterations > clusters[largest].iterations) largest = i;
    }
    MLSC_CHECK(clusters[largest].iterations >= 2,
               "not enough iterations to form " << target << " clusters");
    auto [left, right] = split_cluster(std::move(clusters[largest]), chunks);
    clusters[largest] = std::move(left);
    clusters.push_back(std::move(right));
  }
}

}  // namespace mlsc::core
