// The affinity kernel (paper §4.3 and Fig. 5; DESIGN.md §15): the one
// implementation of chunk similarity that both the offline clustering
// stage (core/clustering) and the online service (serve/state) call.
//
//   - PostingIndex: data chunk -> ids of the rows that touch it,
//     ascending.  Only rows sharing a posting can have a nonzero dot
//     product, so scoring walks the index instead of all pairs.
//   - score_rows: scores each row a against the posted ids b < a; the
//     edge weight is dot(a, b) / (|a| * |b|) — popcount(Λa ∧ Λb) for
//     single chunks, average linkage for clusters.  Zero-weight pairs
//     get no edge.
//   - edge_better: the strict (score desc, u asc, v asc) total order
//     every selection below breaks ties with.
//   - uf_find / uf_union: union-find whose component root is always the
//     smallest member id.
//   - hook_edges: Borůvka rounds that hook edges into a union-find
//     (every component picks its best incident edge, picks are hooked
//     in ascending root order); the hooked edges form a maximum
//     spanning forest under edge_better.
//   - cut_forest: replays a forest best-first, skipping merges that
//     would grow a component past (1 + slack) x its fair share, then
//     merges leftover components rank-adjacent, smallest combined size
//     first, down to the target count.
//
// Every result is independent of thread count and of edge order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/thread_pool.h"

namespace mlsc::core {

/// One scored similarity edge between rows u < v.
struct AffinityEdge {
  double score = 0;
  std::uint32_t u = 0;
  std::uint32_t v = 0;

  bool operator==(const AffinityEdge& other) const = default;
};

/// True when x ranks before y: higher score, then smaller u, then smaller
/// v.  A strict total order over distinct edges.
bool edge_better(const AffinityEdge& x, const AffinityEdge& y);

/// Union-find with path compression; a union attaches the larger root
/// under the smaller, so a component's root is its smallest member.
std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t x);
/// Joins the components of a and b; false when they were already one.
bool uf_union(std::vector<std::uint32_t>& parent, std::uint32_t a,
              std::uint32_t b);

/// One data chunk a row touches, and how many of the row's members touch
/// it (1 for a single iteration chunk).
struct PostedKey {
  std::uint64_t key = 0;
  std::uint32_t count = 1;
};

/// Data-chunk posting index over dense keys (data chunk numbers).  A row
/// posted with count c under a key appears c times in that key's list,
/// so a posting entry is just the row id.
class PostingIndex {
 public:
  /// Appends `id` to the key's list; ids must arrive in ascending order.
  void post(std::uint64_t key, std::uint32_t id, std::uint32_t count = 1);
  /// Removes every posting of `id` under `key` (which must hold it).
  void erase(std::uint64_t key, std::uint32_t id);
  /// The key's ids, ascending; null when nothing is posted there.
  const std::vector<std::uint32_t>* find(std::uint64_t key) const;
  /// Every list, indexed by key; empty where nothing is posted.
  const std::vector<std::vector<std::uint32_t>>& lists() const {
    return lists_;
  }

 private:
  std::vector<std::vector<std::uint32_t>> lists_;
};

/// Fills `out` with the posted keys of one row (called concurrently).
using RowKeys =
    std::function<void(std::uint32_t row, std::vector<PostedKey>& out)>;

/// Scores every row a in `rows` against the ids b < a posted in `index`:
/// one edge {dot / (size[a] * size[b]), b, a} per pair with a nonzero
/// dot product (`sizes` empty = every size 1).  Edges come out grouped
/// by row in `rows` order; the result is the same at any thread count.
std::vector<AffinityEdge> score_rows(const PostingIndex& index,
                                     std::span<const std::uint32_t> rows,
                                     const RowKeys& keys_of,
                                     std::span<const std::uint32_t> sizes,
                                     ThreadPool* pool);

/// Borůvka rounds hooking `edges` into `parent`: each round drops the
/// edges inside one component, every component left picks its best edge
/// under edge_better, and the picks are hooked in ascending root order
/// and appended to `forest`.  Work is proportional to the edges.
/// Returns the number of rounds.
std::size_t hook_edges(std::vector<AffinityEdge> edges,
                       std::vector<std::uint32_t>& parent,
                       std::vector<AffinityEdge>& forest);

/// The leftover merge rule: the position p of the rank-adjacent pair
/// (p, p + 1) with the smallest combined size (the first on ties), among
/// `count` components in rank order; size_at(p) is component p's size.
template <class SizeAt>
std::size_t smallest_adjacent_pair(std::size_t count, const SizeAt& size_at) {
  std::size_t pos = 0;
  std::uint64_t best = UINT64_MAX;
  for (std::size_t p = 0; p + 1 < count; ++p) {
    const std::uint64_t combined = size_at(p) + size_at(p + 1);
    if (combined < best) {
      best = combined;
      pos = p;
    }
  }
  return pos;
}

struct CutResult {
  /// Union-find over ids up to the largest listed one: every listed id's
  /// root names its component (the component's smallest id).
  std::vector<std::uint32_t> parent;
  /// Forest edges the balance cap skipped.
  std::uint64_t skipped = 0;
};

/// Rank of ids[i] for the leftover merge; called only when one is needed.
using OrderKeyOf = std::function<std::uint64_t(std::size_t i)>;

/// Cuts `forest` (edges over `ids`, ascending) to `target` components.
/// iterations[i] and order_key_of(i) belong to ids[i].  The edges are
/// replayed best-first; with slack >= 0 a merge that would push a
/// component above (1 + slack) * total / target iterations is skipped.
/// Components still in excess are merged rank-adjacent by order key,
/// the pair with the smallest combined iterations first.
CutResult cut_forest(std::vector<AffinityEdge> forest,
                     std::span<const std::uint32_t> ids,
                     std::span<const std::uint64_t> iterations,
                     const OrderKeyOf& order_key_of, std::size_t target,
                     double slack);

}  // namespace mlsc::core
