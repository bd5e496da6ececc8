#include "core/tag.h"

#include <algorithm>

#include "support/check.h"

namespace mlsc::core {

ChunkTag ChunkTag::from_bits(std::vector<std::uint32_t> bits) {
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  ChunkTag tag;
  tag.bits_ = std::move(bits);
  return tag;
}

bool ChunkTag::test(std::uint32_t pos) const {
  return std::binary_search(bits_.begin(), bits_.end(), pos);
}

std::size_t ChunkTag::common_bits(const ChunkTag& other) const {
  // Skewed sizes: galloping search of the small side into the large one,
  // O(|small| log |large|) instead of O(|small| + |large|).  The dense
  // word-level path lives in DynamicBitset::and_count; the similarity
  // graph densifies tags and uses it when the tag width is modest.
  const std::vector<std::uint32_t>* small = &bits_;
  const std::vector<std::uint32_t>* large = &other.bits_;
  if (small->size() > large->size()) std::swap(small, large);
  if (small->empty()) return 0;
  if (large->size() / small->size() >= 8) {
    std::size_t count = 0;
    auto from = large->begin();
    for (std::uint32_t bit : *small) {
      from = std::lower_bound(from, large->end(), bit);
      if (from == large->end()) break;
      if (*from == bit) {
        ++count;
        ++from;
      }
    }
    return count;
  }

  std::size_t count = 0;
  auto a = bits_.begin();
  auto b = other.bits_.begin();
  while (a != bits_.end() && b != other.bits_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

std::size_t ChunkTag::hamming_distance(const ChunkTag& other) const {
  const std::size_t common = common_bits(other);
  return (bits_.size() - common) + (other.bits_.size() - common);
}

ChunkTag ChunkTag::merged_with(const ChunkTag& other) const {
  std::vector<std::uint32_t> merged;
  merged.reserve(bits_.size() + other.bits_.size());
  std::merge(bits_.begin(), bits_.end(), other.bits_.begin(),
             other.bits_.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  ChunkTag tag;
  tag.bits_ = std::move(merged);
  return tag;
}

std::size_t ChunkTag::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t b : bits_) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::string ChunkTag::to_string(std::size_t r) const {
  std::string out(r, '0');
  for (std::uint32_t b : bits_) {
    MLSC_CHECK(b < r, "tag bit " << b << " outside width " << r);
    out[b] = '1';
  }
  return out;
}

DynamicBitset ChunkTag::to_bitset(std::size_t r) const {
  DynamicBitset set(r);
  for (std::uint32_t b : bits_) set.set(b);
  return set;
}

namespace {

bool pos_less(const ClusterTag::Entry& e, std::uint32_t pos) {
  return e.pos < pos;
}

/// The first entry at or after `from` whose position is not below `pos`.
/// Binary search when the probing side is much narrower than the
/// entries (`skewed`), a linear step otherwise.
std::vector<ClusterTag::Entry>::iterator seek(
    std::vector<ClusterTag::Entry>::iterator from,
    std::vector<ClusterTag::Entry>::iterator end, std::uint32_t pos,
    bool skewed) {
  if (skewed) return std::lower_bound(from, end, pos, pos_less);
  while (from != end && from->pos < pos) ++from;
  return from;
}

/// Adds `count_of(i)` at position `pos_of(i)` for each of `n` ascending
/// positions, in place: counts at positions already present are bumped
/// in one forward pass; only when some position is new does the vector
/// grow, and a backward merge then opens each gap exactly once.
template <class PosOf, class CountOf>
void add_sorted(std::vector<ClusterTag::Entry>& entries, std::size_t n,
                const PosOf& pos_of, const CountOf& count_of) {
  const bool skewed = n != 0 && entries.size() / n >= 8;
  std::size_t missing = 0;
  auto from = entries.begin();
  for (std::size_t i = 0; i < n; ++i) {
    from = seek(from, entries.end(), pos_of(i), skewed);
    if (from != entries.end() && from->pos == pos_of(i)) {
      (from++)->count += count_of(i);
    } else {
      ++missing;
    }
  }
  if (missing == 0) return;
  std::size_t read = entries.size();
  std::size_t write = read + missing;
  std::size_t next = n;  // positions [0, next) not yet placed
  entries.resize(write);
  while (write > read) {
    const std::uint32_t pos = pos_of(next - 1);
    if (read > 0 && entries[read - 1].pos >= pos) {
      if (entries[read - 1].pos == pos) --next;  // already bumped above
      entries[--write] = entries[--read];
    } else {
      entries[--write] = ClusterTag::Entry{pos, count_of(next - 1)};
      --next;
    }
  }
}

}  // namespace

void ClusterTag::add(const ChunkTag& tag) {
  const auto& bits = tag.bits();
  add_sorted(
      entries_, bits.size(), [&](std::size_t i) { return bits[i]; },
      [](std::size_t) { return std::uint32_t{1}; });
}

void ClusterTag::add(const ClusterTag& other) {
  const auto& more = other.entries_;
  add_sorted(
      entries_, more.size(), [&](std::size_t i) { return more[i].pos; },
      [&](std::size_t i) { return more[i].count; });
}

void ClusterTag::remove(const ChunkTag& tag) {
  const bool skewed =
      !tag.bits().empty() && entries_.size() / tag.bits().size() >= 8;
  auto first_empty = entries_.end();
  auto e = entries_.begin();
  for (std::uint32_t b : tag.bits()) {
    e = seek(e, entries_.end(), b, skewed);
    MLSC_CHECK(e != entries_.end() && e->pos == b && e->count > 0,
               "removing tag bit " << b << " not present in cluster tag");
    if (--e->count == 0 && first_empty == entries_.end()) first_empty = e;
    ++e;
  }
  // Compact only from the first emptied entry on, and only if one was.
  entries_.erase(std::remove_if(first_empty, entries_.end(),
                                [](const Entry& entry) {
                                  return entry.count == 0;
                                }),
                 entries_.end());
}

std::uint64_t ClusterTag::dot(const ClusterTag& other) const {
  std::uint64_t total = 0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->pos < b->pos) {
      ++a;
    } else if (b->pos < a->pos) {
      ++b;
    } else {
      total += static_cast<std::uint64_t>(a->count) * b->count;
      ++a;
      ++b;
    }
  }
  return total;
}

std::uint64_t ClusterTag::dot(const ChunkTag& tag) const {
  // This is the load balancer's candidate-scoring inner loop.  A big
  // cluster tag probed by a narrow chunk tag is the common case, so
  // gallop (binary search per probe bit) when the sizes are skewed.
  if (!tag.bits().empty() && entries_.size() / tag.bits().size() >= 8) {
    std::uint64_t total = 0;
    auto from = entries_.begin();
    for (std::uint32_t b : tag.bits()) {
      from = std::lower_bound(
          from, entries_.end(), b,
          [](const Entry& e, std::uint32_t p) { return e.pos < p; });
      if (from == entries_.end()) break;
      if (from->pos == b) total += (from++)->count;
    }
    return total;
  }

  std::uint64_t total = 0;
  auto e = entries_.begin();
  for (std::uint32_t b : tag.bits()) {
    while (e != entries_.end() && e->pos < b) ++e;
    if (e == entries_.end()) break;
    if (e->pos == b) total += e->count;
  }
  return total;
}

std::vector<std::uint32_t> ClusterTag::positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.pos);
  return out;
}

std::uint64_t ClusterTag::count_at(std::uint32_t pos) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pos,
      [](const Entry& e, std::uint32_t p) { return e.pos < p; });
  if (it == entries_.end() || it->pos != pos) return 0;
  return it->count;
}

}  // namespace mlsc::core
