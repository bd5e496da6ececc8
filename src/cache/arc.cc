// ARC (Adaptive Replacement Cache, Megiddo & Modha) policy core — the
// adaptive recency/frequency family the paper's related work samples
// with SARC [20].  Two resident LRU lists (T1: seen once, T2: seen
// again) plus two ghost lists (B1, B2) steer the adaptation target p.
// |T1| + |B1| <= c and all four lists together hold at most 2c.
#include <algorithm>

#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

enum : std::size_t { kT1, kT2, kB1, kB2 };

class ArcPolicy final : public SlotPolicy {
 public:
  explicit ArcPolicy(std::size_t capacity)
      : SlotPolicy(PolicyKind::kArc, capacity, /*ghost_slots=*/capacity,
                   /*resident_lists=*/2, /*ghost_lists=*/2) {}

  bool touch(ChunkId id) override {
    const Slot slot = lists_.find(id);
    if (!resident(slot)) return false;
    // A second reference promotes T1 to the frequency list T2.
    lists_.move_front(slot, kT2);
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    const std::size_t c = capacity();
    const Slot ghost = lists_.find(id);
    if (ghost != kNone) {
      // Ghost hit: B1 favours recency (grow p), B2 frequency (shrink p);
      // either way the chunk re-enters in T2.
      const bool in_b2 = lists_.list_of(ghost) == kB2;
      const std::size_t b1 = lists_.size(kB1);
      const std::size_t b2 = lists_.size(kB2);
      if (in_b2) {
        const std::size_t delta =
            std::max<std::size_t>(1, b1 / std::max<std::size_t>(1, b2));
        p_ = p_ > delta ? p_ - delta : 0;
      } else {
        p_ = std::min(c, p_ + std::max<std::size_t>(
                                  1, b2 / std::max<std::size_t>(1, b1)));
      }
      lists_.remove(ghost);
      const auto evicted = replace(in_b2);
      lists_.push_front(kT2, id);
      return evicted;
    }

    // Brand new chunk.
    std::optional<ChunkId> evicted;
    const std::size_t t1 = lists_.size(kT1);
    if (t1 + lists_.size(kB1) == c) {
      if (t1 < c) {
        drop_ghost(kB1);
        evicted = replace(false);
      } else {
        evicted = lists_.pop_back(kT1);  // B1 empty: evict T1's LRU
      }
    } else if (lists_.used() >= c) {
      if (lists_.used() >= 2 * c) drop_ghost(kB2);
      if (size() == c) evicted = replace(false);
    }
    lists_.push_front(kT1, id);
    return evicted;
  }

 private:
  void drop_ghost(std::size_t ghost) {
    if (lists_.size(ghost) != 0) lists_.remove(lists_.back(ghost));
  }

  ChunkId demote(std::size_t from, std::size_t ghost) {
    const Slot victim = lists_.back(from);
    MLSC_CHECK(victim != kNone, "ARC replace on an empty list");
    lists_.move_front(victim, ghost);
    return lists_.chunk(victim);
  }

  /// ARC's REPLACE: evict from T1 into B1 when T1 exceeds the target p
  /// (or on a B2 hit at the boundary), else from T2 into B2.
  std::optional<ChunkId> replace(bool in_b2) {
    if (size() < capacity()) return std::nullopt;
    const std::size_t t1 = lists_.size(kT1);
    if (t1 != 0 && (t1 > p_ || (in_b2 && t1 == p_))) return demote(kT1, kB1);
    if (lists_.size(kT2) != 0) return demote(kT2, kB2);
    return demote(kT1, kB1);
  }

  std::size_t p_ = 0;  // adaptation target for |T1|
};

}  // namespace

std::unique_ptr<PolicyCore> make_arc_policy(std::size_t capacity) {
  return std::make_unique<ArcPolicy>(capacity);
}

}  // namespace mlsc::cache
