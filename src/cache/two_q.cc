// Simplified 2Q (Johnson & Shasha): new chunks enter a FIFO probation
// queue (A1in, 25% of capacity); a re-reference after eviction into the
// ghost queue (A1out, ids only, 50% of capacity) promotes the chunk to
// the main LRU queue (Am).  Hits in A1in leave the chunk in place, as in
// the original algorithm.
#include <algorithm>

#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

enum : std::size_t { kA1in, kAm, kA1out };

class TwoQPolicy final : public SlotPolicy {
 public:
  explicit TwoQPolicy(std::size_t capacity)
      : SlotPolicy(PolicyKind::kTwoQ, capacity, ghost_bound(capacity),
                   /*resident_lists=*/2, /*ghost_lists=*/1),
        a1in_capacity_(std::max<std::size_t>(1, capacity / 4)) {}

  bool touch(ChunkId id) override {
    const Slot slot = lists_.find(id);
    if (!resident(slot)) return false;
    // Hits in A1in do not reorder (2Q's "correlated reference" rule).
    if (lists_.list_of(slot) == kAm) lists_.move_front(slot, kAm);
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    // A ghost hit promotes into Am.  The ghost entry leaves first, so
    // make_room() trims A1out without counting it.
    const Slot ghost = lists_.find(id);
    if (ghost != kNone) lists_.remove(ghost);
    const auto evicted = make_room();
    lists_.push_front(ghost != kNone ? kAm : kA1in, id);
    return evicted;
  }

 private:
  static std::size_t ghost_bound(std::size_t capacity) {
    return std::max<std::size_t>(1, capacity / 2);
  }

  /// Frees one resident slot if at capacity; returns the evicted chunk.
  std::optional<ChunkId> make_room() {
    if (size() < capacity()) return std::nullopt;
    if (lists_.size(kA1in) <= a1in_capacity_ && lists_.size(kAm) != 0) {
      return lists_.pop_back(kAm);
    }
    // Reclaim from A1in: the victim's id is remembered in the ghost.
    const Slot victim = lists_.back(kA1in);
    lists_.move_front(victim, kA1out);
    if (lists_.size(kA1out) > ghost_bound(capacity())) {
      lists_.remove(lists_.back(kA1out));
    }
    return lists_.chunk(victim);
  }

  std::size_t a1in_capacity_;
};

}  // namespace

std::unique_ptr<PolicyCore> make_two_q_policy(std::size_t capacity) {
  return std::make_unique<TwoQPolicy>(capacity);
}

}  // namespace mlsc::cache
