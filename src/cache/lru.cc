// LRU and FIFO policy cores: one recency list; FIFO simply never
// reorders on hit.
#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

class ListPolicy final : public SlotPolicy {
 public:
  ListPolicy(std::size_t capacity, PolicyKind kind)
      : SlotPolicy(kind, capacity, /*ghost_slots=*/0, /*resident_lists=*/1,
                   /*ghost_lists=*/0) {}

  bool touch(ChunkId id) override {
    const Slot slot = lists_.find(id);
    if (slot == kNone) return false;
    if (kind() == PolicyKind::kLru) lists_.move_front(slot, 0);
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    std::optional<ChunkId> evicted;
    if (size() == capacity()) evicted = lists_.pop_back(0);
    lists_.push_front(0, id);  // front = most recently inserted/used
    return evicted;
  }
};

}  // namespace

std::unique_ptr<PolicyCore> make_lru_policy(std::size_t capacity) {
  return std::make_unique<ListPolicy>(capacity, PolicyKind::kLru);
}

std::unique_ptr<PolicyCore> make_fifo_policy(std::size_t capacity) {
  return std::make_unique<ListPolicy>(capacity, PolicyKind::kFifo);
}

}  // namespace mlsc::cache
