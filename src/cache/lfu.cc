// LFU policy core with LRU tie-breaking: one list per frequency bucket
// (front = most recently used at that frequency); the victim is the tail
// of the lowest-frequency bucket.  At most `capacity` buckets are
// non-empty, plus the one a bump opens before it empties the old one.
#include <map>
#include <vector>

#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

class LfuPolicy final : public SlotPolicy {
 public:
  explicit LfuPolicy(std::size_t capacity)
      : SlotPolicy(PolicyKind::kLfu, capacity, /*ghost_slots=*/0,
                   /*resident_lists=*/capacity + 1, /*ghost_lists=*/0),
        freq_(capacity) {
    for (std::size_t list = 0; list <= capacity; ++list) spare_.push_back(list);
  }

  bool touch(ChunkId id) override {
    const Slot slot = lists_.find(id);
    if (slot == kNone) return false;
    const std::size_t from = lists_.list_of(slot);
    lists_.move_front(slot, bucket(++freq_[slot]));
    retire_if_empty(from, freq_[slot] - 1);
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    std::optional<ChunkId> evicted;
    if (size() == capacity()) {
      const Slot victim = lists_.back(buckets_.begin()->second);
      evicted = lists_.chunk(victim);
      drop(victim);
    }
    freq_[lists_.push_front(bucket(1), id)] = 1;
    return evicted;
  }

 protected:
  void drop(Slot slot) override {
    const std::size_t list = lists_.list_of(slot);
    lists_.remove(slot);
    retire_if_empty(list, freq_[slot]);
  }

 private:
  /// The list of the bucket for `freq`, opened from the spares if new.
  std::size_t bucket(std::uint64_t freq) {
    auto [it, opened] = buckets_.try_emplace(freq, 0);
    if (opened) {
      it->second = spare_.back();
      spare_.pop_back();
    }
    return it->second;
  }

  void retire_if_empty(std::size_t list, std::uint64_t freq) {
    if (lists_.size(list) != 0) return;
    buckets_.erase(freq);
    spare_.push_back(list);
  }

  std::vector<std::uint64_t> freq_;              // by slot
  std::map<std::uint64_t, std::size_t> buckets_;  // freq -> list
  std::vector<std::size_t> spare_;                // lists not in use
};

}  // namespace

std::unique_ptr<PolicyCore> make_lfu_policy(std::size_t capacity) {
  return std::make_unique<LfuPolicy>(capacity);
}

}  // namespace mlsc::cache
