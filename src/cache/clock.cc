// CLOCK (second-chance) policy core: a circular buffer of frames with
// reference bits; the hand sweeps past referenced frames, clearing them.
// Frame = slot: the pool hands out the lowest-numbered empty frame (the
// next unused one while warming, the lowest erased one after erase(),
// the victim's own frame when full), so a fill costs O(1) while warming.
#include <vector>

#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

class ClockPolicy final : public SlotPolicy {
 public:
  explicit ClockPolicy(std::size_t capacity)
      : SlotPolicy(PolicyKind::kClock, capacity, /*ghost_slots=*/0,
                   /*resident_lists=*/1, /*ghost_lists=*/0),
        referenced_(capacity, 0) {}

  bool touch(ChunkId id) override {
    const Slot frame = lists_.find(id);
    if (frame == kNone) return false;
    referenced_[frame] = 1;
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    std::optional<ChunkId> victim;
    if (size() == capacity()) {
      // Sweep the hand until an unreferenced frame is found.
      while (referenced_[hand_] != 0) {
        referenced_[hand_] = 0;
        hand_ = (hand_ + 1) % capacity();
      }
      victim = lists_.chunk(static_cast<Slot>(hand_));
      lists_.remove(static_cast<Slot>(hand_));
      hand_ = (hand_ + 1) % capacity();
    }
    referenced_[lists_.push_front(0, id)] = 1;
    return victim;
  }

 private:
  std::vector<char> referenced_;  // by frame
  std::size_t hand_ = 0;
};

}  // namespace

std::unique_ptr<PolicyCore> make_clock_policy(std::size_t capacity) {
  return std::make_unique<ClockPolicy>(capacity);
}

}  // namespace mlsc::cache
