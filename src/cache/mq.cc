// Multi-Queue (MQ) policy core, after Zhou, Philbin & Li (USENIX ATC'01),
// who designed it for exactly the second-level buffer caches this library
// simulates.  Blocks live in m LRU queues; queue index = floor(log2(freq))
// capped at m-1.  Blocks expire to the next lower queue after lifeTime
// accesses without a reference.  A ghost history (Qout, 4x capacity)
// remembers the frequency of recently evicted blocks so they re-enter at
// full rank.
#include <algorithm>
#include <vector>

#include "cache/slot_lists.h"

namespace mlsc::cache {
namespace {

constexpr std::size_t kNumQueues = 8;
constexpr std::size_t kQout = kNumQueues;  // the ghost list

class MqPolicy final : public SlotPolicy {
 public:
  explicit MqPolicy(std::size_t capacity)
      : SlotPolicy(PolicyKind::kMq, capacity, /*ghost_slots=*/4 * capacity,
                   /*resident_lists=*/kNumQueues, /*ghost_lists=*/1),
        // Zhou et al. recommend lifeTime on the order of the temporal
        // distance between correlated accesses; capacity is a serviceable
        // default for a trace-driven simulator.
        life_time_(std::max<std::uint64_t>(64, capacity)),
        freq_(lists_.slots()),
        expire_(lists_.slots()) {}

  bool touch(ChunkId id) override {
    ++now_;
    check_expiration();
    const Slot slot = lists_.find(id);
    if (!resident(slot)) return false;
    ++freq_[slot];
    expire_[slot] = now_ + life_time_;
    lists_.move_front(slot, queue_for(freq_[slot]));  // front = MRU
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    std::optional<ChunkId> evicted;
    if (size() == capacity()) evicted = evict();
    // Looked up after evict(), which may age this chunk's ghost out.
    Slot slot = lists_.find(id);
    if (slot != kNone) {
      ++freq_[slot];  // a ghost re-enters one above its remembered rank
      lists_.move_front(slot, queue_for(freq_[slot]));
    } else {
      slot = lists_.push_front(queue_for(1), id);
      freq_[slot] = 1;
    }
    expire_[slot] = now_ + life_time_;
    return evicted;
  }

 private:
  static std::size_t queue_for(std::uint64_t freq) {
    std::size_t q = 0;
    while (freq > 1 && q + 1 < kNumQueues) {
      freq >>= 1;
      ++q;
    }
    return q;
  }

  /// Demotes the LRU block of each queue whose lifetime expired.
  void check_expiration() {
    for (std::size_t q = 1; q < kNumQueues; ++q) {
      const Slot tail = lists_.back(q);
      if (tail == kNone || expire_[tail] >= now_) continue;
      expire_[tail] = now_ + life_time_;
      lists_.move_front(tail, q - 1);
    }
  }

  /// Evicts the LRU block of the lowest non-empty queue into Qout; the
  /// slot keeps its frequency.
  ChunkId evict() {
    std::size_t q = 0;
    while (lists_.size(q) == 0) ++q;
    const Slot victim = lists_.back(q);
    lists_.move_front(victim, kQout);
    if (lists_.size(kQout) > 4 * capacity()) {
      lists_.remove(lists_.back(kQout));
    }
    return lists_.chunk(victim);
  }

  std::uint64_t life_time_;
  std::uint64_t now_ = 0;
  std::vector<std::uint64_t> freq_;    // by slot
  std::vector<std::uint64_t> expire_;  // by slot
};

}  // namespace

std::unique_ptr<PolicyCore> make_mq_policy(std::size_t capacity) {
  return std::make_unique<MqPolicy>(capacity);
}

}  // namespace mlsc::cache
