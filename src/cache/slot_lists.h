// The list kernel every replacement policy core is built on.
//
// Each policy holds the same thing: a few ordered lists of chunk ids
// (resident queues, ghost histories, frequency buckets) plus a chunk ->
// position index.  SlotLists keeps them in one fixed pool of slots sized
// at construction to the policy's resident capacity plus its ghost bound,
// so memory depends on the cache size, never on how many chunks the
// workload names.  A slot carries one chunk id and its links; policies
// keep any extra per-chunk state (MQ's frequency, CLOCK's reference bit)
// in their own vectors indexed by slot.
//
// The index is open addressing over a power of two >= 2x the slots with
// linear probing and backward-shift deletion: no growth, no tombstones.
// Lists are intrusive, circular and doubly linked over slot ids, with
// one sentinel per list so linking never branches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/policy.h"
#include "support/check.h"

namespace mlsc::cache {

class SlotLists {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNone = static_cast<Slot>(-1);

  SlotLists(std::size_t slots, std::size_t lists)
      : chunk_(slots),
        list_(slots),
        prev_(slots + lists),
        next_(slots + lists),
        size_(lists, 0) {
    MLSC_CHECK(slots + lists < kNone, "slot pool too large: " << slots);
    for (std::size_t l = 0; l < lists; ++l) {
      prev_[sentinel(l)] = next_[sentinel(l)] = sentinel(l);
    }
    std::size_t buckets = 2;
    int bits = 1;
    for (; buckets < 2 * slots; buckets *= 2) ++bits;
    index_.assign(buckets, Bucket{0, kNone});
    shift_ = 64 - bits;
  }

  std::size_t slots() const { return chunk_.size(); }
  std::size_t lists() const { return size_.size(); }
  /// Slots linked into some list.
  std::size_t used() const { return fresh_ - free_.size(); }
  std::size_t size(std::size_t list) const { return size_[list]; }
  ChunkId chunk(Slot slot) const { return chunk_[slot]; }
  std::size_t list_of(Slot slot) const { return list_[slot]; }

  /// The chunk's slot, or kNone.
  Slot find(ChunkId id) const {
    for (std::size_t b = home(id);; b = (b + 1) & mask()) {
      if (index_[b].slot == kNone || index_[b].chunk == id) {
        return index_[b].slot;
      }
    }
  }

  /// Indexes an absent chunk in the lowest-numbered free slot and links
  /// it at the front of `list`.
  Slot push_front(std::size_t list, ChunkId id) {
    const Slot slot = take_free();
    chunk_[slot] = id;
    std::size_t b = home(id);
    while (index_[b].slot != kNone) b = (b + 1) & mask();
    index_[b] = Bucket{id, slot};
    link_front(slot, list);
    return slot;
  }

  void move_front(Slot slot, std::size_t list) {
    unlink(slot);
    link_front(slot, list);
  }

  /// The list's last slot, or kNone when it is empty.
  Slot back(std::size_t list) const {
    const Slot tail = prev_[sentinel(list)];
    return tail < slots() ? tail : kNone;
  }

  /// Unlinks and unindexes a slot and returns it to the pool.
  void remove(Slot slot) {
    unlink(slot);
    std::size_t hole = home(chunk_[slot]);
    while (index_[hole].slot != slot) hole = (hole + 1) & mask();
    // Backward shift: pull each later entry of the probe run into the
    // hole unless the hole lies before its home.
    for (std::size_t b = (hole + 1) & mask(); index_[b].slot != kNone;
         b = (b + 1) & mask()) {
      if (((b - home(index_[b].chunk)) & mask()) >= ((b - hole) & mask())) {
        index_[hole] = index_[b];
        hole = b;
      }
    }
    index_[hole].slot = kNone;
    free_.push_back(slot);
    std::push_heap(free_.begin(), free_.end(), std::greater<>());
  }

  /// Removes the list's last chunk and returns it; the list must be
  /// non-empty.
  ChunkId pop_back(std::size_t list) {
    const Slot tail = back(list);
    MLSC_CHECK(tail != kNone, "pop_back on an empty list");
    const ChunkId id = chunk_[tail];
    remove(tail);
    return id;
  }

 private:
  struct Bucket {
    ChunkId chunk;
    Slot slot;  // kNone: empty
  };

  Slot sentinel(std::size_t list) const {
    return static_cast<Slot>(slots() + list);
  }
  std::size_t mask() const { return index_.size() - 1; }
  std::size_t home(ChunkId id) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Lowest free slot: the smallest released one, else the next never
  /// used one (released slots are always below fresh_).  O(1) while a
  /// pool fills, O(log r) with r released slots outstanding.
  Slot take_free() {
    if (free_.empty()) {
      MLSC_CHECK(fresh_ < slots(), "slot pool exhausted");
      return fresh_++;
    }
    std::pop_heap(free_.begin(), free_.end(), std::greater<>());
    const Slot slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void link_front(Slot slot, std::size_t list) {
    const Slot head = sentinel(list);
    const Slot first = next_[head];
    prev_[slot] = head;
    next_[slot] = first;
    prev_[first] = slot;
    next_[head] = slot;
    list_[slot] = static_cast<Slot>(list);
    ++size_[list];
  }

  void unlink(Slot slot) {
    next_[prev_[slot]] = next_[slot];
    prev_[next_[slot]] = prev_[slot];
    --size_[list_[slot]];
  }

  std::vector<ChunkId> chunk_;   // by slot
  std::vector<Slot> list_;       // by slot
  std::vector<Slot> prev_;       // by slot, then one sentinel per list
  std::vector<Slot> next_;
  std::vector<std::size_t> size_;  // by list
  std::vector<Bucket> index_;
  int shift_ = 0;
  Slot fresh_ = 0;           // slots >= fresh_ were never used
  std::vector<Slot> free_;   // released slots, a min-heap
};

/// Shared base of the policy cores: lists [0, resident_lists) hold the
/// resident chunks, the lists after them ghosts (ids only).  A policy
/// adds only its rule: where hits and ghost hits move, which tail is the
/// victim.
class SlotPolicy : public PolicyCore {
 public:
  bool contains(ChunkId id) const final { return resident(lists_.find(id)); }

  bool erase(ChunkId id) final {
    const Slot slot = lists_.find(id);
    if (!resident(slot)) return false;
    drop(slot);
    return true;
  }

  std::size_t size() const final {
    std::size_t ghosts = 0;
    for (std::size_t l = resident_lists_; l < lists_.lists(); ++l) {
      ghosts += lists_.size(l);
    }
    return lists_.used() - ghosts;
  }

  std::size_t capacity() const final { return capacity_; }
  PolicyKind kind() const final { return kind_; }

 protected:
  using Slot = SlotLists::Slot;
  static constexpr Slot kNone = SlotLists::kNone;

  SlotPolicy(PolicyKind kind, std::size_t capacity, std::size_t ghost_slots,
             std::size_t resident_lists, std::size_t ghost_lists)
      : lists_(capacity + ghost_slots, resident_lists + ghost_lists),
        kind_(kind),
        capacity_(capacity),
        resident_lists_(resident_lists) {
    MLSC_CHECK(capacity_ > 0, "cache capacity must be positive");
  }

  bool resident(Slot slot) const {
    return slot != kNone && lists_.list_of(slot) < resident_lists_;
  }

  /// Removes a resident chunk (erase); LFU also retires its bucket.
  virtual void drop(Slot slot) { lists_.remove(slot); }

  SlotLists lists_;

 private:
  PolicyKind kind_;
  std::size_t capacity_;
  std::size_t resident_lists_;
};

}  // namespace mlsc::cache
