// Replacement-policy tests: per-policy behaviour plus cross-policy
// invariants and an LRU reference-model property test.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_set>

#include "cache/policy.h"
#include "cache/slot_lists.h"
#include "support/check.h"
#include "support/rng.h"

namespace mlsc::cache {
namespace {

TEST(PolicyNames, RoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kClock,
        PolicyKind::kLfu, PolicyKind::kTwoQ, PolicyKind::kMq,
        PolicyKind::kArc}) {
    EXPECT_EQ(parse_policy_kind(policy_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_policy_kind("belady"), Error);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto p = make_policy(PolicyKind::kLru, 2);
  EXPECT_FALSE(p->insert(1).has_value());
  EXPECT_FALSE(p->insert(2).has_value());
  EXPECT_TRUE(p->touch(1));  // 2 is now LRU
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{2});
  EXPECT_TRUE(p->contains(1));
  EXPECT_TRUE(p->contains(3));
}

TEST(Fifo, IgnoresHitsForVictimChoice) {
  auto p = make_policy(PolicyKind::kFifo, 2);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));          // does not protect 1 under FIFO
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{1});
}

TEST(Clock, SecondChanceProtectsReferenced) {
  auto p = make_policy(PolicyKind::kClock, 2);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));
  // Hand sweeps: 1 referenced (cleared, skipped), 2 unreferenced... but 2
  // was just inserted with its bit set too; both get cleared, then 1 is
  // the first unreferenced frame.  The key property: eviction succeeds
  // and size stays at capacity.
  p->insert(3);
  EXPECT_EQ(p->size(), 2u);
  EXPECT_TRUE(p->contains(3));
}

TEST(Lfu, EvictsLeastFrequent) {
  auto p = make_policy(PolicyKind::kLfu, 2);
  p->insert(1);
  p->touch(1);
  p->touch(1);
  p->insert(2);
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{2});  // freq(2)=1 < freq(1)=3
}

TEST(TwoQ, GhostHitPromotesToMain) {
  auto p = make_policy(PolicyKind::kTwoQ, 4);  // A1in capacity 1
  p->insert(1);
  p->insert(2);
  p->insert(3);
  p->insert(4);
  // Fill past capacity: A1in reclaims oldest into the ghost queue.
  p->insert(5);
  EXPECT_EQ(p->size(), 4u);
  // Re-inserting a ghosted chunk must land it in Am (still resident after
  // further A1in churn).
  const bool was_ghosted = !p->contains(1);
  if (was_ghosted) {
    p->insert(1);
    EXPECT_TRUE(p->contains(1));
  }
}

TEST(Mq, PromotesByFrequency) {
  auto p = make_policy(PolicyKind::kMq, 3);
  p->insert(1);
  for (int i = 0; i < 8; ++i) p->touch(1);  // queue ~3
  p->insert(2);
  p->insert(3);
  // 1 is in a high queue; inserting 4 should evict from the lowest
  // non-empty queue, never 1.
  const auto evicted = p->insert(4);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_NE(*evicted, 1u);
  EXPECT_TRUE(p->contains(1));
}

TEST(Arc, AdaptsAndPromotesOnSecondReference) {
  auto p = make_policy(PolicyKind::kArc, 4);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));  // 1 promoted to T2
  p->insert(3);
  p->insert(4);
  // Cache full; a scan of new chunks should not evict the re-referenced 1.
  p->insert(5);
  p->insert(6);
  EXPECT_TRUE(p->contains(1));
}

TEST(Arc, GhostHitSteersAdaptation) {
  auto p = make_policy(PolicyKind::kArc, 2);
  p->insert(1);
  p->insert(2);
  p->insert(3);  // evicts 1 into the B1 ghost list
  EXPECT_FALSE(p->contains(1));
  p->insert(1);  // ghost hit: re-enters as a frequency block
  EXPECT_TRUE(p->contains(1));
  EXPECT_LE(p->size(), 2u);
}

TEST(Policies, RejectZeroCapacity) {
  EXPECT_THROW(make_policy(PolicyKind::kLru, 0), Error);
}

/// Cross-policy invariants on a random workload: size never exceeds
/// capacity, contains() agrees with touch(), erase removes, insert of a
/// resident chunk never evicts.
class PolicyInvariantTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyInvariantTest, RandomWorkloadInvariants) {
  const std::size_t capacity = 16;
  auto p = make_policy(GetParam(), capacity);
  Rng rng(99);
  std::unordered_set<ChunkId> resident;
  for (int step = 0; step < 5000; ++step) {
    const auto chunk = static_cast<ChunkId>(rng.next_below(64));
    const auto action = rng.next_below(10);
    if (action < 6) {
      const bool hit = p->touch(chunk);
      EXPECT_EQ(hit, resident.count(chunk) > 0);
      if (!hit) {
        const auto evicted = p->insert(chunk);
        resident.insert(chunk);
        if (evicted.has_value()) {
          EXPECT_TRUE(resident.count(*evicted) > 0);
          EXPECT_NE(*evicted, chunk);
          resident.erase(*evicted);
        }
      }
    } else if (action < 8) {
      const auto evicted = p->insert(chunk);
      if (resident.count(chunk)) {
        EXPECT_FALSE(evicted.has_value()) << "resident insert must not evict";
      } else {
        resident.insert(chunk);
        if (evicted.has_value()) resident.erase(*evicted);
      }
    } else {
      const bool erased = p->erase(chunk);
      EXPECT_EQ(erased, resident.count(chunk) > 0);
      resident.erase(chunk);
    }
    EXPECT_LE(p->size(), capacity);
    EXPECT_EQ(p->size(), resident.size());
    for (ChunkId r : resident) {
      EXPECT_TRUE(p->contains(r)) << "chunk " << r << " lost";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariantTest,
                         ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                           PolicyKind::kClock,
                                           PolicyKind::kLfu, PolicyKind::kTwoQ,
                                           PolicyKind::kMq, PolicyKind::kArc),
                         [](const auto& info) {
                           return std::string(policy_kind_name(info.param));
                         });

/// Decision fingerprint: a seeded touch/insert/erase stream over ~4x
/// capacity distinct chunks (a quarter of the picks from a hot set of
/// capacity/2 chunks, so hits, ghost hits and re-references all occur),
/// with every outcome -- hit or miss, evicted id or none, erase result,
/// size -- folded into a 64-bit FNV-1a hash.  The constants pin every
/// replacement decision of every policy bit for bit.
std::uint64_t decision_fingerprint(PolicyKind kind, std::size_t capacity) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto fold = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  };
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  auto p = make_policy(kind, capacity);
  Rng rng(0xF1A9 + capacity);
  const std::uint64_t hot = std::max<std::size_t>(1, capacity / 2);
  const std::size_t steps = 2000 + 40 * capacity;
  for (std::size_t step = 0; step < steps; ++step) {
    const auto chunk = static_cast<ChunkId>(
        rng.next_below(4) == 0 ? rng.next_below(hot)
                               : rng.next_below(4 * capacity));
    const auto action = rng.next_below(20);
    if (action < 12) {
      const bool hit = p->touch(chunk);
      fold(hit ? 1 : 0);
      if (!hit) {
        const auto evicted = p->insert(chunk);
        fold(evicted.has_value() ? *evicted : kNone);
      }
    } else if (action < 18) {
      const auto evicted = p->insert(chunk);
      fold(evicted.has_value() ? *evicted : kNone);
    } else {
      fold(p->erase(chunk) ? 2 : 3);
    }
    fold(p->size());
  }
  return hash;
}

TEST(PolicyFingerprint, DecisionsMatchRecordedConstants) {
  struct Expected {
    PolicyKind kind;
    std::uint64_t hash[6];
  };
  const std::size_t capacities[6] = {1, 2, 3, 7, 64, 512};
  const Expected expected[] = {
      {PolicyKind::kLru,
       {0xd83e8f1f57cfe1bdull, 0xe4c260a4f9751603ull, 0xddea1dcadd5bb216ull,
        0xc51a7e334c106e74ull, 0x0b8dab622494eb16ull, 0xa43ff73dc20cd64dull}},
      {PolicyKind::kFifo,
       {0xd83e8f1f57cfe1bdull, 0xe3f592a8dd37021eull, 0x386491c9e199407eull,
        0x944b38f9918549bcull, 0x42f234e8184ec4a1ull, 0xe92cc728051d2bc5ull}},
      {PolicyKind::kClock,
       {0xd83e8f1f57cfe1bdull, 0xce835eb233c8836aull, 0x7b4071e2093d5413ull,
        0x1b88347041ff8d69ull, 0x50ad163e8c5326e1ull, 0xc9092000e0c6e395ull}},
      {PolicyKind::kLfu,
       {0xd83e8f1f57cfe1bdull, 0x32ef19003a11cd3bull, 0x62380df9418f5da4ull,
        0xdf6cc5f892ff07bfull, 0xd3e61de4dcfb7f37ull, 0xf50676cb24093703ull}},
      {PolicyKind::kTwoQ,
       {0xd83e8f1f57cfe1bdull, 0x84abda5cd5674decull, 0xdf9bf09ec3467dd8ull,
        0x5463b0c6db40fb4cull, 0xae2447a9081d2448ull, 0x84b0682f9f0b93c0ull}},
      {PolicyKind::kMq,
       {0xd83e8f1f57cfe1bdull, 0x101af47f75f726feull, 0xc6c5b5ff6a8fc8c3ull,
        0xb1587df875084d9cull, 0x78f1a0ff8fb506d5ull, 0x04e757f51599470bull}},
      {PolicyKind::kArc,
       {0xd83e8f1f57cfe1bdull, 0x6038c6c2bfd6cfeeull, 0x37ac54843a7d66fcull,
        0xbed614a28048dec3ull, 0x1a9114aca46bc6efull, 0x42d0948be32d454bull}},
  };
  for (const Expected& e : expected) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(decision_fingerprint(e.kind, capacities[i]), e.hash[i])
          << policy_kind_name(e.kind) << " at capacity " << capacities[i];
    }
  }
}

/// The policy kernel against a reference model: random push/move/remove
/// over more ids than slots (so probe runs collide and backward-shift
/// deletion moves entries), checking every id's find(), each list's
/// order and size, and that a push takes the lowest free slot.
TEST(SlotLists, MatchesReferenceModel) {
  constexpr std::size_t kSlots = 48;
  constexpr std::size_t kLists = 3;
  SlotLists lists(kSlots, kLists);
  std::map<ChunkId, SlotLists::Slot> slot_of;
  std::deque<ChunkId> order[kLists];  // front = list front
  std::set<SlotLists::Slot> free_slots;
  for (SlotLists::Slot s = 0; s < kSlots; ++s) free_slots.insert(s);
  const auto unlink = [&order](ChunkId id) {
    for (auto& list : order) {
      auto it = std::find(list.begin(), list.end(), id);
      if (it != list.end()) list.erase(it);
    }
  };
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<ChunkId>(rng.next_below(160) * 7);
    const auto list = static_cast<std::size_t>(rng.next_below(kLists));
    const auto it = slot_of.find(id);
    if (it == slot_of.end()) {
      if (free_slots.empty()) continue;
      const SlotLists::Slot slot = lists.push_front(list, id);
      EXPECT_EQ(slot, *free_slots.begin());
      free_slots.erase(slot);
      slot_of[id] = slot;
      order[list].push_front(id);
    } else if (rng.next_below(2) == 0) {
      lists.move_front(it->second, list);
      unlink(id);
      order[list].push_front(id);
    } else {
      lists.remove(it->second);
      free_slots.insert(it->second);
      slot_of.erase(it);
      unlink(id);
    }
    EXPECT_EQ(lists.used(), slot_of.size());
    for (std::size_t l = 0; l < kLists; ++l) {
      ASSERT_EQ(lists.size(l), order[l].size());
      const SlotLists::Slot tail = lists.back(l);
      if (order[l].empty()) {
        EXPECT_EQ(tail, SlotLists::kNone);
      } else {
        EXPECT_EQ(lists.chunk(tail), order[l].back());
        EXPECT_EQ(lists.list_of(tail), l);
      }
    }
    if (step % 97 == 0) {
      for (ChunkId probe = 0; probe < 160 * 7; ++probe) {
        const auto ref = slot_of.find(probe);
        ASSERT_EQ(lists.find(probe),
                  ref == slot_of.end() ? SlotLists::kNone : ref->second)
            << "id " << probe << " at step " << step;
      }
    }
  }
  for (auto& list : order) {  // drain each list from the back
    while (!list.empty()) {
      EXPECT_EQ(lists.pop_back(&list - order), list.back());
      list.pop_back();
    }
  }
  EXPECT_EQ(lists.used(), 0u);
}

/// Property: the LRU core matches a simple deque reference model exactly.
TEST(LruProperty, MatchesReferenceModel) {
  const std::size_t capacity = 8;
  auto p = make_policy(PolicyKind::kLru, capacity);
  std::deque<ChunkId> ref;  // front = most recent
  Rng rng(5);
  for (int step = 0; step < 10000; ++step) {
    const auto chunk = static_cast<ChunkId>(rng.next_below(24));
    auto it = std::find(ref.begin(), ref.end(), chunk);
    if (it != ref.end()) {
      EXPECT_TRUE(p->touch(chunk));
      ref.erase(it);
      ref.push_front(chunk);
    } else {
      EXPECT_FALSE(p->touch(chunk));
      const auto evicted = p->insert(chunk);
      if (ref.size() == capacity) {
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, ref.back());
        ref.pop_back();
      } else {
        EXPECT_FALSE(evicted.has_value());
      }
      ref.push_front(chunk);
    }
  }
}

}  // namespace
}  // namespace mlsc::cache
