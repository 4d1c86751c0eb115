// The shared slot table (dataplane/slot_index.h) against reference models:
// the digest index against std::unordered_multimap, with its stats
// recomputed by brute force after every step, and the slot pool's LIFO
// reuse and generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "dataplane/slot_index.h"

namespace redplane::dp {
namespace {

/// Checks `idx` against the reference `model` (digest -> slot): every
/// entry is found, absent slots are not, and the stats equal ones
/// recomputed from the probe distance of each entry's cell.
void ExpectMatches(const DigestIndex& idx,
                   const std::unordered_multimap<std::uint64_t, std::uint32_t>&
                       model,
                   std::size_t expected_capacity, std::uint32_t absent_slot) {
  const IndexStats stats = idx.Stats();
  ASSERT_EQ(stats.capacity, expected_capacity);
  ASSERT_EQ(stats.used, model.size());
  std::size_t max_probe = 0;
  for (const auto& [digest, slot] : model) {
    const std::size_t cell =
        idx.Find(digest, [&](std::uint32_t s) { return s == slot; });
    ASSERT_NE(cell, DigestIndex::kNoCell)
        << "digest " << digest << " slot " << slot;
    ASSERT_EQ(idx.slot(cell), slot);
    const std::size_t mask = expected_capacity - 1;
    max_probe = std::max(max_probe, ((cell - (digest & mask)) & mask) + 1);
    ASSERT_EQ(idx.Find(digest, [&](std::uint32_t s) {
      return s == absent_slot;
    }), DigestIndex::kNoCell);
  }
  ASSERT_EQ(stats.max_probe, max_probe);
}

TEST(DigestIndexTest, ChurnMatchesMultimapAcrossGrowths) {
  std::mt19937_64 rng(18);
  DigestIndex idx;
  std::unordered_multimap<std::uint64_t, std::uint32_t> model;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
  std::size_t capacity = 0;  // the growth rule, modelled
  std::uint32_t next_slot = 0;
  std::size_t growths = 0;
  const auto draw_digest = [&]() -> std::uint64_t {
    const std::uint64_t high = (rng() % 64) << 32;
    switch (rng() % 8) {
      case 0: return high;                // home cell 0 at every capacity
      case 1: return high | 0xffffffffu;  // the last cell: runs wrap
      case 2: return high | 0xfffffffeu;  // next to it
      default: return rng();
    }
  };
  for (int step = 0; step < 2400; ++step) {
    // Fill toward ~500 entries, then drain, so the run crosses several
    // growths and erases from long, wrapped probe runs.
    const bool fill = step < 1200 ? rng() % 10 < 7 : rng() % 10 < 3;
    if (fill || live.empty()) {
      std::uint64_t digest = draw_digest();
      // A digest shared by several slots, as a flow-key digest collision.
      if (!live.empty() && rng() % 8 == 0) {
        digest = live[rng() % live.size()].first;
      }
      if (capacity == 0 || (model.size() + 1) * 10 > capacity * 7) {
        capacity = std::max<std::size_t>(16, capacity * 2);
        ++growths;
      }
      idx.Reserve();
      idx.Insert(digest, next_slot);
      model.emplace(digest, next_slot);
      live.emplace_back(digest, next_slot);
      ++next_slot;
    } else {
      const std::size_t pick = rng() % live.size();
      const auto [digest, slot] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      const std::size_t cell =
          idx.Find(digest, [&](std::uint32_t s) { return s == slot; });
      ASSERT_NE(cell, DigestIndex::kNoCell);
      idx.Erase(cell);
      const auto range = model.equal_range(digest);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == slot) {
          model.erase(it);
          break;
        }
      }
    }
    ExpectMatches(idx, model, capacity, next_slot);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "at step " << step;
      return;
    }
  }
  EXPECT_GE(growths, 6u);

  // Clear keeps the capacity; Drop returns to none.
  idx.Clear();
  model.clear();
  ExpectMatches(idx, model, capacity, next_slot);
  idx.Drop();
  EXPECT_EQ(idx.Stats().capacity, 0u);
  EXPECT_EQ(idx.Find(0), DigestIndex::kNoCell);
}

TEST(DigestIndexTest, EraseShiftsWrappedFollowersBack) {
  DigestIndex idx;
  idx.Reserve();
  ASSERT_EQ(idx.Stats().capacity, 16u);
  // Three entries homed at the last cell occupy cells 15, 0 and 1; one
  // homed at cell 0 lands in cell 2.
  for (std::uint32_t s = 0; s < 3; ++s) idx.Insert(15, s);
  idx.Insert(16, 3);
  EXPECT_EQ(idx.Stats().max_probe, 3u);
  idx.Erase(idx.Find(15, [](std::uint32_t s) { return s == 0; }));
  // Both followers of the wrapped run move back one cell.
  EXPECT_EQ(idx.Find(15, [](std::uint32_t s) { return s == 1; }), 15u);
  EXPECT_EQ(idx.Find(15, [](std::uint32_t s) { return s == 2; }), 0u);
  EXPECT_EQ(idx.Find(16, [](std::uint32_t s) { return s == 3; }), 1u);
  EXPECT_EQ(idx.Stats().max_probe, 2u);
  EXPECT_EQ(idx.Stats().used, 3u);
}

TEST(SlotPoolTest, LifoReuseBumpsGeneration) {
  SlotPool pool;
  const std::uint32_t a = pool.Acquire();
  const std::uint32_t b = pool.Acquire();
  const std::uint32_t c = pool.Acquire();
  EXPECT_EQ((std::vector<std::uint32_t>{a, b, c}),
            (std::vector<std::uint32_t>{0, 1, 2}));
  const std::uint32_t gen_a = pool.gen(a);
  const std::uint32_t gen_b = pool.gen(b);
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.count(), 1u);
  EXPECT_FALSE(pool.Alive(a, gen_a));
  // Last released, first reused; each with a new generation.
  EXPECT_EQ(pool.Acquire(), b);
  EXPECT_NE(pool.gen(b), gen_b);
  EXPECT_EQ(pool.Acquire(), a);
  EXPECT_FALSE(pool.Alive(a, gen_a));
  EXPECT_TRUE(pool.Alive(a, pool.gen(a)));
  EXPECT_EQ(pool.Acquire(), 3u);  // free list empty: a new slot
  pool.Release(3);
  std::vector<std::uint32_t> seen;
  pool.ForEachLive([&](std::uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{a, b, c}));
  pool.Clear();
  EXPECT_EQ(pool.count(), 0u);
  EXPECT_FALSE(pool.Alive(c, 0));
  EXPECT_EQ(pool.Acquire(), 0u);
}

}  // namespace
}  // namespace redplane::dp
