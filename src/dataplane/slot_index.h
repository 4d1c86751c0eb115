// The slot table shared by the switch's per-flow state (DESIGN.md §12,
// "SoA tables").
//
// On hardware a flow's switch state lives in register arrays addressed by
// the slot an exact-match digest table resolves the flow to (§7.4).  Both
// `core::FlowTable` and `dp::MirrorTable` model that layout; this header is
// the part they share, so the indexing rule is written once:
//
//  * DigestIndex — the digest -> slot map: open addressing with linear
//    probing over a power-of-two capacity, growth at 70 % load,
//    backward-shift deletion (no tombstones), and the probe-length stats;
//  * SlotPool — the slot lifecycle: stable slot numbers, a LIFO free list,
//    a live flag and a generation per slot, so a (slot, gen) pair held by a
//    timer detects that its entry was released.
//
// Each table keeps only its own dense lanes beside these, grown in step
// with SlotPool::Acquire.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace redplane::dp {

inline constexpr std::uint32_t kNilSlot = 0xffffffffu;

/// Digest-index health for the load-factor / max-probe gauges.
struct IndexStats {
  std::size_t capacity = 0;
  std::size_t used = 0;
  std::size_t max_probe = 0;  // longest probe chain over occupied cells

  double load() const {
    return capacity == 0 ? 0.0
                         : static_cast<double>(used) /
                               static_cast<double>(capacity);
  }
};

/// Open-addressed digest -> slot map.  A cell is {digest, slot}; an empty
/// cell holds kNilSlot.  Cells may share a digest: `Find` takes a predicate
/// on the slot, so an owner that keeps one cell per key confirms the key
/// there and a digest collision costs one extra probe, never correctness.
class DigestIndex {
 public:
  static constexpr std::size_t kNoCell = SIZE_MAX;

  /// First cell on `digest`'s probe run whose slot satisfies `match`, or
  /// kNoCell.
  template <typename Match>
  std::size_t Find(std::uint64_t digest, Match&& match) const {
    if (slot_.empty()) return kNoCell;
    const std::size_t mask = slot_.size() - 1;
    for (std::size_t i = digest & mask; slot_[i] != kNilSlot;
         i = (i + 1) & mask) {
      if (digest_[i] == digest && match(slot_[i])) return i;
    }
    return kNoCell;
  }
  std::size_t Find(std::uint64_t digest) const {
    return Find(digest, [](std::uint32_t) { return true; });
  }

  /// Makes room for one more cell: doubles and rehashes the index (16
  /// cells at first) when one more would pass 70 % load.
  void Reserve() {
    if (slot_.empty() || (used_ + 1) * 10 > slot_.size() * 7) Grow();
  }

  /// Fills the first empty cell on `digest`'s probe run.  Call Reserve()
  /// first.
  void Insert(std::uint64_t digest, std::uint32_t slot) {
    const std::size_t mask = slot_.size() - 1;
    std::size_t i = digest & mask;
    while (slot_[i] != kNilSlot) i = (i + 1) & mask;
    digest_[i] = digest;
    slot_[i] = slot;
    ++used_;
  }

  /// Empties `cell`.  Backward-shift deletion keeps linear probing
  /// tombstone-free: each displaced follower moves back into the hole
  /// unless its home lies cyclically after the hole, where moving it would
  /// break its own probe run.
  void Erase(std::size_t cell) {
    const std::size_t mask = slot_.size() - 1;
    std::size_t hole = cell;
    for (std::size_t i = (cell + 1) & mask; slot_[i] != kNilSlot;
         i = (i + 1) & mask) {
      const std::size_t home = digest_[i] & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        digest_[hole] = digest_[i];
        slot_[hole] = slot_[i];
        hole = i;
      }
    }
    slot_[hole] = kNilSlot;
    digest_[hole] = 0;
    --used_;
  }

  std::uint32_t slot(std::size_t cell) const { return slot_[cell]; }
  void set_slot(std::size_t cell, std::uint32_t slot) { slot_[cell] = slot; }

  /// Empties every cell and keeps the capacity.
  void Clear() {
    digest_.assign(digest_.size(), 0);
    slot_.assign(slot_.size(), kNilSlot);
    used_ = 0;
  }
  /// Empties the index down to no capacity at all.
  void Drop() {
    digest_.clear();
    slot_.clear();
    used_ = 0;
  }

  /// O(capacity); sampled by the metric exporters, never on the packet
  /// path.
  IndexStats Stats() const {
    IndexStats s;
    s.capacity = slot_.size();
    s.used = used_;
    const std::size_t mask = s.capacity - 1;
    for (std::size_t i = 0; i < s.capacity; ++i) {
      if (slot_[i] == kNilSlot) continue;
      const std::size_t home = digest_[i] & mask;
      s.max_probe = std::max(s.max_probe, ((i - home) & mask) + 1);
    }
    return s;
  }

 private:
  void Grow() {
    const std::size_t cap = std::max<std::size_t>(16, slot_.size() * 2);
    std::vector<std::uint64_t> digests(cap, 0);
    std::vector<std::uint32_t> slots(cap, kNilSlot);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < slot_.size(); ++i) {
      if (slot_[i] == kNilSlot) continue;
      std::size_t j = digest_[i] & mask;
      while (slots[j] != kNilSlot) j = (j + 1) & mask;
      digests[j] = digest_[i];
      slots[j] = slot_[i];
    }
    digest_ = std::move(digests);
    slot_ = std::move(slots);
  }

  std::vector<std::uint64_t> digest_;
  std::vector<std::uint32_t> slot_;
  std::size_t used_ = 0;
};

/// Stable slot numbers with a LIFO free list and per-slot generations.
/// The generation bumps on release, so Alive(slot, gen) fails for a handle
/// taken before the slot was released and reused.
class SlotPool {
 public:
  /// A free slot, marked live: the most recently released one, else a new
  /// slot one past the last, for which the owner appends one element to
  /// each of its lanes.
  std::uint32_t Acquire() {
    std::uint32_t slot = free_head_;
    if (slot != kNilSlot) {
      free_head_ = link_[slot];
    } else {
      slot = static_cast<std::uint32_t>(live_.size());
      gen_.emplace_back();
      live_.emplace_back();
      link_.emplace_back(kNilSlot);
    }
    live_[slot] = 1;
    ++count_;
    return slot;
  }

  /// Frees `slot` and bumps its generation.
  void Release(std::uint32_t slot) {
    live_[slot] = 0;
    ++gen_[slot];
    link_[slot] = free_head_;
    free_head_ = slot;
    --count_;
  }

  /// Forgets every slot; generations restart at 0.
  void Clear() {
    gen_.clear();
    live_.clear();
    link_.clear();
    free_head_ = kNilSlot;
    count_ = 0;
  }

  bool Alive(std::uint32_t slot, std::uint32_t gen) const {
    return slot < live_.size() && live_[slot] != 0 && gen_[slot] == gen;
  }
  std::uint32_t gen(std::uint32_t slot) const { return gen_[slot]; }
  /// The free-list link while the slot is free; the owner's own link while
  /// it is live (the mirror threads its per-flow chains through it).
  std::uint32_t& link(std::uint32_t slot) { return link_[slot]; }

  /// Live slots.
  std::size_t count() const { return count_; }

  /// Visits every live slot in ascending order; `fn` may release it.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (std::uint32_t s = 0; s < live_.size(); ++s) {
      if (live_[s] != 0) fn(s);
    }
  }

 private:
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> link_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t count_ = 0;
};

}  // namespace redplane::dp
