#include "dataplane/mirror.h"

#include <algorithm>

namespace redplane::dp {

MirrorTable::Handle MirrorTable::Mirror(const net::PartitionKey& key,
                                        std::uint64_t seq,
                                        net::BufferView data, SimTime now) {
  const std::uint32_t slot = slots_.Acquire();
  if (slot == keys_.size()) {
    keys_.emplace_back();
    seq_.emplace_back();
    data_.emplace_back();
    enqueued_.emplace_back();
    last_sent_.emplace_back();
    retx_.emplace_back();
    timer_.emplace_back();
    fprev_.emplace_back(kNilSlot);
  }
  keys_[slot] = key;
  seq_[slot] = seq;
  data_[slot] = data.Prefix(truncate_to_);
  enqueued_[slot] = now;
  last_sent_[slot] = now;
  retx_[slot] = 0;
  timer_[slot] = 0;

  // Load is checked before the probe, so the index may grow on a mirror
  // that joins an existing chain.
  idx_.Reserve();
  const std::uint64_t digest = net::HashPartitionKey(key);
  const std::size_t cell = idx_.Find(digest);
  fprev_[slot] = kNilSlot;
  if (cell == DigestIndex::kNoCell) {
    slots_.link(slot) = kNilSlot;
    idx_.Insert(digest, slot);
  } else {
    const std::uint32_t head = idx_.slot(cell);
    slots_.link(slot) = head;
    fprev_[head] = slot;
    idx_.set_slot(cell, slot);
  }

  occupancy_ += data_[slot].size();
  peak_ = std::max(peak_, occupancy_);
  if (trace_.armed()) {
    trace_.Emit(obs::Ev::kMirrored, digest, seq,
                static_cast<double>(data_[slot].size()));
  }
  return Handle{slot, slots_.gen(slot)};
}

void MirrorTable::ReleaseSlot(std::uint32_t slot, std::size_t cell) {
  const std::uint32_t prev = fprev_[slot];
  const std::uint32_t next = slots_.link(slot);
  if (prev != kNilSlot) {
    slots_.link(prev) = next;
  } else if (next != kNilSlot) {
    idx_.set_slot(cell, next);
  } else {
    idx_.Erase(cell);  // the flow's last entry: its chain is gone
  }
  if (next != kNilSlot) fprev_[next] = prev;

  occupancy_ -= data_[slot].size();
  data_[slot].clear();  // drop the payload refcount now, not at slot reuse
  slots_.Release(slot);
}

}  // namespace redplane::dp
