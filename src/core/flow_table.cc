#include "core/flow_table.h"

#include <algorithm>

namespace redplane::core {

namespace {
/// Hard bound on per-flow pending-send records even without a horizon:
/// outstanding requests are capped by retransmission anyway.
constexpr std::size_t kMaxPendingSends = 256;
}  // namespace

std::uint32_t FlowTable::FindSlot(const net::PartitionKey& key) const {
  const std::size_t cell = FindCell(net::HashPartitionKey(key), key);
  return cell == dp::DigestIndex::kNoCell ? kNilSlot : idx_.slot(cell);
}

std::uint32_t FlowTable::GetOrCreateSlot(const net::PartitionKey& key) {
  const std::uint64_t digest = net::HashPartitionKey(key);
  const std::size_t cell = FindCell(digest, key);
  if (cell != dp::DigestIndex::kNoCell) return idx_.slot(cell);
  // The index grows only on a real insert.
  idx_.Reserve();
  const std::uint32_t slot = slots_.Acquire();
  if (slot == status_.size()) {
    status_.emplace_back();
    lease_expiry_.emplace_back();
    cur_seq_.emplace_back();
    last_acked_.emplace_back();
    cold_.emplace_back();
  }
  Reinit(slot);
  cold_[slot].key = key;
  idx_.Insert(digest, slot);
  return slot;
}

void FlowTable::Reinit(std::uint32_t slot) {
  status_[slot] = FlowStatus::kInitPending;
  lease_expiry_[slot] = 0;
  cur_seq_[slot] = 0;
  last_acked_[slot] = 0;
  Cold& c = cold_[slot];
  c.state.clear();
  c.pending_sends.clear();
  c.init_sent_at = 0;
  c.renew_sent_at = 0;
  c.last_write_span = 0;
  c.renew_timer = 0;
  c.init_loops = 0;
  c.has_state = false;
  c.renew_in_flight = false;
  c.merge_dirty = false;
  c.replica_subscribed = false;
}

void FlowTable::Erase(const net::PartitionKey& key) {
  const std::size_t cell = FindCell(net::HashPartitionKey(key), key);
  if (cell == dp::DigestIndex::kNoCell) return;
  const std::uint32_t slot = idx_.slot(cell);
  idx_.Erase(cell);
  cold_[slot].state.clear();
  cold_[slot].state.shrink_to_fit();
  cold_[slot].pending_sends.clear();
  slots_.Release(slot);
}

void FlowTable::Reset() {
  status_.clear();
  lease_expiry_.clear();
  cur_seq_.clear();
  last_acked_.clear();
  cold_.clear();
  slots_.Clear();
  idx_.Drop();  // a failed switch comes back with an empty index
}

void FlowTable::NoteSend(std::uint32_t slot, std::uint64_t seq, SimTime now,
                         SimDuration horizon) {
  auto& pending = cold_[slot].pending_sends;
  if (horizon > 0) {
    while (!pending.empty() && pending.front().second < now - horizon) {
      pending.pop_front();
    }
  }
  pending.emplace_back(seq, now);
  if (pending.size() > kMaxPendingSends) pending.pop_front();
}

void FlowTable::NoteAck(std::uint32_t slot, std::uint64_t seq,
                        SimDuration lease_period) {
  last_acked_[slot] = std::max(last_acked_[slot], seq);
  // The lease is valid for lease_period after the *send* of the newest
  // request the store has acknowledged; using send time keeps the switch's
  // view conservative relative to the store's.
  auto& pending = cold_[slot].pending_sends;
  SimTime newest_send = 0;
  while (!pending.empty() && pending.front().first <= seq) {
    newest_send = pending.front().second;
    pending.pop_front();
  }
  if (newest_send > 0) {
    lease_expiry_[slot] =
        std::max(lease_expiry_[slot], newest_send + lease_period);
  }
}

SimTime FlowTable::SendTimeOf(std::uint32_t slot, std::uint64_t seq) const {
  for (const auto& [pseq, at] : cold_[slot].pending_sends) {
    if (pseq == seq) return at;
  }
  return 0;
}

}  // namespace redplane::core
