// Switch-side per-flow protocol state.
//
// On hardware this is the SRAM the paper charges in §7.4: a key-digest
// table resolving the flow to a slot, plus register arrays holding the
// lease expiration time, the current sequence number, and the last
// acknowledged sequence number.  The digest index and the slot lifecycle
// are the shared slot table of dataplane/slot_index.h (DESIGN.md §12); this
// table keeps one slot per key and its own lanes: the four hot fields in
// separate dense arrays (`status_`, `lease_expiry_`, `cur_seq_`,
// `last_acked_`), one software lane per hardware register array, and
// everything the per-packet path does not need (the application state
// blob, pending-send bookkeeping, renew-timer plumbing) in a parallel cold
// array, the analogue of control-plane-managed SRAM.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dataplane/slot_index.h"
#include "net/flow.h"

namespace redplane::core {

enum class FlowStatus : std::uint8_t {
  /// No lease; an Init request is in flight (or about to be sent).
  kInitPending,
  /// Lease held; state installed and usable.
  kActive,
};

class FlowTable {
 public:
  static constexpr std::uint32_t kNilSlot = dp::kNilSlot;

  /// Cold per-flow state: everything off the per-packet hot path.
  struct Cold {
    net::PartitionKey key;
    /// The application's per-flow state (conceptually the app's registers /
    /// table entries for this flow).
    std::vector<std::byte> state;
    /// Send times of outstanding lease-renewing requests, by sequence
    /// number; consulted on ack to compute the conservative expiry.
    std::deque<std::pair<std::uint64_t, SimTime>> pending_sends;
    /// Send time of the outstanding Init (for grant RTT accounting).
    SimTime init_sent_at = 0;
    /// Send time of the outstanding explicit renew; 0 when none.  Cleared
    /// on timeout so a late ack does not extend the lease.
    SimTime renew_sent_at = 0;
    /// Span id of the most recent write request (trace correlation).
    std::uint64_t last_write_span = 0;
    /// Pending renew-timeout timer (opaque sim::EventId; 0 = none).
    std::uint64_t renew_timer = 0;
    /// How many times packets of this flow have looped through the network
    /// buffer while waiting for the lease grant.
    std::uint32_t init_loops = 0;
    /// True once state has been installed (grant received).
    bool has_state = false;
    /// True while an explicit kLeaseRenewOnly is outstanding.
    bool renew_in_flight = false;
    /// --- consistency-mode spectrum lanes (DESIGN.md §14) ---
    /// Mergeable mode: local state changed since the last merge-delta push.
    bool merge_dirty = false;
    /// Replicated-read mode: kReplicaSubscribe already sent for this flow.
    bool replica_subscribed = false;
  };

  /// Read-only view of one flow for tests, dumps, and diagnostics; the hot
  /// path uses slot indices directly.  Default-constructed (or Find miss)
  /// is falsy.
  class FlowRef {
   public:
    FlowRef() = default;
    FlowRef(const FlowTable* t, std::uint32_t slot) : t_(t), slot_(slot) {}

    explicit operator bool() const { return t_ != nullptr; }

    FlowStatus status() const { return t_->status_[slot_]; }
    std::uint64_t cur_seq() const { return t_->cur_seq_[slot_]; }
    std::uint64_t last_acked_seq() const { return t_->last_acked_[slot_]; }
    SimTime lease_expiry() const { return t_->lease_expiry_[slot_]; }
    bool has_state() const { return t_->cold_[slot_].has_state; }
    bool renew_in_flight() const { return t_->cold_[slot_].renew_in_flight; }
    std::uint32_t init_loops() const { return t_->cold_[slot_].init_loops; }
    const std::vector<std::byte>& state() const {
      return t_->cold_[slot_].state;
    }
    std::size_t pending_send_count() const {
      return t_->cold_[slot_].pending_sends.size();
    }
    bool WritesInFlight() const { return t_->WritesInFlight(slot_); }
    bool LeaseActive(SimTime now) const {
      return t_->LeaseActive(slot_, now);
    }
    std::uint32_t slot() const { return slot_; }

   private:
    const FlowTable* t_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// Slot of `key`, or kNilSlot.  O(1): digest probe + one key compare.
  std::uint32_t FindSlot(const net::PartitionKey& key) const;
  /// Slot of `key`, creating a default kInitPending entry if absent.
  std::uint32_t GetOrCreateSlot(const net::PartitionKey& key);

  FlowRef Find(const net::PartitionKey& key) const {
    const std::uint32_t slot = FindSlot(key);
    return slot == kNilSlot ? FlowRef() : FlowRef(this, slot);
  }

  void Erase(const net::PartitionKey& key);
  std::size_t Size() const { return slots_.count(); }

  /// --- hot lanes (the §7.4 register arrays), addressed by slot ---
  FlowStatus status(std::uint32_t slot) const { return status_[slot]; }
  void set_status(std::uint32_t slot, FlowStatus s) { status_[slot] = s; }
  std::uint64_t cur_seq(std::uint32_t slot) const { return cur_seq_[slot]; }
  void set_cur_seq(std::uint32_t slot, std::uint64_t v) {
    cur_seq_[slot] = v;
  }
  std::uint64_t NextSeq(std::uint32_t slot) { return ++cur_seq_[slot]; }
  std::uint64_t last_acked_seq(std::uint32_t slot) const {
    return last_acked_[slot];
  }
  void set_last_acked_seq(std::uint32_t slot, std::uint64_t v) {
    last_acked_[slot] = v;
  }
  SimTime lease_expiry(std::uint32_t slot) const {
    return lease_expiry_[slot];
  }
  void set_lease_expiry(std::uint32_t slot, SimTime t) {
    lease_expiry_[slot] = t;
  }

  bool WritesInFlight(std::uint32_t slot) const {
    return cur_seq_[slot] > last_acked_[slot];
  }
  bool LeaseActive(std::uint32_t slot, SimTime now) const {
    return status_[slot] == FlowStatus::kActive && lease_expiry_[slot] > now;
  }

  /// --- cold blob, addressed by slot ---
  Cold& cold(std::uint32_t slot) { return cold_[slot]; }
  const Cold& cold(std::uint32_t slot) const { return cold_[slot]; }

  /// Generation of `slot`; bumps on erase so (slot, gen) pairs held by
  /// timers invalidate themselves.
  std::uint32_t gen(std::uint32_t slot) const { return slots_.gen(slot); }
  bool Alive(std::uint32_t slot, std::uint32_t gen) const {
    return slots_.Alive(slot, gen);
  }

  /// Resets `slot` to a fresh kInitPending entry (re-init of an expired
  /// flow), keeping slot and generation.
  void Reinit(std::uint32_t slot);

  /// Visits every (key, FlowRef) pair — diagnostics and table dumps.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    slots_.ForEachLive(
        [&](std::uint32_t s) { fn(cold_[s].key, FlowRef(this, s)); });
  }

  /// Clears everything (switch failure: all SRAM state is lost).  The
  /// owner cancels per-entry timers first (see RedPlaneSwitch::Reset).
  void Reset();

  /// Records a lease-renewing request send for expiry accounting.  Entries
  /// older than `horizon` are dead — their request either got acked (and
  /// was popped) or passed the retransmit give-up point — so they are
  /// compacted away; dropping one is conservative (a very late ack then
  /// skips the lease extension).  The hard cap bounds the deque even with
  /// horizon 0.
  void NoteSend(std::uint32_t slot, std::uint64_t seq, SimTime now,
                SimDuration horizon = 0);

  /// Processes an ack for `seq`: advances last_acked_seq and extends the
  /// lease to (send time of that request) + lease_period.
  void NoteAck(std::uint32_t slot, std::uint64_t seq,
               SimDuration lease_period);

  /// Send time recorded for `seq`, or 0 (write RTT accounting).
  SimTime SendTimeOf(std::uint32_t slot, std::uint64_t seq) const;

  /// Send time of the oldest outstanding lease-renewing request, or 0 when
  /// none: how long the durable store view may trail this switch's local
  /// state (the replicated-read staleness measure, DESIGN.md §14).
  SimTime OldestPendingSendTime(std::uint32_t slot) const {
    const auto& pending = cold_[slot].pending_sends;
    return pending.empty() ? 0 : pending.front().second;
  }

  /// Digest-index health for the load-factor / max-probe gauges.
  dp::IndexStats IndexStatsNow() const { return idx_.Stats(); }

 private:
  friend class FlowRef;

  /// Index cell of `key` (digest match confirmed against the key lane),
  /// or DigestIndex::kNoCell.
  std::size_t FindCell(std::uint64_t digest,
                       const net::PartitionKey& key) const {
    return idx_.Find(digest,
                     [&](std::uint32_t s) { return cold_[s].key == key; });
  }

  std::vector<FlowStatus> status_;
  std::vector<SimTime> lease_expiry_;
  std::vector<std::uint64_t> cur_seq_;
  std::vector<std::uint64_t> last_acked_;
  std::vector<Cold> cold_;
  dp::SlotPool slots_;
  dp::DigestIndex idx_;
};

using FlowRef = FlowTable::FlowRef;

}  // namespace redplane::core
