// The one event vocabulary every component publishes on.
//
// Each kind is one protocol or infrastructure fact, emitted once at the
// place it happens (see DESIGN.md §7 for the full table).  The lifecycle
// kinds follow a packet through the fabric: it enters (kIngress), misses or
// hits its lease at a switch (kLeaseMiss / kLeaseGrant), gets its write
// replicated to the state store (kReplicationSent -> kStoreRecv ->
// kStoreServiceStart -> kStoreApplied -> kStoreResponded -> kAckReleased),
// may loop through the network-buffering read path (kBufferedRead /
// kBufferedReadLoop), may be retransmitted from the mirror buffer
// (kMirrored / kRetransmit), and on switch failure re-homes its flow state
// at a standby (kFailoverRehome).  The remaining kinds are the claims the
// auditor checks (lease beliefs, commit evidence, staleness samples) and
// the environment facts the recovery tracker and causal slices need (node
// and link transitions, reroutes, gray faults).
#pragma once

#include <cstdint>

namespace redplane::obs {

enum class Ev : std::uint8_t {
  // --- sim layer ---
  kIngress = 0,       // packet admitted at a host edge (flow id = flow hash)
  kHostRecv,          // packet delivered to a host sink
  kLinkDrop,          // link dropped a packet (down / loss / stale epoch)
  kLinkDown,          // link transitioned to down
  kLinkUp,            // link transitioned to up
  kNodeFailure,       // node fail-stop (a store replica loses its DRAM
                      //   records); aux = node id
  kNodeRecovery,      // node came back up; aux = node id
  // --- routing layer ---
  kReroute,           // fabric recomputed routes after a topology change
  // --- dataplane layer ---
  kPipeline,          // packet entered a switch pipeline pass
  kRecirculate,       // packet recirculated through the pipeline
  kMirrored,          // protocol request copied into the mirror buffer
  kMirrorCleared,     // mirror entries released by a cumulative ack
  kCpInstalled,       // control-plane table install completed
  kPktgenBatch,       // packet generator emitted a batch
  // --- protocol state machine (switch side) ---
  kLeaseMiss,         // no active lease: lease Init request sent
  kLeaseGrant,        // lease granted for a fresh (unowned) key
  kFailoverRehome,    // lease migrated: flow re-homed after a failure
  kReplicationSent,   // write replication (or merge delta) sent to the store
  kRenewSent,         // periodic lease renewal sent
  kRenewAck,          // lease renewal acknowledged
  kBufferedRead,      // read-intensive packet sent into the network buffer;
                      //   aux = span of the write it waits on
  kBufferedReadLoop,  // buffered read looped back, still waiting for lease
  kRetransmit,        // mirror-buffered request retransmitted
  kRetxGiveUp,        // retransmission abandoned after the give-up horizon
  kAckReleased,       // output released to the app after store ack
  kLeaseDenied,       // store denied the lease (capacity / ownership)
  kSnapshotSent,      // bounded-inconsistency snapshot slot sent
  kOutputDropped,     // held output dropped (reset / failure)
  kLeaseAcquired,     // lease installed or extended; aux = believed expiry
  kLeaseReleased,     // lease dropped (deny / give-up / reset); flow 0 = all
  kOutputServed,      // an output packet was released toward its destination
  kEpsilonSample,     // observed staleness; arg = ns, aux = configured ε ns
  kFlowAdmitted,      // flow admitted under a non-default mode;
                      //   aux = ConsistencyMode
  kLocalReadServed,   // read answered from local state; arg = staleness ns,
                      //   aux = declared bound ns (0: no bound applies)
  // --- state store ---
  kStoreRecv,         // protocol request received by a store replica
  kStoreServiceStart, // request left the service queue; CPU work begins
  kStoreApplied,      // write applied to the store's flow record
  kStoreBuffered,     // init buffered behind an unexpired lease
  kStoreReadParked,   // buffered read parked behind in-flight writes
  kStoreDenied,       // store rejected a request (stale / misdirected)
  kStoreResponded,    // store sent its response/ack
  kDupAckDurable,     // stale write filtered; its ack confirms seq durable
                      //   (aux = the filtered write's seq)
  kTailCommit,        // tail answered a decided write: committed chain-wide
  kMergeApplied,      // store joined a merge delta (the apply step of a
                      //   mergeable flow); arg = merged measure
  kReplicaPushed,     // store pushed state to a read replica; aux = its IP
  // --- replication batching (DESIGN.md §10) ---
  kBatchFlushed,      // coalescer flushed a batch envelope toward a shard
  kStoreBatchRecv,    // store received a batch envelope (per-sub events follow)
  // --- chain manager ---
  kChainReconfig,     // chain membership changed; aux = new chain length
  kResyncCommit,      // resync import re-established seq as durable
  // --- gray failures (fuzz campaign, DESIGN.md §15) ---
  kGrayFault,         // gray failure injected; aux = sending node, arg = rate
  kGrayCleared,       // the matching gray failure cleared; aux = node
  // --- auditor ---
  kHistoryClosed,     // a per-flow history failed its linearizability check
};

/// Stable display name for an event kind (used in trace exports).
const char* EvName(Ev ev);

/// Total number of event kinds (for tables indexed by Ev).
inline constexpr int kNumEvents = static_cast<int>(Ev::kHistoryClosed) + 1;

}  // namespace redplane::obs
