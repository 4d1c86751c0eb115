// The RedPlane state replication protocol: message model and wire codec.
//
// Messages follow the paper's Fig. 4 format: standard Ethernet/IP/UDP headers
// addressing the state store or the switch, then a RedPlane header (sequence
// number, message type, flow key), then — depending on type — the state value
// and/or a piggybacked output packet.  The piggyback is a fully serialized
// inner packet: the network and the state store's memory act as delay-line
// storage for outputs that may not be released until their state update is
// durable (§5.1, "Piggybacking output packets").
//
// Encode-once discipline: `EncodeMsg` runs once per request at the message's
// origin and produces an immutable `net::Buffer` in one allocation (every
// length is known up front, so it sizes the message, then writes in place).
// Every mutable header field sits at a fixed offset before the
// variable-length key/state/piggyback tail (see `wire::` below), so chain
// replicas patch `chain_hop` and the head's stamped decision (`ack`, `seq`)
// in place via `MsgView` setters and forward the same bytes verbatim — a hop
// never re-serializes the state value or the piggybacked packet.  Read paths use the view accessors and materialize a
// full `Msg` only where state is retained.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/consistency.h"
#include "net/buffer.h"
#include "net/codec.h"
#include "net/flow.h"
#include "net/packet.h"

namespace redplane::core {

/// UDP port the state store listens on; switches use it as the source port
/// of requests so responses route back symmetrically.
constexpr std::uint16_t kRedPlaneUdpPort = 5123;

/// Request messages (switch -> state store).
/// Responses (state store -> switch) all use type kAck with an AckKind.
enum class MsgType : std::uint8_t {
  /// "Init": lease request for a flow this switch has no state for.  The
  /// store grants a lease and returns existing state if the flow previously
  /// lived on another switch (migration, paper step 4).
  kLeaseNewReq = 1,
  /// "Repl": a state write with lease renewal; carries the new state value
  /// and the piggybacked output packet (paper step 2).
  kLeaseRenewReq = 2,
  /// Explicit periodic lease renewal with no state write (read-centric
  /// flows renew every lease_renew_interval, §5.3).
  kLeaseRenewOnly = 3,
  /// A read packet that arrived while a write was still in flight; buffered
  /// through the network until the store has applied the latest write
  /// (§5.1, end of "Piggybacking output packets").
  kReadBufferReq = 4,
  /// Bounded-inconsistency mode: one snapshot slot value (§5.4).
  kSnapshotRepl = 5,
  /// Any response from the state store.
  kAck = 6,
  /// Mergeable multi-writer mode: the sender's full local state, to be
  /// joined into the store's copy with the app's declared merge function
  /// (idempotent, so retransmission/replay is safe without a seq filter).
  kMergeDelta = 7,
  /// Replicated-read mode: subscribe the sending switch to replica pushes
  /// for this flow (the store pushes state on every applied write).
  kReplicaSubscribe = 8,
};

enum class AckKind : std::uint8_t {
  kNone = 0,
  /// Lease granted for a new flow (no prior state).
  kLeaseGrantNew = 1,
  /// Lease granted with migrated state attached.
  kLeaseGrantMigrate = 2,
  /// Write applied (or was a duplicate); piggyback returned for release.
  kWriteAck = 3,
  /// Buffered read returned for release.
  kReadReturn = 4,
  /// Snapshot slot recorded.
  kSnapshotAck = 5,
  /// Lease renewal (no write) confirmed.
  kRenewAck = 6,
  /// Lease denied: another switch holds it.  (The store normally buffers
  /// instead of denying; deny is used when buffering capacity is exceeded.)
  kLeaseDenied = 7,
  /// Merge delta joined at the store; carries the merged global state back
  /// so the sending switch can fold remote writers into its local copy.
  kMergeAck = 8,
  /// Unsolicited replica push to a subscribed switch (replicated-read).
  kReplicaPush = 9,
};

/// Fixed byte offsets of the RedPlane header within an encoded message.
/// Every field a chain hop may patch precedes the variable-length key, so
/// its offset is layout-constant — this is what makes in-place patching of
/// forwarded messages safe (DESIGN.md §8).
namespace wire {
constexpr std::size_t kOffMagic = 0;          // u16
constexpr std::size_t kOffType = 2;           // u8
constexpr std::size_t kOffAck = 3;            // u8
constexpr std::size_t kOffSeq = 4;            // u64
constexpr std::size_t kOffSnapshotIndex = 12; // u32
constexpr std::size_t kOffReplyTo = 16;       // u32
constexpr std::size_t kOffChainHop = 20;      // u8
constexpr std::size_t kOffSpanId = 21;        // u64
constexpr std::size_t kOffMode = 29;          // u8 (ConsistencyMode)
constexpr std::size_t kOffKeyKind = 30;       // u8, then the key body
}  // namespace wire

/// A RedPlane protocol message (header + optional state + optional
/// piggybacked output packet).
struct Msg {
  MsgType type = MsgType::kAck;
  AckKind ack = AckKind::kNone;
  /// Per-flow monotonically increasing sequence number (§5.2).
  std::uint64_t seq = 0;
  net::PartitionKey key;
  /// State value: the write payload on kLeaseRenewReq / kSnapshotRepl, the
  /// migrated state on kLeaseGrantMigrate.
  std::vector<std::byte> state;
  /// Snapshot slot index (kSnapshotRepl only).
  std::uint32_t snapshot_index = 0;
  /// Address the final response should be sent to (the requesting switch).
  /// Carried so the tail of a replication chain can answer directly.
  net::Ipv4Addr reply_to;
  /// 0 for a request from a switch; incremented per chain-internal hop.
  std::uint8_t chain_hop = 0;
  /// Observability span id (0 = untraced).  Stamped by the originating
  /// switch, carried verbatim through chain forwarding, and echoed in the
  /// store's response so every trace record of one request's lifecycle
  /// shares an id (obs/spans.h).  Not part of the protocol state machine.
  std::uint64_t span_id = 0;
  /// Consistency mode of the flow this message belongs to (DESIGN.md §14).
  /// Stamped by the originating switch; the store uses it to pick the
  /// apply path (overwrite vs merge) without per-flow app knowledge.
  ConsistencyMode mode = ConsistencyMode::kSingleOwner;
  /// Piggybacked output packet, if any.
  std::optional<net::Packet> piggyback;
  /// Already-serialized piggyback bytes, spliced verbatim into the encoding
  /// when `piggyback` is empty.  Lets a store echo a request's piggyback in
  /// its response without ever parsing or re-serializing the inner packet.
  net::BufferView piggyback_raw;
};

/// Serializes `msg` into payload bytes (everything after the UDP header).
/// Called once per message at its origin; forwarding patches the buffer.
/// Sizes the message first and makes exactly one heap allocation: the
/// header, the state and the piggybacked packet are written in place.
net::Buffer EncodeMsg(const Msg& msg);

/// Same, with `state` as the state value in place of `msg.state`: a sender
/// encodes a flow's state straight from where it lives (a flow table, a
/// store record, a request's bytes) without copying it into the Msg first.
net::Buffer EncodeMsg(const Msg& msg, std::span<const std::byte> state);

/// Parses payload bytes back into a message, including the piggybacked
/// inner packet; nullopt if malformed.
std::optional<Msg> DecodeMsg(std::span<const std::byte> payload);

/// Size in bytes of the RedPlane header alone (no state, no piggyback); used
/// for bandwidth accounting and mirror truncation.
std::size_t HeaderWireSize(const net::PartitionKey& key);

/// A validated, lazily-decoded window onto an encoded message.  Copies share
/// the underlying buffer; accessors read fields at their wire offsets, and
/// the Set* methods patch mutable header fields in place (copy-on-write if
/// the buffer is shared), so chain hops forward without re-encoding.
class MsgView {
 public:
  MsgView() = default;

  /// Validates magic, key kind and section bounds (the piggyback bytes are
  /// NOT parsed — use PiggybackPacket()/DecodeMsg where they are consumed).
  static std::optional<MsgView> Parse(net::BufferView payload);

  MsgType type() const {
    return static_cast<MsgType>(bytes_.U8At(wire::kOffType));
  }
  AckKind ack() const {
    return static_cast<AckKind>(bytes_.U8At(wire::kOffAck));
  }
  std::uint64_t seq() const { return bytes_.U64At(wire::kOffSeq); }
  std::uint32_t snapshot_index() const {
    return bytes_.U32At(wire::kOffSnapshotIndex);
  }
  net::Ipv4Addr reply_to() const {
    return net::Ipv4Addr(bytes_.U32At(wire::kOffReplyTo));
  }
  std::uint8_t chain_hop() const { return bytes_.U8At(wire::kOffChainHop); }
  std::uint64_t span_id() const { return bytes_.U64At(wire::kOffSpanId); }
  ConsistencyMode mode() const {
    return static_cast<ConsistencyMode>(bytes_.U8At(wire::kOffMode));
  }
  const net::PartitionKey& key() const { return key_; }

  /// The state value, as a zero-copy slice of the message bytes.
  net::BufferView state() const { return bytes_.Slice(state_off_, state_len_); }
  bool has_piggyback() const { return piggy_len_ > 0; }
  /// The serialized piggyback, as a zero-copy slice (for verbatim echo).
  net::BufferView piggyback_bytes() const {
    return bytes_.Slice(state_off_ + state_len_, piggy_len_);
  }
  /// Parses the piggybacked inner packet on demand; nullopt if absent or
  /// malformed.  Allocates nothing: the packet's payload is a slice of this
  /// message's buffer, which it keeps alive after the view is gone.
  std::optional<net::Packet> PiggybackPacket() const;

  /// --- in-place header patching (copy-on-write when shared) ---
  void SetType(MsgType t) {
    bytes_.PatchU8(wire::kOffType, static_cast<std::uint8_t>(t));
  }
  void SetAck(AckKind a) {
    bytes_.PatchU8(wire::kOffAck, static_cast<std::uint8_t>(a));
  }
  void SetSeq(std::uint64_t s) { bytes_.PatchU64(wire::kOffSeq, s); }
  void SetSnapshotIndex(std::uint32_t i) {
    bytes_.PatchU32(wire::kOffSnapshotIndex, i);
  }
  void SetChainHop(std::uint8_t h) { bytes_.PatchU8(wire::kOffChainHop, h); }
  void SetSpanId(std::uint64_t s) { bytes_.PatchU64(wire::kOffSpanId, s); }
  void SetMode(ConsistencyMode m) {
    bytes_.PatchU8(wire::kOffMode, static_cast<std::uint8_t>(m));
  }

  /// The full encoded message — forward these bytes verbatim.
  const net::BufferView& bytes() const { return bytes_; }

  /// Materializes header + state into a Msg.  The piggyback stays raw
  /// (`piggyback_raw`), so materializing never parses the inner packet.
  Msg ToMsg() const;

 private:
  net::BufferView bytes_;
  net::PartitionKey key_;
  std::uint32_t state_off_ = 0;
  std::uint16_t state_len_ = 0;
  std::uint16_t piggy_len_ = 0;
};

/// Builds the full UDP packet carrying `msg` from `src_ip` to `dst_ip`.
/// Requests target the store's kRedPlaneUdpPort; acks target the switch's.
net::Packet MakeProtocolPacket(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                               const Msg& msg);

/// Same, but carrying an already-encoded message verbatim (chain forwarding,
/// retransmission): no protocol bytes are touched or copied.
net::Packet MakeProtocolPacketRaw(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                                  net::BufferView payload);

/// True if `pkt` looks like a RedPlane protocol packet (UDP to/from the
/// RedPlane port).
bool IsProtocolPacket(const net::Packet& pkt);

/// Decodes the protocol message carried by `pkt` (which must satisfy
/// IsProtocolPacket); nullopt if the payload is malformed.
std::optional<Msg> DecodeFromPacket(const net::Packet& pkt);

/// Number of EncodeMsg calls since reset — the copy-regression tests assert
/// forwarding paths stay encode-free.
std::uint64_t EncodeCount();
void ResetEncodeCount();

}  // namespace redplane::core
