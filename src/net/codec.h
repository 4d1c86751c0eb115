// Byte-level serialization of packets.
//
// All multi-byte fields are network byte order (big-endian).  Parse errors
// are reported via std::optional rather than exceptions: a malformed frame on
// a network is an expected input, not a programming error.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "net/buffer.h"
#include "net/packet.h"

namespace redplane::net {

namespace detail {
/// Stores `v` big-endian at `p` (the compiler folds this into one
/// byte-swapped store).
template <typename T>
inline void StoreBE(std::byte* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)))};
  }
}
}  // namespace detail

/// Appends big-endian integers to a growable byte vector.  Apps and tests
/// build small payloads with it; protocol messages use SpanWriter.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(std::byte{v}); }
  void U16(std::uint16_t v) { Append(v); }
  void U32(std::uint32_t v) { Append(v); }
  void U64(std::uint64_t v) { Append(v); }
  void Bytes(std::span<const std::byte> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  std::size_t Size() const { return out_.size(); }
  /// Overwrites a previously written 16-bit field at `offset`.
  void PatchU16(std::size_t offset, std::uint16_t v) {
    assert(offset + 2 <= out_.size());
    detail::StoreBE(out_.data() + offset, v);
  }

 private:
  /// One resize per field, not one push_back per byte.
  template <typename T>
  void Append(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    detail::StoreBE(out_.data() + at, v);
  }

  std::vector<std::byte>& out_;
};

/// Writes big-endian integers in place into a span sized up front (the
/// size-first encoders: Buffer::Allocate, then fill).  Writing past the end
/// is a programming error.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::byte> out) : out_(out) {}

  void U8(std::uint8_t v) { Put(v); }
  void U16(std::uint16_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void Bytes(std::span<const std::byte> data) {
    assert(pos_ + data.size() <= out_.size());
    if (!data.empty()) {
      std::memcpy(out_.data() + pos_, data.data(), data.size());
    }
    pos_ += data.size();
  }
  void Zeros(std::size_t n) {
    assert(pos_ + n <= out_.size());
    if (n != 0) std::memset(out_.data() + pos_, 0, n);
    pos_ += n;
  }

  /// Bytes written so far.
  std::size_t Size() const { return pos_; }
  std::span<const std::byte> Written() const { return out_.first(pos_); }
  /// The unwritten tail, for a nested encoder to fill.
  std::span<std::byte> Rest() const { return out_.subspan(pos_); }
  /// Overwrites a previously written 16-bit field at `offset`.
  void PatchU16(std::size_t offset, std::uint16_t v) {
    assert(offset + 2 <= pos_);
    detail::StoreBE(out_.data() + offset, v);
  }

 private:
  template <typename T>
  void Put(T v) {
    assert(pos_ + sizeof(T) <= out_.size());
    detail::StoreBE(out_.data() + pos_, v);
    pos_ += sizeof(T);
  }

  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

/// Reads big-endian integers from a byte buffer; all reads are bounds
/// checked and flip a sticky error flag on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  /// Copies the next `out.size()` bytes into `out` (zeros on overrun).
  void Read(std::span<std::byte> out);
  void Skip(std::size_t n);

  /// Offset of the next unread byte.
  std::size_t Pos() const { return pos_; }
  std::size_t Remaining() const { return data_.size() - pos_; }
  bool ok() const { return ok_; }

 private:
  bool Ensure(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Exact number of bytes Serialize writes for `p`: headers, payload and pad
/// bytes.  Unlike Packet::WireSize this never rounds up to the 64 B minimum
/// Ethernet frame (Serialize does not pad short frames).
std::size_t SerializedSize(const Packet& p);

/// Writes `p`'s wire bytes (Ethernet/IP/UDP-or-TCP/payload) into `out`,
/// which must be exactly SerializedSize(p) bytes.  Pad bytes are written as
/// zeros; length and checksum fields are computed.
void SerializeInto(std::span<std::byte> out, const Packet& p);

/// SerializeInto a fresh vector.
std::vector<std::byte> Serialize(const Packet& p);

/// Parses wire bytes back into a structured packet.  The parsed packet's
/// `payload` is a zero-copy slice of `wire` holding everything after the
/// innermost recognized header (pad bytes are not distinguishable from
/// payload on the wire, so they come back inside `payload`); it keeps
/// `wire`'s buffer alive.  Returns nullopt on malformed input or bad
/// checksums.
std::optional<Packet> Parse(BufferView wire);

/// --- batch envelope (DESIGN.md §10) ---
///
/// Frames N already-encoded messages as one payload:
///
///   magic(u16) | count(u16) | { len(u32) | bytes }*count
///
/// The envelope is payload-agnostic: sub-messages are opaque byte runs, so
/// the net layer never re-serializes (or even understands) what it wraps.
/// The magic is distinct from any inner protocol's so a one-lookahead
/// classifier can tell envelope from single message.

/// First two payload bytes of a batch envelope frame.
constexpr std::uint16_t kBatchMagic = 0xB47C;

/// Number of framing bytes for an envelope of `count` sub-messages (header
/// plus per-sub length prefixes); used for bandwidth accounting.
constexpr std::size_t BatchOverheadBytes(std::size_t count) {
  return 4 + 4 * count;
}

/// True if `payload` starts with the batch magic.
bool IsBatchFrame(const BufferView& payload);

/// Concatenates already-encoded sub-messages into one envelope frame.  One
/// backing-store allocation; each sub-message is memcpy'd verbatim — no
/// re-serialization of its contents.  An empty span yields a valid empty
/// envelope (count 0).
BufferView EncodeBatchEnvelope(std::span<const BufferView> msgs);

/// Zero-copy view of a parsed envelope: `at(i)` slices share the frame's
/// backing buffer, so unpacking a batch allocates nothing but the offset
/// table.
class BatchView {
 public:
  /// Validates the magic, the count, and every sub-message length against
  /// the frame bounds; nullopt on truncation or trailing garbage.
  static std::optional<BatchView> Parse(BufferView frame);

  std::size_t size() const { return subs_.size(); }
  bool empty() const { return subs_.empty(); }
  const BufferView& at(std::size_t i) const { return subs_[i]; }
  const std::vector<BufferView>& subs() const { return subs_; }

 private:
  std::vector<BufferView> subs_;
};

}  // namespace redplane::net
