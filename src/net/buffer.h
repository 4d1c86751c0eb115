// Immutable, refcounted byte buffers and cheap views over them.
//
// `Buffer` owns a byte array behind a shared_ptr: copying a Buffer (or a
// `BufferView` slice of one) bumps a refcount instead of memcpying bytes.
// A buffer made by `Allocate` or `CopyOf` is one heap block holding both the
// refcount and the bytes; `FromVector` adopts a vector's storage instead.
// This is what makes hop-to-hop packet forwarding in the simulator a pointer
// bump: `Packet::payload` is a BufferView, so a packet crossing ten links
// shares one backing store with every queued copy of itself.
//
// Ownership/mutation contract (see DESIGN.md §8):
//   - A Buffer's bytes are immutable once the buffer is shared (refcount >1).
//   - `BufferView::Patch*` is the only mutation door: it writes in place when
//     the view holds the sole reference, and transparently copies-on-write
//     (cloning just the viewed range) otherwise.  Callers therefore never
//     observe another holder's bytes changing under them.
//   - Slicing (`Slice`, mirror truncation) never copies.
//
// The static `DeepCopies()` / `Allocations()` counters instrument the
// copy-regression tests in tests/zero_copy_test.cc; they are process-wide
// and not synchronized beyond atomicity (the simulator is single-threaded).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace redplane::net {

/// Refcounted immutable byte array.  Copies are O(1).
class Buffer {
 public:
  Buffer() = default;

  /// A fresh `n`-byte buffer in one heap block (refcount and bytes
  /// together), and the span to write its bytes through.  The bytes start
  /// uninitialised; fill them before the buffer is shared.
  static std::pair<Buffer, std::span<std::byte>> Allocate(std::size_t n);

  /// Takes ownership of `bytes` without copying.
  static Buffer FromVector(std::vector<std::byte>&& bytes);

  /// Deep-copies `bytes` into a fresh single-block backing store.
  static Buffer CopyOf(std::span<const std::byte> bytes);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::byte* data() const { return data_.get(); }
  std::span<const std::byte> span() const { return {data(), size()}; }
  operator std::span<const std::byte>() const { return span(); }  // NOLINT

  /// True when this handle is the only reference to the backing store (and
  /// in-place mutation is therefore unobservable).
  bool unique() const { return data_ && data_.use_count() == 1; }

  explicit operator bool() const { return static_cast<bool>(data_); }

  /// --- instrumentation (for copy/alloc regression tests) ---
  /// Number of byte-copying backing-store creations since reset.
  static std::uint64_t DeepCopies();
  /// Number of backing stores created since reset (copying or not).
  static std::uint64_t Allocations();
  static void ResetCounters();

 private:
  friend class BufferView;
  Buffer(std::shared_ptr<std::byte> data, std::size_t size)
      : data_(std::move(data)), size_(size) {}

  /// Points at the first byte; owns the block (or the adopted vector)
  /// through shared_ptr's aliasing constructor.
  std::shared_ptr<std::byte> data_;
  std::size_t size_ = 0;
};

/// A [offset, offset+len) window into a Buffer.  Copies share the backing
/// store; `Slice` re-windows without copying.  Implicitly converts from
/// std::vector so legacy "build bytes locally, assign to payload" call sites
/// keep working (a moved-from vector is adopted without copying).
class BufferView {
 public:
  BufferView() = default;

  /// Views the whole buffer.
  BufferView(Buffer buffer)  // NOLINT(google-explicit-constructor)
      : block_(std::move(buffer.data_)), offset_(0), len_(buffer.size_) {}

  /// Adopts the vector's storage — no byte copy.
  BufferView(std::vector<std::byte>&& bytes)  // NOLINT
      : BufferView(Buffer::FromVector(std::move(bytes))) {}

  /// Deep-copies (legacy convenience; counted by Buffer::DeepCopies).
  BufferView(const std::vector<std::byte>& bytes)  // NOLINT
      : BufferView(Buffer::CopyOf(bytes)) {}

  BufferView(std::initializer_list<std::byte> bytes)  // NOLINT
      : BufferView(Buffer::CopyOf({bytes.begin(), bytes.size()})) {}

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::byte* data() const { return block_.get() + offset_; }
  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + len_; }
  std::byte operator[](std::size_t i) const { return data()[i]; }

  std::span<const std::byte> span() const { return {data(), len_}; }
  operator std::span<const std::byte>() const { return span(); }  // NOLINT

  /// Sub-window relative to this view; zero-copy.
  BufferView Slice(std::size_t offset, std::size_t len) const {
    return BufferView(block_, offset_ + offset, len);
  }
  /// First `len` bytes (zero-copy) — mirror truncation.
  BufferView Prefix(std::size_t len) const {
    return Slice(0, len < len_ ? len : len_);
  }

  std::vector<std::byte> ToVector() const { return {begin(), end()}; }

  void clear() { *this = BufferView(); }

  /// --- in-place patching (copy-on-write) ---
  /// Overwrites bytes at `offset` (relative to the view).  Mutates in place
  /// when this view holds the sole reference to the backing store; otherwise
  /// clones the viewed range first (counted as a deep copy).  Out-of-range
  /// patches are ignored.
  void Patch(std::size_t offset, std::span<const std::byte> bytes);
  void PatchU8(std::size_t offset, std::uint8_t v);
  void PatchU16(std::size_t offset, std::uint16_t v);
  void PatchU32(std::size_t offset, std::uint32_t v);
  void PatchU64(std::size_t offset, std::uint64_t v);

  /// Big-endian reads (bounds-checked; 0 on overrun).
  std::uint8_t U8At(std::size_t offset) const;
  std::uint16_t U16At(std::size_t offset) const;
  std::uint32_t U32At(std::size_t offset) const;
  std::uint64_t U64At(std::size_t offset) const;

  /// True when both views window the same backing store.
  bool SharesBuffer(const BufferView& other) const {
    return block_ == other.block_;
  }

 private:
  BufferView(std::shared_ptr<std::byte> block, std::size_t offset,
             std::size_t len)
      : block_(std::move(block)), offset_(offset), len_(len) {}

  /// Ensures sole ownership of the viewed range; returns mutable base ptr.
  std::byte* EnsureUnique();

  /// The backing store's first byte (owning); the view is
  /// [block_ + offset_, block_ + offset_ + len_).
  std::shared_ptr<std::byte> block_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

bool operator==(const BufferView& a, const BufferView& b);
inline bool operator!=(const BufferView& a, const BufferView& b) {
  return !(a == b);
}

}  // namespace redplane::net
