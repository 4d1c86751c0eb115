#include "net/buffer.h"

#include <algorithm>
#include <cstring>

namespace redplane::net {

namespace {
std::atomic<std::uint64_t> g_deep_copies{0};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

std::pair<Buffer, std::span<std::byte>> Buffer::Allocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<std::byte[]> block =
      std::make_shared_for_overwrite<std::byte[]>(n);
  std::byte* bytes = block.get();
  return {Buffer(std::shared_ptr<std::byte>(std::move(block), bytes), n),
          {bytes, n}};
}

Buffer Buffer::FromVector(std::vector<std::byte>&& bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto owner = std::make_shared<std::vector<std::byte>>(std::move(bytes));
  std::byte* data = owner->data();
  const std::size_t size = owner->size();
  return Buffer(std::shared_ptr<std::byte>(std::move(owner), data), size);
}

Buffer Buffer::CopyOf(std::span<const std::byte> bytes) {
  g_deep_copies.fetch_add(1, std::memory_order_relaxed);
  auto [buffer, out] = Allocate(bytes.size());
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return buffer;
}

std::uint64_t Buffer::DeepCopies() {
  return g_deep_copies.load(std::memory_order_relaxed);
}

std::uint64_t Buffer::Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void Buffer::ResetCounters() {
  g_deep_copies.store(0, std::memory_order_relaxed);
  g_allocations.store(0, std::memory_order_relaxed);
}

std::byte* BufferView::EnsureUnique() {
  if (block_.use_count() != 1) {
    // Clone just the viewed range; the view re-bases onto the clone.
    *this = BufferView(Buffer::CopyOf(span()));
  }
  return block_.get() + offset_;
}

void BufferView::Patch(std::size_t offset,
                       std::span<const std::byte> bytes) {
  if (offset + bytes.size() > len_ || bytes.empty()) return;
  std::memcpy(EnsureUnique() + offset, bytes.data(), bytes.size());
}

void BufferView::PatchU8(std::size_t offset, std::uint8_t v) {
  if (offset + 1 > len_) return;
  EnsureUnique()[offset] = std::byte{v};
}

void BufferView::PatchU16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > len_) return;
  std::byte* p = EnsureUnique() + offset;
  p[0] = std::byte{static_cast<std::uint8_t>(v >> 8)};
  p[1] = std::byte{static_cast<std::uint8_t>(v)};
}

void BufferView::PatchU32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > len_) return;
  std::byte* p = EnsureUnique() + offset;
  p[0] = std::byte{static_cast<std::uint8_t>(v >> 24)};
  p[1] = std::byte{static_cast<std::uint8_t>(v >> 16)};
  p[2] = std::byte{static_cast<std::uint8_t>(v >> 8)};
  p[3] = std::byte{static_cast<std::uint8_t>(v)};
}

void BufferView::PatchU64(std::size_t offset, std::uint64_t v) {
  if (offset + 8 > len_) return;
  PatchU32(offset, static_cast<std::uint32_t>(v >> 32));
  PatchU32(offset + 4, static_cast<std::uint32_t>(v));
}

std::uint8_t BufferView::U8At(std::size_t offset) const {
  if (offset + 1 > len_) return 0;
  return static_cast<std::uint8_t>(data()[offset]);
}

std::uint16_t BufferView::U16At(std::size_t offset) const {
  if (offset + 2 > len_) return 0;
  const std::byte* p = data() + offset;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(p[0]) << 8) |
      static_cast<std::uint16_t>(p[1]));
}

std::uint32_t BufferView::U32At(std::size_t offset) const {
  if (offset + 4 > len_) return 0;
  return (static_cast<std::uint32_t>(U16At(offset)) << 16) |
         U16At(offset + 2);
}

std::uint64_t BufferView::U64At(std::size_t offset) const {
  if (offset + 8 > len_) return 0;
  return (static_cast<std::uint64_t>(U32At(offset)) << 32) |
         U32At(offset + 4);
}

bool operator==(const BufferView& a, const BufferView& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace redplane::net
