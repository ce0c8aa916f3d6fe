// Slab/arena storage primitives for the flat cache (flat_cache.hpp).
//
// NodeSlab hands out stable uint32 indices into chunked node storage with a
// LIFO free list — the chunking means a grow never moves existing nodes, so
// `get()` results stay valid across later insertions, and the LIFO reuse
// discipline matches the slot free list of the reference ClockCache in
// tests/reference/ exactly (required for flat Clock to stay
// sequence-identical to that oracle).
//
// KeyArena packs variable-length byte strings into chunked buffers with
// size-class free lists, so churn recycles their storage instead of
// allocating per entry. The flat cache keeps keys in one; the KV engine
// keeps in one the bytes of each long key past its inline head, followed in
// the same block by the row payload. Keys short enough to live inline in
// the node (the common case: workload keys are "k%09llu") never touch the
// arena at all — the same inline-or-chunked split cachegrand's storage_db
// uses.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace dcache::cache {

/// Chunked storage for out-of-line byte strings. Allocations are rounded up
/// to a size class: 8-byte steps up to kMaxClassed, powers of two past it.
/// Released blocks go on their class's free list and are reused before the
/// bump pointer advances, so the dead blocks a class holds never outnumber
/// its own live high-water mark, whatever sizes later requests ask for.
class KeyArena {
 public:
  struct Ref {
    std::uint32_t chunk = 0;
    std::uint32_t offset = 0;
  };

  /// Most bytes store() takes, both parts together: their power-of-two
  /// class fits 32 bits.
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 31;

  [[nodiscard]] Ref store(std::string_view bytes) { return store(bytes, {}); }

  /// Store `first` and `second` back to back in one block, which release()
  /// takes back with their summed length.
  [[nodiscard]] Ref store(std::string_view first, std::string_view second) {
    const std::uint32_t cap = classBytes(first.size() + second.size());
    auto& freeList = freeListOf(cap);
    Ref ref;
    if (!freeList.empty()) {
      ref = freeList.back();
      freeList.pop_back();
    } else {
      ref = bumpAlloc(cap);
    }
    char* block = chunks_[ref.chunk].get() + ref.offset;
    if (!first.empty()) std::memcpy(block, first.data(), first.size());
    if (!second.empty()) {
      std::memcpy(block + first.size(), second.data(), second.size());
    }
    return ref;
  }

  void release(Ref ref, std::size_t length) {
    // dcache-lint: allow(hot-path-alloc, free-list growth is bounded by the class's live high-water mark, then pure reuse)
    freeListOf(classBytes(length)).push_back(ref);
  }

  [[nodiscard]] std::string_view view(Ref ref,
                                      std::size_t length) const noexcept {
    return {chunks_[ref.chunk].get() + ref.offset, length};
  }

  void clear() noexcept {
    chunks_.clear();
    chunkBytes_.clear();
    tailUsed_ = 0;
    for (auto& freeList : freeByClass_) freeList.clear();
  }

  [[nodiscard]] std::size_t chunkCount() const noexcept {
    return chunks_.size();
  }

 private:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::uint32_t kGranularity = 8;
  static constexpr std::uint32_t kMaxClassed = 4096;
  /// Free lists: one per 8-byte class up to kMaxClassed (index 0 unused),
  /// then one per power of two up to kMaxBytes.
  static constexpr std::size_t kClassCount =
      kMaxClassed / kGranularity + 1 + std::bit_width(kMaxBytes) -
      std::bit_width(kMaxClassed);

  [[nodiscard]] static constexpr std::uint32_t classBytes(
      std::size_t length) noexcept {
    const std::size_t len = length ? length : 1;
    if (len > kMaxClassed) {
      return static_cast<std::uint32_t>(std::bit_ceil(len));
    }
    return static_cast<std::uint32_t>((len + kGranularity - 1) &
                                      ~std::size_t{kGranularity - 1});
  }

  [[nodiscard]] std::vector<Ref>& freeListOf(std::uint32_t cap) noexcept {
    if (cap <= kMaxClassed) return freeByClass_[cap / kGranularity];
    return freeByClass_[kMaxClassed / kGranularity + std::bit_width(cap) -
                        std::bit_width(kMaxClassed)];
  }

  [[nodiscard]] Ref bumpAlloc(std::uint32_t cap) {
    if (chunks_.empty() || tailUsed_ + cap > chunkBytes_.back()) {
      const std::size_t bytes = cap > kChunkBytes ? cap : kChunkBytes;
      // dcache-lint: allow(hot-path-alloc, amortized arena growth: one chunk per 64 KiB of stored bytes, not per entry)
      chunks_.push_back(std::make_unique<char[]>(bytes));
      chunkBytes_.push_back(bytes);  // dcache-lint: allow(hot-path-alloc, grows with the chunk list, one element per 64 KiB chunk)
      tailUsed_ = 0;
    }
    const Ref ref{static_cast<std::uint32_t>(chunks_.size() - 1),
                  static_cast<std::uint32_t>(tailUsed_)};
    tailUsed_ += cap;
    return ref;
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::size_t> chunkBytes_;
  std::size_t tailUsed_ = 0;
  std::vector<std::vector<Ref>> freeByClass_{kClassCount};
};

/// Chunked slab of default-constructible nodes addressed by uint32 index.
/// Reuse is LIFO; `highWater()` is the total number of indices ever handed
/// out (free or not) — the flat clock hand sweeps modulo this, mirroring
/// the reference ClockCache's `slots_.size()`.
template <typename T>
class NodeSlab {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t index = free_.back();
      free_.pop_back();
      return index;
    }
    if (allocated_ % kNodesPerChunk == 0) {
      // dcache-lint: allow(hot-path-alloc, amortized slab growth: one chunk per kNodesPerChunk entries, not per entry)
      chunks_.push_back(std::make_unique<T[]>(kNodesPerChunk));
    }
    return allocated_++;
  }

  /// Resets the node to a default-constructed state and recycles its index.
  void release(std::uint32_t index) {
    (*this)[index] = T{};
    // dcache-lint: allow(hot-path-alloc, free-list growth is bounded by the slab high-water mark, then pure reuse)
    free_.push_back(index);
  }

  [[nodiscard]] T& operator[](std::uint32_t index) noexcept {
    return chunks_[index / kNodesPerChunk][index % kNodesPerChunk];
  }
  [[nodiscard]] const T& operator[](std::uint32_t index) const noexcept {
    return chunks_[index / kNodesPerChunk][index % kNodesPerChunk];
  }

  /// Indices ever allocated (including currently-free ones); 0 after clear.
  [[nodiscard]] std::uint32_t highWater() const noexcept { return allocated_; }

  void clear() noexcept {
    chunks_.clear();
    free_.clear();
    allocated_ = 0;
  }

 private:
  static constexpr std::uint32_t kNodesPerChunk = 1024;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t allocated_ = 0;
};

}  // namespace dcache::cache
