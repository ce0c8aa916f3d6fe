#include "storage/kv_range.hpp"

#include <numeric>
#include <utility>

namespace dcache::storage {

KvRange::KvRange(std::vector<std::uint64_t> sizes, KeyIndexFn index,
                 std::uint64_t firstTs)
    : sizes_(std::move(sizes)),
      index_(index),
      firstTs_(firstTs),
      pending_(sizes_.size()),
      pendingBytes_(std::accumulate(sizes_.begin(), sizes_.end(),
                                    std::uint64_t{0})) {}

void KvRange::materialized(std::uint64_t index) noexcept {
  pendingBytes_ -= sizes_[index];
  if (--pending_ == 0) *this = KvRange{};
}

}  // namespace dcache::storage
