#include "storage/block_cache.hpp"

namespace dcache::storage {

std::string BlockCache::blockIdFor(std::string_view key) {
  std::string out;
  blockIdTo(util::hashKey(key), out);
  return out;
}

void BlockCache::blockIdTo(std::uint64_t keyHash, std::string& out) {
  // Dropping 4 of the hash's 64 bits leaves 2^60 blocks, so two keys share
  // one only on a near-impossible hash match: this does not group
  // neighbouring keys the way a real block does (see blockIdFor).
  std::uint64_t block = keyHash >> 4;
  char buf[17];
  buf[0] = 'b';
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 16; i > 0; --i) {
    buf[i] = kHex[block & 0xF];
    block >>= 4;
  }
  out.assign(buf, sizeof buf);
}

bool BlockCache::touchRead(std::uint64_t keyHash, std::uint64_t rowBytes) {
  blockIdTo(keyHash, idScratch_);
  if (cache_.get(idScratch_) != nullptr) return true;
  cache_.put(idScratch_, cache::CacheEntry::sized(blockSizeFor(rowBytes)));
  return false;
}

void BlockCache::touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes) {
  blockIdTo(keyHash, idScratch_);
  cache_.put(idScratch_, cache::CacheEntry::sized(blockSizeFor(rowBytes)));
}

void BlockCache::invalidate(std::uint64_t keyHash) {
  blockIdTo(keyHash, idScratch_);
  cache_.erase(idScratch_);
}

}  // namespace dcache::storage
