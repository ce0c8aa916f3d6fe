// The KV read path allocates nothing once warm: Database::readValue and
// versionCheck on resident keys build no per-statement container and grow
// no engine, block-cache or meter state. This executable replaces the
// global operator new to count calls, so it is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"

namespace {
std::atomic<std::uint64_t> gNewCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dcache::storage {
namespace {

TEST(KvReadAllocations, ResidentReadsAndVersionChecksAllocateNothing) {
  sim::NetworkModel network;
  sim::Tier sqlTier("sql", sim::TierKind::kSqlFrontend, 3);
  sim::Tier kvTier("kv", sim::TierKind::kKvStorage, 3);
  sim::Node client("client", sim::TierKind::kClient);
  rpc::Channel channel(network, rpc::SerializationModel{});
  Database db(sqlTier, kvTier, channel);

  // Keys shaped like the workloads' ("k%09llu").
  constexpr std::size_t kKeys = 1000;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = std::to_string(1000000000 + i);
    key[0] = 'k';
    db.loadValue(key, 64 + i);
    keys.push_back(std::move(key));
  }
  // One warm pass loads every key's block into its node's block cache.
  for (const std::string& key : keys) {
    ASSERT_TRUE(db.readValue(client, key).found);
    ASSERT_TRUE(db.versionCheck(client, key).found);
  }

  constexpr std::size_t kCalls = 20000;  // half reads, half version checks
  std::size_t found = 0;
  const std::uint64_t before = gNewCalls.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCalls / 2; ++i) {
    const std::string& key = keys[i % kKeys];
    found += db.readValue(client, key).found ? 1 : 0;
    found += db.versionCheck(client, key).found ? 1 : 0;
  }
  const std::uint64_t allocations =
      gNewCalls.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(found, kCalls);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCalls
                             << " resident KV reads and version checks";
}

}  // namespace
}  // namespace dcache::storage
