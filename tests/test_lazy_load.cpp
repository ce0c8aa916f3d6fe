// Lockstep test of the lazy KV bulk load: one Database loads a keyspace
// through Database::loadValueRange, a twin on identical tiers loads the same
// names and sizes by a loop of loadValue, and one seeded stream of reads,
// writes, version checks, peeks, loads and stored-byte totals drives both. After every step the results, the CPU meters of every node,
// the network's byte count and the block caches' hit and miss counts must
// be equal: when a key is materialized never shows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/channel.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace dcache::storage {
namespace {

/// A Database on its own tiers, channel and client.
struct Side {
  sim::NetworkModel network;
  sim::Tier sqlTier{"sql", sim::TierKind::kSqlFrontend, 2};
  sim::Tier kvTier{"kv", sim::TierKind::kKvStorage, 3};
  sim::Node client{"client", sim::TierKind::kClient};
  rpc::Channel channel{network, rpc::SerializationModel{}};
  Database db{sqlTier, kvTier, channel, config()};

  static Database::Config config() {
    Database::Config c;
    c.blockCachePerNode = util::Bytes::kb(64);  // small: hits and misses
    return c;
  }
};

class LazyLoad : public ::testing::Test {
 protected:
  /// Load `sizes` lazily into lazy_ and by the loadValue loop into eager_.
  void load(const std::vector<std::uint64_t>& sizes) {
    lazy_.db.loadValueRange(sizes, workload::keyNameTo, workload::keyIndexOf);
    for (std::uint64_t i = 0; i < sizes.size(); ++i) {
      eager_.db.loadValue(workload::keyName(i), sizes[i]);
    }
  }

  /// Both sides metered alike so far.
  void expectSameMeters() {
    const auto sameTier = [](const sim::Tier& a, const sim::Tier& b) {
      for (std::size_t n = 0; n < a.size(); ++n) {
        for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
          const auto component = static_cast<sim::CpuComponent>(c);
          EXPECT_EQ(a.node(n).cpu().micros(component),
                    b.node(n).cpu().micros(component))
              << a.name() << " node " << n << " component " << c;
        }
      }
    };
    sameTier(lazy_.sqlTier, eager_.sqlTier);
    sameTier(lazy_.kvTier, eager_.kvTier);
    EXPECT_EQ(lazy_.client.cpu().totalMicros(),
              eager_.client.cpu().totalMicros());
    EXPECT_EQ(lazy_.network.bytesSent(), eager_.network.bytesSent());
    EXPECT_EQ(lazy_.db.blockCacheHits(), eager_.db.blockCacheHits());
    EXPECT_EQ(lazy_.db.blockCacheMisses(), eager_.db.blockCacheMisses());
    EXPECT_EQ(lazy_.db.raft().committedIndex(),
              eager_.db.raft().committedIndex());
  }

  void read(const std::string& key) {
    const auto a = lazy_.db.readValue(lazy_.client, key);
    const auto b = eager_.db.readValue(eager_.client, key);
    EXPECT_EQ(a.found, b.found) << key;
    EXPECT_EQ(a.size, b.size) << key;
    EXPECT_EQ(a.version, b.version) << key;
    EXPECT_EQ(a.latencyMicros, b.latencyMicros) << key;
  }
  void write(const std::string& key, std::uint64_t size) {
    const auto a = lazy_.db.writeValue(lazy_.client, key, size);
    const auto b = eager_.db.writeValue(eager_.client, key, size);
    EXPECT_EQ(a.version, b.version) << key;
    EXPECT_EQ(a.latencyMicros, b.latencyMicros) << key;
  }
  void check(const std::string& key) {
    const auto a = lazy_.db.versionCheck(lazy_.client, key);
    const auto b = eager_.db.versionCheck(eager_.client, key);
    EXPECT_EQ(a.found, b.found) << key;
    EXPECT_EQ(a.version, b.version) << key;
    EXPECT_EQ(a.latencyMicros, b.latencyMicros) << key;
  }
  void peek(const std::string& key) {
    const std::uint64_t pending = lazy_.db.pendingRangeKeys();
    EXPECT_EQ(lazy_.db.peekValueVersion(key), eager_.db.peekValueVersion(key))
        << key;
    EXPECT_EQ(lazy_.db.pendingRangeKeys(), pending) << "a peek materialized";
  }
  void loadOne(const std::string& key, std::uint64_t size) {
    lazy_.db.loadValue(key, size);
    eager_.db.loadValue(key, size);
  }
  void storedBytes() {
    const std::uint64_t pending = lazy_.db.pendingRangeKeys();
    EXPECT_EQ(lazy_.db.totalStoredBytes().count(),
              eager_.db.totalStoredBytes().count());
    EXPECT_EQ(lazy_.db.pendingRangeKeys(), pending)
        << "a byte total materialized";
  }

  /// `steps` seeded operations over the `rangeKeys` range keys, the next
  /// 20 indexes past them and keys no index names, checked after each.
  void drive(std::uint64_t seed, std::uint64_t rangeKeys, int steps) {
    util::Pcg32 rng(seed, 3);
    std::string key;
    const auto pickKey = [&] {
      const std::uint32_t kind = rng.nextBounded(10);
      if (kind < 7 && rangeKeys > 0) {
        workload::keyNameTo(
            rng.nextBounded(static_cast<std::uint32_t>(rangeKeys)), key);
      } else if (kind < 9) {
        workload::keyNameTo(rangeKeys + rng.nextBounded(20), key);
      } else {
        key = "other-" + std::to_string(rng.nextBounded(5));
      }
      return key;
    };
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::uint32_t op = rng.nextBounded(10);
      const std::uint64_t size = rng.nextBounded(3000);
      switch (op) {
        case 0:
        case 1: read(pickKey()); break;
        case 2: write(pickKey(), size); break;
        case 3: check(pickKey()); break;
        case 4: peek(pickKey()); break;
        case 5: loadOne(pickKey(), size); break;
        default: storedBytes(); break;
      }
      expectSameMeters();
      if (HasFailure()) return;  // one divergence is enough to report
    }
  }

  /// Random sizes, zero included.
  static std::vector<std::uint64_t> sizes(std::uint64_t seed, std::size_t n) {
    util::Pcg32 rng(seed, 5);
    std::vector<std::uint64_t> out(n);
    for (std::uint64_t& s : out) s = rng.nextBounded(6000);
    return out;
  }

  Side lazy_;
  Side eager_;
};

TEST_F(LazyLoad, SeededStreamMatchesTheLoadValueLoop) {
  constexpr std::size_t kKeys = 400;
  load(sizes(11, kKeys));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), kKeys);
  // Rows beside the range, whose timestamps come after its keys'.
  for (Side* side : {&lazy_, &eager_}) {
    side->db.createTable(TableSchema(
        "t", {Column{"id", ColumnType::kInt}, Column{"v", ColumnType::kString}},
        0));
    for (std::int64_t id = 0; id < 30; ++id) {
      side->db.loadRow("t", Row{{id, std::string("row")}});
    }
  }
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    drive(seed, kKeys, 400);
    ASSERT_FALSE(HasFailure());
  }
  storedBytes();
  // A read of every range key materializes whatever is left.
  for (std::uint64_t i = 0; i < kKeys; ++i) read(workload::keyName(i));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 0u);
  expectSameMeters();
  drive(4, kKeys, 200);
}

TEST_F(LazyLoad, FirstTouchMaterializesOnlyWhatItNeeds) {
  load(sizes(12, 50));
  storedBytes();
  peek(workload::keyName(3));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 50u);
  read(workload::keyName(3));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 49u);
  write(workload::keyName(4), 10);
  check(workload::keyName(5));
  loadOne(workload::keyName(6), 20);
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 46u);
  read("other-1");  // no range key
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 46u);
  expectSameMeters();
}

TEST_F(LazyLoad, EmptyRangeLoadsNothing) {
  load({});
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 0u);
  storedBytes();
  // A range after an empty one is still lazy: nothing was loaded.
  load(sizes(22, 30));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 30u);
  drive(23, 30, 300);
  load({});
  storedBytes();
}

TEST_F(LazyLoad, LoadIntoANonEmptyDatabaseRunsTheLoop) {
  loadOne(workload::keyName(5), 77);  // an older version of range key 5
  loadOne("other-1", 9);
  load(sizes(31, 40));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 0u);
  storedBytes();
  peek(workload::keyName(5));
  drive(32, 40, 300);
}

TEST_F(LazyLoad, SecondRangeLoadRunsTheLoop) {
  load(sizes(41, 60));
  read(workload::keyName(1));
  write(workload::keyName(2), 70);
  // Overlaps the first range and runs past it; keys 3.. were never touched.
  load(sizes(42, 80));
  EXPECT_EQ(lazy_.db.pendingRangeKeys(), 0u);
  storedBytes();
  drive(43, 80, 300);
}

}  // namespace
}  // namespace dcache::storage
