// Database facade tests: the KV fast path, version checks (§5.5 cost
// shape), replication accounting, block-cache effects and the conservation
// property that every microsecond charged lands in exactly one
// (node, component) cell.
#include <gtest/gtest.h>

#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"

namespace dcache::storage {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest()
      : sqlTier_("sql", sim::TierKind::kSqlFrontend, 3),
        kvTier_("kv", sim::TierKind::kKvStorage, 3),
        client_("client", sim::TierKind::kClient),
        channel_(network_, rpc::SerializationModel{}),
        db_(sqlTier_, kvTier_, channel_) {}

  [[nodiscard]] double totalCpu() const {
    return sqlTier_.aggregateCpu().totalMicros() +
           kvTier_.aggregateCpu().totalMicros() +
           client_.cpu().totalMicros();
  }

  sim::NetworkModel network_;
  sim::Tier sqlTier_;
  sim::Tier kvTier_;
  sim::Node client_;
  rpc::Channel channel_;
  Database db_;
};

TEST_F(DatabaseTest, ReadAfterLoad) {
  db_.loadValue("k1", 4096);
  const auto read = db_.readValue(client_, "k1");
  EXPECT_TRUE(read.found);
  EXPECT_EQ(read.size, 4096u);
  EXPECT_GT(read.version, 0u);
  EXPECT_GT(read.latencyMicros, 0.0);

  const auto missing = db_.readValue(client_, "nope");
  EXPECT_FALSE(missing.found);
}

TEST_F(DatabaseTest, WriteBumpsVersionMonotonically) {
  const auto w1 = db_.writeValue(client_, "k", 100);
  const auto w2 = db_.writeValue(client_, "k", 200);
  EXPECT_GT(w2.version, w1.version);
  const auto read = db_.readValue(client_, "k");
  EXPECT_EQ(read.size, 200u);
  EXPECT_EQ(read.version, w2.version);
}

TEST_F(DatabaseTest, WritesChargeReplicationOnFollowers) {
  db_.writeValue(client_, "k", 1000);
  // Leader + both followers must show replication CPU (3-way groups).
  std::size_t replicasCharged = 0;
  for (std::size_t i = 0; i < kvTier_.size(); ++i) {
    if (kvTier_.node(i).cpu().micros(sim::CpuComponent::kReplication) > 0.0) {
      ++replicasCharged;
    }
  }
  EXPECT_EQ(replicasCharged, 3u);
  EXPECT_EQ(db_.raft().committedIndex(), 1u);
}

TEST_F(DatabaseTest, SecondReadHitsBlockCache) {
  db_.loadValue("hot", 8192);
  const auto first = db_.readValue(client_, "hot");   // cold: disk
  const double diskAfterFirst = kvTier_.aggregateCpu().micros(
      sim::CpuComponent::kDiskIo);
  EXPECT_GT(diskAfterFirst, 0.0);
  const auto second = db_.readValue(client_, "hot");  // warm: block cache
  EXPECT_DOUBLE_EQ(
      kvTier_.aggregateCpu().micros(sim::CpuComponent::kDiskIo),
      diskAfterFirst);
  EXPECT_LT(second.latencyMicros, first.latencyMicros);
  EXPECT_EQ(db_.blockCacheHits(), 1u);
  EXPECT_EQ(db_.blockCacheMisses(), 1u);
}

TEST_F(DatabaseTest, VersionCheckReturnsTinyResponseButPaysFullPath) {
  db_.loadValue("k", 100000);  // 100 KB row
  db_.readValue(client_, "k");  // warm the block cache

  network_.clearCounters();
  const std::uint64_t bytesBefore = network_.bytesSent();
  const double sqlBefore = sqlTier_.aggregateCpu().totalMicros();

  const auto check = db_.versionCheck(client_, "k");
  EXPECT_TRUE(check.found);
  EXPECT_GT(check.version, 0u);

  // The SQL front end paid parse/plan again — the §5.5 point.
  EXPECT_GT(sqlTier_.aggregateCpu().totalMicros(), sqlBefore + 50.0);
  // The row (100 KB) crossed the front-end <-> KV hop even though the
  // client got only a handful of bytes back.
  EXPECT_GT(network_.bytesSent() - bytesBefore, 100000u);
}

TEST_F(DatabaseTest, VersionCheckCheaperThanFullReadButComparable) {
  db_.loadValue("k", 65536);
  db_.readValue(client_, "k");  // warm
  sim::Tier probeTier("probe", sim::TierKind::kAppServer, 1);
  sim::Node& probe = probeTier.node(0);

  // Measure the app-visible CPU of a read vs a version check.
  const auto read = db_.readValue(probe, "k");
  const double cpuAfterRead = probe.cpu().totalMicros();
  const auto check = db_.versionCheck(probe, "k");
  const double checkCpu = probe.cpu().totalMicros() - cpuAfterRead;
  EXPECT_GT(read.latencyMicros, 0.0);
  EXPECT_GT(check.latencyMicros, 0.0);
  // The check saves the client-side value deserialization…
  EXPECT_LT(checkCpu, cpuAfterRead);
  // …but is nowhere near free (it is a full storage round trip).
  EXPECT_GT(checkCpu, cpuAfterRead * 0.1);
}

TEST_F(DatabaseTest, VersionCheckRowAndPeek) {
  db_.createTable(TableSchema("t",
                              {Column{"id", ColumnType::kInt},
                               Column{"v", ColumnType::kString}},
                              0));
  db_.loadRow("t", Row{{std::int64_t{7}, std::string("x")}});
  const auto peek = db_.peekRowVersion("t", "7");
  ASSERT_TRUE(peek.has_value());

  const auto check = db_.versionCheckRow(client_, "t", "7");
  EXPECT_TRUE(check.found);
  EXPECT_EQ(check.version, *peek);

  EXPECT_FALSE(db_.peekRowVersion("t", "8").has_value());
  EXPECT_FALSE(db_.versionCheckRow(client_, "t", "8").found);
}

TEST_F(DatabaseTest, PeekValueVersionMatchesRead) {
  db_.writeValue(client_, "k", 10);
  const auto read = db_.readValue(client_, "k");
  EXPECT_EQ(db_.peekValueVersion("k"), read.version);
}

TEST_F(DatabaseTest, CpuConservation) {
  // Total CPU across nodes equals the sum over all (node, component)
  // cells — no work is double-counted or lost.
  db_.loadValue("k", 2048);
  for (int i = 0; i < 10; ++i) {
    db_.readValue(client_, "k");
    db_.writeValue(client_, "k", 2048);
    db_.versionCheck(client_, "k");
  }
  for (const sim::Tier* tier : {&sqlTier_, &kvTier_}) {
    for (std::size_t n = 0; n < tier->size(); ++n) {
      const sim::CpuMeter& cpu = tier->node(n).cpu();
      double sum = 0.0;
      for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
        sum += cpu.micros(static_cast<sim::CpuComponent>(c));
      }
      EXPECT_NEAR(sum, cpu.totalMicros(), 1e-6);
    }
  }
}

TEST_F(DatabaseTest, StoredBytesTrackLiveData) {
  db_.loadValue("a", 1000);
  db_.loadValue("b", 500);
  EXPECT_EQ(db_.totalStoredBytes().count(), 1500u);
  db_.writeValue(client_, "a", 100);  // replaces
  EXPECT_EQ(db_.totalStoredBytes().count(), 600u);
}

}  // namespace
}  // namespace dcache::storage
