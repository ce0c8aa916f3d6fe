// Differential oracle for the disaggregated serve path, in the
// test_cache_differential idiom: a tiny sequential reference model — plain
// maps for the far pool and per-server hot fronts plus an explicit
// invalidation log — runs in lockstep with the real Deployment over seeded
// op streams, and every observable must agree at every step: hit/miss per
// op, the hot/far split, one-sided read counts and the invalidation
// fan-out. The keyspace is sized far below both capacities so eviction
// never fires; what's under test is the serve-path state machine, not the
// eviction policy (test_cache_differential owns that).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace dcache {
namespace {

constexpr std::size_t kAppServers = 3;
constexpr std::uint64_t kKeys = 400;
constexpr std::uint64_t kValueSize = 512;

/// What the reference predicts one op will do to the counters.
struct Prediction {
  bool cacheHit = false;
  bool hotHit = false;
  bool farRead = false;       // a one-sided read was issued
  bool farReadHit = false;    // ... and found the slot populated
  std::uint64_t invalidationsDelivered = 0;
};

/// Sequential reference: models exactly the state the serve path consults —
/// which keys each hot front holds, which keys the far pool holds, and the
/// round-robin app pointer — with none of the cost machinery.
class ReferenceModel {
 public:
  Prediction apply(bool isWrite, std::uint64_t keyIndex) {
    const std::size_t app = rr_++ % kAppServers;
    Prediction p;
    if (isWrite) {
      // Write-through: far slot + writer's own hot copy refresh; every
      // peer's copy is invalidated by the writer's fan-out (delivered
      // unconditionally, whether or not the peer held the key — the writer
      // can't know).
      far_.insert(keyIndex);
      hot_[app].insert(keyIndex);
      for (std::size_t i = 0; i < kAppServers; ++i) {
        if (i == app) continue;
        hot_[i].erase(keyIndex);
        ++p.invalidationsDelivered;
      }
      log_.push_back(keyIndex);
      return p;
    }
    if (hot_[app].count(keyIndex) != 0) {
      p.cacheHit = p.hotHit = true;
      return p;
    }
    p.farRead = true;  // hot miss always costs one one-sided read
    if (far_.count(keyIndex) != 0) {
      p.cacheHit = p.farReadHit = true;
      hot_[app].insert(keyIndex);
    } else {
      // Miss: storage read fills the far slot and this server's hot front.
      far_.insert(keyIndex);
      hot_[app].insert(keyIndex);
    }
    return p;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& invalidationLog() const {
    return log_;
  }

 private:
  std::size_t rr_ = 0;
  std::set<std::uint64_t> far_;
  std::set<std::uint64_t> hot_[kAppServers];
  std::vector<std::uint64_t> log_;  // keys whose peers were invalidated
};

void runDifferential(std::uint64_t seed, std::size_t ops) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kDisaggregated;
  core::Deployment deployment(config);
  workload::SyntheticConfig synthetic;
  synthetic.numKeys = kKeys;
  synthetic.valueSize = kValueSize;
  workload::SyntheticWorkload workload(synthetic);
  deployment.populateKv(workload);

  ReferenceModel reference;
  util::Pcg32 rng(seed, 31);
  std::uint64_t expectedHits = 0, expectedHotHits = 0, expectedFarReads = 0,
                expectedFarBytes = 0, expectedInvalidations = 0,
                expectedMisses = 0;

  for (std::size_t step = 0; step < ops; ++step) {
    const std::uint64_t keyIndex = rng.next() % kKeys;
    const bool isWrite = rng.next() % 10 == 0;
    const Prediction p = reference.apply(isWrite, keyIndex);

    workload::Op op;
    op.type = isWrite ? workload::OpType::kWrite : workload::OpType::kRead;
    op.keyIndex = keyIndex;
    op.valueSize = kValueSize;
    const auto result = deployment.serve(op);

    if (!isWrite) {
      ASSERT_EQ(result.cacheHit, p.cacheHit) << "step " << step;
    }
    expectedHits += p.cacheHit ? 1 : 0;
    expectedMisses += (!isWrite && !p.cacheHit) ? 1 : 0;
    expectedHotHits += p.hotHit ? 1 : 0;
    expectedFarReads += p.farRead ? 1 : 0;
    if (p.farRead) {
      expectedFarBytes += cache::kFarSlotHeaderBytes;
      if (p.farReadHit) expectedFarBytes += kValueSize;
    }
    expectedInvalidations += p.invalidationsDelivered;

    const core::ServeCounters& c = deployment.counters();
    ASSERT_EQ(c.cacheHits, expectedHits) << "step " << step;
    ASSERT_EQ(c.cacheMisses, expectedMisses) << "step " << step;
    ASSERT_EQ(c.hotCacheHits, expectedHotHits) << "step " << step;
    ASSERT_EQ(c.farMemoryReads, expectedFarReads) << "step " << step;
    ASSERT_EQ(c.farMemoryBytes, expectedFarBytes) << "step " << step;
    ASSERT_EQ(c.clientInvalidations, expectedInvalidations)
        << "step " << step;
  }
  // One fan-out per logged write, every one delivered to all peers.
  EXPECT_EQ(deployment.counters().writes, reference.invalidationLog().size());
  EXPECT_EQ(deployment.counters().clientInvalidations, expectedInvalidations);
}

TEST(DisaggDifferential, LockstepAgainstSequentialReference) {
  runDifferential(0x5eed, 6000);
  runDifferential(0xd15a, 6000);
}

TEST(DisaggDifferential, LockstepSurvivesWriteHeavyStream) {
  // Same oracle, write ratio cranked to ~50%: the invalidation fan-out and
  // the re-pull path dominate instead of the hot front.
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kDisaggregated;
  core::Deployment deployment(config);
  workload::SyntheticConfig synthetic;
  synthetic.numKeys = kKeys;
  synthetic.valueSize = kValueSize;
  workload::SyntheticWorkload workload(synthetic);
  deployment.populateKv(workload);

  ReferenceModel reference;
  util::Pcg32 rng(0xabcd, 17);
  std::uint64_t expectedInvalidations = 0;
  for (std::size_t step = 0; step < 6000; ++step) {
    const std::uint64_t keyIndex = rng.next() % kKeys;
    const bool isWrite = rng.next() % 2 == 0;
    const Prediction p = reference.apply(isWrite, keyIndex);
    expectedInvalidations += p.invalidationsDelivered;

    workload::Op op;
    op.type = isWrite ? workload::OpType::kWrite : workload::OpType::kRead;
    op.keyIndex = keyIndex;
    op.valueSize = kValueSize;
    const auto result = deployment.serve(op);
    if (!isWrite) {
      ASSERT_EQ(result.cacheHit, p.cacheHit) << "step " << step;
    }
  }
  EXPECT_EQ(deployment.counters().writes, reference.invalidationLog().size());
  EXPECT_EQ(deployment.counters().clientInvalidations,
            expectedInvalidations);
}

}  // namespace
}  // namespace dcache
