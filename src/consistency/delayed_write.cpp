#include "consistency/delayed_write.hpp"

#include <sstream>

#include "cache/flat_cache.hpp"
#include "consistency/lease.hpp"
#include "rpc/channel.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/kv_engine.hpp"

namespace dcache::consistency {

DelayedWriteOutcome runDelayedWriteScenario(const DelayedWriteConfig& config) {
  DelayedWriteOutcome outcome;
  std::ostringstream log;

  sim::EventLoop loop;
  storage::KvEngine engine;
  // Shards of the owner before (A) and after (B) the reshard.
  cache::FlatCache cacheA(cache::FlatMode::kLru, util::Bytes::mb(1));
  cache::FlatCache cacheB(cache::FlatMode::kLru, util::Bytes::mb(1));

  const std::string key = "acct:42";
  std::uint64_t storageEpoch = 1;  // ownership epoch known to storage

  // Initial state: v1 committed, cached by instance A under epoch 1.
  engine.put(key, storage::StoredValue::sized(100), 1);
  cacheA.put(key, cache::CacheEntry::sized(100, 1));

  // t0: the writer (still instance A, epoch 1) sends v2 — delayed in flight.
  const std::uint64_t writerEpoch = storageEpoch;
  loop.schedule(config.writeDelayMicros, [&] {
    if (config.epochFencing && writerEpoch != storageEpoch) {
      outcome.writeRejected = true;
      log << "[t=" << loop.now() << "] storage REJECTED stale write"
          << " (writer epoch " << writerEpoch << " < " << storageEpoch
          << ")\n";
      return;
    }
    engine.put(key, storage::StoredValue::sized(100), 2);
    log << "[t=" << loop.now() << "] delayed write committed v2\n";
  });

  // t1: reshard — ownership moves to instance B; A's shard is dropped and
  // storage learns the new epoch.
  loop.schedule(config.reshardAtMicros, [&] {
    cacheA.clear();
    ++storageEpoch;
    log << "[t=" << loop.now() << "] reshard: owner A -> B, epoch "
        << storageEpoch << "\n";
  });

  // t1': instance B warms its shard from storage's current value.
  loop.schedule(config.warmReadAtMicros, [&] {
    if (const std::optional<storage::ValueView> v = engine.get(key)) {
      cacheB.put(key, cache::CacheEntry::sized(v->size, v->version));
      log << "[t=" << loop.now() << "] new owner warmed v" << v->version
          << " from storage\n";
    }
  });

  loop.run();

  const cache::CacheEntry* cached = cacheB.peek(key);
  const std::optional<storage::ValueView> stored = engine.get(key);
  outcome.cacheVersion = cached ? cached->version : 0;
  outcome.storageVersion = stored ? stored->version : 0;
  outcome.anomaly = cached && stored && cached->version != stored->version;
  log << "[final] cache v" << outcome.cacheVersion << " / storage v"
      << outcome.storageVersion << (outcome.anomaly ? "  ** ANOMALY **" : "")
      << "\n";
  outcome.history = log.str();
  return outcome;
}

DelayedWriteOutcome runFaultInjectedReshardScenario(
    const FaultInjectedReshardConfig& config) {
  DelayedWriteOutcome outcome;
  std::ostringstream log;

  sim::EventLoop loop;
  storage::KvEngine engine;
  // Shards of the doomed owner (A) and of its successor (B).
  cache::FlatCache cacheA(cache::FlatMode::kLru, util::Bytes::mb(1));
  cache::FlatCache cacheB(cache::FlatMode::kLru, util::Bytes::mb(1));

  // Real fencing machinery: node 0 owns the key's partition under a lease
  // granted by the storage authority; the crash revokes it.
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});
  sim::Tier appTier("app", sim::TierKind::kAppServer, 2);
  sim::Tier authorityTier("kv", sim::TierKind::kKvStorage, 1);
  LeaseManager leases(appTier, authorityTier.node(0), channel);

  sim::FaultSchedule faults;
  faults.crashNode(config.crashAtMicros, sim::TierKind::kAppServer, 0);

  const std::string key = "acct:42";
  engine.put(key, storage::StoredValue::sized(100), 1);
  cacheA.put(key, cache::CacheEntry::sized(100, 1));

  // t0: the writer on node 0 sends v2, stamped with its lease epoch — the
  // RPC is delayed in flight.
  const std::uint64_t writerEpoch = leases.epoch(0);
  loop.schedule(config.writeDelayMicros, [&] {
    if (config.epochFencing && writerEpoch != leases.epoch(0)) {
      outcome.writeRejected = true;
      log << "[t=" << loop.now() << "] storage REJECTED stale write"
          << " (writer epoch " << writerEpoch << " < lease epoch "
          << leases.epoch(0) << ")\n";
      return;
    }
    engine.put(key, storage::StoredValue::sized(100), 2);
    log << "[t=" << loop.now() << "] delayed write committed v2\n";
  });

  // The reshard is *not* scripted here: the fault schedule's crash event
  // takes node 0 down, its volatile shard dies with it, and the lease
  // manager revokes its lease — bumping the epoch storage fences against.
  for (const sim::FaultEvent& event : faults.events()) {
    loop.schedule(event.atMicros, [&, event] {
      if (event.kind != sim::FaultKind::kNodeCrash ||
          event.tier != sim::TierKind::kAppServer) {
        return;
      }
      appTier.node(event.nodeIndex).setUp(false);
      cacheA.clear();
      leases.revoke(event.nodeIndex);
      log << "[t=" << loop.now() << "] fault: node " << event.nodeIndex
          << " crashed; owner A -> B, lease epoch " << leases.epoch(0)
          << "\n";
    });
  }

  // t1': the successor warms its shard from storage's current value.
  loop.schedule(config.warmReadAtMicros, [&] {
    if (const std::optional<storage::ValueView> v = engine.get(key)) {
      cacheB.put(key, cache::CacheEntry::sized(v->size, v->version));
      log << "[t=" << loop.now() << "] new owner warmed v" << v->version
          << " from storage\n";
    }
  });

  loop.run();

  const cache::CacheEntry* cached = cacheB.peek(key);
  const std::optional<storage::ValueView> stored = engine.get(key);
  outcome.cacheVersion = cached ? cached->version : 0;
  outcome.storageVersion = stored ? stored->version : 0;
  outcome.anomaly = cached && stored && cached->version != stored->version;
  log << "[final] cache v" << outcome.cacheVersion << " / storage v"
      << outcome.storageVersion << (outcome.anomaly ? "  ** ANOMALY **" : "")
      << "\n";
  outcome.history = log.str();
  return outcome;
}

double delayedWriteAnomalyRate(std::uint64_t trials, bool epochFencing,
                               util::Pcg32& rng) {
  if (trials == 0) return 0.0;
  std::uint64_t anomalies = 0;
  for (std::uint64_t i = 0; i < trials; ++i) {
    DelayedWriteConfig config;
    config.epochFencing = epochFencing;
    // Randomize the race: the write lands anywhere in [0, 10ms); the
    // reshard and warm-read happen anywhere before that or after.
    config.writeDelayMicros = 1 + rng.nextBounded(10000);
    config.reshardAtMicros = 1 + rng.nextBounded(10000);
    config.warmReadAtMicros = config.reshardAtMicros + 1 +
                              rng.nextBounded(2000);
    if (runDelayedWriteScenario(config).anomaly) ++anomalies;
  }
  return static_cast<double>(anomalies) / static_cast<double>(trials);
}

}  // namespace dcache::consistency
