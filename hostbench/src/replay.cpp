#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "cache/kv_cache.hpp"
#include "core/calibration.hpp"
#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "util/hash.hpp"
#include "workload/uc_trace.hpp"

namespace hostbench {

namespace core = dcache::core;
namespace sim = dcache::sim;
namespace wl = dcache::workload;
using dcache::storage::Value;

double quantileNs(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  constexpr double kHalfWindow = 0.001;
  const double last = static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(
      std::floor(std::max(0.0, q - kHalfWindow) * last));
  const auto hi = static_cast<std::size_t>(
      std::ceil(std::min(1.0, q + kHalfWindow) * last));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo + 1);
}

namespace {

/// Collects the host time of individual calls.
class CallTimer {
 public:
  template <typename F>
  auto time(F&& call) {
    const std::int64_t t0 = nowNs();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      samples_.push_back(static_cast<std::uint32_t>(nowNs() - t0));
    } else {
      auto result = call();
      samples_.push_back(static_cast<std::uint32_t>(nowNs() - t0));
      return result;
    }
  }
  [[nodiscard]] LayerTiming result() {
    LayerTiming t;
    t.calls = samples_.size();
    if (samples_.empty()) return t;
    double sum = 0.0;
    for (const std::uint32_t s : samples_) sum += s;
    t.meanNs = sum / static_cast<double>(samples_.size());
    t.p50Ns = quantileNs(samples_, 0.5);
    return t;
  }

 private:
  std::vector<std::uint32_t> samples_;
};

/// Cap on replayed calls per layer, so a traced run stays short.
constexpr std::size_t kMaxKvCalls = 200000;
constexpr std::size_t kMaxObjectCalls = 4000;

std::string keyFor(const WorkloadSpec& spec, std::uint64_t keyIndex) {
  if (spec.richObjects) return "obj:tbl" + std::to_string(keyIndex);
  return wl::keyName(keyIndex);
}

/// One cache node's share of the stream (keys hashing to shard 0 of 3)
/// through a bare LRU cache of the per-node capacity: the warmup ops
/// untimed, then the measured ops timed. A read miss fills, as serve does.
void replayCache(const WorkloadSpec& spec, std::span<const wl::Op> warmup,
                 std::span<const wl::Op> measured,
                 const wl::Workload& workload, ReplayResult& out) {
  const dcache::util::Bytes capacity =
      spec.churn ? spec.cachePerNode : core::DeploymentConfig{}.appCachePerNode;
  auto cache = dcache::cache::makeCache(dcache::cache::EvictionPolicy::kLru,
                                        capacity);
  CallTimer get, put;
  std::uint64_t ops = 0;
  std::uint64_t evictionsBefore = 0;
  const auto replay = [&](std::span<const wl::Op> stream, bool timed) {
    for (const wl::Op& op : stream) {
      const std::string key = keyFor(spec, op.keyIndex);
      if (dcache::util::hashKey(key) % 3 != 0) continue;
      const auto entry =
          dcache::cache::CacheEntry::sized(workload.valueSizeFor(op.keyIndex));
      if (!timed) {
        if (!op.isRead() || cache->get(key) == nullptr) cache->put(key, entry);
        continue;
      }
      if (++ops > kMaxKvCalls) break;
      if (op.isRead() &&
          get.time([&] { return cache->get(key) != nullptr; })) {
        continue;
      }
      put.time([&] { cache->put(key, entry); });
    }
  };
  replay(warmup, false);
  evictionsBefore = cache->stats().evictions;
  replay(measured, true);
  out.cacheGet = get.result();
  out.cachePut = put.result();
  out.cacheEvictionsPerOp =
      ops == 0 ? 0.0
               : static_cast<double>(cache->stats().evictions -
                                     evictionsBefore) /
                     static_cast<double>(std::min(ops, kMaxKvCalls));
}

/// One unary call per op, carrying the op's request/response bytes, on a
/// plain channel and on a policy-armed one (no faults scheduled).
void replayRpc(const WorkloadSpec& spec, std::span<const wl::Op> ops,
               const wl::Workload& workload, ReplayResult& out) {
  const core::Calibration cal;
  sim::NetworkModel network(cal.network);
  dcache::rpc::Channel plain(network,
                             dcache::rpc::SerializationModel(cal.serialization));
  dcache::rpc::Channel armed(
      network, dcache::rpc::SerializationModel(cal.serialization));
  armed.enableFaults(2026);
  sim::Node client("app", sim::TierKind::kAppServer);
  sim::Node server("cache", sim::TierKind::kRemoteCache);
  const dcache::rpc::CallPolicy policy{};
  CallTimer call, policyCall;
  const std::size_t n = std::min(ops.size(), kMaxKvCalls);
  for (std::size_t i = 0; i < n; ++i) {
    const wl::Op& op = ops[i];
    const std::uint64_t key = keyFor(spec, op.keyIndex).size();
    const std::uint64_t value = workload.valueSizeFor(op.keyIndex);
    const std::uint64_t request = op.isRead() ? key + 16 : key + value + 16;
    const std::uint64_t response = op.isRead() ? value + 16 : 16;
    call.time([&] { return plain.call(client, server, request, response); });
    policyCall.time([&] {
      return armed.callWithPolicy(client, server, request, response, policy);
    });
  }
  out.rpcCall = call.result();
  out.rpcPolicy = policyCall.result();
}

/// A standalone database wired as a Deployment wires its own.
struct DbFixture {
  explicit DbFixture(const core::DeploymentConfig& config)
      : network(cal.network),
        channel(network, dcache::rpc::SerializationModel(cal.serialization)),
        sqlTier("sql", sim::TierKind::kSqlFrontend, config.sqlFrontends),
        kvTier("kv", sim::TierKind::kKvStorage, config.kvStorageNodes),
        app("app", sim::TierKind::kAppServer),
        db(sqlTier, kvTier, channel, dbConfig(config)) {}

  dcache::storage::Database::Config dbConfig(
      const core::DeploymentConfig& config) const {
    dcache::storage::Database::Config c;
    c.costs = cal.storage;
    c.raftCosts = cal.raft;
    c.blockCachePerNode = config.blockCachePerNode;
    c.replicationFactor = config.replicationFactor;
    return c;
  }

  core::Calibration cal;
  sim::NetworkModel network;
  dcache::rpc::Channel channel;
  sim::Tier sqlTier;
  sim::Tier kvTier;
  sim::Node app;
  dcache::storage::Database db;
};

void replayKvStorage(const WorkloadSpec& spec, std::span<const wl::Op> ops,
                     const wl::Workload& workload, ReplayResult& out) {
  DbFixture f(spec.deploymentFor(spec.archs.front()));
  f.db.reserveKeys(workload.keyCount());
  std::string key;
  for (std::uint64_t k = 0; k < workload.keyCount(); ++k) {
    wl::keyNameTo(k, key);
    f.db.loadValue(key, workload.valueSizeFor(k));
  }
  CallTimer read, write;
  std::uint64_t readCalls = 0, writeCalls = 0;
  const std::size_t n = std::min(ops.size(), kMaxKvCalls);
  for (std::size_t i = 0; i < n; ++i) {
    const wl::Op& op = ops[i];
    wl::keyNameTo(op.keyIndex, key);
    const std::uint64_t before = f.channel.callCount();
    if (op.isRead()) {
      read.time([&] { return f.db.readValue(f.app, key).found; });
      readCalls += f.channel.callCount() - before;
    } else {
      write.time([&] {
        return f.db.writeValue(f.app, key, op.valueSize).version;
      });
      writeCalls += f.channel.callCount() - before;
    }
  }
  out.readValue = read.result();
  out.writeValue = write.result();
  if (out.readValue.calls) {
    out.rpcPerReadValue = static_cast<double>(readCalls) /
                          static_cast<double>(out.readValue.calls);
  }
  if (out.writeValue.calls) {
    out.rpcPerWriteValue = static_cast<double>(writeCalls) /
                           static_cast<double>(out.writeValue.calls);
  }
}

void replayCatalog(const WorkloadSpec& spec, std::span<const wl::Op> ops,
                   const wl::UcTraceWorkload& trace, ReplayResult& out) {
  using dcache::richobject::CatalogStore;
  DbFixture f(spec.deploymentFor(spec.archs.front()));
  CatalogStore store(f.db, trace);
  store.createSchemas();
  store.populate();
  dcache::richobject::Assembler assembler(store, f.cal.app);

  // The SELECTs getTable issues for a table, in its order and under its
  // per-table statement budget, so exec's mean times getTable's own mix.
  CallTimer exec;
  std::size_t reads = 0;
  for (const wl::Op& op : ops) {
    if (!op.isRead()) continue;
    if (++reads > kMaxObjectCalls) break;
    const auto id = static_cast<std::int64_t>(op.keyIndex);
    const std::int64_t schemaId = store.schemaIdFor(op.keyIndex);
    const std::int64_t catalogId = store.catalogIdFor(schemaId);
    const std::pair<const char*, Value> statements[] = {
        {"SELECT * FROM tables WHERE id = ?", Value{id}},
        {"SELECT * FROM schemas WHERE id = ?", Value{schemaId}},
        {"SELECT * FROM catalogs WHERE id = ?", Value{catalogId}},
        {"SELECT * FROM privileges WHERE securable_id = ?",
         Value{CatalogStore::tableSecurable(op.keyIndex)}},
        {"SELECT * FROM privileges WHERE securable_id = ?",
         Value{CatalogStore::catalogSecurable(catalogId)}},
        {"SELECT * FROM constraints WHERE table_id = ?", Value{id}},
        {"SELECT * FROM lineage WHERE table_id = ?", Value{id}},
        {"SELECT * FROM properties WHERE table_id = ?", Value{id}}};
    const std::size_t budget =
        std::clamp<std::size_t>(trace.statementsFor(op.keyIndex), 1, 8);
    for (std::size_t i = 0; i < budget; ++i) {
      const Value params[] = {statements[i].second};
      exec.time([&] { return f.db.exec(f.app, statements[i].first, params).ok; });
    }
  }
  out.exec = exec.result();

  CallTimer get, update;
  std::uint64_t statements = 0, getCalls = 0;
  std::size_t gets = 0, updates = 0;
  for (const wl::Op& op : ops) {
    if (op.isRead()) {
      if (gets++ >= kMaxObjectCalls) continue;
      const std::uint64_t before = f.channel.callCount();
      statements += get.time([&] {
        return assembler.getTable(f.app, op.keyIndex).statementsIssued;
      });
      getCalls += f.channel.callCount() - before;
    } else if (updates++ < kMaxObjectCalls) {
      update.time([&] { return assembler.updateTable(f.app, op.keyIndex); });
    }
  }
  out.getTable = get.result();
  out.updateTable = update.result();
  if (out.getTable.calls) {
    const auto calls = static_cast<double>(out.getTable.calls);
    out.statementsPerGetTable = static_cast<double>(statements) / calls;
    out.rpcPerGetTable = static_cast<double>(getCalls) / calls;
  }
}

}  // namespace

ReplayResult replayLayers(const WorkloadSpec& spec,
                          const std::vector<wl::Op>& ops) {
  ReplayResult out;
  const std::unique_ptr<wl::Workload> workload = spec.makeWorkload();
  const std::span<const wl::Op> all(ops);
  const std::size_t warm = std::min<std::size_t>(spec.warmupOps, ops.size());
  const std::span<const wl::Op> measured = all.subspan(warm);
  replayCache(spec, all.first(warm), measured, *workload, out);
  replayRpc(spec, measured, *workload, out);
  if (spec.richObjects) {
    replayCatalog(spec, measured,
                  static_cast<const wl::UcTraceWorkload&>(*workload), out);
  } else {
    replayKvStorage(spec, measured, *workload, out);
  }
  return out;
}

}  // namespace hostbench
