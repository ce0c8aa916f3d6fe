// A full simulated service deployment: client tier, app-server tier,
// optional remote-cache or far-memory tier, SQL front-end tier and KV
// storage tier, wired per one of the five architectures. serve() pushes one workload operation
// through the deployment, charging every hop and every byte; afterwards the
// tiers' meters hold exactly the CPU/memory picture the cost model prices.
//
// Consistency is each architecture's own serve path, nothing beside it:
// Linked+Version checks every hit against storage (§5.5); a Disaggregated
// writer invalidates its peers' hot copies itself
// (DisaggCache::invalidatePeers); a far-node crash flushes every hot copy;
// planned churn is fenced inside the MembershipDirector. There is no lease
// or epoch state here: ownership leases are priced by
// bench/ablation_consistency alone, and the Fig. 8 fix by fig8's scripted
// scenario (consistency/delayed_write.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/disagg_cache.hpp"
#include "cache/linked_cache.hpp"
#include "cache/remote_cache.hpp"
#include "core/architecture.hpp"
#include "core/calibration.hpp"
#include "core/health.hpp"
#include "core/membership.hpp"
#include "core/overload.hpp"
#include "obs/trace.hpp"
#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "util/histogram.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"

namespace dcache::core {

struct DeploymentConfig {
  Architecture architecture = Architecture::kLinked;

  std::size_t appServers = 3;
  std::size_t remoteCacheNodes = 3;  // only instantiated for kRemote
  std::size_t farMemoryNodes = 3;    // only instantiated for kDisaggregated
  std::size_t sqlFrontends = 3;
  std::size_t kvStorageNodes = 3;

  // §5.1: each app server gets 6 GB of cache; TiKV pods get block cache.
  util::Bytes appCachePerNode = util::Bytes::gb(6);
  util::Bytes remoteCachePerNode = util::Bytes::gb(6);
  util::Bytes blockCachePerNode = util::Bytes::gb(1);
  util::Bytes appBaseMemoryPerNode = util::Bytes::gb(2);
  util::Bytes sqlBaseMemoryPerNode = util::Bytes::gb(1);
  /// kDisaggregated: capacity of each far-memory pool node (priced at the
  /// far-memory $/GB rate, not DRAM), and the small in-process hot cache
  /// each app server keeps in front of the pool.
  util::Bytes farMemoryPerNode = util::Bytes::gb(16);
  util::Bytes hotCachePerNode = util::Bytes::mb(512);

  cache::EvictionPolicy evictionPolicy = cache::EvictionPolicy::kLru;
  /// Slicer-style affinity routing: client requests for a key land directly
  /// on the app server whose linked-cache shard owns it. When false, the
  /// load balancer sprays round-robin and non-owners forward probes inside
  /// the app tier (§2.4), paying an extra marshalled hop on ~(N-1)/N of
  /// requests — the cost of running a linked cache without an auto-sharder.
  bool affinityRouting = true;
  /// Writes refresh the cache in place (write-through); false = invalidate.
  bool writeThroughCache = true;
  std::size_t replicationFactor = 3;

  /// TTL freshness bound for linked-cache hits (0 = off). A hit older than
  /// the TTL is revalidated from storage — the classic bounded-staleness
  /// compromise the paper's related work surveys: far cheaper than a
  /// per-read version check, but only *eventually* consistent within the
  /// bound. Requires the clock: ExperimentRunner drives it from QPS, or
  /// call setSimTimeMicros() directly.
  std::uint64_t ttlFreshnessMicros = 0;

  /// Retry/timeout/backoff policy for every RPC while a fault schedule is
  /// installed (installFaultSchedule arms the channel with it). Unused —
  /// and cost-free — otherwise.
  rpc::CallPolicy rpcPolicy{};
  /// Seed for fault-path randomness (message drops, backoff jitter). Part
  /// of the deployment config so matrix cells stay deterministic per cell.
  std::uint64_t faultSeed = 2026;

  /// Request tracing (off by default — sampleEvery == 0 instantiates no
  /// tracer and leaves serve() on its pre-tracing path).
  obs::TraceConfig trace{};

  /// Overload model: per-tier capacities (finite queues, queueing delay)
  /// and the defenses — load shedding, circuit breakers, hedged requests.
  /// Off by default: every node keeps infinite capacity and serve() stays
  /// on its pre-overload path.
  OverloadConfig overload{};

  /// Gray-failure defense: deterministic health monitoring with outlier
  /// ejection + probing re-admission (see core/health.hpp). Off by
  /// default; enabling it arms the channel's policy path the way overload
  /// does, so latencies and drop draws match the fault-injection paths.
  HealthPolicy health{};
  /// Cache-tier replica placement for KV and object ops alike: each key
  /// lives on this many distinct cache shards (Remote pods / Linked app
  /// shards). Reads fall back to the next usable replica when the primary
  /// is down or ejected; fills/writes fan out to every usable replica.
  /// 1 = off: one owner per key, placed by modulo on Remote.
  std::size_t cacheReplicationFactor = 1;

  Calibration calibration{};
};

struct ServeCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t versionChecks = 0;
  std::uint64_t versionMismatches = 0;
  std::uint64_t statementsIssued = 0;
  std::uint64_t ttlExpirations = 0;
  /// Read-path storage round trips (cache misses + Base-path reads) — the
  /// numerator of the failure bench's storage-QPS-amplification column.
  std::uint64_t storageReads = 0;

  // Fault-path accounting (all zero unless a FaultSchedule is installed).
  std::uint64_t retries = 0;      // extra RPC attempts beyond the first
  std::uint64_t timeouts = 0;     // RPC legs that waited out their timeout
  std::uint64_t failedCalls = 0;  // RPCs that exhausted their retry budget
  std::uint64_t degradedReads = 0;    // cache unreachable -> storage path
  std::uint64_t coalescedMisses = 0;  // misses that joined an in-flight read
  double wastedCpuMicros = 0.0;  // CPU charged to legs that never paid off

  // Overload-path accounting (all zero unless OverloadConfig is enabled).
  std::uint64_t sheddedRequests = 0;  // turned away by admission control
  std::uint64_t queueTimeouts = 0;    // attempts outwaited by a backlog
  std::uint64_t queueRejections = 0;  // bounced off a full bounded queue
  std::uint64_t breakerOpens = 0;     // circuit-breaker trips (into open)
  std::uint64_t breakerShortCircuits = 0;  // calls failed fast while open
  std::uint64_t hedgesSent = 0;       // backup attempts fired
  std::uint64_t hedgeWins = 0;        // hedges whose answer landed first
  std::uint64_t budgetExhausted = 0;  // calls stopped by the deadline budget
  /// Operations whose client leg ultimately failed — the client never got
  /// an answer (distinct from sheddedRequests, where it got a fast error).
  std::uint64_t failedOps = 0;

  // Gray-failure accounting (all zero unless health monitoring and/or
  // cache replication is enabled).
  std::uint64_t ejectedNodes = 0;  // transitions into the ejected state
  /// Reads served by a non-primary replica because the primary was down,
  /// ejected or failing.
  std::uint64_t replicaFallbackReads = 0;
  /// Replica hits whose version trails storage — the consistency anomaly a
  /// fallback read risks (served anyway; this counts, it doesn't fix).
  std::uint64_t staleReplicaReads = 0;
  /// Extra replica copies written beyond the first (fan-out cost of
  /// write-all replication).
  std::uint64_t replicaWriteFanout = 0;
  /// Sum over ejections of (ejection time - gray-fault onset): how long
  /// the detector let each injected gray failure drag the tail.
  double detectionLagMicros = 0.0;

  // Disaggregated-path accounting (all zero unless the architecture is
  // kDisaggregated).
  /// One-sided reads posted against the far-memory pool (at most one per
  /// serve — the hot cache absorbs the rest).
  std::uint64_t farMemoryReads = 0;
  /// Bytes those one-sided reads actually pulled across the fabric
  /// (slot header + value on a hit; header-sized on a miss; 0 on a
  /// failed access).
  std::uint64_t farMemoryBytes = 0;
  /// Reads answered by the app server's in-process hot cache without
  /// touching far memory (a subset of cacheHits).
  std::uint64_t hotCacheHits = 0;
  /// DiFache-style decentralized invalidations delivered: writer-fanned
  /// hot-cache drops received by peer app servers (no coordinator hop).
  std::uint64_t clientInvalidations = 0;

  // Membership-churn accounting (all zero unless a MembershipSchedule is
  // installed; mirrored from core::MembershipCounters).
  std::uint64_t plannedJoins = 0;   // join events applied
  std::uint64_t plannedLeaves = 0;  // graceful-leave events applied
  /// Keys moved to their new owner by the background handoff pump.
  std::uint64_t migratedKeys = 0;
  /// Value bytes those migrations pushed across the wire.
  std::uint64_t migratedBytes = 0;
  /// New-owner misses served by reading the old owner during a transfer
  /// window (the dual-read rescue; each one is a storage read avoided).
  std::uint64_t handoffFallbackReads = 0;
  /// Epoch-fencing actions: ownership transitions plus stale copies fenced
  /// (migration skipped for a fresher new-owner version, or an old-owner
  /// copy erased because a write landed mid-window).
  std::uint64_t epochFences = 0;

  [[nodiscard]] double hitRatio() const noexcept {
    const std::uint64_t n = cacheHits + cacheMisses;
    return n ? static_cast<double>(cacheHits) / static_cast<double>(n) : 0.0;
  }
  void clear() noexcept { *this = ServeCounters{}; }
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);

  // ---- population (cost-free experiment setup) ----
  /// Load every key of a KV-style workload into storage, lazily: storage
  /// keeps the keys' sizes and puts a key into its KV engine before the
  /// first write, read or matching scan of it (storage/database.hpp), so
  /// host cost grows with the keys a run touches.
  void populateKv(const workload::Workload& workload);
  /// Create and load the catalog dataset for rich-object serving.
  void populateCatalog(const workload::UcTraceWorkload& trace,
                       richobject::CatalogStoreConfig storeConfig = {});

  // ---- serving ----
  struct OpResult {
    bool cacheHit = false;
    double latencyMicros = 0.0;
  };
  /// KV-style operation (synthetic / Meta / UC-KV).
  OpResult serve(const workload::Op& op);
  /// Rich-object operation (UC-Object): kObjectRead assembles via SQL.
  OpResult serveObject(const workload::Op& op);

  /// Advance the simulated wall clock (drives TTL freshness and fault
  /// injection: any scheduled fault events up to `nowMicros` fire here).
  void setSimTimeMicros(std::uint64_t nowMicros) noexcept {
    simNowMicros_ = nowMicros;
    channel_->setNowMicros(nowMicros);  // queue drains + breaker cool-downs
    if (faultsInstalled_) applyPendingFaults();
    if (membershipInstalled_ && membership_->hasWorkAt(nowMicros)) {
      advanceMembership();
    }
  }
  [[nodiscard]] std::uint64_t simTimeMicros() const noexcept {
    return simNowMicros_;
  }

  // ---- fault injection ----
  /// Install a fault schedule and arm the RPC channel with the config's
  /// retry policy + seeded drop/jitter RNG. Events fire as the sim clock
  /// passes them. Without this call every fault hook is dormant and the
  /// deployment's behaviour is bit-for-bit what it was before faults
  /// existed.
  void installFaultSchedule(sim::FaultSchedule schedule);
  [[nodiscard]] bool faultsInstalled() const noexcept {
    return faultsInstalled_;
  }

  // ---- planned membership churn ----
  /// Install a planned join/leave schedule (and the warm-handoff posture).
  /// Ring tiers switch to explicit membership, `startAbsent` spares are
  /// taken out of the initial placement, and events fire as the sim clock
  /// passes them — with handoff enabled, each ownership transition opens a
  /// bounded transfer window that migrates moved keys to their new owner.
  /// Without this call every membership hook is dormant and the deployment
  /// is bit-for-bit what it was before churn existed.
  void installMembershipSchedule(MembershipSchedule schedule,
                                 HandoffConfig handoff = {});
  [[nodiscard]] bool membershipInstalled() const noexcept {
    return membershipInstalled_;
  }
  /// Churn director (null unless installMembershipSchedule was called).
  [[nodiscard]] MembershipDirector* membership() noexcept {
    return membership_.get();
  }
  /// True when config.overload armed the queueing model / defenses.
  [[nodiscard]] bool overloadInstalled() const noexcept {
    return overloadInstalled_;
  }
  /// Admission controller (null unless config.overload.shed.enabled).
  [[nodiscard]] Shedder* shedder() noexcept { return shedder_.get(); }
  /// Failure detector (null unless config.health.enabled).
  [[nodiscard]] HealthMonitor* healthMonitor() noexcept {
    return monitor_.get();
  }
  /// True when config.cacheReplicationFactor armed replica routing (>1 and
  /// the architecture has a cache tier to replicate).
  [[nodiscard]] bool replicationInstalled() const noexcept {
    return replicationOn_;
  }
  [[nodiscard]] rpc::Channel& channel() noexcept { return *channel_; }
  /// Size of the TTL fill-time bookkeeping map (boundedness regression
  /// tests: it must track cache occupancy, not keyspace size).
  [[nodiscard]] std::size_t ttlBookkeepingSize() const noexcept {
    return fillTimes_.size();
  }

  // ---- metering ----
  void clearMeters();
  [[nodiscard]] std::vector<const sim::Tier*> tiers() const;
  [[nodiscard]] const ServeCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const util::Histogram& latencies() const noexcept {
    return latency_;
  }
  /// Trace recorder (null unless config.trace.sampleEvery > 0).
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const obs::Tracer* tracer() const noexcept {
    return tracer_.get();
  }

  // ---- component access ----
  [[nodiscard]] const DeploymentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] storage::Database& db() noexcept { return *db_; }
  [[nodiscard]] sim::Tier& appTier() noexcept { return *app_; }
  [[nodiscard]] cache::LinkedCache* linkedCache() noexcept {
    return linked_.get();
  }
  [[nodiscard]] cache::RemoteCache* remoteCache() noexcept {
    return remote_.get();
  }
  [[nodiscard]] cache::DisaggCache* disaggCache() noexcept {
    return disagg_.get();
  }
  [[nodiscard]] richobject::CatalogStore* catalogStore() noexcept {
    return catalogStore_.get();
  }
  [[nodiscard]] util::Bytes totalCacheMemoryProvisioned() const;

 private:
  struct OpCtx;   // one op in flight through the shared serve path
  struct Lookup;  // what a cache lookup found

  /// The one serve path: KV and UC object ops differ only in their key,
  /// their value source and the object-only charges. A read looks the key
  /// up and, on a miss, produces the value and fills the cache; a write
  /// commits, then refreshes or invalidates every cached copy.
  OpResult serveOp(const workload::Op& op, bool object);
  void serveRead(OpCtx& op);
  void serveWrite(OpCtx& op);
  /// The architectures' transports; each adds its own wait to the op.
  Lookup lookupRemote(OpCtx& op);
  Lookup lookupLinked(OpCtx& op);
  Lookup lookupDisagg(OpCtx& op);
  /// Miss path: handoff dual read, single-flight, then produce and fill.
  void fillFromStorage(OpCtx& op, double& wait);
  /// A KV read, or a catalog assembly whose size becomes the served bytes.
  storage::Database::ReadResult produce(OpCtx& op);
  double fill(OpCtx& op, std::uint64_t size, std::uint64_t version);
  /// Run `act(node)` on the key's cache copies; returns the op's wait.
  template <typename Act>
  double eachReplica(const std::string& key, bool skipDead, Act&& act);
  bool versionCurrent(OpCtx& op, std::uint64_t cachedVersion);
  /// Uncharged storage version of the op's value (nullopt if absent).
  [[nodiscard]] std::optional<std::uint64_t> committedVersion(OpCtx& op);

  /// App server handling this key under the active routing policy
  /// (affinity to the linked-cache owner; round-robin otherwise).
  [[nodiscard]] std::size_t appIndexFor(const std::string& key);

  /// Client <-> app leg: every architecture pays it, with the value bytes.
  /// `appIndex` names the primary so the hedged path can pick a live
  /// backup replica. `countFailure` is false on the shed path — the op is
  /// already accounted as shed, not failed.
  double clientLeg(sim::Node& app, std::size_t appIndex,
                   std::uint64_t requestBytes, std::uint64_t responseBytes,
                   bool countFailure = true);
  /// Admission control for the read path: returns true (and accounts the
  /// shed) when the app node's queueing delay says to turn the request
  /// away. Writes are never offered — they carry invalidation state the
  /// caches need.
  bool shouldShedRead(sim::Node& app);

  // ---- gray-failure machinery (replication + health monitoring) ----
  /// Routing gate for one replica: node up, and (when the monitor is on)
  /// not ejected — or ejected but due a probe, in which case the caller
  /// must route this request to it (allowRequest mutates probe state).
  [[nodiscard]] bool replicaUsable(sim::TierKind tier, std::size_t index);
  /// First usable replica of the key's linked replica set; `fallback` says
  /// whether it is not the primary. Once per op: it grants probe slots.
  [[nodiscard]] std::size_t chooseLinkedReplica(const std::string& key,
                                                bool& fallback);
  /// Count a replica hit whose version trails storage (fallback-read
  /// staleness anomaly — counted, not fixed).
  void noteReplicaStaleness(OpCtx& op, std::uint64_t version);

  // ---- membership machinery ----
  /// Faults or churn can change the topology mid-run: only then do misses
  /// single-flight. (Without them every node is up.)
  [[nodiscard]] bool dynamicTopology() const noexcept {
    return faultsInstalled_ || membershipInstalled_;
  }
  /// Apply due membership events and pump handoff batches, then
  /// (de)register each applied event's node with the health monitor.
  void advanceMembership();
  /// Mirror the director's counters into counters_.
  void syncMembershipCounters() noexcept;

  // ---- fault machinery ----
  void applyPendingFaults();
  void applyFault(const sim::FaultEvent& event);
  /// The tier / node, or null when the deployment has no such tier / index.
  [[nodiscard]] sim::Tier* tierFor(sim::TierKind kind) noexcept;
  [[nodiscard]] sim::Node* nodeAt(sim::TierKind kind, std::size_t i) noexcept;
  /// Mirror the channel's cumulative fault counters into counters_.
  void syncFaultCounters() noexcept;
  /// Drop expired single-flight entries once the map grows past its cap.
  void pruneInflight();

  DeploymentConfig config_;
  sim::NetworkModel network_;
  std::unique_ptr<rpc::Channel> channel_;

  std::unique_ptr<sim::Tier> client_;
  std::unique_ptr<sim::Tier> app_;
  std::unique_ptr<sim::Tier> remoteTier_;
  std::unique_ptr<sim::Tier> farTier_;
  std::unique_ptr<sim::Tier> sql_;
  std::unique_ptr<sim::Tier> kv_;

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<cache::RemoteCache> remote_;
  std::unique_ptr<cache::LinkedCache> linked_;
  std::unique_ptr<cache::DisaggCache> disagg_;
  cache::ShardedTier* ring_ = nullptr;  // the cache tier (null under Base)

  std::unique_ptr<richobject::CatalogStore> catalogStore_;
  std::unique_ptr<richobject::Assembler> assembler_;

  /// TTL bookkeeping: last fill time per cached key (only when the TTL
  /// freshness bound is enabled). The map is swept lazily against cache
  /// occupancy so evictions don't leak entries (see maybeSweepFillTimes).
  [[nodiscard]] bool ttlExpired(const std::string& key) const;
  void noteFill(const std::string& key);
  void maybeSweepFillTimes();

  ServeCounters counters_;
  util::Histogram latency_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Per-op key/primary-key scratch: serve() formats into these instead of
  /// allocating a fresh std::string per simulated operation. Valid only for
  /// the duration of one serve call.
  std::string keyScratch_;
  std::string pkScratch_;
  std::size_t rrApp_ = 0;
  std::uint64_t simNowMicros_ = 0;
  std::unordered_map<std::string, std::uint64_t> fillTimes_;

  std::unique_ptr<Shedder> shedder_;
  bool overloadInstalled_ = false;

  std::unique_ptr<HealthMonitor> monitor_;
  bool replicationOn_ = false;
  /// Linked-replica pick made by appIndexFor (affinity routing) so the probe
  /// hits the shard the client leg was routed to — choosing twice would
  /// double-grant probe slots. Valid for one op.
  std::size_t linkedPick_ = 0;
  bool linkedPickFallback_ = false;
  bool linkedPickValid_ = false;
  /// Gray-fault onsets (slow/flaky begin events) for detection-lag
  /// accounting, and the cursor over monitor ejections already consumed
  /// into counters_.
  struct GrayFaultStart {
    sim::TierKind tier = sim::TierKind::kAppServer;
    std::size_t index = 0;
    std::uint64_t atMicros = 0;
  };
  std::vector<GrayFaultStart> grayFaultStarts_;
  std::size_t ejectionCursor_ = 0;
  std::size_t activeSlowNodes_ = 0;

  std::unique_ptr<MembershipDirector> membership_;
  bool membershipInstalled_ = false;
  sim::FaultSchedule faultSchedule_;
  std::size_t faultCursor_ = 0;
  bool faultsInstalled_ = false;
  /// Single-flight table: key -> completion time of the in-flight storage
  /// read (fault mode only).
  std::unordered_map<std::string, std::uint64_t> inflight_;
};

}  // namespace dcache::core
