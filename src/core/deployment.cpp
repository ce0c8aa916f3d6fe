#include "core/deployment.hpp"

#include <algorithm>
#include <cstdio>

#include "rpc/wire_size.hpp"
#include "workload/workload.hpp"

namespace dcache::core {
namespace {

// The serve loops run once per simulated op; key formatting reuses the
// caller's scratch string so steady state allocates nothing.

void objectKeyTo(std::uint64_t tableId, std::string& out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "obj:tbl%llu",
                              static_cast<unsigned long long>(tableId));
  out.assign(buf, static_cast<std::size_t>(n));
}

void tablePkTo(std::uint64_t tableId, std::string& out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(tableId));
  out.assign(buf, static_cast<std::size_t>(n));
}

/// Triage cost of turning a request away at admission control: parse the
/// header, decide, answer. Far below a served request, deliberately not
/// zero — shedding at scale is itself CPU the bill sees.
constexpr double kShedTriageMicros = 0.5;
/// Encoded size of the "try again later" error response.
constexpr std::uint64_t kShedResponseBytes = 16;
/// An object write ships a fixed-size column patch, not the object.
constexpr std::uint64_t kObjectPatchBytes = 256;

/// An object read back from a Remote pod or a far slot is encoded bytes:
/// materializing the object graph is app logic — the cost a linked or hot
/// hit avoids. The transport already charged the transfer itself.
void compose(sim::Node& app, const richobject::AppCosts& costs,
             std::uint64_t bytes) {
  app.charge(sim::CpuComponent::kAppLogic,
             costs.composePerByteMicros * static_cast<double>(bytes));
}

}  // namespace

Deployment::Deployment(DeploymentConfig config) : config_(config) {
  const Calibration& cal = config_.calibration;
  network_ = sim::NetworkModel(cal.network);
  channel_ = std::make_unique<rpc::Channel>(
      network_, rpc::SerializationModel(cal.serialization));

  client_ = std::make_unique<sim::Tier>("client", sim::TierKind::kClient, 1);
  app_ = std::make_unique<sim::Tier>("app", sim::TierKind::kAppServer,
                                     config_.appServers);
  app_->provisionMemoryPerNode(config_.appBaseMemoryPerNode);
  sql_ = std::make_unique<sim::Tier>("sql", sim::TierKind::kSqlFrontend,
                                     config_.sqlFrontends);
  sql_->provisionMemoryPerNode(config_.sqlBaseMemoryPerNode);
  kv_ = std::make_unique<sim::Tier>("kv", sim::TierKind::kKvStorage,
                                    config_.kvStorageNodes);

  storage::Database::Config dbConfig;
  dbConfig.costs = cal.storage;
  dbConfig.raftCosts = cal.raft;
  dbConfig.blockCachePerNode = config_.blockCachePerNode;
  dbConfig.replicationFactor = config_.replicationFactor;
  db_ = std::make_unique<storage::Database>(*sql_, *kv_, *channel_, dbConfig);

  switch (config_.architecture) {
    case Architecture::kBase:
      break;
    case Architecture::kRemote:
      remoteTier_ = std::make_unique<sim::Tier>(
          "remote-cache", sim::TierKind::kRemoteCache,
          config_.remoteCacheNodes);
      remote_ = std::make_unique<cache::RemoteCache>(
          *remoteTier_, config_.remoteCachePerNode, *channel_,
          config_.evictionPolicy, cal.cacheOps);
      ring_ = &remote_->shards();
      break;
    case Architecture::kLinked:
    case Architecture::kLinkedVersion:
      linked_ = std::make_unique<cache::LinkedCache>(
          *app_, config_.appCachePerNode, *channel_, config_.evictionPolicy,
          cal.cacheOps);
      ring_ = &linked_->shards();
      break;
    case Architecture::kDisaggregated: {
      farTier_ = std::make_unique<sim::Tier>(
          "far-memory", sim::TierKind::kFarMemory, config_.farMemoryNodes);
      disagg_ = std::make_unique<cache::DisaggCache>(
          *farTier_, config_.farMemoryPerNode, *app_, config_.hotCachePerNode,
          *channel_, config_.evictionPolicy, cal.disagg);
      ring_ = &disagg_->shards();
      // DiFache-style decentralized coherence: every app server subscribes
      // its own hot cache; a writer fans invalidations straight to its
      // peers — no coordinator on the path. Subscriber id == app index
      // (subscription order), which lets the writer skip itself.
      invalidationBus_ =
          std::make_unique<consistency::InvalidationBus>(*channel_);
      for (std::size_t i = 0; i < app_->size(); ++i) {
        invalidationBus_->subscribe(
            app_->node(i), [this, i](std::string_view key, std::uint64_t) {
              disagg_->hotInvalidate(i, key);
            });
      }
      break;
    }
  }
  if (config_.trace.enabled()) {
    tracer_ = std::make_unique<obs::Tracer>(config_.trace);
  }

  if (config_.overload.enabled()) {
    overloadInstalled_ = true;
    const OverloadConfig& ov = config_.overload;
    const auto limitTier = [&](sim::Tier* tier, double capacity) {
      if (!tier || capacity <= 0.0) return;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        tier->node(i).queue().configure(
            {capacity, ov.maxQueueWaitMicros});
      }
    };
    limitTier(app_.get(), ov.appCapacityMicrosPerSec);
    limitTier(remoteTier_.get(), ov.remoteCacheCapacityMicrosPerSec);
    limitTier(sql_.get(), ov.sqlCapacityMicrosPerSec);
    limitTier(kv_.get(), ov.kvCapacityMicrosPerSec);
    // Queueing and the defenses ride the channel's policy path, so arm it
    // exactly the way installFaultSchedule does.
    channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
    if (ov.breakersEnabled) channel_->enableBreakers(ov.breaker);
    if (ov.hedgingEnabled) channel_->enableHedging(ov.hedge);
    if (ov.shed.enabled) shedder_ = std::make_unique<Shedder>(ov.shed);
  }

  if (config_.health.enabled) {
    monitor_ = std::make_unique<HealthMonitor>(config_.health);
    const auto registerTier = [&](sim::Tier* tier) {
      if (!tier) return;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        monitor_->registerNode(tier->node(i), tier->kind(), i);
      }
    };
    registerTier(app_.get());
    registerTier(remoteTier_.get());
    registerTier(farTier_.get());
    registerTier(sql_.get());
    registerTier(kv_.get());
    channel_->setCallObserver(monitor_.get());
    // The monitor listens at the channel's policy path; arm it the way
    // overload and installFaultSchedule do.
    channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
  }
  if (config_.cacheReplicationFactor > 1 && (remote_ || linked_)) {
    replicationOn_ = true;
    ring_->armRing();  // replica sets are successor walks on the ring
  }
}

void Deployment::populateKv(const workload::Workload& workload) {
  std::vector<std::uint64_t> sizes(workload.keyCount());
  for (std::uint64_t k = 0; k < sizes.size(); ++k) {
    sizes[k] = workload.valueSizeFor(k);
  }
  db_->loadValueRange(std::move(sizes), workload::keyNameTo,
                      workload::keyIndexOf);
}

void Deployment::populateCatalog(const workload::UcTraceWorkload& trace,
                                 richobject::CatalogStoreConfig storeConfig) {
  catalogStore_ = std::make_unique<richobject::CatalogStore>(*db_, trace,
                                                             storeConfig);
  catalogStore_->createSchemas();
  catalogStore_->populate();
  assembler_ = std::make_unique<richobject::Assembler>(
      *catalogStore_, config_.calibration.app);
}

/// One op in flight through the shared serve path. `object` marks a UC
/// object op: its value is assembled by SQL, versioned by its `tables` row,
/// encoded before it is stored in a Remote pod or far slot and composed
/// after it is read back from one.
struct Deployment::OpCtx {
  const std::string& key;
  const workload::Op& op;
  bool object;
  std::size_t appIndex;
  sim::Node& app;
  OpResult result;
  std::uint64_t servedBytes;  // value bytes a read returns to the client
};

/// What a cache lookup found. A miss is `degraded` when the cache could
/// not be reached at all.
struct Deployment::Lookup {
  bool hit = false;
  bool degraded = false;
  std::uint64_t size = 0;
  std::uint64_t version = 0;
};

bool Deployment::replicaUsable(sim::TierKind tier, std::size_t index) {
  const sim::Node* node = nodeAt(tier, index);
  return node != nullptr && node->isUp() &&
         (!monitor_ || monitor_->allowRequest(tier, index, simNowMicros_));
}

std::size_t Deployment::chooseLinkedReplica(const std::string& key,
                                            bool& fallback) {
  const auto replicas =
      ring_->replicasOf(key, config_.cacheReplicationFactor);
  fallback = false;
  if (replicas.empty()) return ring_->ownerOf(key);
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (replicaUsable(sim::TierKind::kAppServer, replicas[r])) {
      fallback = r > 0;
      return replicas[r];
    }
  }
  return replicas[0];  // nothing usable: the primary's failure is counted
}

void Deployment::noteReplicaStaleness(OpCtx& op, std::uint64_t version) {
  // peek*, not read*: anomaly accounting is the experimenter's x-ray, it
  // must not charge CPU or change cache state.
  const auto stored = committedVersion(op);
  if (stored && *stored != version) ++counters_.staleReplicaReads;
}

std::optional<std::uint64_t> Deployment::committedVersion(OpCtx& op) {
  if (!op.object) return db_->peekValueVersion(op.key);
  tablePkTo(op.op.keyIndex, pkScratch_);
  return db_->peekRowVersion("tables", pkScratch_);
}

std::size_t Deployment::appIndexFor(const std::string& key) {
  linkedPickValid_ = false;
  if (linked_ && config_.affinityRouting) {
    // Replica-aware affinity (rf > 1 only: one copy leaves no choice): the
    // client leg lands on the shard the probe will use, so an ejected or
    // slow owner is bypassed end to end.
    if (replicationOn_) {
      linkedPick_ = chooseLinkedReplica(key, linkedPickFallback_);
      linkedPickValid_ = true;
      if (app_->node(linkedPick_).isUp()) return linkedPick_;
    }
    const std::size_t owner = ring_->ownerOf(key);
    if (app_->node(owner).isUp()) return owner;  // Slicer-style affinity
    // The ring still names a down node (a tier outage doesn't reshard —
    // the shards' contents survive); spray over the live servers below.
  }
  // Load-balancer health checks: round-robin over live servers only, and —
  // with the health monitor on — skip ejected servers too (an ejected node
  // still gets its periodic probe request routed through here).
  for (std::size_t probe = 0; probe < app_->size(); ++probe) {
    const std::size_t idx = rrApp_++ % app_->size();
    if (!app_->node(idx).isUp()) continue;
    if (monitor_ &&
        !monitor_->allowRequest(sim::TierKind::kAppServer, idx,
                                simNowMicros_)) {
      continue;
    }
    return idx;
  }
  return rrApp_ % app_->size();  // whole tier down: calls will time out
}

double Deployment::clientLeg(sim::Node& app, std::size_t appIndex,
                             std::uint64_t requestBytes,
                             std::uint64_t responseBytes, bool countFailure) {
  sim::SpanGuard span("client.leg", sim::TierKind::kClient);
  if (overloadInstalled_ && config_.overload.hedgingEnabled) {
    // The app tier is the replicated tier every architecture has: any live
    // server can answer (a non-owner pays the forward/miss path — the
    // hedge trades that cost for the tail it cuts). Backup = next live
    // server after the primary.
    sim::Node* backup = nullptr;
    for (std::size_t probe = 1; probe < app_->size(); ++probe) {
      sim::Node& candidate = app_->node((appIndex + probe) % app_->size());
      if (candidate.isUp()) {
        backup = &candidate;
        break;
      }
    }
    const rpc::CallResult hedged = channel_->callHedged(
        client_->node(0), app, backup, requestBytes, responseBytes,
        config_.rpcPolicy, /*marshal=*/true, sim::CpuComponent::kClientComm);
    if (!hedged.ok && countFailure) ++counters_.failedOps;
    return hedged.latencyMicros;
  }
  const rpc::CallResult result =
      channel_->call(client_->node(0), app, requestBytes, responseBytes,
                     /*marshal=*/true, sim::CpuComponent::kClientComm);
  if (!result.ok && countFailure) ++counters_.failedOps;
  return result.latencyMicros;
}

bool Deployment::shouldShedRead(sim::Node& app) {
  if (!shedder_) return false;
  sim::NodeQueue& queue = app.queue();
  queue.drainTo(simNowMicros_);
  if (!shedder_->offer(queue.waitMicros(), simNowMicros_)) return false;
  ++counters_.sheddedRequests;
  // Turning a request away costs triage CPU, not a queue's worth of work —
  // which is the entire trade admission control makes.
  app.charge(sim::CpuComponent::kRequestPrep, kShedTriageMicros);
  return true;
}

Deployment::OpResult Deployment::serve(const workload::Op& op) {
  return serveOp(op, /*object=*/false);
}

Deployment::OpResult Deployment::serveObject(const workload::Op& op) {
  return serveOp(op, /*object=*/true);
}

Deployment::OpResult Deployment::serveOp(const workload::Op& op,
                                         bool object) {
  if (object) {
    objectKeyTo(op.keyIndex, keyScratch_);
  } else {
    workload::keyNameTo(op.keyIndex, keyScratch_);
  }
  const bool read = op.isRead();
  obs::RequestScope scope(tracer_.get(), object ? (read ? "object.read"
                                                        : "object.write")
                                                : (read ? "read" : "write"));
  const std::uint64_t degradedBefore = counters_.degradedReads;
  const std::uint64_t shedBefore = counters_.sheddedRequests;
  const std::uint64_t fallbackBefore = counters_.replicaFallbackReads;
  const std::size_t appIndex = appIndexFor(keyScratch_);
  OpCtx ctx{keyScratch_, op, object, appIndex, app_->node(appIndex), {},
            op.valueSize};
  if (read) {
    serveRead(ctx);
    scope.setOutcome(counters_.sheddedRequests > shedBefore
                         ? sim::SpanOutcome::kShed
                     : counters_.degradedReads > degradedBefore
                         ? sim::SpanOutcome::kDegraded
                     : counters_.replicaFallbackReads > fallbackBefore
                         ? sim::SpanOutcome::kReplicaFallback
                     : ctx.result.cacheHit ? sim::SpanOutcome::kHit
                                           : sim::SpanOutcome::kMiss);
  } else {
    serveWrite(ctx);
  }
  latency_.record(ctx.result.latencyMicros);
  if (faultsInstalled_ || overloadInstalled_ || monitor_) syncFaultCounters();
  if (membershipInstalled_) syncMembershipCounters();
  return ctx.result;
}

void Deployment::serveRead(OpCtx& op) {
  ++counters_.reads;
  double& latency = op.result.latencyMicros;
  if (shouldShedRead(op.app)) {
    latency += clientLeg(op.app, op.appIndex,
                         rpc::getRequestWireSize(op.key.size()),
                         kShedResponseBytes, /*countFailure=*/false);
    return;
  }

  if (ring_ == nullptr) {
    // Base: no cache, so every read goes to storage.
    if (!op.object) {
      op.app.charge(sim::CpuComponent::kRequestPrep,
                    config_.calibration.app.requestPrepMicros);
    }
    const auto value = produce(op);
    latency += value.latencyMicros;
    if (!op.object) op.servedBytes = value.size;
  } else {
    Lookup hit = remote_   ? lookupRemote(op)
                 : linked_ ? lookupLinked(op)
                           : lookupDisagg(op);
    if (hit.hit && ttlExpired(op.key)) {
      // Bounded-staleness mode: the entry outlived its freshness bound;
      // revalidate from storage (far cheaper than per-read version checks,
      // but only TTL-consistent).
      ++counters_.ttlExpirations;
      hit.hit = false;
    }
    if (hit.hit) {
      op.servedBytes = hit.size;
      // §5.5: Linked+Version validates every hit against storage.
      hit.hit = config_.architecture != Architecture::kLinkedVersion ||
                versionCurrent(op, hit.version);
    }
    if (hit.hit) {
      ++counters_.cacheHits;
      op.result.cacheHit = true;
    } else {
      // An unreachable cache degrades the op to the storage path:
      // availability is preserved, the cost moves.
      if (hit.degraded) ++counters_.degradedReads;
      ++counters_.cacheMisses;
      // A KV miss adds its storage read and fill to the op as one sum, an
      // object miss adds each step as it lands: the summation orders every
      // recorded latency was built with.
      double kvWait = 0.0;
      fillFromStorage(op, op.object ? latency : kvWait);
      latency += kvWait;
    }
  }

  latency += clientLeg(op.app, op.appIndex,
                       rpc::getRequestWireSize(op.key.size()),
                       rpc::getResponseWireSize() + op.servedBytes);
}

Deployment::Lookup Deployment::lookupRemote(OpCtx& op) {
  cache::RemoteCache::GetResult got;
  bool contacted = !replicationOn_;
  if (replicationOn_) {
    // Walk the replica set primary-first; skip down/ejected pods and fall
    // through a failed call to the next replica.
    const auto replicas =
        ring_->replicasOf(op.key, config_.cacheReplicationFactor);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      if (!replicaUsable(sim::TierKind::kRemoteCache, replicas[r])) continue;
      got = remote_->get(op.app, replicas[r], op.key);
      op.result.latencyMicros += got.latencyMicros;
      contacted = true;
      if (!got.failed) {
        if (r > 0) ++counters_.replicaFallbackReads;
        break;
      }
    }
  } else {
    // One copy: the client calls its owner even when the pod is down, and
    // the timeout it pays there is the outage's cost.
    got = remote_->get(op.app, ring_->ownerOf(op.key), op.key);
    op.result.latencyMicros += got.latencyMicros;
  }
  if (!got.hit) return {false, !contacted || got.failed};
  // Only a replica can miss a write (write-all skips unusable ones).
  if (replicationOn_) noteReplicaStaleness(op, got.version);
  if (op.object) compose(op.app, config_.calibration.app, got.size);
  return {true, false, got.size, got.version};
}

Deployment::Lookup Deployment::lookupLinked(OpCtx& op) {
  std::size_t owner = 0;
  bool fallback = false;
  if (!replicationOn_) {
    owner = ring_->ownerOf(op.key);  // one copy: no replica gate to spend
  } else if (linkedPickValid_) {
    // Probe the shard the routing layer picked (appIndexFor stashes its
    // choice so probe slots aren't granted twice per op).
    owner = linkedPick_;
    fallback = linkedPickFallback_;
    linkedPickValid_ = false;
  } else {
    owner = chooseLinkedReplica(op.key, fallback);
  }
  const auto got = linked_->get(op.appIndex, owner, op.key);
  if (fallback) ++counters_.replicaFallbackReads;
  // Only a replica can miss a write (write-all skips unusable ones).
  if (got.hit && replicationOn_) noteReplicaStaleness(op, got.version);
  op.result.latencyMicros += got.latencyMicros;
  return {got.hit, false, got.size, got.version};
}

Deployment::Lookup Deployment::lookupDisagg(OpCtx& op) {
  // Hot cache first: an in-process hit never touches far memory, and it
  // holds the live object graph (no decode, no wire).
  const auto hot = disagg_->hotGet(op.appIndex, op.key);
  op.result.latencyMicros += hot.latencyMicros;
  if (hot.hit) {
    ++counters_.hotCacheHits;
    return {true, false, hot.size, hot.version};
  }
  // Cold: one one-sided read against the key's pool slot. The gate is the
  // same replica gate the other tiers use — a down or ejected pool node
  // degrades the op to the storage path instead of burning the retry
  // budget.
  const std::size_t farIdx = ring_->ownerOf(op.key);
  if (!replicaUsable(sim::TierKind::kFarMemory, farIdx)) return {false, true};
  const auto far = disagg_->farGet(op.app, farIdx, op.key);
  op.result.latencyMicros += far.latencyMicros;
  ++counters_.farMemoryReads;
  counters_.farMemoryBytes += far.wireBytes;
  if (!far.hit) return {false, far.failed};
  if (op.object) compose(op.app, config_.calibration.app, far.size);
  disagg_->hotFill(op.appIndex, op.key, far.size, far.version);
  return {true, false, far.size, far.version};
}

bool Deployment::versionCurrent(OpCtx& op, std::uint64_t cachedVersion) {
  storage::Database::VersionResult check;
  if (op.object) {
    tablePkTo(op.op.keyIndex, pkScratch_);
    check = db_->versionCheckRow(op.app, "tables", pkScratch_);
  } else {
    check = db_->versionCheck(op.app, op.key);
  }
  ++counters_.versionChecks;
  op.result.latencyMicros += check.latencyMicros;
  const bool current = check.found && check.version == cachedVersion;
  if (!current) ++counters_.versionMismatches;
  return current;
}

void Deployment::fillFromStorage(OpCtx& op, double& wait) {
  // A KV miss is traced as a storage fill and pays request prep; the
  // assembler traces and charges an object miss's statements itself.
  std::optional<sim::SpanGuard> span;
  if (!op.object) {
    span.emplace("storage.fill", sim::TierKind::kKvStorage);
    op.app.charge(sim::CpuComponent::kRequestPrep,
                  config_.calibration.app.requestPrepMicros);
  }
  if (membershipInstalled_ && membership_->anyWindowActive()) {
    // Dual-read fallback: the key's ownership just moved and the old owner
    // may still hold it — rescue the entry from there instead of paying a
    // storage round trip (the storage-amplification saving warm handoff is
    // measured on).
    const auto fb = membership_->tryFallback(op.appIndex, op.key);
    if (fb.hit) {
      if (span) span->setOutcome(sim::SpanOutcome::kCoalesced);
      wait += fb.latencyMicros;
      return;
    }
  }
  // Single-flight is the restart-herd defense, so it runs only when the
  // topology can change; a fault-free miss keeps its own storage read.
  if (dynamicTopology()) {
    // A miss whose storage read is already in flight joins it instead of
    // issuing a duplicate; the follower only pays the remaining wait.
    const auto it = inflight_.find(op.key);
    if (it != inflight_.end() && it->second > simNowMicros_) {
      ++counters_.coalescedMisses;
      if (span) span->setOutcome(sim::SpanOutcome::kCoalesced);
      wait += static_cast<double>(it->second - simNowMicros_);
      return;
    }
  }
  const auto value = produce(op);
  wait += value.latencyMicros;
  if (dynamicTopology()) {  // the leader's completion, for its followers
    inflight_[op.key] =
        simNowMicros_ + static_cast<std::uint64_t>(value.latencyMicros);
    pruneInflight();
  }
  if (value.found) wait += fill(op, value.size, value.version);
}

storage::Database::ReadResult Deployment::produce(OpCtx& op) {
  if (!op.object) {
    ++counters_.storageReads;
    return db_->readValue(op.app, op.key);
  }
  const auto assembled = assembler_->getTable(op.app, op.op.keyIndex);
  counters_.statementsIssued += assembled.statementsIssued;
  if (!assembled.ok) return {false, 0, 0, assembled.latencyMicros};
  op.servedBytes = assembled.object.approximateSize();
  return {true, op.servedBytes, committedVersion(op).value_or(0),
          assembled.latencyMicros};
}

double Deployment::fill(OpCtx& op, std::uint64_t size,
                        std::uint64_t version) {
  // Remote pods and far slots store the *encoded* object; encoding it is
  // app work.
  if (op.object && !linked_) {
    channel_->serializer().chargeSerialize(op.app, size);
  }
  if (remote_) {
    return eachReplica(op.key, /*skipDead=*/true, [&](std::size_t node) {
      return remote_->put(op.app, node, op.key, size, version);
    });
  }
  if (disagg_) {
    // The hot copy is in-process and always fillable. A KV miss fills it
    // before the far slot, an object miss after.
    if (!op.object) disagg_->hotFill(op.appIndex, op.key, size, version);
    const double wait =
        eachReplica(op.key, /*skipDead=*/true, [&](std::size_t node) {
          return disagg_->farPut(op.app, node, op.key, size, version);
        });
    if (op.object) disagg_->hotFill(op.appIndex, op.key, size, version);
    return wait;
  }
  const double wait =
      eachReplica(op.key, /*skipDead=*/false, [&](std::size_t shard) {
        // With affinity routing the serving server fills its own shard (at
        // rf = 1 the owner's, charged to the owner); any other shard gets a
        // marshalled transfer that only write-all replication waits for.
        if (config_.affinityRouting &&
            (shard == op.appIndex || !replicationOn_)) {
          linked_->fill(shard, op.key, size, version);
          return 0.0;
        }
        const double lat =
            linked_->update(op.appIndex, shard, op.key, size, version);
        return replicationOn_ ? lat : 0.0;
      });
  noteFill(op.key);
  return wait;
}

template <typename Act>
double Deployment::eachReplica(const std::string& key, bool skipDead,
                               Act&& act) {
  if (!replicationOn_) {
    // One copy, no replica gate (it spends health-probe slots); the
    // breaker idiom skips an owner known to be dead rather than burn a
    // timed-out retry budget on it.
    const std::size_t owner = ring_->ownerOf(key);
    if (skipDead && !ring_->nodeUp(owner)) return 0.0;
    return act(owner);
  }
  // Write-all: every usable replica gets the copy in parallel, so the op
  // pays the slowest one; the extra copies' CPU/bytes land on the meters
  // and replicaWriteFanout. A skipped replica goes stale, which fallback
  // reads surface as staleReplicaReads.
  double slowest = 0.0;
  std::size_t copies = 0;
  for (const std::size_t node :
       ring_->replicasOf(key, config_.cacheReplicationFactor)) {
    if (!replicaUsable(ring_->tier().kind(), node)) continue;
    slowest = std::max(slowest, act(node));
    ++copies;
  }
  if (copies > 1) counters_.replicaWriteFanout += copies - 1;
  return slowest;
}

void Deployment::serveWrite(OpCtx& op) {
  ++counters_.writes;
  double& latency = op.result.latencyMicros;
  std::uint64_t version = 0;
  if (op.object) {
    latency += assembler_->updateTable(op.app, op.op.keyIndex);
    counters_.statementsIssued += 2;  // read + update statements
    version = committedVersion(op).value_or(0);
  } else {
    op.app.charge(sim::CpuComponent::kRequestPrep,
                  config_.calibration.app.requestPrepMicros);
    const auto write = db_->writeValue(op.app, op.key, op.op.valueSize);
    latency += write.latencyMicros;
    version = write.version;
  }

  // Write-through refreshes every cached copy, otherwise the write
  // invalidates them. An object is refreshed only where a Linked shard
  // already holds the live graph: re-assembling it inline costs more than
  // dropping it.
  const bool refresh =
      config_.writeThroughCache &&
      (!op.object ||
       (linked_ &&
        ring_->shard(ring_->ownerOf(op.key)).peek(op.key) != nullptr));
  const std::uint64_t size = op.op.valueSize;
  if (remote_) {
    latency += eachReplica(op.key, /*skipDead=*/false, [&](std::size_t node) {
      return refresh ? remote_->put(op.app, node, op.key, size, version)
                     : remote_->invalidate(op.app, node, op.key);
    });
  } else if (linked_) {
    latency += eachReplica(op.key, /*skipDead=*/false, [&](std::size_t node) {
      return refresh
                 ? linked_->update(op.appIndex, node, op.key, size, version)
                 : linked_->invalidate(op.appIndex, node, op.key);
    });
    if (refresh) {
      noteFill(op.key);
    } else {
      fillTimes_.erase(op.key);
    }
  } else if (disagg_) {
    // Writer updates (or tombstones) the far slot and its own hot copy,
    // then fans the invalidation to its peers itself — DiFache-style, no
    // coordinator on the coherence path. Peers drop their hot copies via
    // the bus handler; the next read re-pulls from the far pool.
    latency += eachReplica(op.key, /*skipDead=*/true, [&](std::size_t node) {
      return refresh ? disagg_->farPut(op.app, node, op.key, size, version)
                     : disagg_->farInvalidate(op.app, node, op.key);
    });
    if (refresh) {
      disagg_->hotFill(op.appIndex, op.key, size, version);
    } else {
      disagg_->hotInvalidate(op.appIndex, op.key);
    }
    const std::uint64_t deliveredBefore = invalidationBus_->delivered();
    latency += invalidationBus_->publish(op.app, op.key, version, op.appIndex);
    counters_.clientInvalidations +=
        invalidationBus_->delivered() - deliveredBefore;
  }

  if (membershipInstalled_ && membership_->anyWindowActive()) {
    // The write landed at the key's *new* owner; erase any copy the old
    // owner still holds so a later migration batch (or dual read) can't
    // resurrect the overwritten value.
    membership_->fenceWrite(op.appIndex, op.key);
  }

  latency += clientLeg(
      op.app, op.appIndex,
      rpc::putRequestWireSize(op.key.size()) +
          (op.object ? kObjectPatchBytes : op.op.valueSize),
      rpc::putResponseWireSize());
}

bool Deployment::ttlExpired(const std::string& key) const {
  if (config_.ttlFreshnessMicros == 0) return false;
  const auto it = fillTimes_.find(key);
  if (it == fillTimes_.end()) return false;  // age unknown: trust the entry
  return it->second + config_.ttlFreshnessMicros <= simNowMicros_;
}

void Deployment::noteFill(const std::string& key) {
  if (config_.ttlFreshnessMicros == 0) return;
  fillTimes_[key] = simNowMicros_;
  maybeSweepFillTimes();
}

void Deployment::maybeSweepFillTimes() {
  // Evictions don't report back here, so the map accretes entries for keys
  // the cache no longer holds; unchecked it grows with the keyspace, not
  // with cache occupancy. Dropping an entry for an un-cached key can't
  // change any decision (ttlExpired is only consulted after a cache *hit*),
  // so sweep dead entries whenever the map outgrows occupancy 2x. The
  // floor keeps the sweep amortized O(1) per fill for small runs.
  if (fillTimes_.size() < 1024) return;
  if (fillTimes_.size() <= 2 * ring_->itemCount()) return;
  if (ring_->memberCount() == 0) {  // ring empty mid-outage: all un-cached
    fillTimes_.clear();
    return;
  }
  // dcache-lint: allow(unordered-iter, erase-only sweep dropping fill times whose key left the resharded ring; per-entry predicate, order cannot leak into serving or accounting)
  for (auto it = fillTimes_.begin(); it != fillTimes_.end();) {
    if (ring_->shard(ring_->ownerOf(it->first)).peek(it->first) == nullptr) {
      it = fillTimes_.erase(it);
    } else {
      ++it;
    }
  }
}

void Deployment::installMembershipSchedule(MembershipSchedule schedule,
                                           HandoffConfig handoff) {
  membershipInstalled_ = true;
  // The cache tier switches to its ring so joins/leaves move key ownership
  // instead of being invisible to modulo placement (Linked is armed from
  // the start).
  if (ring_) ring_->armRing();
  if (linked_ && !leases_) {
    // Same fencing authority as the crash path: leases are revoked when a
    // planned transition moves ownership (see advanceMembership).
    leases_ = std::make_unique<consistency::LeaseManager>(*app_, kv_->node(0),
                                                          *channel_);
  }
  if (monitor_) {
    // Scale-out spares start absent: the monitor must not probe a node
    // that was never placed (it registers again at its join event).
    for (const MembershipEvent& e : schedule.absentAtStart()) {
      if (sim::Node* node = nodeAt(e.tier, e.nodeIndex)) {
        monitor_->deregisterNode(*node, e.tier, e.nodeIndex);
      }
    }
  }
  MembershipDirector::Hooks hooks;
  hooks.appTier = app_.get();
  hooks.linked = linked_.get();
  hooks.remote = remote_.get();
  hooks.disagg = disagg_.get();
  hooks.channel = channel_.get();
  membership_ = std::make_unique<MembershipDirector>(std::move(schedule),
                                                     handoff, hooks);
  // Events at/before the current clock fire now (installFaultSchedule's
  // contract, kept here for symmetry).
  if (membership_->hasWorkAt(simNowMicros_)) advanceMembership();
}

void Deployment::advanceMembership() {
  // The pump's CPU and wire charges must land inside an open request scope
  // or the traced-vs-metered conservation invariant would break at
  // sample 1 — background migration is real work the bill sees.
  obs::RequestScope scope(tracer_.get(), "membership.pump");
  membership_->advanceTo(simNowMicros_);
  for (const MembershipEvent& e : membership_->drainApplied()) {
    // Deployment-owned fencing. The director already moved the ring and
    // (warm) opened the transfer window; what's left is the machinery the
    // director deliberately can't see.
    if (ring_ && e.tier == ring_->tier().kind()) {
      // Ownership moved: in-flight writes carrying the old epoch are
      // fenced exactly as on the crash path (Fig. 8); a linked owner's
      // lease is revoked (only linked deployments hold leases).
      ++ownershipEpoch_;
      if (leases_) leases_->revoke(e.nodeIndex);
    }
    sim::Node* node = monitor_ ? nodeAt(e.tier, e.nodeIndex) : nullptr;
    if (node == nullptr) continue;
    if (e.kind == MembershipKind::kLeave) {
      // Planned leave: drop probe/ejection state immediately — ghost
      // probes against a node that left on purpose would hold an ejection
      // slot and pollute detection-lag accounting.
      monitor_->deregisterNode(*node, e.tier, e.nodeIndex);
    } else {
      monitor_->registerNode(*node, e.tier, e.nodeIndex);
    }
  }
  syncMembershipCounters();
}

void Deployment::syncMembershipCounters() noexcept {
  const MembershipCounters& mc = membership_->counters();
  counters_.plannedJoins = mc.plannedJoins;
  counters_.plannedLeaves = mc.plannedLeaves;
  counters_.migratedKeys = mc.migratedKeys;
  counters_.migratedBytes = mc.migratedBytes;
  counters_.handoffFallbackReads = mc.handoffFallbackReads;
  counters_.epochFences = mc.epochFences;
}

void Deployment::installFaultSchedule(sim::FaultSchedule schedule) {
  faultSchedule_ = std::move(schedule);
  faultCursor_ = 0;
  faultsInstalled_ = true;
  channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
  if (linked_ && !leases_) {
    // The Fig. 8 fencing authority: a storage node grants ownership leases
    // over the ring partitions; revocation on reshard bumps the epoch.
    leases_ = std::make_unique<consistency::LeaseManager>(*app_, kv_->node(0),
                                                          *channel_);
  }
  applyPendingFaults();  // events at/before the current clock fire now
}

void Deployment::applyPendingFaults() {
  const auto& events = faultSchedule_.events();
  while (faultCursor_ < events.size() &&
         events[faultCursor_].atMicros <= simNowMicros_) {
    applyFault(events[faultCursor_]);
    ++faultCursor_;
  }
}

sim::Tier* Deployment::tierFor(sim::TierKind kind) noexcept {
  switch (kind) {
    case sim::TierKind::kClient:
      return client_.get();
    case sim::TierKind::kAppServer:
      return app_.get();
    case sim::TierKind::kRemoteCache:
      return remoteTier_.get();
    case sim::TierKind::kFarMemory:
      return farTier_.get();
    case sim::TierKind::kSqlFrontend:
      return sql_.get();
    case sim::TierKind::kKvStorage:
      return kv_.get();
    case sim::TierKind::kCount:
      break;
  }
  return nullptr;
}

sim::Node* Deployment::nodeAt(sim::TierKind kind, std::size_t index) noexcept {
  sim::Tier* tier = tierFor(kind);
  return tier != nullptr && index < tier->size() ? &tier->node(index)
                                                 : nullptr;
}

void Deployment::applyFault(const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultKind::kNodeCrash: {
      if (event.tier == sim::TierKind::kKvStorage) {
        // Raft-replicated storage: leadership fails over in lease-time, so
        // the tier keeps serving; the crash's lasting cost is the restarted
        // node's cold block cache.
        db_->dropBlockCache(event.nodeIndex);
        break;
      }
      if (sim::Node* node = nodeAt(event.tier, event.nodeIndex)) {
        node->setUp(false);
      }
      if (ring_ == nullptr || event.tier != ring_->tier().kind()) break;
      if (linked_) {
        // Reshard: the dead server's range moves to the survivors and any
        // lease it held is revoked, fencing its in-flight stale writes.
        if (!ring_->isMember(event.nodeIndex)) break;
        ring_->retireMember(event.nodeIndex);
        ++ownershipEpoch_;
        if (leases_) leases_->revoke(event.nodeIndex);
        break;
      }
      // A pod's or pool node's memory is gone; it stays a ring member, so
      // its keys time out (or degrade) until it restarts.
      ring_->dropShard(event.nodeIndex);
      if (disagg_) {
        // Client-driven placement means no coordinator can quiesce readers,
        // so fence coarsely: bump the ownership epoch and drop every hot
        // copy — a stale hot hit for a key whose far slot just vanished is
        // now impossible.
        disagg_->clearHotCaches();
        ++ownershipEpoch_;
      }
      break;
    }
    case sim::FaultKind::kNodeRestart: {
      if (event.tier == sim::TierKind::kKvStorage) break;  // never left
      if (sim::Node* node = nodeAt(event.tier, event.nodeIndex)) {
        node->setUp(true);
      }
      if (event.tier == sim::TierKind::kAppServer && linked_ &&
          !ring_->isMember(event.nodeIndex)) {
        // Rejoin cold; ownership returns to the exact pre-crash partition
        // (vnode points depend only on the member index), and the epoch
        // bumps again — entries the survivors filled for this range are
        // now unreachable, which is the restart's hit-ratio cost.
        ring_->admitMember(event.nodeIndex);
        ++ownershipEpoch_;
        if (leases_) leases_->revoke(event.nodeIndex);
      }
      break;
    }
    case sim::FaultKind::kTierOutage:
    case sim::FaultKind::kTierRecover: {
      // Unreachable, not dead: state survives, so no reshard and no shard
      // drops — when the partition heals the caches are still warm.
      sim::Tier* tier = tierFor(event.tier);
      for (std::size_t i = 0; tier != nullptr && i < tier->size(); ++i) {
        tier->node(i).setUp(event.kind == sim::FaultKind::kTierRecover);
      }
      break;
    }
    case sim::FaultKind::kDegradeBegin:
      network_.setDegradation(event.latencyFactor, event.dropProbability);
      break;
    case sim::FaultKind::kDegradeEnd:
      network_.clearDegradation();
      break;
    case sim::FaultKind::kNodeSlowBegin: {
      sim::Node* node = nodeAt(event.tier, event.nodeIndex);
      if (node == nullptr) break;
      node->setSlowFactor(event.latencyFactor);
      ++activeSlowNodes_;
      network_.setAnySlowNodes(true);
      grayFaultStarts_.push_back(
          {event.tier, event.nodeIndex, event.atMicros});
      break;
    }
    case sim::FaultKind::kNodeSlowEnd: {
      sim::Node* node = nodeAt(event.tier, event.nodeIndex);
      if (node == nullptr) break;
      node->setSlowFactor(1.0);
      if (activeSlowNodes_ > 0) --activeSlowNodes_;
      network_.setAnySlowNodes(activeSlowNodes_ > 0);
      break;
    }
    case sim::FaultKind::kPartialPartitionBegin:
      // Asymmetric: only the tier->dstTier direction drops; replies and
      // independent traffic the other way still flow.
      network_.cutLink(event.tier, event.dstTier);
      break;
    case sim::FaultKind::kPartialPartitionEnd:
      network_.healLink(event.tier, event.dstTier);
      break;
    case sim::FaultKind::kNodeFlakyBegin: {
      sim::Node* node = nodeAt(event.tier, event.nodeIndex);
      if (node == nullptr) break;
      node->setFlakyProbability(event.dropProbability);
      grayFaultStarts_.push_back(
          {event.tier, event.nodeIndex, event.atMicros});
      break;
    }
    case sim::FaultKind::kNodeFlakyEnd:
      if (sim::Node* node = nodeAt(event.tier, event.nodeIndex)) {
        node->setFlakyProbability(0.0);
      }
      break;
  }
}

void Deployment::syncFaultCounters() noexcept {
  const auto& fc = channel_->faultCounters();
  counters_.retries = fc.retries;
  counters_.timeouts = fc.timeouts;
  counters_.failedCalls = fc.failedCalls;
  counters_.wastedCpuMicros = fc.wastedCpuMicros;
  counters_.budgetExhausted = fc.budgetExhausted;
  counters_.queueTimeouts = fc.queueTimeouts;
  counters_.queueRejections = fc.queueRejections;
  counters_.breakerOpens = fc.breakerOpens;
  counters_.breakerShortCircuits = fc.breakerShortCircuits;
  counters_.hedgesSent = fc.hedgesSent;
  counters_.hedgeWins = fc.hedgeWins;
  if (monitor_) {
    // Consume new ejections incrementally so clearMeters() gives windowed
    // counts (the cursor survives the clear; the counters don't).
    const auto& ejections = monitor_->ejections();
    while (ejectionCursor_ < ejections.size()) {
      const auto& e = ejections[ejectionCursor_];
      ++counters_.ejectedNodes;
      // Detection lag = ejection time minus the latest injected gray-fault
      // onset on that node. Ejections with no matching injection (e.g. a
      // crashed pod racking up failures) contribute no lag.
      std::uint64_t onset = 0;
      bool found = false;
      for (const GrayFaultStart& s : grayFaultStarts_) {
        if (s.tier == e.tier && s.index == e.index &&
            s.atMicros <= e.atMicros && (!found || s.atMicros > onset)) {
          onset = s.atMicros;
          found = true;
        }
      }
      if (found) {
        counters_.detectionLagMicros +=
            static_cast<double>(e.atMicros - onset);
      }
      ++ejectionCursor_;
    }
  }
}

void Deployment::pruneInflight() {
  if (inflight_.size() < 4096) return;
  // dcache-lint: allow(unordered-iter, erase-only expiry of single-flight entries; each entry is judged against the sim clock alone, so visit order is immaterial)
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second <= simNowMicros_) {
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

void Deployment::clearMeters() {
  client_->clearMeters();
  app_->clearMeters();
  if (remoteTier_) remoteTier_->clearMeters();
  if (farTier_) farTier_->clearMeters();
  sql_->clearMeters();
  kv_->clearMeters();
  counters_.clear();
  latency_.clear();
  network_.clearCounters();
  channel_->clearFaultCounters();
  // Same windowing contract as the channel's fault counters: a measurement
  // window opened after warmup must not inherit warmup-era churn counts.
  if (membership_) membership_->clearCounters();
  // Traced CPU and metered CPU must cover the same window, or the
  // conservation invariant (traced <= metered, equal at sample 1) breaks.
  if (tracer_) tracer_->clear();
}

std::vector<const sim::Tier*> Deployment::tiers() const {
  std::vector<const sim::Tier*> out{client_.get(), app_.get()};
  if (remoteTier_) out.push_back(remoteTier_.get());
  if (farTier_) out.push_back(farTier_.get());
  out.push_back(sql_.get());
  out.push_back(kv_.get());
  return out;
}

util::Bytes Deployment::totalCacheMemoryProvisioned() const {
  util::Bytes total;
  if (linked_) total += config_.appCachePerNode * double(app_->size());
  if (remote_) {
    total += config_.remoteCachePerNode * double(remoteTier_->size());
  }
  if (disagg_) {
    total += config_.farMemoryPerNode * double(farTier_->size());
    total += config_.hotCachePerNode * double(app_->size());
  }
  total += config_.blockCachePerNode * double(kv_->size());
  return total;
}

}  // namespace dcache::core
