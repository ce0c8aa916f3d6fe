#include "core/membership.hpp"

#include <algorithm>

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"

namespace dcache::core {

// ---------------------------------------------------------------------------
// MembershipSchedule
// ---------------------------------------------------------------------------

void MembershipSchedule::add(MembershipEvent event) {
  events_.push_back(event);
  sorted_ = false;
}

void MembershipSchedule::join(std::uint64_t atMicros, sim::TierKind tier,
                              std::size_t nodeIndex) {
  add({atMicros, MembershipKind::kJoin, tier, nodeIndex});
}

void MembershipSchedule::leave(std::uint64_t atMicros, sim::TierKind tier,
                               std::size_t nodeIndex) {
  add({atMicros, MembershipKind::kLeave, tier, nodeIndex});
}

void MembershipSchedule::rollingRestart(std::uint64_t fromMicros,
                                        sim::TierKind tier,
                                        std::size_t firstNode,
                                        std::size_t count,
                                        std::uint64_t stepMicros,
                                        std::uint64_t downMicros) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t at = fromMicros + i * stepMicros;
    leave(at, tier, firstNode + i);
    join(at + downMicros, tier, firstNode + i);
  }
}

void MembershipSchedule::startAbsent(sim::TierKind tier,
                                     std::size_t nodeIndex) {
  absent_.push_back({0, MembershipKind::kLeave, tier, nodeIndex});
}

const std::vector<MembershipEvent>& MembershipSchedule::events() const {
  if (!sorted_) {
    // Stable: events at the same instant keep insertion order, so a
    // schedule replays identically however it was built.
    std::stable_sort(events_.begin(), events_.end(),
                     [](const MembershipEvent& a, const MembershipEvent& b) {
                       return a.atMicros < b.atMicros;
                     });
    sorted_ = true;
  }
  return events_;
}

// ---------------------------------------------------------------------------
// MembershipDirector
// ---------------------------------------------------------------------------

namespace {

/// Batched wire accounting: one (source, dest) transfer per pump batch,
/// however many keys rode in it.
struct TransferGroup {
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t bytes = 0;
};

void accumulate(std::vector<TransferGroup>& groups, std::size_t from,
                std::size_t to, std::uint64_t bytes) {
  for (TransferGroup& g : groups) {
    if (g.from == from && g.to == to) {
      g.bytes += bytes;
      return;
    }
  }
  groups.push_back({from, to, bytes});
}

void markTouched(std::vector<std::size_t>& touched, std::size_t index) {
  if (std::find(touched.begin(), touched.end(), index) == touched.end()) {
    touched.push_back(index);
  }
}

/// Flips every node of the churn tier (plus the far pump's app-side
/// initiator) into background-QoS mode for the duration of a pump batch:
/// migration CPU and wire framing are metered and billed but never enter
/// the foreground queues, the way a deprioritized bulk stream behaves.
class BackgroundPumpScope {
 public:
  BackgroundPumpScope(sim::Tier& tier, sim::Node* initiator) noexcept
      : tier_(tier), initiator_(initiator) {
    for (std::size_t i = 0; i < tier_.size(); ++i) {
      tier_.node(i).setBackgroundWork(true);
    }
    if (initiator_ != nullptr) initiator_->setBackgroundWork(true);
  }
  ~BackgroundPumpScope() {
    for (std::size_t i = 0; i < tier_.size(); ++i) {
      tier_.node(i).setBackgroundWork(false);
    }
    if (initiator_ != nullptr) initiator_->setBackgroundWork(false);
  }
  BackgroundPumpScope(const BackgroundPumpScope&) = delete;
  BackgroundPumpScope& operator=(const BackgroundPumpScope&) = delete;

 private:
  sim::Tier& tier_;
  sim::Node* initiator_;
};

}  // namespace

MembershipDirector::MembershipDirector(MembershipSchedule schedule,
                                       HandoffConfig handoff, Hooks hooks)
    : schedule_(std::move(schedule)), handoff_(handoff), hooks_(hooks) {
  if (handoff_.batchIntervalMicros == 0) handoff_.batchIntervalMicros = 1;
  // Scale-out spares: out of the ring and powered down before the first op,
  // uncounted (they never "left" — they haven't arrived yet).
  for (const MembershipEvent& e : schedule_.absentAtStart()) {
    if (cache::ShardedTier* ring = ringOn(e.tier)) {
      ring->retireMember(e.nodeIndex);
    }
    if (sim::Node* node = nodeOf(e)) node->setUp(false);
  }
}

cache::ShardedTier* MembershipDirector::ringOn(
    sim::TierKind tier) const noexcept {
  if (tier == sim::TierKind::kAppServer && hooks_.linked != nullptr) {
    return &hooks_.linked->shards();
  }
  if (tier == sim::TierKind::kRemoteCache && hooks_.remote != nullptr) {
    return &hooks_.remote->shards();
  }
  if (tier == sim::TierKind::kFarMemory && hooks_.disagg != nullptr) {
    return &hooks_.disagg->shards();
  }
  return nullptr;
}

sim::Node* MembershipDirector::nodeOf(
    const MembershipEvent& event) const noexcept {
  cache::ShardedTier* ring = ringOn(event.tier);
  sim::Tier* tier = ring != nullptr ? &ring->tier()
                    : event.tier == sim::TierKind::kAppServer ? hooks_.appTier
                                                               : nullptr;
  if (tier == nullptr || event.nodeIndex >= tier->size()) return nullptr;
  return &tier->node(event.nodeIndex);
}

const cache::CacheOpCosts& MembershipDirector::opCosts(
    sim::TierKind tier) const noexcept {
  return tier == sim::TierKind::kAppServer ? hooks_.linked->costs()
                                           : hooks_.remote->costs();
}

bool MembershipDirector::hasWorkAt(std::uint64_t nowMicros) const noexcept {
  const auto& events = schedule_.events();
  if (cursor_ < events.size() && events[cursor_].atMicros <= nowMicros) {
    return true;
  }
  for (const Task& task : tasks_) {
    if (task.windowEndMicros <= nowMicros) return true;
    if (task.cursor < task.pending.size() &&
        task.nextBatchMicros <= nowMicros) {
      return true;
    }
  }
  return false;
}

void MembershipDirector::advanceTo(std::uint64_t nowMicros) {
  const auto& events = schedule_.events();
  while (cursor_ < events.size() && events[cursor_].atMicros <= nowMicros) {
    applyEvent(events[cursor_], nowMicros);
    ++cursor_;
  }
  pump(nowMicros);
}

void MembershipDirector::applyEvent(const MembershipEvent& event,
                                    std::uint64_t nowMicros) {
  const cache::ShardedTier* ring = ringOn(event.tier);
  if (event.kind == MembershipKind::kLeave && ring != nullptr &&
      ring->isMember(event.nodeIndex) && ring->memberCount() <= 1) {
    // Refuse to drain the last ring member: its keys would have no owner
    // to move to and the placement would be empty. The event is dropped
    // whole — uncounted, no deployment-side fencing — the way an operator
    // tool rejects a drain that would take the tier to zero.
    return;
  }
  if (event.kind == MembershipKind::kJoin) {
    applyJoin(event, nowMicros);
  } else {
    applyLeave(event, nowMicros);
  }
  applied_.push_back(event);
}

void MembershipDirector::applyJoin(const MembershipEvent& event,
                                   std::uint64_t nowMicros) {
  ++counters_.plannedJoins;
  sim::Node* node = nodeOf(event);
  if (node == nullptr) return;
  node->setUp(true);

  // A (re)joining app server under disagg restarts its process: the hot
  // cache must come back cold (it missed every invalidation while away).
  if (event.tier == sim::TierKind::kAppServer && hooks_.disagg != nullptr) {
    hooks_.disagg->hotShard(event.nodeIndex).clear();
  }

  cache::ShardedTier* ring = ringOn(event.tier);
  if (ring == nullptr) return;
  // Ring transition first — the join snapshot needs the *post-join*
  // placement to know which keys the newcomer now owns. A rejoin inside
  // the node's own leave window comes back cold here too.
  ring->admitMember(event.nodeIndex);
  ++counters_.epochFences;  // ownership moved: one epoch fence per transition

  if (!handoff_.enabled) return;  // cold: the newcomer warms organically
  openTask(event, nowMicros);
}

void MembershipDirector::applyLeave(const MembershipEvent& event,
                                    std::uint64_t nowMicros) {
  ++counters_.plannedLeaves;
  sim::Node* node = nodeOf(event);
  if (node == nullptr) return;
  cache::ShardedTier* ring = ringOn(event.tier);
  if (ring == nullptr) {
    // Stateless tier (app servers under Base/Remote/Disagg): nothing to
    // migrate, the node just drains out of rotation.
    node->setUp(false);
    return;
  }

  ++counters_.epochFences;  // ownership moves now, whatever the posture

  if (!handoff_.enabled) {
    // Cold reshard: ownership moves and the shard dies with the process.
    ring->retireMember(event.nodeIndex);
    node->setUp(false);
    return;
  }

  // Warm drain: out of the ring immediately (no new keys land here), but
  // the process stays up through the transfer window so the pump and the
  // dual-read fallback can still read its shard.
  ring->drainMember(event.nodeIndex);
  openTask(event, nowMicros);
}

void MembershipDirector::openTask(const MembershipEvent& event,
                                  std::uint64_t nowMicros) {
  Task task;
  task.event = event;
  task.windowEndMicros = nowMicros + handoff_.windowMicros;
  task.nextBatchMicros = nowMicros + handoff_.batchIntervalMicros;
  cache::ShardedTier& ring = *ringOn(event.tier);
  const std::size_t node = event.nodeIndex;
  // A leave pushes every key off the node; a join pulls the keys the
  // post-join placement hands it from everyone else.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const bool leave = event.kind == MembershipKind::kLeave;
    if (leave != (i == node)) continue;
    ring.shard(i).forEachEntry(
        [&](std::string_view key, const cache::CacheEntry& entry) {
          if (leave || ring.ownerOf(key) == node) {
            task.pending.push_back(
                {std::string(key), i, entry.size, entry.version});
          }
        });
  }
  // Views into task.pending's key strings: pending is fully built by now
  // and never mutated afterwards (the pump only advances a cursor), so the
  // views stay valid for the task's lifetime.
  task.byKey.reserve(task.pending.size());
  for (std::size_t i = 0; i < task.pending.size(); ++i) {
    task.byKey.emplace(std::string_view(task.pending[i].key), i);
  }
  tasks_.push_back(std::move(task));
}

void MembershipDirector::pump(std::uint64_t nowMicros) {
  for (Task& task : tasks_) {
    const std::uint64_t horizon =
        std::min(nowMicros, task.windowEndMicros);
    while (task.nextBatchMicros <= horizon &&
           task.cursor < task.pending.size()) {
      pumpTask(task);
      task.nextBatchMicros += handoff_.batchIntervalMicros;
    }
  }
  // Close expired windows in task order (std::erase_if is stable, so the
  // remaining tasks keep their deterministic order).
  for (const Task& task : tasks_) {
    if (task.windowEndMicros <= nowMicros) finishTask(task);
  }
  std::erase_if(tasks_, [&](const Task& task) {
    return task.windowEndMicros <= nowMicros;
  });
}

void MembershipDirector::pumpTask(Task& task) {
  const sim::TierKind tierKind = task.event.tier;
  cache::ShardedTier& ring = *ringOn(tierKind);
  sim::Tier& tier = ring.tier();
  sim::SpanGuard span("membership.handoff", tierKind);

  std::vector<TransferGroup> groups;
  std::vector<std::size_t> touched;
  // The far pool is passive (one-sided access only), so a deterministic
  // round-robin of app servers drives its migrations.
  const bool far = tierKind == sim::TierKind::kFarMemory;
  sim::Node* initiator = nullptr;
  if (far) {
    initiator = &hooks_.appTier->node(farInitiator_);
    farInitiator_ = (farInitiator_ + 1) % hooks_.appTier->size();
  }
  BackgroundPumpScope background(tier, initiator);

  std::size_t moved = 0;
  while (moved < handoff_.keysPerBatch &&
         task.cursor < task.pending.size()) {
    const PendingKey& pk = task.pending[task.cursor++];
    // A crash fault can take the source down mid-window; a dead process
    // cannot serve its keys, so the pump drops them (its shard died with
    // it anyway).
    if (!ring.nodeUp(pk.fromIndex)) continue;
    cache::KvCache& source = ring.shard(pk.fromIndex);
    const cache::CacheEntry* entry = source.peek(pk.key);
    if (entry == nullptr) continue;  // evicted, fenced or already moved
    const std::size_t dest = ring.ownerOf(pk.key);
    if (dest == pk.fromIndex) continue;  // ownership did not actually move
    cache::KvCache& destShard = ring.shard(dest);
    const cache::CacheEntry* held = destShard.peek(pk.key);
    const std::uint64_t size = entry->size;
    const std::uint64_t version = entry->version;
    if (held != nullptr && held->version >= version) {
      // The new owner already holds a copy at least as fresh (a
      // write-through landed mid-window): transferring would resurrect a
      // stale value. Fence the old copy instead.
      source.erase(pk.key);
      markTouched(touched, pk.fromIndex);
      ++counters_.epochFences;
      continue;
    }
    destShard.put(pk.key, cache::CacheEntry::sized(size, version));
    source.erase(pk.key);
    markTouched(touched, pk.fromIndex);
    markTouched(touched, dest);
    // Per-key CPU at both ends of the move; the wire bytes ride in one
    // batched transfer per (source, dest) pair below.
    if (far) {
      initiator->charge(sim::CpuComponent::kFarMemAccess,
                        hooks_.disagg->costs().lookupMicros);
    } else {
      tier.node(pk.fromIndex)
          .charge(sim::CpuComponent::kCacheOp, opCosts(tierKind).probeMicros);
      tier.node(dest).charge(sim::CpuComponent::kCacheOp,
                             opCosts(tierKind).insertMicros);
    }
    accumulate(groups, pk.fromIndex, dest,
               rpc::putRequestWireSize(pk.key.size()) + size);
    ++counters_.migratedKeys;
    counters_.migratedBytes += size;
    ++moved;
  }

  // RPC transfer batching: every key bound for the same destination shares
  // one request/response (or, for the far pool, one posted read + one
  // posted write) — the batching is what keeps handoff bandwidth priced
  // like bulk bytes instead of per-key RPCs.
  for (const TransferGroup& g : groups) {
    if (far) {
      const auto& oneSided = hooks_.disagg->costs().oneSided;
      hooks_.channel->oneSidedRead(*initiator, tier.node(g.from), g.bytes,
                                   oneSided);
      hooks_.channel->oneSidedRead(*initiator, tier.node(g.to), g.bytes,
                                   oneSided);
    } else {
      hooks_.channel->call(tier.node(g.from), tier.node(g.to), g.bytes,
                           rpc::putResponseWireSize());
    }
  }
  for (const std::size_t index : touched) ring.syncMemory(index);
}

void MembershipDirector::finishTask(const Task& task) {
  if (task.event.kind != MembershipKind::kLeave) return;
  cache::ShardedTier& ring = *ringOn(task.event.tier);
  const std::size_t index = task.event.nodeIndex;
  // A node that rejoined inside its own window is serving again: its
  // process and its (cold-restarted) shard stay.
  if (ring.isMember(index)) return;
  // Whatever the window didn't move is dropped with the process — the
  // window is a bound on transfer time, not a completeness promise.
  ring.dropShard(index);
  ring.tier().node(index).setUp(false);
}

MembershipDirector::FallbackResult MembershipDirector::tryFallback(
    std::size_t appIndex, const std::string& key) {
  FallbackResult out;
  for (Task& task : tasks_) {
    const auto it = task.byKey.find(std::string_view(key));
    if (it == task.byKey.end()) continue;
    const std::size_t from = task.pending[it->second].fromIndex;
    const sim::TierKind tierKind = task.event.tier;
    cache::ShardedTier& ring = *ringOn(tierKind);
    // No dual-read against a crashed old owner — its copy died with it.
    if (!ring.nodeUp(from) || ring.shard(from).peek(key) == nullptr) continue;
    const std::size_t owner = ring.ownerOf(key);
    if (owner == from) continue;
    sim::Node& app = hooks_.appTier->node(appIndex);

    if (tierKind == sim::TierKind::kAppServer) {
      const auto got = hooks_.linked->get(appIndex, from, key);
      if (!got.hit) continue;
      hooks_.linked->fill(owner, key, got.size, got.version);
      out = {true, got.latencyMicros, got.size, got.version};
    } else if (tierKind == sim::TierKind::kRemoteCache) {
      const auto got = hooks_.remote->get(app, from, key);
      if (!got.hit) continue;
      const double putLatency =
          hooks_.remote->put(app, owner, key, got.size, got.version);
      out = {true, got.latencyMicros + putLatency, got.size, got.version};
    } else {
      const auto got = hooks_.disagg->farGet(app, from, key);
      if (!got.hit) continue;
      const double putLatency =
          hooks_.disagg->farPut(app, owner, key, got.size, got.version);
      hooks_.disagg->hotFill(appIndex, key, got.size, got.version);
      out = {true, got.latencyMicros + putLatency, got.size, got.version};
    }
    ring.shard(from).erase(key);
    ring.syncMemory(from);
    ++counters_.handoffFallbackReads;
    return out;
  }
  return out;
}

void MembershipDirector::fenceWrite(std::size_t appIndex,
                                    const std::string& key) {
  for (Task& task : tasks_) {
    const auto it = task.byKey.find(std::string_view(key));
    if (it == task.byKey.end()) continue;
    const std::size_t from = task.pending[it->second].fromIndex;
    const sim::TierKind tierKind = task.event.tier;
    cache::ShardedTier& ring = *ringOn(tierKind);
    cache::KvCache& source = ring.shard(from);
    if (source.peek(key) == nullptr || ring.ownerOf(key) == from) continue;
    // The write just landed at the new owner; the old owner's copy is now
    // stale and must never be served (dual-read) or migrated (pump).
    source.erase(key);
    ring.syncMemory(from);
    ++counters_.epochFences;

    sim::Node& app = hooks_.appTier->node(appIndex);
    sim::Node& old = ring.tier().node(from);
    if (tierKind == sim::TierKind::kFarMemory) {
      // One-sided tombstone, same shape as farInvalidate.
      hooks_.channel->oneSidedRead(app, old, cache::kFarSlotHeaderBytes,
                                   hooks_.disagg->costs().oneSided);
    } else {
      old.charge(sim::CpuComponent::kCacheOp, opCosts(tierKind).probeMicros);
      if (&old != &app) {
        hooks_.channel->oneWay(app, old,
                               rpc::getRequestWireSize(key.size()));
      }
    }
  }
}

std::vector<MembershipEvent> MembershipDirector::drainApplied() {
  std::vector<MembershipEvent> out;
  out.swap(applied_);
  return out;
}

}  // namespace dcache::core
