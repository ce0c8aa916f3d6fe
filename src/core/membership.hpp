// Planned membership churn: nodes joining and leaving on purpose — rolling
// restarts, scale-out/in steps, drains — as opposed to the crash/gray
// faults of sim/fault.hpp. The distinction matters because a *planned*
// transition can be survived warm: the departing (or arriving) owner's keys
// are migrated during a bounded transfer window instead of being dropped on
// the floor, and the cost of that handoff bandwidth is exactly what the
// fig12 bench weighs against the storage-amplification cliff of a cold
// reshard.
//
// Three pieces live here:
//  - MembershipSchedule: a deterministic timeline of join/leave events with
//    the same builder/lazy-sort idiom as sim::FaultSchedule, replayed
//    byte-identically at any --jobs.
//  - HandoffConfig: the warm-handoff knobs (off = cold reshard).
//  - MembershipDirector: the runtime. It applies due events to the
//    architecture's cache::ShardedTier (admit/drain/retire one node),
//    snapshots the keys whose ownership moved, pumps bounded migration
//    batches that charge real CPU and wire bytes through sim::Node::charge
//    and the rpc::Channel, answers dual-read fallbacks at the new owner
//    during the window, and fences writes so an in-flight update can never
//    be resurrected from a stale owner's copy by a later migration batch.
//
// The director is deliberately ignorant of core::Deployment — it sees only
// the app tier, the cache front-ends and the channel (the Hooks struct).
// Each front-end contributes its ShardedTier; only the transport a dual
// read or migration pays stays per architecture. The director does all the
// fencing itself: fenceWrite, the pump's version check on arrival, and a
// cold hot cache for a Disaggregated app server that rejoins. The
// deployment calls drainApplied() only to (de)register nodes with its
// health monitor.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/disagg_cache.hpp"
#include "cache/linked_cache.hpp"
#include "cache/remote_cache.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"

namespace dcache::core {

enum class MembershipKind : std::uint8_t {
  kJoin,   // node arrives (scale-out step, restart coming back)
  kLeave,  // node departs gracefully (drain, scale-in step)
};

struct MembershipEvent {
  std::uint64_t atMicros = 0;
  MembershipKind kind = MembershipKind::kJoin;
  sim::TierKind tier = sim::TierKind::kAppServer;
  std::size_t nodeIndex = 0;
};

/// A deterministic timeline of planned membership transitions. Builders
/// append in any order; events() lazily stable-sorts by time, so ties keep
/// insertion order — the same replay contract as sim::FaultSchedule.
class MembershipSchedule {
 public:
  void add(MembershipEvent event);
  void join(std::uint64_t atMicros, sim::TierKind tier, std::size_t nodeIndex);
  void leave(std::uint64_t atMicros, sim::TierKind tier,
             std::size_t nodeIndex);
  /// Rolling-restart wave: node `firstNode + i` (i in [0, count)) leaves at
  /// `fromMicros + i * stepMicros` and rejoins `downMicros` later.
  void rollingRestart(std::uint64_t fromMicros, sim::TierKind tier,
                      std::size_t firstNode, std::size_t count,
                      std::uint64_t stepMicros, std::uint64_t downMicros);
  /// Mark a provisioned node absent from the *initial* placement (a
  /// scale-out spare). It is taken out of the ring and powered down before
  /// the first op, uncounted and windowless — it arrives at its join
  /// event. Tier vectors are fixed at construction, so this is how a
  /// bench provisions headroom to scale into.
  void startAbsent(sim::TierKind tier, std::size_t nodeIndex);

  [[nodiscard]] const std::vector<MembershipEvent>& absentAtStart()
      const noexcept {
    return absent_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events in time order (stable for ties).
  [[nodiscard]] const std::vector<MembershipEvent>& events() const;

 private:
  mutable std::vector<MembershipEvent> events_;
  std::vector<MembershipEvent> absent_;  // kLeave events applied at install
  mutable bool sorted_ = true;
};

/// Warm-handoff tuning. Disabled (the default) is the *cold reshard*
/// posture: ownership moves instantly, the departing shard is dropped, and
/// every moved key is re-fetched from storage on its next read — zero
/// handoff bandwidth, full miss cliff.
struct HandoffConfig {
  bool enabled = false;
  /// Length of the transfer window that starts at each event. A leaving
  /// node keeps serving handoff reads until the window closes; whatever
  /// was not migrated by then is dropped (the window is a bound, not a
  /// promise).
  std::uint64_t windowMicros = 200'000;
  /// Keys migrated per pump batch (the rate limit, together with the
  /// interval below).
  std::size_t keysPerBatch = 64;
  /// Sim-time between pump batches.
  std::uint64_t batchIntervalMicros = 2'000;
};

/// The six churn counters, mirrored into ServeCounters by the deployment.
struct MembershipCounters {
  std::uint64_t plannedJoins = 0;
  std::uint64_t plannedLeaves = 0;
  /// Keys moved to their new owner by the background pump (dual-read
  /// rescues are counted separately, under handoffFallbackReads).
  std::uint64_t migratedKeys = 0;
  /// Value bytes those migrations pushed across the wire.
  std::uint64_t migratedBytes = 0;
  /// Misses at the new owner served by reading the old owner during the
  /// transfer window (at most one per read).
  std::uint64_t handoffFallbackReads = 0;
  /// Fencing actions: one per cache-ownership transition (epoch bump),
  /// plus one per stale copy fenced — a migration skipped because the new
  /// owner already held a fresher version, or an old-owner copy erased
  /// because a write landed during the window.
  std::uint64_t epochFences = 0;

  void clear() noexcept { *this = MembershipCounters{}; }
};

class MembershipDirector {
 public:
  /// Everything the director may touch. Null members are simply absent
  /// (the architecture has no such tier); events against them reduce to
  /// node up/down.
  struct Hooks {
    sim::Tier* appTier = nullptr;
    cache::LinkedCache* linked = nullptr;
    cache::RemoteCache* remote = nullptr;
    cache::DisaggCache* disagg = nullptr;
    rpc::Channel* channel = nullptr;
  };

  MembershipDirector(MembershipSchedule schedule, HandoffConfig handoff,
                     Hooks hooks);

  /// Apply every event due at or before `nowMicros`, then pump due
  /// migration batches and close expired transfer windows. Deterministic:
  /// driven entirely by the sim clock.
  void advanceTo(std::uint64_t nowMicros);
  /// Would advanceTo(nowMicros) do anything? Lets the deployment skip the
  /// call (and its trace scope) on the vast majority of ops.
  [[nodiscard]] bool hasWorkAt(std::uint64_t nowMicros) const noexcept;
  /// Any transfer window still open (dual-read fallback is live)?
  [[nodiscard]] bool anyWindowActive() const noexcept {
    return !tasks_.empty();
  }

  /// Dual-read fallback: the new owner missed on `key` — try the old owner
  /// before falling through to storage. On a hit the real probe + wire
  /// costs are charged, the entry is installed at the new owner and erased
  /// at the old one (migration by access), and the caller skips the
  /// storage read entirely.
  struct FallbackResult {
    bool hit = false;
    double latencyMicros = 0.0;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
  };
  FallbackResult tryFallback(std::size_t appIndex, const std::string& key);

  /// Write fencing: a write to `key` landed at its *new* owner while a
  /// transfer window is open. Erase the old owner's now-stale copy so no
  /// later migration batch (or fallback read) can resurrect the
  /// overwritten value. Charges the invalidation's one-way wire cost.
  void fenceWrite(std::size_t appIndex, const std::string& key);

  [[nodiscard]] const MembershipCounters& counters() const noexcept {
    return counters_;
  }
  void clearCounters() noexcept { counters_.clear(); }

  /// Events applied since the last drain, in application order. The
  /// deployment consumes these for the fencing it owns: ownership-epoch
  /// bumps, lease revocation (linked), hot-cache flushes (disagg) and
  /// health-monitor (de)registration.
  [[nodiscard]] std::vector<MembershipEvent> drainApplied();

  [[nodiscard]] const MembershipSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] const HandoffConfig& handoff() const noexcept {
    return handoff_;
  }

 private:
  /// One key whose ownership moved, snapshotted at event time.
  struct PendingKey {
    std::string key;
    std::size_t fromIndex = 0;  // shard that held it when the event fired
    std::uint64_t size = 0;
    std::uint64_t version = 0;
  };
  /// One in-flight transfer window.
  struct Task {
    MembershipEvent event;
    std::uint64_t windowEndMicros = 0;
    std::uint64_t nextBatchMicros = 0;
    std::vector<PendingKey> pending;  // fixed after the snapshot
    /// Key -> index into pending, views into the (immutable) pending
    /// vector. Lookups only — never iterated (hash order must not leak).
    std::unordered_map<std::string_view, std::size_t> byKey;
    std::size_t cursor = 0;  // next pending entry the pump will consider
  };

  void applyEvent(const MembershipEvent& event, std::uint64_t nowMicros);
  void applyJoin(const MembershipEvent& event, std::uint64_t nowMicros);
  void applyLeave(const MembershipEvent& event, std::uint64_t nowMicros);
  void pump(std::uint64_t nowMicros);
  void pumpTask(Task& task);
  void finishTask(const Task& task);
  /// Open the event's transfer window: snapshot the keys it moves, then
  /// index them for the dual-read and write fences.
  void openTask(const MembershipEvent& event, std::uint64_t nowMicros);

  /// The ring on `tier` (linked app shards, remote pods, far pool; null on
  /// a stateless tier), the event's node (null: no such tier or index), and
  /// a cache-process shard's per-key CPU (Linked, Remote).
  [[nodiscard]] cache::ShardedTier* ringOn(sim::TierKind tier) const noexcept;
  [[nodiscard]] sim::Node* nodeOf(const MembershipEvent& event) const noexcept;
  [[nodiscard]] const cache::CacheOpCosts& opCosts(
      sim::TierKind tier) const noexcept;

  MembershipSchedule schedule_;
  HandoffConfig handoff_;
  Hooks hooks_;
  MembershipCounters counters_;
  std::size_t cursor_ = 0;  // next schedule event
  std::vector<Task> tasks_;
  std::vector<MembershipEvent> applied_;
  /// Rotating initiator for far-pool migrations: the pool is passive, so a
  /// deterministic round-robin of app servers drives the one-sided
  /// read/write pairs.
  std::size_t farInitiator_ = 0;
};

}  // namespace dcache::core
