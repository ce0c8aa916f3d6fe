// Memory-disaggregated cache tier (Ditto/DiFache deployment shape). A far
// memory pool holds the cached values; compute nodes reach it with
// one-sided reads that bypass the pool's CPU entirely (rpc::OneSidedParams
// is the cost shape), and each application server keeps a small in-process
// hot cache in front so the per-byte pull is only paid for the cold tail.
// Placement is client-driven — every app server hashes the key to a pool
// slot itself, no directory service on the access path — and coherence is
// DiFache-style decentralized invalidation (the writer fans out to its
// peers over the InvalidationBus; the deployment owns that wiring).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cache/hash_ring.hpp"
#include "cache/kv_cache.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"

namespace dcache::cache {

/// Cost knobs for the disaggregated tier beyond the one-sided transport
/// shape itself. The hot cache is an in-process structure at the app
/// server; the lookup cost is the client-side hash/placement computation
/// every far access pays instead of a directory RPC.
struct DisaggCosts {
  rpc::OneSidedParams oneSided{};
  double hotProbeMicros = 0.1;    // in-process hot-cache probe
  double hotInsertMicros = 0.25;  // in-process hot-cache fill
  double lookupMicros = 0.2;      // client-side slot placement per far access
};

/// Fixed slot metadata (version tag, fence epoch, length) that crosses the
/// wire with every one-sided access, hit or miss.
inline constexpr std::uint64_t kFarSlotHeaderBytes = 16;

class DisaggCache {
 public:
  struct GetResult {
    bool hit = false;
    /// The far-pool node was unreachable (down or every retry lost): the
    /// caller should degrade to the storage path.
    bool failed = false;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
    /// Bytes that actually crossed the fabric (0 when the access failed).
    std::uint64_t wireBytes = 0;
  };

  DisaggCache(sim::Tier& farTier, util::Bytes perNodeCapacity,
              sim::Tier& appTier, util::Bytes hotCapacityPerNode,
              rpc::Channel& channel,
              EvictionPolicy policy = EvictionPolicy::kLru,
              DisaggCosts costs = {});

  // ---- hot cache (per app server, in-process) ----
  /// Probe app server `appIndex`'s hot cache. Never touches far memory.
  GetResult hotGet(std::size_t appIndex, std::string_view key);
  /// Fill after a far read or storage miss.
  void hotFill(std::size_t appIndex, std::string_view key, std::uint64_t size,
               std::uint64_t version);
  /// Drop one app server's copy (the InvalidationBus handler's job).
  void hotInvalidate(std::size_t appIndex, std::string_view key);
  /// Epoch fence: drop every hot copy at once (pool membership changed —
  /// client-driven placement would otherwise read slots that moved).
  void clearHotCaches();

  // ---- far pool (one-sided access) ----
  [[nodiscard]] std::size_t nodeForKey(std::string_view key) const noexcept;
  GetResult farGet(sim::Node& initiator, std::string_view key);
  GetResult farGetAt(sim::Node& initiator, std::size_t nodeIndex,
                     std::string_view key);
  /// One-sided write of the value into its slot (same cost shape as the
  /// read: issue + per-byte push + completion at the initiator only).
  double farPut(sim::Node& initiator, std::string_view key,
                std::uint64_t size, std::uint64_t version);
  /// One-sided tombstone: a header-sized write that clears the slot.
  double farInvalidate(sim::Node& initiator, std::string_view key);

  // ---- planned pool membership (churn survival) ----
  /// Arm membership-aware slot placement: keys map onto a consistent-hash
  /// ring over the pool indices (every node joins up front). Default-off so
  /// the legacy modulo placement stays byte-exact. Client-driven placement
  /// means every app server recomputes the ring locally — there is still no
  /// directory on the access path, which is exactly why pool transitions
  /// must be fenced with a hot-cache flush (the deployment owns that).
  void enableMembership();
  /// Planned join/leave (idempotent: a replayed event is a no-op).
  /// leaveNode keeps the pool node's slots — the handoff window migrates
  /// them; dropShard retires whatever remains.
  void joinNode(std::size_t nodeIndex);
  void leaveNode(std::size_t nodeIndex);
  /// Ring membership once armed; every valid pool index before that.
  [[nodiscard]] bool isMember(std::size_t nodeIndex) const noexcept {
    return membershipOn_ ? memberRing_.contains(nodeIndex)
                         : nodeIndex < farShards_.size();
  }
  /// Current membership size (the membership director refuses to drain
  /// the last member — keys would have no owner to move to).
  [[nodiscard]] std::size_t memberCount() const noexcept {
    return membershipOn_ ? memberRing_.memberCount() : farShards_.size();
  }

  /// Crash handling: a pool node's contents die with the process.
  void dropShard(std::size_t nodeIndex);
  [[nodiscard]] bool nodeUpFor(std::string_view key) const noexcept {
    return farTier_->node(nodeForKey(key)).isUp();
  }
  [[nodiscard]] bool nodeUp(std::size_t nodeIndex) const noexcept {
    return farTier_->node(nodeIndex).isUp();
  }

  [[nodiscard]] const sim::Tier& farTier() const noexcept { return *farTier_; }
  [[nodiscard]] const DisaggCosts& costs() const noexcept { return costs_; }
  [[nodiscard]] KvCache& farShardForNode(std::size_t i) noexcept {
    return *farShards_[i];
  }
  [[nodiscard]] KvCache& hotShardForNode(std::size_t i) noexcept {
    return *hotShards_[i];
  }

 private:
  sim::Tier* farTier_;
  sim::Tier* appTier_;
  rpc::Channel* channel_;
  DisaggCosts costs_;
  std::vector<std::unique_ptr<KvCache>> farShards_;  // one per pool node
  std::vector<std::unique_ptr<KvCache>> hotShards_;  // one per app server
  /// Pool membership ring (empty until enableMembership).
  HashRing memberRing_;
  bool membershipOn_ = false;
};

}  // namespace dcache::cache
