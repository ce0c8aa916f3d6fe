// Memory-disaggregated cache tier (Ditto/DiFache deployment shape). A far
// memory pool holds the cached values; compute nodes reach it with
// one-sided reads that bypass the pool's CPU entirely (rpc::OneSidedParams
// is the cost shape), and each application server keeps a small in-process
// hot cache in front so the per-byte pull is only paid for the cold tail.
// Placement is client-driven — every app server hashes the key to a pool
// slot itself, no directory service on the access path — and coherence is
// DiFache-style decentralized invalidation: the writer sends each peer app
// server a one-way message itself (invalidatePeers), no coordinator hop.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cache/sharded_tier.hpp"
#include "rpc/channel.hpp"

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
  /// Drop one app server's copy.
  void hotInvalidate(std::size_t appIndex, std::string_view key);
  /// What one writer's fan-out cost: the slowest one-way leg, and the peer
  /// app servers it reached.
  struct Fanout {
    double latencyMicros = 0.0;
    std::uint64_t peers = 0;
  };
  /// Decentralized coherence: app server `writerIndex` sends every other
  /// app server, in ascending index, a one-way invalidation (key + 8-byte
  /// version + framing), and that peer drops its hot copy. A message lost
  /// to a down or cut peer still drops the copy and counts as reached.
  Fanout invalidatePeers(std::size_t writerIndex, std::string_view key);
  /// Hot flush: drop every hot copy at once (a pool node crashed —
  /// client-driven placement would otherwise serve copies of slots that
  /// are gone).
  void clearHotCaches();
  [[nodiscard]] KvCache& hotShard(std::size_t appIndex) noexcept {
    return *hotShards_[appIndex];
  }

  // ---- far pool (one-sided access to pool node `node`) ----
  GetResult farGet(sim::Node& initiator, std::size_t node,
                   std::string_view key);
  /// One-sided write of the value into its slot (same cost shape as the
  /// read: issue + per-byte push + completion at the initiator only).
  double farPut(sim::Node& initiator, std::size_t node, std::string_view key,
                std::uint64_t size, std::uint64_t version);
  /// One-sided tombstone: a header-sized write that clears the slot.
  double farInvalidate(sim::Node& initiator, std::size_t node,
                       std::string_view key);

  /// The pool's placement, membership and slots. Every app server computes
  /// placement itself (no directory), so the deployment fences pool
  /// transitions with a hot-cache flush.
  [[nodiscard]] ShardedTier& shards() noexcept { return far_; }
  [[nodiscard]] const DisaggCosts& costs() const noexcept { return costs_; }

 private:
  ShardedTier far_;
  sim::Tier* appTier_;
  rpc::Channel* channel_;
  DisaggCosts costs_;
  std::vector<std::unique_ptr<KvCache>> hotShards_;  // one per app server
};

}  // namespace dcache::cache
