// Raft replication cost model. Writes replicate from the region leader to
// two followers (3-way, the TiKV default); consistent reads validate the
// leader's lease. We model the CPU and network cost of consensus — log
// bookkeeping is kept (terms, indexes, per-node applied counters) so tests
// can assert the replication invariants, but leader election is out of
// scope: the cost study runs in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.hpp"
#include "sim/tier.hpp"

namespace dcache::storage {

struct RaftCosts {
  double leaderAppendMicros = 8.0;   // encode entry, write leader log
  double followerApplyMicros = 5.0;  // append + ack per follower
  double perByteMicros = 0.0009;     // payload handling at each replica
  double leaseValidateMicros = 1.5;  // read-lease check per consistent read
};

class RaftReplicator {
 public:
  RaftReplicator(sim::Tier& kvTier, sim::NetworkModel& network,
                 RaftCosts costs = {}, std::size_t replicationFactor = 3);

  /// Replicate a write of `bytes` from the leader of `regionLeader`'s
  /// region. Charges leader + followers and the network; returns the
  /// commit latency (slower of the two follower round trips).
  double replicate(std::size_t leaderIndex, std::uint64_t bytes);

  /// Lease check for a linearizable read at the leader.
  void validateLease(std::size_t leaderIndex);

  [[nodiscard]] std::uint64_t committedIndex() const noexcept {
    return committedIndex_;
  }
  [[nodiscard]] std::uint64_t appliedIndex(std::size_t node) const noexcept {
    return applied_[node];
  }
  [[nodiscard]] std::uint64_t leaseChecks() const noexcept {
    return leaseChecks_;
  }
  [[nodiscard]] std::size_t replicationFactor() const noexcept {
    return replicationFactor_;
  }

 private:
  /// The `i`-th follower of `leaderIndex`, 1 <= i < replicationFactor_:
  /// followers are the leader's ring neighbours.
  [[nodiscard]] std::size_t followerAt(std::size_t leaderIndex,
                                       std::size_t i) const noexcept {
    return (leaderIndex + i) % tier_->size();
  }

  sim::Tier* tier_;
  sim::NetworkModel* network_;
  RaftCosts costs_;
  std::size_t replicationFactor_;
  std::uint64_t committedIndex_ = 0;
  std::uint64_t leaseChecks_ = 0;
  std::vector<std::uint64_t> applied_;
};

}  // namespace dcache::storage
