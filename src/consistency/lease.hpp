// Ownership leases over key ranges (§6 future work). An auto-sharder
// (Slicer-like) grants each app server a lease with an epoch over its ring
// partition; while the lease is live and all writes are routed through the
// owner, the owner can serve consistent reads *without* a per-read version
// check — replacing O(QPS) storage round-trips with O(shards / lease term)
// renewals. LeaseManager serves bench/ablation_consistency only: its
// Linked+Lease cells quantify how much of the §5.5 loss this design
// recovers. core::Deployment has no lease path.
#pragma once

#include <cstdint>
#include <vector>

#include "rpc/channel.hpp"
#include "sim/tier.hpp"

namespace dcache::consistency {

struct LeaseConfig {
  std::uint64_t leaseTermMicros = 2'000'000;  // 2 s, Chubby-style short lease
  double localCheckMicros = 0.15;  // epoch compare on the read path
  std::uint64_t renewalMessageBytes = 64;
};

class LeaseManager {
 public:
  /// `appTier` holds the lease holders; `authority` is the node that grants
  /// leases (the sequencer / lock service; typically a storage node).
  LeaseManager(sim::Tier& appTier, sim::Node& authority,
               rpc::Channel& channel, LeaseConfig config = {});

  /// Can `member` serve a consistent read locally at `nowMicros`?
  /// Charges the (tiny) local epoch check.
  bool canServeLocally(std::size_t member, std::uint64_t nowMicros);

  /// Renew the member's lease (RPC to the authority). Idempotent if the
  /// lease is still fresh enough that renewal isn't due.
  void renew(std::size_t member, std::uint64_t nowMicros);

  /// Revoke on reshard/failure: bumps the epoch so in-flight stale writes
  /// can be fenced (the Fig. 8 fix).
  void revoke(std::size_t member);

  [[nodiscard]] std::uint64_t epoch(std::size_t member) const {
    return leases_.at(member).epoch;
  }
  [[nodiscard]] std::uint64_t renewals() const noexcept { return renewals_; }
  [[nodiscard]] std::uint64_t localChecks() const noexcept {
    return localChecks_;
  }

 private:
  struct Lease {
    std::uint64_t expiry = 0;
    std::uint64_t epoch = 1;
    bool revoked = false;
  };

  sim::Tier* tier_;
  sim::Node* authority_;
  rpc::Channel* channel_;
  LeaseConfig config_;
  std::vector<Lease> leases_;
  std::uint64_t renewals_ = 0;
  std::uint64_t localChecks_ = 0;
};

}  // namespace dcache::consistency
