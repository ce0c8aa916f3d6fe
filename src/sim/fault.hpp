// Deterministic fault injection. A FaultSchedule is a list of timed events
// — node crashes/restarts, whole-tier outages, network-degradation windows
// — applied against the simulated clock by whoever owns the deployment
// state (core::Deployment drives it from setSimTimeMicros). The schedule
// itself is pure data: fully ordered, no hidden randomness, so a matrix
// cell that installs the same schedule with the same seed replays the same
// failure timeline byte-for-byte regardless of worker count. The only
// randomness faults introduce (per-leg message drops, retry-backoff
// jitter) is drawn from the RPC channel's own seeded generator.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/node.hpp"

namespace dcache::sim {

enum class FaultKind : std::uint8_t {
  kNodeCrash,     // node goes down; volatile state (its caches) is lost
  kNodeRestart,   // node rejoins with cold caches
  kTierOutage,    // every node of a tier becomes unreachable (network
                  // partition / rollout gone wrong); state survives
  kTierRecover,   // the tier becomes reachable again
  kDegradeBegin,  // network degradation window opens (latency x, drops)
  kDegradeEnd,    // degradation window closes
  // Gray failures: the node stays *up* — health checks pass, the load
  // balancer keeps routing to it — but it is slow, lossy, or reachable
  // from only one direction. Detecting these is the health monitor's job
  // (core/health.hpp); injecting them is ours.
  kNodeSlowBegin,         // node's CPU and RPC legs slow by latencyFactor
  kNodeSlowEnd,           // slow window closes (factor back to 1)
  kPartialPartitionBegin,  // asymmetric link cut: tier -> dstTier drops
                           // while dstTier -> tier still works
  kPartialPartitionEnd,    // the cut heals
  kNodeFlakyBegin,  // node drops each message leg with dropProbability
  kNodeFlakyEnd,    // flaky window closes
};

[[nodiscard]] std::string_view faultKindName(FaultKind kind) noexcept;

struct FaultEvent {
  std::uint64_t atMicros = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  TierKind tier = TierKind::kAppServer;  // node/tier events; partition source
  std::size_t nodeIndex = 0;             // node events
  double latencyFactor = 1.0;   // kDegradeBegin / kNodeSlowBegin
  double dropProbability = 0.0;  // kDegradeBegin / kNodeFlakyBegin: per leg
  TierKind dstTier = TierKind::kAppServer;  // kPartialPartition*: cut target
};

class FaultSchedule {
 public:
  void add(FaultEvent event);

  // ---- convenience builders ----
  // Every window builder normalizes an inverted window (fromMicros >
  // untilMicros) by clamping the end up to the start: the window becomes
  // empty-length instead of a begin/end pair that stable_sort would reorder
  // into an end-before-begin schedule (close a window that never opened,
  // then open it forever).
  void crashNode(std::uint64_t atMicros, TierKind tier, std::size_t node);
  void restartNode(std::uint64_t atMicros, TierKind tier, std::size_t node);
  /// Crash + restart in one call: down at `fromMicros`, cold restart at
  /// `untilMicros`.
  void crashWindow(std::uint64_t fromMicros, std::uint64_t untilMicros,
                   TierKind tier, std::size_t node);
  void tierOutage(std::uint64_t fromMicros, std::uint64_t untilMicros,
                  TierKind tier);
  void degradeNetwork(std::uint64_t fromMicros, std::uint64_t untilMicros,
                      double latencyFactor, double dropProbability);
  /// Gray failure: the node keeps answering, but every unit of CPU it does
  /// and every RPC leg it touches takes `factor` times longer (a throttled
  /// VM, a dying disk, a neighbor stealing its cores).
  void slowNode(std::uint64_t fromMicros, std::uint64_t untilMicros,
                TierKind tier, std::size_t node, double factor);
  /// Gray failure: asymmetric partition — messages from `fromTier` to
  /// `toTier` are lost while the reverse direction still delivers.
  void partialPartition(std::uint64_t fromMicros, std::uint64_t untilMicros,
                        TierKind fromTier, TierKind toTier);
  /// Gray failure: the node drops each message leg it sends or receives
  /// with `dropProbability` (seeded draw in the RPC channel).
  void flakyNode(std::uint64_t fromMicros, std::uint64_t untilMicros,
                 TierKind tier, std::size_t node, double dropProbability);

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Events in application order: ascending time, insertion order breaking
  /// ties. Sorted lazily on first access after a mutation.
  [[nodiscard]] const std::vector<FaultEvent>& events() const;

 private:
  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

}  // namespace dcache::sim
