#include "sim/fault.hpp"

#include <algorithm>
#include <string_view>

namespace dcache::sim {

std::string_view faultKindName(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kNodeRestart: return "node-restart";
    case FaultKind::kTierOutage: return "tier-outage";
    case FaultKind::kTierRecover: return "tier-recover";
    case FaultKind::kDegradeBegin: return "degrade-begin";
    case FaultKind::kDegradeEnd: return "degrade-end";
    case FaultKind::kNodeSlowBegin: return "node-slow-begin";
    case FaultKind::kNodeSlowEnd: return "node-slow-end";
    case FaultKind::kPartialPartitionBegin: return "partial-partition-begin";
    case FaultKind::kPartialPartitionEnd: return "partial-partition-end";
    case FaultKind::kNodeFlakyBegin: return "node-flaky-begin";
    case FaultKind::kNodeFlakyEnd: return "node-flaky-end";
  }
  return "unknown";
}

namespace {
/// Normalize an inverted window: the end event may never precede the begin
/// event, or the sorted schedule would close a window that never opened and
/// then open it with no matching close.
std::uint64_t clampWindowEnd(std::uint64_t fromMicros,
                             std::uint64_t untilMicros) noexcept {
  return untilMicros < fromMicros ? fromMicros : untilMicros;
}
}  // namespace

void FaultSchedule::add(FaultEvent event) {
  events_.push_back(event);
  sorted_ = events_.size() <= 1 ||
            (sorted_ && events_[events_.size() - 2].atMicros <= event.atMicros);
}

void FaultSchedule::crashNode(std::uint64_t atMicros, TierKind tier,
                              std::size_t node) {
  add({atMicros, FaultKind::kNodeCrash, tier, node, 1.0, 0.0});
}

void FaultSchedule::restartNode(std::uint64_t atMicros, TierKind tier,
                                std::size_t node) {
  add({atMicros, FaultKind::kNodeRestart, tier, node, 1.0, 0.0});
}

void FaultSchedule::crashWindow(std::uint64_t fromMicros,
                                std::uint64_t untilMicros, TierKind tier,
                                std::size_t node) {
  crashNode(fromMicros, tier, node);
  restartNode(clampWindowEnd(fromMicros, untilMicros), tier, node);
}

void FaultSchedule::tierOutage(std::uint64_t fromMicros,
                               std::uint64_t untilMicros, TierKind tier) {
  add({fromMicros, FaultKind::kTierOutage, tier, 0, 1.0, 0.0});
  add({clampWindowEnd(fromMicros, untilMicros), FaultKind::kTierRecover, tier,
       0, 1.0, 0.0});
}

void FaultSchedule::degradeNetwork(std::uint64_t fromMicros,
                                   std::uint64_t untilMicros,
                                   double latencyFactor,
                                   double dropProbability) {
  add({fromMicros, FaultKind::kDegradeBegin, TierKind::kAppServer, 0,
       latencyFactor, dropProbability});
  add({clampWindowEnd(fromMicros, untilMicros), FaultKind::kDegradeEnd,
       TierKind::kAppServer, 0, 1.0, 0.0});
}

void FaultSchedule::slowNode(std::uint64_t fromMicros,
                             std::uint64_t untilMicros, TierKind tier,
                             std::size_t node, double factor) {
  add({fromMicros, FaultKind::kNodeSlowBegin, tier, node,
       factor < 1.0 ? 1.0 : factor, 0.0});
  add({clampWindowEnd(fromMicros, untilMicros), FaultKind::kNodeSlowEnd, tier,
       node, 1.0, 0.0});
}

void FaultSchedule::partialPartition(std::uint64_t fromMicros,
                                     std::uint64_t untilMicros,
                                     TierKind fromTier, TierKind toTier) {
  add({fromMicros, FaultKind::kPartialPartitionBegin, fromTier, 0, 1.0, 0.0,
       toTier});
  add({clampWindowEnd(fromMicros, untilMicros),
       FaultKind::kPartialPartitionEnd, fromTier, 0, 1.0, 0.0, toTier});
}

void FaultSchedule::flakyNode(std::uint64_t fromMicros,
                              std::uint64_t untilMicros, TierKind tier,
                              std::size_t node, double dropProbability) {
  const double p = dropProbability < 0.0
                       ? 0.0
                       : (dropProbability > 1.0 ? 1.0 : dropProbability);
  add({fromMicros, FaultKind::kNodeFlakyBegin, tier, node, 1.0, p});
  add({clampWindowEnd(fromMicros, untilMicros), FaultKind::kNodeFlakyEnd,
       tier, node, 1.0, 0.0});
}

const std::vector<FaultEvent>& FaultSchedule::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.atMicros < b.atMicros;
                     });
    sorted_ = true;
  }
  return events_;
}

}  // namespace dcache::sim
