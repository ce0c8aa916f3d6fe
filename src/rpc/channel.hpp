// RPC channel: one unary call = marshal request at the client, ship it,
// unmarshal at the server, run the handler, marshal the response, ship it
// back, unmarshal at the client. Every step charges the correct node, which
// is precisely the accounting the paper's architecture comparison rests on:
// Remote pays this full path per cache access, Linked pays none of it on a
// local hit.
//
// Under fault injection (sim/fault.hpp) the channel also owns the failure
// semantics: a call to a down node or through a lossy degradation window
// times out and is retried under a CallPolicy (per-call timeout,
// exponential backoff with seeded jitter, bounded attempt budget). Failed
// and retried legs still charge CPU at whichever endpoints did work —
// retries are a *cost*, and the wasted share is tracked separately so the
// benches can price it.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "rpc/serialization_model.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace dcache::rpc {

/// Outcome of a call as seen by the transport. `ok` is false when every
/// attempt of a policy-governed call failed (callers fall back — e.g. a
/// cache client degrades to the storage path). The remaining fields are
/// the retry ladder's anatomy, for the failure-timeline bench and the
/// tests; the no-fault fast path leaves them zero.
struct CallResult {
  double latencyMicros = 0.0;
  bool ok = true;
  std::size_t attempts = 0;
  std::size_t timedOutLegs = 0;
  double wastedCpuMicros = 0.0;  // CPU charged to legs that never paid off
};

/// Retry/timeout/backoff policy for calls made while fault injection is
/// active. Defaults model a tuned intra-datacenter RPC stack: tight
/// timeout, 3 attempts, exponential backoff with +/-20% jitter.
struct CallPolicy {
  double timeoutMicros = 2000.0;
  std::size_t maxAttempts = 3;  // 1 initial try + 2 retries
  double backoffBaseMicros = 500.0;
  double backoffMaxMicros = 8000.0;
  double jitterFraction = 0.2;
  /// Overall per-call budget (0 = unbounded, the legacy behaviour). Waits
  /// on lost legs are clamped so a call that fails ends by the deadline,
  /// and a backoff that would use up the rest ends the call there instead
  /// of starting an attempt with an empty budget. A call the budget stops
  /// is counted as budgetExhausted (distinct from the per-attempt timeouts
  /// that ate the budget). An answer is not clamped: an attempt that
  /// starts with less budget than its round trip and then succeeds
  /// reports its full latency. Unary calls and one-sided reads share these
  /// rules: they run one retry ladder.
  double deadlineMicros = 0.0;
};

/// Cost shape of a one-sided (RDMA-style) far-memory access. The whole
/// point of the disaggregated architecture is that this shape is unlike a
/// unary RPC: the initiator pays a small fixed issue/completion cost plus a
/// per-byte pull, the target's CPU is barely touched (its NIC serves the
/// read from memory), and the fabric round-trip skips both kernels.
struct OneSidedParams {
  double issueMicros = 1.0;         // initiator: post the work request
  double completionMicros = 0.5;    // initiator: poll/absorb the completion
  double perByteCpuMicros = 0.0002; // initiator per payload byte (0.2 ns/B)
  double targetTouchMicros = 0.02;  // target CPU per access (near zero)
  double oneWayLatencyMicros = 3.0; // no kernel on the path
  double perByteLatencyMicros = 0.0008;  // same 10 Gbps wire as the RPCs
};

/// Per-destination circuit-breaker tuning (enableBreakers).
struct BreakerPolicy {
  std::size_t windowSize = 20;     // sliding outcome window (<= 64)
  std::size_t minSamples = 10;     // don't judge a destination on one call
  double failureRateToOpen = 0.5;  // trip when failures/window reaches this
  double openMicros = 50000.0;     // cool-down before the half-open probe
};

/// Hedged-request tuning (enableHedging). The hedge delay tracks the
/// destination tier's observed latency quantile, floored while the tracker
/// warms up.
struct HedgePolicy {
  double quantile = 0.99;
  double minHedgeDelayMicros = 500.0;
  std::uint64_t minSamples = 64;  // tracker warm-up before the quantile rules
};

/// Closed -> open -> half-open state machine over a sliding window of call
/// outcomes to one destination. Deterministic: driven entirely by the sim
/// clock its owner passes in. Standalone so the state-machine tests can
/// step it directly.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerPolicy policy = {}) noexcept
      : policy_(policy) {}

  /// May a call proceed now? Open short-circuits until the cool-down
  /// elapses; then exactly one half-open probe is admitted at a time.
  [[nodiscard]] bool allowRequest(double nowMicros) noexcept;
  /// Outcome of an admitted call. A failing closed-state window trips the
  /// breaker; the half-open probe's outcome closes or re-opens it.
  void record(bool ok, double nowMicros) noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Total transitions into open (including probe-failure re-opens).
  [[nodiscard]] std::uint64_t opens() const noexcept { return opens_; }
  [[nodiscard]] const BreakerPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  void trip(double nowMicros) noexcept;

  BreakerPolicy policy_;
  State state_ = State::kClosed;
  double openUntilMicros_ = 0.0;
  std::uint64_t window_ = 0;  // outcome bits, newest at bit 0 (1 = failure)
  std::size_t samples_ = 0;
  std::uint64_t opens_ = 0;
  bool probeInFlight_ = false;
};

/// Observer of per-destination call outcomes at the channel boundary — the
/// feed a failure detector (core::HealthMonitor) runs on. The channel
/// reports only calls that actually went to the wire: breaker
/// short-circuits carry no fresh evidence about the destination (the
/// breaker already judged it), and the no-fault fast path never reports
/// (nothing to detect when nothing can fail).
class CallObserver {
 public:
  virtual ~CallObserver() = default;
  /// One policy-governed call to `dst` finished: `ok` is the final verdict
  /// after retries, `latencyMicros` the call's total latency (backoff and
  /// timed-out waits included — slowness is the signal), `nowMicros` the
  /// sim clock.
  virtual void onCallOutcome(const sim::Node& dst, bool ok,
                             double latencyMicros,
                             std::uint64_t nowMicros) = 0;
};

class Channel {
 public:
  Channel(sim::NetworkModel& network, SerializationModel serializer) noexcept
      : network_(&network), serializer_(serializer) {}

  /// Unary call with pre-computed encoded sizes. `marshal` toggles value
  /// (de)serialization accounting — a linked in-process access sets it
  /// false, every cross-process RPC sets it true. `framingComponent` lets
  /// callers attribute the hop (client traffic vs inter-tier traffic) so
  /// the Fig. 6 CPU breakdown can separate them. With faults enabled the
  /// call is transparently routed through callWithPolicy. Inline so the
  /// no-fault benches pay one branch, not an extra call frame, per RPC.
  CallResult call(sim::Node& client, sim::Node& server,
                  std::uint64_t requestBytes, std::uint64_t responseBytes,
                  bool marshal = true,
                  sim::CpuComponent framingComponent =
                      sim::CpuComponent::kRpcFraming) noexcept {
    if (!faultsEnabled_) [[likely]] {
      return callDirect(client, server, requestBytes, responseBytes, marshal,
                        framingComponent);
    }
    return callWithPolicy(client, server, requestBytes, responseBytes,
                          defaultPolicy_, marshal, framingComponent);
  }

  /// One-way message (e.g. an invalidation fan-out) — no response leg.
  /// Fire-and-forget: under faults a dropped/unreachable leg charges the
  /// sender and is simply lost (no retry).
  double oneWay(sim::Node& from, sim::Node& to, std::uint64_t bytes,
                bool marshal = true,
                sim::CpuComponent framingComponent =
                    sim::CpuComponent::kRpcFraming) noexcept;

  /// One-sided read: a single round-trip that pulls `payloadBytes` out of
  /// `target`'s memory. No marshal/unmarshal, no per-message framing at the
  /// target — the initiator pays issue + per-byte + completion CPU (all
  /// under kFarMemAccess), the target pays only `targetTouchMicros`, and
  /// the bytes cross the wire via NetworkModel::noteBytes. Under faults the
  /// access runs the same retry ladder as callWithPolicy (a
  /// down/partitioned/flaky target times the initiator out) and reports to
  /// the breaker/observer feeds so health monitoring can judge a gray
  /// far-memory node.
  CallResult oneSidedRead(sim::Node& initiator, sim::Node& target,
                          std::uint64_t payloadBytes,
                          const OneSidedParams& params) noexcept;

  /// Unary call under an explicit retry policy. Each attempt can lose its
  /// request leg (server down, or a drop rolled from the seeded RNG inside
  /// a degradation window) or its response leg; a lost leg costs the
  /// sender's CPU plus a full timeout wait, then the policy backs off
  /// (exponential, jittered) and retries until the attempt budget runs
  /// out.
  CallResult callWithPolicy(sim::Node& client, sim::Node& server,
                            std::uint64_t requestBytes,
                            std::uint64_t responseBytes,
                            const CallPolicy& policy, bool marshal = true,
                            sim::CpuComponent framingComponent =
                                sim::CpuComponent::kRpcFraming) noexcept;

  /// Hedged unary call for replicated destinations: run the primary; if it
  /// fails — or takes longer than the tier's tracked latency quantile —
  /// fire one backup attempt at `backup` and take whichever answer lands
  /// first. Cancel-on-first-win cannot unspend CPU: both attempts stay
  /// billed, and the hedge's cost is the price of the tail latency it
  /// shaves. Falls back to a plain policy call when hedging is off or no
  /// live backup exists.
  CallResult callHedged(sim::Node& client, sim::Node& primary,
                        sim::Node* backup, std::uint64_t requestBytes,
                        std::uint64_t responseBytes, const CallPolicy& policy,
                        bool marshal = true,
                        sim::CpuComponent framingComponent =
                            sim::CpuComponent::kRpcFraming) noexcept;

  /// Arm the fault path: seeds the drop/jitter RNG and makes call()
  /// delegate to callWithPolicy(`policy`). Never armed by default, so the
  /// fast path (and its accounting) is byte-identical to a channel built
  /// before fault injection existed.
  void enableFaults(std::uint64_t seed, CallPolicy policy = {}) noexcept {
    faultsEnabled_ = true;
    faultRng_ = util::Pcg32(seed, 0x9e3779b9U);
    defaultPolicy_ = policy;
  }
  [[nodiscard]] bool faultsEnabled() const noexcept { return faultsEnabled_; }
  [[nodiscard]] const CallPolicy& defaultPolicy() const noexcept {
    return defaultPolicy_;
  }

  /// Sim clock, fed by the deployment. Drives the queueing model's drain
  /// and the breaker cool-downs; harmless (a single store) when neither is
  /// in use.
  void setNowMicros(std::uint64_t nowMicros) noexcept {
    nowMicros_ = nowMicros;
  }
  [[nodiscard]] std::uint64_t nowMicros() const noexcept { return nowMicros_; }

  /// Arm per-destination circuit breakers: calls to a destination whose
  /// recent failure rate trips the window are short-circuited (fail fast,
  /// no wire traffic) until a half-open probe succeeds. The short-circuited
  /// caller still pays the request it already built — tripping is cheap,
  /// not free.
  void enableBreakers(BreakerPolicy policy) noexcept {
    breakersEnabled_ = true;
    breakerPolicy_ = policy;
  }
  [[nodiscard]] bool breakersEnabled() const noexcept {
    return breakersEnabled_;
  }
  /// Breaker guarding `server` (null if none has been created yet).
  [[nodiscard]] const CircuitBreaker* breakerFor(
      const sim::Node& server) const noexcept {
    const auto it = breakers_.find(&server);
    return it == breakers_.end() ? nullptr : &it->second;
  }

  /// Install (or clear, with nullptr) the per-destination outcome observer.
  /// Only policy-path calls are reported, so with faults/overload disarmed
  /// an installed observer never fires.
  void setCallObserver(CallObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Arm hedged requests (callHedged falls back to callWithPolicy when
  /// this is off).
  void enableHedging(HedgePolicy policy) noexcept {
    hedgingEnabled_ = true;
    hedgePolicy_ = policy;
  }
  [[nodiscard]] bool hedgingEnabled() const noexcept {
    return hedgingEnabled_;
  }
  /// Current hedge-fire threshold for a destination tier.
  [[nodiscard]] double hedgeDelayMicros(sim::TierKind tier) const noexcept;

  /// Cumulative fault-path accounting (cleared by clearFaultCounters).
  struct FaultCounters {
    // Extra attempts beyond the first, counted when the backoff starts (a
    // retry the deadline budget then stops still counts).
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;     // legs that waited out the timeout
    std::uint64_t failedCalls = 0;  // calls that exhausted their budget
    double wastedCpuMicros = 0.0;   // CPU spent on legs that never paid off
    // Overload-path accounting (zero unless the defenses are armed).
    std::uint64_t budgetExhausted = 0;  // calls stopped by deadlineMicros
    std::uint64_t queueTimeouts = 0;    // attempts outwaited by the backlog
    std::uint64_t queueRejections = 0;  // bounced off a full bounded queue
    std::uint64_t breakerOpens = 0;     // transitions into open
    std::uint64_t breakerShortCircuits = 0;  // calls failed fast while open
    std::uint64_t hedgesSent = 0;  // backup attempts fired
    std::uint64_t hedgeWins = 0;   // hedges whose answer landed first
  };
  [[nodiscard]] const FaultCounters& faultCounters() const noexcept {
    return faultCounters_;
  }
  void clearFaultCounters() noexcept { faultCounters_ = FaultCounters{}; }

  [[nodiscard]] std::uint64_t callCount() const noexcept { return calls_; }
  [[nodiscard]] const SerializationModel& serializer() const noexcept {
    return serializer_;
  }
  [[nodiscard]] sim::NetworkModel& network() noexcept { return *network_; }

 private:
  /// Plain two-leg unary call (the pre-fault fast path). Inline: every
  /// simulated RPC in the no-fault benches funnels through here.
  CallResult callDirect(sim::Node& client, sim::Node& server,
                        std::uint64_t requestBytes,
                        std::uint64_t responseBytes, bool marshal,
                        sim::CpuComponent framingComponent) noexcept {
    ++calls_;
    CallResult result;
    if (&client == &server) return result;  // in-process: free by design

    if (marshal) {
      serializer_.chargeSerialize(client, requestBytes);
    }
    result.latencyMicros +=
        network_->transfer(client, server, requestBytes, framingComponent);
    if (marshal) {
      serializer_.chargeDeserialize(server, requestBytes);
      serializer_.chargeSerialize(server, responseBytes);
    }
    result.latencyMicros +=
        network_->transfer(server, client, responseBytes, framingComponent);
    if (marshal) {
      serializer_.chargeDeserialize(client, responseBytes);
    }
    return result;
  }
  /// The one retry ladder behind callWithPolicy and oneSidedRead: breaker
  /// admission, deadline budget, jittered backoff, per-attempt leg loss,
  /// the destination queue, then the breaker record and the observer feed.
  /// `Legs` (channel.cpp) is the transport's cost shape — what a lost,
  /// delivered or completed leg charges — bound statically per transport.
  template <typename Legs>
  CallResult runLadder(Legs& legs, sim::Node& client, sim::Node& server,
                       const CallPolicy& policy) noexcept;
  /// Roll a leg drop from the seeded RNG for the src -> dst leg. Combines
  /// the network degradation window's drop probability with either
  /// endpoint's flaky-node probability; only consumed when some probability
  /// is non-zero, preserving determinism (and the exact draw sequence)
  /// elsewhere.
  [[nodiscard]] bool legDropped(const sim::Node& src,
                                const sim::Node& dst) noexcept;
  /// Feed the hedge-delay tracker (only when hedging is armed).
  void noteHedgeLatency(sim::TierKind tier, const CallResult& result) noexcept;

  sim::NetworkModel* network_;
  SerializationModel serializer_;
  std::uint64_t calls_ = 0;
  bool faultsEnabled_ = false;
  util::Pcg32 faultRng_{};
  CallPolicy defaultPolicy_{};
  FaultCounters faultCounters_{};
  std::uint64_t nowMicros_ = 0;

  bool breakersEnabled_ = false;
  BreakerPolicy breakerPolicy_{};
  std::unordered_map<const sim::Node*, CircuitBreaker> breakers_;
  CallObserver* observer_ = nullptr;

  bool hedgingEnabled_ = false;
  HedgePolicy hedgePolicy_{};
  /// Observed ok-call latency per destination tier; its quantile is the
  /// hedge-fire threshold.
  std::array<util::Histogram, static_cast<std::size_t>(sim::TierKind::kCount)>
      hedgeLatency_;
};

}  // namespace dcache::rpc
