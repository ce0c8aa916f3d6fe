#include "rpc/channel.hpp"

#include <algorithm>
#include <bit>

#include "sim/trace_hook.hpp"

namespace dcache::rpc {

bool CircuitBreaker::allowRequest(double nowMicros) noexcept {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (nowMicros < openUntilMicros_) return false;
      state_ = State::kHalfOpen;
      probeInFlight_ = false;
      [[fallthrough]];
    case State::kHalfOpen:
      if (probeInFlight_) return false;  // one probe at a time
      probeInFlight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::record(bool ok, double nowMicros) noexcept {
  if (state_ == State::kHalfOpen) {
    probeInFlight_ = false;
    if (ok) {
      // Probe paid off: close with a clean slate, so one stray failure
      // right after recovery doesn't re-trip on stale window history.
      state_ = State::kClosed;
      window_ = 0;
      samples_ = 0;
    } else {
      trip(nowMicros);  // destination still sick: straight back to open
    }
    return;
  }
  if (state_ != State::kClosed) return;  // outcomes while open don't count
  const std::size_t cap = std::min<std::size_t>(policy_.windowSize, 64);
  window_ = (window_ << 1) | (ok ? 0ULL : 1ULL);
  if (samples_ < cap) ++samples_;
  const std::uint64_t mask =
      cap >= 64 ? ~0ULL : ((1ULL << cap) - 1ULL);
  const auto failures =
      static_cast<std::size_t>(std::popcount(window_ & mask));
  if (samples_ >= policy_.minSamples &&
      static_cast<double>(failures) >=
          policy_.failureRateToOpen * static_cast<double>(samples_)) {
    trip(nowMicros);
  }
}

void CircuitBreaker::trip(double nowMicros) noexcept {
  state_ = State::kOpen;
  openUntilMicros_ = nowMicros + policy_.openMicros;
  window_ = 0;
  samples_ = 0;
  probeInFlight_ = false;
  ++opens_;
}

bool Channel::legDropped(const sim::Node& src, const sim::Node& dst) noexcept {
  const double p = network_->dropProbability();
  const double fs = src.flakyProbability();
  const double fd = dst.flakyProbability();
  if (fs > 0.0 || fd > 0.0) [[unlikely]] {
    // A flaky endpoint drops legs independently of the degradation window.
    // Combined only when a flaky window is actually open: 1-(1-p) is not p
    // in floating point, so the plain-p path below must stay untouched for
    // byte-identity outside flaky windows.
    const double combined = 1.0 - (1.0 - p) * (1.0 - fs) * (1.0 - fd);
    return util::uniform01(faultRng_) < combined;
  }
  if (p <= 0.0) return false;  // no RNG draw: determinism outside windows
  return util::uniform01(faultRng_) < p;
}

namespace {

/// Framing + per-byte CPU one endpoint pays for a `bytes` leg.
double perEndMicros(const sim::NetworkModel& network,
                    std::uint64_t bytes) noexcept {
  return network.params().perMessageCpuMicros +
         network.params().perByteCpuMicros * static_cast<double>(bytes);
}

struct LostRequest {
  double wastedCpuMicros = 0.0;
  double sendMicros = 0.0;  // the send's own latency (0 when not sent)
};

/// Bill a request its receiver never gets: the sender's marshal (when
/// `marshal`) and, unless it was stopped before the wire (`sent` false: a
/// breaker short-circuit), the send itself. Request-leg loss, queue
/// rejection, breaker short-circuit and oneWay loss all price through here.
LostRequest chargeLostRequest(const SerializationModel& serializer,
                              sim::NetworkModel& network, sim::Node& sender,
                              std::uint64_t bytes, bool marshal,
                              sim::CpuComponent framingComponent,
                              bool sent) noexcept {
  LostRequest lost;
  if (marshal) {
    serializer.chargeSerialize(sender, bytes);
    lost.wastedCpuMicros += serializer.serializeMicros(bytes);
  }
  if (sent) {
    lost.sendMicros = network.chargeLostLeg(sender, bytes, framingComponent);
    lost.wastedCpuMicros += perEndMicros(network, bytes);
  }
  return lost;
}

/// Cost shape of a unary RPC attempt: marshalled request and response
/// legs, both endpoints' framing, and a wait in the server's queue. Each
/// lose*/abandon*/shortCircuit member charges what that outcome cost and
/// returns the wasted CPU; deliver*/complete* return the leg's latency.
struct UnaryLegs {
  static constexpr std::string_view kSpan = "rpc.attempt";
  static constexpr bool kQueued = true;

  const SerializationModel& serializer;
  sim::NetworkModel& network;
  sim::Node& client;
  sim::Node& server;
  std::uint64_t requestBytes;
  std::uint64_t responseBytes;
  bool marshal;
  sim::CpuComponent framing;

  /// Tripped breaker: the caller already built the request, nothing more.
  double shortCircuit() noexcept {
    return chargeLostRequest(serializer, network, client, requestBytes,
                             marshal, framing, /*sent=*/false)
        .wastedCpuMicros;
  }
  /// Request leg lost (or bounced off a full queue): marshal + send spent.
  double loseRequest() noexcept {
    return chargeLostRequest(serializer, network, client, requestBytes,
                             marshal, framing, /*sent=*/true)
        .wastedCpuMicros;
  }
  /// The client gives up before the server reaches the queued request —
  /// but the server can't know that: the request is received and
  /// processed anyway.
  double abandonInQueue() noexcept {
    double wasted = 0.0;
    if (marshal) {
      serializer.chargeSerialize(client, requestBytes);
      serializer.chargeDeserialize(server, requestBytes);
      wasted += serializer.serializeMicros(requestBytes) +
                serializer.deserializeMicros(requestBytes);
    }
    network.transfer(client, server, requestBytes, framing);
    wasted += 2.0 * perEndMicros(network, requestBytes);
    return wasted;
  }
  /// Request delivered: the server decodes it, runs, encodes the answer.
  double deliverRequest() noexcept {
    if (marshal) serializer.chargeSerialize(client, requestBytes);
    const double latency =
        network.transfer(client, server, requestBytes, framing);
    if (marshal) {
      serializer.chargeDeserialize(server, requestBytes);
      serializer.chargeSerialize(server, responseBytes);
    }
    return latency;
  }
  /// Response leg lost: the whole round so far bought nothing.
  double loseResponse() noexcept {
    network.chargeLostLeg(server, responseBytes, framing);
    double wasted = perEndMicros(network, responseBytes);
    wasted += 2.0 * perEndMicros(network, requestBytes);
    if (marshal) {
      wasted += serializer.serializeMicros(requestBytes) +
                serializer.deserializeMicros(requestBytes) +
                serializer.serializeMicros(responseBytes);
    }
    return wasted;
  }
  double completeResponse() noexcept {
    const double latency =
        network.transfer(server, client, responseBytes, framing);
    if (marshal) serializer.chargeDeserialize(client, responseBytes);
    return latency;
  }
};

/// Cost shape of a one-sided (RDMA-style) access: a lost read wastes the
/// tiny issue cost, not a marshalled request; no queue at the target (its
/// NIC serves the read).
struct OneSidedLegs {
  static constexpr std::string_view kSpan = "rdma.attempt";
  static constexpr bool kQueued = false;
  static constexpr auto kComp = sim::CpuComponent::kFarMemAccess;

  sim::NetworkModel& network;
  sim::Node& initiator;
  sim::Node& target;
  std::uint64_t payloadBytes;
  const OneSidedParams& params;

  [[nodiscard]] double wireLatency() const noexcept {
    double latency =
        2.0 * params.oneWayLatencyMicros +
        params.perByteLatencyMicros * static_cast<double>(payloadBytes);
    if (network.degraded()) latency *= network.latencyFactor();
    if (network.anySlowNodes()) [[unlikely]] {
      // A throttled target drags the read even though its CPU is off the
      // path: the NIC and memory bus run on the same starved clock.
      const double s = initiator.slowFactor() > target.slowFactor()
                           ? initiator.slowFactor()
                           : target.slowFactor();
      if (s != 1.0) latency *= s;
    }
    return latency;
  }
  void chargeSuccess() noexcept {
    // Three separate charges, not one fused sum: the byte-accounting test
    // reproduces bytes x per-byte price exactly, which a fused
    // floating-point add order would perturb.
    initiator.charge(kComp, params.issueMicros);
    initiator.charge(
        kComp, params.perByteCpuMicros * static_cast<double>(payloadBytes));
    initiator.charge(kComp, params.completionMicros);
    target.charge(kComp, params.targetTouchMicros);
    network.noteBytes(payloadBytes);
  }

  double shortCircuit() noexcept { return loseRequest(); }
  /// Posting lost before any memory is touched: only the issue is spent.
  double loseRequest() noexcept {
    initiator.charge(kComp, params.issueMicros);
    return params.issueMicros;
  }
  /// The work request reached the NIC; everything is billed on completion.
  double deliverRequest() noexcept { return 0.0; }
  /// The target's memory was read but the payload never lands.
  double loseResponse() noexcept {
    initiator.charge(kComp, params.issueMicros);
    target.charge(kComp, params.targetTouchMicros);
    return params.issueMicros + params.targetTouchMicros;
  }
  double completeResponse() noexcept {
    chargeSuccess();
    return wireLatency();
  }
};

}  // namespace

template <typename Legs>
CallResult Channel::runLadder(Legs& legs, sim::Node& client,
                              sim::Node& server,
                              const CallPolicy& policy) noexcept {
  CallResult out;
  out.ok = false;
  CircuitBreaker* breaker = nullptr;
  if (breakersEnabled_) {
    breaker = &breakers_.try_emplace(&server, breakerPolicy_).first->second;
    if (!breaker->allowRequest(static_cast<double>(nowMicros_))) {
      // Tripped: fail fast, nothing touches the wire. The caller already
      // built the request, though — a short-circuit is cheap, not free.
      ++calls_;
      const double wasted = legs.shortCircuit();
      out.wastedCpuMicros += wasted;
      faultCounters_.wastedCpuMicros += wasted;
      ++faultCounters_.breakerShortCircuits;
      return out;
    }
  }
  const std::uint64_t opensBefore = breaker ? breaker->opens() : 0;

  const bool hasDeadline = policy.deadlineMicros > 0.0;
  const std::size_t budget = std::max<std::size_t>(policy.maxAttempts, 1);
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    if (hasDeadline && out.latencyMicros >= policy.deadlineMicros) {
      // The per-call budget is gone: stop retrying even though the attempt
      // budget isn't. Counted apart from the timeouts that drained it.
      ++faultCounters_.budgetExhausted;
      break;
    }
    if (attempt > 0) {
      // Exponential backoff with seeded jitter; pure waiting, no CPU.
      double backoff = policy.backoffBaseMicros *
                       static_cast<double>(1ULL << (attempt - 1));
      backoff = std::min(backoff, policy.backoffMaxMicros);
      if (policy.jitterFraction > 0.0) {
        backoff *= 1.0 + policy.jitterFraction *
                             (2.0 * util::uniform01(faultRng_) - 1.0);
      }
      ++faultCounters_.retries;
      if (hasDeadline &&
          backoff >= policy.deadlineMicros - out.latencyMicros) {
        // The wait alone uses up the budget: the caller gives up at the
        // deadline instead of starting an attempt with nothing left.
        out.latencyMicros = policy.deadlineMicros;
        ++faultCounters_.budgetExhausted;
        break;
      }
      out.latencyMicros += backoff;
    }
    // One span per attempt: a retried call shows up in a trace as a ladder
    // of timed-out legs followed by the leg that paid off (or kFailed
    // silence). All the wasted CPU lands on the timed-out spans, which is
    // how the conservation test sees retry cost attributed exactly once.
    sim::SpanGuard attemptSpan(Legs::kSpan, server.tier());
    ++out.attempts;
    ++calls_;
    // The attempt gives up when the budget runs out: the queue check below
    // measures the backlog against what is left.
    const double attemptTimeout =
        hasDeadline ? std::min(policy.timeoutMicros,
                               policy.deadlineMicros - out.latencyMicros)
                    : policy.timeoutMicros;
    // A leg that never paid off: the caller waits `waitMicros`, never past
    // the deadline, and the CPU the shape charged for it is booked as
    // waste. So a call that fails ends by its deadline.
    const auto lose = [&](double wasted, double waitMicros,
                          sim::SpanOutcome outcome) noexcept {
      out.latencyMicros += waitMicros;
      if (hasDeadline) {
        out.latencyMicros = std::min(out.latencyMicros, policy.deadlineMicros);
      }
      out.wastedCpuMicros += wasted;
      ++out.timedOutLegs;
      faultCounters_.wastedCpuMicros += wasted;
      attemptSpan.setOutcome(outcome);
    };

    // Request leg. A down server, a cut client->server link (asymmetric
    // partition) or a dropped packet loses the leg: the client already paid
    // to send, then waits out the timeout.
    if (!server.isUp() ||
        network_->linkCut(client.tier(), server.tier()) ||
        legDropped(client, server)) {
      lose(legs.loseRequest(), attemptTimeout, sim::SpanOutcome::kTimeout);
      ++faultCounters_.timeouts;
      continue;
    }

    // Destination queueing: with a finite capacity configured the attempt
    // waits behind the node's backlog before service.
    if constexpr (Legs::kQueued) {
      if (server.queue().enabled()) {
        sim::NodeQueue& queue = server.queue();
        queue.drainTo(nowMicros_);
        const double wait = queue.waitMicros();
        if (wait >= queue.params().maxWaitMicros) {
          // Bounded queue is full: the node bounces the request at the
          // door. Cheap for the server (that is the point of bounding the
          // queue), but the client's marshal + send is spent, and the retry
          // path will probably bring the request straight back.
          lose(legs.loseRequest(),
               2.0 * network_->params().oneWayLatencyMicros,
               sim::SpanOutcome::kQueueTimeout);
          ++faultCounters_.queueRejections;
          continue;
        }
        if (wait > attemptTimeout) {
          // The client gives up first, and the server processes the request
          // anyway: work nobody receives. Under retries this is the
          // metastable-failure amplifier (every abandoned attempt deepens
          // the very backlog that caused it).
          lose(legs.abandonInQueue(), attemptTimeout,
               sim::SpanOutcome::kQueueTimeout);
          ++faultCounters_.timeouts;
          ++faultCounters_.queueTimeouts;
          continue;
        }
        out.latencyMicros += wait;  // service starts after the backlog drains
      }
    }

    out.latencyMicros += legs.deliverRequest();

    // Response leg. A drop here wastes the whole round so far: the server
    // did its work, but the client never sees the answer. A cut
    // server->client link is the expensive asymmetric-partition case: every
    // request gets through, every answer is lost, and the server burns full
    // work per retry.
    if (network_->linkCut(server.tier(), client.tier()) ||
        legDropped(server, client)) {
      lose(legs.loseResponse(), attemptTimeout, sim::SpanOutcome::kTimeout);
      ++faultCounters_.timeouts;
      continue;
    }

    out.latencyMicros += legs.completeResponse();
    out.ok = true;
    if (attempt > 0) attemptSpan.setOutcome(sim::SpanOutcome::kRetry);
    break;
  }

  if (!out.ok) ++faultCounters_.failedCalls;
  if (breaker) {
    breaker->record(out.ok, static_cast<double>(nowMicros_));
    faultCounters_.breakerOpens += breaker->opens() - opensBefore;
  }
  if (observer_ != nullptr) {
    observer_->onCallOutcome(server, out.ok, out.latencyMicros, nowMicros_);
  }
  return out;
}

CallResult Channel::callWithPolicy(
    sim::Node& client, sim::Node& server, std::uint64_t requestBytes,
    std::uint64_t responseBytes, const CallPolicy& policy, bool marshal,
    sim::CpuComponent framingComponent) noexcept {
  if (&client == &server) {  // in-process: nothing can fail or cost
    ++calls_;
    CallResult out;
    out.attempts = 1;
    return out;
  }
  UnaryLegs legs{serializer_,  *network_,    client,
                 server,       requestBytes, responseBytes,
                 marshal,      framingComponent};
  return runLadder(legs, client, server, policy);
}

double Channel::hedgeDelayMicros(sim::TierKind tier) const noexcept {
  const util::Histogram& tracked =
      hedgeLatency_[static_cast<std::size_t>(tier)];
  if (tracked.count() < hedgePolicy_.minSamples) {
    return hedgePolicy_.minHedgeDelayMicros;
  }
  return std::max(hedgePolicy_.minHedgeDelayMicros,
                  tracked.quantile(hedgePolicy_.quantile));
}

void Channel::noteHedgeLatency(sim::TierKind tier,
                               const CallResult& result) noexcept {
  if (!result.ok) return;  // the tracker models healthy-call latency
  hedgeLatency_[static_cast<std::size_t>(tier)].record(result.latencyMicros);
}

CallResult Channel::callHedged(
    sim::Node& client, sim::Node& primary, sim::Node* backup,
    std::uint64_t requestBytes, std::uint64_t responseBytes,
    const CallPolicy& policy, bool marshal,
    sim::CpuComponent framingComponent) noexcept {
  if (!hedgingEnabled_ || backup == nullptr || backup == &primary ||
      !backup->isUp()) {
    const CallResult out =
        callWithPolicy(client, primary, requestBytes, responseBytes, policy,
                       marshal, framingComponent);
    if (hedgingEnabled_) noteHedgeLatency(primary.tier(), out);
    return out;
  }

  const double hedgeDelay = hedgeDelayMicros(primary.tier());
  const CallResult first =
      callWithPolicy(client, primary, requestBytes, responseBytes, policy,
                     marshal, framingComponent);
  noteHedgeLatency(primary.tier(), first);
  if (first.ok && first.latencyMicros <= hedgeDelay) return first;

  // The primary blew through the tracked quantile (or failed outright):
  // fire one backup attempt at the replica. Whichever answer lands first
  // wins; cancel-on-first-win can't unspend the loser's CPU, so both
  // attempts stay billed — the hedge's cost is the price of the tail it
  // shaves.
  sim::SpanGuard hedgeSpan("rpc.hedge", backup->tier());
  hedgeSpan.setOutcome(sim::SpanOutcome::kHedged);
  ++faultCounters_.hedgesSent;
  CallPolicy single = policy;
  single.maxAttempts = 1;  // the hedge is the retry
  const CallResult hedge =
      callWithPolicy(client, *backup, requestBytes, responseBytes, single,
                     marshal, framingComponent);
  noteHedgeLatency(backup->tier(), hedge);

  CallResult out = first;
  out.attempts += hedge.attempts;
  out.timedOutLegs += hedge.timedOutLegs;
  out.wastedCpuMicros += hedge.wastedCpuMicros;
  if (hedge.ok) {
    const double viaHedge = hedgeDelay + hedge.latencyMicros;
    if (!first.ok || viaHedge < first.latencyMicros) {
      ++faultCounters_.hedgeWins;
      out.ok = true;
      out.latencyMicros =
          first.ok ? std::min(first.latencyMicros, viaHedge) : viaHedge;
    }
  }
  return out;
}

CallResult Channel::oneSidedRead(sim::Node& initiator, sim::Node& target,
                                 std::uint64_t payloadBytes,
                                 const OneSidedParams& params) noexcept {
  CallResult result;
  if (&initiator == &target) {  // in-process: free by design, like call()
    ++calls_;
    return result;
  }
  OneSidedLegs legs{*network_, initiator, target, payloadBytes, params};
  if (!faultsEnabled_) [[likely]] {
    ++calls_;
    legs.chargeSuccess();
    result.latencyMicros = legs.wireLatency();
    return result;
  }
  // Fault path: a far-memory node can be just as down, partitioned, flaky
  // or gray-slow as an RPC server, so the access runs the same ladder as
  // callWithPolicy; only the per-leg cost shape differs.
  return runLadder(legs, initiator, target, defaultPolicy_);
}

double Channel::oneWay(sim::Node& from, sim::Node& to, std::uint64_t bytes,
                       bool marshal,
                       sim::CpuComponent framingComponent) noexcept {
  ++calls_;
  if (&from == &to) return 0.0;
  if (faultsEnabled_ &&
      (!to.isUp() || network_->linkCut(from.tier(), to.tier()) ||
       legDropped(from, to))) {
    // Fire-and-forget into the void: the sender pays, the message is lost.
    const LostRequest lost =
        chargeLostRequest(serializer_, *network_, from, bytes, marshal,
                          framingComponent, /*sent=*/true);
    faultCounters_.wastedCpuMicros += lost.wastedCpuMicros;
    return lost.sendMicros;
  }
  if (marshal) serializer_.chargeSerialize(from, bytes);
  const double latency = network_->transfer(from, to, bytes, framingComponent);
  if (marshal) serializer_.chargeDeserialize(to, bytes);
  return latency;
}

}  // namespace dcache::rpc
