// Replays for layers that run only inside Deployment::serve. Each
// takes a cell's recorded op stream and drives a standalone instance of one
// layer's public API with it, timing every call from outside, the way
// bench/micro_storage.cpp's DbFixture drives a bare Database.
#pragma once

#include <cstdint>
#include <vector>

#include "cells.hpp"
#include "workload/workload.hpp"

namespace hostbench {

/// Host time of one replayed call: median and mean over `calls` calls.
struct LayerTiming {
  std::uint64_t calls = 0;
  double p50Ns = 0.0;
  double meanNs = 0.0;
};

struct ReplayResult {
  LayerTiming cacheGet;     // cache::makeCache(kLru, per-node capacity)
  LayerTiming cachePut;
  double cacheEvictionsPerOp = 0.0;
  LayerTiming rpcCall;      // rpc::Channel::call
  LayerTiming rpcPolicy;    // rpc::Channel::callWithPolicy
  LayerTiming readValue;    // storage::Database::readValue (KV workloads)
  LayerTiming writeValue;   // storage::Database::writeValue (KV workloads)
  LayerTiming exec;         // storage::Database::exec, getTable's SELECTs
  LayerTiming getTable;     // richobject::Assembler::getTable
  LayerTiming updateTable;  // richobject::Assembler::updateTable
  /// Channel calls each replayed storage call makes internally (the RPC
  /// share of storage time, so the layer shares do not double count).
  double rpcPerReadValue = 0.0;
  double rpcPerWriteValue = 0.0;
  double rpcPerGetTable = 0.0;
  double statementsPerGetTable = 0.0;
};

/// `ops` is a cell's whole op stream: spec.warmupOps warmup ops, then the
/// measured ops.
[[nodiscard]] ReplayResult replayLayers(
    const WorkloadSpec& spec, const std::vector<dcache::workload::Op>& ops);

/// Quantile `q` of `samples` (sorts them): the mean of the order statistics
/// within 0.1 % of rank either side of q. Smoother than one order
/// statistic, and fractional, so a steady timing still reads as measured.
[[nodiscard]] double quantileNs(std::vector<std::uint32_t>& samples,
                                double q);

}  // namespace hostbench
