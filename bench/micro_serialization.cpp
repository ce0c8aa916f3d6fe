// dcache-lint: allow-file(bench-hygiene, Google-Benchmark microbench — stdout carries wall-clock timings and can never be byte-deterministic, so it is excluded from the determinism diff and golden gates)
// Micro-benchmarks for the real wire codec. These calibrate (and verify)
// the serialization cost model: encode and decode must be linear in payload
// bytes with a small per-message constant — the assumption the experiment
// hot path's analytic charging rests on. Compare bytes_per_second here
// against SerializationParams (~1 GB/s encode, ~0.6 GB/s decode).
#include <benchmark/benchmark.h>

#include <string>

#include "rpc/messages.hpp"
#include "rpc/wire.hpp"

namespace {

using namespace dcache;

void BM_EncodeGetResponse(benchmark::State& state) {
  rpc::GetResponse resp;
  resp.found = true;
  resp.version = 123456789;
  resp.value = std::string(static_cast<std::size_t>(state.range(0)), 'v');
  for (auto _ : state) {
    rpc::WireEncoder enc;
    resp.encode(enc);
    benchmark::DoNotOptimize(enc.view().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(resp.encodedSize()));
}
BENCHMARK(BM_EncodeGetResponse)->Range(64, 1 << 20);

void BM_DecodeGetResponse(benchmark::State& state) {
  rpc::GetResponse resp;
  resp.found = true;
  resp.version = 42;
  resp.value = std::string(static_cast<std::size_t>(state.range(0)), 'v');
  rpc::WireEncoder enc;
  resp.encode(enc);
  const std::string bytes(enc.view());
  for (auto _ : state) {
    auto decoded = rpc::GetResponse::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeGetResponse)->Range(64, 1 << 20);

void BM_VarintEncode(benchmark::State& state) {
  std::uint64_t v = 0x123456789abcULL;
  for (auto _ : state) {
    rpc::WireEncoder enc;
    for (int i = 0; i < 64; ++i) enc.writeVarint(v + static_cast<std::uint64_t>(i));
    benchmark::DoNotOptimize(enc.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  rpc::WireEncoder enc;
  for (int i = 0; i < 64; ++i) {
    enc.writeVarint(0x123456789abcULL + static_cast<std::uint64_t>(i));
  }
  const std::string bytes(enc.view());
  for (auto _ : state) {
    rpc::WireDecoder dec(bytes);
    std::uint64_t sum = 0;
    while (!dec.done()) sum += dec.readVarint().value_or(0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_VarintDecode);

void BM_SqlRequestRoundtrip(benchmark::State& state) {
  const rpc::SqlRequest req{
      "SELECT * FROM privileges WHERE securable_id = ?", {"tbl12345"}};
  for (auto _ : state) {
    rpc::WireEncoder enc;
    req.encode(enc);
    auto back = rpc::SqlRequest::decode(enc.view());
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SqlRequestRoundtrip);

}  // namespace
