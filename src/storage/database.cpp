#include "storage/database.hpp"

#include <algorithm>
#include <initializer_list>

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"
#include "storage/executor.hpp"
#include "storage/sql_parser.hpp"

namespace dcache::storage {
namespace {

/// Approximate wire size of the plan fragment shipped front-end -> KV node.
constexpr std::uint64_t kPlanFragmentBytes = 96;

/// What kvKey puts before a KV path key.
constexpr std::string_view kKvPrefix = "kv/";

std::size_t joinedSize(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  return size;
}

/// `out` = the parts joined, sized once so a fresh buffer allocates at most
/// once and a reused one not at all.
std::string_view joinKey(std::string& out,
                         std::initializer_list<std::string_view> parts) {
  const std::size_t size = joinedSize(parts);
  out.clear();
  // dcache-lint: allow(hot-path-alloc, a reused buffer grows only while its keys get longer, then never again)
  out.reserve(size);
  for (const std::string_view part : parts) out.append(part);
  return out;
}

}  // namespace

Database::Database(sim::Tier& sqlTier, sim::Tier& kvTier,
                   rpc::Channel& channel, Config config)
    : sqlTier_(&sqlTier),
      kvTier_(&kvTier),
      channel_(&channel),
      config_(config),
      raft_(kvTier, channel.network(), config.raftCosts,
            config.replicationFactor),
      engines_(kvTier.size()),
      legs_(kvTier.size()),
      planner_([this](std::string_view table) { return schema(table); }) {
  // dcache-lint: allow(hot-path-alloc, once per database, at construction)
  blockCaches_.reserve(kvTier.size());
  for (std::size_t i = 0; i < kvTier.size(); ++i) {
    blockCaches_.push_back(  // dcache-lint: allow(hot-path-alloc, one block cache per KV node, at construction)
        std::make_unique<BlockCache>(config_.blockCachePerNode));
    kvTier.node(i).mem().provision(config_.blockCachePerNode);
  }
}

Database::Database(sim::Tier& sqlTier, sim::Tier& kvTier,
                   rpc::Channel& channel)
    : Database(sqlTier, kvTier, channel, Config{}) {}

// ---- key layout ----

std::string_view Database::rowKey(std::string& out, std::string_view table,
                                  std::string_view pk) {
  return joinKey(out, {"t/", table, "/r/", pk});
}

std::string_view Database::indexKey(std::string& out, std::string_view table,
                                    std::string_view column,
                                    std::string_view value,
                                    std::string_view pk) {
  return joinKey(out, {"t/", table, "/i/", column, "/", value, "/", pk});
}

std::size_t Database::indexBaseSize(std::string_view table,
                                    std::string_view column) noexcept {
  return joinedSize({"t/", table, "/i/", column, "/"});
}

std::string_view Database::indexPrefix(std::string& out,
                                       std::string_view table,
                                       std::string_view column,
                                       std::string_view value) {
  return joinKey(out, {"t/", table, "/i/", column, "/", value, "/"});
}

std::string_view Database::kvKey(std::string& out, std::string_view key) {
  return joinKey(out, {kKvPrefix, key});
}

StoredValue Database::rowValue(const TableSchema& schema, const Row& row,
                               rpc::WireEncoder& enc) {
  encodeRow(schema, row, enc);
  return StoredValue{enc.size() + declaredPayloadBytes(schema, row),
                     enc.view()};
}

// ---- schema / population ----

void Database::createTable(TableSchema schema) {
  std::string name = schema.name();
  schemas_.insert_or_assign(std::move(name), std::move(schema));
  plans_.clear();  // a new table or index can change any plan
}

const TableSchema* Database::schema(std::string_view table) const {
  const auto it = schemas_.find(table);
  return it == schemas_.end() ? nullptr : &it->second;
}

bool Database::loadRow(std::string_view table, const Row& row) {
  const TableSchema* s = schema(table);
  if (!s) return false;
  const std::string pk = valueToString(row.values[s->primaryKeyColumn()]);
  const std::string_view key = rowKey(keyBuf_, table, pk);
  KvEngine& engine = engines_[nodeFor(key)];
  if (engine.contains(key) ||
      !engine.put(key, rowValue(*s, row, rowBuf_), ++ts_)) {
    return false;
  }
  for (const std::size_t col : s->indexedColumns()) {
    const std::string_view column = s->columns()[col].name;
    const std::string_view ik = indexKey(keyBuf_, table, column,
                                         valueToString(row.values[col]), pk);
    ++ts_;
    if (ik.size() > KvEngine::kMaxKeyBytes) continue;
    const std::size_t base = indexBaseSize(table, column);
    indexFor(ik.substr(0, base)).append(ik.substr(base), nodeFor(ik));
  }
  return true;
}

void Database::loadValue(std::string_view key, std::uint64_t size) {
  const std::string_view k = kvKey(keyBuf_, key);
  const std::size_t idx = nodeFor(k);
  materialize(idx, k);
  engines_[idx].put(k, StoredValue::sized(size), ++ts_);
}

void Database::loadValueRange(std::vector<std::uint64_t> sizes,
                              KeyNameFn name, KeyIndexFn index) {
  const bool holdsKeys =
      !range_.empty() ||
      std::any_of(engines_.begin(), engines_.end(),
                  [](const KvEngine& e) { return e.keyCount() > 0; });
  if (holdsKeys) {  // the loop itself: no lazy key may hide an older one
    std::string key;
    for (std::uint64_t i = 0; i < sizes.size(); ++i) {
      name(i, key);
      loadValue(key, sizes[i]);
    }
    return;
  }
  const std::uint64_t keys = sizes.size();
  range_ = KvRange(std::move(sizes), index, ts_);
  ts_ += keys;
}

void Database::reserveKeys(std::size_t expectedKeys) {
  // 1/8 slack absorbs hash skew across engines.
  const std::size_t perEngine =
      expectedKeys / engines_.size() + expectedKeys / (engines_.size() * 8);
  for (KvEngine& engine : engines_) engine.reserveKeys(perEngine);
}

// ---- engine-level API ----

std::size_t Database::nodeFor(std::string_view key) const noexcept {
  return util::hashKey(key) % engines_.size();
}

std::optional<std::uint64_t> Database::untouchedRangeIndex(
    std::size_t idx, std::string_view key) const {
  if (range_.empty() || !key.starts_with(kKvPrefix) ||
      engines_[idx].contains(key)) {
    return std::nullopt;
  }
  return range_.indexOf(key.substr(kKvPrefix.size()));
}

bool Database::materializeKey(std::size_t idx, std::string_view key) {
  const std::optional<std::uint64_t> i = untouchedRangeIndex(idx, key);
  if (!i) return false;
  engines_[idx].put(key, StoredValue::sized(range_.sizeOf(*i)),
                    range_.versionOf(*i));
  range_.materialized(*i);
  return true;
}

IndexOrder& Database::indexFor(std::string_view base) {
  if (const auto it = indexes_.find(base); it != indexes_.end()) {
    return it->second;
  }
  return indexes_.try_emplace(std::string(base), engines_.size())
      .first->second;
}

void Database::syncMemoryMeters(std::size_t nodeIndex) {
  kvTier_->node(nodeIndex).mem().use(blockCaches_[nodeIndex]->bytesUsed());
}

std::optional<ValueView> Database::engineGet(std::string_view key,
                                             ExecTrace& trace) {
  const std::uint64_t keyHash = util::hashKey(key);
  const std::size_t idx = keyHash % engines_.size();
  sim::Node& node = kvTier_->node(idx);
  const StorageCosts& costs = config_.costs;

  raft_.validateLease(idx);

  std::optional<ValueView> stored = engines_[idx].get(key);
  if (!stored && materialize(idx, key)) stored = engines_[idx].get(key);
  if (!stored) {
    // Bloom filter / memtable probe only: no block fetch for absent keys.
    node.charge(sim::CpuComponent::kKvExecution, costs.execPerRowMicros);
    trace.latencyMicros += costs.execPerRowMicros;
    return std::nullopt;
  }

  const double execMicros =
      costs.execPerRowMicros +
      costs.execPerByteMicros * static_cast<double>(stored->size);
  node.charge(sim::CpuComponent::kKvExecution, execMicros);
  trace.latencyMicros += execMicros;

  if (!blockCaches_[idx]->touchRead(keyHash, stored->size)) {
    const std::uint64_t blockBytes = BlockCache::blockSizeFor(stored->size);
    node.charge(sim::CpuComponent::kDiskIo,
                costs.diskFixedMicros +
                    costs.diskPerByteMicros * static_cast<double>(blockBytes));
    trace.latencyMicros += costs.diskLatencyMicros;
    ++trace.blockMisses;
  } else {
    ++trace.blockHits;
  }
  syncMemoryMeters(idx);

  ++trace.rowsRead;
  trace.bytesRead += stored->size;
  touchLeg(idx, stored->size);
  return stored;
}

template <typename Commit>
bool Database::chargedPut(std::string_view key, std::uint64_t size,
                          ExecTrace& trace, Commit&& commit) {
  const std::uint64_t keyHash = util::hashKey(key);
  const std::size_t idx = keyHash % engines_.size();
  const StorageCosts& costs = config_.costs;
  const double execMicros = costs.execPerRowMicros + costs.memtableMicros +
                            costs.execPerByteMicros * static_cast<double>(size);
  kvTier_->node(idx).charge(sim::CpuComponent::kKvExecution, execMicros);

  if (!commit(idx, ++ts_)) return false;
  trace.latencyMicros += execMicros + raft_.replicate(idx, size + key.size());
  blockCaches_[idx]->touchWrite(keyHash, size);
  syncMemoryMeters(idx);

  ++trace.rowsWritten;
  trace.bytesWritten += size;
  touchLeg(idx, size);
  return true;
}

bool Database::enginePut(std::string_view key, StoredValue value,
                         ExecTrace& trace) {
  return chargedPut(key, value.size, trace,
                    [&](std::size_t idx, std::uint64_t ts) {
                      materialize(idx, key);
                      return engines_[idx].put(key, value, ts);
                    });
}

bool Database::chargeIndexRePut(std::string_view key, ExecTrace& trace) {
  return chargedPut(key, 0, trace, [&](std::size_t, std::uint64_t) {
    return key.size() <= KvEngine::kMaxKeyBytes;
  });
}

void Database::chargeVisitedEntry(std::size_t idx, ExecTrace& trace) {
  const double execMicros = config_.costs.execPerRowMicros;
  kvTier_->node(idx).charge(sim::CpuComponent::kKvExecution, execMicros);
  trace.latencyMicros += execMicros;
  ++trace.rowsRead;
  touchLeg(idx, 0);
}

// ---- statement front-end ----

sim::Node& Database::frontendForStatement() {
  sim::Node& frontend = sqlTier_->nextNode();
  const StorageCosts& costs = config_.costs;
  frontend.charge(sim::CpuComponent::kConnectionMgmt, costs.connectionMicros);
  frontend.charge(sim::CpuComponent::kQueryParse, costs.parseMicros);
  frontend.charge(sim::CpuComponent::kQueryPlan, costs.planMicros);
  return frontend;
}

double Database::settleRpc(sim::Node& client, sim::Node& frontend,
                           std::uint64_t requestBytes,
                           std::uint64_t responseBytes) {
  // Front-end fans out to the KV nodes it touched (parallel; latency is the
  // slowest leg), then answers the client.
  double kvLatency = 0.0;
  for (std::size_t idx = 0; idx < legs_.size(); ++idx) {
    if (!legs_[idx].touched) continue;
    const auto call = channel_->call(frontend, kvTier_->node(idx),
                                     kPlanFragmentBytes, legs_[idx].bytes);
    legs_[idx] = KvLeg{};
    kvLatency = std::max(kvLatency, call.latencyMicros);
  }
  const auto clientCall =
      channel_->call(client, frontend, requestBytes, responseBytes);
  return kvLatency + clientCall.latencyMicros;
}

const QueryPlan* Database::planFor(std::string_view sql, std::string& error) {
  if (const auto it = plans_.find(sql); it != plans_.end()) return &it->second;
  ParseResult parsed = parseSql(sql);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    error = "parse error: " + err->message;
    return nullptr;
  }
  PlanResult planned = planner_.plan(std::get<Statement>(parsed));
  if (const auto* err = std::get_if<PlanError>(&planned)) {
    error = "plan error: " + err->message;
    return nullptr;
  }
  if (plans_.size() >= kMaxCachedPlans) plans_.clear();
  auto& plan = std::get<QueryPlan>(planned);
  return &plans_.emplace(std::string(sql), std::move(plan)).first->second;
}

Database::QueryResult Database::exec(sim::Node& client, std::string_view sql,
                                     std::span<const Value> params) {
  sim::SpanGuard span("sql.exec", sim::TierKind::kSqlFrontend);
  QueryResult result;
  // Parse and plan are charged in full even when the plan is cached.
  sim::Node& frontend = frontendForStatement();

  const QueryPlan* plan = planFor(sql, result.error);
  if (plan == nullptr) {
    result.latencyMicros =
        settleRpc(client, frontend, sql.size(), 32);
    return result;
  }

  ExecTrace trace;
  Executor executor(*this, keyBuf_, matchBuf_, rowBuf_, updateBuf_);
  Executor::Outcome outcome = executor.run(*plan, params, trace);
  if (!outcome.ok) {
    result.error = outcome.error;
    result.latencyMicros =
        settleRpc(client, frontend, sql.size(), 32);
    return result;
  }

  frontend.charge(sim::CpuComponent::kKvExecution,
                  config_.costs.resultPerRowMicros *
                      static_cast<double>(outcome.rows.size()));

  std::uint64_t requestBytes = sql.size();
  for (const Value& p : params) requestBytes += valueStringSize(p) + 2;
  const std::uint64_t responseBytes =
      16 + outcome.rowBytes.encoded + 3 * outcome.rows.size();

  result.ok = true;
  result.rows = std::move(outcome.rows);
  result.logicalBytes = outcome.rowBytes.logical;
  result.rowsAffected = outcome.rowsAffected;
  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, requestBytes, responseBytes);
  return result;
}

// ---- KV path ----

Database::ReadResult Database::readValue(sim::Node& client,
                                         std::string_view key) {
  sim::SpanGuard span("db.read", sim::TierKind::kKvStorage);
  ReadResult result;
  sim::Node& frontend = frontendForStatement();  // SELECT v FROM kv WHERE k=?

  ExecTrace trace;
  const std::optional<ValueView> stored = engineGet(kvKey(keyBuf_, key), trace);
  result.found = stored.has_value();
  result.size = stored ? stored->size : 0;
  result.version = stored ? stored->version : 0;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::getRequestWireSize(key.size()),
                rpc::getResponseWireSize() + result.size);
  span.setOutcome(result.found ? sim::SpanOutcome::kOk
                               : sim::SpanOutcome::kMiss);
  return result;
}

Database::WriteResult Database::writeValue(sim::Node& client,
                                           std::string_view key,
                                           std::uint64_t size) {
  sim::SpanGuard span("db.write", sim::TierKind::kKvStorage);
  WriteResult result;
  sim::Node& frontend = frontendForStatement();  // UPDATE kv SET v=? WHERE k=?

  ExecTrace trace;
  enginePut(kvKey(keyBuf_, key), StoredValue::sized(size), trace);
  result.version = ts_;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::putRequestWireSize(key.size()) + size,
                rpc::putResponseWireSize());
  return result;
}

Database::VersionResult Database::versionCheck(sim::Node& client,
                                               std::string_view key) {
  return versionCheckKey(client, kvKey(keyBuf_, key), key.size());
}

Database::VersionResult Database::versionCheckRow(sim::Node& client,
                                                  std::string_view table,
                                                  std::string_view pk) {
  return versionCheckKey(client, rowKey(keyBuf_, table, pk), pk.size());
}

Database::VersionResult Database::versionCheckKey(sim::Node& client,
                                                  std::string_view storedKey,
                                                  std::size_t requestKeyBytes) {
  sim::SpanGuard span("db.vcheck", sim::TierKind::kSqlFrontend);
  VersionResult result;
  // §5.5: the version check traverses the full read path — SQL front-end
  // parse/plan, lease validation, and a full row fetch at TiKV that ships
  // the row to the front-end; only the 8-byte version returns to the client.
  sim::Node& frontend = frontendForStatement();

  ExecTrace trace;
  const std::optional<ValueView> stored = engineGet(storedKey, trace);
  result.found = stored.has_value();
  result.version = stored ? stored->version : 0;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend,
                rpc::versionCheckRequestWireSize(requestKeyBytes),
                rpc::versionCheckResponseWireSize());
  return result;
}

std::optional<std::uint64_t> Database::peekRowVersion(
    std::string_view table, std::string_view pk) const {
  const std::string_view key = rowKey(peekKeyBuf_, table, pk);
  return engines_[nodeFor(key)].latestVersion(key);
}

std::optional<std::uint64_t> Database::peekValueVersion(
    std::string_view key) const {
  const std::string_view k = kvKey(peekKeyBuf_, key);
  const std::size_t idx = nodeFor(k);
  if (const auto version = engines_[idx].latestVersion(k)) return version;
  if (const auto i = untouchedRangeIndex(idx, k)) return range_.versionOf(*i);
  return std::nullopt;
}

void Database::dropBlockCache(std::size_t nodeIndex) {
  if (nodeIndex >= blockCaches_.size()) return;
  blockCaches_[nodeIndex]->clear();
}

// ---- introspection ----

util::Bytes Database::totalStoredBytes() const {
  util::Bytes total;
  for (const KvEngine& engine : engines_) total += engine.liveBytes();
  return total + util::Bytes::of(range_.pendingBytes());
}

std::uint64_t Database::engineKeyCount() const noexcept {
  std::uint64_t n = 0;
  for (const KvEngine& engine : engines_) n += engine.keyCount();
  return n;
}

std::size_t Database::indexEntryCount(std::string_view base) const {
  const auto it = indexes_.find(base);
  return it == indexes_.end() ? 0 : it->second.size();
}

std::uint64_t Database::blockCacheHits() const {
  std::uint64_t n = 0;
  for (const auto& bc : blockCaches_) n += bc->stats().hits;
  return n;
}

std::uint64_t Database::blockCacheMisses() const {
  std::uint64_t n = 0;
  for (const auto& bc : blockCaches_) n += bc->stats().misses;
  return n;
}

}  // namespace dcache::storage
