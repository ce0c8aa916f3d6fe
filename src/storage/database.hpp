// The distributed database facade — our TiDB stand-in. A stateless SQL
// front-end tier parses/plans statements and talks over RPC to a replicated
// KV tier (one KV engine + block cache per storage node, Raft-replicated
// writes, lease-validated reads). Three client paths matter to the paper:
//
//   exec()         — real SQL (SELECT * and UPDATE, see sql_parser.hpp),
//                    used by the rich-object workloads (§5.4)
//   readValue()/writeValue() — the single-statement KV path used by the
//                    synthetic / Meta / UC-KV workloads
//   versionCheck() — the §5.5 consistency probe: returns 8 bytes to the
//                    client but traverses the full read path internally
//                    (parse, plan, lease, full row fetch, front-end hop)
//
// Storage is reached by key only: every read is a point get of a row or KV
// value (engineGet) or one index lookup (indexLookup), and every write puts
// one row or KV value (enginePut). No path scans a table or deletes a key.
//
// A KV bulk load is lazy: loadValueRange() records the whole keyspace as one
// KvRange (kv_range.hpp) and puts no key into an engine. A range key is
// materialized, at the version the loadValue loop would have given it,
// before the first write to it (enginePut, loadValue) or the first pointer
// read of it (engineGet). peekValueVersion and totalStoredBytes answer
// untouched keys from the range and never materialize. No charge, version,
// size or block-cache touch depends on when a key is materialized.
//
// The KV engines hold rows and KV values only. Each secondary index keeps
// its entries in one IndexOrder (index_order.hpp), by index base
// ("t/<table>/i/<column>/"): loadRow appends a new row's entries, and the
// executor's index lookup reads them through indexLookup, which charges
// each visited entry as a scanned row. An UPDATE sets no indexed column
// (the planner refuses one), so it leaves every entry as it is and charges
// each through chargeIndexRePut, as the engine put of the unchanged index
// key it stands for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rpc/channel.hpp"
#include "rpc/wire.hpp"
#include "sim/tier.hpp"
#include "storage/block_cache.hpp"
#include "storage/index_order.hpp"
#include "storage/kv_engine.hpp"
#include "storage/kv_range.hpp"
#include "storage/planner.hpp"
#include "storage/raft.hpp"
#include "storage/row.hpp"
#include "storage/schema.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

/// CPU cost constants for the storage system, in microseconds of vCPU.
/// Chosen so the paper's §5.3 breakdown holds: connection management, query
/// processing and planning take 40-65% of database cycles, KV execution and
/// communication the rest. See core/calibration.hpp for the derivation.
struct StorageCosts {
  double connectionMicros = 15.0;  // session/connection management per stmt
  double parseMicros = 30.0;       // SQL text -> IR
  double planMicros = 40.0;        // IR -> plan + optimizer bookkeeping
  double resultPerRowMicros = 0.5; // front-end result assembly per row
  double execPerRowMicros = 3.0;   // KV-side per row touched
  double execPerByteMicros = 0.001;  // coprocessor copies/checksums, 1 ns/B
  double memtableMicros = 2.0;     // write path memtable insert
  double diskFixedMicros = 18.0;   // block read on block-cache miss
  double diskPerByteMicros = 0.003;  // NVMe read + checksum + decompression
  double diskLatencyMicros = 90.0; // NVMe read latency (latency only)
};

/// Per-statement execution accounting, accumulated by the executor.
struct ExecTrace {
  std::size_t rowsRead = 0;
  std::size_t rowsWritten = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::size_t blockHits = 0;
  std::size_t blockMisses = 0;
  double latencyMicros = 0.0;
};

class Database {
 public:
  struct Config {
    StorageCosts costs{};
    RaftCosts raftCosts{};
    util::Bytes blockCachePerNode = util::Bytes::gb(15);
    std::size_t replicationFactor = 3;
  };

  Database(sim::Tier& sqlTier, sim::Tier& kvTier, rpc::Channel& channel,
           Config config);
  Database(sim::Tier& sqlTier, sim::Tier& kvTier, rpc::Channel& channel);

  // ---- schema / population (no cost accounting: experiment setup) ----
  void createTable(TableSchema schema);
  [[nodiscard]] const TableSchema* schema(std::string_view table) const;
  /// Insert `row` and its index entries. False, writing nothing, for an
  /// unknown table or a primary key the table already holds: a row is
  /// loaded once, and only an UPDATE rewrites it.
  bool loadRow(std::string_view table, const Row& row);
  void loadValue(std::string_view key, std::uint64_t size);
  /// Pre-size every engine's point index for a bulk load of `expectedKeys`
  /// (spread by key hash), avoiding per-engine rehash cascades.
  void reserveKeys(std::size_t expectedKeys);
  /// Load key i of 0 .. sizes.size() - 1 as loadValue(name(i), sizes[i])
  /// would, in index order, but put each key into its engine only when it
  /// is first touched (see the header comment). `index` must be the exact
  /// inverse of `name`. Into a database that holds any key or pending range
  /// the load runs as that loop, so that no lazy key hides an older version.
  void loadValueRange(std::vector<std::uint64_t> sizes, KeyNameFn name,
                      KeyIndexFn index);
  /// Range keys not yet materialized.
  [[nodiscard]] std::uint64_t pendingRangeKeys() const noexcept {
    return range_.pendingKeys();
  }

  // ---- SQL path ----
  struct QueryResult {
    bool ok = false;
    std::string error;
    std::vector<Row> rows;
    /// The logical bytes of `rows` as stored: each row's encoded bytes
    /// plus its declared payload bytes.
    std::uint64_t logicalBytes = 0;
    std::uint64_t rowsAffected = 0;
    double latencyMicros = 0.0;
  };
  QueryResult exec(sim::Node& client, std::string_view sql,
                   std::span<const Value> params = {});

  // ---- KV path (implicit blob table) ----
  struct ReadResult {
    bool found = false;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  ReadResult readValue(sim::Node& client, std::string_view key);

  struct WriteResult {
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  WriteResult writeValue(sim::Node& client, std::string_view key,
                         std::uint64_t size);

  struct VersionResult {
    bool found = false;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  VersionResult versionCheck(sim::Node& client, std::string_view key);

  /// Version check against a SQL table row (same full-path cost).
  VersionResult versionCheckRow(sim::Node& client, std::string_view table,
                                std::string_view pk);

  /// Commit version of a table row / KV value without any cost accounting
  /// — for callers that already paid for the read in the same request and
  /// for tests. nullopt if absent. Neither materializes a range key.
  [[nodiscard]] std::optional<std::uint64_t> peekRowVersion(
      std::string_view table, std::string_view pk) const;
  [[nodiscard]] std::optional<std::uint64_t> peekValueVersion(
      std::string_view key) const;

  // ---- engine-level API (used by the executor; fully cost-accounted) ----
  /// The value of `key`, charged as a point read; nullopt if absent. The
  /// payload view is valid until the next write to the key.
  [[nodiscard]] std::optional<ValueView> engineGet(std::string_view key,
                                                   ExecTrace& trace);
  bool enginePut(std::string_view key, StoredValue value, ExecTrace& trace);

  // Index entries. `key` is an index key (indexKey) and its first `base`
  // bytes name the index (`t/<table>/i/<column>/`); the bytes past them are
  // the entry.
  /// Charge the re-put of an entry an UPDATE leaves unchanged as enginePut
  /// charges `key` with a zero-byte value, without touching the index.
  /// False, after the KV execution charge alone, for a key past
  /// KvEngine::kMaxKeyBytes.
  bool chargeIndexRePut(std::string_view key, ExecTrace& trace);
  /// Visit the entries of the index of `prefix`'s first `base` bytes whose
  /// key starts with `prefix`, shard by shard in node order, ascending
  /// within a shard: each shard's lease is validated before its entries,
  /// each entry is charged as a scanned zero-byte row, and fn returning
  /// false stops that shard. fn gets the entry's bytes past `prefix`, valid
  /// for the database's life; it must not load a row into this database.
  template <typename Fn>
  void indexLookup(std::string_view prefix, std::size_t base,
                   ExecTrace& trace, Fn&& fn) {
    indexFor(prefix.substr(0, base))
        .lookup(
            prefix.substr(base),
            [&](std::size_t idx) { raft_.validateLease(idx); },
            [&](std::size_t idx, std::string_view entry) {
              chargeVisitedEntry(idx, trace);
              return fn(entry.substr(prefix.size() - base));
            });
  }

  /// Fault injection: a KV node crashed and restarted — its block cache is
  /// cold. Data survives (Raft replication), so reads keep working; they
  /// just pay the disk path until the cache re-warms.
  void dropBlockCache(std::size_t nodeIndex);

  // ---- introspection ----
  [[nodiscard]] util::Bytes totalStoredBytes() const;  // pre-replication
  [[nodiscard]] std::uint64_t blockCacheHits() const;
  [[nodiscard]] std::uint64_t blockCacheMisses() const;
  [[nodiscard]] const RaftReplicator& raft() const noexcept { return raft_; }
  [[nodiscard]] sim::Tier& kvTier() noexcept { return *kvTier_; }
  /// Keys the KV engines hold: rows and KV values.
  [[nodiscard]] std::uint64_t engineKeyCount() const noexcept;
  /// Entries the index under `base` (`t/<table>/i/<column>/`) holds.
  [[nodiscard]] std::size_t indexEntryCount(std::string_view base) const;

  // ---- key layout ----
  // Each builder writes its key into `out`, replacing what was there, and
  // returns a view of it: a caller that reuses `out` builds keys without
  // allocating once the buffer is large enough. No argument may view `out`.
  static std::string_view rowKey(std::string& out, std::string_view table,
                                 std::string_view pk);
  static std::string_view indexKey(std::string& out, std::string_view table,
                                   std::string_view column,
                                   std::string_view value, std::string_view pk);
  /// The length of an index key's base, `t/<table>/i/<column>/`.
  static std::size_t indexBaseSize(std::string_view table,
                                   std::string_view column) noexcept;
  static std::string_view indexPrefix(std::string& out,
                                      std::string_view table,
                                      std::string_view column,
                                      std::string_view value);
  static std::string_view kvKey(std::string& out, std::string_view key);

  /// The value a table row is stored as: its bytes, encoded into `enc`,
  /// which the value views, and a logical size that adds the row's
  /// declared payload bytes.
  static StoredValue rowValue(const TableSchema& schema, const Row& row,
                              rpc::WireEncoder& enc);

 private:
  static constexpr std::size_t kMaxCachedPlans = 256;  // see planFor

  [[nodiscard]] std::size_t nodeFor(std::string_view key) const noexcept;
  /// The range index of `key` if it is a range key engine idx has never
  /// held.
  [[nodiscard]] std::optional<std::uint64_t> untouchedRangeIndex(
      std::size_t idx, std::string_view key) const;
  /// Put `key` into engine idx if it is an untouched range key; returns
  /// whether it did. One branch while no range key is pending.
  bool materialize(std::size_t idx, std::string_view key) {
    return !range_.empty() && materializeKey(idx, key);
  }
  bool materializeKey(std::size_t idx, std::string_view key);
  /// The index under `base`, created empty on first use.
  IndexOrder& indexFor(std::string_view base);
  /// Charge a put of `key` with `size` value bytes as a replicated write
  /// on its node. `commit(idx, ts)` makes the write at the next timestamp;
  /// its false rejects it, after the KV execution charge alone.
  template <typename Commit>
  bool chargedPut(std::string_view key, std::uint64_t size, ExecTrace& trace,
                  Commit&& commit);
  /// KV-side execution charge for one index entry a lookup visits on `idx`:
  /// a scanned row of zero bytes.
  void chargeVisitedEntry(std::size_t idx, ExecTrace& trace);
  /// The cached plan for `sql`, parsed and planned on first use; a full
  /// cache is emptied first. Errors are not cached: each call returns
  /// nullptr with `error` set.
  [[nodiscard]] const QueryPlan* planFor(std::string_view sql,
                                         std::string& error);
  /// The full-path version check behind versionCheck/versionCheckRow.
  VersionResult versionCheckKey(sim::Node& client, std::string_view storedKey,
                                std::size_t requestKeyBytes);
  /// Charge the front-end constants common to every statement and return
  /// the chosen front-end node.
  sim::Node& frontendForStatement();
  /// The statement in flight moved `bytes` on KV node `idx`. A zero-byte
  /// touch (an index-entry re-put or visit) still gets its leg.
  void touchLeg(std::size_t idx, std::uint64_t bytes) noexcept {
    legs_[idx].bytes += bytes;
    legs_[idx].touched = true;
  }
  /// Settle per-statement RPCs: client<->frontend and frontend<->each
  /// touched kv node, in node order; clears the legs for the next statement.
  double settleRpc(sim::Node& client, sim::Node& frontend,
                   std::uint64_t requestBytes, std::uint64_t responseBytes);
  void syncMemoryMeters(std::size_t nodeIndex);

  sim::Tier* sqlTier_;
  sim::Tier* kvTier_;
  rpc::Channel* channel_;
  Config config_;
  RaftReplicator raft_;
  std::vector<KvEngine> engines_;
  /// One entry order per secondary index, by index base.
  std::map<std::string, IndexOrder, std::less<>> indexes_;
  KvRange range_;   // the bulk-loaded keys not yet in their engines
  /// Key buffer for the statement in flight (see the key layout builders).
  std::string keyBuf_;
  /// The primary keys the statement in flight matched in an index.
  std::vector<std::string_view> matchBuf_;
  /// The rows an UPDATE in flight rewrites, kept with their capacity.
  std::vector<Row> updateBuf_;
  /// The row being loaded or rewritten, encoded; put() copies its bytes.
  rpc::WireEncoder rowBuf_;
  /// Key buffer for the const peeks, apart from keyBuf_ so that a peek
  /// never overwrites a key a statement still views.
  mutable std::string peekKeyBuf_;
  /// Payload bytes each KV node moved for the statement in flight, by node
  /// index, so settling a statement allocates nothing. Statements never
  /// interleave: each one's engine calls are settled before the next starts.
  struct KvLeg {
    std::uint64_t bytes = 0;
    bool touched = false;
  };
  std::vector<KvLeg> legs_;
  std::vector<std::unique_ptr<BlockCache>> blockCaches_;
  std::map<std::string, TableSchema, std::less<>> schemas_;
  Planner planner_;
  /// Host-side plans by statement text; exec() still charges parse and
  /// plan. Plans point into schemas_, so createTable() clears the cache.
  std::unordered_map<std::string, QueryPlan, util::TransparentStringHash,
                     std::equal_to<>>
      plans_;
  std::uint64_t ts_ = 0;
};

}  // namespace dcache::storage
