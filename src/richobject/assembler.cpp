#include "richobject/assembler.hpp"

#include <algorithm>

#include "storage/row.hpp"

namespace dcache::richobject {
namespace {

using storage::Row;
using storage::Value;
using storage::valueToInt;
using storage::valueToString;

}  // namespace

Assembler::Assembler(CatalogStore& store, AppCosts costs)
    : store_(&store), costs_(costs) {}

Assembler::GetTableResult Assembler::getTable(sim::Node& appNode,
                                              std::uint64_t tableId) {
  GetTableResult result;
  storage::Database& db = store_->db();
  const std::size_t budget =
      std::clamp<std::size_t>(store_->trace().statementsFor(tableId), 1, 8);

  auto issue = [&](std::string_view sql, std::span<const Value> params)
      -> storage::Database::QueryResult {
    appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
    auto r = db.exec(appNode, sql, params);
    ++result.statementsIssued;
    result.latencyMicros += r.latencyMicros;
    result.bytesRead += r.logicalBytes;
    return r;
  };

  const auto id = static_cast<std::int64_t>(tableId);

  // 1. The table row itself (always issued).
  {
    const Value params[] = {Value{id}};
    auto r = issue("SELECT * FROM tables WHERE id = ?", params);
    if (!r.ok || r.rows.empty()) return result;  // unknown table
    const Row& row = r.rows.front();
    result.object.table =
        TableInfo{valueToInt(row.at(0)), valueToInt(row.at(1)),
                  valueToString(row.at(2)), valueToString(row.at(3)),
                  valueToString(row.at(4)), valueToInt(row.at(5)),
                  valueToInt(row.at(6))};
  }

  // 2. Parent schema.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{result.object.table.schemaId}};
    auto r = issue("SELECT * FROM schemas WHERE id = ?", params);
    if (r.ok && !r.rows.empty()) {
      const Row& row = r.rows.front();
      result.object.schema =
          SchemaInfo{valueToInt(row.at(0)), valueToInt(row.at(1)),
                     valueToString(row.at(2)), valueToString(row.at(3))};
    }
  }

  // 3. Parent catalog.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{result.object.schema.catalogId}};
    auto r = issue("SELECT * FROM catalogs WHERE id = ?", params);
    if (r.ok && !r.rows.empty()) {
      const Row& row = r.rows.front();
      result.object.catalog =
          CatalogInfo{valueToInt(row.at(0)), valueToInt(row.at(1)),
                      valueToString(row.at(2)), valueToString(row.at(3))};
    }
  }

  // 4. Table-level privileges.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{CatalogStore::tableSecurable(tableId)}};
    auto r = issue("SELECT * FROM privileges WHERE securable_id = ?", params);
    if (r.ok) {
      result.object.privileges.reserve(r.rows.size());
      for (const Row& row : r.rows) {
        result.object.privileges.push_back(
            Privilege{SecurableLevel::kTable, valueToString(row.at(2)),
                      valueToString(row.at(3))});
      }
    }
  }

  // 5. Inherited catalog-level privileges (downward inheritance source).
  if (result.statementsIssued < budget) {
    const Value params[] = {
        Value{CatalogStore::catalogSecurable(result.object.catalog.id)}};
    auto r = issue("SELECT * FROM privileges WHERE securable_id = ?", params);
    if (r.ok) {
      result.object.privileges.reserve(result.object.privileges.size() +
                                       r.rows.size());
      for (const Row& row : r.rows) {
        result.object.privileges.push_back(
            Privilege{SecurableLevel::kCatalog, valueToString(row.at(2)),
                      valueToString(row.at(3))});
      }
    }
  }

  // 6. Constraints.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    auto r = issue("SELECT * FROM constraints WHERE table_id = ?", params);
    if (r.ok) {
      result.object.constraints.reserve(r.rows.size());
      for (const Row& row : r.rows) {
        result.object.constraints.push_back(Constraint{
            valueToString(row.at(2)), valueToString(row.at(3))});
      }
    }
  }

  // 7. Lineage.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    auto r = issue("SELECT * FROM lineage WHERE table_id = ?", params);
    if (r.ok) {
      result.object.lineage.reserve(r.rows.size());
      for (const Row& row : r.rows) {
        result.object.lineage.push_back(
            LineageEdge{valueToInt(row.at(2)), valueToString(row.at(3))});
      }
    }
  }

  // 8. Properties.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    auto r = issue("SELECT * FROM properties WHERE table_id = ?", params);
    if (r.ok) {
      for (const Row& row : r.rows) {
        result.object.properties.emplace(valueToString(row.at(2)),
                                         valueToString(row.at(3)));
      }
    }
  }

  // Application logic: compose results, resolve inheritance, build the
  // object graph. Charged at the app server — this is the §5.4 point that
  // object caches save not just storage work but app work too.
  appNode.charge(
      sim::CpuComponent::kAppLogic,
      costs_.composePerStatementMicros *
              static_cast<double>(result.statementsIssued) +
          costs_.composePerByteMicros * static_cast<double>(result.bytesRead));

  result.ok = true;
  return result;
}

double Assembler::updateTable(sim::Node& appNode, std::uint64_t tableId) {
  storage::Database& db = store_->db();
  appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
  const auto id = static_cast<std::int64_t>(tableId);
  // Version bump matches how the production service invalidates: rewrite
  // the row (blob and all) with a new version.
  const Value params[] = {Value{id}};
  auto read = db.exec(appNode, "SELECT * FROM tables WHERE id = ?", params);
  double latency = read.latencyMicros;
  if (!read.ok || read.rows.empty()) return latency;
  const Row& row = read.rows.front();

  appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
  const Value updateParams[] = {Value{valueToInt(row.at(6)) + 1}, Value{id}};
  auto write = db.exec(
      appNode, "UPDATE tables SET version = ? WHERE id = ?", updateParams);
  latency += write.latencyMicros;
  return latency;
}

}  // namespace dcache::richobject
