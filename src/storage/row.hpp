// Row values and the row codec. Rows are encoded with the shared wire
// format (column index + 1 as the field number), so storage pays the same
// honest serialization costs as the RPC layer and the codec round-trips are
// testable against corrupted input.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "storage/schema.hpp"

namespace dcache::rpc {
class WireEncoder;
}  // namespace dcache::rpc

namespace dcache::storage {

using Value = std::variant<std::int64_t, double, std::string>;

[[nodiscard]] std::string valueToString(const Value& v);
/// valueToString(v).size(), without building the string.
[[nodiscard]] std::size_t valueStringSize(const Value& v) noexcept;
[[nodiscard]] std::int64_t valueToInt(const Value& v) noexcept;

/// Compare for WHERE equality; int/double compare numerically.
[[nodiscard]] bool valueEquals(const Value& a, const Value& b) noexcept;

struct Row {
  std::vector<Value> values;

  [[nodiscard]] const Value& at(std::size_t i) const { return values.at(i); }
};

/// Encode a row per the schema into `enc`, replacing what it held, so a
/// warm encoder allocates nothing. Columns beyond the schema are dropped.
void encodeRow(const TableSchema& schema, const Row& row,
               rpc::WireEncoder& enc);
/// The same encoding, into a new string.
[[nodiscard]] std::string encodeRow(const TableSchema& schema, const Row& row);

/// Decode into `out`, reusing its value and string capacity, so decoding
/// into a warm row allocates nothing; false on malformed bytes or type
/// mismatch, with `out` partly overwritten.
[[nodiscard]] bool decodeRow(const TableSchema& schema, std::string_view bytes,
                             Row& out);

/// Encoded size without materializing the buffer.
[[nodiscard]] std::uint64_t encodedRowSize(const TableSchema& schema,
                                           const Row& row);

/// Declared opaque-attachment bytes for a row (0 when the schema declares
/// no payload-size column). See TableSchema::withPayloadSizeColumn.
[[nodiscard]] std::uint64_t declaredPayloadBytes(const TableSchema& schema,
                                                 const Row& row) noexcept;

}  // namespace dcache::storage
