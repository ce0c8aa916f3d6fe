#include "storage/row.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "rpc/messages.hpp"
#include "rpc/wire.hpp"

namespace dcache::storage {

std::string valueToString(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return std::to_string(*d);
  return std::get<std::string>(v);
}

std::size_t valueStringSize(const Value& v) noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    char buf[20];  // fits INT64_MIN
    return static_cast<std::size_t>(std::to_chars(buf, buf + 20, *i).ptr - buf);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    // std::to_string(double) is specified as "%f".
    return static_cast<std::size_t>(std::snprintf(nullptr, 0, "%f", *d));
  }
  return std::get<std::string>(v).size();
}

std::int64_t valueToInt(const Value& v) noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<std::int64_t>(*d);
  }
  const auto& s = std::get<std::string>(v);
  return std::strtoll(s.c_str(), nullptr, 10);
}

bool valueEquals(const Value& a, const Value& b) noexcept {
  if (a.index() == b.index()) return a == b;
  // Numeric cross-type comparison; strings never equal numbers.
  const bool aNum = !std::holds_alternative<std::string>(a);
  const bool bNum = !std::holds_alternative<std::string>(b);
  if (!aNum || !bNum) return false;
  auto asDouble = [](const Value& v) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(v);
  };
  return asDouble(a) == asDouble(b);
}

void encodeRow(const TableSchema& schema, const Row& row,
               rpc::WireEncoder& enc) {
  enc.clear();
  enc.reserve(encodedRowSize(schema, row));
  const std::size_t n = std::min(schema.columnCount(), row.values.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto field = static_cast<std::uint32_t>(c + 1);
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        enc.writeSint(field, valueToInt(row.values[c]));
        break;
      case ColumnType::kDouble: {
        double d = 0.0;
        if (const auto* p = std::get_if<double>(&row.values[c])) {
          d = *p;
        } else {
          d = static_cast<double>(valueToInt(row.values[c]));
        }
        enc.writeDouble(field, d);
        break;
      }
      case ColumnType::kString:
        if (const auto* s = std::get_if<std::string>(&row.values[c])) {
          enc.writeString(field, *s);
        } else {
          enc.writeString(field, valueToString(row.values[c]));
        }
        break;
    }
  }
}

std::string encodeRow(const TableSchema& schema, const Row& row) {
  rpc::WireEncoder enc;
  encodeRow(schema, row, enc);
  return std::string(enc.view());
}

bool decodeRow(const TableSchema& schema, std::string_view bytes, Row& out) {
  out.values.resize(schema.columnCount());
  for (std::size_t c = 0; c < schema.columnCount(); ++c) {  // typed defaults
    Value& v = out.values[c];
    if (schema.columns()[c].type != ColumnType::kString) {
      v = schema.columns()[c].type == ColumnType::kDouble ? Value{0.0}
                                                          : Value{std::int64_t{0}};
    } else if (auto* s = std::get_if<std::string>(&v)) {
      s->clear();
    } else {
      v = std::string{};
    }
  }
  rpc::WireDecoder dec(bytes);
  while (!dec.done()) {
    const auto tag = dec.readTag();
    if (!tag) return false;
    const std::size_t c = tag->number == 0 ? schema.columnCount()
                                           : static_cast<std::size_t>(tag->number - 1);
    if (c >= schema.columnCount()) {
      if (!dec.skip(tag->type)) return false;
      continue;
    }
    switch (schema.columns()[c].type) {
      case ColumnType::kInt: {
        const auto v = dec.readSint();
        if (!v) return false;
        out.values[c] = *v;
        break;
      }
      case ColumnType::kDouble: {
        const auto v = dec.readDouble();
        if (!v) return false;
        out.values[c] = *v;
        break;
      }
      case ColumnType::kString: {
        const auto v = dec.readBytes();
        if (!v) return false;
        std::get<std::string>(out.values[c]).assign(*v);
        break;
      }
    }
  }
  return true;
}

std::uint64_t declaredPayloadBytes(const TableSchema& schema,
                                   const Row& row) noexcept {
  const auto col = schema.payloadSizeColumn();
  if (!col || *col >= row.values.size()) return 0;
  const std::int64_t declared = valueToInt(row.values[*col]);
  return declared > 0 ? static_cast<std::uint64_t>(declared) : 0;
}

std::uint64_t encodedRowSize(const TableSchema& schema, const Row& row) {
  std::uint64_t size = 0;
  const std::size_t n = std::min(schema.columnCount(), row.values.size());
  for (std::size_t c = 0; c < n; ++c) {
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        size += 1 + rpc::varintSize(rpc::zigzagEncode(valueToInt(row.values[c])));
        break;
      case ColumnType::kDouble:
        size += 9;
        break;
      case ColumnType::kString:
        size += rpc::bytesFieldSize(valueStringSize(row.values[c]));
        break;
    }
  }
  return size;
}

}  // namespace dcache::storage
