// Deterministic fuzz tests: every decoder/parser that faces external bytes
// must be total — returning an error on garbage, never crashing or reading
// out of bounds. Seeds are fixed so failures reproduce.
#include <gtest/gtest.h>

#include <string>

#include "richobject/object_codec.hpp"
#include "rpc/messages.hpp"
#include "rpc/wire.hpp"
#include "storage/row.hpp"
#include "storage/sql_parser.hpp"
#include "util/rng.hpp"
#include "workload/trace_io.hpp"

namespace dcache {
namespace {

/// Random byte string with printable bias (stresses both paths).
[[nodiscard]] std::string randomBytes(util::Pcg32& rng, std::size_t maxLen) {
  const std::size_t len = rng.nextBounded(static_cast<std::uint32_t>(maxLen));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.nextBounded(256)));
  }
  return out;
}

TEST(Fuzz, WireDecoderNeverCrashes) {
  util::Pcg32 rng(101, 1);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string bytes = randomBytes(rng, 256);
    rpc::WireDecoder dec(bytes);
    int safety = 0;
    while (!dec.done() && safety++ < 1000) {
      const auto tag = dec.readTag();
      if (!tag || !dec.skip(tag->type)) break;
    }
  }
  SUCCEED();
}

TEST(Fuzz, MessageDecodersNeverCrash) {
  util::Pcg32 rng(102, 1);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string bytes = randomBytes(rng, 512);
    (void)rpc::GetRequest::decode(bytes);
    (void)rpc::GetResponse::decode(bytes);
    (void)rpc::PutRequest::decode(bytes);
    (void)rpc::PutResponse::decode(bytes);
    (void)rpc::SqlRequest::decode(bytes);
    (void)rpc::SqlResponse::decode(bytes);
    (void)rpc::VersionCheckRequest::decode(bytes);
    (void)rpc::VersionCheckResponse::decode(bytes);
  }
  SUCCEED();
}

TEST(Fuzz, MutatedValidMessagesDecodeOrReject) {
  // Start from valid encodings and mutate: decoders must stay total and
  // any successful decode must satisfy basic invariants.
  util::Pcg32 rng(103, 1);
  rpc::SqlRequest req{"SELECT * FROM tables WHERE id = ?", {"7", "owner"}};
  rpc::WireEncoder enc;
  req.encode(enc);
  const std::string valid(enc.view());
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.nextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.nextBounded(static_cast<std::uint32_t>(mutated.size()))] =
          static_cast<char>(rng.nextBounded(256));
    }
    const auto decoded = rpc::SqlRequest::decode(mutated);
    if (decoded) {
      EXPECT_LE(decoded->statement.size(), mutated.size());
    }
  }
}

TEST(Fuzz, SqlParserNeverCrashes) {
  util::Pcg32 rng(104, 1);
  const char* fragments[] = {"SELECT", "INSERT", "UPDATE", "DELETE", "FROM",
                             "WHERE",  "JOIN",   "ON",     "AND",    "SET",
                             "VALUES", "LIMIT",  "*",      ",",      "(",
                             ")",      "=",      "?",      "'str'",  "42",
                             "-7",     "ident",  "a.b",    ";",      "."};
  for (int trial = 0; trial < 5000; ++trial) {
    std::string sql;
    const int parts = 1 + static_cast<int>(rng.nextBounded(12));
    for (int p = 0; p < parts; ++p) {
      sql += fragments[rng.nextBounded(std::size(fragments))];
      sql += ' ';
    }
    const auto result = storage::parseSql(sql);
    (void)result;  // either a statement or a ParseError — both fine
  }
  SUCCEED();
}

TEST(Fuzz, SqlParserRawBytes) {
  util::Pcg32 rng(105, 1);
  for (int trial = 0; trial < 3000; ++trial) {
    (void)storage::parseSql(randomBytes(rng, 128));
  }
  SUCCEED();
}

TEST(Fuzz, RowDecoderNeverCrashes) {
  const storage::TableSchema schema(
      "t",
      {storage::Column{"id", storage::ColumnType::kInt},
       storage::Column{"x", storage::ColumnType::kDouble},
       storage::Column{"s", storage::ColumnType::kString}},
      0);
  util::Pcg32 rng(106, 1);
  storage::Row row;
  for (int trial = 0; trial < 3000; ++trial) {
    (void)storage::decodeRow(schema, randomBytes(rng, 256), row);
  }
  SUCCEED();
}

TEST(Fuzz, ObjectCodecNeverCrashes) {
  util::Pcg32 rng(107, 1);
  for (int trial = 0; trial < 2000; ++trial) {
    (void)richobject::decodeObject(randomBytes(rng, 512));
  }
  SUCCEED();
}

TEST(Fuzz, ObjectCodecMutationRoundtrip) {
  richobject::RichTableObject object;
  object.table = richobject::TableInfo{1, 2, "t", "o", "delta", 1000, 3};
  object.privileges.push_back(
      richobject::Privilege{richobject::SecurableLevel::kTable, "u", "ALL"});
  object.properties.emplace("k", "v");
  const std::string valid = richobject::encodeObject(object);

  util::Pcg32 rng(108, 1);
  int rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = valid;
    mutated[rng.nextBounded(static_cast<std::uint32_t>(mutated.size()))] ^=
        static_cast<char>(1 + rng.nextBounded(255));
    if (!richobject::decodeObject(mutated)) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // validation actually fires
}

TEST(Fuzz, TraceDecoderNeverCrashes) {
  util::Pcg32 rng(109, 1);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = "DCTR1";  // valid magic, garbage body
    bytes += randomBytes(rng, 128);
    (void)workload::decodeTrace(bytes);
    (void)workload::decodeTrace(randomBytes(rng, 64));  // garbage magic
  }
  SUCCEED();
}

}  // namespace
}  // namespace dcache
