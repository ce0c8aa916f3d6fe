// Wire codec and RPC message tests: round trips, edge values, malformed
// input, and the encodedSize() = |encode()| property that the cost model
// depends on.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "rpc/messages.hpp"
#include "rpc/wire.hpp"
#include "rpc/wire_size.hpp"
#include "util/rng.hpp"

namespace dcache::rpc {
namespace {

TEST(Wire, VarintEdgeValues) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 16383, 16384,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) {
    WireEncoder enc;
    enc.writeVarint(v);
    WireDecoder dec(enc.view());
    const auto decoded = dec.readVarint();
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(dec.done());
  }
}

TEST(Wire, ZigzagRoundtrip) {
  const std::int64_t cases[] = {
      0, -1, 1, -2, 2, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
  }
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
}

TEST(Wire, AllFieldTypesRoundtrip) {
  WireEncoder enc;
  enc.writeUint(1, 42);
  enc.writeSint(2, -7);
  enc.writeBool(3, true);
  enc.writeFixed64(4, 0xDEADBEEFCAFEF00DULL);
  enc.writeFixed32(5, 0x12345678U);
  enc.writeDouble(6, 3.14159);
  enc.writeBytes(7, std::string_view("payload\0with-nul", 16));

  WireDecoder dec(enc.view());
  auto tag = dec.readTag();
  ASSERT_TRUE(tag && tag->number == 1 && tag->type == WireType::kVarint);
  EXPECT_EQ(dec.readVarint(), 42u);
  tag = dec.readTag();
  ASSERT_TRUE(tag && tag->number == 2);
  EXPECT_EQ(dec.readSint(), -7);
  tag = dec.readTag();
  ASSERT_TRUE(tag);
  EXPECT_EQ(dec.readVarint(), 1u);
  tag = dec.readTag();
  ASSERT_TRUE(tag && tag->type == WireType::kFixed64);
  EXPECT_EQ(dec.readFixed64(), 0xDEADBEEFCAFEF00DULL);
  tag = dec.readTag();
  ASSERT_TRUE(tag && tag->type == WireType::kFixed32);
  EXPECT_EQ(dec.readFixed32(), 0x12345678U);
  tag = dec.readTag();
  ASSERT_TRUE(tag);
  EXPECT_DOUBLE_EQ(*dec.readDouble(), 3.14159);
  tag = dec.readTag();
  ASSERT_TRUE(tag && tag->type == WireType::kLengthDelimited);
  EXPECT_EQ(dec.readBytes()->size(), 16u);
  EXPECT_TRUE(dec.done());
}

TEST(Wire, SkipUnknownFields) {
  WireEncoder enc;
  enc.writeUint(9, 1);
  enc.writeBytes(10, "skipme");
  enc.writeFixed64(11, 5);
  enc.writeFixed32(12, 6);
  enc.writeUint(1, 77);

  WireDecoder dec(enc.view());
  std::uint64_t found = 0;
  while (!dec.done()) {
    const auto tag = dec.readTag();
    ASSERT_TRUE(tag.has_value());
    if (tag->number == 1) {
      found = *dec.readVarint();
    } else {
      ASSERT_TRUE(dec.skip(tag->type));
    }
  }
  EXPECT_EQ(found, 77u);
}

TEST(Wire, TruncatedInputIsRejectedNotUB) {
  WireEncoder enc;
  enc.writeBytes(1, std::string(100, 'x'));
  const std::string full(enc.view());
  // Every strict prefix must decode to nullopt somewhere, never crash.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireDecoder dec(std::string_view(full).substr(0, cut));
    while (!dec.done()) {
      const auto tag = dec.readTag();
      if (!tag) break;
      if (!dec.skip(tag->type)) break;
    }
    SUCCEED();
  }
}

TEST(Wire, OverlongVarintRejected) {
  // 11 bytes of continuation flags: longer than any valid 64-bit varint.
  const std::string bad(11, '\xff');
  WireDecoder dec(bad);
  EXPECT_FALSE(dec.readVarint().has_value());
}

TEST(Messages, GetRoundtrip) {
  const GetRequest req{"user:123"};
  WireEncoder enc;
  req.encode(enc);
  EXPECT_EQ(enc.size(), req.encodedSize());
  const auto back = GetRequest::decode(enc.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key, "user:123");
}

TEST(Messages, GetResponseRoundtrip) {
  GetResponse resp;
  resp.found = true;
  resp.version = 987654321;
  resp.value = std::string(3000, 'v');
  WireEncoder enc;
  resp.encode(enc);
  EXPECT_EQ(enc.size(), resp.encodedSize());
  const auto back = GetResponse::decode(enc.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->found);
  EXPECT_EQ(back->version, 987654321u);
  EXPECT_EQ(back->value, resp.value);
}

TEST(Messages, PutRoundtrip) {
  const PutRequest req{"k", std::string(500, 'p'), 7};
  WireEncoder enc;
  req.encode(enc);
  EXPECT_EQ(enc.size(), req.encodedSize());
  const auto back = PutRequest::decode(enc.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key, "k");
  EXPECT_EQ(back->value.size(), 500u);
  EXPECT_EQ(back->version, 7u);

  const PutResponse resp{true, 8};
  WireEncoder enc2;
  resp.encode(enc2);
  EXPECT_EQ(enc2.size(), resp.encodedSize());
  const auto backResp = PutResponse::decode(enc2.view());
  ASSERT_TRUE(backResp.has_value());
  EXPECT_TRUE(backResp->ok);
  EXPECT_EQ(backResp->version, 8u);
}

TEST(Messages, SqlRoundtrip) {
  const SqlRequest req{"SELECT * FROM tables WHERE id = ?", {"42", "x"}};
  WireEncoder enc;
  req.encode(enc);
  EXPECT_EQ(enc.size(), req.encodedSize());
  const auto back = SqlRequest::decode(enc.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->statement, req.statement);
  EXPECT_EQ(back->params, req.params);

  SqlResponse resp;
  resp.ok = true;
  resp.rows = {"row1", "row2-bytes", ""};
  WireEncoder enc2;
  resp.encode(enc2);
  EXPECT_EQ(enc2.size(), resp.encodedSize());
  const auto backResp = SqlResponse::decode(enc2.view());
  ASSERT_TRUE(backResp.has_value());
  EXPECT_EQ(backResp->rows, resp.rows);
}

TEST(Messages, VersionCheckRoundtripAndTinySize) {
  const VersionCheckRequest req{"table:55"};
  WireEncoder enc;
  req.encode(enc);
  EXPECT_EQ(enc.size(), req.encodedSize());

  const VersionCheckResponse resp{true, 123456};
  WireEncoder enc2;
  resp.encode(enc2);
  EXPECT_EQ(enc2.size(), resp.encodedSize());
  // §5.5: the response is just a found flag + 8-byte version.
  EXPECT_LE(resp.encodedSize(), 16u);
  const auto back = VersionCheckResponse::decode(enc2.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 123456u);
}

TEST(Messages, DecodeRejectsCorruption) {
  GetResponse resp;
  resp.found = true;
  resp.version = 42;
  resp.value = "hello world value";
  WireEncoder enc;
  resp.encode(enc);
  std::string bytes(enc.view());

  util::Pcg32 rng(99, 1);
  int rejected = 0;
  int attempts = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = bytes;
    // Flip 1-3 random bytes.
    const int flips = 1 + static_cast<int>(rng.nextBounded(3));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.nextBounded(static_cast<std::uint32_t>(corrupt.size()))] ^=
          static_cast<char>(1 + rng.nextBounded(255));
    }
    ++attempts;
    const auto decoded = GetResponse::decode(corrupt);
    // Either cleanly rejected or decoded to *something* — never UB. Count
    // rejections to make sure validation actually fires.
    if (!decoded.has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(attempts, 500);
}

/// encodedSize() must equal the real encoding across sizes (the simulation
/// charges bytes from encodedSize without materializing buffers).
class MessageSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MessageSizeProperty, PutRequestSizeExact) {
  const std::size_t n = GetParam();
  const PutRequest req{"some-key-name", std::string(n, 'z'), 999};
  WireEncoder enc;
  req.encode(enc);
  EXPECT_EQ(enc.size(), req.encodedSize());
}

TEST_P(MessageSizeProperty, GetResponseSizeExact) {
  const std::size_t n = GetParam();
  GetResponse resp;
  resp.found = n % 2 == 0;
  resp.version = n;
  resp.value = std::string(n, 'q');
  WireEncoder enc;
  resp.encode(enc);
  EXPECT_EQ(enc.size(), resp.encodedSize());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MessageSizeProperty,
                         ::testing::Values(0, 1, 127, 128, 1024, 16384,
                                           1 << 20));

/// The zero-allocation wire_size.hpp helpers must match the real messages
/// exactly for every length — the serve hot path charges bytes from the
/// helpers while tests and the functional paths encode real messages.
class WireSizeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireSizeEquivalence, HelpersMatchRealMessages) {
  const std::size_t n = GetParam();
  const std::string key(n, 'k');
  const std::string value(n, 'v');

  const GetRequest getReq{key};
  EXPECT_EQ(getRequestWireSize(key.size()), getReq.encodedSize());

  GetResponse getResp;
  getResp.found = true;
  getResp.version = 77;
  getResp.value = value;
  EXPECT_EQ(getResponseWireSize(value.size()), getResp.encodedSize());

  const PutRequest putReq{key, value, 12345};
  EXPECT_EQ(putRequestWireSize(key.size(), value.size()),
            putReq.encodedSize());

  PutResponse putResp;
  putResp.ok = true;
  putResp.version = 9;
  EXPECT_EQ(putResponseWireSize(), putResp.encodedSize());

  VersionCheckRequest vreq;
  vreq.key = key;
  EXPECT_EQ(versionCheckRequestWireSize(key.size()), vreq.encodedSize());

  VersionCheckResponse vresp;
  vresp.found = true;
  vresp.version = 3;
  EXPECT_EQ(versionCheckResponseWireSize(), vresp.encodedSize());
}

INSTANTIATE_TEST_SUITE_P(Lengths, WireSizeEquivalence,
                         ::testing::Values(0, 1, 7, 127, 128, 129, 300, 16383,
                                           16384, 65536));

}  // namespace
}  // namespace dcache::rpc
