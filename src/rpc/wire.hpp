// Protobuf-compatible wire primitives: base-128 varints, ZigZag signed
// encoding, fixed-width little-endian integers and length-delimited byte
// strings, composed into (tag, value) fields. This is a real codec — the
// micro-benchmarks that calibrate the serialization cost model run on it,
// and the remote-cache and SQL messages round-trip through it in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dcache::rpc {

enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

[[nodiscard]] constexpr std::uint64_t zigzagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

class WireEncoder {
 public:
  /// Room for `bytes` more bytes, so writes that fit grow nothing.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  void writeVarint(std::uint64_t value);
  void writeTag(std::uint32_t fieldNumber, WireType type);

  void writeUint(std::uint32_t field, std::uint64_t value);
  void writeSint(std::uint32_t field, std::int64_t value);  // zigzag
  void writeBool(std::uint32_t field, bool value);
  void writeFixed64(std::uint32_t field, std::uint64_t value);
  void writeFixed32(std::uint32_t field, std::uint32_t value);
  void writeDouble(std::uint32_t field, double value);
  void writeBytes(std::uint32_t field, std::string_view bytes);
  void writeString(std::uint32_t field, std::string_view s) {
    writeBytes(field, s);
  }
  /// Nested message: encode `bytes` produced by a sub-encoder.
  void writeMessage(std::uint32_t field, const WireEncoder& sub) {
    writeBytes(field, sub.view());
  }

  [[nodiscard]] std::string_view view() const noexcept {
    return {reinterpret_cast<const char*>(buffer_.data()), buffer_.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept {
    return std::move(buffer_);
  }
  void clear() noexcept { buffer_.clear(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Streaming decoder over an immutable buffer. All reads are bounds-checked;
/// malformed input yields std::nullopt rather than UB — decoders face bytes
/// from "the network" and must be total.
class WireDecoder {
 public:
  explicit WireDecoder(std::string_view bytes) noexcept
      : data_(reinterpret_cast<const std::uint8_t*>(bytes.data())),
        size_(bytes.size()) {}

  struct Field {
    std::uint32_t number;
    WireType type;
  };

  [[nodiscard]] bool done() const noexcept { return pos_ >= size_; }

  [[nodiscard]] std::optional<Field> readTag();
  [[nodiscard]] std::optional<std::uint64_t> readVarint();
  [[nodiscard]] std::optional<std::int64_t> readSint();
  [[nodiscard]] std::optional<std::uint64_t> readFixed64();
  [[nodiscard]] std::optional<std::uint32_t> readFixed32();
  [[nodiscard]] std::optional<double> readDouble();
  [[nodiscard]] std::optional<std::string_view> readBytes();

  /// Skip a field of the given wire type. Returns false on malformed input.
  [[nodiscard]] bool skip(WireType type);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dcache::rpc
