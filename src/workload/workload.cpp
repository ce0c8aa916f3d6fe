#include "workload/workload.hpp"

#include <algorithm>
#include <cstdio>

namespace dcache::workload {

std::string keyName(std::uint64_t keyIndex) {
  std::string out;
  keyNameTo(keyIndex, out);
  return out;
}

void keyNameTo(std::uint64_t keyIndex, std::string& out) {
  // Hand-rolled "k%09llu": the serve loop formats one key per simulated op,
  // where snprintf's format parsing is measurable.
  char buf[24];
  char* const end = buf + sizeof buf;
  char* p = end;
  do {
    *--p = static_cast<char>('0' + keyIndex % 10);
    keyIndex /= 10;
  } while (keyIndex != 0);
  while (end - p < 9) *--p = '0';
  *--p = 'k';
  out.assign(p, static_cast<std::size_t>(end - p));
}

std::optional<std::uint64_t> keyIndexOf(std::string_view name) noexcept {
  // keyNameTo pads to nine digits and never pads past them, so a longer
  // name starts with a non-zero digit. UINT64_MAX has 20 digits.
  if (name.size() < 10 || name.size() > 21 || name[0] != 'k') {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(1);
  if (digits.size() > 9 && digits[0] == '0') return std::nullopt;
  std::uint64_t index = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (index > (UINT64_MAX - digit) / 10) return std::nullopt;
    index = index * 10 + digit;
  }
  return index;
}

double Workload::meanValueSize(std::uint64_t sampleKeys) const {
  const std::uint64_t n = std::min(sampleKeys, keyCount());
  if (n == 0) return 0.0;
  double total = 0.0;
  // Stride across the keyspace so the sample is not biased to low indexes.
  const std::uint64_t stride = std::max<std::uint64_t>(1, keyCount() / n);
  std::uint64_t counted = 0;
  for (std::uint64_t k = 0; k < keyCount() && counted < n; k += stride) {
    total += static_cast<double>(valueSizeFor(k));
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace dcache::workload
