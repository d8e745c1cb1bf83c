#include "src/util/bytes.h"

#include <array>

namespace util {
namespace {

// Digits and lower-case letters with "0", "1", "l", "o" removed (paper §2.2).
constexpr char kBase32Alphabet[] = "23456789abcdefghijkmnpqrstuvwxyz";
static_assert(sizeof(kBase32Alphabet) == 33, "alphabet must have 32 characters");

std::array<int8_t, 256> BuildBase32Reverse() {
  std::array<int8_t, 256> rev{};
  rev.fill(-1);
  for (int i = 0; i < 32; ++i) {
    rev[static_cast<uint8_t>(kBase32Alphabet[i])] = static_cast<int8_t>(i);
  }
  return rev;
}

const std::array<int8_t, 256>& Base32Reverse() {
  static const std::array<int8_t, 256> kRev = BuildBase32Reverse();
  return kRev;
}

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string StringOf(const Bytes& b) { return std::string(b.begin(), b.end()); }

void Append(Bytes* dst, const Bytes& src) { dst->insert(dst->end(), src.begin(), src.end()); }

void Append(Bytes* dst, const std::string& src) { dst->insert(dst->end(), src.begin(), src.end()); }

std::string HexEncode(const Bytes& b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

Result<Bytes> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgument("invalid hex character");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string Base32Encode(const Bytes& b) {
  std::string out;
  out.reserve((b.size() * 8 + 4) / 5);
  uint32_t accum = 0;
  int bits = 0;
  for (uint8_t byte : b) {
    accum = (accum << 8) | byte;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32Alphabet[(accum >> bits) & 0x1f]);
    }
  }
  if (bits > 0) {
    out.push_back(kBase32Alphabet[(accum << (5 - bits)) & 0x1f]);
  }
  return out;
}

Result<Bytes> Base32Decode(const std::string& s) {
  const auto& rev = Base32Reverse();
  Bytes out;
  out.reserve(s.size() * 5 / 8);
  uint32_t accum = 0;
  int bits = 0;
  for (char c : s) {
    int8_t v = rev[static_cast<uint8_t>(c)];
    if (v < 0) {
      return InvalidArgument("invalid base32 character");
    }
    accum = (accum << 5) | static_cast<uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>((accum >> bits) & 0xff));
    }
  }
  if (bits > 0 && (accum & ((1u << bits) - 1)) != 0) {
    return InvalidArgument("nonzero trailing bits in base32 string");
  }
  return out;
}

bool ConstantTimeEquals(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() && ConstantTimeEquals(a.data(), b.data(), a.size());
}

bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t diff = 0;
  for (size_t i = 0; i < len; ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace util
