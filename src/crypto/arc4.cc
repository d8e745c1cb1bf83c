#include "src/crypto/arc4.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace crypto {

Arc4::Arc4(const util::Bytes& key) : i_(0), j_(0) {
  assert(!key.empty() && key.size() <= 256);
  for (int i = 0; i < 256; ++i) {
    s_[i] = static_cast<uint8_t>(i);
  }
  // One key-schedule pass per 128 bits of key material (paper §3.1.3).
  size_t rounds = (key.size() * 8 + 127) / 128;
  for (size_t r = 0; r < rounds; ++r) {
    KeyScheduleRound(key);
  }
  // The schedule borrows j_ as its accumulator; the PRGA starts from zero.
  i_ = 0;
  j_ = 0;
}

void Arc4::KeyScheduleRound(const util::Bytes& key) {
  uint8_t j = j_;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<uint8_t>(j + s_[i] + key[i % key.size()]);
    uint8_t tmp = s_[i];
    s_[i] = s_[j];
    s_[j] = tmp;
  }
  j_ = j;
}

uint8_t Arc4::NextByte() {
  uint8_t b = 0;
  Crypt(&b, 1);
  return b;
}

util::Bytes Arc4::NextBytes(size_t len) {
  util::Bytes out(len);  // Zeros, so the XOR leaves the bare keystream.
  Crypt(out.data(), len);
  return out;
}

void Arc4::Crypt(uint8_t* data, size_t len) {
  // i, j and the S-box pointer live in locals, and the S-box is declared
  // unaliased: otherwise every store through `data` (a byte pointer, which
  // may alias anything) forces the state to be reloaded for the next byte.
  uint8_t* __restrict s = s_;
  unsigned i = i_;
  unsigned j = j_;
  // S[i+1] is loaded one step ahead, before the swap's stores, so the load
  // that feeds j never waits on them; when the swap wrote S[i+1] (j == i+1)
  // the value it wrote is taken instead.
  unsigned si = s[(i + 1) & 0xff];
  auto next = [&]() -> uint8_t {
    i = (i + 1) & 0xff;
    j = (j + si) & 0xff;
    unsigned sj = s[j];
    unsigned ahead = s[(i + 1) & 0xff];
    s[i] = static_cast<uint8_t>(sj);
    s[j] = static_cast<uint8_t>(si);
    uint8_t out = s[(si + sj) & 0xff];
    si = j == ((i + 1) & 0xff) ? si : ahead;
    return out;
  };
  size_t k = 0;
  for (; k + 8 <= len; k += 8) {
    // Eight keystream bytes in memory order, XORed as one word.
    uint64_t ks = 0;
#pragma GCC unroll 8
    for (unsigned b = 0; b < 8; ++b) {
      unsigned shift = std::endian::native == std::endian::little ? 8 * b : 56 - 8 * b;
      ks |= uint64_t{next()} << shift;
    }
    uint64_t word;
    std::memcpy(&word, data + k, sizeof word);
    word ^= ks;
    std::memcpy(data + k, &word, sizeof word);
  }
  for (; k < len; ++k) {
    data[k] ^= next();
  }
  i_ = static_cast<uint8_t>(i);
  j_ = static_cast<uint8_t>(j);
}

}  // namespace crypto
