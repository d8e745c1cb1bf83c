#include "src/crypto/sha1.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace crypto {
namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

// Round function and constant of one 20-round group.
template <int kGroup>
inline uint32_t F(uint32_t b, uint32_t c, uint32_t d) {
  if constexpr (kGroup == 0) {
    return d ^ (b & (c ^ d));  // Choose.
  } else if constexpr (kGroup == 2) {
    return (b & c) | (d & (b | c));  // Majority.
  } else {
    return b ^ c ^ d;  // Parity.
  }
}
constexpr uint32_t kRoundConstant[4] = {0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6};

// Round t.  The message schedule rolls through 16 words: word t replaces
// word t-16 in place.  Instead of shifting a..e down after each round,
// the roles rotate through v[]: round t's `a` is v[-t mod 5].
template <int t>
[[gnu::always_inline]] inline void Round(uint32_t v[5], uint32_t w[16], const uint8_t* block) {
  if constexpr (t < 16) {
    w[t] = LoadBe32(block + 4 * t);
  } else {
    w[t % 16] = Rotl(w[(t - 3) % 16] ^ w[(t - 8) % 16] ^ w[(t - 14) % 16] ^ w[t % 16], 1);
  }
  constexpr int p = (5 - t % 5) % 5;
  uint32_t& a = v[p];
  uint32_t& b = v[(p + 1) % 5];
  uint32_t& c = v[(p + 2) % 5];
  uint32_t& d = v[(p + 3) % 5];
  uint32_t& e = v[(p + 4) % 5];
  e += Rotl(a, 5) + F<t / 20>(b, c, d) + kRoundConstant[t / 20] + w[t % 16];
  b = Rotl(b, 30);
}

// Forced inline so that v[] and w[] stay in registers.
template <int... t>
[[gnu::always_inline]] inline void Rounds(uint32_t v[5], uint32_t w[16], const uint8_t* block,
                                          std::integer_sequence<int, t...>) {
  (Round<t>(v, w, block), ...);
}

#if defined(__x86_64__) || defined(__i386__)

// Step i of the SHA-NI kernel: rounds 4i..4i+3 in one sha1rnds4.  The
// schedule rolls through four registers, msg[i % 4] holding W[4i..4i+3]
// big-endian with the first word in the top lane; sha1msg1, the xor and
// sha1msg2 build the group three steps ahead in the slot it replaces.
// e[i % 2] becomes this step's E operand (sha1nexte adds rotl(a, 30) of
// the ABCD saved one step earlier), while e[(i + 1) % 2] saves ABCD for
// the next step.
template <int i>
[[gnu::always_inline]] __attribute__((target("sha,sse4.1"))) inline void ShaNiStep(
    __m128i& abcd, __m128i e[2], __m128i msg[4], const uint8_t* block, __m128i bswap) {
  if constexpr (i < 4) {
    msg[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), bswap);
  }
  if constexpr (i == 0) {
    e[0] = _mm_add_epi32(e[0], msg[0]);  // The state's E, not a rotated A.
  } else {
    e[i % 2] = _mm_sha1nexte_epu32(e[i % 2], msg[i % 4]);
  }
  e[(i + 1) % 2] = abcd;
  if constexpr (i >= 3 && i <= 18) {
    msg[(i + 1) % 4] = _mm_sha1msg2_epu32(msg[(i + 1) % 4], msg[i % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[i % 2], i / 5);
  if constexpr (i >= 1 && i <= 16) {
    msg[(i + 3) % 4] = _mm_sha1msg1_epu32(msg[(i + 3) % 4], msg[i % 4]);
  }
  if constexpr (i >= 2 && i <= 17) {
    msg[(i + 2) % 4] = _mm_xor_si128(msg[(i + 2) % 4], msg[i % 4]);
  }
}

template <int... i>
[[gnu::always_inline]] __attribute__((target("sha,sse4.1"))) inline void ShaNiSteps(
    __m128i& abcd, __m128i e[2], __m128i msg[4], const uint8_t* block, __m128i bswap,
    std::integer_sequence<int, i...>) {
  (ShaNiStep<i>(abcd, e, msg, block, bswap), ...);
}

// The portable kernel's contract on the x86 SHA extensions: the state is
// loaded once per call and blocks are read in place.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t state[5],
                                                         const uint8_t* data, size_t blocks) {
  // Reverses all 16 bytes: big-endian words, and the first in the top lane.
  const __m128i bswap = _mm_set_epi64x(0x0001020304050607, 0x08090a0b0c0d0e0f);
  // sha1rnds4 wants A in the top lane; E rides alone in the top lane.
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e[2] = {_mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0), _mm_setzero_si128()};
  for (; blocks > 0; --blocks, data += kSha1BlockSize) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e[0];
    __m128i msg[4];
    ShaNiSteps(abcd, e, msg, data, bswap, std::make_integer_sequence<int, 20>{});
    e[0] = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e[0], 3));
}

// CPUID leaf 7 EBX bit 29 (SHA) and leaf 1 ECX bit 19 (SSE4.1).  Both use
// only the XMM registers, which every x86 OS saves, so no XGETBV check.
bool CpuHasShaNi() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) {
    return false;
  }
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  const bool sha = (ebx >> 29) & 1;
  __cpuid(1, eax, ebx, ecx, edx);
  const bool sse41 = (ecx >> 19) & 1;
  return sha && sse41;
}

#endif  // defined(__x86_64__) || defined(__i386__)

struct Kernel {
  const char* name;
  sha1_detail::CompressFn compress;
};

// Chosen on first use rather than by a namespace-scope initializer,
// because another translation unit may hash during static initialization.
const Kernel& ChosenKernel() {
  static const Kernel kernel = [] {
    if (sha1_detail::CompressFn sha_ni = sha1_detail::ShaNiKernel()) {
      return Kernel{"sha-ni", sha_ni};
    }
    return Kernel{"portable", &sha1_detail::CompressPortable};
  }();
  return kernel;
}

void Compress(uint32_t state[5], const uint8_t* data, size_t blocks) {
  ChosenKernel().compress(state, data, blocks);
}

}  // namespace

namespace sha1_detail {

void CompressPortable(uint32_t state[5], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha1BlockSize) {
    uint32_t v[5] = {state[0], state[1], state[2], state[3], state[4]};
    uint32_t w[16];
    Rounds(v, w, data, std::make_integer_sequence<int, 80>{});
    for (int k = 0; k < 5; ++k) {
      state[k] += v[k];
    }
  }
}

CompressFn ShaNiKernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasShaNi()) {
    return &CompressShaNi;
  }
#endif
  return nullptr;
}

const char* KernelName() { return ChosenKernel().name; }

}  // namespace sha1_detail

Sha1::Sha1() : total_bytes_(0), buffer_len_(0), finalized_(false) {
  state_[0] = 0x67452301;
  state_[1] = 0xEFCDAB89;
  state_[2] = 0x98BADCFE;
  state_[3] = 0x10325476;
  state_[4] = 0xC3D2E1F0;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  assert(!finalized_);
  if (len == 0) {
    return;
  }
  total_bytes_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(kSha1BlockSize - buffer_len_, len);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kSha1BlockSize) {
      return;
    }
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input; only a partial tail is buffered.
  if (size_t blocks = len / kSha1BlockSize; blocks > 0) {
    Compress(state_, data, blocks);
    data += blocks * kSha1BlockSize;
    len -= blocks * kSha1BlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha1::Digest(uint8_t out[kSha1DigestSize]) {
  assert(!finalized_);
  finalized_ = true;

  uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kSha1BlockSize - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);

  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
}

util::Bytes Sha1::Digest() {
  util::Bytes out(kSha1DigestSize);
  Digest(out.data());
  return out;
}

util::Bytes Sha1Digest(const util::Bytes& data) {
  Sha1 h;
  h.Update(data);
  return h.Digest();
}

util::Bytes Sha1Digest(const std::string& data) {
  Sha1 h;
  h.Update(data);
  return h.Digest();
}

void HmacSha1(const uint8_t* key, size_t key_len, const uint8_t* message, size_t message_len,
              uint8_t out[kSha1DigestSize]) {
  uint8_t k[kSha1BlockSize] = {};
  if (key_len > kSha1BlockSize) {
    Sha1 h;
    h.Update(key, key_len);
    h.Digest(k);
  } else if (key_len > 0) {
    std::memcpy(k, key, key_len);
  }

  uint8_t pad[kSha1BlockSize];
  for (size_t i = 0; i < kSha1BlockSize; ++i) {
    pad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
  }
  Sha1 inner;
  inner.Update(pad, kSha1BlockSize);
  inner.Update(message, message_len);
  uint8_t inner_digest[kSha1DigestSize];
  inner.Digest(inner_digest);

  for (size_t i = 0; i < kSha1BlockSize; ++i) {
    pad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  Sha1 outer;
  outer.Update(pad, kSha1BlockSize);
  outer.Update(inner_digest, kSha1DigestSize);
  outer.Digest(out);
}

util::Bytes HmacSha1(const util::Bytes& key, const util::Bytes& message) {
  util::Bytes out(kSha1DigestSize);
  HmacSha1(key.data(), key.size(), message.data(), message.size(), out.data());
  return out;
}

}  // namespace crypto
