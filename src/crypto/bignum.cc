#include "src/crypto/bignum.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/crypto/montgomery.h"

namespace crypto {

namespace {
using u128 = unsigned __int128;

// Below this many 64-bit limbs in the smaller operand, schoolbook
// multiplication beats Karatsuba's extra passes and temporaries.  At
// 64-bit width the schoolbook inner loop does a quarter of the word
// multiplies it did at 32 bits, so the crossover sits at roughly the
// same *bit* size as the old 130-limb (4160-bit) threshold: re-measured
// for this implementation the two curves cross between 64 and 96 limbs
// (~5000 bits), with Karatsuba clearly ahead from 96 limbs up.
// Key-sized (<= 2048-bit) operands always take the schoolbook path
// (see docs/CRYPTO_PERF.md).  Overridable for re-measurement harnesses.
#ifdef SFS_KARATSUBA_THRESHOLD
constexpr size_t kKaratsubaThresholdLimbs = SFS_KARATSUBA_THRESHOLD;
#else
constexpr size_t kKaratsubaThresholdLimbs = 80;
#endif

// out[0..an+bn) += a[0..an) * b[0..bn), schoolbook.  out must have room
// for the carry to propagate (an + bn limbs, pre-zeroed by the caller).
// The 128-bit accumulator fits exactly: out + a*b + carry is at most
// (2^64-1) + (2^64-1)^2 + (2^64-1) = 2^128 - 1.
void MulSchoolbook(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                   uint64_t* out) {
  for (size_t i = 0; i < an; ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a[i];
    for (size_t j = 0; j < bn; ++j) {
      u128 cur = out[i + j] + static_cast<u128>(ai) * b[j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    size_t k = i + bn;
    while (carry) {
      u128 cur = static_cast<u128>(out[k]) + carry;
      out[k] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
      ++k;
    }
  }
}
}  // namespace

BigInt::BigInt(int64_t v) : negative_(v < 0) {
  uint64_t mag = negative_ ? (~static_cast<uint64_t>(v) + 1) : static_cast<uint64_t>(v);
  if (mag != 0) {
    limbs_.push_back(mag);
  }
}

BigInt::BigInt(uint64_t v) : negative_(false) {
  if (v != 0) {
    limbs_.push_back(v);
  }
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
  if (limbs_.empty()) {
    negative_ = false;
  }
}

BigInt BigInt::FromBytes(const util::Bytes& bytes) {
  BigInt out;
  out.limbs_.reserve((bytes.size() + 7) / 8);
  // bytes are big-endian; build limbs from the tail.
  size_t n = bytes.size();
  for (size_t off = 0; off < n; off += 8) {
    uint64_t limb = 0;
    for (size_t k = 0; k < 8 && off + k < n; ++k) {
      limb |= static_cast<uint64_t>(bytes[n - 1 - off - k]) << (8 * k);
    }
    out.limbs_.push_back(limb);
  }
  out.Normalize();
  return out;
}

util::Bytes BigInt::ToBytes() const {
  util::Bytes out;
  size_t bits = BitLength();
  size_t len = (bits + 7) / 8;
  out = ToBytesPadded(len);
  return out;
}

util::Bytes BigInt::ToBytesPadded(size_t len) const {
  util::Bytes out(len, 0);
  for (size_t i = 0; i < len; ++i) {
    size_t byte_index = i;  // From least significant.
    size_t limb = byte_index / 8;
    size_t shift = (byte_index % 8) * 8;
    uint8_t v = 0;
    if (limb < limbs_.size()) {
      v = static_cast<uint8_t>(limbs_[limb] >> shift);
    }
    out[len - 1 - i] = v;
  }
  return out;
}

util::Result<BigInt> BigInt::FromDecimal(const std::string& s) {
  size_t pos = 0;
  bool neg = false;
  if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) {
    neg = s[pos] == '-';
    ++pos;
  }
  if (pos == s.size()) {
    return util::InvalidArgument("empty decimal string");
  }
  // Base-10^18 chunking: one bignum multiply-add per eighteen digits —
  // the largest power of ten that fits a 64-bit limb.
  constexpr uint64_t kChunkBase = 1'000'000'000'000'000'000ull;
  constexpr size_t kChunkDigits = 18;
  BigInt out;
  uint64_t chunk = 0;
  size_t chunk_digits = (s.size() - pos) % kChunkDigits;
  if (chunk_digits == 0) {
    chunk_digits = kChunkDigits;
  }
  size_t in_chunk = 0;
  for (; pos < s.size(); ++pos) {
    if (s[pos] < '0' || s[pos] > '9') {
      return util::InvalidArgument("invalid decimal digit");
    }
    chunk = chunk * 10 + static_cast<uint64_t>(s[pos] - '0');
    if (++in_chunk == chunk_digits) {
      out = out * BigInt(kChunkBase) + BigInt(chunk);
      chunk = 0;
      in_chunk = 0;
      chunk_digits = kChunkDigits;
    }
  }
  out.negative_ = neg && !out.is_zero();
  return out;
}

util::Result<BigInt> BigInt::FromHex(const std::string& s) {
  std::string padded = s;
  if (padded.size() % 2 != 0) {
    padded.insert(padded.begin(), '0');
  }
  ASSIGN_OR_RETURN(util::Bytes bytes, util::HexDecode(padded));
  return FromBytes(bytes);
}

std::string BigInt::ToDecimal() const {
  if (is_zero()) {
    return "0";
  }
  // Divide by 10^18 in place, peeling eighteen digits per pass over the
  // limbs; the 128-by-64 step division works on whole limbs directly.
  constexpr uint64_t kChunkBase = 1'000'000'000'000'000'000ull;
  std::vector<uint64_t> v = limbs_;
  std::vector<uint64_t> chunks;
  while (!v.empty()) {
    uint64_t rem = 0;
    for (size_t i = v.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | v[i];
      v[i] = static_cast<uint64_t>(cur / kChunkBase);
      rem = static_cast<uint64_t>(cur % kChunkBase);
    }
    while (!v.empty() && v.back() == 0) {
      v.pop_back();
    }
    chunks.push_back(rem);
  }
  std::string digits;
  if (negative_) {
    digits.push_back('-');
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(chunks.back()));
  digits += buf;
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof(buf), "%018llu",
                  static_cast<unsigned long long>(chunks[i]));
    digits += buf;
  }
  return digits;
}

std::string BigInt::ToHex() const {
  if (is_zero()) {
    return "0";
  }
  std::string out = util::HexEncode(ToBytes());
  // Trim one leading zero nibble if present.
  if (out.size() > 1 && out[0] == '0') {
    out.erase(out.begin());
  }
  if (negative_) {
    out.insert(out.begin(), '-');
  }
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  return limbs_.size() * 64 -
         static_cast<size_t>(__builtin_clzll(limbs_.back()));
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 64)) & 1;
}

uint64_t BigInt::Low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

uint32_t BigInt::ModU32(uint32_t d) const {
  return static_cast<uint32_t>(ModU64(d));
}

uint64_t BigInt::ModU64(uint64_t d) const {
  assert(d != 0);
  uint64_t rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
    rem = static_cast<uint64_t>(cur % d);
  }
  return rem;
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) {
    return negative_ ? -1 : 1;
  }
  int mag = CompareMagnitude(*this, other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) {
    out.negative_ = !out.negative_;
  }
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.Normalize();
  return out;
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  assert(CompareMagnitude(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 diff = static_cast<u128>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) != 0 ? 1 : 0;  // Wrapped past zero.
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (negative_ == other.negative_) {
    BigInt out = AddMagnitude(*this, other);
    out.negative_ = negative_ && !out.is_zero();
    return out;
  }
  int mag = CompareMagnitude(*this, other);
  if (mag == 0) {
    return BigInt();
  }
  if (mag > 0) {
    BigInt out = SubMagnitude(*this, other);
    out.negative_ = negative_ && !out.is_zero();
    return out;
  }
  BigInt out = SubMagnitude(other, *this);
  out.negative_ = other.negative_ && !out.is_zero();
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  if (is_zero() || other.is_zero()) {
    return BigInt();
  }
  const size_t an = limbs_.size();
  const size_t bn = other.limbs_.size();
  if (std::min(an, bn) >= kKaratsubaThresholdLimbs) {
    // Karatsuba: split both magnitudes at half the larger operand and
    // trade one of the four half-products for additions.
    const size_t half = (std::max(an, bn) + 1) / 2;
    BigInt a0;
    BigInt a1;
    BigInt b0;
    BigInt b1;
    a0.limbs_.assign(limbs_.begin(),
                     limbs_.begin() + static_cast<long>(std::min(half, an)));
    if (an > half) {
      a1.limbs_.assign(limbs_.begin() + static_cast<long>(half), limbs_.end());
    }
    b0.limbs_.assign(other.limbs_.begin(),
                     other.limbs_.begin() + static_cast<long>(std::min(half, bn)));
    if (bn > half) {
      b1.limbs_.assign(other.limbs_.begin() + static_cast<long>(half),
                       other.limbs_.end());
    }
    a0.Normalize();
    b0.Normalize();
    BigInt z0 = a0 * b0;
    BigInt z2 = a1 * b1;
    BigInt z1 = (a0 + a1) * (b0 + b1) - z0 - z2;
    BigInt out = z0 + (z1 << (64 * half)) + (z2 << (128 * half));
    out.negative_ = negative_ != other.negative_;
    return out;
  }
  BigInt out;
  out.limbs_.assign(an + bn, 0);
  MulSchoolbook(limbs_.data(), an, other.limbs_.data(), bn, out.limbs_.data());
  out.negative_ = negative_ != other.negative_;
  out.Normalize();
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (is_zero() || bits == 0) {
    return *this;
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u128 v = static_cast<u128>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint64_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint64_t>(v >> 64);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  if (is_zero() || bits == 0) {
    return *this;
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) {
    return BigInt();
  }
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.Normalize();
  return out;
}

// Knuth algorithm D (vol. 2, 4.3.1) on 64-bit limbs; the q_hat estimate
// and refinement use 128-bit intermediates where the 32-bit version used
// 64-bit ones.
void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient, BigInt* remainder) {
  assert(!b.is_zero() && "division by zero");
  int mag = CompareMagnitude(a, b);
  if (mag < 0) {
    if (quotient) {
      *quotient = BigInt();
    }
    if (remainder) {
      *remainder = a;
    }
    return;
  }

  // Fast path: single-limb divisor.
  if (b.limbs_.size() == 1) {
    uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    q.negative_ = a.negative_ != b.negative_;
    q.Normalize();
    BigInt r(rem);
    r.negative_ = a.negative_ && !r.is_zero();
    if (quotient) {
      *quotient = q;
    }
    if (remainder) {
      *remainder = r;
    }
    return;
  }

  // Normalize: shift so that the top limb of the divisor has its high bit set.
  size_t shift = static_cast<size_t>(__builtin_clzll(b.limbs_.back()));
  BigInt u = a.Abs() << shift;
  BigInt v = b.Abs() << shift;
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has n + m + 1 limbs.

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1], clamped to B-1 so
    // the two-limb refinement below cannot overflow 128 bits.
    const uint64_t vtop = v.limbs_[n - 1];
    u128 numerator =
        (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    uint64_t q_hat;
    u128 r_hat;
    if (u.limbs_[j + n] >= vtop) {
      q_hat = ~uint64_t{0};
      r_hat = numerator - static_cast<u128>(q_hat) * vtop;
    } else {
      q_hat = static_cast<uint64_t>(numerator / vtop);
      r_hat = numerator % vtop;
    }
    while ((r_hat >> 64) == 0 &&
           static_cast<u128>(q_hat) * v.limbs_[n - 2] >
               ((r_hat << 64) | u.limbs_[j + n - 2])) {
      --q_hat;
      r_hat += vtop;
    }

    // u[j..j+n] -= q_hat * v.
    uint64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 product = static_cast<u128>(q_hat) * v.limbs_[i] + carry;
      carry = static_cast<uint64_t>(product >> 64);
      u128 diff = static_cast<u128>(u.limbs_[i + j]) -
                  static_cast<uint64_t>(product) - borrow;
      u.limbs_[i + j] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
    u128 diff = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    bool negative = (diff >> 64) != 0;
    u.limbs_[j + n] = static_cast<uint64_t>(diff);

    if (negative) {
      // q_hat was one too large: add back v.
      --q_hat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[i + j]) + v.limbs_[i] + add_carry;
        u.limbs_[i + j] = static_cast<uint64_t>(sum);
        add_carry = static_cast<uint64_t>(sum >> 64);
      }
      u.limbs_[j + n] += add_carry;
    }
    q.limbs_[j] = q_hat;
  }

  u.limbs_.resize(n);
  u.Normalize();
  BigInt r = u >> shift;

  q.negative_ = a.negative_ != b.negative_;
  q.Normalize();
  r.negative_ = a.negative_ && !r.is_zero();
  if (quotient) {
    *quotient = q;
  }
  if (remainder) {
    *remainder = r;
  }
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q;
  DivMod(*this, other, &q, nullptr);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt r;
  DivMod(*this, other, nullptr, &r);
  return r;
}

BigInt BigInt::Mod(const BigInt& m) const {
  assert(!m.is_negative() && !m.is_zero());
  BigInt r = *this % m;
  if (r.is_negative()) {
    r = r + m;
  }
  return r;
}

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!exp.is_negative());
  if (m.is_odd()) {
    return MontgomeryCtx(m).ModExp(base, exp);
  }
  return ModExpNaive(base, exp, m);
}

BigInt BigInt::ModExpNaive(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!exp.is_negative());
  BigInt result(1);
  BigInt b = base.Mod(m);
  size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.Bit(i)) {
      result = (result * b) % m;
    }
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  // Binary GCD: only shifts and subtractions, no DivMod per step.
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  if (x.is_zero()) {
    return y;
  }
  if (y.is_zero()) {
    return x;
  }
  auto trailing_zeros = [](const BigInt& v) {
    size_t bits = 0;
    size_t limb = 0;
    while (v.limbs_[limb] == 0) {
      ++limb;
      bits += 64;
    }
    return bits + static_cast<size_t>(__builtin_ctzll(v.limbs_[limb]));
  };
  const size_t xz = trailing_zeros(x);
  const size_t yz = trailing_zeros(y);
  const size_t common = std::min(xz, yz);
  x = x >> xz;
  y = y >> yz;
  // Both odd from here on; gcd(x, y) = gcd(|x - y| / 2^k, min(x, y)).
  for (;;) {
    if (CompareMagnitude(x, y) < 0) {
      std::swap(x, y);
    }
    x = SubMagnitude(x, y);
    if (x.is_zero()) {
      return y << common;
    }
    x = x >> trailing_zeros(x);
  }
}

util::Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid on (a mod m, m).
  BigInt r0 = m;
  BigInt r1 = a.Mod(m);
  BigInt t0(0);
  BigInt t1(1);
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    r0 = r1;
    r1 = r2;
    BigInt t2 = t0 - q * t1;
    t0 = t1;
    t1 = t2;
  }
  if (r0 != BigInt(1)) {
    return util::InvalidArgument("not invertible");
  }
  return t0.Mod(m);
}

int BigInt::Jacobi(const BigInt& a_in, const BigInt& n_in) {
  assert(n_in > BigInt(0) && n_in.is_odd());
  BigInt a = a_in.Mod(n_in);
  BigInt n = n_in;
  int result = 1;
  while (!a.is_zero()) {
    while (a.is_even()) {
      a = a >> 1;
      uint64_t n_mod8 = n.Low64() & 7;
      if (n_mod8 == 3 || n_mod8 == 5) {
        result = -result;
      }
    }
    std::swap(a, n);
    if ((a.Low64() & 3) == 3 && (n.Low64() & 3) == 3) {
      result = -result;
    }
    a = a.Mod(n);
  }
  if (n == BigInt(1)) {
    return result;
  }
  return 0;
}

BigInt BigInt::Random(Prng* prng, size_t bits) {
  assert(bits > 0);
  size_t bytes = (bits + 7) / 8;
  util::Bytes raw = prng->RandomBytes(bytes);
  // Clear excess top bits, then set the top bit for exact width.
  size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<uint8_t>(0xff >> excess);
  raw[0] |= static_cast<uint8_t>(1 << ((bits - 1) % 8));
  return FromBytes(raw);
}

BigInt BigInt::RandomBelow(Prng* prng, const BigInt& bound) {
  assert(bound > BigInt(0));
  size_t bits = bound.BitLength();
  for (;;) {
    size_t bytes = (bits + 7) / 8;
    util::Bytes raw = prng->RandomBytes(bytes);
    size_t excess = bytes * 8 - bits;
    raw[0] &= static_cast<uint8_t>(0xff >> excess);
    BigInt v = FromBytes(raw);
    if (v < bound) {
      return v;
    }
  }
}

namespace {

// Primes below 4096, for sieving candidate increments (built on first use).
const std::vector<uint32_t>& SievePrimes() {
  static const std::vector<uint32_t>* primes = [] {
    constexpr uint32_t kLimit = 4096;
    std::vector<bool> composite(kLimit, false);
    auto* out = new std::vector<uint32_t>();
    for (uint32_t i = 2; i < kLimit; ++i) {
      if (composite[i]) {
        continue;
      }
      out->push_back(i);
      for (uint32_t j = i * i; j < kLimit; j += i) {
        composite[j] = true;
      }
    }
    return out;
  }();
  return *primes;
}

// a^{-1} mod p for prime p and a not divisible by p (Fermat).
uint32_t InverseModPrime(uint32_t a, uint32_t p) {
  uint64_t result = 1;
  uint64_t base = a % p;
  uint32_t e = p - 2;
  while (e) {
    if (e & 1) {
      result = result * base % p;
    }
    base = base * base % p;
    e >>= 1;
  }
  return static_cast<uint32_t>(result);
}

}  // namespace

bool BigInt::IsProbablePrime(const BigInt& n, Prng* prng, int rounds) {
  if (n < BigInt(2)) {
    return false;
  }
  static const uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31,
                                          37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                                          83, 89, 97, 101, 103, 107, 109, 113};
  for (uint32_t p : kSmallPrimes) {
    if (n.limbs_.size() == 1 && n.limbs_[0] == p) {
      return true;
    }
    if (n.ModU32(p) == 0) {
      return false;
    }
  }

  // n - 1 = d * 2^s with d odd.
  BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  size_t s = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }

  // n is odd here (2 is in the trial-division list), so all the witness
  // exponentiations can share one Montgomery context.
  MontgomeryCtx ctx(n);
  const MontgomeryCtx::Residue& one = ctx.One();
  const MontgomeryCtx::Residue minus_one = ctx.ToMont(n_minus_1);
  // x = a^d already computed; finish the round: square up to s-1 times
  // looking for -1.  Returns true if a witnesses n composite.
  auto is_witness = [&](MontgomeryCtx::Residue x) {
    if (x == one || x == minus_one) {
      return false;
    }
    for (size_t i = 1; i < s; ++i) {
      x = ctx.Mul(x, x);
      if (x == minus_one) {
        return false;
      }
    }
    return true;
  };

  // First witness alone: it kills essentially every composite the sieve
  // let through, so the batch below only ever runs for actual primes.
  BigInt a = RandomBelow(prng, n - BigInt(3)) + BigInt(2);  // a in [2, n-2].
  if (is_witness(ctx.Exp(ctx.ToMont(a), d))) {
    return false;
  }
  if (rounds <= 1) {
    return true;
  }

  // Remaining witnesses share the exponent d: compile its window
  // schedule once and replay it per base (MontgomeryCtx::ExpBatch).
  std::vector<MontgomeryCtx::Residue> bases;
  bases.reserve(static_cast<size_t>(rounds - 1));
  for (int round = 1; round < rounds; ++round) {
    BigInt w = RandomBelow(prng, n - BigInt(3)) + BigInt(2);
    bases.push_back(ctx.ToMont(w));
  }
  for (MontgomeryCtx::Residue& x : ctx.ExpBatch(bases, d)) {
    if (is_witness(std::move(x))) {
      return false;
    }
  }
  return true;
}

BigInt BigInt::GeneratePrime(Prng* prng, size_t bits, uint32_t residue, uint32_t modulus) {
  assert(bits >= 16);
  const std::vector<uint32_t>& primes = SievePrimes();
  const uint32_t step = modulus != 0 ? modulus : 2;
  constexpr size_t kSpan = 1024;  // Candidates sieved per random base.
  for (;;) {
    BigInt candidate = Random(prng, bits);
    if (modulus != 0) {
      // Adjust to the requested residue class.
      uint64_t current = candidate.ModU32(modulus);
      uint64_t delta = (residue + modulus - current) % modulus;
      candidate = candidate + BigInt(delta);
    } else if (candidate.is_even()) {
      candidate = candidate + BigInt(1);
    }
    if (candidate.BitLength() != bits) {
      continue;
    }

    // Sieve the arithmetic progression candidate + k*step: one small
    // division per prime replaces a trial-division pass per candidate,
    // so Miller–Rabin only ever sees survivors.
    std::vector<bool> composite(kSpan, false);
    bool base_dead = false;
    for (uint32_t p : primes) {
      const uint32_t r = candidate.ModU32(p);
      const uint32_t sp = step % p;
      if (sp == 0) {
        // Every candidate in the progression has the same residue mod p.
        if (r == 0) {
          base_dead = true;
          break;
        }
        continue;
      }
      const auto k0 = static_cast<uint32_t>(
          (static_cast<uint64_t>(p - r) * InverseModPrime(sp, p)) % p);
      for (size_t k = k0; k < kSpan; k += p) {
        composite[k] = true;
      }
    }
    if (base_dead) {
      continue;
    }

    for (size_t k = 0; k < kSpan; ++k) {
      if (composite[k]) {
        continue;
      }
      BigInt cand = candidate + BigInt(static_cast<uint64_t>(k) * step);
      if (cand.BitLength() != bits) {
        break;  // Ran past the requested width; draw a fresh base.
      }
      if (IsProbablePrime(cand, prng)) {
        return cand;
      }
    }
  }
}

}  // namespace crypto
