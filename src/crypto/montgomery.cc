#include "src/crypto/montgomery.h"

#include <algorithm>
#include <cassert>

namespace crypto {
namespace {
using u128 = unsigned __int128;
}  // namespace

ExpSchedule::~ExpSchedule() {
  if (secret_) {
    // The schedule is a transcript of the exponent's bits; scrub it like
    // any other key material (obs::AuditLog batch keys do the same).
    std::fill(ops_.begin(), ops_.end(), Op{0, 0});
    ops_.clear();
  }
}

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : m_(modulus) {
  assert(m_.is_odd() && !m_.is_negative());
  n_ = m_.limbs();
  n0inv_ = montgomery_detail::NegInverse(n_[0]);
  const size_t s = n_.size();
  BigInt r1 = (BigInt(1) << (64 * s)).Mod(m_);
  BigInt r2 = (BigInt(1) << (128 * s)).Mod(m_);
  r1_ = r1.limbs();
  r1_.resize(s, 0);
  r2_ = r2.limbs();
  r2_.resize(s, 0);
  kernel_ = &montgomery_detail::KernelFor(s);
}

void MontgomeryCtx::MulInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                            uint64_t* t) const {
  kernel_->mul(a, b, {n_.data(), n_.size(), n0inv_}, out, t);
}

void MontgomeryCtx::SquareInto(const uint64_t* a, uint64_t* out, uint64_t* t) const {
  kernel_->square(a, {n_.data(), n_.size(), n0inv_}, out, t);
}

namespace montgomery_detail {

uint64_t NegInverse(uint64_t x) {
  // Newton–Hensel lifting: inv = x is correct mod 8 (x * x ≡ 1 mod 8 for
  // odd x), and each iteration doubles the number of correct bits:
  // 3 → 6 → 12 → 24 → 48 → 96 >= 64.
  assert(x & 1);
  uint64_t inv = x;
  for (int i = 0; i < 5; ++i) {
    inv *= 2u - x * inv;
  }
  return 0u - inv;
}

namespace {

// The runtime-sized CIOS pass.
void Cios(const uint64_t* a, const uint64_t* b, const Modulus& m, uint64_t* out,
          uint64_t* t) {
  const size_t s = m.s;
  const uint64_t* n = m.n;
  std::fill(t, t + s + 2, uint64_t{0});
  for (size_t i = 0; i < s; ++i) {
    // t += a * b[i].  Each 128-bit accumulation fits exactly:
    // t[j] + a[j]*b[i] + carry <= (2^64-1) + (2^64-1)^2 + (2^64-1) = 2^128-1.
    const uint64_t bi = b[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < s; ++j) {
      u128 cur = t[j] + static_cast<u128>(a[j]) * bi + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[s]) + carry;
    t[s] = static_cast<uint64_t>(cur);
    t[s + 1] = static_cast<uint64_t>(cur >> 64);

    // t += (t[0] * n') * m, making t[0] zero, then drop one word: the
    // interleaved reduce that keeps t below 2m throughout.
    const uint64_t mi = t[0] * m.n0inv;
    cur = t[0] + static_cast<u128>(mi) * n[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < s; ++j) {
      cur = t[j] + static_cast<u128>(mi) * n[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[s]) + carry;
    t[s - 1] = static_cast<uint64_t>(cur);
    t[s] = t[s + 1] + static_cast<uint64_t>(cur >> 64);
  }

  // Final conditional subtraction: t is in [0, 2m).
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (size_t j = s; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t j = 0; j < s; ++j) {
      u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
      out[j] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
  } else {
    std::copy(t, t + s, out);
  }
}

void CiosSquare(const uint64_t* a, const Modulus& m, uint64_t* out, uint64_t* t) {
  Cios(a, a, m, out, t);
}

// --- Fixed-width product scanning ---------------------------------------
//
// The double-width sum a*b + q*m is built column by column: column k
// collects every a[j]*b[k-j] and q[j]*m[k-j] in a three-word accumulator,
// so each partial product costs one 128-bit add and one carry and
// nothing is stored until the column is done.  Columns below S pick the
// reduction word q[k] = low * n', which zeroes the column's low word;
// columns S..2S-1 emit the result words.  With S a compile-time constant
// every loop has a constant trip count, and the unroll pragmas (GCC's
// spelling, which clang also accepts) turn the pass into straight-line
// code with the accumulator in registers.

struct Acc {
  u128 lo = 0;      // The low two words.
  uint64_t hi = 0;  // The third word: carries out of `lo`.

  void Add(u128 p) {
    lo += p;
    hi += lo < p ? 1 : 0;
  }
  void Add(const Acc& other) {
    Add(other.lo);
    hi += other.hi;
  }
  void Mac(uint64_t x, uint64_t y) { Add(static_cast<u128>(x) * y); }
  void Double() {
    hi = (hi << 1) | static_cast<uint64_t>(lo >> 127);
    lo <<= 1;
  }
  uint64_t Low() const { return static_cast<uint64_t>(lo); }
  // Moves to the next column.
  void Shift() {
    lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
    hi = 0;
  }
};

// The column scan around a product: `product(acc, k)` adds column k of
// the a*b product; this adds column k of q*m, chooses q[k] (k < S) or
// emits result word k-S (k >= S), and ends with one conditional
// subtraction of m.  The sum is below 2m*R, so the result before that
// subtraction is below 2m: S words plus a top bit.
template <size_t S, typename Product>
inline void ScanColumns(Product product, const Modulus& m, uint64_t* out) {
  const uint64_t* n = m.n;
  Acc acc;
  uint64_t q[S];
  uint64_t r[S];
#pragma GCC unroll 64
  for (size_t k = 0; k < 2 * S; ++k) {
    product(&acc, k);
#pragma GCC unroll 64
    for (size_t j = k < S ? 0 : k - S + 1; j < (k < S ? k : S); ++j) {
      acc.Mac(q[j], n[k - j]);
    }
    if (k < S) {
      q[k] = acc.Low() * m.n0inv;
      acc.Mac(q[k], n[0]);
    } else {
      r[k - S] = acc.Low();
    }
    acc.Shift();
  }

  // r - m, kept when the value is >= m: when it has a top bit or the
  // subtraction does not borrow.  A mask selects, not a branch.
  uint64_t d[S];
  uint64_t borrow = 0;
#pragma GCC unroll 64
  for (size_t j = 0; j < S; ++j) {
    const u128 diff = static_cast<u128>(r[j]) - n[j] - borrow;
    d[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  const uint64_t take_diff = 0 - (acc.Low() | (borrow ^ 1));
#pragma GCC unroll 64
  for (size_t j = 0; j < S; ++j) {
    out[j] = (d[j] & take_diff) | (r[j] & ~take_diff);
  }
}

template <size_t S>
void FixedMul(const uint64_t* a, const uint64_t* b, const Modulus& m, uint64_t* out,
              uint64_t* /*t*/) {
  ScanColumns<S>(
      [a, b](Acc* acc, size_t k) {
#pragma GCC unroll 64
        for (size_t j = k < S ? 0 : k - S + 1; j <= (k < S ? k : S - 1); ++j) {
          acc->Mac(a[j], b[k - j]);
        }
      },
      m, out);
}

// Column k of a square is twice the sum of the cross products a[j]*a[k-j]
// (j < k-j), each computed once, plus the diagonal a[k/2]^2: a third
// fewer word multiplies than FixedMul.  The cross products are summed
// apart from the column and doubled once, off the reduction's chain.
template <size_t S>
void FixedSquare(const uint64_t* a, const Modulus& m, uint64_t* out, uint64_t* /*t*/) {
  ScanColumns<S>(
      [a](Acc* acc, size_t k) {
        Acc cross;
#pragma GCC unroll 64
        for (size_t j = k < S ? 0 : k - S + 1; 2 * j < k; ++j) {
          cross.Mac(a[j], a[k - j]);
        }
        cross.Double();
        acc->Add(cross);
        if (k % 2 == 0 && k / 2 < S) {
          acc->Mac(a[k / 2], a[k / 2]);
        }
      },
      m, out);
}

template <size_t S>
constexpr Kernel kFixed = {"fixed", &FixedMul<S>, &FixedSquare<S>};

}  // namespace

const Kernel kGeneric = {"generic", &Cios, &CiosSquare};

const Kernel* FixedKernel(size_t limbs) {
  switch (limbs) {
    case 4:
      return &kFixed<4>;
    case 8:
      return &kFixed<8>;
    case 16:
      return &kFixed<16>;
    default:
      return nullptr;
  }
}

const Kernel& KernelFor(size_t limbs) {
  const Kernel* fixed = FixedKernel(limbs);
  return fixed != nullptr ? *fixed : kGeneric;
}

const char* KernelName(size_t limbs) { return KernelFor(limbs).name; }

}  // namespace montgomery_detail

MontgomeryCtx::Residue MontgomeryCtx::ToMont(const BigInt& x) const {
  const size_t s = n_.size();
  Residue a = x.Mod(m_).limbs();
  a.resize(s, 0);
  Residue out(s);
  std::vector<uint64_t> t(s + 2);
  MulInto(a.data(), r2_.data(), out.data(), t.data());
  return out;
}

BigInt MontgomeryCtx::FromMont(const Residue& a) const {
  const size_t s = n_.size();
  assert(a.size() == s);
  Residue one(s, 0);
  one[0] = 1;
  Residue out(s);
  std::vector<uint64_t> t(s + 2);
  MulInto(a.data(), one.data(), out.data(), t.data());
  return BigInt::FromLimbs(std::move(out));
}

MontgomeryCtx::Residue MontgomeryCtx::Mul(const Residue& a, const Residue& b) const {
  const size_t s = n_.size();
  assert(a.size() == s && b.size() == s);
  Residue out(s);
  std::vector<uint64_t> t(s + 2);
  MulInto(a.data(), b.data(), out.data(), t.data());
  return out;
}

ExpSchedule MontgomeryCtx::CompileExp(const BigInt& exp, bool secret) {
  assert(!exp.is_negative());
  ExpSchedule sched;
  sched.secret_ = secret;
  const size_t bits = exp.BitLength();
  if (bits == 0) {
    return sched;
  }
  sched.zero_ = false;
  sched.ops_.reserve(bits / 4 + 2);

  // The same left-to-right walk Exp always did — 4-bit windows anchored
  // on set bits, zeros as bare squarings — recorded instead of executed.
  uint32_t pending = 0;  // Squarings owed before the next multiply.
  size_t i = bits;
  while (i > 0) {
    if (!exp.Bit(i - 1)) {
      ++pending;
      --i;
      continue;
    }
    size_t low = i >= 4 ? i - 4 : 0;  // Window spans bits [low, i).
    while (!exp.Bit(low)) {
      ++low;
    }
    uint32_t w = 0;
    for (size_t j = i; j-- > low;) {
      w = (w << 1) | (exp.Bit(j) ? 1u : 0u);
      ++pending;
    }
    sched.ops_.push_back({pending, static_cast<int32_t>(w >> 1)});
    pending = 0;
    i = low;
  }
  if (pending != 0) {
    sched.ops_.push_back({pending, -1});
  }
  return sched;
}

MontgomeryCtx::Residue MontgomeryCtx::Exp(const Residue& base,
                                          const ExpSchedule& schedule) const {
  const size_t s = n_.size();
  assert(base.size() == s);
  Residue result = r1_;
  if (schedule.zero()) {
    return result;
  }

  // Odd-power table: table[k] = base^(2k+1) in Montgomery form.
  std::vector<uint64_t> t(s + 2);
  Residue sq(s);
  SquareInto(base.data(), sq.data(), t.data());
  Residue table[8];
  table[0] = base;
  for (int k = 1; k < 8; ++k) {
    table[k].resize(s);
    MulInto(table[k - 1].data(), sq.data(), table[k].data(), t.data());
  }

  for (const ExpSchedule::Op& op : schedule.ops()) {
    for (uint32_t q = 0; q < op.squarings; ++q) {
      SquareInto(result.data(), result.data(), t.data());
    }
    if (op.table_index >= 0) {
      MulInto(result.data(), table[op.table_index].data(), result.data(), t.data());
    }
  }
  return result;
}

MontgomeryCtx::Residue MontgomeryCtx::Exp(const Residue& base, const BigInt& exp) const {
  return Exp(base, CompileExp(exp));
}

std::vector<MontgomeryCtx::Residue> MontgomeryCtx::ExpBatch(
    const std::vector<Residue>& bases, const BigInt& exp) const {
  const ExpSchedule schedule = CompileExp(exp);
  std::vector<Residue> out;
  out.reserve(bases.size());
  for (const Residue& base : bases) {
    out.push_back(Exp(base, schedule));
  }
  return out;
}

BigInt MontgomeryCtx::ModExp(const BigInt& base, const BigInt& exp) const {
  if (exp.is_zero()) {
    return BigInt(1);  // x^0 = 1 by convention, matching ModExpNaive.
  }
  return FromMont(Exp(ToMont(base), exp));
}

BigInt MontgomeryCtx::ModMul(const BigInt& a, const BigInt& b) const {
  return FromMont(Mul(ToMont(a), ToMont(b)));
}

BigInt MontgomeryCtx::ModSquare(const BigInt& a) const {
  // Asymmetric trick: MulInto(x, y) = x*y*R^{-1}, so multiplying the plain
  // value by its own Montgomery form gives a * (a*R) * R^{-1} = a^2 mod m
  // in two passes instead of ToMont/Mul/FromMont's three.
  const size_t s = n_.size();
  Residue plain = a.Mod(m_).limbs();
  plain.resize(s, 0);
  Residue am = ToMont(a);
  Residue out(s);
  std::vector<uint64_t> t(s + 2);
  MulInto(plain.data(), am.data(), out.data(), t.data());
  return BigInt::FromLimbs(std::move(out));
}

}  // namespace crypto
