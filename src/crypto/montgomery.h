// Montgomery-form modular arithmetic: the kernel under every modular
// exponentiation in SFS's public-key hot path (SRP-6a exchanges, Rabin
// square roots, Miller–Rabin witnesses).
//
// For an odd modulus m of s 64-bit limbs, values are kept as residues
// x*R mod m with R = 2^(64s).  The Montgomery product of two residues
// interleaves word-level multiply and reduce: 2s^2 + s single-word
// multiplies and *no* division, replacing the schoolbook multiply + full
// Knuth algorithm-D division the textbook path pays per step.  Each word
// multiply is an `unsigned __int128` product, which the hardware
// provides directly.  n' = -m^{-1} mod 2^64 comes from Newton–Hensel
// lifting (inv = x is correct mod 8; five squared-precision iterations
// reach >= 64 bits).
//
// Each context picks its kernel pair once, from the modulus width.  At
// 4, 8 and 16 limbs — the primes of 512- and 1024-bit Rabin keys and the
// 1024-bit SRP group — a fully unrolled product-scanning multiply and a
// dedicated square (each cross product computed once, then doubled) keep
// the three-word column accumulator in registers.  Every other width
// runs the runtime-sized CIOS (coarsely integrated operand scanning)
// pass, which is also the oracle the fixed pairs are tested against.
// Both produce the exact product in [0, m), so the choice moves host
// time only.
//
// Exponentiation uses a fixed 4-bit sliding window over a table of the
// eight odd powers base^1, base^3, ..., base^15, cutting the number of
// non-squaring multiplies from ~bits/2 to ~bits/5.  The window walk over
// a given exponent is deterministic, so it can be compiled once into an
// ExpSchedule and replayed for many bases: Miller–Rabin witnesses (one
// shared exponent d, twenty bases) batch through ExpBatch, and
// RabinPrivateKey caches the schedules of its fixed square-root
// exponents (p+1)/4 and (q+1)/4 across decrypt/sign calls.  A schedule
// is a function of the exponent's bits, so schedules of private
// exponents are wiped on destruction (`secret`), matching the audit-log
// key-hygiene convention.
//
// Even moduli cannot be represented (R must be invertible mod m);
// BigInt::ModExp falls back to the naive path for them.
#ifndef SFS_SRC_CRYPTO_MONTGOMERY_H_
#define SFS_SRC_CRYPTO_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "src/crypto/bignum.h"

namespace crypto {

namespace montgomery_detail {
struct Kernel;
}  // namespace montgomery_detail

// The precompiled window walk of one exponent: a replay list of
// "square k times, then (optionally) multiply by odd power base^(2t+1)"
// steps.  Compile with MontgomeryCtx::CompileExp; replay with
// MontgomeryCtx::Exp against any base (and any context — the schedule
// depends only on the exponent).  Move-only: a secret schedule wipes its
// ops on destruction, and accidental copies would defeat that.
class ExpSchedule {
 public:
  struct Op {
    uint32_t squarings;   // Squarings to apply before the multiply.
    int32_t table_index;  // Odd-power index t (base^(2t+1)), or -1: none.
  };

  ExpSchedule() = default;
  ~ExpSchedule();
  ExpSchedule(ExpSchedule&&) = default;
  ExpSchedule& operator=(ExpSchedule&&) = default;
  ExpSchedule(const ExpSchedule&) = delete;
  ExpSchedule& operator=(const ExpSchedule&) = delete;

  // True for the zero exponent (replay yields One()).
  bool zero() const { return zero_; }
  const std::vector<Op>& ops() const { return ops_; }
  bool secret() const { return secret_; }

 private:
  friend class MontgomeryCtx;
  std::vector<Op> ops_;
  bool zero_ = true;
  bool secret_ = false;
};

class MontgomeryCtx {
 public:
  // A residue in Montgomery form: exactly limbs() little-endian words,
  // value < modulus.  Opaque to callers; convert with ToMont/FromMont.
  using Residue = std::vector<uint64_t>;

  // Requires modulus odd and >= 1.  Precomputes n' = -m^{-1} mod 2^64
  // and R^2 mod m; build once per modulus and reuse (RabinPrivateKey
  // caches one per prime, SrpParams shares one for the group N).
  explicit MontgomeryCtx(const BigInt& modulus);

  const BigInt& modulus() const { return m_; }
  size_t limbs() const { return n_.size(); }

  // x*R mod m (x is reduced mod m first; negative x handled).
  Residue ToMont(const BigInt& x) const;
  // a*R^{-1} mod m: back to a plain integer.
  BigInt FromMont(const Residue& a) const;
  // The residue of 1 (R mod m).
  const Residue& One() const { return r1_; }

  // Montgomery product a*b*R^{-1} mod m of two residues.
  Residue Mul(const Residue& a, const Residue& b) const;

  // base^exp in Montgomery form; base a residue, exp plain and >= 0.
  // exp == 0 yields One() (even when modulus == 1, where One() is 0).
  Residue Exp(const Residue& base, const BigInt& exp) const;

  // The window walk of `exp`, precompiled for replay against many bases
  // or many calls.  `secret` wipes the ops on destruction (the schedule
  // reveals the exponent's bits).
  static ExpSchedule CompileExp(const BigInt& exp, bool secret = false);
  // Replay a compiled schedule: identical result to Exp(base, exp).
  Residue Exp(const Residue& base, const ExpSchedule& schedule) const;
  // base^exp for every base, compiling the shared exponent's schedule
  // once (Miller–Rabin witness batching).
  std::vector<Residue> ExpBatch(const std::vector<Residue>& bases,
                                const BigInt& exp) const;

  // Convenience wrappers for callers with plain-integer operands.
  // ModExp matches BigInt::ModExpNaive bit-for-bit, including the
  // convention that exp == 0 returns 1 regardless of the modulus.
  BigInt ModExp(const BigInt& base, const BigInt& exp) const;
  BigInt ModMul(const BigInt& a, const BigInt& b) const;
  BigInt ModSquare(const BigInt& a) const;

 private:
  // out = a*b*R^{-1} mod m and out = a*a*R^{-1} mod m through this
  // context's kernel pair.  `a`, `b`, `out` are limbs()-word arrays;
  // `t` is scratch of limbs()+2 words.  `out` may alias `a` or `b`.
  void MulInto(const uint64_t* a, const uint64_t* b, uint64_t* out, uint64_t* t) const;
  void SquareInto(const uint64_t* a, uint64_t* out, uint64_t* t) const;

  BigInt m_;                    // The modulus.
  std::vector<uint64_t> n_;     // Its limbs (size s, top limb nonzero).
  uint64_t n0inv_ = 0;          // -m^{-1} mod 2^64.
  Residue r1_;                  // R mod m.
  Residue r2_;                  // R^2 mod m (the ToMont multiplier).
  const montgomery_detail::Kernel* kernel_ = nullptr;  // Chosen by width.
};

// The kernels behind MontgomeryCtx, exposed for the differential test and
// bench/crypto_prims; everything else multiplies through a context.
namespace montgomery_detail {

// -x^{-1} mod 2^64 for odd x: the n0inv of a modulus whose low limb is x.
uint64_t NegInverse(uint64_t x);

// An odd modulus m as the kernels take it.
struct Modulus {
  const uint64_t* n;  // m's limbs, little-endian, top limb nonzero.
  size_t s;           // Their count.
  uint64_t n0inv;     // NegInverse(n[0]).
};

// out = a*b*R^{-1} mod m for residues a, b < m of m.s limbs.  `t` is
// scratch of m.s+2 words.  The result is exact, in [0, m), and `out` may
// alias `a` or `b`.
using MulFn = void (*)(const uint64_t* a, const uint64_t* b, const Modulus& m,
                       uint64_t* out, uint64_t* t);
// out = a*a*R^{-1} mod m, under MulFn's contract.
using SquareFn = void (*)(const uint64_t* a, const Modulus& m, uint64_t* out, uint64_t* t);

// A product kernel and its squaring kernel.
struct Kernel {
  const char* name;  // "generic" or "fixed".
  MulFn mul;
  SquareFn square;
};

// The runtime-sized CIOS pass (its square is the product with itself):
// the kernel of every width without a fixed pair, and the oracle the
// fixed pairs are tested against.
extern const Kernel kGeneric;

// The fully unrolled product-scanning pair for moduli of `limbs` limbs
// (4, 8 or 16), or null for any other width.  Its kernels ignore `t`.
const Kernel* FixedKernel(size_t limbs);

// The pair a context of `limbs` limbs runs: FixedKernel(limbs) where
// there is one, else kGeneric.
const Kernel& KernelFor(size_t limbs);

// KernelFor(limbs).name.
const char* KernelName(size_t limbs);

}  // namespace montgomery_detail
}  // namespace crypto

#endif  // SFS_SRC_CRYPTO_MONTGOMERY_H_
