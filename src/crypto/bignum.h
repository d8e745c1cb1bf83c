// Arbitrary-precision integers for SFS's public-key cryptography.
//
// Everything the paper's crypto needs is here: multiplication/division for
// Rabin–Williams, modular exponentiation for SRP, Jacobi symbols and
// Miller–Rabin with congruence constraints for Rabin key generation, and
// enough precision to compute Blowfish's pi-digit tables from scratch.
//
// Representation: sign + magnitude, little-endian vector of 64-bit limbs,
// normalized (no high zero limbs; zero has an empty limb vector and
// positive sign).  Limb products use `unsigned __int128`, so a 1024-bit
// operand is 16 limbs instead of the 32 it was at 32-bit width — the
// schoolbook/Montgomery inner loops do a quarter of the word multiplies
// (see docs/CRYPTO_PERF.md).
#ifndef SFS_SRC_CRYPTO_BIGNUM_H_
#define SFS_SRC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace crypto {

class BigInt {
 public:
  BigInt() : negative_(false) {}
  BigInt(int64_t v);          // NOLINT(runtime/explicit)
  BigInt(uint64_t v);         // NOLINT(runtime/explicit)
  BigInt(int v) : BigInt(static_cast<int64_t>(v)) {}  // NOLINT(runtime/explicit)

  // Big-endian unsigned byte-string conversions (the XDR wire format for
  // public keys and protocol values).
  static BigInt FromBytes(const util::Bytes& bytes);
  util::Bytes ToBytes() const;                 // Minimal length; empty for 0.
  util::Bytes ToBytesPadded(size_t len) const; // Left-padded with zeros.

  static util::Result<BigInt> FromDecimal(const std::string& s);
  static util::Result<BigInt> FromHex(const std::string& s);
  std::string ToDecimal() const;
  std::string ToHex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  // Number of significant bits (0 for zero).
  size_t BitLength() const;
  // Bit i (0 = least significant).
  bool Bit(size_t i) const;

  // Value of the low 64 bits of the magnitude (sign ignored).
  uint64_t Low64() const;

  // Remainder of the magnitude modulo a small divisor (sign ignored);
  // d > 0.  One pass over the limbs — much cheaper than `% BigInt(d)`.
  // Native on the 64-bit limbs: each step folds a full limb with one
  // 128-by-64 division, no 32-bit round-trip.
  uint32_t ModU32(uint32_t d) const;
  uint64_t ModU64(uint64_t d) const;

  // Read-only view of the little-endian 64-bit limb vector (normalized:
  // no high zero limbs; empty for zero).  The Montgomery kernel operates
  // directly on this representation.
  const std::vector<uint64_t>& limbs() const { return limbs_; }
  // Non-negative value from a little-endian limb vector (normalizes).
  static BigInt FromLimbs(std::vector<uint64_t> limbs);

  // Comparison of signed values: -1, 0, +1.
  int Compare(const BigInt& other) const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;

  // Truncated division (C semantics): quotient rounds toward zero;
  // remainder has the dividend's sign.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient, BigInt* remainder);

  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  // Non-negative remainder in [0, m); m > 0.
  BigInt Mod(const BigInt& m) const;

  // (base^exp) mod m;  exp >= 0, m > 0.  Odd moduli are routed through
  // the Montgomery kernel (src/crypto/montgomery.h); even moduli fall
  // back to ModExpNaive.
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);

  // Textbook square-and-multiply with a division per step.  Reference
  // implementation: the fallback for even moduli and the oracle the
  // Montgomery property tests compare against.
  static BigInt ModExpNaive(const BigInt& base, const BigInt& exp, const BigInt& m);

  // Greatest common divisor of |a| and |b|.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  // Multiplicative inverse of a mod m, if gcd(a, m) == 1.
  static util::Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

  // Jacobi symbol (a/n); n positive odd.  Returns -1, 0, or 1.
  static int Jacobi(const BigInt& a, const BigInt& n);

  // Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt Random(Prng* prng, size_t bits);
  // Uniform in [0, bound).
  static BigInt RandomBelow(Prng* prng, const BigInt& bound);

  // Miller–Rabin probabilistic primality test.  One witness runs first
  // as a cheap filter (it kills nearly every sieved composite); the
  // remaining witnesses — which only survivors ever reach — share one
  // compiled window schedule of the common exponent d through
  // MontgomeryCtx::ExpBatch.
  static bool IsProbablePrime(const BigInt& n, Prng* prng, int rounds = 20);

  // Random prime with exactly `bits` bits satisfying p % modulus == residue.
  // modulus == 0 means unconstrained.
  static BigInt GeneratePrime(Prng* prng, size_t bits, uint32_t residue = 0,
                              uint32_t modulus = 0);

 private:
  void Normalize();
  static int CompareMagnitude(const BigInt& a, const BigInt& b);
  static BigInt AddMagnitude(const BigInt& a, const BigInt& b);
  // Requires |a| >= |b|.
  static BigInt SubMagnitude(const BigInt& a, const BigInt& b);

  std::vector<uint64_t> limbs_;  // Little-endian.
  bool negative_;
};

}  // namespace crypto

#endif  // SFS_SRC_CRYPTO_BIGNUM_H_
