// Property tests for the Montgomery kernels: the optimized paths must be
// bit-for-bit equal to the naive reference (BigInt::ModExpNaive), to
// plain BigInt product and division, and — for the fixed-width pairs — to
// the generic CIOS pass, on every input shape the callers can produce;
// and the key flows that run through cached contexts (Rabin, SRP) must
// still round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/crypto/bignum.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/prng.h"
#include "src/crypto/rabin.h"
#include "src/crypto/srp.h"

namespace {

using crypto::BigInt;
using crypto::MontgomeryCtx;
using crypto::Prng;

BigInt RandomOdd(Prng* prng, size_t bits) {
  BigInt m = BigInt::Random(prng, bits);
  return m.is_odd() ? m : m + BigInt(1);
}

TEST(MontgomeryTest, ModExpMatchesNaiveAcrossSizes) {
  Prng prng(uint64_t{1001});
  // 192/256/320 sit on each side of the 4-limb fixed kernel, 512 and
  // 1024 on the 8- and 16-limb ones, 1088 above them on the generic pass.
  for (size_t bits : {33, 64, 96, 160, 192, 256, 320, 512, 1024, 1088}) {
    BigInt m = RandomOdd(&prng, bits);
    MontgomeryCtx ctx(m);
    for (int i = 0; i < 12; ++i) {
      // The last four bases exceed m, so ToMont must reduce them first.
      BigInt base = BigInt::Random(&prng, i < 8 ? bits - 7 : bits + 13);
      BigInt exp = BigInt::Random(&prng, bits);
      EXPECT_EQ(ctx.ModExp(base, exp), BigInt::ModExpNaive(base, exp, m))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(MontgomeryTest, ModExpReducesLargeAndNegativeBases) {
  Prng prng(uint64_t{1002});
  BigInt m = RandomOdd(&prng, 256);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::Random(&prng, 512);  // base >= m: must reduce first.
    BigInt exp = BigInt::Random(&prng, 128);
    EXPECT_EQ(ctx.ModExp(base, exp), BigInt::ModExpNaive(base, exp, m));
    EXPECT_EQ(ctx.ModExp(-base, exp), BigInt::ModExpNaive((-base).Mod(m), exp, m));
  }
}

TEST(MontgomeryTest, ModExpEdgeExponents) {
  Prng prng(uint64_t{1003});
  BigInt m = RandomOdd(&prng, 200);
  MontgomeryCtx ctx(m);
  BigInt base = BigInt::Random(&prng, 150);
  EXPECT_EQ(ctx.ModExp(base, BigInt(0)), BigInt(1));  // x^0 == 1 by convention.
  EXPECT_EQ(ctx.ModExp(base, BigInt(1)), base.Mod(m));
  EXPECT_EQ(ctx.ModExp(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx.ModExp(BigInt(1), BigInt::Random(&prng, 100)), BigInt(1));

  for (size_t bits : {64, 521, 1024}) {
    BigInt wide_m = RandomOdd(&prng, bits);
    MontgomeryCtx wide_ctx(wide_m);
    BigInt wide_base = BigInt::Random(&prng, bits - 3);
    // exp in {0, 1, m-1}: the degenerate schedule, the no-squaring walk,
    // and the densest full-width exponent (Fermat shape).
    for (const BigInt& exp : {BigInt(0), BigInt(1), wide_m - BigInt(1)}) {
      EXPECT_EQ(wide_ctx.ModExp(wide_base, exp), BigInt::ModExpNaive(wide_base, exp, wide_m))
          << "bits=" << bits;
    }
  }
}

TEST(MontgomeryTest, ModulusOne) {
  MontgomeryCtx ctx(BigInt(1));
  // Everything is 0 mod 1 — except exp == 0, where both paths return 1.
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(3)), BigInt(0));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(3)), BigInt::ModExpNaive(BigInt(5), BigInt(3), BigInt(1)));
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(0)), BigInt::ModExpNaive(BigInt(5), BigInt(0), BigInt(1)));
}

TEST(MontgomeryTest, EvenModulusFallsBackToNaive) {
  Prng prng(uint64_t{1004});
  for (int i = 0; i < 6; ++i) {
    BigInt m = BigInt::Random(&prng, 160);
    if (m.is_odd()) {
      m = m + BigInt(1);
    }
    BigInt base = BigInt::Random(&prng, 200);
    BigInt exp = BigInt::Random(&prng, 80);
    EXPECT_EQ(BigInt::ModExp(base, exp, m), BigInt::ModExpNaive(base, exp, m));
  }
}

TEST(MontgomeryTest, ToMontFromMontRoundTrips) {
  Prng prng(uint64_t{1005});
  BigInt m = RandomOdd(&prng, 320);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt x = BigInt::Random(&prng, 400).Mod(m);
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(x)), x);
  }
  EXPECT_EQ(ctx.FromMont(ctx.One()), BigInt(1));
}

TEST(MontgomeryTest, MulMatchesPlainModularProduct) {
  Prng prng(uint64_t{1006});
  BigInt m = RandomOdd(&prng, 256);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(&prng, 250);
    BigInt b = BigInt::Random(&prng, 250);
    EXPECT_EQ(ctx.ModMul(a, b), (a * b).Mod(m));
    EXPECT_EQ(ctx.ModSquare(a), (a * a).Mod(m));
  }
}

// The multiply above the Karatsuba threshold must agree with division:
// (a*b)/b == a and (a*b) mod b == 0 exercise the split/recombine path
// against independent code.
TEST(MontgomeryTest, KaratsubaProductConsistentWithDivision) {
  Prng prng(uint64_t{1007});
  // 31 to 3000 bits stay schoolbook, across limb boundaries; 4500
  // crosses the Karatsuba threshold once; 9000 recurses (each half is
  // itself above the threshold).
  for (size_t bits : {31, 64, 65, 127, 256, 512, 800, 1024, 3000, 4500, 9000}) {
    BigInt a = BigInt::Random(&prng, bits);
    BigInt b = BigInt::Random(&prng, bits - 13);
    BigInt p = a * b;
    EXPECT_EQ(p / b, a) << "bits=" << bits;
    EXPECT_EQ(p % b, BigInt(0)) << "bits=" << bits;
    EXPECT_EQ(p.ModU32(999999937u),
              static_cast<uint64_t>(a.ModU32(999999937u)) * b.ModU32(999999937u) % 999999937u);
  }
  EXPECT_TRUE((BigInt(0) * BigInt(7)).is_zero());
  EXPECT_EQ(BigInt(1) * BigInt(1), BigInt(1));
}

TEST(MontgomeryTest, Rfc5054GroupUsesSharedContext) {
  const crypto::SrpParams& params = crypto::DefaultSrpParams();
  ASSERT_NE(params.ctx, nullptr);
  EXPECT_EQ(params.ctx->modulus(), params.n);
  Prng prng(uint64_t{1008});
  BigInt x = BigInt::Random(&prng, 512);
  EXPECT_EQ(params.ctx->ModExp(params.g, x), BigInt::ModExpNaive(params.g, x, params.n));
}

TEST(MontgomeryTest, RabinSignVerifyRoundTripsThroughContexts) {
  Prng prng(uint64_t{1009});
  crypto::RabinPrivateKey key = crypto::RabinPrivateKey::Generate(&prng, 512);
  for (int i = 0; i < 4; ++i) {
    util::Bytes message = prng.RandomBytes(40 + static_cast<size_t>(i) * 17);
    util::Bytes signature = key.Sign(message);
    EXPECT_TRUE(key.public_key().Verify(message, signature).ok());
    message[0] ^= 1;
    EXPECT_FALSE(key.public_key().Verify(message, signature).ok());
  }
}

// --- Compiled exponent schedules -------------------------------------

TEST(MontgomeryTest, CompiledScheduleReplayMatchesDirectExp) {
  Prng prng(uint64_t{2004});
  BigInt m = RandomOdd(&prng, 512);
  MontgomeryCtx ctx(m);
  for (const BigInt& exp : {BigInt(0), BigInt(1), BigInt(15), BigInt(16),
                            BigInt::Random(&prng, 160), BigInt::Random(&prng, 512),
                            m - BigInt(1)}) {
    crypto::ExpSchedule sched = MontgomeryCtx::CompileExp(exp);
    EXPECT_EQ(sched.zero(), exp.is_zero());
    for (int i = 0; i < 3; ++i) {
      MontgomeryCtx::Residue base = ctx.ToMont(BigInt::Random(&prng, 512));
      EXPECT_EQ(ctx.FromMont(ctx.Exp(base, sched)), ctx.FromMont(ctx.Exp(base, exp)));
    }
  }
}

TEST(MontgomeryTest, ScheduleIsContextIndependent) {
  // A schedule depends only on the exponent's bits, so one compiled walk
  // must replay correctly under a different modulus.
  Prng prng(uint64_t{2005});
  BigInt exp = BigInt::Random(&prng, 300);
  crypto::ExpSchedule sched = MontgomeryCtx::CompileExp(exp, /*secret=*/true);
  EXPECT_TRUE(sched.secret());
  for (size_t bits : {128, 512}) {
    BigInt m = RandomOdd(&prng, bits);
    MontgomeryCtx ctx(m);
    BigInt base = BigInt::Random(&prng, bits - 1);
    EXPECT_EQ(ctx.FromMont(ctx.Exp(ctx.ToMont(base), sched)), ctx.ModExp(base, exp));
  }
}

TEST(MontgomeryTest, ExpBatchMatchesPerBaseExp) {
  Prng prng(uint64_t{2006});
  BigInt m = RandomOdd(&prng, 384);
  MontgomeryCtx ctx(m);
  for (const BigInt& exp : {BigInt(0), BigInt::Random(&prng, 384)}) {
    std::vector<MontgomeryCtx::Residue> bases;
    for (int i = 0; i < 7; ++i) {
      bases.push_back(ctx.ToMont(BigInt::Random(&prng, 384)));
    }
    std::vector<MontgomeryCtx::Residue> batch = ctx.ExpBatch(bases, exp);
    ASSERT_EQ(batch.size(), bases.size());
    for (size_t i = 0; i < bases.size(); ++i) {
      EXPECT_EQ(batch[i], ctx.Exp(bases[i], exp)) << "i=" << i;
    }
  }
  EXPECT_TRUE(ctx.ExpBatch({}, BigInt(3)).empty());
}

// --- Fixed-width kernels against the generic pass ----------------------

namespace detail = crypto::montgomery_detail;

std::vector<uint64_t> Words(const BigInt& x, size_t s) {
  std::vector<uint64_t> w = x.limbs();
  w.resize(s, 0);
  return w;
}

// Both kernels called directly at each fixed width.  Beside a random
// modulus, the structured ones reach the top-word carry and the final
// subtraction that random moduli rarely hit; the operands are the ends
// of [0, m), R mod m and random residues.  Each product is also checked
// against plain BigInt arithmetic: out*R == a*b (mod m).
TEST(MontgomeryKernelTest, FixedMatchesGenericAtEachWidth) {
  Prng prng(uint64_t{3001});
  for (size_t s : {4, 8, 16}) {
    const detail::Kernel* fixed = detail::FixedKernel(s);
    ASSERT_NE(fixed, nullptr) << "s=" << s;
    const BigInt r = BigInt(1) << (64 * s);
    for (const BigInt& m : {RandomOdd(&prng, 64 * s), r - BigInt(1), r - BigInt(189),
                            (BigInt(1) << (64 * s - 1)) + BigInt(1),
                            (BigInt(1) << (64 * (s - 1))) + BigInt(3)}) {
      ASSERT_EQ(m.limbs().size(), s);
      const detail::Modulus mod{m.limbs().data(), s, detail::NegInverse(m.limbs()[0])};
      std::vector<uint64_t> t(s + 2);
      std::vector<BigInt> operands = {BigInt(0), BigInt(1), BigInt(2), m - BigInt(1),
                                      m - BigInt(2), r.Mod(m)};
      for (int i = 0; i < 3; ++i) {
        operands.push_back(BigInt::RandomBelow(&prng, m));
      }
      for (const BigInt& a : operands) {
        const std::vector<uint64_t> aw = Words(a, s);
        for (const BigInt& b : operands) {
          const std::vector<uint64_t> bw = Words(b, s);
          std::vector<uint64_t> want(s);
          std::vector<uint64_t> got(s);
          detail::kGeneric.mul(aw.data(), bw.data(), mod, want.data(), t.data());
          fixed->mul(aw.data(), bw.data(), mod, got.data(), t.data());
          EXPECT_EQ(got, want) << "s=" << s << " m=" << m.ToHex() << " a=" << a.ToHex()
                               << " b=" << b.ToHex();
          EXPECT_EQ((BigInt::FromLimbs(want) * r).Mod(m), (a * b).Mod(m));
          // out aliasing either input.
          std::vector<uint64_t> in_place = aw;
          fixed->mul(in_place.data(), bw.data(), mod, in_place.data(), t.data());
          EXPECT_EQ(in_place, want);
          in_place = bw;
          fixed->mul(aw.data(), in_place.data(), mod, in_place.data(), t.data());
          EXPECT_EQ(in_place, want);
        }
        std::vector<uint64_t> want(s);
        std::vector<uint64_t> got(s);
        detail::kGeneric.square(aw.data(), mod, want.data(), t.data());
        fixed->square(aw.data(), mod, got.data(), t.data());
        EXPECT_EQ(got, want) << "s=" << s << " m=" << m.ToHex() << " a=" << a.ToHex();
        std::vector<uint64_t> in_place = aw;
        fixed->square(in_place.data(), mod, in_place.data(), t.data());
        EXPECT_EQ(in_place, want);
      }
      // A squaring chain from m-1, in place, as Exp runs it.
      std::vector<uint64_t> chain_fixed = Words(m - BigInt(1), s);
      std::vector<uint64_t> chain_generic = chain_fixed;
      for (int step = 0; step < 50; ++step) {
        fixed->square(chain_fixed.data(), mod, chain_fixed.data(), t.data());
        detail::kGeneric.square(chain_generic.data(), mod, chain_generic.data(), t.data());
        ASSERT_EQ(chain_fixed, chain_generic) << "s=" << s << " step=" << step;
      }
    }
  }
}

// A context runs the fixed pair at exactly the widths that have one; the
// primes of 512- and 1024-bit Rabin keys and the SRP group are among
// them, and losing that choice would silently drop the speedup.
TEST(MontgomeryKernelTest, WidthSelectsKernel) {
  Prng prng(uint64_t{3002});
  for (size_t s : {4, 8, 16}) {
    MontgomeryCtx ctx(RandomOdd(&prng, 64 * s));
    ASSERT_EQ(ctx.limbs(), s);
    EXPECT_STREQ(detail::KernelName(ctx.limbs()), "fixed") << "s=" << s;
    EXPECT_EQ(&detail::KernelFor(s), detail::FixedKernel(s));
  }
  for (size_t s : {3, 5, 32}) {
    MontgomeryCtx ctx(RandomOdd(&prng, 64 * s));
    ASSERT_EQ(ctx.limbs(), s);
    EXPECT_STREQ(detail::KernelName(ctx.limbs()), "generic") << "s=" << s;
    EXPECT_EQ(detail::FixedKernel(s), nullptr);
  }
  EXPECT_EQ(crypto::DefaultSrpParams().ctx->limbs(), 16u);
}

TEST(MontgomeryTest, RabinEncryptDecryptRoundTripsThroughContexts) {
  Prng prng(uint64_t{1010});
  crypto::RabinPrivateKey key = crypto::RabinPrivateKey::Generate(&prng, 512);
  for (size_t len : {size_t{0}, size_t{1}, size_t{16}, key.public_key().MaxPlaintextBytes()}) {
    util::Bytes plaintext = prng.RandomBytes(len);
    auto ciphertext = key.public_key().Encrypt(plaintext, &prng);
    ASSERT_TRUE(ciphertext.ok());
    auto decrypted = key.Decrypt(ciphertext.value());
    ASSERT_TRUE(decrypted.ok());
    EXPECT_EQ(decrypted.value(), plaintext);
  }
}

}  // namespace
