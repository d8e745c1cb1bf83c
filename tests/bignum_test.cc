// Unit + property tests for the bignum library.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/crypto/bignum.h"
#include "src/crypto/prng.h"

namespace {

using crypto::BigInt;
using crypto::Prng;

TEST(BigIntTest, SmallConstruction) {
  EXPECT_EQ(BigInt(0).ToDecimal(), "0");
  EXPECT_EQ(BigInt(1).ToDecimal(), "1");
  EXPECT_EQ(BigInt(-1).ToDecimal(), "-1");
  EXPECT_EQ(BigInt(int64_t{-1234567890123}).ToDecimal(), "-1234567890123");
  EXPECT_EQ(BigInt(uint64_t{0xffffffffffffffffULL}).ToDecimal(), "18446744073709551615");
}

TEST(BigIntTest, DecimalRoundTrip) {
  const char* kValues[] = {"0", "1", "99999999999999999999999999999",
                           "-340282366920938463463374607431768211456"};
  for (const char* v : kValues) {
    auto parsed = BigInt::FromDecimal(v);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->ToDecimal(), v);
  }
}

TEST(BigIntTest, BytesRoundTrip) {
  Prng prng(uint64_t{3});
  for (size_t len : {1, 4, 5, 16, 31, 64, 129}) {
    util::Bytes b = prng.RandomBytes(len);
    b[0] |= 1;  // Avoid leading zero ambiguity.
    BigInt v = BigInt::FromBytes(b);
    EXPECT_EQ(v.ToBytes(), b);
    EXPECT_EQ(BigInt::FromBytes(v.ToBytesPadded(len + 7)), v);
  }
}

TEST(BigIntTest, AdditionCommutesAndAssociates) {
  Prng prng(uint64_t{4});
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Random(&prng, 200);
    BigInt b = BigInt::Random(&prng, 150);
    BigInt c = BigInt::Random(&prng, 250);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(BigIntTest, SubtractionInvertsAddition) {
  Prng prng(uint64_t{5});
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Random(&prng, 300);
    BigInt b = BigInt::Random(&prng, 200);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
    EXPECT_EQ(a - a, BigInt(0));
  }
}

TEST(BigIntTest, SignedArithmetic) {
  BigInt a(100);
  BigInt b(-30);
  EXPECT_EQ((a + b).ToDecimal(), "70");
  EXPECT_EQ((b - a).ToDecimal(), "-130");
  EXPECT_EQ((a * b).ToDecimal(), "-3000");
  EXPECT_EQ((b * b).ToDecimal(), "900");
}

TEST(BigIntTest, MultiplicationDistributes) {
  Prng prng(uint64_t{6});
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(&prng, 180);
    BigInt b = BigInt::Random(&prng, 220);
    BigInt c = BigInt::Random(&prng, 160);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST(BigIntTest, DivModIdentity) {
  // The central division property: a == q*b + r with |r| < |b|.
  Prng prng(uint64_t{7});
  for (int i = 0; i < 200; ++i) {
    size_t abits = 32 + prng.RandomUint64(480);
    size_t bbits = 32 + prng.RandomUint64(240);
    BigInt a = BigInt::Random(&prng, abits);
    BigInt b = BigInt::Random(&prng, bbits);
    BigInt q;
    BigInt r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r.Abs() < b.Abs());
  }
}

TEST(BigIntTest, DivModKnuthAddBackCase) {
  // A divisor engineered to trigger the rare "add back" correction path.
  auto a = BigInt::FromHex("7fffffff800000010000000000000000");
  auto b = BigInt::FromHex("800000008000000200000005");
  ASSERT_TRUE(a.ok() && b.ok());
  BigInt q;
  BigInt r;
  BigInt::DivMod(*a, *b, &q, &r);
  EXPECT_EQ(q * (*b) + r, *a);
  EXPECT_TRUE(r < *b);
}

TEST(BigIntTest, DivisionBySingleLimb) {
  auto a = BigInt::FromDecimal("123456789012345678901234567890");
  ASSERT_TRUE(a.ok());
  BigInt q = *a / BigInt(7);
  BigInt r = *a % BigInt(7);
  EXPECT_EQ(q * BigInt(7) + r, *a);
  EXPECT_EQ(r.ToDecimal(), "0");  // 1234...890 is divisible by 7.
}

TEST(BigIntTest, TruncatedDivisionSigns) {
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToDecimal(), "-3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToDecimal(), "-1");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToDecimal(), "-3");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToDecimal(), "1");
  EXPECT_EQ(BigInt(-7).Mod(BigInt(2)).ToDecimal(), "1");
}

TEST(BigIntTest, Shifts) {
  BigInt one(1);
  EXPECT_EQ((one << 100) >> 100, one);
  EXPECT_EQ((one << 64).ToHex(), "10000000000000000");
  Prng prng(uint64_t{8});
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(&prng, 100);
    size_t s = prng.RandomUint64(90);
    EXPECT_EQ((a << s) >> s, a);
    EXPECT_EQ(a << s, a * BigInt::ModExp(BigInt(2), BigInt(static_cast<uint64_t>(s)),
                                         BigInt(1) << 200));
  }
}

TEST(BigIntTest, BitLengthAndBit) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  BigInt v = BigInt(1) << 77;
  EXPECT_EQ(v.BitLength(), 78u);
  EXPECT_TRUE(v.Bit(77));
  EXPECT_FALSE(v.Bit(76));
  EXPECT_FALSE(v.Bit(200));
}

TEST(BigIntTest, ModExpMatchesNaive) {
  Prng prng(uint64_t{9});
  for (int i = 0; i < 20; ++i) {
    BigInt base = BigInt::Random(&prng, 40);
    uint64_t exp = prng.RandomUint64(20);
    BigInt m = BigInt::Random(&prng, 50);
    BigInt naive(1);
    for (uint64_t k = 0; k < exp; ++k) {
      naive = (naive * base).Mod(m);
    }
    EXPECT_EQ(BigInt::ModExp(base, BigInt(exp), m), naive);
  }
}

TEST(BigIntTest, FermatLittleTheorem) {
  // For prime p and gcd(a,p)=1: a^(p-1) ≡ 1 (mod p).
  auto p = BigInt::FromDecimal("2305843009213693951");  // Mersenne prime 2^61-1.
  ASSERT_TRUE(p.ok());
  Prng prng(uint64_t{10});
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(&prng, *p - BigInt(2)) + BigInt(1);
    EXPECT_EQ(BigInt::ModExp(a, *p - BigInt(1), *p), BigInt(1));
  }
}

TEST(BigIntTest, GcdAndModInverse) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(31)), BigInt(1));
  Prng prng(uint64_t{11});
  BigInt m = BigInt::GeneratePrime(&prng, 64);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(&prng, m - BigInt(1)) + BigInt(1);
    auto inv = BigInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ((a * inv.value()).Mod(m), BigInt(1));
  }
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());
}

TEST(BigIntTest, JacobiSymbol) {
  // Known small values: (a/7) for a = 1..6 is 1,1,-1,1,-1,-1.
  int expected[] = {1, 1, -1, 1, -1, -1};
  for (int a = 1; a <= 6; ++a) {
    EXPECT_EQ(BigInt::Jacobi(BigInt(a), BigInt(7)), expected[a - 1]) << a;
  }
  // (a/p) matches Euler's criterion for an odd prime.
  Prng prng(uint64_t{12});
  BigInt p = BigInt::GeneratePrime(&prng, 48);
  BigInt exp = (p - BigInt(1)) >> 1;
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBelow(&prng, p - BigInt(1)) + BigInt(1);
    BigInt euler = BigInt::ModExp(a, exp, p);
    int expected_j = euler == BigInt(1) ? 1 : -1;
    EXPECT_EQ(BigInt::Jacobi(a, p), expected_j);
  }
}

TEST(BigIntTest, MillerRabinKnownValues) {
  Prng prng(uint64_t{13});
  EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(2), &prng));
  EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(3), &prng));
  EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(1), &prng));
  EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(561), &prng));   // Carmichael.
  EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(8911), &prng));  // Carmichael.
  auto mersenne = BigInt::FromDecimal("2305843009213693951");
  ASSERT_TRUE(mersenne.ok());
  EXPECT_TRUE(BigInt::IsProbablePrime(*mersenne, &prng));
  auto composite = BigInt::FromDecimal("2305843009213693953");
  ASSERT_TRUE(composite.ok());
  EXPECT_FALSE(BigInt::IsProbablePrime(*composite, &prng));
}

TEST(BigIntTest, GeneratePrimeRespectsResidue) {
  Prng prng(uint64_t{14});
  BigInt p = BigInt::GeneratePrime(&prng, 128, 3, 8);
  EXPECT_EQ(p.BitLength(), 128u);
  EXPECT_EQ((p % BigInt(8)).Low64(), 3u);
  EXPECT_TRUE(BigInt::IsProbablePrime(p, &prng));

  BigInt q = BigInt::GeneratePrime(&prng, 129, 7, 8);
  EXPECT_EQ(q.BitLength(), 129u);
  EXPECT_EQ((q % BigInt(8)).Low64(), 7u);
}

TEST(BigIntTest, RandomHasExactBitLength) {
  Prng prng(uint64_t{15});
  for (size_t bits : {17, 64, 65, 333}) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(BigInt::Random(&prng, bits).BitLength(), bits);
    }
  }
}

TEST(BigIntTest, RandomBelowIsBelow) {
  Prng prng(uint64_t{16});
  BigInt bound = BigInt::Random(&prng, 100);
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::RandomBelow(&prng, bound);
    EXPECT_TRUE(v < bound);
    EXPECT_FALSE(v.is_negative());
  }
}

TEST(BigIntTest, LimbBoundaryPatterns) {
  // Arithmetic across 32-bit limb boundaries: carries, borrows, and the
  // all-ones patterns that break naive implementations.
  auto ones64 = BigInt(uint64_t{0xffffffffffffffffULL});
  EXPECT_EQ((ones64 + BigInt(1)).ToHex(), "10000000000000000");
  EXPECT_EQ(((ones64 + BigInt(1)) - BigInt(1)), ones64);

  auto ones32 = BigInt(uint64_t{0xffffffffULL});
  EXPECT_EQ((ones32 * ones32).ToHex(), "fffffffe00000001");

  // (2^256 - 1)^2 = 2^512 - 2^257 + 1.
  BigInt big = (BigInt(1) << 256) - BigInt(1);
  BigInt sq = big * big;
  EXPECT_EQ(sq, (BigInt(1) << 512) - (BigInt(1) << 257) + BigInt(1));

  // Division by all-ones divisors.
  BigInt q;
  BigInt r;
  BigInt::DivMod(sq, big, &q, &r);
  EXPECT_EQ(q, big);
  EXPECT_EQ(r, BigInt(0));
}

TEST(BigIntTest, ShiftsByLimbMultiples) {
  Prng prng(uint64_t{17});
  BigInt v = BigInt::Random(&prng, 100);
  for (size_t s : {32, 64, 96, 128}) {
    EXPECT_EQ((v << s) >> s, v) << s;
    EXPECT_EQ((v << s).BitLength(), v.BitLength() + s);
  }
  EXPECT_EQ(v >> 200, BigInt(0));
}

TEST(BigIntTest, ToBytesPaddedTruncatesHighBytes) {
  auto v = BigInt::FromHex("0102030405");
  ASSERT_TRUE(v.ok());
  // Exact and padded lengths.
  EXPECT_EQ(util::HexEncode(v->ToBytesPadded(5)), "0102030405");
  EXPECT_EQ(util::HexEncode(v->ToBytesPadded(7)), "00000102030405");
  // Shorter than the value: keeps the low-order bytes (caller beware,
  // used only with known-size values).
  EXPECT_EQ(util::HexEncode(v->ToBytesPadded(3)), "030405");
}

TEST(BigIntTest, ModExpEdgeCases) {
  BigInt m(97);
  EXPECT_EQ(BigInt::ModExp(BigInt(5), BigInt(0), m), BigInt(1));  // x^0 = 1.
  EXPECT_EQ(BigInt::ModExp(BigInt(0), BigInt(5), m), BigInt(0));  // 0^x = 0.
  EXPECT_EQ(BigInt::ModExp(BigInt(1), BigInt(1) << 200, m), BigInt(1));
  EXPECT_EQ(BigInt::ModExp(BigInt(96), BigInt(2), m), BigInt(1));  // (-1)^2.
}

TEST(BigIntTest, DecimalParseRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromDecimal("").ok());
  EXPECT_FALSE(BigInt::FromDecimal("-").ok());
  EXPECT_FALSE(BigInt::FromDecimal("12a4").ok());
  EXPECT_FALSE(BigInt::FromHex("xyz").ok());
  EXPECT_TRUE(BigInt::FromHex("abc").ok());  // Odd-length hex is padded.
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  BigInt a(5);
  BigInt z = a - a;
  EXPECT_FALSE(z.is_negative());
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ((-z).ToDecimal(), "0");
}

TEST(BigIntTest, HexRoundTrip) {
  auto v = BigInt::FromHex("deadbeef0123456789abcdef");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToHex(), "deadbeef0123456789abcdef");
  EXPECT_EQ(BigInt(0).ToHex(), "0");
}

// --- 64-bit limb kernel -------------------------------------------------
//
// The wide decimal chunks and ModU64, pinned against independently
// computed answers.

TEST(BigIntTest, ModU64MatchesDivMod) {
  crypto::Prng prng(uint64_t{8802});
  for (uint64_t d : {uint64_t{1}, uint64_t{2}, uint64_t{10},
                     uint64_t{0xffffffffULL}, uint64_t{0x100000000ULL},
                     uint64_t{0xfffffffffffffffbULL}}) {
    for (size_t bits : {16, 64, 65, 512}) {
      BigInt x = BigInt::Random(&prng, bits);
      BigInt expected = x % BigInt(d);
      EXPECT_EQ(BigInt(x.ModU64(d)), expected) << "d=" << d << " bits=" << bits;
      EXPECT_EQ(x.ModU32(999999937u), x.ModU64(999999937u));
    }
  }
}

TEST(BigIntTest, DecimalChunksCrossLimbBoundaries) {
  // Decimal conversion now works in base 10^18 chunks; exercise values
  // straddling chunk and limb boundaries in both directions.
  for (const char* dec : {"999999999999999999", "1000000000000000000",
                          "1000000000000000001", "18446744073709551615",
                          "18446744073709551616",
                          "340282366920938463463374607431768211456"}) {
    auto v = BigInt::FromDecimal(dec);
    ASSERT_TRUE(v.ok()) << dec;
    EXPECT_EQ(v->ToDecimal(), dec);
  }
  crypto::Prng prng(uint64_t{8803});
  for (int i = 0; i < 8; ++i) {
    BigInt x = BigInt::Random(&prng, 700);
    auto back = BigInt::FromDecimal(x.ToDecimal());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, x);
  }
}

}  // namespace
