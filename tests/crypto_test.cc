// Unit tests for the crypto substrate: SHA-1, HMAC, ARC4, PRNG, base32.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/crypto/arc4.h"
#include "src/crypto/prng.h"
#include "src/crypto/sha1.h"
#include "src/util/bytes.h"

namespace {

using crypto::Arc4;
using crypto::HmacSha1;
using crypto::Prng;
using crypto::Sha1;
using crypto::Sha1Digest;
using util::Bytes;
using util::BytesOf;
using util::HexEncode;

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha1Digest(std::string(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(HexEncode(Sha1Digest(std::string("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha1Digest(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Digest()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  // Almost five blocks, so the splits exercise both whole blocks read
  // straight from the input and the buffered partial block.  Bytes above
  // 0x7f catch sign extension in the word loads.  The digest was computed
  // independently (Python hashlib).
  Bytes msg(300);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const Bytes digest = Sha1Digest(msg);
  EXPECT_EQ(HexEncode(digest), "0d42342d302223ad22cb3506b14f0d3032bce103");
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Digest(), digest) << "split at " << split;
  }
  for (size_t a = 0; a <= msg.size(); ++a) {
    for (size_t b = a; b <= msg.size(); b += 7) {
      Sha1 h;
      h.Update(msg.data(), a);
      h.Update(msg.data() + a, b - a);
      h.Update(msg.data() + b, msg.size() - b);
      EXPECT_EQ(h.Digest(), digest) << "pieces split at " << a << " and " << b;
    }
  }
}

TEST(Sha1Test, PaddingBoundaries) {
  // Lengths straddling the 55/56/64-byte padding edge all hash distinctly
  // and deterministically.
  std::vector<Bytes> digests;
  for (size_t len : {54, 55, 56, 57, 63, 64, 65, 119, 120, 128}) {
    Bytes digest = Sha1Digest(std::string(len, 'x'));
    for (const Bytes& prev : digests) {
      EXPECT_NE(digest, prev);
    }
    EXPECT_EQ(digest, Sha1Digest(std::string(len, 'x')));
    digests.push_back(digest);
  }
}

// --- The block-compression kernels --------------------------------------------

TEST(Sha1KernelTest, ShaNiMatchesPortable) {
  const crypto::sha1_detail::CompressFn sha_ni = crypto::sha1_detail::ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU: "
                    "only the portable kernel is tested";
  }
  // Random states and random blocks (bytes above 0x7f included), read one
  // byte past an aligned start so every 16-byte load is unaligned.  The
  // states are chained across calls and compared after every call.
  Prng prng(uint64_t{17});
  for (int trial = 0; trial < 64; ++trial) {
    uint32_t portable[5];
    for (uint32_t& word : portable) {
      word = static_cast<uint32_t>(prng.RandomUint64(uint64_t{1} << 32));
    }
    uint32_t fast[5];
    std::memcpy(fast, portable, sizeof(fast));
    for (int call = 0; call < 4; ++call) {
      const size_t blocks = 1 + prng.RandomUint64(17);
      const Bytes data = prng.RandomBytes(1 + blocks * crypto::kSha1BlockSize);
      crypto::sha1_detail::CompressPortable(portable, data.data() + 1, blocks);
      sha_ni(fast, data.data() + 1, blocks);
      for (int k = 0; k < 5; ++k) {
        ASSERT_EQ(fast[k], portable[k])
            << "trial " << trial << ", call " << call << " (" << blocks << " blocks), word " << k;
      }
    }
  }
}

TEST(Sha1KernelTest, DispatchFollowsTheCpu) {
  // The kernel name is checked against the kernel's own view of the CPU
  // flags, read independently of its CPUID path, so a kernel that is
  // compiled out or never chosen fails here instead of going unnoticed.
#if !defined(__linux__)
  GTEST_SKIP() << "reads the CPU flags from /proc/cpuinfo";
#else
  std::ifstream cpuinfo("/proc/cpuinfo");
  ASSERT_TRUE(cpuinfo.is_open());
  bool sha_ni = false;
  bool sse41 = false;
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) {
      continue;  // Only x86 kernels print a "flags" line.
    }
    std::istringstream words(line);
    for (std::string word; words >> word;) {
      sha_ni = sha_ni || word == "sha_ni";
      sse41 = sse41 || word == "sse4_1";
    }
    break;
  }
  const bool expect_sha_ni = sha_ni && sse41;
  EXPECT_EQ(std::string(crypto::sha1_detail::KernelName()),
            expect_sha_ni ? "sha-ni" : "portable");
  EXPECT_EQ(crypto::sha1_detail::ShaNiKernel() != nullptr, expect_sha_ni);
#endif
}

TEST(HmacSha1Test, Rfc2202Vector1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha1(key, BytesOf("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1Test, Rfc2202Vector2) {
  EXPECT_EQ(HexEncode(HmacSha1(BytesOf("Jefe"), BytesOf("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1Test, LongKeyIsHashed) {
  // Keys longer than the block size must be pre-hashed (RFC 2202 case 6).
  Bytes key(80, 0xaa);
  EXPECT_EQ(HexEncode(HmacSha1(key, BytesOf("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1Test, KeySensitivity) {
  Bytes key1(20, 1);
  Bytes key2(20, 2);
  Bytes msg = BytesOf("message");
  EXPECT_NE(HmacSha1(key1, msg), HmacSha1(key2, msg));
}

TEST(Arc4Test, ClassicKnownVectors) {
  // Keys under 128 bits take a single key-schedule pass, i.e. standard
  // RC4, so the classic published vectors must hold.
  struct Vector {
    const char* key;
    const char* plaintext;
    const char* ciphertext_hex;
  };
  const Vector kVectors[] = {
      {"Key", "Plaintext", "bbf316e8d940af0ad3"},
      {"Wiki", "pedia", "1021bf0420"},
      {"Secret", "Attack at dawn", "45a01f645fc35b383552544b9bf5"},
  };
  for (const Vector& v : kVectors) {
    Arc4 cipher(BytesOf(v.key));
    Bytes data = BytesOf(v.plaintext);
    cipher.Crypt(&data);
    EXPECT_EQ(util::HexEncode(data), v.ciphertext_hex) << v.key;
  }
}

TEST(Arc4Test, KeystreamIsDeterministic) {
  Arc4 a(BytesOf("0123456789abcdefghij"));
  Arc4 b(BytesOf("0123456789abcdefghij"));
  EXPECT_EQ(a.NextBytes(256), b.NextBytes(256));
}

TEST(Arc4Test, EncryptDecryptRoundTrip) {
  Bytes key = BytesOf("abcdefghijklmnopqrst");
  Bytes plaintext = BytesOf("attack at dawn; bring the self-certifying pathnames");
  Bytes data = plaintext;
  Arc4 enc(key);
  enc.Crypt(&data);
  EXPECT_NE(data, plaintext);
  Arc4 dec(key);
  dec.Crypt(&data);
  EXPECT_EQ(data, plaintext);
}

TEST(Arc4Test, DifferentKeysDifferentStreams) {
  Arc4 a(BytesOf("abcdefghijklmnopqrst"));
  Arc4 b(BytesOf("abcdefghijklmnopqrsu"));
  EXPECT_NE(a.NextBytes(64), b.NextBytes(64));
}

TEST(Arc4Test, TwentyByteKeySpinsTwice) {
  // A 20-byte key must not produce the same stream as standard single-pass
  // RC4 of a 16-byte truncation or extension; sanity check: prefix change
  // anywhere in the 20 bytes changes the stream.
  Bytes base = BytesOf("aaaaaaaaaaaaaaaaaaaa");
  Arc4 ref(base);
  Bytes ref_stream = ref.NextBytes(64);
  for (size_t i = 0; i < base.size(); ++i) {
    Bytes k = base;
    k[i] ^= 0x80;
    Arc4 variant(k);
    EXPECT_NE(variant.NextBytes(64), ref_stream) << "byte " << i << " ignored by schedule";
  }
}

// Textbook byte-at-a-time RC4 with the paper's key schedule (one spin
// per 128 bits of key, j carried from spin to spin): the oracle for
// Arc4's batched keystream loop.
class ReferenceRc4 {
 public:
  explicit ReferenceRc4(const Bytes& key) {
    for (int k = 0; k < 256; ++k) {
      s_[k] = static_cast<uint8_t>(k);
    }
    uint8_t j = 0;
    for (size_t spin = 0; spin < (key.size() * 8 + 127) / 128; ++spin) {
      for (int k = 0; k < 256; ++k) {
        j = static_cast<uint8_t>(j + s_[k] + key[k % key.size()]);
        std::swap(s_[k], s_[j]);
      }
    }
  }

  uint8_t Next() {
    i_ = static_cast<uint8_t>(i_ + 1);
    j_ = static_cast<uint8_t>(j_ + s_[i_]);
    std::swap(s_[i_], s_[j_]);
    return s_[static_cast<uint8_t>(s_[i_] + s_[j_])];
  }

 private:
  uint8_t s_[256];
  uint8_t i_ = 0;
  uint8_t j_ = 0;
};

TEST(Arc4Test, MatchesTextbookRc4AcrossPieceLengths) {
  // Crypt, NextBytes and NextByte take turns on one stream.  Piece
  // lengths 0-17 hit every tail around the 8-byte batch, from shifting
  // stream positions; every fourth piece is long (up to 10 KB).  Crypt
  // also runs at unaligned addresses.
  Prng prng(uint64_t{21});
  for (size_t key_len = 1; key_len <= 32; ++key_len) {
    Bytes key = prng.RandomBytes(key_len);
    Arc4 cipher(key);
    ReferenceRc4 ref(key);
    for (int piece = 0; piece < 40; ++piece) {
      size_t len = piece % 4 == 3 ? prng.RandomUint64(10 * 1024 + 1) : prng.RandomUint64(18);
      Bytes keystream(len);
      for (uint8_t& b : keystream) {
        b = ref.Next();
      }
      if (piece % 3 == 0) {
        size_t offset = prng.RandomUint64(8);
        Bytes data = prng.RandomBytes(offset + len);
        Bytes want = data;
        for (size_t k = 0; k < len; ++k) {
          want[offset + k] ^= keystream[k];
        }
        cipher.Crypt(data.data() + offset, len);
        ASSERT_EQ(data, want) << "key length " << key_len << ", piece " << piece;
      } else if (piece % 3 == 1) {
        ASSERT_EQ(cipher.NextBytes(len), keystream)
            << "key length " << key_len << ", piece " << piece;
      } else {
        for (size_t k = 0; k < len; ++k) {
          ASSERT_EQ(cipher.NextByte(), keystream[k])
              << "key length " << key_len << ", piece " << piece << ", byte " << k;
        }
      }
    }
  }
}

TEST(PrngTest, DeterministicFromSeed) {
  Prng a(uint64_t{42});
  Prng b(uint64_t{42});
  EXPECT_EQ(a.RandomBytes(100), b.RandomBytes(100));
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(uint64_t{42});
  Prng b(uint64_t{43});
  EXPECT_NE(a.RandomBytes(100), b.RandomBytes(100));
}

TEST(PrngTest, RandomUint64RespectsBound) {
  Prng prng(uint64_t{7});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(prng.RandomUint64(17), 17u);
  }
}

TEST(PrngTest, RandomUint64CoversRange) {
  Prng prng(uint64_t{7});
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[prng.RandomUint64(8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 300) << "suspiciously non-uniform";
  }
}

TEST(PrngTest, AddEntropyChangesStream) {
  Prng a(uint64_t{1});
  Prng b(uint64_t{1});
  b.AddEntropy(BytesOf("keystroke timings"));
  EXPECT_NE(a.RandomBytes(64), b.RandomBytes(64));
}

TEST(Base32Test, RoundTrip) {
  Prng prng(uint64_t{5});
  for (size_t len : {0, 1, 2, 5, 19, 20, 21, 64}) {
    Bytes data = prng.RandomBytes(len);
    std::string encoded = util::Base32Encode(data);
    auto decoded = util::Base32Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), data) << "len " << len;
  }
}

TEST(Base32Test, HostIdLengthIs32Chars) {
  Bytes host_id(20, 0xff);
  EXPECT_EQ(util::Base32Encode(host_id).size(), 32u);
}

TEST(Base32Test, AlphabetOmitsConfusableCharacters) {
  // Paper §2.2: the encoding omits "l", "1", "0", and "o".
  Prng prng(uint64_t{11});
  std::string all;
  for (int i = 0; i < 100; ++i) {
    all += util::Base32Encode(prng.RandomBytes(20));
  }
  EXPECT_EQ(all.find('l'), std::string::npos);
  EXPECT_EQ(all.find('1'), std::string::npos);
  EXPECT_EQ(all.find('0'), std::string::npos);
  EXPECT_EQ(all.find('o'), std::string::npos);
}

TEST(Base32Test, RejectsInvalidCharacters) {
  EXPECT_FALSE(util::Base32Decode("abc0").ok());
  EXPECT_FALSE(util::Base32Decode("ab l").ok());
}

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  auto decoded = util::HexDecode(util::HexEncode(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(HexTest, RejectsOddLengthAndBadChars) {
  EXPECT_FALSE(util::HexDecode("abc").ok());
  EXPECT_FALSE(util::HexDecode("zz").ok());
}

TEST(ConstantTimeEqualsTest, Basics) {
  EXPECT_TRUE(util::ConstantTimeEquals({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(util::ConstantTimeEquals({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(util::ConstantTimeEquals({1, 2, 3}, {1, 2}));
}

}  // namespace
