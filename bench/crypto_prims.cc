// Ablation B: real (host) speed of the cryptographic primitives.
//
// Supports the §4.2 analysis — software encryption costs CPU per byte
// (ARC4 + the re-keyed SHA-1 MAC), public-key operations cost
// milliseconds, and eksblowfish's cost parameter scales password-guessing
// work exponentially.  These run in *real time* on the host, unlike the
// figure benchmarks, which charge the era-calibrated simulated rates.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/obs_report.h"

#include "src/crypto/arc4.h"
#include "src/crypto/blowfish.h"
#include "src/crypto/fixedbase.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/prng.h"
#include "src/crypto/rabin.h"
#include "src/crypto/sha1.h"
#include "src/crypto/srp.h"
#include "src/sfs/session.h"

namespace {

void BM_Sha1(benchmark::State& state) {
  crypto::Prng prng(uint64_t{1});
  util::Bytes data = prng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Sha1Compress(benchmark::State& state, crypto::sha1_detail::CompressFn compress) {
  // One block-compression kernel called directly on range(0) blocks,
  // without Sha1's buffering and padding.
  crypto::Prng prng(uint64_t{1});
  const size_t blocks = static_cast<size_t>(state.range(0));
  util::Bytes data = prng.RandomBytes(blocks * crypto::kSha1BlockSize);
  uint32_t digest[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  for (auto _ : state) {
    compress(digest, data.data(), blocks);
    benchmark::DoNotOptimize(digest);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          static_cast<int64_t>(crypto::kSha1BlockSize));
}

void BM_Arc4Stream(benchmark::State& state) {
  crypto::Prng prng(uint64_t{2});
  crypto::Arc4 cipher(prng.RandomBytes(20));
  util::Bytes data = prng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    cipher.Crypt(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_ChannelSealOpen(benchmark::State& state) {
  // The full per-message channel cost: ARC4 + rekeyed HMAC-SHA-1, both
  // directions (what "SFS w/o encryption" saves).
  crypto::Prng prng(uint64_t{3});
  util::Bytes key = prng.RandomBytes(20);
  sfs::ChannelCipher seal(key);
  sfs::ChannelCipher open(key);
  util::Bytes payload = prng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto opened = open.Open(seal.Seal(payload));
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_ModExp(benchmark::State& state) {
  // The public-key inner loop: one full-width modular exponentiation with
  // an odd modulus (what every SRP exchange and Rabin square root pays).
  crypto::Prng prng(uint64_t{10});
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::BigInt m = crypto::BigInt::Random(&prng, bits);
  if (m.is_even()) {
    m = m + crypto::BigInt(1);
  }
  crypto::BigInt base = crypto::BigInt::Random(&prng, bits - 1);
  crypto::BigInt exp = crypto::BigInt::Random(&prng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::ModExp(base, exp, m));
  }
}

void BM_MontSquare(benchmark::State& state, bool fixed) {
  // One Montgomery squaring of a residue in place, the step Exp repeats,
  // through a kernel called directly: the fixed-width pair and the
  // generic CIOS pass side by side at each width that has a fixed pair,
  // so the generic kernel stays measured where it no longer runs.
  namespace detail = crypto::montgomery_detail;
  const size_t limbs = static_cast<size_t>(state.range(0));
  const detail::Kernel& kernel = fixed ? *detail::FixedKernel(limbs) : detail::kGeneric;
  crypto::Prng prng(uint64_t{12});
  crypto::BigInt m = crypto::BigInt::Random(&prng, 64 * limbs);
  if (m.is_even()) {
    m = m + crypto::BigInt(1);
  }
  const detail::Modulus mod{m.limbs().data(), limbs, detail::NegInverse(m.limbs()[0])};
  std::vector<uint64_t> x = crypto::BigInt::RandomBelow(&prng, m).limbs();
  x.resize(limbs, 0);
  std::vector<uint64_t> t(limbs + 2);
  for (auto _ : state) {
    kernel.square(x.data(), mod, x.data(), t.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}

void BM_FixedBaseExp(benchmark::State& state) {
  // Fixed-base exponentiation through the precomputed comb table, the
  // path every SRP g^x and v^u takes (table build cost excluded: it is
  // paid once per group or per account record).
  crypto::Prng prng(uint64_t{10});
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::BigInt m = crypto::BigInt::Random(&prng, bits);
  if (m.is_even()) {
    m = m + crypto::BigInt(1);
  }
  crypto::BigInt base = crypto::BigInt::Random(&prng, bits - 1);
  auto ctx = std::make_shared<const crypto::MontgomeryCtx>(m);
  crypto::FixedBaseCtx fb(ctx, base, bits);
  crypto::BigInt exp = crypto::BigInt::Random(&prng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fb.Exp(exp));
  }
}

void BM_GeneratePrime(benchmark::State& state) {
  // Key-generation cost: a random prime in the Williams residue class
  // (half of a Rabin modulus of twice this size).
  crypto::Prng prng(uint64_t{11});
  size_t bits = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::GeneratePrime(&prng, bits, 3, 8));
  }
}

void BM_RabinSign(benchmark::State& state) {
  crypto::Prng prng(uint64_t{4});
  auto key = crypto::RabinPrivateKey::Generate(&prng, static_cast<size_t>(state.range(0)));
  util::Bytes msg = prng.RandomBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Sign(msg));
  }
}

void BM_RabinVerify(benchmark::State& state) {
  crypto::Prng prng(uint64_t{5});
  auto key = crypto::RabinPrivateKey::Generate(&prng, static_cast<size_t>(state.range(0)));
  util::Bytes msg = prng.RandomBytes(64);
  util::Bytes sig = key.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.public_key().Verify(msg, sig));
  }
}

void BM_RabinEncrypt(benchmark::State& state) {
  crypto::Prng prng(uint64_t{6});
  auto key = crypto::RabinPrivateKey::Generate(&prng, static_cast<size_t>(state.range(0)));
  util::Bytes msg = prng.RandomBytes(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.public_key().Encrypt(msg, &prng));
  }
}

void BM_RabinDecrypt(benchmark::State& state) {
  crypto::Prng prng(uint64_t{7});
  auto key = crypto::RabinPrivateKey::Generate(&prng, static_cast<size_t>(state.range(0)));
  util::Bytes msg = prng.RandomBytes(20);
  auto ct = key.public_key().Encrypt(msg, &prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Decrypt(ct.value()));
  }
}

void BM_ReferenceUnit(benchmark::State& state) {
  // A fixed integer kernel that belongs to this benchmark, not to the
  // program: perfbench's reference-core recipe (an 8x8-limb
  // multiply-accumulate, SHA-1-style rotate/xor/add rounds, one pass
  // over 64 KiB).  bench_crypto_smoke divides every row by this one
  // (bench_compare.py --reference), so a slow spell on a shared machine
  // slows the reference and the rows alike and cancels out.
  util::Bytes src(64 * 1024, 0x5a);
  util::Bytes dst(64 * 1024);
  for (auto _ : state) {
    uint64_t a[8];
    uint64_t b[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
      b[i] = ~a[i];
    }
    for (int round = 0; round < 32; ++round) {
      unsigned __int128 acc = 0;
      for (int k = 0; k < 200; ++k) {
        for (int i = 0; i < 8; ++i) {
          for (int j = 0; j < 8; ++j) {
            acc += static_cast<unsigned __int128>(a[i]) * b[j];
          }
        }
        a[k & 7] ^= static_cast<uint64_t>(acc);
        b[(k + 3) & 7] += static_cast<uint64_t>(acc >> 64);
        benchmark::DoNotOptimize(a);
        benchmark::DoNotOptimize(b);
        benchmark::ClobberMemory();
      }
      uint32_t h0 = 0x67452301;
      uint32_t h1 = 0xefcdab89;
      uint32_t h2 = 0x98badcfe;
      for (uint32_t k = 0; k < 4000; ++k) {
        const uint32_t t = ((h0 << 5) | (h0 >> 27)) + (h1 ^ h2) + 0x5a827999U + k;
        h2 = (h1 << 30) | (h1 >> 2);
        h1 = h0;
        h0 = t;
      }
      benchmark::DoNotOptimize(h0 ^ h1 ^ h2);
      std::memcpy(dst.data(), src.data(), src.size());
      src[static_cast<size_t>(round)] = dst[dst.size() - 1 - static_cast<size_t>(round)];
      benchmark::DoNotOptimize(dst.data());
      benchmark::ClobberMemory();
    }
  }
}

void BM_EksBlowfishCost(benchmark::State& state) {
  // The adjustable work factor: each +1 in cost doubles the time, the
  // property that keeps password guessing expensive "even as hardware
  // improves" (§2.5.2).
  util::Bytes salt(16, 0x42);
  util::Bytes pw = util::BytesOf("hunter2");
  unsigned cost = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::EksBlowfishHash(cost, salt, pw));
  }
}

void BM_SrpExchange(benchmark::State& state) {
  // One full SRP mutual authentication (sfskey's per-login cost).
  crypto::Prng prng(uint64_t{8});
  const auto& params = crypto::DefaultSrpParams();
  auto verifier = crypto::MakeSrpVerifier(params, "pw", 2, &prng);
  for (auto _ : state) {
    crypto::SrpClient client(params, &prng);
    crypto::SrpServer server(params, verifier, &prng);
    auto b = server.ProcessClientHello(client.A());
    auto st = client.ProcessServerReply("pw", server.Salt(), server.Cost(), b.value());
    benchmark::DoNotOptimize(server.VerifyClientProof(client.ClientProof()));
    benchmark::DoNotOptimize(st);
  }
}

void BM_KeyNegotiation(benchmark::State& state) {
  // The Figure 3 handshake, both sides (per-mount cost).
  crypto::Prng prng(uint64_t{9});
  auto server_key = crypto::RabinPrivateKey::Generate(&prng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto neg = sfs::ClientNegotiation::Start(server_key.public_key(), &prng,
                                             static_cast<size_t>(state.range(0)));
    auto resp = sfs::ServerNegotiation::Respond(server_key,
                                                neg->ephemeral_key.public_key().Serialize(),
                                                neg->enc_kc1, neg->enc_kc2, &prng);
    benchmark::DoNotOptimize(neg->Finish(server_key.public_key(), resp->enc_ks1,
                                         resp->enc_ks2));
  }
}

// Rows whose speed depends on the SHA-1 kernel carry the name of the one
// that ran ("BM_Sha1/sha-ni/8192"), so a baseline recorded on one kernel
// is never compared with a run on the other: bench_compare.py reports a
// row found in only one file without failing.
std::string KernelRow(const char* name) {
  return std::string(name) + "/" + crypto::sha1_detail::KernelName();
}

[[maybe_unused]] auto* const kSha1Rows =
    benchmark::RegisterBenchmark(KernelRow("BM_Sha1").c_str(), BM_Sha1)
        ->Arg(64)
        ->Arg(8192)
        ->Arg(1 << 20);
// Every kernel the CPU supports on 8 KiB, so the portable kernel stays
// measured where SHA-NI is the one Sha1 runs.
[[maybe_unused]] auto* const kPortableCompressRows =
    benchmark::RegisterBenchmark("BM_Sha1Compress/portable", BM_Sha1Compress,
                                 &crypto::sha1_detail::CompressPortable)
        ->Arg(128);
[[maybe_unused]] auto* const kShaNiCompressRows =
    crypto::sha1_detail::ShaNiKernel() == nullptr
        ? nullptr
        : benchmark::RegisterBenchmark("BM_Sha1Compress/sha-ni", BM_Sha1Compress,
                                       crypto::sha1_detail::ShaNiKernel())
              ->Arg(128);
BENCHMARK(BM_Arc4Stream)->Arg(8192)->Arg(1 << 20);
[[maybe_unused]] auto* const kGenericSquareRows =
    benchmark::RegisterBenchmark("BM_MontSquare/generic", BM_MontSquare, false)
        ->Arg(4)
        ->Arg(8)
        ->Arg(16);
[[maybe_unused]] auto* const kFixedSquareRows =
    benchmark::RegisterBenchmark("BM_MontSquare/fixed", BM_MontSquare, true)
        ->Arg(4)
        ->Arg(8)
        ->Arg(16);
[[maybe_unused]] auto* const kSealOpenRows =
    benchmark::RegisterBenchmark(KernelRow("BM_ChannelSealOpen").c_str(), BM_ChannelSealOpen)
        ->Arg(128)
        ->Arg(8192);

}  // namespace

BENCHMARK(BM_ModExp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixedBaseExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneratePrime)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RabinSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RabinVerify)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RabinEncrypt)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RabinDecrypt)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EksBlowfishCost)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SrpExchange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KeyNegotiation)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReferenceUnit)->Unit(benchmark::kMicrosecond);

SFS_BENCH_JSON_MAIN("crypto_prims")
