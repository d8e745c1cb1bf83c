// Ablation B: real (host) speed of the cryptographic primitives.
//
// Supports the §4.2 analysis — software encryption costs CPU per byte
// (ARC4 + the re-keyed SHA-1 MAC), public-key operations cost
// milliseconds, and eksblowfish's cost parameter scales password-guessing
// work exponentially.  These run in *real time* on the host, unlike the
// figure benchmarks, which charge the era-calibrated simulated rates.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/obs_report.h"

#include "src/crypto/arc4.h"
#include "src/crypto/blowfish.h"
#include "src/crypto/fixedbase.h"
#include "src/crypto/kernel32.h"
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

void BM_ModExp32(benchmark::State& state) {
  // The retained 32-bit reference kernel (crypto::ref32) on the same
  // inputs as BM_ModExp: the 64-vs-32-limb comparison row.  Not on any
  // production path — this is the differential-test oracle, kept
  // benchmarked so the speedup claim in docs/CRYPTO_PERF.md stays
  // measured rather than remembered.
  crypto::Prng prng(uint64_t{10});
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::BigInt m = crypto::BigInt::Random(&prng, bits);
  if (m.is_even()) {
    m = m + crypto::BigInt(1);
  }
  crypto::BigInt base = crypto::BigInt::Random(&prng, bits - 1);
  crypto::BigInt exp = crypto::BigInt::Random(&prng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ref32::ModExp32(base, exp, m));
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
[[maybe_unused]] auto* const kSealOpenRows =
    benchmark::RegisterBenchmark(KernelRow("BM_ChannelSealOpen").c_str(), BM_ChannelSealOpen)
        ->Arg(128)
        ->Arg(8192);

}  // namespace

BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModExp32)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FixedBaseExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneratePrime)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RabinSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RabinVerify)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RabinEncrypt)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RabinDecrypt)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EksBlowfishCost)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SrpExchange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KeyNegotiation)->Arg(512)->Unit(benchmark::kMillisecond);

SFS_BENCH_JSON_MAIN("crypto_prims")
