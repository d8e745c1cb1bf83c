#include "src/crypto/rabin.h"

#include <cassert>

#include "src/crypto/sha1.h"

namespace crypto {
namespace {

constexpr size_t kHashLen = kSha1DigestSize;  // 20

// OAEP overhead: one zero byte + seed + lHash + 0x01 separator.
constexpr size_t kOaepOverhead = 2 * kHashLen + 2;

const util::Bytes& EmptyLabelHash() {
  static const util::Bytes kHash = Sha1Digest(util::Bytes{});
  return kHash;
}

void XorInto(util::Bytes* dst, const util::Bytes& mask) {
  assert(dst->size() == mask.size());
  for (size_t i = 0; i < dst->size(); ++i) {
    (*dst)[i] ^= mask[i];
  }
}

// Full-domain hash of a message into [0, n): MGF1 expansion of the SHA-1
// digest, reduced mod n.
BigInt FullDomainHash(const util::Bytes& message, const BigInt& n) {
  util::Bytes digest = Sha1Digest(message);
  size_t k = (n.BitLength() + 7) / 8;
  util::Bytes expanded = Mgf1Sha1(digest, k + 8);  // +8 for negligible mod bias.
  return BigInt::FromBytes(expanded).Mod(n);
}

}  // namespace

util::Bytes Mgf1Sha1(const util::Bytes& seed, size_t len) {
  util::Bytes out;
  out.reserve(len + kHashLen);
  uint32_t counter = 0;
  while (out.size() < len) {
    Sha1 h;
    h.Update(seed);
    uint8_t c[4] = {static_cast<uint8_t>(counter >> 24), static_cast<uint8_t>(counter >> 16),
                    static_cast<uint8_t>(counter >> 8), static_cast<uint8_t>(counter)};
    h.Update(c, 4);
    util::Bytes block = h.Digest();
    util::Append(&out, block);
    ++counter;
  }
  out.resize(len);
  return out;
}

util::Result<RabinPublicKey> RabinPublicKey::Deserialize(const util::Bytes& bytes) {
  if (bytes.empty()) {
    return util::InvalidArgument("empty public key");
  }
  BigInt n = BigInt::FromBytes(bytes);
  if (n.BitLength() < 256) {
    return util::InvalidArgument("public key modulus too small");
  }
  return RabinPublicKey(std::move(n));
}

size_t RabinPublicKey::MaxPlaintextBytes() const {
  size_t k = ModulusBytes();
  return k > kOaepOverhead ? k - kOaepOverhead : 0;
}

util::Status RabinPublicKey::Verify(const util::Bytes& message,
                                    const util::Bytes& signature) const {
  size_t k = ModulusBytes();
  if (signature.size() != k + 2) {
    return util::SecurityError("bad signature length");
  }
  uint8_t e_byte = signature[0];
  uint8_t f_byte = signature[1];
  if (e_byte > 1 || (f_byte != 1 && f_byte != 2)) {
    return util::SecurityError("bad signature tweak");
  }
  BigInt s = BigInt::FromBytes(util::Bytes(signature.begin() + 2, signature.end()));
  if (s >= n_) {
    return util::SecurityError("signature value out of range");
  }
  BigInt h = FullDomainHash(message, n_);
  BigInt expected = (h * BigInt(static_cast<uint64_t>(f_byte))).Mod(n_);
  if (e_byte == 1) {
    expected = (n_ - expected).Mod(n_);
  }
  // Plain square-and-divide: at full-modulus width one product plus one
  // division beats two Montgomery reduce passes, so Verify stays on the
  // schoolbook path (results are identical either way).
  BigInt u = (s * s).Mod(n_);
  if (u != expected) {
    return util::SecurityError("signature verification failed");
  }
  return util::OkStatus();
}

util::Result<util::Bytes> RabinPublicKey::Encrypt(const util::Bytes& plaintext,
                                                  Prng* prng) const {
  size_t k = ModulusBytes();
  if (plaintext.size() > MaxPlaintextBytes()) {
    return util::InvalidArgument("plaintext too long for modulus");
  }
  // RSAES-OAEP-style encoding: EM = 0x00 || maskedSeed || maskedDB.
  size_t db_len = k - kHashLen - 1;
  util::Bytes db = EmptyLabelHash();
  db.resize(db_len - plaintext.size() - 1, 0);  // lHash || PS (zeros)
  db.push_back(0x01);
  util::Append(&db, plaintext);
  assert(db.size() == db_len);

  util::Bytes seed = prng->RandomBytes(kHashLen);
  XorInto(&db, Mgf1Sha1(seed, db_len));
  XorInto(&seed, Mgf1Sha1(db, kHashLen));

  util::Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  util::Append(&em, seed);
  util::Append(&em, db);

  BigInt m = BigInt::FromBytes(em);
  BigInt c = (m * m).Mod(n_);  // Same full-width tradeoff as Verify.
  return c.ToBytesPadded(k);
}

RabinPrivateKey::RabinPrivateKey(BigInt p, BigInt q) : p_(std::move(p)), q_(std::move(q)) {
  auto inv = BigInt::ModInverse(q_, p_);
  assert(inv.ok());
  q_inv_p_ = inv.value();
  public_key_ = RabinPublicKey(p_ * q_);
  ctx_p_ = std::make_shared<const MontgomeryCtx>(p_);
  ctx_q_ = std::make_shared<const MontgomeryCtx>(q_);
  sqrt_exp_p_ = (p_ + BigInt(1)) >> 2;
  sqrt_exp_q_ = (q_ + BigInt(1)) >> 2;
  q_inv_p_mont_ = ctx_p_->ToMont(q_inv_p_);
  sqrt_sched_p_ = std::make_shared<const ExpSchedule>(
      MontgomeryCtx::CompileExp(sqrt_exp_p_, /*secret=*/true));
  sqrt_sched_q_ = std::make_shared<const ExpSchedule>(
      MontgomeryCtx::CompileExp(sqrt_exp_q_, /*secret=*/true));
}

RabinPrivateKey RabinPrivateKey::Generate(Prng* prng, size_t modulus_bits) {
  assert(modulus_bits >= 256);
  size_t half = modulus_bits / 2;
  // p ≡ 3 (mod 8), q ≡ 7 (mod 8): the Williams residue classes that make
  // the {±1, ±2} tweak set work.
  BigInt p = BigInt::GeneratePrime(prng, half, /*residue=*/3, /*modulus=*/8);
  BigInt q = BigInt::GeneratePrime(prng, modulus_bits - half, /*residue=*/7, /*modulus=*/8);
  return RabinPrivateKey(std::move(p), std::move(q));
}

BigInt RabinPrivateKey::CrtCombine(const BigInt& xp, const BigInt& xq) const {
  // x ≡ xp (mod p), x ≡ xq (mod q): x = xq + q * ((xp - xq) * q^{-1} mod p),
  // with the inner product done in Montgomery form against the cached
  // residue of q^{-1}.
  BigInt diff = (xp - xq).Mod(p_);
  BigInt h = ctx_p_->FromMont(ctx_p_->Mul(ctx_p_->ToMont(diff), q_inv_p_mont_));
  return (xq + q_ * h).Mod(public_key_.n());
}

BigInt RabinPrivateKey::SqrtModN(const BigInt& a) const {
  // p, q ≡ 3 (mod 4): square root of a QR is a^((p+1)/4) mod p.  The
  // exponents are fixed per key, so replay the precompiled schedules.
  BigInt rp = ctx_p_->FromMont(ctx_p_->Exp(ctx_p_->ToMont(a), *sqrt_sched_p_));
  BigInt rq = ctx_q_->FromMont(ctx_q_->Exp(ctx_q_->ToMont(a), *sqrt_sched_q_));
  return CrtCombine(rp, rq);
}

util::Bytes RabinPrivateKey::Sign(const util::Bytes& message) const {
  const BigInt& n = public_key_.n();
  BigInt h = FullDomainHash(message, n);
  // Find the tweak (e, f) making u = e*f*h a QR mod both primes.
  for (uint8_t f = 1; f <= 2; ++f) {
    for (uint8_t e = 0; e <= 1; ++e) {
      BigInt u = (h * BigInt(static_cast<uint64_t>(f))).Mod(n);
      if (e == 1) {
        u = (n - u).Mod(n);
      }
      int jp = BigInt::Jacobi(u, p_);
      int jq = BigInt::Jacobi(u, q_);
      if (jp < 0 || jq < 0) {
        continue;
      }
      BigInt s = SqrtModN(u);
      if ((s * s).Mod(n) != u) {
        continue;  // Jacobi 0 edge case (h shares a factor with n).
      }
      util::Bytes sig;
      sig.push_back(e);
      sig.push_back(f);
      util::Bytes s_bytes = s.ToBytesPadded(public_key_.ModulusBytes());
      util::Append(&sig, s_bytes);
      return sig;
    }
  }
  // Unreachable for a well-formed key: one tweak always works.
  assert(false && "no Rabin tweak produced a quadratic residue");
  return {};
}

util::Result<util::Bytes> RabinPrivateKey::Decrypt(const util::Bytes& ciphertext) const {
  size_t k = public_key_.ModulusBytes();
  if (ciphertext.size() != k) {
    return util::SecurityError("bad ciphertext length");
  }
  BigInt c = BigInt::FromBytes(ciphertext);
  const BigInt& n = public_key_.n();
  if (c >= n) {
    return util::SecurityError("ciphertext out of range");
  }
  BigInt rp = ctx_p_->FromMont(ctx_p_->Exp(ctx_p_->ToMont(c), *sqrt_sched_p_));
  BigInt rq = ctx_q_->FromMont(ctx_q_->Exp(ctx_q_->ToMont(c), *sqrt_sched_q_));
  if (ctx_p_->ModSquare(rp) != c.Mod(p_) || ctx_q_->ModSquare(rq) != c.Mod(q_)) {
    return util::SecurityError("ciphertext is not a quadratic residue");
  }

  // The four square roots: (±rp, ±rq) CRT combinations.
  for (int sign_p = 0; sign_p < 2; ++sign_p) {
    for (int sign_q = 0; sign_q < 2; ++sign_q) {
      BigInt xp = sign_p == 0 ? rp : (p_ - rp).Mod(p_);
      BigInt xq = sign_q == 0 ? rq : (q_ - rq).Mod(q_);
      BigInt root = CrtCombine(xp, xq);

      util::Bytes em = root.ToBytesPadded(k);
      if (em[0] != 0x00) {
        continue;
      }
      util::Bytes seed(em.begin() + 1, em.begin() + 1 + kHashLen);
      util::Bytes db(em.begin() + 1 + kHashLen, em.end());
      XorInto(&seed, Mgf1Sha1(db, kHashLen));
      XorInto(&db, Mgf1Sha1(seed, db.size()));

      // Check lHash || PS || 0x01 || M structure.
      if (!std::equal(EmptyLabelHash().begin(), EmptyLabelHash().end(), db.begin())) {
        continue;
      }
      size_t pos = kHashLen;
      while (pos < db.size() && db[pos] == 0x00) {
        ++pos;
      }
      if (pos >= db.size() || db[pos] != 0x01) {
        continue;
      }
      return util::Bytes(db.begin() + static_cast<long>(pos) + 1, db.end());
    }
  }
  return util::SecurityError("OAEP decoding failed");
}

util::Bytes RabinPrivateKey::Serialize() const {
  util::Bytes p_bytes = p_.ToBytes();
  util::Bytes q_bytes = q_.ToBytes();
  util::Bytes out;
  auto put_u32 = [&out](uint32_t v) {
    out.push_back(static_cast<uint8_t>(v >> 24));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v));
  };
  put_u32(static_cast<uint32_t>(p_bytes.size()));
  util::Append(&out, p_bytes);
  put_u32(static_cast<uint32_t>(q_bytes.size()));
  util::Append(&out, q_bytes);
  return out;
}

util::Result<RabinPrivateKey> RabinPrivateKey::Deserialize(const util::Bytes& bytes) {
  size_t pos = 0;
  auto get_u32 = [&](uint32_t* v) -> bool {
    if (pos + 4 > bytes.size()) {
      return false;
    }
    *v = (static_cast<uint32_t>(bytes[pos]) << 24) |
         (static_cast<uint32_t>(bytes[pos + 1]) << 16) |
         (static_cast<uint32_t>(bytes[pos + 2]) << 8) | bytes[pos + 3];
    pos += 4;
    return true;
  };
  uint32_t p_len = 0;
  if (!get_u32(&p_len) || pos + p_len > bytes.size()) {
    return util::InvalidArgument("truncated private key");
  }
  BigInt p = BigInt::FromBytes(util::Bytes(bytes.begin() + static_cast<long>(pos),
                                           bytes.begin() + static_cast<long>(pos + p_len)));
  pos += p_len;
  uint32_t q_len = 0;
  if (!get_u32(&q_len) || pos + q_len > bytes.size()) {
    return util::InvalidArgument("truncated private key");
  }
  BigInt q = BigInt::FromBytes(util::Bytes(bytes.begin() + static_cast<long>(pos),
                                           bytes.begin() + static_cast<long>(pos + q_len)));
  if ((p.Low64() & 7) != 3 || (q.Low64() & 7) != 7) {
    return util::InvalidArgument("private key primes have wrong residues");
  }
  // The constructor needs q invertible mod p for CRT.
  if (BigInt::Gcd(p, q) != BigInt(1)) {
    return util::InvalidArgument("private key primes share a factor");
  }
  return RabinPrivateKey(std::move(p), std::move(q));
}

}  // namespace crypto
