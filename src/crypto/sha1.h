// SHA-1 (FIPS 180-1) and an HMAC-SHA-1 message authentication code.
//
// SFS bases everything on SHA-1 (paper §3.1.3): HostIDs, session-key
// derivation, the per-message MAC on file system traffic, the DSS-style
// pseudo-random generator, and AuthIDs.  This is a from-scratch
// implementation with an incremental interface.
#ifndef SFS_SRC_CRYPTO_SHA1_H_
#define SFS_SRC_CRYPTO_SHA1_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace crypto {

inline constexpr size_t kSha1DigestSize = 20;
inline constexpr size_t kSha1BlockSize = 64;

// Incremental SHA-1.  Usage: Update(...)* then Digest().
class Sha1 {
 public:
  Sha1();

  void Update(const uint8_t* data, size_t len);
  void Update(const util::Bytes& data) { Update(data.data(), data.size()); }
  void Update(const std::string& data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  // Finalizes and returns the 20-byte digest.  The object may not be
  // updated afterwards; construct a new one for a new message.
  util::Bytes Digest();
  void Digest(uint8_t out[kSha1DigestSize]);

 private:
  uint32_t state_[5];
  uint64_t total_bytes_;
  uint8_t buffer_[kSha1BlockSize];
  size_t buffer_len_;
  bool finalized_;
};

// One-shot convenience.
util::Bytes Sha1Digest(const util::Bytes& data);
util::Bytes Sha1Digest(const std::string& data);

// HMAC-SHA-1 (RFC 2104).  Used as SFS's per-message MAC; the channel
// re-keys it for every RPC with bytes pulled from the ARC4 stream
// (paper §3.1.3).  The pointer form writes the MAC to out and allocates
// nothing.
void HmacSha1(const uint8_t* key, size_t key_len, const uint8_t* message, size_t message_len,
              uint8_t out[kSha1DigestSize]);
util::Bytes HmacSha1(const util::Bytes& key, const util::Bytes& message);

// The block-compression kernels behind Sha1, exposed for the differential
// test and bench/crypto_prims; everything else hashes through Sha1.
namespace sha1_detail {

// Compresses `blocks` consecutive 64-byte blocks, read in place, into state.
using CompressFn = void (*)(uint32_t state[5], const uint8_t* data, size_t blocks);

// The unrolled portable loop: the only kernel on CPUs without the x86 SHA
// extensions, and the oracle the SHA-NI kernel is tested against.
void CompressPortable(uint32_t state[5], const uint8_t* data, size_t blocks);

// The kernel on the x86 SHA extensions, or null where it is compiled out
// or the CPU lacks SHA or SSE4.1 (read through CPUID).
CompressFn ShaNiKernel();

// The kernel Sha1 runs, chosen once per process on first use: "sha-ni"
// or "portable".
const char* KernelName();

}  // namespace sha1_detail
}  // namespace crypto

#endif  // SFS_SRC_CRYPTO_SHA1_H_
