// Byte-string helpers shared across the SFS tree.
//
// All binary data in SFS (keys, hashes, MACs, XDR buffers, file contents)
// is carried as util::Bytes.  The helpers here cover the encodings the
// paper relies on: hex for debugging, and SFS's base-32 HostID encoding
// whose alphabet deliberately omits the confusable characters
// "l" (lower-case L), "1", "0", and "o" (paper §2.2).
#ifndef SFS_SRC_UTIL_BYTES_H_
#define SFS_SRC_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace util {

using Bytes = std::vector<uint8_t>;

// Construct Bytes from a string's raw characters.
Bytes BytesOf(const std::string& s);

// Interpret Bytes as a string (may contain NULs).
std::string StringOf(const Bytes& b);

// Append src to dst.
void Append(Bytes* dst, const Bytes& src);
void Append(Bytes* dst, const std::string& src);

// Lower-case hex encoding ("deadbeef").
std::string HexEncode(const Bytes& b);
Result<Bytes> HexDecode(const std::string& hex);

// SFS base-32: 32-character alphabet of digits and lower-case letters
// omitting "l", "1", "0", "o".  Encodes 5 bits per character, most
// significant bits first; a 20-byte HostID encodes to 32 characters.
std::string Base32Encode(const Bytes& b);

// Decodes a base-32 string produced by Base32Encode.  The byte length is
// len*5/8 (trailing sub-byte bits must be zero).
Result<Bytes> Base32Decode(const std::string& s);

// Constant-time equality for secrets (MACs, keys).
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);
bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len);

}  // namespace util

#endif  // SFS_SRC_UTIL_BYTES_H_
