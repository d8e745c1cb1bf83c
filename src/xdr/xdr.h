// XDR (RFC 1832) marshaling, the wire representation for everything SFS.
//
// The paper (§3.2): "All programs communicate with Sun RPC ... Any data
// that SFS hashes, signs, or public-key encrypts is defined as an XDR
// data structure; SFS computes the hash or public key function on the
// raw, marshaled bytes."  This module provides the encoder/decoder those
// layers share.  Quantities are big-endian; variable-length items are
// length-prefixed and padded to 4-byte alignment.
#ifndef SFS_SRC_XDR_XDR_H_
#define SFS_SRC_XDR_XDR_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace xdr {

// Opaque items longer than this are rejected as malformed (our largest
// legitimate payloads are NFS READ/WRITE buffers well under this).
inline constexpr uint32_t kMaxOpaque = 1u << 26;  // 64 MiB

// Bytes an opaque item of `len` bytes occupies once zero-padded to XDR's
// 4-byte unit.
constexpr size_t PaddedSize(size_t len) { return (len + 3) & ~size_t{3}; }

// Reads the uint32 at byte `offset` without decoding or copying the rest:
// lets a framing layer look at one header word (a wire seqno) first.
util::Result<uint32_t> PeekUint32(const util::Bytes& data, size_t offset);

// Writes `value` big-endian to out[0..4): PeekUint32's inverse, for a
// framing layer that fills its header words in place.
inline void PokeUint32(uint8_t* out, uint32_t value) {
  for (int k = 0; k < 4; ++k) {
    out[k] = static_cast<uint8_t>(value >> (24 - 8 * k));
  }
}

class Encoder {
 public:
  Encoder() = default;

  void PutUint32(uint32_t v);
  void PutInt32(int32_t v) { PutUint32(static_cast<uint32_t>(v)); }
  void PutUint64(uint64_t v);
  void PutBool(bool v) { PutUint32(v ? 1 : 0); }

  // Variable-length opaque: 4-byte length, data, zero padding to 4 bytes.
  void PutOpaque(const util::Bytes& data);
  void PutString(const std::string& s);

  // Fixed-length opaque: data plus padding, no length prefix.
  void PutFixedOpaque(const util::Bytes& data);

  const util::Bytes& data() const { return buffer_; }
  util::Bytes Take() { return std::move(buffer_); }

 private:
  util::Bytes buffer_;
};

class Decoder {
 public:
  explicit Decoder(util::Bytes data) : buffer_(std::move(data)) {}

  util::Result<uint32_t> GetUint32();
  util::Result<int32_t> GetInt32();
  util::Result<uint64_t> GetUint64();
  util::Result<bool> GetBool();
  util::Result<util::Bytes> GetOpaque();
  util::Result<std::string> GetString();
  util::Result<util::Bytes> GetFixedOpaque(size_t len);

  // True when every byte has been consumed; protocols check this to
  // reject trailing garbage.
  bool AtEnd() const { return pos_ >= buffer_.size(); }
  size_t Remaining() const { return buffer_.size() - pos_; }

  // Consumes and returns all unread bytes (no length prefix): lets a
  // framing layer peel its header and hand the payload onward.
  util::Bytes TakeRemaining() {
    util::Bytes out(buffer_.begin() + static_cast<long>(pos_), buffer_.end());
    pos_ = buffer_.size();
    return out;
  }

 private:
  util::Bytes buffer_;
  size_t pos_ = 0;
};

}  // namespace xdr

#endif  // SFS_SRC_XDR_XDR_H_
