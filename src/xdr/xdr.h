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
#include <utility>

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
  // Capacity an encoder reserves up front: call headers, credentials,
  // attributes and the small NFS replies all fit, so such a message costs
  // one allocation instead of a growth step every few words.
  static constexpr size_t kMinCapacity = 128;

  Encoder() { buffer_.reserve(kMinCapacity); }
  // Reserves exactly `size_hint` bytes: for a caller that knows the
  // encoded size (a large payload, or a buffer that is kept, which must
  // not carry spare capacity).
  explicit Encoder(size_t size_hint) { buffer_.reserve(size_hint); }

  void PutUint32(uint32_t v) { PokeUint32(Extend(4), v); }
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
  // Grows the buffer by `n` bytes and returns where they start.
  uint8_t* Extend(size_t n);
  void PutPadded(const uint8_t* data, size_t len);

  util::Bytes buffer_;
};

// Where an item's bytes lie in a Decoder's buffer.
struct Range {
  size_t offset = 0;
  size_t size = 0;
};

// Moves data[range) to the front of `data` and drops everything else:
// an item taken out of a buffer the caller owns, without a second one.
util::Bytes KeepRange(util::Bytes data, Range range);

// Reads XDR items from a buffer front to back.  Constructed from an
// lvalue it borrows the buffer, which must outlive the decoder and stay
// unchanged while it reads; constructed from an rvalue it owns the bytes.
class Decoder {
 public:
  explicit Decoder(const util::Bytes& data) : data_(data.data()), size_(data.size()) {}
  explicit Decoder(util::Bytes&& data)
      : owned_(std::move(data)), data_(owned_.data()), size_(owned_.size()) {}
  // A const temporary can be neither borrowed (it dies first) nor owned.
  explicit Decoder(const util::Bytes&&) = delete;
  Decoder(const Decoder&) = delete;
  Decoder& operator=(const Decoder&) = delete;

  util::Result<uint32_t> GetUint32();
  util::Result<int32_t> GetInt32();
  util::Result<uint64_t> GetUint64();
  util::Result<bool> GetBool();
  util::Result<util::Bytes> GetOpaque();
  util::Result<std::string> GetString();
  util::Result<util::Bytes> GetFixedOpaque(size_t len);

  // GetOpaque's checks, in the same order and with the same statuses,
  // returning where the item's bytes lie instead of copying them out.
  util::Result<Range> GetOpaqueRange();

  // True when every byte has been consumed; protocols check this to
  // reject trailing garbage.
  bool AtEnd() const { return pos_ >= size_; }
  size_t Remaining() const { return size_ - pos_; }

  // Consumes and returns all unread bytes (no length prefix): lets a
  // framing layer peel its header and hand the payload onward.
  util::Bytes TakeRemaining() {
    util::Bytes out(data_ + pos_, data_ + size_);
    pos_ = size_;
    return out;
  }

 private:
  util::Result<Range> GetFixedOpaqueRange(size_t len);

  util::Bytes owned_;  // Empty when the buffer is borrowed.
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace xdr

#endif  // SFS_SRC_XDR_XDR_H_
