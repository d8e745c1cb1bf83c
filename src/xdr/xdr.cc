#include "src/xdr/xdr.h"

#include <cstring>

namespace xdr {
namespace {

uint32_t LoadUint32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

util::Result<uint32_t> PeekUint32(const util::Bytes& data, size_t offset) {
  if (offset + 4 > data.size()) {
    return util::InvalidArgument("XDR: truncated uint32");
  }
  return LoadUint32(data.data() + offset);
}

util::Bytes KeepRange(util::Bytes data, Range range) {
  if (range.size != 0) {
    std::memmove(data.data(), data.data() + range.offset, range.size);
  }
  data.resize(range.size);
  return data;
}

uint8_t* Encoder::Extend(size_t n) {
  const size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

void Encoder::PutUint64(uint64_t v) {
  uint8_t* out = Extend(8);
  PokeUint32(out, static_cast<uint32_t>(v >> 32));
  PokeUint32(out + 4, static_cast<uint32_t>(v));
}

void Encoder::PutPadded(const uint8_t* data, size_t len) {
  // XDR pads each item to a multiple of 4 *of its own length* — padding
  // to the buffer position instead would mis-frame the item whenever the
  // encoder is not already 4-aligned.  resize() zero-fills the pad.
  uint8_t* out = Extend(PaddedSize(len));
  if (len != 0) {
    std::memcpy(out, data, len);
  }
}

void Encoder::PutOpaque(const util::Bytes& data) {
  PutUint32(static_cast<uint32_t>(data.size()));
  PutPadded(data.data(), data.size());
}

void Encoder::PutString(const std::string& s) {
  PutUint32(static_cast<uint32_t>(s.size()));
  PutPadded(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Encoder::PutFixedOpaque(const util::Bytes& data) { PutPadded(data.data(), data.size()); }

util::Result<uint32_t> Decoder::GetUint32() {
  if (size_ - pos_ < 4) {
    return util::InvalidArgument("XDR: truncated uint32");
  }
  const uint32_t v = LoadUint32(data_ + pos_);
  pos_ += 4;
  return v;
}

util::Result<int32_t> Decoder::GetInt32() {
  ASSIGN_OR_RETURN(uint32_t v, GetUint32());
  return static_cast<int32_t>(v);
}

util::Result<uint64_t> Decoder::GetUint64() {
  ASSIGN_OR_RETURN(uint32_t hi, GetUint32());
  ASSIGN_OR_RETURN(uint32_t lo, GetUint32());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

util::Result<bool> Decoder::GetBool() {
  ASSIGN_OR_RETURN(uint32_t v, GetUint32());
  if (v > 1) {
    return util::InvalidArgument("XDR: bool out of range");
  }
  return v == 1;
}

util::Result<Range> Decoder::GetOpaqueRange() {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > kMaxOpaque) {
    return util::InvalidArgument("XDR: opaque too large");
  }
  return GetFixedOpaqueRange(len);
}

util::Result<util::Bytes> Decoder::GetOpaque() {
  ASSIGN_OR_RETURN(const Range range, GetOpaqueRange());
  return util::Bytes(data_ + range.offset, data_ + range.offset + range.size);
}

util::Result<std::string> Decoder::GetString() {
  ASSIGN_OR_RETURN(const Range range, GetOpaqueRange());
  return std::string(reinterpret_cast<const char*>(data_) + range.offset, range.size);
}

util::Result<util::Bytes> Decoder::GetFixedOpaque(size_t len) {
  ASSIGN_OR_RETURN(const Range range, GetFixedOpaqueRange(len));
  return util::Bytes(data_ + range.offset, data_ + range.offset + range.size);
}

util::Result<Range> Decoder::GetFixedOpaqueRange(size_t len) {
  const size_t padded = PaddedSize(len);
  if (padded < len || padded > size_ - pos_) {
    return util::InvalidArgument("XDR: truncated opaque");
  }
  // Padding bytes must be zero.
  for (size_t i = len; i < padded; ++i) {
    if (data_[pos_ + i] != 0) {
      return util::InvalidArgument("XDR: nonzero padding");
    }
  }
  const Range range{pos_, len};
  pos_ += padded;
  return range;
}

}  // namespace xdr
