#include "src/xdr/xdr.h"

namespace xdr {

util::Result<uint32_t> PeekUint32(const util::Bytes& data, size_t offset) {
  if (offset + 4 > data.size()) {
    return util::InvalidArgument("XDR: truncated uint32");
  }
  return (static_cast<uint32_t>(data[offset]) << 24) |
         (static_cast<uint32_t>(data[offset + 1]) << 16) |
         (static_cast<uint32_t>(data[offset + 2]) << 8) | static_cast<uint32_t>(data[offset + 3]);
}

void Encoder::PutUint32(uint32_t v) {
  buffer_.push_back(static_cast<uint8_t>(v >> 24));
  buffer_.push_back(static_cast<uint8_t>(v >> 16));
  buffer_.push_back(static_cast<uint8_t>(v >> 8));
  buffer_.push_back(static_cast<uint8_t>(v));
}

void Encoder::PutUint64(uint64_t v) {
  PutUint32(static_cast<uint32_t>(v >> 32));
  PutUint32(static_cast<uint32_t>(v));
}

void Encoder::PutOpaque(const util::Bytes& data) {
  PutUint32(static_cast<uint32_t>(data.size()));
  PutFixedOpaque(data);
}

void Encoder::PutString(const std::string& s) { PutOpaque(util::BytesOf(s)); }

void Encoder::PutFixedOpaque(const util::Bytes& data) {
  util::Append(&buffer_, data);
  // XDR pads each item to a multiple of 4 *of its own length* — padding
  // to the buffer position instead would mis-frame the item whenever the
  // encoder is not already 4-aligned.
  for (size_t i = data.size(); i % 4 != 0; ++i) {
    buffer_.push_back(0);
  }
}

util::Result<uint32_t> Decoder::GetUint32() {
  util::Result<uint32_t> v = PeekUint32(buffer_, pos_);
  if (v.ok()) {
    pos_ += 4;
  }
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

util::Result<util::Bytes> Decoder::GetOpaque() {
  ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > kMaxOpaque) {
    return util::InvalidArgument("XDR: opaque too large");
  }
  return GetFixedOpaque(len);
}

util::Result<std::string> Decoder::GetString() {
  ASSIGN_OR_RETURN(util::Bytes b, GetOpaque());
  return util::StringOf(b);
}

util::Result<util::Bytes> Decoder::GetFixedOpaque(size_t len) {
  size_t padded = PaddedSize(len);
  if (pos_ + padded > buffer_.size()) {
    return util::InvalidArgument("XDR: truncated opaque");
  }
  util::Bytes out(buffer_.begin() + static_cast<long>(pos_),
                  buffer_.begin() + static_cast<long>(pos_ + len));
  // Padding bytes must be zero.
  for (size_t i = len; i < padded; ++i) {
    if (buffer_[pos_ + i] != 0) {
      return util::InvalidArgument("XDR: nonzero padding");
    }
  }
  pos_ += padded;
  return out;
}

}  // namespace xdr
