#include "sftbft/common/codec.hpp"

#include <cstring>
#include <limits>

namespace sftbft {

void Encoder::put_le(std::uint64_t v, int width) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), le, le + width);
}

void Encoder::bytes(BytesView data) {
  if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw CodecError("Encoder::bytes: buffer too large");
  }
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Encoder::str(const std::string& s) {
  bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Encoder::raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Decoder::need(std::size_t count) const {
  if (pos_ + count > data_.size()) {
    throw CodecError("Decoder: truncated input");
  }
}

std::uint64_t Decoder::get_le(int width) {
  const auto size = static_cast<std::size_t>(width);
  need(size);
  std::uint8_t le[8] = {};
  std::memcpy(le, data_.data() + pos_, size);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(le[i]) << (8 * i);
  }
  pos_ += size;
  return v;
}

std::uint8_t Decoder::u8() { return static_cast<std::uint8_t>(get_le(1)); }
std::uint16_t Decoder::u16() { return static_cast<std::uint16_t>(get_le(2)); }
std::uint32_t Decoder::u32() { return static_cast<std::uint32_t>(get_le(4)); }
std::uint64_t Decoder::u64() { return get_le(8); }
std::int64_t Decoder::i64() { return static_cast<std::int64_t>(get_le(8)); }

bool Decoder::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("Decoder::boolean: invalid value");
  return v == 1;
}

Bytes Decoder::bytes() {
  const std::uint32_t len = u32();
  return raw(len);
}

std::string Decoder::str() {
  const Bytes b = bytes();
  return {b.begin(), b.end()};
}

Bytes Decoder::raw(std::size_t size) {
  need(size);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
  pos_ += size;
  return out;
}

void Decoder::skip(std::size_t size) {
  need(size);
  pos_ += size;
}

std::uint32_t Decoder::count(std::size_t min_element_bytes) {
  const std::uint32_t c = u32();
  if (min_element_bytes > 0 &&
      static_cast<std::uint64_t>(c) * min_element_bytes > remaining()) {
    throw CodecError("Decoder: element count exceeds remaining input");
  }
  return c;
}

}  // namespace sftbft
