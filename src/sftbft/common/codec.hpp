// Canonical binary codec.
//
// Every protocol message has a single canonical encoding (fixed-width
// little-endian integers, length-prefixed containers). Signing and hashing
// operate on these canonical bytes, so two structurally equal messages always
// produce identical digests — a property several tests rely on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sftbft/common/bytes.hpp"

namespace sftbft {

/// Thrown by Decoder on truncated or malformed input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian values to an owned buffer.
class Encoder {
 public:
  Encoder() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw bytes.
  void bytes(BytesView data);

  /// Length-prefixed (u32) UTF-8 string.
  void str(const std::string& s);

  /// Raw bytes with no length prefix (for fixed-size digests/signatures).
  void raw(BytesView data);

  /// Pre-reserves capacity for `additional` more bytes. Message-sized
  /// encodes (envelope framing, block payloads) call this with their exact
  /// size so the hot broadcast path appends without reallocating — see
  /// bench/micro_overhead.cpp for the before/after.
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  /// Appends `count` uninitialized bytes and returns a pointer to them, so
  /// generated content (synthetic transaction bodies) can be written in
  /// place instead of staged in a temporary buffer. The pointer is valid
  /// until the next append.
  [[nodiscard]] std::uint8_t* grow(std::size_t count) {
    buf_.resize(buf_.size() + count);
    return buf_.data() + (buf_.size() - count);
  }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so one encoder can be
  /// reused for a run of small messages without reallocating.
  void clear() { buf_.clear(); }

 private:
  void put_le(std::uint64_t v, int width);

  Bytes buf_;
};

/// Reads values back in the order they were encoded; bounds-checked.
class Decoder {
 public:
  explicit Decoder(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  bool boolean();
  Bytes bytes();
  std::string str();
  /// Reads exactly `size` raw bytes (no length prefix).
  Bytes raw(std::size_t size);
  /// Skips `size` bytes (bounds-checked) without materializing them — used
  /// for derived content (transaction bodies) that re-encoding regenerates.
  void skip(std::size_t size);

  /// Reads a u32 element count and rejects counts that could not possibly
  /// fit in the remaining input (each element encodes to at least
  /// `min_element_bytes`). Decoders of untrusted bytes use this before
  /// `reserve(count)` so a garbage count cannot force a huge allocation.
  std::uint32_t count(std::size_t min_element_bytes);

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::uint64_t get_le(int width);
  void need(std::size_t count) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace sftbft
