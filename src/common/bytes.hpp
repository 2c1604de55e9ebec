// Little-endian byte codecs for on-disk binary records (checkpoint journal,
// metrics snapshots). Doubles travel as their IEEE-754 bit patterns
// (std::bit_cast), so a decoded value is bit-identical to the encoded one --
// the foundation of the resume byte-identity guarantee.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace ioguard {

/// Appends fixed-width little-endian values to a std::string buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void put_u8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u32) byte string.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Consumes fixed-width little-endian values from a buffer. Reads past the
/// end latch the failure flag and return zeros; callers check ok() once at
/// the end instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  [[nodiscard]] std::uint8_t get_u8() {
    if (!ensure(1)) return 0;
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  [[nodiscard]] std::uint32_t get_u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(in_[pos_++]))
           << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t get_u64() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[pos_++]))
           << (8 * i);
    return v;
  }
  [[nodiscard]] double get_f64() { return std::bit_cast<double>(get_u64()); }
  [[nodiscard]] std::string_view get_string() {
    const std::uint32_t len = get_u32();
    if (!ensure(len)) return {};
    std::string_view s = in_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == in_.size(); }
  /// Latches the failure flag for bytes that were read but hold a value
  /// the format forbids, so the caller's one ok() check rejects them too.
  void fail() { ok_ = false; }

 private:
  [[nodiscard]] bool ensure(std::size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ioguard
