// Text formatting into a std::string without streams or locales: integers,
// hex, fixed- and general-precision doubles and JSON-escaped strings, each
// through std::to_chars or a byte loop. The bytes equal what the stream code
// it replaces printed -- `os << v` for integers, `os << std::hex << v` for
// hex, `os << std::fixed << std::setprecision(p) << v` (printf's "%.*f") and
// `os << std::setprecision(p) << v` (printf's "%.*g") for doubles -- so an
// emitter moved onto it keeps its output byte-identical. It is the one place
// that escapes JSON strings and formats numbers for every exporter.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

namespace ioguard {

/// Appends formatted text to a std::string buffer; every put returns the
/// appender so a line reads left to right like the stream code it replaces.
class Appender {
 public:
  explicit Appender(std::string* out) : out_(out) {}

  Appender& put(std::string_view s) {
    out_->append(s.data(), s.size());
    return *this;
  }
  Appender& put_char(char c) {
    out_->push_back(c);
    return *this;
  }
  /// Decimal digits, with a '-' for negative values.
  template <std::integral T>
  Appender& put_int(T v) {
    char buf[std::numeric_limits<T>::digits10 + 2];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_->append(buf, static_cast<std::size_t>(res.ptr - buf));
    return *this;
  }
  /// Lowercase base-16 digits without a prefix.
  Appender& put_hex(std::uint64_t v);
  /// `precision` digits after the point (0 prints no point), rounded to
  /// nearest with ties to even on the exact binary value; "inf", "-inf",
  /// "nan" and "-nan" as printf spells them. Precision is at most
  /// kMaxFixedPrecision.
  Appender& put_fixed(double v, int precision);
  /// `precision` significant digits with trailing zeros dropped, in
  /// exponent form when the exponent is below -4 or at least `precision`
  /// (printf's "%.*g"); special values as put_fixed spells them. Precision
  /// is 1 to kMaxGeneralPrecision.
  Appender& put_general(double v, int precision);
  /// `s` escaped for the inside of a JSON string literal: `"` and `\`
  /// backslash-escaped, \n \r \t by name, other bytes below 0x20 as \u00xx;
  /// every other byte (UTF-8 included) as is.
  Appender& put_json_escaped(std::string_view s);

  /// Writes the buffer to `os` and empties it once it holds at least
  /// `min_bytes`. Emitters call it after every record, so the buffer stays
  /// near one chunk however large the export, and with 0 at the end.
  Appender& write_to(std::ostream& os, std::size_t min_bytes = kChunkBytes) {
    if (out_->size() >= min_bytes) drain_to(os);
    return *this;
  }

  static constexpr int kMaxFixedPrecision = 64;
  static constexpr int kMaxGeneralPrecision =
      std::numeric_limits<double>::max_digits10;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

 private:
  void drain_to(std::ostream& os);

  std::string* out_;
};

}  // namespace ioguard
