#include "common/appender.hpp"

#include <array>
#include <cfloat>
#include <cmath>
#include <ostream>

#include "common/check.hpp"

namespace ioguard {

Appender& Appender::put_hex(std::uint64_t v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, 16);
  out_->append(buf, static_cast<std::size_t>(res.ptr - buf));
  return *this;
}

Appender& Appender::put_fixed(double v, int precision) {
  IOGUARD_CHECK_MSG(precision >= 0 && precision <= kMaxFixedPrecision,
                    "fixed precision out of range");
  // DBL_MAX has DBL_MAX_10_EXP + 1 = 309 integer digits; add the sign, the
  // point and the fraction.
  char buf[1 + DBL_MAX_10_EXP + 1 + 1 + kMaxFixedPrecision];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, precision);
  IOGUARD_CHECK(res.ec == std::errc{});
  out_->append(buf, static_cast<std::size_t>(res.ptr - buf));
  return *this;
}

Appender& Appender::put_general(double v, int precision) {
  IOGUARD_CHECK_MSG(precision >= 1 && precision <= kMaxGeneralPrecision,
                    "general precision out of range");
  // An integral value of at most `precision` digits prints as that integer
  // ("%g" drops the point); this covers slot timestamps and is several times
  // faster than to_chars' precision path. -0.0 goes to to_chars for its "-0".
  static constexpr auto kPow10 = [] {
    std::array<double, kMaxGeneralPrecision + 1> p{};
    p[0] = 1;
    for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
    return p;
  }();
  if (v == std::trunc(v) && std::fabs(v) < kPow10[precision] &&
      !(v == 0 && std::signbit(v)))
    return put_int(static_cast<std::int64_t>(v));
  // The sign, the digits, the point and the longest exponent ("e-308").
  char buf[1 + kMaxGeneralPrecision + 1 + 5];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  IOGUARD_CHECK(res.ec == std::errc{});
  out_->append(buf, static_cast<std::size_t>(res.ptr - buf));
  return *this;
}

Appender& Appender::put_json_escaped(std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out_->append("\\\""); break;
      case '\\': out_->append("\\\\"); break;
      case '\n': out_->append("\\n"); break;
      case '\r': out_->append("\\r"); break;
      case '\t': out_->append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out_->append(u, sizeof u);
      }
    }
  }
  out_->append(s.data() + plain, s.size() - plain);
  return *this;
}

void Appender::drain_to(std::ostream& os) {
  os.write(out_->data(), static_cast<std::streamsize>(out_->size()));
  out_->clear();
}

}  // namespace ioguard
