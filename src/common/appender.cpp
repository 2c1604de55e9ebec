#include "common/appender.hpp"

#include <cfloat>

#include "common/check.hpp"

namespace ioguard {

Appender& Appender::put_hex(std::uint64_t v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, 16);
  out_->append(buf, res.ptr);
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
  out_->append(buf, res.ptr);
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

}  // namespace ioguard
