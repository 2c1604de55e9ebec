#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/appender.hpp"
#include "common/check.hpp"

namespace ioguard {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  IOGUARD_CHECK(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  IOGUARD_CHECK_MSG(cells.size() == header_.size(),
                    "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c)
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    os << '\n';
  };
  auto emit_rule = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };

  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
}

std::string fmt_double(double v, int precision) {
  std::string out;
  Appender(&out).put_fixed(v, precision);
  return out;
}

}  // namespace ioguard
