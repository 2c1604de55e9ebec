// Plain-text table / CSV emission for bench harnesses, so every bench binary
// can print the same rows the paper's tables and figures report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ioguard {

/// Accumulates rows of strings and renders an aligned ASCII table or CSV.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats arithmetic cells with operator<<.
  template <class... Ts>
  void add(const Ts&... cells) {
    add_row({to_cell(cells)...});
  }

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  void render(std::ostream& os) const;  ///< aligned, boxed with '|'

 private:
  template <class T>
  static std::string to_cell(const T& v);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells): the bytes
/// of printf("%.*f"), through Appender::put_fixed.
std::string fmt_double(double v, int precision = 2);

template <class T>
std::string TextTable::to_cell(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_convertible_v<T, const char*>) {
    return std::string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return fmt_double(static_cast<double>(v));
  } else {
    return std::to_string(v);
  }
}

}  // namespace ioguard
