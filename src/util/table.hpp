// Aligned console table printing for the bench binaries, which reproduce
// the paper's tables row-for-row.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rbpc {

/// Builds a rectangular table of strings and renders it as an aligned
/// plain-text table.
class TablePrinter {
 public:
  /// Column headers define the table width; every later row must match.
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Inserts a visual separator, rendered as a rule.
  void add_separator();

  std::string to_text() const;

  /// Convenience: formats a double with `digits` decimals.
  static std::string num(double v, int digits = 2);
  /// Formats a fraction (0..1) as a percentage string like "25.6%".
  static std::string percent(double fraction, int digits = 1);

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };
  std::vector<std::string> headers_;
  std::vector<Row> rows_;

  std::vector<std::size_t> column_widths() const;
};

}  // namespace rbpc
