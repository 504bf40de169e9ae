#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace rbpc {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  require(!headers_.empty(), "TablePrinter: need at least one column");
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "TablePrinter::add_row: cell count must match header count");
  rows_.push_back(Row{false, std::move(cells)});
}

void TablePrinter::add_separator() { rows_.push_back(Row{true, {}}); }

std::vector<std::size_t> TablePrinter::column_widths() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }
  return widths;
}

std::string TablePrinter::to_text() const {
  const auto widths = column_widths();
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
  };
  emit_row(headers_);
  emit_rule();
  for (const Row& row : rows_) {
    if (row.separator) {
      emit_rule();
    } else {
      emit_row(row.cells);
    }
  }
  return os.str();
}

std::string TablePrinter::num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string TablePrinter::percent(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
  return buf;
}

}  // namespace rbpc
