#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace monde {

Table::Table(std::vector<std::string> headers) : headers_{std::move(headers)} {
  MONDE_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  MONDE_REQUIRE(cells.size() == headers_.size(),
                "row arity " << cells.size() << " != header arity " << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
  return buf;
}

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(width[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < width.size(); ++c) rule += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(std::ostream& os) const { os << str(); }

}  // namespace monde
