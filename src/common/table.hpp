// Plain-text result tables.
//
// Every bench binary prints its figure/table as an aligned ASCII table (the
// "rows/series the paper reports").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace monde {

/// Column-aligned ASCII table builder.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the headers.
  void add_row(std::vector<std::string> cells);

  /// Number formatting helpers for cells.
  static std::string num(double v, int precision = 2);
  static std::string pct(double v, int precision = 1);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Render with a header rule and 2-space column gaps.
  [[nodiscard]] std::string str() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace monde
