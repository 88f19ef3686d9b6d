#pragma once
// Fixed-width ASCII table printer.
//
// The benchmark binaries regenerate the paper's analyses as tables on
// stdout; this formatter keeps them aligned and machine-greppable
// (one row per line, pipe-separated).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace hpfcg::util {

/// Accumulates rows of string cells and renders an aligned table.
class Table {
 public:
  /// `title` is printed above the table; `columns` are the header cells.
  Table(std::string title, std::vector<std::string> columns);

  /// Append one row.  Must have exactly as many cells as there are columns.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render to `os` with per-column alignment.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `prec` significant digits (benchmark table cells).
std::string fmt(double v, int prec = 4);

/// Format a double in fixed notation with `decimals` digits after the
/// point: fmt_fixed(23456.7) is "23457", where fmt(23456.7, 0) would print
/// one significant digit, "2e+04".  For wall-clock columns.
std::string fmt_fixed(double v, int decimals = 0);

/// Format an integral count with thousands separators ("1,234,567").
std::string fmt_count(unsigned long long v);

}  // namespace hpfcg::util
