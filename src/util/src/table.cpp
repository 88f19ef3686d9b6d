#include "hpfcg/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "hpfcg/util/error.hpp"

namespace hpfcg::util {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  HPFCG_REQUIRE(!columns_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  HPFCG_REQUIRE(cells.size() == columns_.size(),
                "row width must match the header");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    width[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::setw(static_cast<int>(width[c])) << row[c];
      os << (c + 1 < row.size() ? " | " : " |\n");
    }
  };

  os << "\n== " << title_ << " ==\n";
  print_row(columns_);
  os << '|';
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
  os.flush();
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os << std::setprecision(prec) << v;
  return os.str();
}

std::string fmt_fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string fmt_count(unsigned long long v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int seen = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (seen != 0 && seen % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++seen;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace hpfcg::util
