#include "util/table.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace wcm {

std::string format_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  WCM_EXPECTS(!columns_.empty(), "a table needs at least one column");
}

Table& Table::new_row() {
  if (!rows_.empty()) {
    WCM_EXPECTS(rows_.back().size() == columns_.size(),
                "previous row is incomplete");
  }
  rows_.emplace_back();
  rows_.back().reserve(columns_.size());
  return *this;
}

Table& Table::add(std::string cell) {
  WCM_EXPECTS(!rows_.empty(), "call new_row() before add()");
  WCM_EXPECTS(rows_.back().size() < columns_.size(), "row overflow");
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double v, int precision) {
  return add(format_fixed(v, precision));
}
Table& Table::add(long long v) { return add(std::to_string(v)); }
Table& Table::add(unsigned long long v) { return add(std::to_string(v)); }
Table& Table::add(std::size_t v) {
  return add(static_cast<unsigned long long>(v));
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
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << "  " << std::setw(static_cast<int>(width[c])) << cell;
    }
    os << '\n';
  };
  line(columns_);
  std::size_t total = 2;
  for (const auto w : width) {
    total += w + 2;
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    line(row);
  }
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) {
        os << ',';
      }
      const std::string& cell = cells[c];
      if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        os << cell;
        continue;
      }
      os << '"';
      for (const char ch : cell) {
        os << ch;
        if (ch == '"') {
          os << '"';
        }
      }
      os << '"';
    }
    os << '\n';
  };
  emit(columns_);
  for (const auto& row : rows_) {
    emit(row);
  }
}

bool maybe_export_csv(const Table& table, const std::string& name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* dir = std::getenv("WCM_CSV_DIR");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  const std::filesystem::path out_dir(dir);
  std::filesystem::create_directories(out_dir);
  std::ofstream os(out_dir / (name + ".csv"));
  WCM_EXPECTS(os.is_open(), "cannot open CSV export file");
  table.write_csv(os);
  return true;
}

}  // namespace wcm
