#pragma once
// Minimal aligned-text / CSV table writer used by the benchmark harness to
// print figure and table data in a stable, diffable format.

#include <iosfwd>
#include <string>
#include <vector>

namespace wcm {

/// A rectangular table of strings with named columns.  Cells are added
/// row-by-row; numeric helpers format with fixed precision so bench output
/// is stable across runs.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Start a new row; subsequent add() calls fill it left to right.
  Table& new_row();

  Table& add(std::string cell);
  Table& add(double v, int precision = 3);
  Table& add(long long v);
  Table& add(unsigned long long v);
  Table& add(std::size_t v);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data()
      const noexcept {
    return rows_;
  }

  /// Pretty-print with aligned columns.
  void print(std::ostream& os) const;

  /// Emit CSV: a cell holding a comma, double quote or line break is
  /// wrapped in double quotes with inner quotes doubled (RFC 4180).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with benches).
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Artifact export: when the WCM_CSV_DIR environment variable is set,
/// write the table as <dir>/<name>.csv (creating the directory) and return
/// true; otherwise do nothing.  Lets `for b in build/bench/*; do $b; done`
/// double as a figure-data exporter.
bool maybe_export_csv(const Table& table, const std::string& name);

}  // namespace wcm
