#include "dmm/bank_matrix.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/math.hpp"

namespace wcm::dmm {

std::size_t bank_of(std::size_t addr, std::size_t w) {
  WCM_EXPECTS(w > 0, "bank count must be positive");
  return addr % w;
}

std::size_t column_of(std::size_t addr, std::size_t w) {
  WCM_EXPECTS(w > 0, "bank count must be positive");
  return addr / w;
}

std::size_t addr_of(std::size_t bank, std::size_t column, std::size_t w) {
  WCM_EXPECTS(w > 0, "bank count must be positive");
  WCM_EXPECTS(bank < w, "bank out of range");
  return column * w + bank;
}

std::string render_bank_matrix(
    std::size_t size, std::size_t w,
    const std::function<std::string(std::size_t)>& cell) {
  WCM_EXPECTS(w > 0, "bank count must be positive");
  const std::size_t cols = static_cast<std::size_t>(
      ceil_div(static_cast<u64>(size), static_cast<u64>(w)));

  // Collect labels and the widest label per column for alignment.
  std::vector<std::vector<std::string>> labels(w,
                                               std::vector<std::string>(cols));
  std::vector<std::size_t> width(cols, 1);
  for (std::size_t addr = 0; addr < size; ++addr) {
    std::string s = cell(addr);
    if (s.empty()) {
      s.assign(1, '.');
    }
    const std::size_t b = bank_of(addr, w);
    const std::size_t c = column_of(addr, w);
    width[c] = std::max(width[c], s.size());
    labels[b][c] = std::move(s);
  }

  std::ostringstream os;
  const std::size_t bank_label_width = std::to_string(w - 1).size();
  for (std::size_t b = 0; b < w; ++b) {
    std::string bank_label = std::to_string(b);
    os << std::string(bank_label_width - bank_label.size(), ' ') << bank_label
       << ": ";
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& s = labels[b][c].empty() ? "." : labels[b][c];
      os << s << std::string(width[c] - s.size() + 1, ' ');
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace wcm::dmm
