#include "sort/key_value.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace wcm::sort {

PairSortResult pairwise_merge_sort_pairs(std::span<const word> keys,
                                         std::span<const word> values,
                                         const SortConfig& cfg,
                                         const gpusim::Device& dev,
                                         MergeSortLibrary lib) {
  WCM_EXPECTS(keys.size() == values.size(), "keys / values size mismatch");
  const std::size_t n = keys.size();

  PairSortResult result;
  // Key phase: the full functional simulation (drives all conflicts).
  result.report = pairwise_merge_sort(keys, cfg, dev, lib, &result.keys);

  // Value phase accounting: per round, every element's value moves once —
  // gathered through the merge index (25% coalescing efficiency, i.e. 4
  // transactions per warp of 32 gathers) and stored coalesced.
  const gpusim::LaunchConfig launch{n / cfg.tile(), cfg.b,
                                    cfg.shared_bytes()};
  constexpr std::size_t kGatherTransactionsPerWarp = 4;
  for (auto& round : result.report.rounds) {
    gpusim::KernelStats& s = round.kernel;
    s.global_requests += 2 * n;
    s.global_transactions +=
        n / cfg.w * kGatherTransactionsPerWarp  // gather reads
        + n / cfg.w;                            // coalesced stores
  }
  result.report.reprice(launch, library_calibration(lib));

  // Functional value permutation: stable sort of indices by key reproduces
  // exactly what the simulated (stable, A-priority) merge tree computes.
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  result.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.values[i] = values[perm[i]];
  }
  return result;
}

}  // namespace wcm::sort
