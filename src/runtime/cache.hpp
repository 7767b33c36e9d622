#pragma once
// Content-addressed result cache for campaign cells.
//
// A cell's key is the FNV-1a hash of its canonical configuration string
// (engine, library, E/b/w/pad, input kind, k/n, derived seed, device, ...)
// salted with the code-version salt, so a cache survives re-runs of the
// same grid but a change to either the cell or the code addresses a
// different slot.  Values are the flat per-cell metrics the campaign
// aggregates (runtime does not cache full SortReports: the metrics are
// what the figures plot, and they keep the file a few dozen bytes per
// cell).
//
// On disk a WCMC file (docs/RUNTIME.md) is a util/framed.hpp file of the
// salt, a record count and (key, CellMetrics) records.  load() discards a
// file whose salt differs from the current salt (that is the invalidation
// mechanism: bump the salt, every entry misses) and throws wcm::io_error
// on a corrupt file.

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "runtime/lru.hpp"
#include "util/framed.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"

namespace wcm::runtime {
// Cache keys chain wcm::fnv1a (util/hash.hpp) — the same hash the WCMI
// checksum and the prover's report digest use; unqualified fnv1a /
// fnv_offset_basis below resolve to it through the enclosing namespace.

/// The salt folded into every cache key: a hash of the runtime's result
/// format version (bump kResultFormat in cache.cpp whenever cached metrics
/// change meaning) plus the WCM_CACHE_SALT environment variable, which
/// tests and operators use to force a cold cache without deleting files.
[[nodiscard]] u64 code_version_salt();

/// Strict parse of an unsigned environment variable (0 when unset or
/// empty): garbage is a wcm::config_error, never a silent default.
[[nodiscard]] u64 unsigned_env(const char* name);

/// Entry bound from the WCM_CACHE_MAX environment variable (0 or unset =
/// unbounded).  Throws wcm::config_error on a malformed value.
[[nodiscard]] inline u64 cache_max_from_env() {
  return unsigned_env("WCM_CACHE_MAX");
}

/// Flat metrics of one computed campaign cell.
struct CellMetrics {
  u64 n = 0;
  double seconds = 0.0;
  double throughput = 0.0;
  double conflicts_per_element = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;

  bool operator==(const CellMetrics&) const = default;
};

/// CellMetrics' 48-byte record layout, shared by WCMC and WCMJ records.
void put_metrics(framed::Writer& out, const CellMetrics& m);
[[nodiscard]] CellMetrics get_metrics(framed::Reader& in);

/// Hard cap on records in a WCMC file; load() rejects larger counts as
/// corrupt before allocating (same defense as WCMI's max_wcmi_keys).
inline constexpr u64 max_wcmc_records = u64{1} << 24;

/// The WCMC version store() emits.
inline constexpr std::uint32_t wcmc_version = 1;

/// In-memory cache; thread-safety is the caller's concern (the campaign
/// serializes lookups at expansion time and inserts under its own mutex).
///
/// The entry count is LRU-bounded by WCM_CACHE_MAX (0/unset = unbounded):
/// a crashed-and-resumed or long chaos run cannot grow the cache without
/// bound.  lookup() refreshes recency; insert() admits (counter
/// runtime.cache.admit) then evicts the coldest entries over the cap
/// (counter runtime.cache.evict).  Stored files stay deterministic in
/// *key* order for a given surviving entry set, but under a cap the
/// surviving set itself depends on completion order, so bounded cache
/// files are not byte-identical across thread counts (the aggregate JSON
/// still is — eviction only forces recomputation).
class ResultCache {
 public:
  /// Empty cache keyed at the current code_version_salt().
  ResultCache();
  /// Empty cache with an explicit salt, bounded per WCM_CACHE_MAX.
  explicit ResultCache(u64 salt);
  /// Empty cache with an explicit salt and entry bound (tests; 0 =
  /// unbounded).
  ResultCache(u64 salt, u64 max_entries)
      : salt_(salt), max_entries_(max_entries) {}

  /// Hash a canonical cell-configuration string into this cache's address
  /// space (folds the salt first, then the string).
  [[nodiscard]] u64 key_of(const std::string& canonical_config) const noexcept;

  [[nodiscard]] std::optional<CellMetrics> lookup(u64 key) const;
  void insert(u64 key, const CellMetrics& metrics);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] u64 salt() const noexcept { return salt_; }
  [[nodiscard]] u64 max_entries() const noexcept { return max_entries_; }

  /// Parse a WCMC file.  A missing file yields an empty cache; a salt
  /// mismatch yields an empty cache (invalidation); a malformed file
  /// throws wcm::io_error.  The returned cache is keyed at `salt`.
  [[nodiscard]] static ResultCache load(const std::filesystem::path& path,
                                        u64 salt);

  /// Write every entry to `path` through a sibling temporary renamed over
  /// it, so a failed store leaves the previous file intact.  Throws
  /// wcm::io_error on failure.
  void store(const std::filesystem::path& path) const;

 private:
  void evict_over_cap();

  u64 salt_;
  u64 max_entries_ = 0;  // 0 = unbounded
  std::map<u64, CellMetrics> entries_;  // ordered -> deterministic files
  // Recency bookkeeping (runtime/lru.hpp, shared with the serve-layer
  // response cache); mutable so a const lookup() can refresh the entry it
  // just served.
  mutable LruIndex<u64> lru_;
};

}  // namespace wcm::runtime
