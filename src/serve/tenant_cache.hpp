#pragma once
// Multi-tenant response cache of the wcmd daemon.
//
// One shard per tenant, each an LRU-bounded map from request key (FNV-1a
// of the canonical request string, salted with the WCMC code-version salt)
// to the rendered result JSON.  The per-tenant bound comes from
// WCM_CACHE_MAX — the same knob that bounds the campaign's WCMC cache — so
// one chatty tenant can evict only its own entries, never a neighbor's
// (the multi-tenant quota the serve SLOs assume, docs/SERVE.md).
//
// On disk a WCMS file (docs/SERVE.md) is a util/framed.hpp file of the
// salt, a record count and (tenant, key, value) records in (tenant, key)
// order, so a given surviving entry set stores byte-identically.  load()
// starts cold on a missing file or a salt mismatch and throws
// wcm::io_error on corruption, exactly like WCMC.
//
// All public methods are thread-safe (one mutex): connection threads look
// up concurrently with the dispatcher's inserts.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "runtime/lru.hpp"
#include "util/math.hpp"

namespace wcm::serve {

/// Hard cap on records in a WCMS file; load() rejects larger counts as
/// corrupt before allocating (same defense as WCMC's max_wcmc_records).
inline constexpr u64 max_wcms_records = u64{1} << 24;

/// Cap on one cached value's byte size in a WCMS file (corruption guard).
inline constexpr u64 max_wcms_value_bytes = u64{1} << 30;

/// The WCMS version store() emits.
inline constexpr std::uint32_t wcms_version = 1;

class TenantCache {
 public:
  /// Keyed at runtime::code_version_salt(), bounded per tenant by
  /// WCM_CACHE_MAX (0/unset = unbounded).
  TenantCache();
  /// Explicit salt and per-tenant entry bound (tests; 0 = unbounded).
  TenantCache(u64 salt, u64 max_entries_per_tenant)
      : salt_(salt), max_per_tenant_(max_entries_per_tenant) {}

  TenantCache(TenantCache&&) noexcept = default;
  TenantCache& operator=(TenantCache&&) noexcept = default;

  /// Hash a canonical request string into this cache's address space.
  [[nodiscard]] u64 key_of(const std::string& canonical) const noexcept;

  /// Cached result for (tenant, key), refreshing its recency.  Counts
  /// serve.cache.hit / serve.cache.miss{tenant=...}.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& tenant,
                                                  u64 key);

  /// Admit (serve.cache.admit{tenant=...}) and evict the tenant's coldest
  /// entries over the bound (serve.cache.evict{tenant=...}).  Overwriting
  /// a live key only refreshes it — re-inserting a shared single-flight
  /// result is idempotent.
  void insert(const std::string& tenant, u64 key, std::string result);

  [[nodiscard]] std::size_t size(const std::string& tenant) const;
  [[nodiscard]] std::size_t total_size() const;
  [[nodiscard]] u64 salt() const noexcept { return salt_; }
  [[nodiscard]] u64 max_per_tenant() const noexcept { return max_per_tenant_; }

  /// Parse a WCMS file; missing file or salt mismatch yields an empty
  /// cache, a malformed file throws wcm::io_error.  Keyed at `salt`.
  [[nodiscard]] static TenantCache load(const std::filesystem::path& path,
                                        u64 salt);

  /// Write every entry to `path` in (tenant, key) order, through a
  /// sibling temporary renamed over it, so a failed store leaves the
  /// previous file intact.  Throws wcm::io_error on failure.
  void store(const std::filesystem::path& path) const;

 private:
  struct Shard {
    std::map<u64, std::string> entries;  // ordered -> deterministic files
    runtime::LruIndex<u64> lru;
  };

  void evict_over_cap(const std::string& tenant, Shard& shard);

  u64 salt_ = 0;
  u64 max_per_tenant_ = 0;  // 0 = unbounded
  std::map<std::string, Shard> shards_;
  // unique_ptr keeps the cache movable (load() returns by value).
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

}  // namespace wcm::serve
