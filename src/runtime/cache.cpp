#include "runtime/cache.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/framed.hpp"

namespace wcm::runtime {

namespace {

constexpr std::string_view kMagic = "WCMC";

/// Bump whenever the meaning of cached metrics changes (new cost model,
/// new aggregation): every existing cache entry must miss afterwards.
constexpr const char* kResultFormat = "wcmc-metrics-1";

}  // namespace

void put_metrics(framed::Writer& out, const analysis::SeriesPoint& m) {
  out.put(static_cast<u64>(m.n));
  out.put(m.seconds);
  out.put(m.throughput);
  out.put(m.conflicts_per_elem);
  out.put(m.beta1);
  out.put(m.beta2);
}

analysis::SeriesPoint get_metrics(framed::Reader& in) {
  analysis::SeriesPoint m;
  m.n = static_cast<std::size_t>(in.get<u64>("record n"));
  m.seconds = in.get<double>("record seconds");
  m.throughput = in.get<double>("record throughput");
  m.conflicts_per_elem = in.get<double>("record conflicts");
  m.beta1 = in.get<double>("record beta1");
  m.beta2 = in.get<double>("record beta2");
  return m;
}

u64 code_version_salt() {
  u64 h = fnv1a(fnv_offset_basis, std::string_view(kResultFormat));
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  if (const char* env = std::getenv("WCM_CACHE_SALT");
      env != nullptr && *env != '\0') {
    h = fnv1a(h, std::string_view(env));
  }
  return h;
}

u64 unsigned_env(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  u64 value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, err] = std::from_chars(env, end, value);
  WCM_CHECK_CONFIG(err == std::errc() && ptr == end,
                   std::string("invalid ") + name + " value '" + env +
                       "' (expected an unsigned integer)");
  return value;
}

ResultCache::ResultCache() : ResultCache(code_version_salt()) {}

ResultCache::ResultCache(u64 salt)
    : salt_(salt), max_entries_(cache_max_from_env()) {}

u64 ResultCache::key_of(const std::string& canonical_config) const noexcept {
  u64 h = fnv1a(fnv_offset_basis, &salt_, sizeof(salt_));
  return fnv1a(h, canonical_config.data(), canonical_config.size());
}

void ResultCache::evict_over_cap() {
  if (max_entries_ == 0) {
    return;
  }
  while (entries_.size() > max_entries_ && !lru_.empty()) {
    entries_.erase(lru_.pop_coldest());
    if (telemetry::enabled()) {
      telemetry::registry().counter("runtime.cache.evict").add(1);
    }
  }
}

std::optional<analysis::SeriesPoint> ResultCache::lookup(u64 key) const {
  const auto it = entries_.find(key);
  if (telemetry::enabled()) {
    // Register both counters up front so a snapshot always carries a hit
    // AND a miss row (even at zero) — CI greps rely on both lines.
    telemetry::Registry& reg = telemetry::registry();
    telemetry::Counter& hits = reg.counter("runtime.cache.hit");
    telemetry::Counter& misses = reg.counter("runtime.cache.miss");
    (it == entries_.end() ? misses : hits).add(1);
  }
  if (it == entries_.end()) {
    return std::nullopt;
  }
  lru_.touch(key);
  return it->second;
}

void ResultCache::insert(u64 key, const analysis::SeriesPoint& metrics) {
  const auto [it, admitted] = entries_.insert_or_assign(key, metrics);
  if (!admitted) {
    lru_.touch(key);  // overwrite of a live entry refreshes it
    return;
  }
  lru_.insert(key);
  if (telemetry::enabled()) {
    telemetry::registry().counter("runtime.cache.admit").add(1);
  }
  evict_over_cap();
}

ResultCache ResultCache::load(const std::filesystem::path& path, u64 salt) {
  WCM_SPAN("cache.load");
  ResultCache cache(salt);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return cache;  // cold start
  }
  WCM_FAILPOINT("runtime.cache.load", io_error,
                "injected cache read failure");
  u64 file_salt = 0;
  std::map<u64, analysis::SeriesPoint> entries;
  try {
    framed::Reader in(kMagic, path);
    in.magic();
    in.version({wcmc_version});
    file_salt = in.get<u64>("salt");
    const u64 count = in.count("record count", max_wcmc_records);
    for (u64 i = 0; i < count; ++i) {
      const u64 key = in.get<u64>("record key");
      entries[key] = get_metrics(in);
    }
    in.seal();
    in.end();
  } catch (...) {
    // Counted so operators can spot a rotting cache without scraping logs.
    if (telemetry::enabled()) {
      telemetry::registry().counter("runtime.cache.corrupt").add(1);
    }
    throw;
  }
  if (file_salt != salt) {
    if (telemetry::enabled()) {
      telemetry::registry().counter("runtime.cache.salt_mismatch").add(1);
    }
    return cache;  // salt changed -> every entry is stale; start cold
  }
  cache.entries_ = std::move(entries);
  // Recency for loaded entries is unknowable; seed it in key order (the
  // file's order) and let the bound trim deterministically from the low
  // keys.
  for (const auto& [key, m] : cache.entries_) {
    cache.lru_.insert(key);
  }
  cache.evict_over_cap();
  if (telemetry::enabled()) {
    telemetry::registry()
        .gauge("runtime.cache.store.entries")
        .set(static_cast<double>(cache.entries_.size()));
  }
  return cache;
}

void warn_store_failed(const std::filesystem::path& path, const io_error& e) {
  std::cerr << "warning: cache store failed, keeping the previous "
            << path.string() << ": " << e.what() << " (run continues)\n";
  if (telemetry::enabled()) {
    telemetry::registry().counter("runtime.cache.store_failed").add(1);
  }
}

void ResultCache::store(const std::filesystem::path& path) const {
  WCM_SPAN("cache.store");
  framed::Writer out(kMagic, wcmc_version);
  out.put(salt_);
  out.put(static_cast<u64>(entries_.size()));
  for (const auto& [key, m] : entries_) {
    out.put(key);
    put_metrics(out, m);
  }
  out.seal();
  WCM_FAILPOINT("runtime.cache.store", io_error,
                "injected cache write failure");
  framed::replace_file(path, out.bytes(), kMagic);
}

}  // namespace wcm::runtime
