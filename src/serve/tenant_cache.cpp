#include "serve/tenant_cache.hpp"

#include <string_view>
#include <utility>

#include "runtime/cache.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/framed.hpp"
#include "util/hash.hpp"

namespace wcm::serve {

namespace {

constexpr std::string_view kMagic = "WCMS";

/// Tenant names are 1..64 bytes (the protocol's rule, serve/protocol.cpp).
constexpr u64 kMaxTenantBytes = 64;

void count(const char* name, const std::string& tenant) {
  if (telemetry::enabled()) {
    telemetry::registry().counter(name, {{"tenant", tenant}}).add(1);
  }
}

}  // namespace

TenantCache::TenantCache()
    : salt_(runtime::code_version_salt()),
      max_per_tenant_(runtime::cache_max_from_env()) {}

u64 TenantCache::key_of(const std::string& canonical) const noexcept {
  u64 h = fnv1a(fnv_offset_basis, &salt_, sizeof(salt_));
  return fnv1a(h, canonical.data(), canonical.size());
}

void TenantCache::evict_over_cap(const std::string& tenant, Shard& shard) {
  if (max_per_tenant_ == 0) {
    return;
  }
  while (shard.entries.size() > max_per_tenant_ && !shard.lru.empty()) {
    shard.entries.erase(shard.lru.pop_coldest());
    count("serve.cache.evict", tenant);
  }
}

std::optional<std::string> TenantCache::lookup(const std::string& tenant,
                                               u64 key) {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto shard_it = shards_.find(tenant);
  const auto* shard = shard_it == shards_.end() ? nullptr : &shard_it->second;
  const auto it =
      shard == nullptr ? std::map<u64, std::string>::const_iterator{}
                       : shard->entries.find(key);
  if (shard == nullptr || it == shard->entries.end()) {
    count("serve.cache.miss", tenant);
    return std::nullopt;
  }
  count("serve.cache.hit", tenant);
  shard_it->second.lru.touch(key);
  return it->second;
}

void TenantCache::insert(const std::string& tenant, u64 key,
                         std::string result) {
  const std::lock_guard<std::mutex> lock(*mu_);
  Shard& shard = shards_[tenant];
  const auto [it, admitted] =
      shard.entries.insert_or_assign(key, std::move(result));
  if (!admitted) {
    shard.lru.touch(key);  // shared single-flight result re-inserted
    return;
  }
  shard.lru.insert(key);
  count("serve.cache.admit", tenant);
  evict_over_cap(tenant, shard);
}

std::size_t TenantCache::size(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto it = shards_.find(tenant);
  return it == shards_.end() ? 0 : it->second.entries.size();
}

std::size_t TenantCache::total_size() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  std::size_t total = 0;
  for (const auto& [tenant, shard] : shards_) {
    total += shard.entries.size();
  }
  return total;
}

TenantCache TenantCache::load(const std::filesystem::path& path, u64 salt) {
  WCM_SPAN("serve.cache.load");
  TenantCache cache(salt, runtime::cache_max_from_env());
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return cache;  // cold start
  }
  WCM_FAILPOINT("runtime.cache.load", io_error,
                "injected cache read failure");
  framed::Reader in(kMagic, path);
  in.magic();
  in.version({wcms_version});
  const u64 file_salt = in.get<u64>("salt");
  const u64 record_count = in.count("record count", max_wcms_records);
  std::map<std::string, Shard> shards;
  for (u64 i = 0; i < record_count; ++i) {
    const std::string tenant(in.blob("tenant length", kMaxTenantBytes, 1));
    const u64 key = in.get<u64>("record key");
    shards[tenant].entries[key] =
        std::string(in.blob("value length", max_wcms_value_bytes));
  }
  in.seal();
  in.end();

  if (file_salt != salt) {
    if (telemetry::enabled()) {
      telemetry::registry().counter("serve.cache.salt_mismatch").add(1);
    }
    return cache;  // salt changed -> every entry is stale; start cold
  }
  cache.shards_ = std::move(shards);
  // Recency for loaded entries is unknowable; seed it in key order (the
  // file's order) and let the bound trim deterministically from low keys.
  for (auto& [tenant, shard] : cache.shards_) {
    for (const auto& [key, value] : shard.entries) {
      shard.lru.insert(key);
    }
    cache.evict_over_cap(tenant, shard);
  }
  return cache;
}

void TenantCache::store(const std::filesystem::path& path) const {
  WCM_SPAN("serve.cache.store");
  const std::lock_guard<std::mutex> lock(*mu_);
  framed::Writer out(kMagic, wcms_version);
  out.put(salt_);
  u64 record_count = 0;
  for (const auto& [tenant, shard] : shards_) {
    record_count += shard.entries.size();
  }
  out.put(record_count);
  for (const auto& [tenant, shard] : shards_) {
    for (const auto& [key, value] : shard.entries) {
      out.blob(tenant);
      out.put(key);
      out.blob(value);
    }
  }
  out.seal();
  WCM_FAILPOINT("runtime.cache.store", io_error,
                "injected cache write failure");
  framed::replace_file(path, out.bytes(), kMagic);
}

}  // namespace wcm::serve
