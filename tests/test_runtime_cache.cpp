// WCMC result-cache tests: key addressing, disk round trip, salt-based
// invalidation, corruption detection (checksum, truncation, trailing
// bytes, bad magic), the load/store failpoints, and stores that fail
// without touching the previous file.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/cache.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace wcm::runtime {
namespace {

class CacheFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("wcmc_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

analysis::SeriesPoint metrics(u64 n, double seconds) {
  analysis::SeriesPoint m;
  m.n = n;
  m.seconds = seconds;
  m.throughput = static_cast<double>(n) / seconds;
  m.conflicts_per_elem = 0.5;
  m.beta1 = 1.5;
  m.beta2 = 2.5;
  return m;
}

TEST(CacheKey, DependsOnConfigAndSalt) {
  const ResultCache a(1);
  const ResultCache b(2);
  EXPECT_NE(a.key_of("x"), a.key_of("y"));
  EXPECT_NE(a.key_of("x"), b.key_of("x"));
  EXPECT_EQ(a.key_of("x"), ResultCache(1).key_of("x"));
}

TEST(CacheKey, SaltReactsToEnvironment) {
  unsetenv("WCM_CACHE_SALT");
  const u64 base = code_version_salt();
  EXPECT_EQ(base, code_version_salt());  // stable
  setenv("WCM_CACHE_SALT", "bump-1", 1);
  const u64 bumped = code_version_salt();
  EXPECT_NE(base, bumped);
  unsetenv("WCM_CACHE_SALT");
  EXPECT_EQ(base, code_version_salt());
}

TEST(Cache, LookupMissesThenHits) {
  ResultCache cache(7);
  const u64 key = cache.key_of("cell");
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, metrics(100, 0.5));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, metrics(100, 0.5));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(CacheFile, MissingFileLoadsEmpty) {
  const auto cache = ResultCache::load(path_, 7);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.salt(), 7u);
}

TEST_F(CacheFile, RoundTripsEveryEntry) {
  ResultCache cache(42);
  for (u64 i = 0; i < 10; ++i) {
    cache.insert(cache.key_of("cell-" + std::to_string(i)),
                 metrics(100 + i, 0.1 * static_cast<double>(i + 1)));
  }
  cache.store(path_);

  const auto loaded = ResultCache::load(path_, 42);
  EXPECT_EQ(loaded.size(), 10u);
  for (u64 i = 0; i < 10; ++i) {
    const auto hit = loaded.lookup(loaded.key_of("cell-" + std::to_string(i)));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, metrics(100 + i, 0.1 * static_cast<double>(i + 1))) << i;
  }
}

TEST_F(CacheFile, StoredFilesAreByteStable) {
  const auto write = [&](const std::filesystem::path& p) {
    ResultCache cache(42);
    cache.insert(cache.key_of("b"), metrics(2, 0.2));
    cache.insert(cache.key_of("a"), metrics(1, 0.1));
    cache.store(p);
  };
  const auto other = path_.string() + ".second";
  write(path_);
  write(other);
  std::ifstream f1(path_, std::ios::binary);
  std::ifstream f2(other, std::ios::binary);
  const std::string c1((std::istreambuf_iterator<char>(f1)), {});
  const std::string c2((std::istreambuf_iterator<char>(f2)), {});
  EXPECT_EQ(c1, c2);
  std::filesystem::remove(other);
}

TEST_F(CacheFile, SaltMismatchInvalidatesEverything) {
  ResultCache cache(1);
  cache.insert(cache.key_of("cell"), metrics(5, 0.5));
  cache.store(path_);

  const auto stale = ResultCache::load(path_, 2);  // code changed
  EXPECT_EQ(stale.size(), 0u);
  EXPECT_EQ(stale.salt(), 2u);

  const auto fresh = ResultCache::load(path_, 1);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST_F(CacheFile, CorruptPayloadIsRejected) {
  ResultCache cache(1);
  cache.insert(cache.key_of("cell"), metrics(5, 0.5));
  cache.store(path_);

  // Flip one payload byte: the checksum must catch it.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(20);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);
}

TEST_F(CacheFile, TruncationAndTrailingBytesAreRejected) {
  ResultCache cache(1);
  cache.insert(cache.key_of("cell"), metrics(5, 0.5));
  cache.store(path_);
  const auto size = std::filesystem::file_size(path_);

  std::filesystem::resize_file(path_, size - 3);
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);

  std::filesystem::resize_file(path_, size);  // zero-padded -> bad checksum
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);

  cache.store(path_);
  std::ofstream(path_, std::ios::app | std::ios::binary) << 'x';
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);
}

TEST_F(CacheFile, BadMagicIsRejected) {
  std::ofstream(path_, std::ios::binary) << "WCMI this is not a cache";
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);
}

TEST_F(CacheFile, AbsurdRecordCountIsRejectedBeforeAllocation) {
  ResultCache cache(1);
  cache.store(path_);
  // Patch the count field (offset 16: magic 4 + version 4 + salt 8) to a
  // value far above the format cap.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  const u64 absurd = max_wcmc_records + 1;
  f.seekp(16);
  f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  f.close();
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);
}

// LRU bound (WCM_CACHE_MAX): a capped cache admits every insert but
// evicts the coldest entries over the cap; lookups refresh recency.
TEST(CacheLru, BoundedCacheEvictsTheColdestEntry) {
  ResultCache cache(7, 3);
  EXPECT_EQ(cache.max_entries(), 3u);
  const u64 a = cache.key_of("a");
  const u64 b = cache.key_of("b");
  const u64 c = cache.key_of("c");
  cache.insert(a, metrics(1, 0.1));
  cache.insert(b, metrics(2, 0.2));
  cache.insert(c, metrics(3, 0.3));
  ASSERT_TRUE(cache.lookup(a).has_value());  // refresh: b is now coldest
  cache.insert(cache.key_of("d"), metrics(4, 0.4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_TRUE(cache.lookup(cache.key_of("d")).has_value());
}

TEST(CacheLru, ReinsertRefreshesInsteadOfGrowing) {
  ResultCache cache(7, 2);
  const u64 a = cache.key_of("a");
  const u64 b = cache.key_of("b");
  cache.insert(a, metrics(1, 0.1));
  cache.insert(b, metrics(2, 0.2));
  cache.insert(a, metrics(9, 0.9));  // refresh + overwrite, no eviction
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(cache.key_of("c"), metrics(3, 0.3));  // evicts b, not a
  EXPECT_FALSE(cache.lookup(b).has_value());
  const auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, metrics(9, 0.9));
}

TEST(CacheLru, ZeroMeansUnbounded) {
  ResultCache cache(7, 0);
  for (u64 i = 0; i < 100; ++i) {
    cache.insert(cache.key_of(std::to_string(i)), metrics(i, 0.1));
  }
  EXPECT_EQ(cache.size(), 100u);
}

TEST(CacheLru, EnvVarBoundsEveryNewCache) {
  setenv("WCM_CACHE_MAX", "2", 1);
  ResultCache cache(7);
  unsetenv("WCM_CACHE_MAX");
  EXPECT_EQ(cache.max_entries(), 2u);
  for (int i = 0; i < 5; ++i) {
    cache.insert(cache.key_of(std::to_string(i)), metrics(1, 0.1));
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CacheLru, GarbageEnvVarIsConfigError) {
  for (const char* bad : {"abc", "12x", "-3", " 4"}) {
    setenv("WCM_CACHE_MAX", bad, 1);
    EXPECT_THROW(ResultCache{7}, config_error) << bad;
    EXPECT_THROW((void)cache_max_from_env(), config_error) << bad;
  }
  unsetenv("WCM_CACHE_MAX");
  EXPECT_EQ(cache_max_from_env(), 0u);
}

TEST_F(CacheFile, LoadAppliesTheEnvBound) {
  {
    ResultCache cache(1, 0);
    for (u64 i = 0; i < 5; ++i) {
      cache.insert(cache.key_of(std::to_string(i)), metrics(i, 0.5));
    }
    cache.store(path_);
  }
  setenv("WCM_CACHE_MAX", "2", 1);
  const auto bounded = ResultCache::load(path_, 1);
  unsetenv("WCM_CACHE_MAX");
  EXPECT_EQ(bounded.size(), 2u);
  const auto full = ResultCache::load(path_, 1);
  EXPECT_EQ(full.size(), 5u);
}

TEST_F(CacheFile, LoadFailpointFires) {
  ResultCache cache(1);
  cache.store(path_);
  failpoint::scoped_arm fp("runtime.cache.load");
  EXPECT_THROW((void)ResultCache::load(path_, 1), io_error);
}

TEST_F(CacheFile, StoreFailpointFires) {
  const ResultCache cache(1);
  failpoint::scoped_arm fp("runtime.cache.store");
  EXPECT_THROW(cache.store(path_), io_error);
}

std::string bytes_of(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

/// Whether a store left a sibling temporary of `target` behind.
bool temporary_left(const std::filesystem::path& target) {
  const std::string prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

TEST_F(CacheFile, FailedStoreKeepsThePreviousFile) {
  ResultCache cache(1);
  cache.insert(cache.key_of("old"), metrics(5, 0.5));
  cache.store(path_);
  const std::string before = bytes_of(path_);
  cache.insert(cache.key_of("new"), metrics(6, 0.6));
  {
    failpoint::scoped_arm fp("runtime.cache.store");
    EXPECT_THROW(cache.store(path_), io_error);
  }
  EXPECT_EQ(bytes_of(path_), before);
  EXPECT_FALSE(temporary_left(path_));
  const auto loaded = ResultCache::load(path_, 1);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.lookup(cache.key_of("old")), metrics(5, 0.5));
}

TEST_F(CacheFile, StoreThatCannotReplaceTheTargetLeavesNoTemporary) {
  // A non-empty directory at the target: the temporary is written whole,
  // then the rename over the target fails.
  std::filesystem::create_directories(path_ / "occupied");
  ResultCache cache(1);
  cache.insert(cache.key_of("cell"), metrics(5, 0.5));
  EXPECT_THROW(cache.store(path_), io_error);
  EXPECT_TRUE(std::filesystem::is_directory(path_ / "occupied"));
  EXPECT_FALSE(temporary_left(path_));
  std::filesystem::remove_all(path_);
}

}  // namespace
}  // namespace wcm::runtime
