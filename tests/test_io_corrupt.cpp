// Table-driven corrupt-input corpus for the WCMI reader — every malformed
// file must surface a typed wcm::io_error, never crash, hang, or drive a
// pathological allocation, and v1 files must stay readable forever — plus
// the matching corpus for the WCMT trace reader (wcm::parse_error), the
// WCMJ journal's torn-tail contract, and one shared corpus over committed
// goldens of all four checksummed formats (WCMI, WCMC, WCMS, WCMJ).

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/trace.hpp"
#include "runtime/journal.hpp"
#include "serve/tenant_cache.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "workload/inputs.hpp"
#include "workload/io.hpp"

namespace wcm::workload {
namespace {

/// Byte-level WCMI builder so each corpus entry can corrupt one field.
struct FileBuilder {
  std::vector<char> bytes;

  FileBuilder& raw(const void* data, std::size_t len) {
    const char* p = static_cast<const char*>(data);
    bytes.insert(bytes.end(), p, p + len);
    return *this;
  }
  FileBuilder& magic(const char* m = "WCMI") { return raw(m, 4); }
  FileBuilder& u32(std::uint32_t v) { return raw(&v, sizeof(v)); }
  FileBuilder& u64(std::uint64_t v) { return raw(&v, sizeof(v)); }
  FileBuilder& keys(const std::vector<std::int32_t>& ks) {
    return ks.empty() ? *this : raw(ks.data(), ks.size() * sizeof(ks[0]));
  }
};

class IoCorruptTest : public ::testing::Test {
 protected:
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("wcm_io_corrupt_" + std::to_string(::getpid()) + ".wcmi");
  void TearDown() override { std::filesystem::remove(path_); }

  void write_file(const std::vector<char>& bytes) {
    std::ofstream os(path_, std::ios::binary);
    ASSERT_TRUE(os.is_open());
    if (!bytes.empty()) {
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }

  /// A byte-exact valid v2 file for 4 keys (via the real writer).
  std::vector<char> valid_v2_bytes() {
    write_binary(path_, {3, 1, 2, 0});
    std::ifstream is(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }
};

TEST_F(IoCorruptTest, CorpusThrowsTypedIoError) {
  struct Case {
    const char* name;
    std::vector<char> bytes;
  };
  const std::vector<Case> corpus = {
      {"zero-length file", {}},
      {"truncated header", FileBuilder{}.magic().u32(2).bytes},
      {"bad magic",
       FileBuilder{}.magic("XXXX").u32(2).u64(0).u64(0).bytes},
      {"wrong version",
       FileBuilder{}.magic().u32(99).u64(0).u64(0).bytes},
      {"oversized count",
       FileBuilder{}.magic().u32(2).u64(std::uint64_t{1} << 60).bytes},
      {"count beyond cap with plausible size",
       FileBuilder{}.magic().u32(2).u64(max_wcmi_keys + 1).bytes},
      {"v2 payload shorter than count",
       FileBuilder{}
           .magic()
           .u32(2)
           .u64(100)
           .keys({1, 2, 3})
           .u64(0)
           .bytes},
      {"v2 payload longer than count",
       FileBuilder{}
           .magic()
           .u32(2)
           .u64(1)
           .keys({1, 2, 3, 4})
           .u64(0)
           .bytes},
      {"v1 truncated payload",
       FileBuilder{}.magic().u32(1).u64(100).keys({1, 2, 3}).bytes},
      {"v2 bad checksum",
       FileBuilder{}
           .magic()
           .u32(2)
           .u64(2)
           .keys({0, 1})
           .u64(0xdeadbeef)
           .bytes},
  };
  for (const auto& c : corpus) {
    SCOPED_TRACE(c.name);
    write_file(c.bytes);
    EXPECT_THROW((void)read_binary(path_), io_error);
  }
}

TEST_F(IoCorruptTest, MissingFileIsIoError) {
  EXPECT_THROW((void)read_binary(path_.string() + ".definitely-missing"),
               io_error);
}

TEST_F(IoCorruptTest, FlippedChecksumByteIsDetected) {
  auto bytes = valid_v2_bytes();
  ASSERT_GE(bytes.size(), 8u);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  write_file(bytes);
  EXPECT_THROW((void)read_binary(path_), io_error);
}

TEST_F(IoCorruptTest, FlippedPayloadByteIsDetected) {
  auto bytes = valid_v2_bytes();
  ASSERT_GE(bytes.size(), 16u + 4u + 8u);
  bytes[16] = static_cast<char>(bytes[16] ^ 0x40);  // first key byte
  write_file(bytes);
  EXPECT_THROW((void)read_binary(path_), io_error);
}

TEST_F(IoCorruptTest, TruncatedEverywhereNeverCrashes) {
  const auto bytes = valid_v2_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    write_file({bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW((void)read_binary(path_), io_error);
  }
}

TEST_F(IoCorruptTest, ErrorsCarryIoFailureCode) {
  write_file({});
  try {
    (void)read_binary(path_);
    FAIL() << "zero-length file was accepted";
  } catch (const io_error& e) {
    EXPECT_EQ(e.code(), errc::io_failure);
  }
}

TEST_F(IoCorruptTest, V1FilesStillRoundTrip) {
  const std::vector<std::int32_t> keys{4, 2, 0, 3, 1};
  write_file(FileBuilder{}.magic().u32(1).u64(keys.size()).keys(keys).bytes);
  const auto read = read_binary(path_);
  ASSERT_EQ(read.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(read[i], keys[i]);
  }
}

TEST_F(IoCorruptTest, V1EmptyFileReads) {
  write_file(FileBuilder{}.magic().u32(1).u64(0).bytes);
  EXPECT_TRUE(read_binary(path_).empty());
}

TEST_F(IoCorruptTest, WriterEmitsV2ReaderRoundTrips) {
  const auto keys = random_permutation(777, 5);
  write_binary(path_, keys);
  EXPECT_EQ(read_binary(path_), keys);
  // Layout check: header + 4n payload + trailing 8-byte checksum.
  EXPECT_EQ(std::filesystem::file_size(path_), 16 + 4 * keys.size() + 8);
}

// The WCMT trace reader gets the same treatment: every malformed stream is
// a typed wcm::parse_error.  (`wcmgen analyze` maps these to exit code 3;
// see docs/LINT.md for the grammar.)
TEST(TraceCorrupt, CorpusThrowsTypedParseError) {
  struct Case {
    const char* name;
    const char* text;
  };
  const std::vector<Case> corpus = {
      {"empty stream", ""},
      {"bad magic", "WCMX 32 64 1\nR 0:0\n"},
      {"v2 header missing word count", "WCMT2 32 1\nR 0:0\n"},
      {"zero warp size", "WCMT2 0 64 1\nR 0:0\n"},
      {"warp size beyond mask word", "WCMT2 65 64 1\nR 0:0\n"},
      {"fewer steps than declared", "WCMT2 32 64 3\nR 0:0\nW 1:1\n"},
      {"more steps than declared", "WCMT2 32 64 1\nR 0:0\nW 1:1\n"},
      {"unknown step kind", "WCMT2 32 64 1\nQ 0:0\n"},
      {"access without colon", "WCMT2 32 64 1\nR 00\n"},
      {"non-numeric lane", "WCMT2 32 64 1\nR x:0\n"},
      {"duplicate lane in one step", "WCMT2 32 64 1\nR 3:0 3:1\n"},
      {"lane >= warp size", "WCMT2 32 64 1\nR 99:0\n"},
      {"barrier with operands", "WCMT2 32 64 1\nB 1\n"},
      {"fill missing count", "WCMT2 32 64 1\nF 0\n"},
      {"fill with extra operand", "WCMT2 32 64 1\nF 0 4 9\n"},
      {"trailing garbage after last step", "WCMT2 32 64 1\nR 0:0\njunk\n"},
      {"v1 with atomic step", "WCMT 32 1\nAR 0:0\n"},
      {"v1 with barrier", "WCMT 32 1\nB\n"},
  };
  for (const auto& c : corpus) {
    SCOPED_TRACE(c.name);
    std::istringstream is(c.text);
    EXPECT_THROW((void)gpusim::read_trace(is), parse_error);
  }
}

// The WCMJ campaign journal gets the same treatment.  Its contract is
// subtler than the WCMI reader's: a torn or corrupt *tail* is the
// expected crash artifact and must be truncated (keeping the sealed
// prefix), while a file that is recognizably not WCMJ at all is a typed
// io_error that never gets clobbered.
class JournalCorruptTest : public ::testing::Test {
 protected:
  static constexpr u64 kSalt = 11;
  static constexpr u64 kFingerprint = 22;
  static constexpr std::size_t kHeader = 32;  // documented WCMJ layout
  static constexpr std::size_t kRecord = 64;

  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("wcm_journal_corrupt_" + std::to_string(::getpid()) + ".wcmj");
  void TearDown() override { std::filesystem::remove(path_); }

  /// A byte-exact valid journal of `records` sealed cells (via the real
  /// writer), returned for surgical corruption.
  std::vector<char> valid_bytes(int records) {
    std::filesystem::remove(path_);
    {
      runtime::JournalWriter writer(path_, kSalt, kFingerprint,
                                    runtime::JournalReplay{});
      for (int i = 0; i < records; ++i) {
        runtime::CellMetrics m;
        m.n = 64u + static_cast<u64>(i);
        m.seconds = 0.25 * i;
        m.throughput = 100.0 + i;
        writer.append(100 + static_cast<u64>(i), m);
      }
    }
    std::ifstream is(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  void write_file(const std::vector<char>& bytes) {
    std::ofstream os(path_, std::ios::binary);
    ASSERT_TRUE(os.is_open());
    if (!bytes.empty()) {
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }

  runtime::JournalReplay replay() {
    return runtime::replay_journal(path_, kSalt, kFingerprint);
  }
};

TEST_F(JournalCorruptTest, MissingAndEmptyFilesAreFreshStarts) {
  std::filesystem::remove(path_);
  auto r = replay();
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.compatible);
  EXPECT_FALSE(r.truncated);

  write_file({});
  r = replay();
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.compatible);
  EXPECT_FALSE(r.truncated);
}

TEST_F(JournalCorruptTest, RoundTripReplaysEveryRecord) {
  const auto bytes = valid_bytes(3);
  EXPECT_EQ(bytes.size(), kHeader + 3 * kRecord);
  const auto r = replay();
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_TRUE(r.compatible);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.valid_bytes, bytes.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.records[i].key, 100 + i);
    EXPECT_EQ(r.records[i].metrics.n, 64 + i);
    EXPECT_EQ(r.records[i].metrics.seconds, 0.25 * static_cast<double>(i));
    EXPECT_EQ(r.records[i].metrics.throughput,
              100.0 + static_cast<double>(i));
  }
}

TEST_F(JournalCorruptTest, TruncatedEverywhereKeepsTheSealedPrefix) {
  // Chop the file at every possible byte: replay never throws, never
  // crashes, and always yields exactly the records whose chain word made
  // it to disk intact.
  const auto bytes = valid_bytes(2);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    write_file({bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    const auto r = replay();
    EXPECT_TRUE(r.compatible);
    const std::size_t sealed = len < kHeader ? 0 : (len - kHeader) / kRecord;
    EXPECT_EQ(r.records.size(), sealed);
    // A cut exactly at a record boundary is a clean (shorter) journal;
    // anything else is a torn tail.
    const bool torn =
        len < kHeader ? len > 0 : (len - kHeader) % kRecord != 0;
    EXPECT_EQ(r.truncated, torn);
  }
}

TEST_F(JournalCorruptTest, FlippedPayloadByteDropsThatRecordAndTheTail) {
  auto bytes = valid_bytes(3);
  bytes[kHeader + kRecord + 5] ^= 0x20;  // inside record 1's payload
  write_file(bytes);
  const auto r = replay();
  ASSERT_EQ(r.records.size(), 1u);  // record 0 survives; 1 and 2 are gone
  EXPECT_EQ(r.records[0].key, 100u);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.valid_bytes, kHeader + kRecord);
}

TEST_F(JournalCorruptTest, FlippedChainByteDropsTheRecordItSeals) {
  auto bytes = valid_bytes(2);
  bytes[kHeader + kRecord - 1] ^= 0x01;  // record 0's chain word
  write_file(bytes);
  const auto r = replay();
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.valid_bytes, kHeader);
}

TEST_F(JournalCorruptTest, GarbageTailIsTruncatedNotFatal) {
  auto bytes = valid_bytes(2);
  const std::size_t clean = bytes.size();
  const char junk[] = "crash-mid-write leftovers";
  bytes.insert(bytes.end(), junk, junk + sizeof(junk));
  write_file(bytes);
  const auto r = replay();
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.valid_bytes, clean);
}

TEST_F(JournalCorruptTest, FlippedHeaderSumByteIsATornHeader) {
  auto bytes = valid_bytes(1);
  bytes[kHeader - 2] ^= 0x04;  // inside header_sum
  write_file(bytes);
  const auto r = replay();
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.compatible);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.valid_bytes, 0u);  // writer rewrites from scratch
}

TEST_F(JournalCorruptTest, BadMagicIsTypedIoError) {
  write_file({'X', 'X', 'X', 'X', 0, 0, 0, 0});
  EXPECT_THROW((void)replay(), io_error);
  write_file({'p', 'r', 'e', 'c', 'i', 'o', 'u', 's'});
  try {
    (void)replay();
    FAIL() << "non-WCMJ file was accepted";
  } catch (const io_error& e) {
    EXPECT_EQ(e.code(), errc::io_failure);
  }
}

TEST_F(JournalCorruptTest, UnsupportedVersionIsTypedIoError) {
  auto bytes = valid_bytes(1);
  bytes[4] = 99;  // version u32 follows the magic
  write_file(bytes);
  EXPECT_THROW((void)replay(), io_error);
}

TEST_F(JournalCorruptTest, SaltOrFingerprintMismatchIsIncompatible) {
  (void)valid_bytes(2);
  auto r = runtime::replay_journal(path_, kSalt + 1, kFingerprint);
  EXPECT_FALSE(r.compatible);
  EXPECT_TRUE(r.records.empty());
  r = runtime::replay_journal(path_, kSalt, kFingerprint + 1);
  EXPECT_FALSE(r.compatible);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(JournalCorruptTest, WriterRefusesToClobberForeignFiles) {
  const std::vector<char> precious{'n', 'o', 't', ' ', 'w', 'c', 'm', 'j'};
  write_file(precious);
  EXPECT_THROW(runtime::JournalWriter(path_, kSalt, kFingerprint,
                                      runtime::JournalReplay{}),
               io_error);
  std::ifstream is(path_, std::ios::binary);
  const std::vector<char> after{std::istreambuf_iterator<char>(is),
                                std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, precious);  // untouched
}

TEST_F(JournalCorruptTest, WriterResumesPastATornTail) {
  auto bytes = valid_bytes(2);
  bytes.push_back('j');  // torn tail: half-written third record
  bytes.push_back('u');
  write_file(bytes);
  auto r = replay();
  ASSERT_EQ(r.records.size(), 2u);
  ASSERT_TRUE(r.truncated);
  {
    runtime::JournalWriter writer(path_, kSalt, kFingerprint, r);
    runtime::CellMetrics m;
    m.n = 999;
    writer.append(555, m);
  }
  r = replay();  // tail gone, chain intact through the new record
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.records[2].key, 555u);
  EXPECT_EQ(r.records[2].metrics.n, 999u);
}

TEST(TraceCorrupt, ValidStreamsStillParse) {
  std::istringstream v2("WCMT2 32 64 4\nF 0 64\nAW 0:1 1:2\nB\nR 5:3\n");
  const auto t2 = gpusim::read_trace(v2);
  EXPECT_EQ(t2.steps.size(), 4u);
  EXPECT_EQ(t2.logical_words, 64u);

  std::istringstream v1("WCMT 32 2\nW 0:0 1:1\nR 1:0 0:1\n");
  const auto t1 = gpusim::read_trace(v1);
  EXPECT_EQ(t1.steps.size(), 2u);
  EXPECT_EQ(t1.logical_words, 0u);  // v1 carries no word count
}

// ---- Goldens of every checksummed format, and one corpus over them -------
//
// tests/golden/formats holds one small file per format, written by the
// hand-rolled writers that predate util/framed: WCMI v1 (hand-built),
// WCMI v2, WCMC, WCMS with two tenants, and WCMJ with three records.  Each
// loads to its pinned contents and re-writes byte for byte.  Then every
// truncation, every single-byte flip and one appended byte of each golden
// gets its format's decision: WCMI v2, WCMC and WCMS reject all of them;
// WCMI v1 (no seal) rejects every damaged header and truncation; WCMJ
// keeps the sealed prefix before the damage.

constexpr u64 kGoldenSalt = 0x5eed;
constexpr u64 kGoldenFingerprint = 0xf00d;
constexpr u64 kGoldenChain = 0x29ed52b407d3f68cULL;  // WCMJ's last seal

runtime::CellMetrics cell(u64 n, double seconds, double throughput,
                          double conflicts, double beta1, double beta2) {
  runtime::CellMetrics m;
  m.n = n;
  m.seconds = seconds;
  m.throughput = throughput;
  m.conflicts_per_element = conflicts;
  m.beta1 = beta1;
  m.beta2 = beta2;
  return m;
}

const std::vector<word> kWcmiV1Keys{4, 2, 0, 3, 1};
const std::vector<word> kWcmiV2Keys{3, 1, 2, 0, -5, 2147483647, -2147483648LL};
const std::vector<std::pair<u64, runtime::CellMetrics>> kWcmcEntries{
    {0x0123456789abcdefULL, cell(64, 0.25, 256.0, 1.5, 2.0, 3.5)},
    {42, cell(4096, 1e-3, 4.096e6, 0.0, 1.0, 1.0)},
    {7, cell(128, 0.5, 256.0, 31.0 / 32.0, 16.0, 17.25)}};
struct WcmsEntry {
  const char* tenant;
  u64 key;
  const char* value;
};
const std::vector<WcmsEntry> kWcmsEntries{
    {"alpha", 11, R"({"a":1})"}, {"alpha", 3, "x"}, {"beta", 5, R"({"b":[1,2]})"}};
const std::vector<std::pair<u64, runtime::CellMetrics>> kWcmjRecords{
    {100, cell(64, 0.25, 256.0, 1.5, 2.0, 3.5)},
    {101, cell(65, 0.5, 130.0, 0.0, 1.0, 1.0)},
    {102, cell(66, 0.75, 88.0, 2.25, 4.0, 8.5)}};

std::vector<char> slurp(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::vector<char> golden(const char* name) {
  const auto bytes =
      slurp(std::filesystem::path(WCM_GOLDEN_DIR) / "formats" / name);
  EXPECT_FALSE(bytes.empty()) << name;
  return bytes;
}

/// One damaged copy of a golden.
struct Variant {
  enum Kind { truncated, flipped, trailing } kind;
  std::size_t at;  ///< truncation length, or flipped byte offset
  std::vector<char> bytes;
};

std::vector<Variant> damaged(const std::vector<char>& bytes) {
  std::vector<Variant> out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    out.push_back({Variant::truncated, len,
                   {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)}});
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.push_back({Variant::flipped, i, bytes});
    out.back().bytes[i] = static_cast<char>(out.back().bytes[i] ^ 0xff);
  }
  out.push_back({Variant::trailing, bytes.size(), bytes});
  out.back().bytes.push_back('\x01');
  return out;
}

std::string describe(const Variant& v) {
  static const char* const kNames[] = {"truncated at ", "flipped byte ",
                                       "trailing byte at "};
  return kNames[v.kind] + std::to_string(v.at);
}

class FormatGolden : public ::testing::Test {
 protected:
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("wcm_format_golden_" + std::to_string(::getpid()) + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  void TearDown() override { std::filesystem::remove(path_); }

  void write_file(const std::vector<char>& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(FormatGolden, WcmiV1LoadsToItsPinnedKeys) {
  const auto bytes = golden("wcmi_v1.bin");
  std::vector<std::int32_t> keys(kWcmiV1Keys.begin(), kWcmiV1Keys.end());
  EXPECT_EQ(bytes, FileBuilder{}.magic().u32(1).u64(keys.size()).keys(keys).bytes);
  write_file(bytes);
  EXPECT_EQ(read_binary(path_), kWcmiV1Keys);
}

TEST_F(FormatGolden, WcmiV2RoundTripsByteForByte) {
  const auto bytes = golden("wcmi_v2.bin");
  write_file(bytes);
  EXPECT_EQ(read_binary(path_), kWcmiV2Keys);
  write_binary(path_, kWcmiV2Keys);
  EXPECT_EQ(slurp(path_), bytes);
}

TEST_F(FormatGolden, WcmcRoundTripsByteForByte) {
  const auto bytes = golden("wcmc_v1.bin");
  write_file(bytes);
  const auto cache = runtime::ResultCache::load(path_, kGoldenSalt);
  EXPECT_EQ(cache.size(), kWcmcEntries.size());
  for (const auto& [key, metrics] : kWcmcEntries) {
    EXPECT_EQ(cache.lookup(key), metrics) << key;
  }
  std::filesystem::remove(path_);
  runtime::ResultCache fresh(kGoldenSalt, 0);
  for (const auto& [key, metrics] : kWcmcEntries) {
    fresh.insert(key, metrics);
  }
  fresh.store(path_);
  EXPECT_EQ(slurp(path_), bytes);
}

TEST_F(FormatGolden, WcmsRoundTripsByteForByte) {
  const auto bytes = golden("wcms_v1.bin");
  write_file(bytes);
  auto cache = serve::TenantCache::load(path_, kGoldenSalt);
  EXPECT_EQ(cache.total_size(), kWcmsEntries.size());
  EXPECT_EQ(cache.size("alpha"), 2u);
  EXPECT_EQ(cache.size("beta"), 1u);
  for (const auto& e : kWcmsEntries) {
    EXPECT_EQ(cache.lookup(e.tenant, e.key), std::string(e.value)) << e.key;
  }
  std::filesystem::remove(path_);
  serve::TenantCache fresh(kGoldenSalt, 0);
  for (const auto& e : kWcmsEntries) {
    fresh.insert(e.tenant, e.key, e.value);
  }
  fresh.store(path_);
  EXPECT_EQ(slurp(path_), bytes);
}

TEST_F(FormatGolden, WcmjRoundTripsByteForByte) {
  const auto bytes = golden("wcmj_v1.bin");
  write_file(bytes);
  const auto r =
      runtime::replay_journal(path_, kGoldenSalt, kGoldenFingerprint);
  EXPECT_TRUE(r.compatible);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.valid_bytes, bytes.size());
  EXPECT_EQ(r.chain, kGoldenChain);
  ASSERT_EQ(r.records.size(), kWcmjRecords.size());
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].key, kWcmjRecords[i].first);
    EXPECT_EQ(r.records[i].metrics, kWcmjRecords[i].second);
  }
  std::filesystem::remove(path_);
  {
    runtime::JournalWriter writer(path_, kGoldenSalt, kGoldenFingerprint,
                                  runtime::JournalReplay{});
    for (const auto& [key, metrics] : kWcmjRecords) {
      writer.append(key, metrics);
    }
  }
  EXPECT_EQ(slurp(path_), bytes);
}

TEST_F(FormatGolden, WcmiV2CorpusIsAlwaysIoError) {
  for (const auto& v : damaged(golden("wcmi_v2.bin"))) {
    SCOPED_TRACE(describe(v));
    write_file(v.bytes);
    EXPECT_THROW((void)read_binary(path_), io_error);
  }
}

TEST_F(FormatGolden, WcmiV1CorpusRejectsDamagedHeadersAndPayloads) {
  // No seal: a flipped key byte reads back as a different key, and bytes
  // after the payload are tolerated; everything else is an io_error.
  constexpr std::size_t kHeader = 16;
  for (const auto& v : damaged(golden("wcmi_v1.bin"))) {
    SCOPED_TRACE(describe(v));
    write_file(v.bytes);
    if (v.kind == Variant::trailing) {
      EXPECT_EQ(read_binary(path_), kWcmiV1Keys);
    } else if (v.kind == Variant::flipped && v.at >= kHeader) {
      const auto keys = read_binary(path_);
      ASSERT_EQ(keys.size(), kWcmiV1Keys.size());
      for (std::size_t k = 0; k < keys.size(); ++k) {
        EXPECT_EQ(keys[k] != kWcmiV1Keys[k], k == (v.at - kHeader) / 4) << k;
      }
    } else {
      EXPECT_THROW((void)read_binary(path_), io_error);
    }
  }
}

TEST_F(FormatGolden, WcmcCorpusIsAlwaysIoError) {
  for (const auto& v : damaged(golden("wcmc_v1.bin"))) {
    SCOPED_TRACE(describe(v));
    write_file(v.bytes);
    EXPECT_THROW((void)runtime::ResultCache::load(path_, kGoldenSalt),
                 io_error);
  }
}

TEST_F(FormatGolden, WcmsCorpusIsAlwaysIoError) {
  for (const auto& v : damaged(golden("wcms_v1.bin"))) {
    SCOPED_TRACE(describe(v));
    write_file(v.bytes);
    EXPECT_THROW((void)serve::TenantCache::load(path_, kGoldenSalt),
                 io_error);
  }
}

TEST_F(FormatGolden, WcmjCorpusKeepsTheSealedPrefix) {
  constexpr std::size_t kHeader = 32;
  constexpr std::size_t kRecord = 64;
  const auto bytes = golden("wcmj_v1.bin");
  // The chain after `records` sealed records: the header's running hash,
  // then each record's stored seal.
  const auto chain_after = [&bytes](std::size_t records) {
    if (records == 0) {
      return fnv1a(fnv_offset_basis, bytes.data(), kHeader);
    }
    u64 seal = 0;
    std::memcpy(&seal, bytes.data() + kHeader + records * kRecord - 8, 8);
    return seal;
  };
  for (const auto& v : damaged(bytes)) {
    SCOPED_TRACE(describe(v));
    write_file(v.bytes);
    if (v.kind == Variant::flipped && v.at < 8) {
      EXPECT_THROW((void)runtime::replay_journal(path_, kGoldenSalt,
                                                 kGoldenFingerprint),
                   io_error);  // magic or version
      continue;
    }
    // The first damaged byte (a cut, a flip past the version, or the
    // appended byte) decides what survives: a damaged header is torn,
    // and only records sealed wholly before the damage replay.
    const std::size_t damage = v.at;
    const bool header_ok = damage >= kHeader;
    const std::size_t records =
        header_ok ? std::min((damage - kHeader) / kRecord, kWcmjRecords.size())
                  : 0;
    const bool clean_cut =
        v.kind == Variant::truncated &&
        (damage == 0 || (header_ok && (damage - kHeader) % kRecord == 0));
    const auto r =
        runtime::replay_journal(path_, kGoldenSalt, kGoldenFingerprint);
    EXPECT_TRUE(r.compatible);
    ASSERT_EQ(r.records.size(), records);
    for (std::size_t i = 0; i < records; ++i) {
      EXPECT_EQ(r.records[i].key, kWcmjRecords[i].first);
      EXPECT_EQ(r.records[i].metrics, kWcmjRecords[i].second);
    }
    EXPECT_EQ(r.truncated, !clean_cut);
    EXPECT_EQ(r.valid_bytes, header_ok ? kHeader + records * kRecord : 0u);
    EXPECT_EQ(r.chain, header_ok ? chain_after(records) : 0u);
  }
}

TEST(WcmsBound, HugeValueLengthFailsWithoutAllocatingIt) {
  // 51 bytes: a WCMS header and one record whose value length reads 2^30
  // (the format's cap) but whose file holds only two value bytes.
  const auto path = std::filesystem::temp_directory_path() /
                    ("wcm_wcms_bound_" + std::to_string(::getpid()));
  const auto bytes = FileBuilder{}
                         .magic("WCMS")
                         .u32(serve::wcms_version)
                         .u64(kGoldenSalt)
                         .u64(1)
                         .u64(1)
                         .raw("t", 1)
                         .u64(9)
                         .u64(serve::max_wcms_value_bytes)
                         .raw("{}", 2)
                         .bytes;
  ASSERT_EQ(bytes.size(), 51u);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  EXPECT_THROW((void)serve::TenantCache::load(path, kGoldenSalt), io_error);
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);  // KiB
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace wcm::workload
