#pragma once
// Crash-safe write-ahead journal of completed campaign cells.
//
// A campaign that dies — worker crash, SIGKILL, power loss — must not
// lose the cells it already finished.  The journal is an append-only file
// of (key, metrics) records, each sealed by a running FNV-1a chain over
// every byte of the file so far, flushed after every append.  On resume,
// replay_journal() walks the records, stops at the first torn or corrupt
// one (truncating the tail instead of rejecting the file: a torn final
// record is the *expected* crash artifact, not corruption worth dying
// over), and the campaign re-schedules only the cells that are missing.
//
// On disk a WCMJ file (docs/RUNTIME.md) is a util/framed.hpp file of the
// salt, the campaign_fingerprint() and a header_sum (the running hash of
// the bytes before it, chained on like any field), then 64-byte (key,
// SeriesPoint) records, each sealed by the running hash of every byte
// before it, earlier seals excluded: a flipped byte anywhere invalidates
// that record and every later one.
//
// A salt or fingerprint mismatch marks the journal incompatible (the code
// or the spec changed): replay returns no records and the writer starts
// fresh.  A non-empty file that is not WCMJ at all is an io_error — the
// journal never clobbers a file it does not recognize.
//
// Failpoints: "runtime.journal.replay" (replay_journal) and
// "runtime.journal.append" (JournalWriter::append) both surface io_error.
// Chaos hook: WCM_CHAOS_KILL_AFTER=<n> makes the writer _Exit(77) after n
// appends, simulating process death mid-campaign (tests/chaos_ci.cmake).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "runtime/cache.hpp"
#include "util/math.hpp"

namespace wcm::runtime {

struct CampaignCell;

/// The WCMJ version JournalWriter emits.
inline constexpr std::uint32_t wcmj_version = 1;

/// Exit code of the WCM_CHAOS_KILL_AFTER chaos hook (distinct from every
/// documented wcmgen exit code so a harness can tell "injected death"
/// from a real failure).
inline constexpr int chaos_kill_exit = 77;

/// Hard cap on records replayed from one WCMJ file; anything larger is
/// treated as a corrupt length and truncated (same defense as WCMC's
/// max_wcmc_records).
inline constexpr u64 max_wcmj_records = u64{1} << 24;

/// FNV-1a chained over every expanded cell's canonical string, in
/// expansion order: identifies *which campaign* a journal belongs to, so
/// resuming against an edited spec starts fresh instead of replaying
/// records whose keys happen to collide.
[[nodiscard]] u64 campaign_fingerprint(const std::vector<CampaignCell>& cells);

struct JournalRecord {
  u64 key = 0;
  analysis::SeriesPoint metrics;
};

/// Result of replaying a journal file.
struct JournalReplay {
  std::vector<JournalRecord> records;  ///< the valid prefix, in file order
  /// A torn or corrupt tail was dropped (the records above are still good).
  bool truncated = false;
  /// False when salt/fingerprint did not match: the journal belongs to a
  /// different code version or spec; the writer must start fresh.
  bool compatible = true;
  /// Byte length of the valid prefix a writer may append after (0 = the
  /// writer rewrites the file from scratch, header included).
  u64 valid_bytes = 0;
  /// FNV-1a chain state at valid_bytes (resumes the checksum chain).
  u64 chain = 0;
};

/// Replay `path`.  A missing or empty file yields an empty, compatible
/// replay (fresh start); a torn header or corrupt record tail is
/// truncated at the last good byte; a salt/fingerprint mismatch yields an
/// incompatible replay.  Throws wcm::io_error only for a non-empty file
/// that is not WCMJ at all (bad magic or unsupported version).
[[nodiscard]] JournalReplay replay_journal(const std::filesystem::path& path,
                                           u64 salt, u64 fingerprint);

/// Append-side of the journal.  Constructed from a replay: a non-empty
/// valid prefix is kept and appended after (the torn tail, if any, is
/// physically truncated first); otherwise the file is rewritten with a
/// fresh header.  Every append is flushed before returning, so the
/// journal is never more than one record behind the in-memory state.
class JournalWriter {
 public:
  JournalWriter(std::filesystem::path path, u64 salt, u64 fingerprint,
                const JournalReplay& replay);

  /// Append one sealed record and flush.  Throws wcm::io_error on write
  /// failure (also the "runtime.journal.append" failpoint).
  void append(u64 key, const analysis::SeriesPoint& metrics);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] std::size_t appended() const noexcept { return appended_; }

 private:
  std::filesystem::path path_;
  std::ofstream os_;
  u64 chain_ = 0;          ///< running FNV-1a over payload bytes
  std::size_t appended_ = 0;
  u64 kill_after_ = 0;     ///< WCM_CHAOS_KILL_AFTER (0 = disabled)
};

}  // namespace wcm::runtime
