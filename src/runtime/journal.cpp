#include "runtime/journal.hpp"

#include <cstdlib>
#include <string_view>

#include "runtime/campaign.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/framed.hpp"

namespace wcm::runtime {

namespace {

constexpr std::string_view kMagic = "WCMJ";
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kHeaderFields = 8 + 8;  // salt + fingerprint
constexpr std::size_t kPayloadBytes = 8 + 8 + 5 * 8;  // key + CellMetrics

}  // namespace

u64 campaign_fingerprint(const std::vector<CampaignCell>& cells) {
  u64 h = fnv_offset_basis;
  for (const auto& cell : cells) {
    h = fnv1a(h, cell.canonical.data(), cell.canonical.size());
  }
  return h;
}

JournalReplay replay_journal(const std::filesystem::path& path, u64 salt,
                             u64 fingerprint) {
  WCM_SPAN("journal.replay");
  WCM_FAILPOINT("runtime.journal.replay", io_error,
                "injected journal replay failure: " + path.string());
  JournalReplay replay;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return replay;  // fresh start
  }
  framed::Reader in(kMagic, path);
  if (in.remaining() == 0) {
    return replay;  // an empty file is a fresh start, not corruption
  }
  const auto torn_header = [&replay] {
    replay.truncated = true;  // header never finished: rewrite from scratch
    if (telemetry::enabled()) {
      telemetry::registry().counter("runtime.journal.truncated").add(1);
    }
    return replay;
  };
  // A non-empty file that is recognizably not WCMJ must never be
  // overwritten by the writer: surface it instead of truncating.
  if (in.size() >= kMagic.size()) {
    in.magic();
  }
  if (in.size() < kHeaderBytes) {
    return torn_header();
  }
  in.version({wcmj_version});
  if (!in.sealed_ahead(kHeaderFields)) {
    return torn_header();
  }
  const u64 file_salt = in.get<u64>("salt");
  const u64 file_fingerprint = in.get<u64>("fingerprint");
  (void)in.get<u64>("header_sum");  // hashed on like any field; seals are not
  if (file_salt != salt || file_fingerprint != fingerprint) {
    replay.compatible = false;  // different code version or spec
    if (telemetry::enabled()) {
      telemetry::registry().counter("runtime.journal.incompatible").add(1);
    }
    return replay;
  }

  replay.valid_bytes = in.offset();
  replay.chain = in.hash();
  while (replay.records.size() < max_wcmj_records &&
         in.sealed_ahead(kPayloadBytes)) {
    JournalRecord rec;
    rec.key = in.get<u64>("record key");
    rec.metrics = get_metrics(in);
    in.seal();
    replay.records.push_back(rec);
    replay.valid_bytes = in.offset();
    replay.chain = in.hash();
  }
  replay.truncated = in.remaining() > 0;

  if (telemetry::enabled()) {
    telemetry::Registry& reg = telemetry::registry();
    reg.counter("runtime.journal.replayed").add(replay.records.size());
    if (replay.truncated) {
      reg.counter("runtime.journal.truncated").add(1);
    }
  }
  return replay;
}

JournalWriter::JournalWriter(std::filesystem::path path, u64 salt,
                             u64 fingerprint, const JournalReplay& replay)
    : path_(std::move(path)),
      // A chaos harness that typos the hook must find out: strict parse.
      kill_after_(unsigned_env("WCM_CHAOS_KILL_AFTER")) {
  if (replay.compatible && replay.valid_bytes >= kHeaderBytes) {
    // Keep the valid prefix: physically drop any torn tail, then append.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (!ec && size > replay.valid_bytes) {
      std::filesystem::resize_file(path_, replay.valid_bytes, ec);
      WCM_CHECK_IO(!ec, "cannot truncate torn journal tail: " +
                            path_.string());
    }
    os_.open(path_, std::ios::binary | std::ios::app);
    WCM_CHECK_IO(os_.is_open(),
                 "cannot open journal for append: " + path_.string());
    chain_ = replay.chain;
    return;
  }
  // Fresh start (new journal, torn header, or incompatible file).  Never
  // clobber a file that is recognizably not WCMJ — a fat-fingered
  // --journal path must not erase unrelated data.
  WCM_CHECK_IO(!framed::foreign(path_, kMagic),
               "refusing to overwrite non-WCMJ file: " + path_.string());
  os_.open(path_, std::ios::binary | std::ios::trunc);
  WCM_CHECK_IO(os_.is_open(),
               "cannot open journal for writing: " + path_.string());
  framed::Writer header(kMagic, wcmj_version);
  header.put(salt);
  header.put(fingerprint);
  header.put(header.hash());  // header_sum, chained into every record seal
  os_ << header.bytes();
  os_.flush();
  WCM_CHECK_IO(static_cast<bool>(os_),
               "journal header write failed: " + path_.string());
  chain_ = header.hash();
}

void JournalWriter::append(u64 key, const CellMetrics& metrics) {
  WCM_FAILPOINT("runtime.journal.append", io_error,
                "injected journal append failure: " + path_.string());
  framed::Writer record(chain_);
  record.put(key);
  put_metrics(record, metrics);
  record.seal();  // the chain word: every payload byte of the file so far
  os_ << record.bytes();
  os_.flush();
  WCM_CHECK_IO(static_cast<bool>(os_),
               "journal append failed: " + path_.string());
  chain_ = record.hash();
  ++appended_;
  if (telemetry::enabled()) {
    telemetry::registry().counter("runtime.journal.appended").add(1);
  }
  if (kill_after_ != 0 && appended_ >= kill_after_) {
    // Chaos hook: simulate process death immediately after a durable
    // append (tests/chaos_ci.cmake drives the kill/resume cycle with it).
    std::_Exit(chaos_kill_exit);
  }
}

}  // namespace wcm::runtime
