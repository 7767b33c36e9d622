#include "util/failpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace wcm::failpoint {

namespace {

/// Names compiled into library code paths.  Keep in sync with docs/API.md;
/// test_fault_injection.cpp proves every entry fires.
constexpr const char* kBuiltin[] = {
    "io.read.open",       // read_binary: open failure
    "io.read.alloc",      // read_binary: key-buffer allocation failure
    "io.read.truncated",  // read_binary: short payload read
    "io.read.checksum",   // read_binary: WCMI v2 checksum mismatch
    "io.write.fail",      // write_binary: write failure
    "trace.read.malformed",   // read_trace: malformed trace stream
    "sim.smem.alloc",         // SharedMemory ctor: backing-store allocation
    "sim.smem.invariant",     // SharedMemory::warp_read: mid-access break
    "sort.pairwise.round",    // pairwise_merge_sort: mid-round break
    "sort.multiway.round",    // multiway_merge_sort: mid-round break
    "analyze.verify.pass",    // PassManager::run: break between passes
    "runtime.worker.job",     // scheduler worker: break before a job body
    "runtime.cache.load",     // ResultCache::load: read failure
    "runtime.cache.store",    // ResultCache::store: write failure
    "runtime.journal.append",  // JournalWriter::append: write failure
    "runtime.journal.replay",  // replay_journal: read failure
    "telemetry.export.write",      // write_chrome_trace: export failure
    "telemetry.registry.snapshot",  // Registry::snapshot: render failure
    "telemetry.eventlog.write",  // eventlog::emit: swallowed, counts a drop
    "serve.accept",    // wcmd accept loop: drop the accepted connection
    "serve.read",      // wcmd connection reader: injected recv failure
    "serve.write",     // wcmd response writer: injected send failure
    "serve.dispatch",  // wcmd dispatcher: break before a request executes
    "serve.trace.inject",  // wcmd trace minting: degrade to an untraced req
};

struct State {
  bool armed = false;
  std::uint64_t skip = 0;
  std::int64_t times = -1;  // <0: unlimited
  std::uint64_t evaluations = 0;
  std::uint64_t triggers = 0;
};

struct Registry {
  std::mutex mu;
  /// Transparent comparator: should_fail() looks a name up without
  /// building a std::string.
  std::map<std::string, State, std::less<>> points;
  std::string parsed_env;  // last WCM_FAILPOINTS value applied
  bool env_checked = false;

  Registry() {
    for (const char* name : kBuiltin) {
      points.emplace(name, State{});
    }
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ParsedEntry {
  std::string name;
  std::uint64_t skip = 0;
  std::int64_t times = -1;
};

[[noreturn]] void bad_entry(const std::string& entry, const char* why) {
  throw parse_error("bad WCM_FAILPOINTS entry '" + entry + "': " + why +
                    " (expected name[=skip[:times]])");
}

/// Strict whole-string integer parse; rejects empty strings, signs where
/// not allowed, and trailing garbage.
template <typename T>
T parse_number(const std::string& entry, const std::string& text,
               const char* what) {
  if (text.empty()) {
    bad_entry(entry, what);
  }
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, err] = std::from_chars(first, last, value);
  if (err != std::errc() || ptr != last) {
    bad_entry(entry, what);
  }
  return value;
}

/// Parse one WCM_FAILPOINTS entry: name[=skip[:times]].  Malformed entries
/// (empty name, non-numeric or trailing-garbage counts) are a
/// wcm::parse_error — a typo'd fault schedule must abort the run (exit 2
/// in wcmgen), never silently arm nothing.
ParsedEntry parse_entry(const std::string& entry) {
  ParsedEntry p;
  p.name = entry;
  const auto eq = entry.find('=');
  if (eq != std::string::npos) {
    p.name = entry.substr(0, eq);
    const std::string spec = entry.substr(eq + 1);
    const auto colon = spec.find(':');
    if (colon != std::string::npos) {
      p.skip = parse_number<std::uint64_t>(entry, spec.substr(0, colon),
                                           "bad skip count");
      p.times = parse_number<std::int64_t>(entry, spec.substr(colon + 1),
                                           "bad times count");
    } else {
      p.skip = parse_number<std::uint64_t>(entry, spec, "bad skip count");
    }
  }
  if (p.name.empty()) {
    bad_entry(entry, "empty failpoint name");
  }
  return p;
}

/// Apply WCM_FAILPOINTS if its value changed since the last application.
/// Validate-then-apply: the whole value is parsed before any failpoint is
/// armed, so a malformed entry arms nothing (and parsed_env is left
/// untouched — the same error re-surfaces on the next evaluation instead
/// of being swallowed).  Caller holds the registry mutex.
std::size_t apply_env_locked(Registry& r) {
  r.env_checked = true;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* env = std::getenv("WCM_FAILPOINTS");
  const std::string value = env == nullptr ? "" : env;
  if (value == r.parsed_env) {
    return 0;
  }
  std::vector<ParsedEntry> parsed;
  std::string entry;
  const auto flush_entry = [&parsed, &entry] {
    if (!entry.empty()) {  // empty segments ("a;;b", trailing ';') are fine
      parsed.push_back(parse_entry(entry));
    }
    entry.clear();
  };
  for (const char c : value) {
    if (c == ';' || c == ',') {
      flush_entry();
    } else {
      entry.push_back(c);
    }
  }
  flush_entry();
  r.parsed_env = value;
  for (const ParsedEntry& p : parsed) {
    State& s = r.points[p.name];  // registers unknown names
    s.armed = true;
    s.skip = p.skip;
    s.times = p.times;
  }
  return parsed.size();
}

}  // namespace

bool should_fail(const char* name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.env_checked) {
    apply_env_locked(r);
  }
  const std::string_view key(name);
  auto it = r.points.find(key);
  if (it == r.points.end()) {  // first sight registers the name
    it = r.points.emplace(std::string(key), State{}).first;
  }
  State& s = it->second;
  ++s.evaluations;
  if (!s.armed) {
    return false;
  }
  if (s.skip > 0) {
    --s.skip;
    return false;
  }
  if (s.times == 0) {
    return false;
  }
  if (s.times > 0) {
    --s.times;
  }
  ++s.triggers;
  return true;
}

void arm(const std::string& name, std::uint64_t skip, std::int64_t times) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  State& s = r.points[name];
  s.armed = true;
  s.skip = skip;
  s.times = times;
}

void disarm(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  if (it != r.points.end()) {
    it->second.armed = false;
  }
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, s] : r.points) {
    s.armed = false;
  }
}

void reset_counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, s] : r.points) {
    s.evaluations = 0;
    s.triggers = 0;
  }
}

bool armed(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  return it != r.points.end() && it->second.armed;
}

bool any_armed() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.env_checked) {
    apply_env_locked(r);
  }
  return std::any_of(r.points.begin(), r.points.end(),
                     [](const auto& p) { return p.second.armed; });
}

std::uint64_t evaluations(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.evaluations;
}

std::uint64_t triggers(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.triggers;
}

std::vector<std::string> known() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.points.size());
  for (const auto& [name, s] : r.points) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

std::size_t configure_from_env() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return apply_env_locked(r);
}

scoped_arm::scoped_arm(std::string name, std::uint64_t skip,
                       std::int64_t times)
    : name_(std::move(name)) {
  arm(name_, skip, times);
}

scoped_arm::~scoped_arm() { disarm(name_); }

scoped_disarm::scoped_disarm() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, s] : r.points) {
    if (s.armed) {
      saved_.push_back({name, s.skip, s.times});
      s.armed = false;
    }
  }
}

scoped_disarm::scoped_disarm(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  if (it != r.points.end() && it->second.armed) {
    saved_.push_back({name, it->second.skip, it->second.times});
    it->second.armed = false;
  }
}

scoped_disarm::~scoped_disarm() {
  for (const Saved& s : saved_) {
    arm(s.name, s.skip, s.times);
  }
}

}  // namespace wcm::failpoint
