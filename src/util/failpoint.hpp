#pragma once
// Fault-injection failpoints.
//
// A failpoint is a named hook compiled into an error-prone code path (short
// read, allocation, mid-round simulator invariant, ...).  Disarmed, a
// failpoint is a mutex-guarded counter bump; armed, it makes the
// instrumented site throw its typed error so tests — and operators chasing
// a production incident — can prove every error path actually fires.
//
// Activation:
//   * in code:   failpoint::arm("io.read.truncated");  (or scoped_arm RAII)
//   * from env:  WCM_FAILPOINTS="io.read.truncated;sim.smem.alloc=2"
//                parsed lazily on first evaluation (or explicitly via
//                configure_from_env()).  Entry syntax: name[=skip[:times]]
//                — skip the first `skip` hits, then fire `times` times
//                (default: fire on every hit).
//
// Instrumented sites use WCM_FAILPOINT(name, ErrorType, msg), which throws
// `ErrorType(msg, "failpoint <name>")` when the failpoint fires.  The full
// list of baked-in names is returned by failpoint::known() and documented
// in docs/API.md.

#include <cstdint>
#include <string>
#include <vector>

namespace wcm::failpoint {

/// Count one evaluation of `name`; true iff the failpoint is armed and
/// elects to fire (consuming one of its remaining shots).  Registers the
/// name on first sight.  Thread-safe.
[[nodiscard]] bool should_fail(const char* name);

/// Arm `name`: skip the first `skip` evaluations, then fire `times` times
/// (`times < 0` = fire forever).
void arm(const std::string& name, std::uint64_t skip = 0,
         std::int64_t times = -1);

/// Disarm `name` (counters are preserved).
void disarm(const std::string& name);

/// Disarm every failpoint (counters are preserved).
void disarm_all();

/// Reset every hit counter to zero (armed state is preserved).
void reset_counters();

/// True iff `name` is currently armed.
[[nodiscard]] bool armed(const std::string& name);

/// True iff any failpoint is armed.  Applies WCM_FAILPOINTS lazily, as
/// should_fail() does.  The simulator asks once per data-independent
/// phase whether it must take the full path (gpusim/shared_memory.hpp).
[[nodiscard]] bool any_armed();

/// Times `name` has been reached (armed or not).
[[nodiscard]] std::uint64_t evaluations(const std::string& name);

/// Times `name` has actually fired.
[[nodiscard]] std::uint64_t triggers(const std::string& name);

/// All known failpoint names: the baked-in registry plus any name seen at
/// runtime, sorted.
[[nodiscard]] std::vector<std::string> known();

/// Parse the WCM_FAILPOINTS environment variable now (idempotent per
/// distinct value); returns the number of failpoints armed by it.  Called
/// lazily by should_fail(), but tests may call it directly after setenv().
std::size_t configure_from_env();

/// RAII: arm a failpoint for the current scope, disarm on exit.
class scoped_arm {
 public:
  explicit scoped_arm(std::string name, std::uint64_t skip = 0,
                      std::int64_t times = -1);
  ~scoped_arm();
  scoped_arm(const scoped_arm&) = delete;
  scoped_arm& operator=(const scoped_arm&) = delete;

 private:
  std::string name_;
};

/// RAII: disarm one failpoint (or, default-constructed, every armed
/// failpoint) for the current scope; restore the previous arming on exit.
class scoped_disarm {
 public:
  scoped_disarm();
  explicit scoped_disarm(const std::string& name);
  ~scoped_disarm();
  scoped_disarm(const scoped_disarm&) = delete;
  scoped_disarm& operator=(const scoped_disarm&) = delete;

 private:
  struct Saved {
    std::string name;
    std::uint64_t skip;
    std::int64_t times;
  };
  std::vector<Saved> saved_;
};

}  // namespace wcm::failpoint

/// Failpoint site: when `name` fires, throw `ErrorType(msg, "failpoint
/// <name>")`.  `name` must be a string literal.
#define WCM_FAILPOINT(name, ErrorType, msg)             \
  do {                                                  \
    if (::wcm::failpoint::should_fail(name)) {          \
      throw ErrorType((msg), "failpoint " name);        \
    }                                                   \
  } while (false)
