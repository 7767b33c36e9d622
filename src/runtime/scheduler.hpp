#pragma once
// Flat job runner on top of runtime/thread_pool.hpp.
//
// run() executes a list of independent type-erased jobs on a fixed-size
// worker pool and returns one JobOutcome per job, indexed like the list —
// the result layout is a pure function of the list, never of worker
// scheduling, which is what lets campaign output stay byte-identical
// between 1-thread and N-thread runs.  Jobs are submitted in list order,
// so a one-worker run executes them in exactly that order.
//
// Error model (wcm::error taxonomy):
//   * a job that throws is recorded `failed` with the thrown error's code
//     (non-wcm exceptions are classified simulation_invariant);
//   * after CancelSource::cancel() (or any failure under
//     RunOptions::fail_fast) still-queued jobs finish as
//     `skipped_cancelled`.
// Without fail_fast a failed job never stops the others: the
// degraded-but-complete mode the campaign runtime builds on
// (docs/RUNTIME.md).
//
// Fault tolerance: RunOptions::retry re-runs a job whose failure is
// transient (runtime/retry.hpp) up to max_attempts times.  After a
// deterministic fork_seed'ed backoff the failed job goes to the back of
// the pool's queue, behind every job already waiting, never in place: a
// WCM_FAILPOINTS schedule counts evaluations, so with one worker this
// order decides which job each evaluation lands on.
//
// The worker wrapper evaluates the "runtime.worker.job" failpoint before
// invoking each job, so WCM_FAILPOINTS can prove the whole
// fail/skip/report pipeline end to end (docs/RUNTIME.md).

#include <atomic>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "runtime/retry.hpp"
#include "telemetry/trace_context.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace wcm::runtime {

struct Job {
  std::function<void()> fn;  ///< must be non-empty (contract-checked)
  std::string label;         ///< named in error messages
  /// Request trace context installed on the worker for the job's whole
  /// execution (including retries), so spans recorded inside the job —
  /// down to kernel rounds — carry the originating request's trace_id
  /// across the thread hop (docs/TELEMETRY.md "Request tracing").
  /// Default ({}): no context.
  telemetry::TraceContext trace;
};

enum class JobState { done, failed, skipped_cancelled };

struct JobOutcome {
  JobState state = JobState::skipped_cancelled;
  errc code = errc::simulation_invariant;  ///< valid when failed
  std::string message;                     ///< error text when failed
  std::exception_ptr error;                ///< original exception when failed
  double seconds = 0.0;                    ///< job body wall clock (last try)
  u32 attempts = 0;                        ///< times the body actually ran
};

/// Cooperative cancellation shared between the caller and running jobs.
class CancelSource {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

struct RunOptions {
  u32 threads = 1;
  /// Cancel everything still queued as soon as one job fails.
  bool fail_fast = false;
  /// Transient failures re-run up to retry.max_attempts times with
  /// deterministic backoff (stream = job index).  Default: never retry.
  RetryPolicy retry;
  /// Optional external cancellation handle (not owned; may be null).
  CancelSource* cancel = nullptr;
};

struct RunReport {
  std::vector<JobOutcome> outcomes;  ///< indexed like the job list

  [[nodiscard]] bool ok() const noexcept;
  [[nodiscard]] std::size_t count(JobState state) const noexcept;
  /// Rethrow the failure of the lowest-index failed job (deterministic
  /// across thread counts); no-op when no job failed.
  void rethrow_first_error() const;
};

/// Execute every job to a terminal state on `opts.threads` workers and
/// report each one's outcome.  Throws wcm::contract_error on a job with an
/// empty `fn`; never throws for job failures — inspect the report (or use
/// rethrow_first_error()).
[[nodiscard]] RunReport run(std::span<const Job> jobs,
                            const RunOptions& opts);

/// Deterministic parallel map: results[i] = fn(i), computed on `threads`
/// workers, returned in index order.  The first failure (by index) is
/// rethrown after the queue drains (fail-fast cancels the remainder).
template <typename Fn>
auto parallel_map(std::size_t count, u32 threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  std::vector<Result> results(count);
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(Job{[&results, &fn, i] { results[i] = fn(i); }, {}, {}});
  }
  RunOptions opts;
  opts.threads = threads;
  opts.fail_fast = true;
  run(jobs, opts).rethrow_first_error();
  return results;
}

}  // namespace wcm::runtime
