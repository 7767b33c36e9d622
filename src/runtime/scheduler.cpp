#include "runtime/scheduler.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::runtime {

bool RunReport::ok() const noexcept {
  for (const auto& o : outcomes) {
    if (o.state != JobState::done) {
      return false;
    }
  }
  return true;
}

std::size_t RunReport::count(JobState state) const noexcept {
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    n += o.state == state ? 1 : 0;
  }
  return n;
}

void RunReport::rethrow_first_error() const {
  for (const auto& o : outcomes) {
    if (o.state != JobState::failed) {
      continue;
    }
    if (o.error) {
      std::rethrow_exception(o.error);
    }
    throw simulation_error(o.message);
  }
}

namespace {

/// Shared state of one run(): the outcomes, the terminal count and the
/// cancel check go under `mu`.
struct RunState {
  RunState(std::span<const Job> j, const RunOptions& o) : jobs(j), opts(o) {}

  std::span<const Job> jobs;
  const RunOptions& opts;
  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<JobOutcome> outcomes;
  /// Body executions per job; only the single worker currently running the
  /// job touches its slot (retry resubmission orders through the pool).
  std::vector<u32> attempts;
  std::size_t terminal = 0;
  bool fail_fast_tripped = false;
  ThreadPool* pool = nullptr;

  [[nodiscard]] bool cancelled() const noexcept {
    return fail_fast_tripped ||
           (opts.cancel != nullptr && opts.cancel->cancelled());
  }

  /// Record job `i` reaching a terminal state.  Called with `mu` held.
  void finish_locked(std::size_t i, JobOutcome outcome) {
    outcomes[i] = std::move(outcome);
    if (opts.fail_fast && outcomes[i].state == JobState::failed) {
      fail_fast_tripped = true;
    }
    ++terminal;
    if (telemetry::enabled()) {
      telemetry::registry()
          .gauge("runtime.scheduler.queue.depth")
          .set(static_cast<double>(jobs.size() - terminal));
    }
    if (terminal == jobs.size()) {
      done_cv.notify_all();
    }
  }

  void execute(std::size_t i) {
    const Job& job = jobs[i];
    // Install the job's request context before the span opens, so
    // "scheduler.job" and everything nested under it (kernel rounds
    // included) carry the originating request's trace_id on this worker.
    const telemetry::ScopedTraceContext trace_scope(job.trace);
    WCM_SPAN("scheduler.job");
    JobOutcome outcome;
    bool live = true;
    {
      const std::lock_guard<std::mutex> lock(mu);
      live = !cancelled();
    }

    if (live) {
      outcome.attempts = ++attempts[i];
      const auto job_start = std::chrono::steady_clock::now();
      try {
        WCM_FAILPOINT("runtime.worker.job", simulation_error,
                      "injected worker fault in job " + std::to_string(i) +
                          (job.label.empty() ? "" : " (" + job.label + ")"));
        job.fn();
        outcome.state = JobState::done;
      } catch (const wcm::error& e) {
        outcome.state = JobState::failed;
        outcome.code = e.code();
        outcome.message = e.what();
        outcome.error = std::current_exception();
      } catch (const std::exception& e) {
        outcome.state = JobState::failed;
        outcome.code = errc::simulation_invariant;
        outcome.message = e.what();
        outcome.error = std::current_exception();
      } catch (...) {
        outcome.state = JobState::failed;
        outcome.code = errc::simulation_invariant;
        outcome.message = "unknown exception";
        outcome.error = std::current_exception();
      }
      outcome.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job_start)
              .count();

      if (outcome.state == JobState::failed) {
        const bool transient = is_transient(outcome.code);
        {
          const std::lock_guard<std::mutex> lock(mu);
          live = !cancelled();
        }
        if (transient && live && outcome.attempts < opts.retry.max_attempts) {
          // Back off deterministically, then queue the same job again
          // behind everything already waiting.  The failed attempt is
          // *not* terminal: run() keeps waiting.
          if (telemetry::enabled()) {
            telemetry::registry().counter("runtime.retry.attempts").add(1);
          }
          const double delay =
              backoff_delay_seconds(opts.retry, i, outcome.attempts);
          if (delay > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
          }
          pool->submit([this, i] { execute(i); });
          return;
        }
        if (transient && opts.retry.max_attempts > 1 &&
            outcome.attempts >= opts.retry.max_attempts &&
            telemetry::enabled()) {
          telemetry::registry().counter("runtime.retry.exhausted").add(1);
        }
      } else if (outcome.attempts > 1 && telemetry::enabled()) {
        telemetry::registry().counter("runtime.retry.success").add(1);
      }
    }

    if (telemetry::enabled()) {
      telemetry::Registry& reg = telemetry::registry();
      switch (outcome.state) {
        case JobState::done:
          reg.counter("runtime.scheduler.jobs.completed").add(1);
          reg.histogram("runtime.scheduler.job.seconds", {},
                        {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0})
              .observe(outcome.seconds);
          break;
        case JobState::failed:
          reg.counter("runtime.scheduler.jobs.failed").add(1);
          break;
        case JobState::skipped_cancelled:
          reg.counter("runtime.scheduler.jobs.skipped").add(1);
          break;
      }
    }

    const std::lock_guard<std::mutex> lock(mu);
    finish_locked(i, std::move(outcome));
  }
};

}  // namespace

RunReport run(std::span<const Job> jobs, const RunOptions& opts) {
  WCM_SPAN("scheduler.run");
  WCM_EXPECTS(opts.threads >= 1, "run() needs at least one worker");
  for (const Job& job : jobs) {
    WCM_EXPECTS(job.fn != nullptr, "cannot run an empty job");
  }
  RunReport report;
  const std::size_t n = jobs.size();
  report.outcomes.resize(n);
  if (n == 0) {
    return report;
  }

  RunState state(jobs, opts);
  state.outcomes.resize(n);
  state.attempts.resize(n, 0);
  {
    ThreadPool pool(opts.threads);
    state.pool = &pool;
    {
      // Submit in list order under `mu`: a worker waits at its cancel
      // check until every job is queued, so FIFO dequeue gives the
      // 1-thread run exact list order and a retry always queues behind
      // the whole list.
      const std::lock_guard<std::mutex> lock(state.mu);
      for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&state, i] { state.execute(i); });
      }
    }
    std::unique_lock<std::mutex> lock(state.mu);
    state.done_cv.wait(lock, [&state, n] { return state.terminal == n; });
  }

  report.outcomes = std::move(state.outcomes);
  return report;
}

}  // namespace wcm::runtime
