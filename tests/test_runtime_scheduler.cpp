// Job-runner contract tests: deterministic outcome layout across thread
// counts, cancellation mid-queue, fail-fast, retries queued behind the
// rest of the list, empty jobs rejected, and failpoint-injected worker
// faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace wcm::runtime {
namespace {

Job job(std::function<void()> fn) { return Job{std::move(fn), {}, {}}; }

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPreservesFifoOrder) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, RejectsZeroWorkersAndEmptyTasks) {
  EXPECT_THROW(ThreadPool pool(0), contract_error);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), contract_error);
}

TEST(Scheduler, OutcomeLayoutIsIndependentOfThreadCount) {
  const auto build = [] {
    std::vector<Job> jobs;
    for (int i = 0; i < 12; ++i) {
      if (i == 5) {
        jobs.push_back(
            job([] { throw config_error("job five always fails"); }));
      } else {
        jobs.push_back(job([] {}));
      }
    }
    return jobs;
  };
  for (const u32 threads : {1u, 4u}) {
    const auto jobs = build();
    RunOptions opts;
    opts.threads = threads;
    const auto report = run(jobs, opts);
    ASSERT_EQ(report.outcomes.size(), 12u) << threads << " threads";
    for (std::size_t i = 0; i < 12; ++i) {
      const auto expected =
          i == 5 ? JobState::failed : JobState::done;
      EXPECT_EQ(report.outcomes[i].state, expected)
          << "job " << i << " with " << threads << " threads";
    }
    EXPECT_EQ(report.outcomes[5].code, errc::invalid_config);
    EXPECT_THROW(report.rethrow_first_error(), config_error);
  }
}

TEST(Scheduler, CancellationSkipsQueuedJobs) {
  std::vector<Job> jobs;
  CancelSource cancel;
  std::atomic<int> ran{0};
  jobs.push_back(job([&] {
    ran.fetch_add(1);
    cancel.cancel();
  }));
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(job([&] { ran.fetch_add(1); }));
  }

  RunOptions opts;
  opts.threads = 1;  // deterministic: job 0 runs first, cancels the rest
  opts.cancel = &cancel;
  const auto report = run(jobs, opts);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(report.count(JobState::done), 1u);
  EXPECT_EQ(report.count(JobState::skipped_cancelled), 8u);
  EXPECT_FALSE(report.ok());
}

TEST(Scheduler, FailFastCancelsTheRemainingQueue) {
  std::vector<Job> jobs;
  std::atomic<int> ran{0};
  jobs.push_back(job([] { throw io_error("first job fails"); }));
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(job([&] { ran.fetch_add(1); }));
  }
  RunOptions opts;
  opts.threads = 1;
  opts.fail_fast = true;
  const auto report = run(jobs, opts);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(report.count(JobState::failed), 1u);
  EXPECT_EQ(report.count(JobState::skipped_cancelled), 8u);
  EXPECT_THROW(report.rethrow_first_error(), io_error);
}

// A transient failure is retried from the back of the queue, not in
// place: with one worker the jobs queued behind it run first.  A
// WCM_FAILPOINTS schedule counts evaluations, so this order decides which
// job each evaluation lands on.
TEST(Scheduler, RetryRunsAfterTheJobsQueuedBehindIt) {
  failpoint::scoped_arm fp("runtime.worker.job", /*skip=*/0, /*times=*/1);
  std::vector<std::size_t> order;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back(job([&order, i] { order.push_back(i); }));
  }
  RunOptions opts;
  opts.threads = 1;
  opts.retry.max_attempts = 2;
  opts.retry.base_delay_seconds = 0.0;
  const auto report = run(jobs, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 0}));
  EXPECT_EQ(report.outcomes[0].attempts, 2u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(report.outcomes[i].attempts, 1u) << "job " << i;
  }
}

TEST(Scheduler, EmptyJobIsRejected) {
  std::vector<Job> jobs;
  jobs.push_back(job([] {}));
  jobs.push_back(Job{nullptr, "empty", {}});
  RunOptions opts;
  EXPECT_THROW((void)run(jobs, opts), contract_error);
}

TEST(Scheduler, FailpointInjectsWorkerFault) {
  failpoint::scoped_arm fp("runtime.worker.job", /*skip=*/1, /*times=*/1);
  std::vector<Job> jobs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(job([&] { ran.fetch_add(1); }));
  }
  RunOptions opts;
  opts.threads = 1;
  const auto report = run(jobs, opts);
  EXPECT_EQ(report.outcomes[0].state, JobState::done);
  EXPECT_EQ(report.outcomes[1].state, JobState::failed);
  EXPECT_EQ(report.outcomes[1].code, errc::simulation_invariant);
  EXPECT_NE(report.outcomes[1].message.find("injected worker fault"),
            std::string::npos);
  EXPECT_EQ(report.outcomes[2].state, JobState::done);
  EXPECT_EQ(ran.load(), 2);
}

TEST(Scheduler, EmptyGraphRunsToEmptyReport) {
  const std::vector<Job> jobs;
  RunOptions opts;
  opts.threads = 2;
  const auto report = run(jobs, opts);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.outcomes.empty());
  report.rethrow_first_error();  // no-op
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  const auto results = parallel_map(64, 4, [](std::size_t i) {
    return i * i;
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelMap, RethrowsTheLowestIndexFailure) {
  try {
    (void)parallel_map(10, 1, [](std::size_t i) -> int {
      if (i >= 4) {
        throw config_error("boom at " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "parallel_map did not throw";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 4"), std::string::npos);
  }
}

TEST(RecommendedWorkers, HonorsRequestAndDeviceCeiling) {
  const auto dev = gpusim::quadro_m4000();
  EXPECT_EQ(recommended_workers(3, dev, 512, 0), 3u);
  const u32 auto_sized = recommended_workers(0, dev, 512, 0);
  EXPECT_GE(auto_sized, 1u);
  const u32 host = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(auto_sized, host);
  // A launch that cannot fit the device at all falls back to one worker.
  EXPECT_EQ(recommended_workers(0, dev, 512, ~std::size_t{0} / 2), 1u);
}

TEST(ThreadsFromEnv, ParsesStrictly) {
  unsetenv("WCM_THREADS");
  EXPECT_EQ(threads_from_env(7), 7u);
  setenv("WCM_THREADS", "3", 1);
  EXPECT_EQ(threads_from_env(7), 3u);
  setenv("WCM_THREADS", "0", 1);
  EXPECT_EQ(threads_from_env(7), 7u);  // 0 = auto
  setenv("WCM_THREADS", "nope", 1);
  EXPECT_THROW((void)threads_from_env(7), parse_error);
  setenv("WCM_THREADS", "5000", 1);
  EXPECT_THROW((void)threads_from_env(7), parse_error);
  unsetenv("WCM_THREADS");
}

}  // namespace
}  // namespace wcm::runtime
