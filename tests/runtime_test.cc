// DetRuntime semantics: exclusivity, determinism, blocking, deadlock detection,
// schedule strategies, and interleaving exploration. OsRuntime: threading and the
// condition-variable contract (handoffs, broadcast, timed waits, abort wakes).

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/anomaly/detector.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/explore.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/schedule.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {
namespace {

TEST(DetRuntimeTest, RunsAllThreadsToCompletion) {
  DetRuntime rt(std::make_unique<RandomSchedule>(1));
  int a = 0;
  int b = 0;
  auto t1 = rt.StartThread("a", [&] { a = 1; });
  auto t2 = rt.StartThread("b", [&] { b = 2; });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(DetRuntimeTest, MutexProvidesMutualExclusion) {
  DetRuntime rt(std::make_unique<RandomSchedule>(7));
  auto mu = rt.CreateMutex();
  int counter = 0;
  auto body = [&] {
    for (int i = 0; i < 10; ++i) {
      RtLock lock(*mu);
      const int read = counter;
      rt.Yield();  // A preemption point inside the critical section.
      counter = read + 1;
    }
  };
  auto t1 = rt.StartThread("inc1", body);
  auto t2 = rt.StartThread("inc2", body);
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;
  EXPECT_EQ(counter, 20);
}

TEST(DetRuntimeTest, ExploresRacyInterleavings) {
  // Without a lock, a read-yield-write counter must lose updates on SOME schedule;
  // this shows the scheduler actually explores interleavings.
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    int counter = 0;
    auto body = [&] {
      for (int i = 0; i < 5; ++i) {
        const int read = counter;
        rt.Yield();
        counter = read + 1;
      }
    };
    auto t1 = rt.StartThread("r1", body);
    auto t2 = rt.StartThread("r2", body);
    const DetRuntime::RunResult result = rt.Run();
    if (!result.completed) {
      return result.report;
    }
    return counter == 10 ? "" : "lost update";
  };
  const SweepOutcome outcome = SweepSchedules(50, trial);
  EXPECT_GT(outcome.failures, 0) << "no schedule exhibited the race";
  EXPECT_GT(outcome.passes, 0) << "every schedule exhibited the race";
}

TEST(DetRuntimeTest, SameSeedIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    std::vector<int> order;
    auto mu = rt.CreateMutex();
    for (int i = 0; i < 4; ++i) {
      static_cast<void>(rt.StartThread("t" + std::to_string(i), [&rt, &order, &mu, i] {
        for (int k = 0; k < 3; ++k) {
          RtLock lock(*mu);
          order.push_back(i);
          rt.Yield();
        }
      }));
    }
    EXPECT_TRUE(rt.Run().completed);
    return order;
  };
  EXPECT_EQ(run(42), run(42));
  // And different seeds should (very likely) differ.
  EXPECT_NE(run(42), run(43));
}

TEST(DetRuntimeTest, CondVarHandshake) {
  DetRuntime rt(std::make_unique<RandomSchedule>(3));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool ready = false;
  int seen = 0;
  auto consumer = rt.StartThread("consumer", [&] {
    RtLock lock(*mu);
    while (!ready) {
      cv->Wait(*mu);
    }
    seen = 1;
  });
  auto producer = rt.StartThread("producer", [&] {
    RtLock lock(*mu);
    ready = true;
    cv->NotifyOne();
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(seen, 1);
}

TEST(DetRuntimeTest, DetectsAbbaDeadlock) {
  DetRuntime::Options options;
  options.preempt_before_lock = true;
  DetRuntime rt(std::make_unique<ScriptedSchedule>(std::vector<std::uint32_t>{
                    1, 1, 2, 2, 1, 2, 1, 2, 1, 2}),
                options);
  auto a = rt.CreateMutex();
  auto b = rt.CreateMutex();
  auto t1 = rt.StartThread("ab", [&] {
    RtLock la(*a);
    rt.Yield();
    RtLock lb(*b);
  });
  auto t2 = rt.StartThread("ba", [&] {
    RtLock lb(*b);
    rt.Yield();
    RtLock la(*a);
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked) << result.report;
  EXPECT_NE(result.report.find("ab"), std::string::npos) << result.report;
  EXPECT_NE(result.report.find("ba"), std::string::npos) << result.report;
}

TEST(DetRuntimeTest, DeadlockFoundBySweepToo) {
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<RandomSchedule>(seed));
    auto a = rt.CreateMutex();
    auto b = rt.CreateMutex();
    auto t1 = rt.StartThread("ab", [&] {
      RtLock la(*a);
      rt.Yield();
      RtLock lb(*b);
    });
    auto t2 = rt.StartThread("ba", [&] {
      RtLock lb(*b);
      rt.Yield();
      RtLock la(*a);
    });
    const DetRuntime::RunResult result = rt.Run();
    return result.completed ? "" : "deadlock";
  };
  const SweepOutcome outcome = SweepSchedules(60, trial);
  EXPECT_GT(outcome.failures, 0) << "ABBA deadlock never triggered across 60 schedules";
}

TEST(DetRuntimeTest, StepLimitCatchesLivelock) {
  DetRuntime::Options options;
  options.max_steps = 500;
  DetRuntime rt(std::make_unique<RandomSchedule>(1), options);
  auto spinner = rt.StartThread("spinner", [&] {
    while (true) {
      rt.Yield();
    }
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.step_limit) << result.report;
}

TEST(DetRuntimeTest, JoinBlocksUntilTargetFinishes) {
  DetRuntime rt(std::make_unique<RandomSchedule>(5));
  int stage = 0;
  auto worker = rt.StartThread("worker", [&] {
    rt.Yield();
    stage = 1;
  });
  RtThread* worker_raw = worker.get();
  auto waiter = rt.StartThread("waiter", [&, worker_raw] {
    worker_raw->Join();
    EXPECT_EQ(stage, 1);
    stage = 2;
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(stage, 2);
}

TEST(DetRuntimeTest, ThreadsCanSpawnThreads) {
  DetRuntime rt(std::make_unique<RandomSchedule>(9));
  int value = 0;
  auto parent = rt.StartThread("parent", [&] {
    auto child = rt.StartThread("child", [&] { value = 7; });
    child->Join();
    EXPECT_EQ(value, 7);
    value = 8;
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_EQ(value, 8);
}

TEST(DetRuntimeTest, NowNanosAdvancesWithSteps) {
  DetRuntime rt(std::make_unique<RandomSchedule>(1));
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  auto t = rt.StartThread("t", [&] {
    before = rt.NowNanos();
    rt.Yield();
    rt.Yield();
    after = rt.NowNanos();
  });
  ASSERT_TRUE(rt.Run().completed);
  EXPECT_GT(after, before);
}

TEST(ScheduleTest, RoundRobinCycles) {
  RoundRobinSchedule schedule;
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}, {3, 0}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 1u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 2)].thread_id, 2u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 3)].thread_id, 3u);
  EXPECT_EQ(candidates[schedule.Pick(candidates, 4)].thread_id, 1u);  // Wraps.
}

TEST(ScheduleTest, FifoPicksLongestReady) {
  FifoSchedule schedule;
  std::vector<SchedCandidate> candidates = {{1, 30}, {2, 10}, {3, 20}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 2u);
}

TEST(ScheduleTest, ScriptedFollowsScriptWithFallback) {
  ScriptedSchedule schedule({2, 9, 1});
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}};
  EXPECT_EQ(candidates[schedule.Pick(candidates, 1)].thread_id, 2u);
  // 9 is not runnable: skipped, then 1.
  EXPECT_EQ(candidates[schedule.Pick(candidates, 2)].thread_id, 1u);
  // Script exhausted: falls back to the first candidate.
  EXPECT_EQ(candidates[schedule.Pick(candidates, 3)].thread_id, 1u);
}

TEST(ScheduleTest, RandomIsSeedDeterministic) {
  RandomSchedule a(11);
  RandomSchedule b(11);
  std::vector<SchedCandidate> candidates = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Pick(candidates, static_cast<std::uint64_t>(i)),
              b.Pick(candidates, static_cast<std::uint64_t>(i)));
  }
}

TEST(DetRuntimeTest, PreemptionOptionsChangeInterleavings) {
  // With preemption points disabled, a critical section of two lock-free... rather:
  // the same racy program becomes much harder to break because the only scheduling
  // points left are explicit yields — and stays deterministic.
  auto run = [](bool preempt) {
    DetRuntime::Options options;
    options.preempt_before_lock = preempt;
    options.preempt_after_notify = preempt;
    DetRuntime rt(std::make_unique<RandomSchedule>(3), options);
    auto mu = rt.CreateMutex();
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      static_cast<void>(rt.StartThread("t" + std::to_string(i), [&, i] {
        for (int k = 0; k < 2; ++k) {
          RtLock lock(*mu);
          order.push_back(i);
        }
      }));
    }
    EXPECT_TRUE(rt.Run().completed);
    return order;
  };
  // Both modes are deterministic per seed.
  EXPECT_EQ(run(true), run(true));
  EXPECT_EQ(run(false), run(false));
}

TEST(DetRuntimeTest, PctScheduleFindsRaceToo) {
  auto trial = [](std::uint64_t seed) -> std::string {
    DetRuntime rt(std::make_unique<PctSchedule>(seed, /*change_points=*/4,
                                                /*max_steps=*/200));
    int counter = 0;
    auto body = [&] {
      for (int i = 0; i < 5; ++i) {
        const int read = counter;
        rt.Yield();
        counter = read + 1;
      }
    };
    auto t1 = rt.StartThread("r1", body);
    auto t2 = rt.StartThread("r2", body);
    const DetRuntime::RunResult result = rt.Run();
    if (!result.completed) {
      return result.report;
    }
    return counter == 10 ? "" : "lost update";
  };
  const SweepOutcome outcome = SweepSchedules(50, trial);
  EXPECT_GT(outcome.failures, 0) << "PCT never exhibited the race";
}

TEST(DetRuntimeTest, CustomStepLimitIsRespected) {
  DetRuntime::Options options;
  options.max_steps = 25;
  DetRuntime rt(std::make_unique<FifoSchedule>(), options);
  auto spinner = rt.StartThread("spinner", [&] {
    while (true) {
      rt.Yield();
    }
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.step_limit);
  EXPECT_LE(result.steps, 26u);
}

TEST(SweepTest, OutcomeAggregatesCorrectly) {
  const SweepOutcome outcome = SweepSchedules(
      5, [](std::uint64_t seed) { return seed % 2 == 0 ? "even seed fails" : ""; },
      /*base_seed=*/1);
  EXPECT_EQ(outcome.runs, 5);
  EXPECT_EQ(outcome.failures, 2);  // Seeds 2 and 4.
  EXPECT_EQ(outcome.passes, 3);
  ASSERT_EQ(outcome.failing_seeds.size(), 2u);
  EXPECT_EQ(outcome.failing_seeds[0], 2u);
  EXPECT_DOUBLE_EQ(outcome.FailureRate(), 0.4);
  EXPECT_FALSE(outcome.AllPassed());
  EXPECT_NE(outcome.Summary().find("3/5"), std::string::npos);
}

// Regression: a trial that aborts (throws) mid-sweep must not desynchronize the rate
// denominators. Before the fix, the exception unwound out of SweepSchedules, losing the
// remaining seeds — FailureRate() and AnomalyRate() then described different subsets of
// the sweep depending on where the abort happened. Both must be fractions of `runs`,
// and `runs` must count every attempted seed.
TEST(SweepTest, AbortingTrialKeepsRateDenominatorsConsistent) {
  const SweepOutcome outcome = SweepSchedules(
      10,
      std::function<TrialReport(std::uint64_t)>([](std::uint64_t seed) {
        if (seed == 3) {
          throw std::runtime_error("workload wedged");  // Aborts, doesn't end the sweep.
        }
        TrialReport report;
        if (seed % 2 == 0) {
          report.anomalies.starvations = 1;  // Anomalous but passing trial.
        }
        return report;
      }),
      /*base_seed=*/1);
  EXPECT_EQ(outcome.runs, 10);  // Every seed attempted, abort included.
  EXPECT_EQ(outcome.failures, 1);
  EXPECT_EQ(outcome.passes, 9);
  ASSERT_EQ(outcome.failing_seeds.size(), 1u);
  EXPECT_EQ(outcome.failing_seeds[0], 3u);
  EXPECT_NE(outcome.first_failure.find("trial aborted: workload wedged"),
            std::string::npos);
  // Same denominator: 1 abort / 10 runs and 5 anomalous seeds / 10 runs.
  EXPECT_DOUBLE_EQ(outcome.FailureRate(), 0.1);
  EXPECT_DOUBLE_EQ(outcome.AnomalyRate(), 0.5);
}

TEST(OsRuntimeTest, BasicThreadingAndIds) {
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  int counter = 0;
  std::vector<std::uint32_t> ids;
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(rt.StartThread("t", [&] {
      for (int k = 0; k < 100; ++k) {
        RtLock lock(*mu);
        ++counter;
      }
      RtLock lock(*mu);
      ids.push_back(rt.CurrentThreadId());
    }));
  }
  for (auto& thread : threads) {
    thread->Join();
  }
  EXPECT_EQ(counter, 400);
  EXPECT_EQ(ids.size(), 4u);
  // Ids are distinct and nonzero.
  for (std::uint32_t id : ids) {
    EXPECT_NE(id, 0u);
  }
}

// ---- OsRuntime condition variables ------------------------------------------------------

// Blocks the calling (unmanaged) thread until `done` holds under `mu`, re-checking
// every millisecond; used to learn that managed threads have parked in a Wait.
void AwaitUnderLock(RtMutex& mu, const std::function<bool()>& done) {
  for (;;) {
    {
      RtLock lock(mu);
      if (done()) {
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(OsRuntimeTest, PingPongHandoffKeepsExactTurnCount) {
  constexpr int kHandoffs = 10000;
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  int turn = 0;  // Whose turn: 0 or 1.
  int turns = 0;
  bool lost = false;  // A handoff that never arrived: fail instead of hanging.
  auto player = [&](int me) {
    for (int i = 0; i < kHandoffs / 2; ++i) {
      RtLock lock(*mu);
      while (turn != me && !lost) {
        if (!cv->WaitFor(*mu, 2'000'000'000)) {
          lost = true;
        }
      }
      if (lost) {
        cv->NotifyOne();
        return;
      }
      ++turns;
      turn = 1 - me;
      cv->NotifyOne();
    }
  };
  auto a = rt.StartThread("ping", [&] { player(0); });
  auto b = rt.StartThread("pong", [&] { player(1); });
  a->Join();
  b->Join();
  EXPECT_FALSE(lost);
  EXPECT_EQ(turns, kHandoffs);
  EXPECT_EQ(turn, 0);
}

TEST(OsRuntimeTest, NotifyAllWakesEverySleeper) {
  constexpr int kSleepers = 4;
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool go = false;
  int parked = 0;
  int woken = 0;
  int timeouts = 0;
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int i = 0; i < kSleepers; ++i) {
    threads.push_back(rt.StartThread("sleeper", [&] {
      RtLock lock(*mu);
      ++parked;
      while (!go) {
        // A lost broadcast shows up as a timeout rather than a hung test.
        if (!cv->WaitFor(*mu, 10'000'000'000ull)) {
          ++timeouts;
        }
      }
      ++woken;
    }));
  }
  // parked == kSleepers under the mutex: every sleeper has released it inside Wait.
  AwaitUnderLock(*mu, [&] { return parked == kSleepers; });
  {
    RtLock lock(*mu);
    go = true;
  }
  cv->NotifyAll();
  for (auto& thread : threads) {
    thread->Join();
  }
  EXPECT_EQ(woken, kSleepers);
  EXPECT_EQ(timeouts, 0);
}

TEST(OsRuntimeTest, WaitForReportsDeadlineAndNotification) {
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  {
    // No notifier: the deadline fires, the mutex is held again on return.
    RtLock lock(*mu);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(cv->WaitFor(*mu, 20'000'000));
    EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(20));
  }
  bool waiting = false;
  bool notified = false;
  auto waiter = rt.StartThread("waiter", [&] {
    RtLock lock(*mu);
    waiting = true;
    notified = cv->WaitFor(*mu, 10'000'000'000ull);
  });
  AwaitUnderLock(*mu, [&] { return waiting; });
  const auto start = std::chrono::steady_clock::now();
  cv->NotifyOne();
  waiter->Join();
  EXPECT_TRUE(notified);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(OsRuntimeTest, RequestAbortWakesUntimedWaitWithoutPolling) {
  // A poll interval far beyond the bound below: only a direct wake can meet it.
  OsRuntime::Options options;
  options.abortable = true;
  options.abort_poll = std::chrono::seconds(10);
  OsRuntime rt(options);
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  std::atomic<bool> parked{false};
  std::atomic<bool> unwound{false};
  struct SetOnExit {
    std::atomic<bool>& flag;
    ~SetOnExit() { flag.store(true); }
  };
  auto sleeper = rt.StartThread("sleeper", [&] {
    SetOnExit on_exit{unwound};
    RtLock lock(*mu);
    parked.store(true);
    for (;;) {
      cv->Wait(*mu);  // Never notified: only the abort's TrialAborted ends this.
    }
  });
  while (!parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give the sleeper time to pass Unlock and fall asleep on its gate, so the abort
  // below has to wake it rather than being seen before the sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  rt.RequestAbort();
  while (!unwound.load() && std::chrono::steady_clock::now() - start < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool unwound_in_time = unwound.load();
  if (!unwound_in_time) {
    cv->NotifyAll();  // The abort's wake was lost: end the sleep so the test fails, not hangs.
  }
  sleeper->Join();
  EXPECT_TRUE(unwound_in_time);
}

// Exact totals through a bounded queue; producers and consumers alternate between
// notifying under the mutex and after releasing it.
void RunProducerConsumerStress(OsRuntime& rt) {
  constexpr int kPairs = 4;
  constexpr int kItemsPerProducer = 2000;
  constexpr int kCapacity = 4;
  auto mu = rt.CreateMutex();
  auto not_empty = rt.CreateCondVar();
  auto not_full = rt.CreateCondVar();
  std::vector<long long> queue;
  long long consumed_sum = 0;
  int consumed = 0;
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int p = 0; p < kPairs; ++p) {
    threads.push_back(rt.StartThread("producer", [&, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        const bool under_lock = i % 2 == 0;
        {
          RtLock lock(*mu);
          while (static_cast<int>(queue.size()) == kCapacity) {
            not_full->Wait(*mu);
          }
          queue.push_back(static_cast<long long>(p) * kItemsPerProducer + i);
          if (under_lock) {
            not_empty->NotifyOne();
          }
        }
        if (!under_lock) {
          not_empty->NotifyOne();
        }
      }
    }));
    threads.push_back(rt.StartThread("consumer", [&, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        const bool under_lock = (i + p) % 2 == 0;
        {
          RtLock lock(*mu);
          while (queue.empty()) {
            not_empty->Wait(*mu);
          }
          consumed_sum += queue.back();
          queue.pop_back();
          ++consumed;
          if (under_lock) {
            not_full->NotifyOne();
          }
        }
        if (!under_lock) {
          not_full->NotifyOne();
        }
      }
    }));
  }
  for (auto& thread : threads) {
    thread->Join();
  }
  const long long items = static_cast<long long>(kPairs) * kItemsPerProducer;
  EXPECT_EQ(consumed, items);
  EXPECT_EQ(consumed_sum, items * (items - 1) / 2);
  EXPECT_TRUE(queue.empty());
}

TEST(OsRuntimeTest, ProducerConsumerStressIsExactBare) {
  OsRuntime rt;
  RunProducerConsumerStress(rt);
}

TEST(OsRuntimeTest, ProducerConsumerStressIsExactInstrumented) {
  MetricsRegistry registry;
  FlightRecorder flight;
  AnomalyDetector detector;
  OsRuntime rt;
  rt.AttachMetrics(&registry);
  rt.AttachFlightRecorder(&flight);
  rt.AttachAnomalyDetector(&detector);
  RunProducerConsumerStress(rt);
  EXPECT_EQ(detector.counts().deadlocks, 0);
  EXPECT_GT(flight.recorded(), 0u);
}

}  // namespace
}  // namespace syneval
