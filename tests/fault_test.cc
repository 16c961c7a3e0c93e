// Tests for the fault-injection layer: plan parsing, injector determinism, deadline
// helpers, RtCondVar::WaitFor under both runtimes, end-to-end injected faults under
// DetRuntime (dropped signals, spurious wakeups, stalls, kills), recovery policies,
// the teardown-abort detector guard, the jittered OS watchdog, and the chaos sweep's
// calibration arithmetic.

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/chaos.h"
#include "syneval/fault/fault.h"
#include "syneval/fault/injector.h"
#include "syneval/fault/recovery.h"
#include "syneval/ccr/critical_region.h"
#include "syneval/runtime/deadline.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/explore.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/schedule.h"
#include "syneval/sync/semaphore.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/tracer.h"
#include "syneval/trace/recorder.h"

namespace syneval {
namespace {

// ---- Plan parsing ----------------------------------------------------------------------

TEST(FaultPlan, ParsesGrammarAndRoundTrips) {
  const FaultPlan plan =
      MustParseFaultPlan("drop-signal:nth=2;stall:nth=1,steps=500;kill-thread:prob=0.25,fires=3",
                         /*seed=*/7);
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.seed, 7u);

  EXPECT_EQ(plan.specs[0].kind, FaultKind::kDropSignal);
  EXPECT_EQ(plan.specs[0].trigger.nth, 2u);
  EXPECT_EQ(plan.specs[0].site_mask,
            SiteBit(FaultSite::kNotifyOne) | SiteBit(FaultSite::kNotifyAll));

  EXPECT_EQ(plan.specs[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.specs[1].steps, 500u);
  EXPECT_EQ(plan.specs[1].site_mask, SiteBit(FaultSite::kLockPost));

  EXPECT_EQ(plan.specs[2].kind, FaultKind::kKillThread);
  EXPECT_DOUBLE_EQ(plan.specs[2].trigger.probability, 0.25);
  EXPECT_EQ(plan.specs[2].max_fires, 3);

  // ToString re-renders in the grammar; re-parsing yields the same plan.
  const FaultPlan reparsed = MustParseFaultPlan(plan.ToString(), plan.seed);
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
}

TEST(FaultPlan, NotifyFlavourTokensNarrowTheSiteMask) {
  EXPECT_EQ(MustParseFaultPlan("drop-notify:nth=1", 1).specs[0].site_mask,
            SiteBit(FaultSite::kNotifyOne));
  EXPECT_EQ(MustParseFaultPlan("drop-broadcast:nth=1", 1).specs[0].site_mask,
            SiteBit(FaultSite::kNotifyAll));
}

TEST(FaultPlan, RejectsMalformedInput) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("explode:nth=1", 1, &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseFaultPlan("drop-signal:nth=1,prob=0.5", 1, &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("stall:steps=", 1, &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("drop-signal:prob=1.5", 1, &plan, &error));
}

// ---- Injector determinism --------------------------------------------------------------

TEST(FaultInjectorTest, ProbabilityTriggersReplayExactly) {
  const FaultPlan plan = MustParseFaultPlan("drop-signal:prob=0.3,fires=0", /*seed=*/42);
  auto fire_pattern = [&plan] {
    FaultInjector injector(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(static_cast<bool>(
          injector.Decide(FaultSite::kNotifyOne, /*thread=*/1, /*now_nanos=*/i)));
    }
    return fired;
  };
  const std::vector<bool> first = fire_pattern();
  EXPECT_EQ(first, fire_pattern());
  // A different plan seed draws a different pattern (with overwhelming probability).
  FaultPlan reseeded = plan;
  reseeded.seed = 43;
  FaultInjector other(reseeded);
  std::vector<bool> different;
  for (int i = 0; i < 200; ++i) {
    different.push_back(static_cast<bool>(other.Decide(FaultSite::kNotifyOne, 1, i)));
  }
  EXPECT_NE(first, different);
}

TEST(FaultInjectorTest, NthTriggerCountsOnlyMatchingSites) {
  FaultInjector injector(MustParseFaultPlan("drop-notify:nth=2", 1));
  // kNotifyAll and kWait visits must not advance a drop-notify spec's counter.
  EXPECT_FALSE(injector.Decide(FaultSite::kNotifyAll, 1, 0));
  EXPECT_FALSE(injector.Decide(FaultSite::kWait, 1, 1));
  EXPECT_FALSE(injector.Decide(FaultSite::kNotifyOne, 1, 2));  // Occurrence 1.
  EXPECT_TRUE(injector.Decide(FaultSite::kNotifyOne, 1, 3));   // Occurrence 2: fires.
  EXPECT_FALSE(injector.Decide(FaultSite::kNotifyOne, 1, 4));  // max_fires=1 exhausted.
  EXPECT_EQ(injector.injected_count(), 1);
  EXPECT_EQ(injector.injected()[0].site, FaultSite::kNotifyOne);
  EXPECT_EQ(injector.first_injection_nanos(), 3u);
}

// ---- Deadline helper -------------------------------------------------------------------

TEST(DeadlineTest, ExpiresAfterItsDuration) {
  const Deadline deadline = Deadline::AfterNanos(1'000'000);  // 1 ms.
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.Remaining().count(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.Remaining().count(), 0);
}

TEST(DeadlineTest, JitterPeriodStaysWithinFractionAndVaries) {
  std::mt19937_64 rng(123);
  const std::chrono::nanoseconds period(10'000'000);
  bool saw_distinct = false;
  std::chrono::nanoseconds previous(0);
  for (int i = 0; i < 200; ++i) {
    const std::chrono::nanoseconds jittered = JitterPeriod(period, 0.2, rng);
    EXPECT_GE(jittered.count(), 8'000'000);
    EXPECT_LE(jittered.count(), 12'000'000);
    if (i > 0 && jittered != previous) {
      saw_distinct = true;
    }
    previous = jittered;
  }
  EXPECT_TRUE(saw_distinct);
  // Zero fraction (or a zero period) disables jitter; positive periods clamp at 1 ns.
  EXPECT_EQ(JitterPeriod(period, 0.0, rng), period);
  EXPECT_EQ(JitterPeriod(std::chrono::nanoseconds(0), 0.5, rng).count(), 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(JitterPeriod(std::chrono::nanoseconds(1), 0.99, rng).count(), 1);
  }
}

// ---- WaitFor under DetRuntime ----------------------------------------------------------

TEST(DetWaitFor, TimeoutJumpsVirtualTimeAndReturnsFalse) {
  DetRuntime rt(MakeRandomSchedule(1));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool timed_out = false;
  auto waiter = rt.StartThread("waiter", [&] {
    RtLock lock(*mu);
    // Nobody ever signals: only the 5000 ns (5-step) deadline can unblock this.
    timed_out = !cv->WaitFor(*mu, 5'000);
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_TRUE(timed_out);
}

TEST(DetWaitFor, NotifyBeforeDeadlineReturnsTrue) {
  DetRuntime rt(MakeRandomSchedule(1));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool ready = false;
  bool notified_in_time = false;
  auto waiter = rt.StartThread("waiter", [&] {
    RtLock lock(*mu);
    while (!ready) {
      // Generous deadline: the signaller below always beats 10^6 steps.
      if (!cv->WaitFor(*mu, 1'000'000'000)) {
        return;
      }
    }
    notified_in_time = true;
  });
  auto signaller = rt.StartThread("signaller", [&] {
    RtLock lock(*mu);
    ready = true;
    cv->NotifyOne();
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_TRUE(notified_in_time);
}

// The canonical timed-wait race: a signaller that dawdles a schedule-dependent number
// of steps against a waiter with a fixed deadline. Same seed must produce the same
// winner every time (DetRuntime determinism), and the seed range must exercise BOTH
// winners (otherwise the test proves nothing about the race).
std::string TimedRaceWinner(std::uint64_t seed) {
  DetRuntime rt(MakeRandomSchedule(seed));
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool ready = false;
  std::string winner;
  auto waiter = rt.StartThread("waiter", [&] {
    RtLock lock(*mu);
    while (!ready) {
      if (!cv->WaitFor(*mu, 6'000)) {  // 6 virtual steps.
        winner = "timeout";
        return;
      }
    }
    winner = "notify";
  });
  auto signaller = rt.StartThread("signaller", [&] {
    // Dawdle a seed-dependent number of steps so the 6-step deadline wins on some
    // seeds and the notify on others — with the winner still a pure function of seed.
    for (std::uint64_t i = 0; i < seed % 12; ++i) {
      rt.Yield();
    }
    RtLock lock(*mu);
    ready = true;
    cv->NotifyAll();
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << "seed " << seed << ": " << result.report;
  return winner;
}

TEST(DetWaitFor, TimeoutVersusNotifyRaceIsDeterministicPerSeed) {
  int timeouts = 0;
  int notifies = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string first = TimedRaceWinner(seed);
    EXPECT_EQ(first, TimedRaceWinner(seed)) << "seed " << seed << " not deterministic";
    if (first == "timeout") {
      ++timeouts;
    } else if (first == "notify") {
      ++notifies;
    }
  }
  EXPECT_EQ(timeouts + notifies, 40);
  EXPECT_GT(timeouts, 0) << "race never timed out: deadline too generous to test";
  EXPECT_GT(notifies, 0) << "race never got notified: deadline too tight to test";
}

// ---- WaitFor under OsRuntime (TSan-clean by construction) ------------------------------

TEST(OsWaitFor, TimeoutExpiresAndNotifyArrives) {
  OsRuntime rt;
  auto mu = rt.CreateMutex();
  auto cv = rt.CreateCondVar();
  bool ready = false;
  bool saw_timeout = false;
  bool saw_ready = false;
  auto waiter = rt.StartThread("waiter", [&] {
    RtLock lock(*mu);
    // Phase 1: nobody signals for 2 ms — at least one deadline must expire.
    while (!ready) {
      if (!cv->WaitFor(*mu, 2'000'000)) {
        saw_timeout = true;
        break;
      }
    }
    // Phase 2: wait (with a generous deadline) until the signaller flips `ready`.
    while (!ready) {
      cv->WaitFor(*mu, 1'000'000'000);
    }
    saw_ready = true;
  });
  auto signaller = rt.StartThread("signaller", [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    RtLock lock(*mu);
    ready = true;
    cv->NotifyAll();
  });
  waiter->Join();
  signaller->Join();
  EXPECT_TRUE(saw_timeout);
  EXPECT_TRUE(saw_ready);
}

// ---- End-to-end injected faults under DetRuntime ---------------------------------------

// One producer flips a flag and signals once; one consumer waits for the flag. The
// minimal protocol whose single signal is load-bearing.
struct OneShotProtocol {
  DetRuntime rt;
  std::unique_ptr<RtMutex> mu;
  std::unique_ptr<RtCondVar> cv;
  bool flag = false;
  bool consumer_done = false;

  explicit OneShotProtocol(std::uint64_t seed) : rt(MakeRandomSchedule(seed)) {}
  OneShotProtocol(std::uint64_t seed, DetRuntime::Options options)
      : rt(MakeRandomSchedule(seed), options) {}

  DetRuntime::RunResult Run() {
    mu = rt.CreateMutex();
    cv = rt.CreateCondVar();
    auto consumer = rt.StartThread("consumer", [this] {
      RtLock lock(*mu);
      while (!flag) {
        cv->Wait(*mu);
      }
      consumer_done = true;
    });
    auto producer = rt.StartThread("producer", [this] {
      for (int i = 0; i < 8; ++i) {
        rt.Yield();  // Let the consumer park: the signal must be load-bearing.
      }
      RtLock lock(*mu);
      flag = true;
      cv->NotifyOne();
    });
    return rt.Run();
  }
};

TEST(FaultInjection, DroppedSignalStrandsWaiterAndDetectorFlagsIt) {
  OneShotProtocol protocol(/*seed=*/3);
  AnomalyDetector detector;
  protocol.rt.AttachAnomalyDetector(&detector);
  FaultInjector injector(MustParseFaultPlan("drop-signal:nth=1", 1));
  protocol.rt.AttachFaultInjector(&injector);

  const DetRuntime::RunResult result = protocol.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked) << result.report;
  EXPECT_FALSE(protocol.consumer_done);
  EXPECT_EQ(injector.CountOf(FaultKind::kDropSignal), 1);
  EXPECT_GT(detector.counts().total(), 0) << "detector missed an injected lost signal";
}

TEST(FaultInjection, SpuriousWakeupIsAbsorbedAndNamedInTheTrace) {
  OneShotProtocol protocol(/*seed=*/3);
  TelemetryTracer tracer;
  protocol.rt.AttachTracer(&tracer);
  FaultInjector injector(MustParseFaultPlan("spurious-wakeup:nth=1", 1));
  protocol.rt.AttachFaultInjector(&injector);

  const DetRuntime::RunResult result = protocol.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_TRUE(protocol.consumer_done);
  EXPECT_EQ(injector.CountOf(FaultKind::kSpuriousWakeup), 1);
  bool traced = false;
  for (const TelemetryTracer::Record& record : tracer.Snapshot()) {
    if (record.type == TelemetryTracer::RecordType::kInstant &&
        record.name == "fault.spurious-wakeup") {
      traced = true;
    }
  }
  EXPECT_TRUE(traced) << "injected fault not visible as a named trace event";
}

TEST(FaultInjection, KillAfterAcquireLeavesMutexHeldForever) {
  // The first Lock() consults kLockPre (occurrence 1) then kLockPost (occurrence 2):
  // nth=2 kills the first locker at the instant it owns the mutex.
  DetRuntime rt(MakeRandomSchedule(5));
  AnomalyDetector detector;
  rt.AttachAnomalyDetector(&detector);
  FaultInjector injector(MustParseFaultPlan("kill-thread:nth=2", 1));
  rt.AttachFaultInjector(&injector);

  auto mu = rt.CreateMutex();
  bool second_entered = false;
  auto first = rt.StartThread("first", [&] {
    mu->Lock();  // Killed here, holding the mutex (no RAII guard exists yet).
    mu->Unlock();
  });
  auto second = rt.StartThread("second", [&] {
    for (int i = 0; i < 3; ++i) {
      rt.Yield();  // Let "first" die first.
    }
    RtLock lock(*mu);
    second_entered = true;
  });
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(second_entered);
  EXPECT_EQ(injector.CountOf(FaultKind::kKillThread), 1);
  EXPECT_GT(detector.counts().total(), 0);
}

TEST(FaultInjection, StallBeyondStepBudgetIsDiagnosedAtTheLimit) {
  DetRuntime::Options options;
  options.max_steps = 500;
  options.diagnose_on_step_limit = true;
  DetRuntime rt(MakeRandomSchedule(2), options);
  AnomalyDetector detector;
  rt.AttachAnomalyDetector(&detector);
  FaultInjector injector(MustParseFaultPlan("stall:nth=1,steps=100000", 1));
  rt.AttachFaultInjector(&injector);

  auto mu = rt.CreateMutex();
  auto worker = [&] {
    for (int i = 0; i < 10; ++i) {
      RtLock lock(*mu);
      rt.Yield();
    }
  };
  auto a = rt.StartThread("a", worker);
  auto b = rt.StartThread("b", worker);
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.step_limit) << result.report;
  EXPECT_EQ(injector.CountOf(FaultKind::kStall), 1);
  EXPECT_GT(detector.counts().total(), 0)
      << "step-limit diagnosis missed the peer starved by the stalled holder";
}

TEST(FaultInjection, DelayLockOnlyPostponesAndRunsComplete) {
  DetRuntime rt(MakeRandomSchedule(4));
  FaultInjector injector(MustParseFaultPlan("delay-lock:nth=1,steps=50", 1));
  rt.AttachFaultInjector(&injector);
  auto mu = rt.CreateMutex();
  int entries = 0;
  auto worker = [&] {
    RtLock lock(*mu);
    ++entries;
  };
  auto a = rt.StartThread("a", worker);
  auto b = rt.StartThread("b", worker);
  const DetRuntime::RunResult result = rt.Run();
  EXPECT_TRUE(result.completed) << result.report;
  EXPECT_EQ(entries, 2);
  EXPECT_EQ(injector.CountOf(FaultKind::kDelayLock), 1);
}

// ---- Teardown-abort regression ---------------------------------------------------------

// When a deadlocked run is torn down, the runtime aborts every surviving thread; their
// unwinding releases locks and finishes threads *after* diagnosis. SetAborting gates
// the detector during that teardown: the diagnosis must be identical to what
// DiagnoseStuck found, not inflated by teardown-time hook traffic.
TEST(FaultInjection, TeardownAbortDoesNotInflateTheDiagnosis) {
  AnomalyCounts at_diagnosis;
  AnomalyDetector detector;
  {
    OneShotProtocol protocol(/*seed=*/9);
    protocol.rt.AttachAnomalyDetector(&detector);
    FaultInjector injector(MustParseFaultPlan("drop-signal:nth=1", 1));
    protocol.rt.AttachFaultInjector(&injector);
    const DetRuntime::RunResult result = protocol.Run();
    ASSERT_TRUE(result.deadlocked) << result.report;
    at_diagnosis = detector.counts();
    ASSERT_GT(at_diagnosis.total(), 0);
    // Destroying the runtime here aborts and joins the stranded consumer; its unwind
    // releases the protocol mutex and fires OnThreadFinish while it is (to the
    // detector) still a waiter.
  }
  const AnomalyCounts after_teardown = detector.counts();
  EXPECT_EQ(after_teardown.total(), at_diagnosis.total())
      << "teardown-time hooks were double-counted as anomalies";
}

// ---- Recovery policies -----------------------------------------------------------------

TEST(Recovery, TimedWaitRescuesSemaphoreFromADroppedNotify) {
  int completed = 0;
  std::uint64_t total_rescues = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DetRuntime rt(MakeRandomSchedule(seed));
    FaultInjector injector(MustParseFaultPlan("drop-notify:nth=1", 1));
    rt.AttachFaultInjector(&injector);
    CountingSemaphore sem(rt, 0);
    RecoveryStats stats;
    RecoveryPolicy policy;
    policy.timeout_nanos = 20'000;  // 20 virtual steps.
    sem.EnableRecovery(&stats, policy);
    auto consumer = rt.StartThread("consumer", [&] { sem.P(); });
    auto producer = rt.StartThread("producer", [&] {
      for (int i = 0; i < 5; ++i) {
        rt.Yield();  // Give the consumer time to park before the V whose notify drops.
      }
      sem.V();
    });
    const DetRuntime::RunResult result = rt.Run();
    EXPECT_TRUE(result.completed) << "seed " << seed << ": " << result.report;
    completed += result.completed ? 1 : 0;
    total_rescues += stats.rescues.load();
    EXPECT_EQ(stats.genuine_hangs.load(), 0u) << "seed " << seed;
  }
  EXPECT_EQ(completed, 10);
  EXPECT_GT(total_rescues, 0u)
      << "no schedule exercised the rescue path: the dropped notify never stranded P()";
}

TEST(Recovery, CriticalRegionRescuedFromADroppedBroadcast) {
  int completed = 0;
  std::uint64_t total_rescues = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DetRuntime rt(MakeRandomSchedule(seed));
    FaultInjector injector(MustParseFaultPlan("drop-broadcast:nth=1", 1));
    rt.AttachFaultInjector(&injector);
    CriticalRegion region(rt);
    RecoveryStats stats;
    RecoveryPolicy policy;
    policy.timeout_nanos = 20'000;
    region.EnableRecovery(&stats, policy);
    bool item = false;
    auto consumer = rt.StartThread("consumer", [&] {
      region.When([&] { return item; }, [&] { item = false; });
    });
    auto producer = rt.StartThread("producer", [&] {
      for (int i = 0; i < 5; ++i) {
        rt.Yield();
      }
      region.Enter([&] { item = true; });  // Exit grants the waiter; broadcast drops.
    });
    const DetRuntime::RunResult result = rt.Run();
    EXPECT_TRUE(result.completed) << "seed " << seed << ": " << result.report;
    completed += result.completed ? 1 : 0;
    total_rescues += stats.rescues.load();
  }
  EXPECT_EQ(completed, 10);
  EXPECT_GT(total_rescues, 0u);
}

// Without recovery, the same dropped notify is a permanent hang — the control arm.
TEST(Recovery, WithoutRecoveryTheSameFaultDeadlocks) {
  int deadlocked = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DetRuntime rt(MakeRandomSchedule(seed));
    FaultInjector injector(MustParseFaultPlan("drop-notify:nth=1", 1));
    rt.AttachFaultInjector(&injector);
    CountingSemaphore sem(rt, 0);
    auto consumer = rt.StartThread("consumer", [&] { sem.P(); });
    auto producer = rt.StartThread("producer", [&] {
      for (int i = 0; i < 5; ++i) {
        rt.Yield();
      }
      sem.V();
    });
    const DetRuntime::RunResult result = rt.Run();
    deadlocked += result.deadlocked ? 1 : 0;
  }
  EXPECT_GT(deadlocked, 0)
      << "the dropped notify never hurt: the recovery tests above prove nothing";
}

// ---- Jittered OS watchdog --------------------------------------------------------------

TEST(Watchdog, JitteredPeriodIsExportedAndBounded) {
  OsRuntime rt;
  AnomalyDetector detector;
  rt.AttachAnomalyDetector(&detector);
  MetricsRegistry metrics;
  rt.AttachMetrics(&metrics);
  OsRuntime::WatchdogOptions options;
  options.period = std::chrono::milliseconds(5);
  options.jitter_fraction = 0.2;
  rt.StartAnomalyWatchdog(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rt.StopAnomalyWatchdog();
  const std::int64_t period_ms = metrics.GetGauge("anomaly/watchdog_period_ms").Value();
  EXPECT_GE(period_ms, 4);  // 5 ms ± 20%.
  EXPECT_LE(period_ms, 6);
}

// ---- Chaos sweep calibration -----------------------------------------------------------

TEST(ChaosSweepTest, BoundedBufferLostSignalHasPerfectRecallAndNoFalsePositives) {
  const std::vector<ChaosCase> suite = BuildChaosSuite();
  const ChaosCase* monitor_buffer = nullptr;
  for (const ChaosCase& chaos_case : suite) {
    if (chaos_case.problem == "bounded-buffer" && chaos_case.mechanism == Mechanism::kMonitor) {
      monitor_buffer = &chaos_case;
    }
  }
  ASSERT_NE(monitor_buffer, nullptr);
  const FaultPlan plan = MustParseFaultPlan("drop-signal:prob=0.25,fires=2", /*seed=*/1);
  const ChaosSweepOutcome outcome = SweepChaos(6, monitor_buffer->trial, plan);
  EXPECT_EQ(outcome.runs, 6);
  EXPECT_GT(outcome.harmful, 0) << "no schedule was hurt: the plan is too weak to calibrate";
  EXPECT_DOUBLE_EQ(outcome.Recall(), 1.0)
      << "missed seeds:" << ::testing::PrintToString(outcome.missed_seeds);
  EXPECT_EQ(outcome.clean_anomalies, 0)
      << "false-positive seeds:" << ::testing::PrintToString(outcome.fp_seeds);
  EXPECT_EQ(outcome.clean_failures, 0);
}

TEST(ChaosSweepTest, VacuousSweepReportsSentinelMetrics) {
  // A trial that never gets hurt: no faults fire (empty plan), so recall and
  // steps-to-detection are vacuous, not zero.
  const ChaosSweepOutcome outcome = SweepChaos(
      3,
      [](std::uint64_t, const FaultPlan*) {
        ChaosTrialOutcome out;
        out.completed = true;
        return out;
      },
      FaultPlan{});
  EXPECT_EQ(outcome.harmful, 0);
  EXPECT_DOUBLE_EQ(outcome.Recall(), -1.0);
  EXPECT_DOUBLE_EQ(outcome.MeanStepsToDetection(), -1.0);
  EXPECT_DOUBLE_EQ(outcome.FalsePositiveRate(), 0.0);
}

}  // namespace
}  // namespace syneval
