// Trial supervisor (runtime/supervisor.h): hung-trial reaping under a wall-clock
// deadline, crash capture, retry/quarantine policy, and the acceptance-criterion
// scenario — a sweep with a permanently-hung cell and a crashing cell still completes
// with every healthy cell's outcome bit-identical to a clean run. Chaos rows are
// supervised by their fold alone: no deadline touches them, and a quarantined row's
// verdict survives a resume, SIGKILL included.
//
// Every supervised attempt runs in a fork()ed child, so these tests fork real
// OsRuntime trials; they stay in the tier-1 (fast) set and run in the sanitizer CI
// configs too.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/fault/chaos.h"
#include "syneval/fault/fault.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/supervisor.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// The ASan/UBSan build: there UBSan reports a null store itself and, with
// halt_on_error=1 (as CI runs it), ends the process with exit status 1 before any
// SIGSEGV is raised.
#if defined(__SANITIZE_ADDRESS__)
#define SYNEVAL_ASAN_UBSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYNEVAL_ASAN_UBSAN_BUILD 1
#endif
#endif

namespace syneval {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// A body that parks the driving thread on a never-signalled condvar until the
// sandbox kills its child.
std::string HangForever(OsRuntime& rt, std::uint64_t) {
  std::unique_ptr<RtMutex> mu = rt.CreateMutex();
  std::unique_ptr<RtCondVar> cv = rt.CreateCondVar();
  std::unique_lock<RtMutex> lock(*mu);
  while (true) {
    cv->Wait(*mu);
  }
}

// A hang with managed threads parked too: the kill must end all of them.
std::string HangWithWorkers(OsRuntime& rt, std::uint64_t) {
  std::unique_ptr<RtMutex> mu = rt.CreateMutex();
  std::unique_ptr<RtCondVar> cv = rt.CreateCondVar();
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int i = 0; i < 3; ++i) {
    threads.push_back(rt.StartThread("parked" + std::to_string(i), [&] {
      std::unique_lock<RtMutex> lock(*mu);
      while (true) {
        cv->Wait(*mu);
      }
    }));
  }
  for (auto& thread : threads) {
    thread->Join();  // Never returns: the child is killed here.
  }
  return "";
}

SupervisorOptions FastOptions() {
  SupervisorOptions options;
  options.trial_deadline = milliseconds(150);
  options.max_attempts = 1;
  options.retry_backoff = milliseconds(1);
  return options;
}

// One supervised attempt of a canned OsRuntime trial (max_attempts = 1: no retries).
SupervisedTrialResult RunOnce(std::function<std::string(OsRuntime&, std::uint64_t)> body,
                              SupervisorOptions options = FastOptions()) {
  options.max_attempts = 1;
  return RunSupervisedSeed(MakeSupervisableOsTrial(std::move(body)), /*seed=*/1, options,
                           nullptr);
}

// Counts attempts across the sandbox's child processes, which share no memory with
// the test: each call appends a byte to `path` and returns how many it held before.
int CountAttempt(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const int before = in ? static_cast<int>(in.tellg()) : 0;
  std::ofstream(path, std::ios::app) << 'x';
  return before;
}

// ---- Gauge ----------------------------------------------------------------------------

TEST(ActiveTrialsTest, GaugeCountsScopesAndNeverReadsZero) {
  EXPECT_GE(ActiveTrials(), 1);
  const int base = ActiveTrials();
  {
    ActiveTrialScope one;
    ActiveTrialScope two;
    EXPECT_GE(ActiveTrials(), base + 1);
  }
  EXPECT_EQ(ActiveTrials(), base);
}

// A running trial is registered once, by the sweep-pool worker that runs it; the
// supervised attempt inside it adds nothing. The trial reports its reading as its
// verdict, since it runs in a child process.
TEST(ActiveTrialsTest, SupervisedCellCountsItsTrialOnce) {
  const std::vector<SupervisedCell> cells = {
      {"records-gauge", MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t) {
         return std::to_string(ActiveTrials());
       })}};
  const SupervisedSweepReport report = SuperviseSweep(cells, 1, 1, FastOptions());
  ASSERT_EQ(report.cells[0].completed_seeds, 1);
  EXPECT_EQ(report.cells[0].reports[0].message, "1");
}

// ---- Reaping --------------------------------------------------------------------------

TEST(SupervisorTest, HungTrialIsReapedWithinDeadline) {
  const auto start = steady_clock::now();
  const SupervisedTrialResult result = RunOnce(HangForever);
  const auto elapsed = steady_clock::now() - start;
  EXPECT_TRUE(result.reaped);
  EXPECT_FALSE(result.crashed);
  EXPECT_TRUE(result.Catastrophic());
  EXPECT_NE(result.report.message.find("reaped"), std::string::npos)
      << result.report.message;
  // Reaped well within an order of magnitude of the deadline (slack for slow CI).
  EXPECT_LT(elapsed, milliseconds(5000));
}

TEST(SupervisorTest, HungManagedThreadsAreKilledToo) {
  const SupervisedTrialResult result = RunOnce(HangWithWorkers);
  EXPECT_TRUE(result.reaped);
  EXPECT_NE(result.report.message.find("deadline"), std::string::npos);
}

TEST(SupervisorTest, ReapedTrialCarriesALivePostmortem) {
  const SupervisedTrialResult result = RunOnce(HangForever);
  ASSERT_TRUE(result.reaped);
  // The child observed its trial once the deadline had passed, before the kill: the
  // detector had a parked waiter to report, so the postmortem names the stuck wait.
  EXPECT_EQ(result.report.postmortem_cause, "stuck-waiter") << result.report.postmortem;
  EXPECT_NE(result.report.postmortem.find("stuck"), std::string::npos);
}

TEST(SupervisorTest, HealthyTrialIsUntouchedByTheDeadline) {
  const SupervisedTrialResult result =
      RunOnce([](OsRuntime&, std::uint64_t) { return std::string(); });
  EXPECT_FALSE(result.reaped);
  EXPECT_FALSE(result.crashed);
  EXPECT_TRUE(result.report.Passed());
}

// A waiter parked for 60 ms, well past the 10 ms stuck-wait threshold the trial's
// observe polls with, but inside the deadline. Nothing may observe the trial before
// its deadline: an observe's Poll would count the wait as a stuck waiter in the
// trial's own report.
TEST(SupervisorTest, SlowHealthyTrialKeepsACleanReport) {
  SupervisorOptions options;
  options.max_attempts = 1;
  const SupervisedTrialResult result = RunSupervisedSeed(
      MakeSupervisableOsTrial([](OsRuntime& rt, std::uint64_t) {
        std::unique_ptr<RtMutex> mu = rt.CreateMutex();
        std::unique_ptr<RtCondVar> cv = rt.CreateCondVar();
        bool ready = false;
        std::unique_ptr<RtThread> signaller = rt.StartThread("signaller", [&] {
          std::this_thread::sleep_for(milliseconds(60));
          RtLock lock(*mu);
          ready = true;
          cv->NotifyOne();
        });
        {
          std::unique_lock<RtMutex> lock(*mu);
          while (!ready) {
            cv->Wait(*mu);
          }
        }
        signaller->Join();
        return std::string();
      }),
      /*seed=*/1, options, nullptr);
  EXPECT_FALSE(result.Catastrophic());
  EXPECT_TRUE(result.report.Passed()) << result.report.message;
  EXPECT_EQ(result.report.anomalies.total(), 0) << result.report.anomaly_report;
  EXPECT_EQ(result.report.postmortem_cause, "") << result.report.postmortem;
}

TEST(SupervisorTest, ZeroDeadlineDisablesReaping) {
  // With no deadline the trial must complete on its own; use a body that finishes.
  SupervisorOptions options;
  options.trial_deadline = milliseconds(0);
  const SupervisedTrialResult result =
      RunOnce([](OsRuntime&, std::uint64_t) { return std::string("verdict"); }, options);
  EXPECT_FALSE(result.reaped);
  EXPECT_EQ(result.report.message, "verdict");
}

// ---- Crash capture --------------------------------------------------------------------

TEST(SupervisorTest, EscapingExceptionBecomesStructuredCrash) {
  const SupervisedTrialResult result =
      RunOnce([](OsRuntime&, std::uint64_t) -> std::string {
        throw std::runtime_error("synthetic defect in trial body");
      });
  EXPECT_TRUE(result.crashed);
  EXPECT_FALSE(result.reaped);
  EXPECT_TRUE(result.crash.crashed);
  EXPECT_EQ(result.crash.signal_number, 0);
  EXPECT_NE(result.crash.what.find("synthetic defect"), std::string::npos);
  EXPECT_NE(result.report.message.find("crashed"), std::string::npos);
}

TEST(SupervisorTest, OracleFailureIsAResultNotACrash) {
  const SupervisedTrialResult result = RunOnce(
      [](OsRuntime&, std::uint64_t) { return std::string("oracle: order violated"); });
  EXPECT_FALSE(result.Catastrophic());
  EXPECT_EQ(result.report.message, "oracle: order violated");
}

// ---- Retries --------------------------------------------------------------------------

TEST(SupervisorTest, CatastrophicAttemptsAreRetriedUntilOneSucceeds) {
  const std::string attempts = testing::TempDir() + "/retried_attempts";
  std::remove(attempts.c_str());
  SupervisorOptions options = FastOptions();
  options.max_attempts = 3;
  SupervisorStats stats;
  const SupervisedTrialResult result = RunSupervisedSeed(
      MakeSupervisableOsTrial([attempts](OsRuntime&, std::uint64_t) -> std::string {
        if (CountAttempt(attempts) < 2) {
          throw std::runtime_error("flaky crash");
        }
        return "";
      }),
      /*seed=*/1, options, &stats);
  EXPECT_FALSE(result.Catastrophic());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(stats.crashed, 2);
  EXPECT_EQ(stats.retried, 2);
  EXPECT_TRUE(result.report.Passed());
  std::remove(attempts.c_str());
}

TEST(SupervisorTest, OracleFailuresAreNeverRetried) {
  const std::string attempts = testing::TempDir() + "/oracle_failure_attempts";
  std::remove(attempts.c_str());
  SupervisorOptions options = FastOptions();
  options.max_attempts = 5;
  SupervisorStats stats;
  const SupervisedTrialResult result = RunSupervisedSeed(
      MakeSupervisableOsTrial([attempts](OsRuntime&, std::uint64_t) {
        CountAttempt(attempts);
        return std::string("legitimate oracle failure");
      }),
      /*seed=*/1, options, &stats);
  EXPECT_EQ(CountAttempt(attempts), 1);
  EXPECT_EQ(stats.retried, 0);
  EXPECT_FALSE(result.Catastrophic());
  std::remove(attempts.c_str());
}

// ---- Quarantine and the acceptance scenario -------------------------------------------

SeededTrial HealthyCounterCell(int start) {
  return MakeSupervisableOsTrial([start](OsRuntime&, std::uint64_t seed) -> std::string {
    // Deterministic per-seed verdict so outcomes are comparable across sweeps.
    return (start + static_cast<int>(seed)) % 7 == 0 ? "synthetic oracle failure" : "";
  });
}

TEST(SupervisorTest, CellIsQuarantinedAfterNCatastrophicSeeds) {
  SupervisorOptions options = FastOptions();
  options.quarantine_after = 3;
  const std::vector<SupervisedCell> cells = {
      {"always-crashes",
       MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t) -> std::string {
         throw std::runtime_error("permanent defect");
       })}};
  const SupervisedSweepReport report = SuperviseSweep(cells, /*num_seeds=*/10, 1, options);
  ASSERT_EQ(report.cells.size(), 1u);
  const SupervisedCellResult& cell = report.cells[0];
  EXPECT_TRUE(cell.quarantined);
  EXPECT_EQ(cell.completed_seeds, 3);  // Swept exactly quarantine_after seeds.
  EXPECT_EQ(cell.outcome.runs, 3);
  EXPECT_NE(cell.quarantine_reason.find("catastrophic"), std::string::npos);
  EXPECT_NE(cell.last_crash.what.find("permanent defect"), std::string::npos);
  EXPECT_EQ(report.totals.quarantined, 1);
  EXPECT_EQ(report.QuarantinedCells(), 1);
}

TEST(SupervisorTest, SweepWithHungAndCrashingCellsKeepsHealthyOutcomesBitIdentical) {
  // 200-seed supervised sweep: two healthy cells, one permanently-hung cell, one
  // crashing cell. The whole thing must terminate promptly (hung attempts reaped at
  // the deadline, then quarantined) and the healthy cells' merged outcome must be
  // bit-identical to sweeping them alone.
  SupervisorOptions options;
  options.trial_deadline = milliseconds(100);
  options.max_attempts = 1;
  options.quarantine_after = 2;
  const int kSeeds = 200;

  const std::vector<SupervisedCell> healthy_only = {
      {"healthy/a", HealthyCounterCell(0)}, {"healthy/b", HealthyCounterCell(3)}};
  const SupervisedSweepReport clean = SuperviseSweep(healthy_only, kSeeds, 1, options);
  ASSERT_EQ(clean.QuarantinedCells(), 0);

  std::vector<SupervisedCell> cells = healthy_only;
  cells.push_back({"hung", MakeSupervisableOsTrial(HangForever)});
  cells.push_back(
      {"crash", MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t) -> std::string {
         throw std::runtime_error("boom");
       })});
  const auto start = steady_clock::now();
  const SupervisedSweepReport report = SuperviseSweep(cells, kSeeds, 1, options);
  const auto elapsed = steady_clock::now() - start;

  EXPECT_EQ(report.QuarantinedCells(), 2);
  EXPECT_TRUE(report.cells[2].quarantined);
  EXPECT_TRUE(report.cells[3].quarantined);
  EXPECT_GE(report.totals.reaped, 2);
  EXPECT_GE(report.totals.crashed, 2);
  // Quarantine bounded the damage: 2 kills at 100ms each, not 200 hung seeds.
  EXPECT_LT(elapsed, milliseconds(30000));

  const SweepOutcome merged = report.MergedHealthyOutcome();
  const SweepOutcome expected = clean.MergedHealthyOutcome();
  EXPECT_EQ(merged.runs, expected.runs);
  EXPECT_EQ(merged.passes, expected.passes);
  EXPECT_EQ(merged.failures, expected.failures);
  EXPECT_EQ(merged.failing_seeds, expected.failing_seeds);
  EXPECT_EQ(merged.first_failure, expected.first_failure);
  EXPECT_EQ(merged.runs, 2 * kSeeds);

  // quarantine.json names both broken cells with explanations.
  const std::string json = report.QuarantineJson();
  EXPECT_NE(json.find("\"quarantined_cells\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hung\""), std::string::npos);
  EXPECT_NE(json.find("\"crash\""), std::string::npos);
  EXPECT_NE(json.find("boom"), std::string::npos);
}

// ---- Supervised chaos calibration -----------------------------------------------------

void ExpectChaosOutcomesIdentical(const ChaosSweepOutcome& a, const ChaosSweepOutcome& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.injected_runs, b.injected_runs);
  EXPECT_EQ(a.harmful, b.harmful);
  EXPECT_EQ(a.detected_harmful, b.detected_harmful);
  EXPECT_EQ(a.absorbed, b.absorbed);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.clean_anomalies, b.clean_anomalies);
  EXPECT_EQ(a.clean_failures, b.clean_failures);
  EXPECT_EQ(a.detection_steps_total, b.detection_steps_total);
  EXPECT_EQ(a.missed_seeds, b.missed_seeds);
  EXPECT_EQ(a.fp_seeds, b.fp_seeds);
  EXPECT_EQ(a.postmortems_total, b.postmortems_total);
  ASSERT_EQ(a.postmortems.size(), b.postmortems.size());
  for (std::size_t i = 0; i < a.postmortems.size(); ++i) {
    EXPECT_EQ(a.postmortems[i].seed, b.postmortems[i].seed);
    EXPECT_EQ(a.postmortems[i].cause, b.postmortems[i].cause);
    EXPECT_EQ(a.postmortems[i].text, b.postmortems[i].text);
  }
  EXPECT_EQ(a.postmortem_causes, b.postmortem_causes);
  EXPECT_EQ(a.flight_evicted, b.flight_evicted);
}

// With no crashed runs a supervised calibration row is field-by-field identical to the
// unsupervised one, at a multi-worker job count. The rows are real: two cases under
// two mechanism families, each under both fault families (the stall rows end in
// step-limited, torn-down runs). A 1 ms trial_deadline is given on purpose: chaos
// trials are bounded in steps, so no wall-clock deadline reaps or retries them,
// however short.
TEST(SupervisedChaosTest, HealthySupervisedRowsAreBitIdenticalToUnsupervised) {
  ParallelOptions parallel;
  parallel.jobs = 2;
  ChaosSupervision supervision;
  supervision.enabled = true;
  supervision.options.trial_deadline = milliseconds(1);  // Applies to no chaos trial.

  int rows = 0;
  for (const ChaosCase& chaos_case : BuildChaosSuite()) {
    if (chaos_case.display != "Hoare bounded buffer" &&
        chaos_case.display != "Readers-priority serializer") {
      continue;
    }
    for (const ChaosFaultFamily& family : CalibrationFaultFamilies()) {
      SCOPED_TRACE(chaos_case.display + " / " + family.name);
      const FaultPlan plan = MustParseFaultPlan(family.plan_text, /*seed=*/1);
      ChaosCalibrationRow plain;
      chaos_internal::SweepChaosRow(chaos_case.trial, plan, /*num_seeds=*/2,
                                    /*base_seed=*/1, parallel, ChaosSupervision{}, plain);
      ChaosCalibrationRow supervised;
      chaos_internal::SweepChaosRow(chaos_case.trial, plan, 2, 1, parallel, supervision,
                                    supervised);
      EXPECT_FALSE(supervised.quarantined);
      ExpectChaosOutcomesIdentical(supervised.outcome, plain.outcome);
      EXPECT_EQ(supervised.stats.reaped, 0);
      EXPECT_EQ(supervised.stats.crashed, 0);
      EXPECT_EQ(supervised.stats.retried, 0);
      EXPECT_EQ(supervised.stats.quarantined, 0);
      ++rows;
    }
  }
  EXPECT_EQ(rows, 4);
}

// A synthetic row whose fault-on run throws on every third seed: with
// quarantine_after = 2, seed 6 brings the count to two, so seeds 1-6 fold and 7-10
// are skipped.
ChaosTrialOutcome CrashEveryThirdSeed(std::uint64_t seed, const FaultPlan* plan) {
  if (plan != nullptr && seed % 3 == 0) {
    throw std::runtime_error("synthetic defect at seed " + std::to_string(seed));
  }
  ChaosTrialOutcome out;
  out.completed = true;
  out.steps = 100 + seed;
  out.injected = plan != nullptr ? 1 : 0;
  return out;
}

ChaosSupervision QuarantineAfterTwo() {
  ChaosSupervision supervision;
  supervision.enabled = true;
  supervision.options.quarantine_after = 2;
  return supervision;
}

TEST(SupervisedChaosTest, CrashingTrialIsQuarantinedExactly) {
  const FaultPlan plan;
  ChaosCalibrationRow row;
  chaos_internal::SweepChaosRow(
      [](std::uint64_t, const FaultPlan*) -> ChaosTrialOutcome {
        throw std::runtime_error("synthetic trial defect");
      },
      plan, /*num_seeds=*/4, 1, ParallelOptions{}, QuarantineAfterTwo(), row);
  // Seed 1's fault-on and fault-off runs both crashed: two catastrophic runs quarantine
  // the row at seed 1, which folds (as two hung runs); seeds 2-4 are skipped.
  EXPECT_EQ(row.outcome.runs, 1);
  EXPECT_EQ(row.outcome.skipped, 3);
  EXPECT_EQ(row.outcome.clean_failures, 1);
  EXPECT_TRUE(row.quarantined);
  EXPECT_EQ(row.catastrophic_seeds, 2);
  EXPECT_EQ(row.stats.crashed, 2);
  EXPECT_EQ(row.stats.quarantined, 1);
  EXPECT_EQ(row.stats.reaped, 0);
  EXPECT_EQ(row.stats.retried, 0);
  EXPECT_TRUE(row.last_crash.crashed);
  EXPECT_NE(row.quarantine_reason.find("synthetic trial defect"), std::string::npos)
      << row.quarantine_reason;
}

// The verdict is a fold over the per-seed records, so it is the same at any worker
// count and chunk size.
TEST(SupervisedChaosTest, QuarantineIsTheSameAtAnyJobCount) {
  const FaultPlan plan;
  ChaosCalibrationRow serial;
  chaos_internal::SweepChaosRow(CrashEveryThirdSeed, plan, 10, 1, ParallelOptions{},
                                QuarantineAfterTwo(), serial);
  EXPECT_TRUE(serial.quarantined);
  EXPECT_EQ(serial.outcome.runs, 6);
  EXPECT_EQ(serial.outcome.skipped, 4);
  EXPECT_EQ(serial.stats.crashed, 2);
  EXPECT_NE(serial.quarantine_reason.find("seed 6"), std::string::npos);
  for (int jobs : {2, 4}) {
    ParallelOptions parallel;
    parallel.jobs = jobs;
    parallel.chunk_seeds = 1;
    ChaosCalibrationRow row;
    chaos_internal::SweepChaosRow(CrashEveryThirdSeed, plan, 10, 1, parallel,
                                  QuarantineAfterTwo(), row);
    EXPECT_EQ(row.quarantined, serial.quarantined);
    EXPECT_EQ(row.quarantine_reason, serial.quarantine_reason);
    EXPECT_EQ(row.outcome.runs, serial.outcome.runs);
    EXPECT_EQ(row.outcome.skipped, serial.outcome.skipped);
    EXPECT_EQ(row.outcome.harmful, serial.outcome.harmful);
    EXPECT_EQ(row.stats.crashed, serial.stats.crashed);
  }
}

TEST(SupervisedChaosTest, HealthyTrialPassesThroughUntouched) {
  auto state = std::make_shared<chaos_internal::SupervisedRowState>();
  SupervisorOptions options;
  options.trial_deadline = milliseconds(60000);
  options.max_attempts = 3;
  int calls = 0;
  const ChaosTrial wrapped = chaos_internal::MakeSupervisedChaosTrial(
      [&calls](std::uint64_t seed, const FaultPlan*) {
        ++calls;
        ChaosTrialOutcome out;
        out.completed = true;
        out.steps = 100 + seed;
        return out;
      },
      options, state);
  const ChaosTrialOutcome out = wrapped(7, nullptr);
  EXPECT_EQ(calls, 1);  // One pass, no retries.
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.steps, 107u);
  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_EQ(state->stats.reaped, 0);
  EXPECT_EQ(state->stats.crashed, 0);
  EXPECT_EQ(state->stats.retried, 0);
}

// Supervised soak + checkpoint resume: the second run restores every seed from the
// checkpoint log and its table is field-by-field identical.
TEST(SupervisedChaosTest, ResumedSupervisedSoakIsBitIdentical) {
  const std::string path = testing::TempDir() + "/supervised_soak.ckpt";
  std::remove(path.c_str());

  ChaosSupervision supervision;
  supervision.enabled = true;
  supervision.options.trial_deadline = milliseconds(60000);

  ChaosCalibrationTable first;
  {
    CheckpointStore store(path);
    store.Load();
    ParallelOptions parallel;
    parallel.jobs = 2;
    parallel.checkpoint = &store;
    parallel.checkpoint_scope = "supervisor_test/soak";
    first = RunChaosCalibration(/*seeds_per_case=*/1, 1, 1, parallel, supervision);
    EXPECT_GT(store.size(), 0);
    EXPECT_GT(store.appends(), 0);
  }
  {
    CheckpointStore store(path);
    EXPECT_GT(store.Load(), 0);
    ParallelOptions parallel;
    parallel.jobs = 2;
    parallel.chunk_seeds = 1;  // Any chunk size restores the seeds written above.
    parallel.checkpoint = &store;
    parallel.checkpoint_scope = "supervisor_test/soak";
    const ChaosCalibrationTable resumed =
        RunChaosCalibration(1, 1, 1, parallel, supervision);
    EXPECT_EQ(store.hits(), store.size());  // Everything restored, nothing re-ran.
    ASSERT_EQ(resumed.rows.size(), first.rows.size());
    for (std::size_t i = 0; i < first.rows.size(); ++i) {
      ExpectChaosOutcomesIdentical(resumed.rows[i].outcome, first.rows[i].outcome);
    }
  }
  std::remove(path.c_str());
}

// A quarantined chaos row, swept once against a checkpoint store and then restored
// from it, by a sweep of `jobs` workers.
ChaosCalibrationRow SweepCrashingRow(CheckpointStore* store, int jobs,
                                     const ChaosTrial& trial = CrashEveryThirdSeed) {
  const FaultPlan plan;
  ParallelOptions parallel;
  parallel.jobs = jobs;
  parallel.checkpoint = store;
  parallel.checkpoint_scope = "supervisor_test/crashing-row";
  ChaosCalibrationRow row;
  row.problem = "synthetic";
  row.display = "crash every third seed";
  row.fault = "crash";
  chaos_internal::SweepChaosRow(trial, plan, /*num_seeds=*/10, 1, parallel,
                                QuarantineAfterTwo(), row);
  return row;
}

void ExpectSameVerdict(const ChaosCalibrationRow& a, const ChaosCalibrationRow& b) {
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.quarantine_reason, b.quarantine_reason);
  EXPECT_EQ(a.catastrophic_seeds, b.catastrophic_seeds);
  EXPECT_EQ(a.last_crash.what, b.last_crash.what);
  EXPECT_EQ(a.last_postmortem_cause, b.last_postmortem_cause);
  EXPECT_EQ(a.stats.crashed, b.stats.crashed);
  EXPECT_EQ(a.stats.quarantined, b.stats.quarantined);
  ExpectChaosOutcomesIdentical(a.outcome, b.outcome);
  ChaosCalibrationTable ta, tb;
  ta.rows = {a};
  ta.supervisor = a.stats;
  tb.rows = {b};
  tb.supervisor = b.stats;
  EXPECT_EQ(ta.QuarantineJson(), tb.QuarantineJson());
}

// A restored row recomputes its quarantine from the restored records: the verdict does
// not live anywhere else.
TEST(SupervisedChaosTest, RestoredQuarantinedRowKeepsItsVerdict) {
  const std::string path = testing::TempDir() + "/quarantined_row.ckpt";
  std::remove(path.c_str());
  ChaosCalibrationRow live;
  {
    CheckpointStore store(path);
    live = SweepCrashingRow(&store, /*jobs=*/2);
  }
  ASSERT_TRUE(live.quarantined);
  EXPECT_EQ(live.outcome.skipped, 4);
  CheckpointStore store(path);
  ASSERT_EQ(store.Load(), 10);
  int calls = 0;
  const ChaosCalibrationRow restored =
      SweepCrashingRow(&store, /*jobs=*/1, [&calls](std::uint64_t seed, const FaultPlan* plan) {
        ++calls;
        return CrashEveryThirdSeed(seed, plan);
      });
  EXPECT_EQ(calls, 0);  // Every seed restored, nothing re-ran.
  EXPECT_EQ(store.hits(), 10);
  ExpectSameVerdict(restored, live);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)
// The same row SIGKILLed mid-sweep and resumed: the resumed verdict equals an
// uninterrupted sweep's.
TEST(SupervisedChaosTest, SigkilledQuarantinedRowResumesWithItsVerdict) {
  const std::string path = testing::TempDir() + "/quarantined_row_kill.ckpt";
  std::remove(path.c_str());
  const ChaosCalibrationRow uninterrupted = SweepCrashingRow(nullptr, 1);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    CheckpointStore store(path);
    (void)SweepCrashingRow(&store, 2, [](std::uint64_t seed, const FaultPlan* plan) {
      std::this_thread::sleep_for(milliseconds(20));
      return CrashEveryThirdSeed(seed, plan);
    });
    _exit(0);  // Finished before the kill: the resume below restores everything.
  }
  // Kill once the log holds a few seeds (header + 3 entries).
  for (int i = 0; i < 2000; ++i) {
    std::ifstream f(path);
    std::string line;
    int lines = 0;
    while (std::getline(f, line)) {
      ++lines;
    }
    if (lines >= 4) {
      break;
    }
    std::this_thread::sleep_for(milliseconds(2));
  }
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  CheckpointStore store(path);
  store.Load();
  const ChaosCalibrationRow resumed = SweepCrashingRow(&store, 2);
  ExpectSameVerdict(resumed, uninterrupted);
  std::remove(path.c_str());
}

// ---- Process sandbox (fork) -----------------------------------------------------------

#if !defined(SYNEVAL_ASAN_UBSAN_BUILD)
TEST(SupervisorSandboxTest, SegfaultingChildBecomesStructuredCrash) {
  SupervisorOptions options = FastOptions();
  options.trial_deadline = milliseconds(2000);
  SupervisorStats stats;
  const SupervisedTrialResult result = RunSupervisedSeed(
      MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t) -> std::string {
        volatile int* null_pointer = nullptr;
        *null_pointer = 42;  // SIGSEGV in the child, not this process.
        return "";
      }),
      /*seed=*/1, options, &stats);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.crash.signal_number, SIGSEGV);
  EXPECT_NE(result.crash.what.find("SIGSEGV"), std::string::npos) << result.crash.what;
  EXPECT_EQ(stats.crashed, 1);
}
#endif  // !SYNEVAL_ASAN_UBSAN_BUILD

TEST(SupervisorSandboxTest, HungChildIsKilledAtTheDeadline) {
  SupervisorOptions options = FastOptions();
  options.trial_deadline = milliseconds(300);
  SupervisorStats stats;
  const auto start = steady_clock::now();
  const SupervisedTrialResult result =
      RunSupervisedSeed(MakeSupervisableOsTrial(HangForever), /*seed=*/1, options, &stats);
  const auto elapsed = steady_clock::now() - start;
  EXPECT_TRUE(result.reaped);
  EXPECT_EQ(stats.reaped, 1);
  EXPECT_LT(elapsed, milliseconds(10000));
  // The child published its post-deadline observe into the shared-memory ring: the
  // harvested postmortem explains the stuck wait even though the child died by SIGKILL.
  EXPECT_EQ(result.report.postmortem_cause, "stuck-waiter") << result.report.postmortem;
}

TEST(SupervisorSandboxTest, CleanChildReportRoundTripsThroughSharedMemory) {
  SupervisorOptions options = FastOptions();
  SupervisorStats stats;
  const SupervisedTrialResult result = RunSupervisedSeed(
      MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t seed) {
        return "verdict for seed " + std::to_string(seed);
      }),
      /*seed=*/7, options, &stats);
  EXPECT_FALSE(result.Catastrophic());
  EXPECT_EQ(result.report.message, "verdict for seed 7");
}
#endif  // POSIX

}  // namespace
}  // namespace syneval
