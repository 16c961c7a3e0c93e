// Tests for the parallel sweep engine (runtime/parallel_sweep.h): the blocking
// bit-identity contract — a parallel sweep's outcome must equal the serial sweep of
// the same seeds field by field, at any worker count, chunk size, or steal order —
// plus the one-job path, the postmortem cap, jobs resolution, worker telemetry
// accounting, checkpoint resume across layouts, and the counterexample replay sweep
// built on top of it.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/analysis/catalog.h"
#include "syneval/analysis/model_checker.h"
#include "syneval/analysis/replay.h"
#include "syneval/core/conformance.h"
#include "syneval/fault/chaos.h"
#include "syneval/fault/fault.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/parallel_sweep.h"

namespace syneval {
namespace {

// Field-by-field bit-identity assertion. SweepOutcome deliberately has no
// operator== in the library; the test spells every field out so a new field that is
// forgotten here shows up in review, not as a silent hole in the contract.
void ExpectIdentical(const std::vector<SeedPostmortem>& serial,
                     const std::vector<SeedPostmortem>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].cause, parallel[i].cause);
    EXPECT_EQ(serial[i].text, parallel[i].text);
  }
}

void ExpectIdentical(const SweepOutcome& serial, const SweepOutcome& parallel) {
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.passes, parallel.passes);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  EXPECT_EQ(serial.first_failure, parallel.first_failure);
  EXPECT_EQ(serial.anomalous_seeds, parallel.anomalous_seeds);
  EXPECT_EQ(serial.first_anomaly, parallel.first_anomaly);
  EXPECT_EQ(serial.anomalies.deadlocks, parallel.anomalies.deadlocks);
  EXPECT_EQ(serial.anomalies.lost_wakeups, parallel.anomalies.lost_wakeups);
  EXPECT_EQ(serial.anomalies.stuck_waiters, parallel.anomalies.stuck_waiters);
  EXPECT_EQ(serial.anomalies.starvations, parallel.anomalies.starvations);
  ExpectIdentical(serial.postmortems, parallel.postmortems);
  EXPECT_EQ(serial.postmortems_total, parallel.postmortems_total);
  EXPECT_EQ(serial.flight_evicted, parallel.flight_evicted);
}

void ExpectIdentical(const ChaosSweepOutcome& serial, const ChaosSweepOutcome& parallel) {
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.skipped, parallel.skipped);
  EXPECT_EQ(serial.injected_runs, parallel.injected_runs);
  EXPECT_EQ(serial.harmful, parallel.harmful);
  EXPECT_EQ(serial.detected_harmful, parallel.detected_harmful);
  EXPECT_EQ(serial.absorbed, parallel.absorbed);
  EXPECT_EQ(serial.corrupted, parallel.corrupted);
  EXPECT_EQ(serial.clean_anomalies, parallel.clean_anomalies);
  EXPECT_EQ(serial.clean_failures, parallel.clean_failures);
  EXPECT_EQ(serial.detection_steps_total, parallel.detection_steps_total);
  EXPECT_EQ(serial.missed_seeds, parallel.missed_seeds);
  EXPECT_EQ(serial.fp_seeds, parallel.fp_seeds);
  ExpectIdentical(serial.postmortems, parallel.postmortems);
  EXPECT_EQ(serial.postmortems_total, parallel.postmortems_total);
  EXPECT_EQ(serial.postmortem_causes, parallel.postmortem_causes);
  EXPECT_EQ(serial.flight_evicted, parallel.flight_evicted);
}

// A conformance case the paper predicts VIOLATES its oracle on some schedules, so the
// sweep has non-trivial content to keep bit-identical: failing seeds, first-failure
// message, anomaly counters.
ConformanceCase ViolatingCase() {
  for (ConformanceCase& c : BuildConformanceSuite()) {
    if (c.expect_violations) {
      return c;
    }
  }
  ADD_FAILURE() << "suite has no expect_violations case";
  return ConformanceCase{};
}

// Cheap synthetic trial with deterministic failures, anomalies, and throws — used
// where the content of the outcome matters but DetRuntime cost would be waste.
TrialReport SyntheticTrial(std::uint64_t seed) {
  TrialReport report;
  if (seed % 3 == 0) {
    report.message = "synthetic failure at seed " + std::to_string(seed);
  }
  if (seed % 5 == 0) {
    report.anomalies.starvations = 1;
    report.anomaly_report = "synthetic starvation at seed " + std::to_string(seed);
  }
  if (seed % 17 == 0) {
    throw std::runtime_error("synthetic abort at seed " + std::to_string(seed));
  }
  return report;
}

// Every even seed leaves a postmortem: 30 of the 60 seeds below, far past the cap.
TrialReport PostmortemTrial(std::uint64_t seed) {
  TrialReport report;
  if (seed % 2 == 0) {
    report.anomalies.deadlocks = 1;
    report.postmortem_cause = "deadlock";
    report.postmortem = "postmortem of seed " + std::to_string(seed);
  }
  report.flight_evicted = seed % 3;
  return report;
}

ChaosTrialOutcome PostmortemChaosTrial(std::uint64_t seed, const FaultPlan* plan) {
  ChaosTrialOutcome out;
  out.completed = plan == nullptr || seed % 2 != 0;
  out.hung = !out.completed;
  if (plan != nullptr) {
    out.injected = 1;
  }
  if (out.hung) {
    out.anomalies = 1;
    out.postmortem_cause = "lost-signal";
    out.postmortem = "chaos postmortem of seed " + std::to_string(seed);
  }
  out.flight_evicted = seed % 3;
  return out;
}

TEST(ParallelSweepTest, BitIdenticalToSerialOnRealAnomalySweep) {
  const ConformanceCase c = ViolatingCase();
  constexpr int kSeeds = 200;
  const SweepOutcome serial = SweepSchedules(kSeeds, c.trial, 1);
  ASSERT_GT(serial.failures, 0) << "violating case produced no failures; test is vacuous";
  for (const int jobs : {1, 2, 8}) {
    ParallelOptions options;
    options.jobs = jobs;
    const ParallelSweepResult result = ParallelSweepSchedules(kSeeds, c.trial, 1, options);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_EQ(result.jobs, jobs);
    ExpectIdentical(serial, result.outcome);
  }
}

TEST(ParallelSweepTest, BitIdenticalToSerialOnChaosSweep) {
  const std::vector<ChaosCase> suite = BuildChaosSuite();
  ASSERT_FALSE(suite.empty());
  const std::vector<ChaosFaultFamily> families = CalibrationFaultFamilies();
  ASSERT_FALSE(families.empty());
  const FaultPlan plan = MustParseFaultPlan(families[0].plan_text, /*seed=*/1);

  constexpr int kSeeds = 40;
  const ChaosSweepOutcome serial = SweepChaos(kSeeds, suite[0].trial, plan, 1);
  for (const int jobs : {2, 8}) {
    ParallelOptions options;
    options.jobs = jobs;
    const ParallelChaosResult result =
        ParallelSweepChaos(kSeeds, suite[0].trial, plan, 1, options);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ExpectIdentical(serial, result.outcome);
  }
}

TEST(ParallelSweepTest, ChunkSizeNeverChangesTheOutcome) {
  const std::function<TrialReport(std::uint64_t)> trial = SyntheticTrial;
  constexpr int kSeeds = 200;
  const SweepOutcome serial = SweepSchedules(kSeeds, trial, 1);
  for (const int chunk_seeds : {1, 3, 64, 200}) {
    ParallelOptions options;
    options.jobs = 3;
    options.chunk_seeds = chunk_seeds;
    const ParallelSweepResult result = ParallelSweepSchedules(kSeeds, trial, 1, options);
    SCOPED_TRACE("chunk_seeds=" + std::to_string(chunk_seeds));
    ExpectIdentical(serial, result.outcome);
  }
}

TEST(ParallelSweepTest, ThrowingTrialsFoldIdenticallyToSerial) {
  const std::function<TrialReport(std::uint64_t)> trial = SyntheticTrial;
  // Base seed 17 puts several multiples of 17 (throwing seeds) in range.
  const SweepOutcome serial = SweepSchedules(100, trial, 17);
  ASSERT_FALSE(serial.first_failure.empty());
  EXPECT_NE(serial.first_failure.find("trial aborted"), std::string::npos);
  ParallelOptions options;
  options.jobs = 4;
  const ParallelSweepResult result = ParallelSweepSchedules(100, trial, 17, options);
  ExpectIdentical(serial, result.outcome);
}

TEST(ParallelSweepTest, FailingAndAnomalousSeedsStayAscending) {
  ParallelOptions options;
  options.jobs = 8;
  options.chunk_seeds = 7;  // Deliberately not a divisor of the seed count.
  const ParallelSweepResult result =
      ParallelSweepSchedules(150, std::function<TrialReport(std::uint64_t)>(SyntheticTrial),
                             1, options);
  ASSERT_GT(result.outcome.failing_seeds.size(), 1u);
  ASSERT_GT(result.outcome.anomalous_seeds.size(), 1u);
  EXPECT_TRUE(std::is_sorted(result.outcome.failing_seeds.begin(),
                             result.outcome.failing_seeds.end()));
  EXPECT_TRUE(std::is_sorted(result.outcome.anomalous_seeds.begin(),
                             result.outcome.anomalous_seeds.end()));
}

// The cap on stored postmortems is applied once, by the fold: whatever the worker
// count or chunk size, the stored ones are the first kMaxStoredPostmortems seeds that
// left one, in seed order, and the total counts every one of them.
TEST(ParallelSweepTest, PostmortemCapKeepsTheFirstSeedsInOrder) {
  constexpr int kSeeds = 60;
  const FaultPlan plan;  // Only its non-nullness matters to the synthetic trial.
  for (const int jobs : {1, 2, 8}) {
    for (const int chunk_seeds : {1, 3, 0}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " chunk_seeds=" + std::to_string(chunk_seeds));
      ParallelOptions options;
      options.jobs = jobs;
      options.chunk_seeds = chunk_seeds;
      const SweepOutcome sweep = SweepSchedules(
          kSeeds, std::function<TrialReport(std::uint64_t)>(PostmortemTrial), 1, options);
      const ChaosSweepOutcome chaos =
          SweepChaos(kSeeds, PostmortemChaosTrial, plan, 1, options);
      EXPECT_EQ(sweep.postmortems_total, kSeeds / 2);
      EXPECT_EQ(chaos.postmortems_total, kSeeds / 2);
      ASSERT_EQ(sweep.postmortems.size(), static_cast<std::size_t>(kMaxStoredPostmortems));
      ASSERT_EQ(chaos.postmortems.size(), static_cast<std::size_t>(kMaxStoredPostmortems));
      for (int i = 0; i < kMaxStoredPostmortems; ++i) {
        const std::uint64_t seed = 2 * static_cast<std::uint64_t>(i + 1);
        EXPECT_EQ(sweep.postmortems[i].seed, seed);
        EXPECT_EQ(sweep.postmortems[i].text, "postmortem of seed " + std::to_string(seed));
        EXPECT_EQ(chaos.postmortems[i].seed, seed);
        EXPECT_EQ(chaos.postmortems[i].text,
                  "chaos postmortem of seed " + std::to_string(seed));
      }
      EXPECT_EQ(chaos.postmortem_causes.at("lost-signal"), kSeeds / 2);
    }
  }
}

// At one job the pool starts no thread: the caller runs every seed, in seed order.
TEST(ParallelSweepTest, OneJobRunsEverySeedInOrderOnTheCaller) {
  std::vector<std::uint64_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  bool off_caller = false;
  const ParallelSweepResult result = ParallelSweepSchedules(
      50, [&](std::uint64_t seed) {
        order.push_back(seed);
        off_caller |= std::this_thread::get_id() != caller;
        return SyntheticTrial(seed);
      });
  EXPECT_EQ(result.jobs, 1);
  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_EQ(result.workers[0].worker, 0);
  EXPECT_EQ(result.workers[0].trials, 50);
  EXPECT_EQ(result.workers[0].steals, 0);
  EXPECT_FALSE(off_caller);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i + 1);
  }
}

TEST(ParallelSweepTest, WorkerTelemetryAccountsForEveryTrial) {
  ParallelOptions options;
  options.jobs = 4;
  const ParallelSweepResult result = ParallelSweepSchedules(
      120, std::function<TrialReport(std::uint64_t)>(SyntheticTrial), 1, options);
  ASSERT_EQ(result.workers.size(), 4u);
  int trials = 0;
  int chunks = 0;
  for (const WorkerTelemetry& w : result.workers) {
    trials += w.trials;
    chunks += w.chunks;
    EXPECT_GE(w.wall_seconds, 0.0);
  }
  EXPECT_EQ(trials, 120);
  EXPECT_GT(chunks, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

// Sweeps `num_seeds` synthetic seeds against `store`, counting the seeds that ran.
ParallelSweepResult CountedSweep(int num_seeds, int jobs, int chunk_seeds,
                                 CheckpointStore* store, std::atomic<int>* live) {
  ParallelOptions options;
  options.jobs = jobs;
  options.chunk_seeds = chunk_seeds;
  options.checkpoint = store;
  options.checkpoint_scope = "parallel_sweep_test/resume";
  return ParallelSweepSchedules(
      num_seeds,
      [live](std::uint64_t seed) {
        ++*live;
        return SyntheticTrial(seed);
      },
      1, options);
}

// The checkpoint keys carry no layout: a sweep checkpointed at one worker count and
// chunk size restores every seed under another and re-runs none.
TEST(ParallelSweepTest, CheckpointResumesUnderAnyLayout) {
  const std::string path = testing::TempDir() + "/parallel_sweep_layout.ckpt";
  std::remove(path.c_str());
  constexpr int kSeeds = 100;
  const SweepOutcome serial =
      SweepSchedules(kSeeds, std::function<TrialReport(std::uint64_t)>(SyntheticTrial), 1);
  std::atomic<int> live{0};
  {
    CheckpointStore store(path);
    store.Load();
    ExpectIdentical(serial, CountedSweep(kSeeds, 4, 3, &store, &live).outcome);
    EXPECT_EQ(live.load(), kSeeds);
  }
  CheckpointStore store(path);
  ASSERT_EQ(store.Load(), kSeeds);
  live = 0;
  const ParallelSweepResult resumed = CountedSweep(kSeeds, 2, 0, &store, &live);
  ExpectIdentical(serial, resumed.outcome);
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(store.hits(), kSeeds);
  int cached = 0;
  int trials = 0;
  for (const WorkerTelemetry& w : resumed.workers) {
    cached += w.cached;
    trials += w.trials;
  }
  EXPECT_EQ(cached, kSeeds);
  EXPECT_EQ(trials, 0);
  std::remove(path.c_str());
}

// The seed count is not part of the key either: a deeper rerun restores the seeds it
// shares with a shallower one and runs only the new ones.
TEST(ParallelSweepTest, DeeperRerunRestoresTheSharedSeeds) {
  const std::string path = testing::TempDir() + "/parallel_sweep_deeper.ckpt";
  std::remove(path.c_str());
  CheckpointStore store(path);
  store.Load();
  std::atomic<int> live{0};
  CountedSweep(40, 3, 0, &store, &live);
  live = 0;
  const ParallelSweepResult deeper = CountedSweep(100, 2, 7, &store, &live);
  ExpectIdentical(
      SweepSchedules(100, std::function<TrialReport(std::uint64_t)>(SyntheticTrial), 1),
      deeper.outcome);
  EXPECT_EQ(live.load(), 60);
  EXPECT_EQ(store.hits(), 40);
  EXPECT_EQ(store.size(), 100);
  std::remove(path.c_str());
}

TEST(ParallelSweepTest, ResolveJobsHonorsLiteralEnvAndFallback) {
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_EQ(ResolveJobs(-3), 1);

  ASSERT_EQ(setenv("SYNEVAL_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveJobs(0), 3);
  ASSERT_EQ(setenv("SYNEVAL_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(ResolveJobs(0), 1);  // Malformed env degrades to hardware_concurrency.
  ASSERT_EQ(unsetenv("SYNEVAL_JOBS"), 0);
  EXPECT_GE(ResolveJobs(0), 1);
}

// Values past INT_MAX are malformed too: they must not wrap (3000000000 to a negative
// count, 2^32 + 1 to 1). Only ResolveJobs runs here, so no pool ever sees the value.
TEST(ParallelSweepTest, ResolveJobsIgnoresEnvValuesPastIntMax) {
  ASSERT_EQ(unsetenv("SYNEVAL_JOBS"), 0);
  const int fallback = ResolveJobs(0);
  for (const char* value : {"3000000000", "4294967297", "2147483648",
                            "99999999999999999999999"}) {
    ASSERT_EQ(setenv("SYNEVAL_JOBS", value, /*overwrite=*/1), 0);
    EXPECT_EQ(ResolveJobs(0), fallback) << "SYNEVAL_JOBS=" << value;
  }
  ASSERT_EQ(setenv("SYNEVAL_JOBS", "2147483647", 1), 0);
  EXPECT_EQ(ResolveJobs(0), 2147483647);
  ASSERT_EQ(unsetenv("SYNEVAL_JOBS"), 0);
}

// Stress the pool under maximum steal pressure: tiny chunks, more workers than
// hardware threads, real DetRuntime trials. Run under TSan (SYNEVAL_SANITIZE=thread)
// this doubles as the data-race gate for the queue and telemetry shards.
TEST(ParallelSweepTest, StealStressStaysIdentical) {
  const ConformanceCase c = ViolatingCase();
  constexpr int kSeeds = 64;
  const SweepOutcome serial = SweepSchedules(kSeeds, c.trial, 1);
  for (int round = 0; round < 3; ++round) {
    ParallelOptions options;
    options.jobs = 8;
    options.chunk_seeds = 1;  // Every seed is its own stealable chunk.
    const ParallelSweepResult result = ParallelSweepSchedules(kSeeds, c.trial, 1, options);
    SCOPED_TRACE("round=" + std::to_string(round));
    ExpectIdentical(serial, result.outcome);
  }
}

TEST(ParallelSweepTest, CounterexampleReplaySweepDeadlocksOnEverySeed) {
  const PathModel broken = BrokenCrossedGatesModel();
  const ModelCheckResult check = CheckPathModel(broken);
  ASSERT_EQ(check.safety, SafetyVerdict::kDeadlockable);
  ParallelOptions options;
  options.jobs = 4;
  const SweepOutcome sweep =
      ReplayCounterexampleSweep(broken, check.counterexample, 8, 1, options);
  EXPECT_EQ(sweep.runs, 8);
  EXPECT_EQ(sweep.passes, 8);
  EXPECT_EQ(sweep.failures, 0) << sweep.first_failure;
  EXPECT_GE(sweep.anomalies.deadlocks, 8);
}

TEST(ParallelSweepTest, MergeWorkerTelemetrySumsByIndex) {
  std::vector<WorkerTelemetry> into;
  std::vector<WorkerTelemetry> shard(2);
  shard[0] = WorkerTelemetry{0, 10, 2, 1, 0, 0.5};
  shard[1] = WorkerTelemetry{1, 12, 3, 0, 0, 0.25};
  MergeWorkerTelemetry(into, shard);
  MergeWorkerTelemetry(into, shard);
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[0].worker, 0);
  EXPECT_EQ(into[0].trials, 20);
  EXPECT_EQ(into[0].chunks, 4);
  EXPECT_EQ(into[0].steals, 2);
  EXPECT_DOUBLE_EQ(into[0].wall_seconds, 1.0);
  EXPECT_EQ(into[1].trials, 24);
}

}  // namespace
}  // namespace syneval
