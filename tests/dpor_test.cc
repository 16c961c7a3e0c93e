// DPOR explorer + happens-before certifier: vector-clock algebra, the HB engine over
// synthetic flight traces (mutex edges, certified/uncertified wakeups, the timed-wait
// orphan protocol, client races), and the exhaustive explorer end-to-end — correct
// cells prove deadlock-free with a reduction ratio over the naive enumeration, seeded
// bugs yield counterexamples whose prefix replays to an independently confirmed
// failure, exploration is deterministic, and the parallel suite driver matches the
// serial per-cell results (this test runs under the TSan CI config like every other).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/analysis/dpor.h"
#include "syneval/analysis/hb.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/telemetry/flight_recorder.h"

namespace syneval {
namespace {

// ---------------------------------------------------------------------------------------
// Vector clocks.

TEST(VectorClockTest, SetGetAndBump) {
  VectorClock clock;
  EXPECT_EQ(clock.Get(0), 0u);
  EXPECT_EQ(clock.Get(7), 0u);
  clock.Set(3, 5);
  EXPECT_EQ(clock.Get(3), 5u);
  clock.Bump(3);
  EXPECT_EQ(clock.Get(3), 6u);
  clock.Bump(9);  // Grows on demand.
  EXPECT_EQ(clock.Get(9), 1u);
}

TEST(VectorClockTest, JoinIsComponentwiseMax) {
  VectorClock a;
  a.Set(0, 4);
  a.Set(2, 1);
  VectorClock b;
  b.Set(0, 2);
  b.Set(1, 7);
  a.Join(b);
  EXPECT_EQ(a.Get(0), 4u);
  EXPECT_EQ(a.Get(1), 7u);
  EXPECT_EQ(a.Get(2), 1u);
}

TEST(VectorClockTest, LessEqOrdersCausally) {
  VectorClock early;
  early.Set(0, 1);
  VectorClock late = early;
  late.Set(1, 3);
  EXPECT_TRUE(early.LessEq(late));
  EXPECT_FALSE(late.LessEq(early));
  // Concurrent clocks are unordered both ways.
  VectorClock other;
  other.Set(1, 1);
  EXPECT_FALSE(early.LessEq(other));
  EXPECT_FALSE(other.LessEq(early));
}

// ---------------------------------------------------------------------------------------
// Happens-before engine over synthetic flight traces.

// Builds a FlightEvent with an auto-incrementing global seq.
struct TraceBuilder {
  std::vector<FlightEvent> events;
  std::uint64_t seq = 0;

  void Add(std::uint32_t thread, FlightEventType type, const void* resource,
           std::uint64_t arg = 0) {
    FlightEvent event;
    event.seq = ++seq;
    event.time_nanos = seq * 1000;
    event.thread = thread;
    event.type = type;
    event.resource = resource;
    event.arg = arg;
    events.push_back(event);
  }
};

TEST(HappensBeforeTest, MutexHandoffCreatesEdge) {
  int mu = 0;
  TraceBuilder trace;
  trace.Add(1, FlightEventType::kAcquire, &mu);
  trace.Add(1, FlightEventType::kRelease, &mu);
  trace.Add(2, FlightEventType::kAcquire, &mu);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  EXPECT_EQ(analysis.joins, 1u);
  EXPECT_TRUE(analysis.clean());
}

TEST(HappensBeforeTest, SignalledWakeIsCertified) {
  int cv = 0;
  TraceBuilder trace;
  trace.Add(2, FlightEventType::kBlock, &cv);
  trace.Add(1, FlightEventType::kSignal, &cv, /*waiters=*/1);
  trace.Add(2, FlightEventType::kWake, &cv, /*notified=*/1);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  EXPECT_EQ(analysis.certified_wakeups, 1u);
  EXPECT_TRUE(analysis.uncertified.empty());
}

TEST(HappensBeforeTest, NotifiedWakeWithoutDeliveryIsUncertified) {
  // The structural signature of a lost/stolen signal: the runtime claims thread 2 was
  // notified, but no signal delivery is happens-before ordered to it.
  int cv = 0;
  TraceBuilder trace;
  trace.Add(2, FlightEventType::kBlock, &cv);
  trace.Add(2, FlightEventType::kWake, &cv, /*notified=*/1);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  ASSERT_EQ(analysis.uncertified.size(), 1u);
  EXPECT_EQ(analysis.uncertified.front().thread, 2u);
  EXPECT_EQ(analysis.certified_wakeups, 0u);
}

TEST(HappensBeforeTest, TimedOutWaiterOrphansItsDeliveryForTheActualRecipient) {
  // The simulation delivers thread 2's signal, but thread 2 wakes by deadline
  // (arg==0); the orphaned delivery must then certify thread 3's notified wake so
  // timed waits never produce false violations.
  int cv = 0;
  TraceBuilder trace;
  trace.Add(2, FlightEventType::kBlock, &cv);
  trace.Add(3, FlightEventType::kBlock, &cv);
  trace.Add(1, FlightEventType::kSignal, &cv, /*waiters=*/2);
  trace.Add(2, FlightEventType::kWake, &cv, /*timed out=*/0);
  trace.Add(3, FlightEventType::kWake, &cv, /*notified=*/1);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  EXPECT_EQ(analysis.timeout_wakeups, 1u);
  EXPECT_EQ(analysis.certified_wakeups, 1u);
  EXPECT_TRUE(analysis.uncertified.empty());
}

TEST(HappensBeforeTest, UnorderedConflictingClientAccessesAreRaces) {
  int cell = 0;
  TraceBuilder trace;
  trace.Add(1, FlightEventType::kClientStore, &cell);
  trace.Add(2, FlightEventType::kClientStore, &cell);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  ASSERT_EQ(analysis.races.size(), 1u);
  EXPECT_EQ(analysis.races.front().first_thread, 1u);
  EXPECT_EQ(analysis.races.front().second_thread, 2u);
  EXPECT_EQ(analysis.client_accesses, 2u);
}

TEST(HappensBeforeTest, MutexOrderedAccessesAreNotRaces) {
  int mu = 0;
  int cell = 0;
  TraceBuilder trace;
  trace.Add(1, FlightEventType::kAcquire, &mu);
  trace.Add(1, FlightEventType::kClientStore, &cell);
  trace.Add(1, FlightEventType::kRelease, &mu);
  trace.Add(2, FlightEventType::kAcquire, &mu);  // Joins thread 1's release clock.
  trace.Add(2, FlightEventType::kClientStore, &cell);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  EXPECT_TRUE(analysis.races.empty());
}

TEST(HappensBeforeTest, LoadLoadPairsAndAtomicsAreExempt) {
  int cell = 0;
  TraceBuilder trace;
  trace.Add(1, FlightEventType::kClientLoad, &cell);
  trace.Add(2, FlightEventType::kClientLoad, &cell);  // Load-load: never a race.
  trace.Add(1, FlightEventType::kClientStore, &cell, /*atomic=*/1);
  trace.Add(2, FlightEventType::kClientStore, &cell, /*atomic=*/1);
  const HbAnalysis analysis = AnalyzeHappensBefore(trace.events);
  EXPECT_TRUE(analysis.races.empty());
  EXPECT_EQ(analysis.client_accesses, 4u);
}

// ---------------------------------------------------------------------------------------
// Exhaustive exploration: proofs.

// Small budgets keep tier-1 wall time down; the full default-budget suite runs in the
// blocking dpor-verdicts CI job against tests/golden/dpor_verdicts.json.
DporOptions FastOptions() {
  DporOptions options;
  options.max_executions = 2000;
  options.naive_max_executions = 1000;
  return options;
}

const DporCell* FindCell(const std::vector<DporCell>& suite, const std::string& display) {
  for (const DporCell& cell : suite) {
    if (cell.display == display) {
      return &cell;
    }
  }
  return nullptr;
}

TEST(DporExplorerTest, CcrOneSlotBufferIsProvedWithReduction) {
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "CCR one-slot buffer");
  ASSERT_NE(cell, nullptr);
  const DporCellResult result = ExploreCell(*cell, FastOptions());
  EXPECT_EQ(result.verdict, DporVerdict::kProvedDeadlockFree) << result.note;
  // The proof is exhaustive: the reduced tree is fully visited, and the naive
  // baseline visits strictly more interleavings for the same guarantee.
  EXPECT_GT(result.executions, 0u);
  EXPECT_GT(result.reduction_ratio, 1.0);
  EXPECT_TRUE(result.naive_complete);
  EXPECT_GT(result.certified_wakeups + result.hb_joins, 0u);
}

TEST(DporExplorerTest, OrderedDiningIsProvedDeadlockFree) {
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "Ordered-fork dining (2 seats)");
  ASSERT_NE(cell, nullptr);
  const DporCellResult result = ExploreCell(*cell, FastOptions());
  EXPECT_EQ(result.verdict, DporVerdict::kProvedDeadlockFree) << result.note;
  EXPECT_FALSE(result.has_counterexample);
}

TEST(DporExplorerTest, ExplorationIsDeterministic) {
  // The golden CI job diffs execution counts, so exploration must be bit-stable:
  // footprints are canonical first-appearance ids, never raw heap addresses.
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "Semaphore one-slot buffer");
  ASSERT_NE(cell, nullptr);
  const DporCellResult first = ExploreCell(*cell, FastOptions());
  const DporCellResult second = ExploreCell(*cell, FastOptions());
  EXPECT_EQ(first.executions, second.executions);
  EXPECT_EQ(first.redundant, second.redundant);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.max_depth, second.max_depth);
  EXPECT_EQ(first.certified_wakeups, second.certified_wakeups);
}

// ---------------------------------------------------------------------------------------
// Exhaustive exploration: seeded bugs and counterexample replay.

TEST(DporExplorerTest, NaiveDiningYieldsDeadlockCounterexampleThatReplays) {
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "Naive dining (seeded deadlock)");
  ASSERT_NE(cell, nullptr);
  const DporCellResult result = ExploreCell(*cell, FastOptions());
  ASSERT_EQ(result.verdict, DporVerdict::kCounterexample) << result.note;
  ASSERT_TRUE(result.has_counterexample);
  EXPECT_EQ(result.counterexample.reason, "deadlock");
  ASSERT_FALSE(result.counterexample.prefix.empty());

  // The prefix alone must reproduce the deadlock in a fresh runtime, confirmed by the
  // independent anomaly detector — not just by the explorer's own judgement.
  const DporReplay replay =
      ReplayDporCounterexample(*cell, result.counterexample.prefix, FastOptions());
  EXPECT_FALSE(replay.diverged);
  EXPECT_TRUE(replay.deadlocked);
  EXPECT_GE(replay.anomalies, 1);
  EXPECT_EQ(replay.postmortem_cause, "deadlock");
}

TEST(DporExplorerTest, UnguardedCounterYieldsRaceCounterexampleThatReplays) {
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "Unguarded counter (seeded race)");
  ASSERT_NE(cell, nullptr);
  const DporCellResult result = ExploreCell(*cell, FastOptions());
  ASSERT_EQ(result.verdict, DporVerdict::kCounterexample) << result.note;
  EXPECT_EQ(result.counterexample.reason, "client-race");

  const DporReplay replay =
      ReplayDporCounterexample(*cell, result.counterexample.prefix, FastOptions());
  EXPECT_FALSE(replay.diverged);
  EXPECT_FALSE(replay.hb.races.empty());
}

TEST(DporExplorerTest, GuardedCounterIsRaceFree) {
  // The same workload with the semaphore guard: every interleaving must certify.
  const std::vector<DporCell> suite = BuildDporSuite();
  const DporCell* cell = FindCell(suite, "Semaphore-guarded counter");
  ASSERT_NE(cell, nullptr);
  const DporCellResult result = ExploreCell(*cell, FastOptions());
  EXPECT_EQ(result.verdict, DporVerdict::kProvedDeadlockFree) << result.note;
}

// ---------------------------------------------------------------------------------------
// Parallel suite driver.

TEST(DporSuiteTest, ParallelSuiteMatchesSerialPerCellResults) {
  // Explore a fast subset of the suite through the worker pool (two cells in flight)
  // and serially; verdict and counts must agree exactly. Under the TSan CI config
  // this also checks the pool handoff of results is race-free.
  const std::vector<DporCell> all = BuildDporSuite();
  std::vector<DporCell> subset;
  for (const std::string display :
       {"CCR one-slot buffer", "Ordered-fork dining (2 seats)",
        "Naive dining (seeded deadlock)", "Unguarded counter (seeded race)"}) {
    const DporCell* cell = FindCell(all, display);
    ASSERT_NE(cell, nullptr) << display;
    subset.push_back(*cell);
  }
  ParallelOptions parallel;
  parallel.jobs = 2;
  const DporSuiteResult pooled = ExploreDporSuite(subset, FastOptions(), parallel);
  ASSERT_EQ(pooled.cells.size(), subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const DporCellResult serial = ExploreCell(subset[i], FastOptions());
    EXPECT_EQ(pooled.cells[i].verdict, serial.verdict) << subset[i].display;
    EXPECT_EQ(pooled.cells[i].executions, serial.executions) << subset[i].display;
    EXPECT_EQ(pooled.cells[i].transitions, serial.transitions) << subset[i].display;
  }
}

}  // namespace
}  // namespace syneval
