// Schedule sweeping: run a trial under many deterministic schedules and aggregate.
//
// The conformance methodology of this repository (DESIGN.md, experiments E1/E2/E6) checks
// behavioural claims by searching schedules: a trial constructs a fresh DetRuntime with a
// seeded schedule, drives a workload, and checks an oracle. SweepSchedules repeats the
// trial across seeds and reports how many schedules passed, failed, or deadlocked — with
// the failing seeds preserved so any finding can be replayed exactly.
//
// Trials that attach an AnomalyDetector report a full TrialReport instead of a bare
// message; the sweep then additionally aggregates per-anomaly counters (deadlocks, lost
// wakeups, stuck waiters, starvations) and keeps the anomalous seeds for replay.
//
// Every sweep is two steps: the engine (runtime/parallel_sweep.h) runs each seed —
// sweep_internal::RunTrial / RunChaosSeed, on as many workers as ParallelOptions asks
// for — and returns the per-seed results in seed order; then the sweep folds them once,
// in seed order (sweep_internal::AccumulateTrial / AccumulateChaosTrial). The fold is
// the only place seeds combine, so the aggregate is the same at any worker count.

#ifndef SYNEVAL_RUNTIME_EXPLORE_H_
#define SYNEVAL_RUNTIME_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "syneval/anomaly/anomaly.h"

namespace syneval {

class CheckpointStore;

// How a sweep runs: worker count, chunking and checkpointing. The defaults run it on
// the calling thread, seeds in order, with no checkpoint.
struct ParallelOptions {
  // Worker count. 1 (the default) runs every seed on the calling thread, in seed
  // order, and starts no thread. 0 means auto: the SYNEVAL_JOBS environment variable
  // when set to a positive integer, otherwise hardware_concurrency().
  int jobs = 1;
  // Seeds per stealable chunk. 0 = auto (sized so each worker sees several chunks,
  // keeping the steal queue useful without shredding cache locality). Only the pool's
  // scheduling grain: it changes neither the outcome nor the checkpoint keys.
  int chunk_seeds = 0;

  // Checkpoint/resume (runtime/checkpoint.h). When non-null, every seed's record is
  // committed to the store under a key derived from (checkpoint_scope, sweep kind,
  // base seed, seed), and seeds already present are restored instead of re-run — so
  // a killed sweep, resumed against the same store under any worker count or chunk
  // size, folds bit-identical to an uninterrupted run. `checkpoint_scope` must
  // identify everything that shapes the trial beyond the seed (suite case, workload
  // scale, fault plan); sweep entry points that know that context (conformance, chaos
  // calibration) append it themselves.
  CheckpointStore* checkpoint = nullptr;
  std::string checkpoint_scope;
};

// Result of one trial. `message` empty means the trial passed its oracle; `anomalies`
// carries whatever the trial's detector observed (which may be non-zero even on a
// passing trial — e.g. starvation without an outright constraint violation).
struct TrialReport {
  std::string message;
  AnomalyCounts anomalies;
  std::string anomaly_report;  // Detector diagnostics ("" when anomalies are clean).

  // Flight-recorder postmortem for an anomalous trial (telemetry/postmortem.h): the
  // inferred root cause ("deadlock", "lost-signal", ...) and the rendered narrative.
  // Empty when the trial was clean or ran without a recorder attached.
  std::string postmortem_cause;
  std::string postmortem;

  // Flight-ring evictions during the trial (0 without a recorder). Non-zero means
  // postmortem windows for this trial were truncated — degraded observability, not an
  // anomaly, but worth surfacing so ring sizing can be tuned.
  std::uint64_t flight_evicted = 0;

  bool Passed() const { return message.empty(); }
};

// One retained postmortem, tagged with the seed that produced it for exact replay.
struct SeedPostmortem {
  std::uint64_t seed = 0;
  std::string cause;
  std::string text;
};

// Sweeps retain at most this many full postmortems (narratives can be large); the
// rest are counted, not stored. The fold applies the cap once, over the whole sweep in
// seed order, so the stored ones are always the first N seeds that produced one.
inline constexpr int kMaxStoredPostmortems = 8;

// Aggregate result of a schedule sweep.
struct SweepOutcome {
  int runs = 0;
  int passes = 0;
  int failures = 0;
  std::vector<std::uint64_t> failing_seeds;
  std::string first_failure;  // Message returned by the first failing trial.

  // Anomaly aggregation (populated by the TrialReport overload of SweepSchedules).
  AnomalyCounts anomalies;                      // Summed over all trials.
  std::vector<std::uint64_t> anomalous_seeds;   // Seeds whose trial saw any anomaly.
  std::string first_anomaly;                    // "seed N: <detector diagnostics>".

  // Postmortems of anomalous trials, first kMaxStoredPostmortems in seed order;
  // `postmortems_total` counts every trial that produced one (stored or not).
  std::vector<SeedPostmortem> postmortems;
  int postmortems_total = 0;

  // Σ TrialReport::flight_evicted over all trials (observability degradation).
  std::uint64_t flight_evicted = 0;

  bool AllPassed() const { return failures == 0; }
  bool AnomalyFree() const { return anomalies.Clean(); }
  // Both rates share `runs` as denominator, and `runs` counts every attempted seed —
  // including trials that abort by throwing (SweepSchedules records those as failures
  // rather than unwinding mid-sweep) — so the two fractions are always comparable.
  // Fraction of schedules on which the trial failed (anomaly probability estimate).
  double FailureRate() const { return runs == 0 ? 0.0 : static_cast<double>(failures) / runs; }
  // Fraction of schedules on which the detector flagged at least one anomaly.
  double AnomalyRate() const {
    return runs == 0 ? 0.0 : static_cast<double>(anomalous_seeds.size()) / runs;
  }
  std::string Summary() const;

  // Renders the stored postmortems (with their replay seeds) as a multi-line block for
  // failure diagnostics — what tier-1 tests append to an unexpected-failure assertion
  // so the narrative lands in the test log instead of requiring a re-run. Empty when no
  // trial produced one. Summary() stays one-line; this is the verbose companion.
  std::string PostmortemDump() const;
};

// Runs `trial(seed)` for seeds base_seed .. base_seed + num_seeds - 1. A trial returns an
// empty string to signal success, or a diagnostic message to signal failure (oracle
// violation, deadlock, ...). At the default parallel.jobs == 1 the trials run one after
// another on the calling thread, in seed order; otherwise they run on a work-stealing
// pool (runtime/parallel_sweep.h) and must be safe to invoke concurrently (every
// self-contained trial is). The outcome is the same either way.
SweepOutcome SweepSchedules(int num_seeds, const std::function<std::string(std::uint64_t)>& trial,
                            std::uint64_t base_seed = 1, const ParallelOptions& parallel = {});

// As above, for instrumented trials: also sums anomaly counters across trials and keeps
// the seeds (and first diagnostic) of anomalous schedules for exact replay.
SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<TrialReport(std::uint64_t)>& trial,
                            std::uint64_t base_seed = 1, const ParallelOptions& parallel = {});

// ---------------------------------------------------------------------------------------
// Chaos sweeps: matched fault-on / fault-off runs that calibrate the anomaly detector
// against ground-truth injected faults (see syneval/fault/). Where SweepSchedules asks
// "does this solution misbehave on some schedule?", SweepChaos asks "when we *know* a
// fault was injected, does the detector catch it — and does it stay silent when we
// know nothing was?".

struct FaultPlan;

// What one chaos trial observed. Produced by a trial callback that runs the workload
// under DetRuntime with (fault-on) or without (fault-off) an attached FaultInjector.
struct ChaosTrialOutcome {
  bool completed = false;      // The run finished; oracle verdict is meaningful.
  bool hung = false;           // Deadlock or step-limit: the run never finished.
  bool crashed = false;        // An exception escaped the trial (the run step's catch);
                               // also hung. Supervised rows quarantine on these.
  bool oracle_failed = false;  // Completed but the recorded trace violated the oracle.
  int injected = 0;            // Faults the injector fired (0 on fault-off runs).
  std::uint64_t first_injection_step = 0;  // Virtual step of the first injection.
  std::uint64_t steps = 0;                 // Scheduler steps the run took.
  int anomalies = 0;                       // Detector findings (any class).
  std::string report;                      // Runtime diagnosis when hung.

  // Flight-recorder postmortem for an anomalous or hung trial (see TrialReport).
  std::string postmortem_cause;
  std::string postmortem;

  // Flight-ring evictions during the trial (see TrialReport::flight_evicted).
  std::uint64_t flight_evicted = 0;
};

// One seed of a chaos sweep: its fault-on run and its matched fault-off run — the
// per-seed record (chaospair2, runtime/checkpoint.h) every verdict on a chaos row is
// folded from, quarantine included.
struct ChaosSeedPair {
  ChaosTrialOutcome on;
  ChaosTrialOutcome off;
};

// Aggregate of a matched sweep. Every seed is run twice — once with the plan attached,
// once without — so the false-positive rate is measured on the *same* schedules whose
// fault-on twins measure recall.
//
// Metric definitions (docs/FAULT_INJECTION.md discusses soundness):
//   harmful   — fault-on runs where a fault fired AND the run hung. Only these can be
//               "missed": a fault the mechanism absorbed left nothing to detect.
//   recall    — detected_harmful / harmful (−1 when no run was harmful: vacuous).
//   absorbed  — fault fired, yet the run completed with a clean oracle: the mechanism
//               tolerated the fault outright.
//   fp        — fault-off runs where the detector flagged anything at all.
struct ChaosSweepOutcome {
  int runs = 0;              // Seeds swept (each contributing one on + one off run).
  int skipped = 0;           // Seeds past a supervised row's quarantine: they ran, but
                             // are not folded (not part of the `runs` denominator).
  int injected_runs = 0;     // Fault-on runs where at least one fault fired.
  int harmful = 0;           // Fault fired and the run hung.
  int detected_harmful = 0;  // Harmful runs the detector flagged.
  int absorbed = 0;          // Fault fired; run completed and passed its oracle.
  int corrupted = 0;         // Fault fired; run completed but failed its oracle.
  int clean_anomalies = 0;   // Fault-off runs flagged by the detector (false positives).
  int clean_failures = 0;    // Fault-off runs that hung or failed (suite defect).
  std::uint64_t detection_steps_total = 0;  // Σ (steps − first_injection_step), detected.
  std::vector<std::uint64_t> missed_seeds;  // Harmful but undetected, for replay.
  std::vector<std::uint64_t> fp_seeds;      // Clean-run false positives, for replay.

  // Postmortems of fault-on trials, first kMaxStoredPostmortems in seed order, plus
  // the uncapped per-cause histogram over fault-on runs the detector flagged — the
  // recall gate checks every named cause here against the injected fault family.
  std::vector<SeedPostmortem> postmortems;
  int postmortems_total = 0;
  std::map<std::string, int> postmortem_causes;

  // Σ flight_evicted over both fault-on and fault-off runs.
  std::uint64_t flight_evicted = 0;

  double Recall() const {
    return harmful == 0 ? -1.0 : static_cast<double>(detected_harmful) / harmful;
  }
  double FalsePositiveRate() const {
    return runs == 0 ? 0.0 : static_cast<double>(clean_anomalies) / runs;
  }
  // Mean scheduler steps from first injection to end-of-run diagnosis, over detected
  // harmful runs (−1 when there were none).
  double MeanStepsToDetection() const {
    return detected_harmful == 0
               ? -1.0
               : static_cast<double>(detection_steps_total) / detected_harmful;
  }
  std::string Summary() const;
};

// Runs `trial(seed, &plan)` and `trial(seed, nullptr)` for each seed and aggregates.
// The trial owns runtime construction; it must attach a FaultInjector for the plan it
// is given (nullptr = fault-off) and report what fired via ChaosTrialOutcome. A trial
// that throws is folded in as hung (fault-on) or clean_failure (fault-off), keeping
// `runs` a common denominator, as with SweepSchedules. `parallel` as for
// SweepSchedules.
ChaosSweepOutcome SweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed = 1,
    const ParallelOptions& parallel = {});

// ---------------------------------------------------------------------------------------
// The run and fold steps every sweep above is built from. The engine calls the run step
// once per seed, on any worker; the fold step then sees every seed exactly once, in
// seed order, after the join.
namespace sweep_internal {

// Run step: trial(seed), with an escaping exception turned into a "trial aborted"
// failure, so the rate denominators never desynchronize.
TrialReport RunTrial(const std::function<TrialReport(std::uint64_t)>& trial,
                     std::uint64_t seed);

// Fold step: accumulates one seed's report into `outcome`.
void AccumulateTrial(TrialReport report, std::uint64_t seed, SweepOutcome& outcome);

// Chaos equivalents. The run step runs the fault-on trial, then the matched fault-off
// trial, each with the exception catch above (an escaping exception becomes a crashed,
// hung run).
ChaosSeedPair RunChaosSeed(
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t seed);
void AccumulateChaosTrial(ChaosSeedPair pair, std::uint64_t seed,
                          ChaosSweepOutcome& outcome);

}  // namespace sweep_internal

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_EXPLORE_H_
