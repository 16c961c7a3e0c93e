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

#ifndef SYNEVAL_RUNTIME_EXPLORE_H_
#define SYNEVAL_RUNTIME_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "syneval/anomaly/anomaly.h"

namespace syneval {

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
// rest are counted, not stored. The first-N-in-seed-order rule composes with the
// chunk merge: each chunk keeps its own first N, and concatenation-in-chunk-order
// followed by truncation reproduces the serial sweep's first N exactly.
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
// violation, deadlock, ...). Trials are executed sequentially, so they may share
// deterministic state if desired; typically each trial is self-contained.
SweepOutcome SweepSchedules(int num_seeds, const std::function<std::string(std::uint64_t)>& trial,
                            std::uint64_t base_seed = 1);

// As above, for instrumented trials: also sums anomaly counters across trials and keeps
// the seeds (and first diagnostic) of anomalous schedules for exact replay.
SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<TrialReport(std::uint64_t)>& trial,
                            std::uint64_t base_seed = 1);

// Parallel overloads: shard the seed range across a work-stealing worker pool
// (runtime/parallel_sweep.h) and merge deterministically — the returned outcome is
// bit-identical to the serial sweep of the same seeds at any worker count.
// parallel.jobs == 1 falls back to the serial loop on the calling thread; the trial
// must be safe to invoke concurrently otherwise (every self-contained trial is).
struct ParallelOptions;
SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<std::string(std::uint64_t)>& trial,
                            std::uint64_t base_seed, const ParallelOptions& parallel);
SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<TrialReport(std::uint64_t)>& trial,
                            std::uint64_t base_seed, const ParallelOptions& parallel);

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
  bool skipped = false;        // Supervised sweeps: the cell was quarantined before
                               // this seed; nothing ran (fault-off run included).
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
  int skipped = 0;           // Seeds skipped after quarantine (supervised sweeps only;
                             // not part of the `runs` denominator — nothing ran).
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
// `runs` a common denominator, as with SweepSchedules.
ChaosSweepOutcome SweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed = 1);

// Parallel overload, same contract as the SweepSchedules one: bit-identical to the
// serial chaos sweep at any worker count, serial fallback at parallel.jobs == 1.
ChaosSweepOutcome SweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& parallel);

// ---------------------------------------------------------------------------------------
// Shared per-seed accumulation and chunk-merge steps. Every sweep above runs on the
// parallel engine (the serial overloads are its jobs == 1 path, one seed after another
// on the calling thread). It folds every seed through AccumulateTrial/
// AccumulateChaosTrial — per contiguous chunk when it shards — and reduces the chunk
// outcomes in chunk order with MergeOutcome/MergeChaosOutcome. Keeping every path on
// one accumulation routine is what makes "bit-identical to the serial sweep" a
// structural property rather than a hope.
namespace sweep_internal {

// Runs trial(seed) — folding an escaping exception into a "trial aborted" failure so
// the rate denominators never desynchronize — and accumulates the report into
// `outcome` exactly as the serial loop does.
void AccumulateTrial(const std::function<TrialReport(std::uint64_t)>& trial,
                     std::uint64_t seed, SweepOutcome& outcome);

// Appends `chunk` (the outcome of a contiguous seed range) onto `into` (the outcome of
// the contiguous range immediately before it). Associative over adjacent ranges.
void MergeOutcome(SweepOutcome& into, SweepOutcome&& chunk);

// Chaos equivalents: one seed contributes a matched fault-on + fault-off pair.
void AccumulateChaosTrial(
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t seed, ChaosSweepOutcome& outcome);
void MergeChaosOutcome(ChaosSweepOutcome& into, ChaosSweepOutcome&& chunk);

}  // namespace sweep_internal

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_EXPLORE_H_
