// Chaos calibration suite: the anomaly detector measured against ground truth.
//
// Every detector verdict in this repository so far was produced against faults that
// arose *naturally* under schedule search — which says nothing about what the detector
// misses, or how often it cries wolf. This suite closes that gap: for each footnote-2
// problem × mechanism pair it runs matched fault-on / fault-off schedule sweeps
// (SweepChaos, runtime/explore.h) under DetRuntime, injecting known faults through a
// seed-replayable FaultPlan, and reports
//
//   * injected-fault recall      — of the runs a fault demonstrably broke (they hung),
//                                  what fraction did the detector flag?
//   * false-positive rate        — on the *same* schedule seeds with no injector
//                                  attached, how often did the detector flag anything?
//   * mean steps to detection    — scheduler steps from first injection to diagnosis.
//
// All trials run under DetRuntime with a virtual-step budget, so the whole calibration
// table is a pure function of (case list, fault plans, seed range): byte-identical
// across machines, and checked as a golden file in CI (tests/golden/). The step budget
// is the only deadline a chaos trial has; nothing in this suite reads the wall clock.

#ifndef SYNEVAL_FAULT_CHAOS_H_
#define SYNEVAL_FAULT_CHAOS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/fault.h"
#include "syneval/fault/injector.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/explore.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/runtime/supervisor.h"
#include "syneval/solutions/cases.h"
#include "syneval/solutions/solution_info.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/trace/event.h"
#include "syneval/trace/recorder.h"

namespace syneval {

// One catalogue trial's stack (solutions/cases.h), shared by the conformance suite and
// the chaos calibration: anomaly detector, trace, flight recorder, a fault injector when
// a plan is given, and the runtime. The attachments are declared before the runtime so
// they outlive it (runtime.h); the case built on the stack is declared last, so its
// solution and threads go first.
struct TrialStack {
  // The plan's injector seed is re-derived from the schedule seed (see
  // ChaosFaultFamily).
  TrialStack(std::uint64_t seed, const FaultPlan* plan,
             const DetRuntime::Options& runtime_options,
             const FlightRecorder::Options& flight_options);
  // The attachments hold this stack's address.
  TrialStack(const TrialStack&) = delete;
  TrialStack& operator=(const TrialStack&) = delete;

  // Builds `entry`'s case on the stack and runs it: `result` is the run, and `verdict`
  // the oracle's judgement of its trace ("" when clean, or when the run never
  // completed). The case stays alive until the stack goes.
  void Run(const CaseEntry& entry, std::uint64_t seed, int workload_scale);

  AnomalyDetector detector;
  TraceRecorder trace;
  FlightRecorder flight;
  std::optional<FaultInjector> injector;
  DetRuntime runtime;
  CaseOracle oracle;
  DetRuntime::RunResult result;
  std::string verdict;
};

// One chaos trial: run the case's workload under DetRuntime with the given seed,
// attaching a FaultInjector for `plan` when non-null, and report what happened.
using ChaosTrial = std::function<ChaosTrialOutcome(std::uint64_t seed, const FaultPlan* plan)>;

// The same trial with full observability retained: the logical trace (for Perfetto
// export) and the structured postmortem (empty() when the run was clean). Sweeps use
// ChaosTrial — which discards both — so the calibration loop never pays for keeping
// per-trial event vectors alive.
struct ChaosReplayResult {
  ChaosTrialOutcome outcome;
  std::vector<Event> events;
  Postmortem postmortem;
};

using ChaosReplayFn =
    std::function<ChaosReplayResult(std::uint64_t seed, const FaultPlan* plan)>;

struct ChaosCase {
  Mechanism mechanism = Mechanism::kSemaphore;
  std::string problem;   // Canonical problem id ("bounded-buffer", ...).
  std::string display;   // Human-readable solution name.
  ChaosTrial trial;
  ChaosReplayFn replay;  // Same run as `trial`, returning the full capture.
};

// The footnote-2 problems, each under (at least) two mechanism families chosen to be
// anomaly-clean on fault-off sweeps — a case with natural anomalies could not measure
// a false-positive rate. Every case is a conformance case picked from the case
// catalogue by name, so its fault-off run is the conformance trial's schedule for
// schedule, under the chaos step budget and ring cap.
std::vector<ChaosCase> BuildChaosSuite(int workload_scale = 1);

// A named fault plan the calibration applies to every case. The plan's injector seed
// is re-derived per trial from the schedule seed, so probability triggers explore
// different injection points on different schedules while staying replayable.
struct ChaosFaultFamily {
  std::string name;       // Table label: "lost-signal", "stall", ...
  std::string plan_text;  // Trigger-grammar plan (see fault.h).
};

std::vector<ChaosFaultFamily> CalibrationFaultFamilies();

// Supervision policy for RunChaosCalibration (see runtime/supervisor.h). Disabled by
// default. A chaos trial is bounded by its step budget and is a pure function of its
// seed, so supervision adds no reaper, retry or backoff: every seed runs, and the row's
// one fold also applies the quarantine rule (SupervisionVerdict::Fold) to its per-seed
// records in seed order. A crashed run (ChaosTrialOutcome::crashed; fault-on and
// fault-off each count once) is catastrophic; the seed that brings the count to
// quarantine_after is the row's last folded seed, and the seeds after it count as
// ChaosSweepOutcome::skipped. Because the verdict is a fold over the records, the
// table — quarantined rows included — is identical at any worker count and across
// --resume, and with no crashes it is field-by-field the unsupervised table.
struct ChaosSupervision {
  bool enabled = false;
  // Only quarantine_after applies; the deadline, retry and sandbox fields are for
  // OsRuntime trials.
  SupervisorOptions options;
};

// One row; its SupervisionVerdict stays default on unsupervised runs. A crashed run
// folds into `outcome` as hung, so a quarantined row's folded seeds keep their
// denominators; quarantine only moves the seeds after it to `outcome.skipped`.
struct ChaosCalibrationRow : SupervisionVerdict {
  std::string problem;
  Mechanism mechanism = Mechanism::kSemaphore;
  std::string display;
  std::string fault;  // ChaosFaultFamily::name.
  std::string plan;   // The plan text, for replay.
  ChaosSweepOutcome outcome;
};

struct ChaosCalibrationTable {
  int seeds_per_case = 0;
  std::uint64_t base_seed = 1;
  std::vector<ChaosCalibrationRow> rows;

  // Pool accounting when the grid ran parallel (jobs == 1 for the serial path). The
  // per-worker shards are summed across every row's sweep; the table itself is
  // bit-identical at any worker count.
  int jobs = 1;
  double wall_seconds = 0;
  std::vector<WorkerTelemetry> workers;

  // Supervision accounting (all zero on unsupervised runs).
  SupervisorStats supervisor;

  // Worst (minimum) recall over rows that had harmful runs; 1.0 when none did.
  double MinRecall() const;
  // Total fault-off false positives across all rows.
  int TotalFalsePositives() const;

  int QuarantinedRows() const;
  // quarantine.json for the calibration grid: every row's verdict, with reasons and
  // harvested postmortems for the quarantined ones. Same spirit as
  // SupervisedSweepReport::QuarantineJson, keyed "problem/display/fault".
  std::string QuarantineJson() const;
  // Writes QuarantineJson() atomically (WriteFileAtomically). False on I/O failure.
  bool WriteQuarantineFile(const std::string& path) const;
};

// Runs the full suite × family grid. 2 × seeds_per_case trials per row; each row's
// seed range is sharded across `parallel` workers (the row/table order is fixed, and
// every row is folded once from its per-seed records in seed order, so the table is
// bit-identical to the serial sweep). With supervision.enabled the fold also decides
// quarantine (see ChaosSupervision), with the same determinism guarantee.
ChaosCalibrationTable RunChaosCalibration(int seeds_per_case = 20,
                                          std::uint64_t base_seed = 1,
                                          int workload_scale = 1,
                                          const ParallelOptions& parallel = {},
                                          const ChaosSupervision& supervision = {});

// Re-runs one (problem, mechanism, fault-family) calibration cell at `seed`, keeping
// the full logical trace and structured postmortem. `fault_family` may be "" for a
// fault-off replay; `base_seed` must match the calibration run's base seed for the
// injector derivation to reproduce the same run. Returns nullopt when the triple names
// no suite case (or a non-empty family is unknown).
std::optional<ChaosReplayResult> ReplayChaosTrial(const std::string& problem,
                                                  Mechanism mechanism,
                                                  const std::string& fault_family,
                                                  std::uint64_t seed,
                                                  std::uint64_t base_seed = 1,
                                                  int workload_scale = 1);

namespace chaos_internal {

// One calibration row: sweeps `trial` over seeds base_seed .. base_seed + num_seeds - 1
// (SweepChaosSeeds, checkpointed under parallel.checkpoint_scope) and folds the
// per-seed records into row.outcome and, when supervision.enabled, into the row's
// SupervisionVerdict. Returns the pool run. Exposed so tests can drive the quarantine
// rule with synthetic (crashing) trials that the real suite does not contain.
SweepRun SweepChaosRow(const ChaosTrial& trial, const FaultPlan& plan, int num_seeds,
                       std::uint64_t base_seed, const ParallelOptions& parallel,
                       const ChaosSupervision& supervision, ChaosCalibrationRow& row);

// Vestiges kept only because perfbench/chaos_soak.cc still builds its replica grid
// from them; delete both with the next change to that benchmark. Chaos rows are
// supervised by the row fold above, so the wrapper has nothing to add.

// A row verdict and a mutex; nothing writes it any more, so its stats stay zero.
struct SupervisedRowState : SupervisionVerdict {
  std::mutex mu;
};

// Returns `inner` unchanged.
ChaosTrial MakeSupervisedChaosTrial(ChaosTrial inner, const SupervisorOptions& options,
                                    std::shared_ptr<SupervisedRowState> state);

}  // namespace chaos_internal

}  // namespace syneval

#endif  // SYNEVAL_FAULT_CHAOS_H_
