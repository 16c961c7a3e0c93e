// Stateless dynamic partial-order reduction (DPOR) over the Schedule seam.
//
// The explorer drives DetRuntime through *every* synchronization-relevant
// interleaving of a (problem, mechanism, bound) cell, pruned by sleep sets and
// source-set/persistent-set backtracking [Flanagan & Godefroid 2005; Abdulla et al.
// 2014], and certifies each explored execution with the vector-clock happens-before
// engine (analysis/hb.h). The unit of reordering is the *slice*: everything one
// thread does between two scheduling decisions of the cooperative runtime. Because
// mechanisms in this repository synchronize exclusively through Runtime primitives,
// the scheduling decisions recorded by GuidedSchedule cover every sync-relevant
// choice, and a decision prefix replayed through a fresh DetRuntime reproduces the
// same state — the property the whole exploration rests on.
//
// Dependence between slices is derived from flight-recorder footprints: two slices
// of different threads are dependent iff they touched a common resource (mutex,
// condition variable, CCR guard queue, or an instrumented SharedCell). That is
// conservative — it may order slices the semantics would allow to commute — so the
// reduction is sound: the explorer visits at least one representative of every
// Mazurkiewicz trace reachable within the bound. Each execution is then judged:
//
//   * deadlock (DetRuntime found blocked threads with none runnable),
//   * an uncertified wakeup or client-state race from the HB engine,
//   * an oracle violation on the recorded trace of a completed run,
//
// any of which yields a *counterexample*: the decision prefix (a thread-id list)
// that deterministically replays the failing execution. Cells with none of these
// across the whole reduced tree are *proved* deadlock-free (and oracle-clean) for
// their bound. A naive enumerator over the same seam provides the unreduced
// execution count, so every verdict carries its reduction ratio.

#ifndef SYNEVAL_ANALYSIS_DPOR_H_
#define SYNEVAL_ANALYSIS_DPOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "syneval/analysis/hb.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/runtime/schedule.h"
#include "syneval/solutions/solution_info.h"
#include "syneval/telemetry/flight_recorder.h"

namespace syneval {

struct DporOptions {
  // DPOR execution budget per cell; exhaustion yields kBoundExceeded. The default
  // covers the largest tree in the built-in suite (monitor readers-priority, ~42k
  // reduced executions) with headroom.
  std::uint64_t max_executions = 50000;
  // Naive-enumeration budget (the unreduced baseline the ratio is measured against).
  // The effective budget is max(this, 2 * dpor_executions + 1), so a capped baseline
  // still certifies a >= 2x reduction (reported as a lower bound, never inflated).
  std::uint64_t naive_max_executions = 1500;
  // Per-execution scheduler step budget. A correct cell hitting this during
  // exploration is reported as kBoundExceeded, never as a bug.
  std::uint64_t max_steps = 4000;
  // Run the naive baseline after a proof (skipped for counterexample verdicts,
  // where the ratio is not meaningful).
  bool run_naive_baseline = true;
};

// Observables of one guided execution.
struct DporRun {
  std::vector<GuidedSchedule::Decision> decisions;
  std::vector<FlightEvent> events;
  bool completed = false;
  bool deadlocked = false;
  bool step_limit = false;
  bool diverged = false;  // The prefix named a non-runnable thread (replay bug).
  std::uint64_t steps = 0;
  std::uint64_t evicted = 0;  // Flight-ring evictions (must be 0 for sound footprints).
  std::string report;         // DetRuntime stuck report when !completed.
  std::string oracle;         // Oracle diagnostic on completed runs ("" = clean).
  int anomalies = 0;          // AnomalyDetector findings (DiagnoseStuck on deadlock).
  std::string anomaly_report;
  std::string postmortem_cause;  // Flight-recorder postmortem of a failed run.
  std::string postmortem;
  HbAnalysis hb;
};

// Replays one decision prefix through a fresh DetRuntime and returns what happened.
// Implementations must be deterministic functions of the prefix and safe to call
// concurrently (each call owns its runtime, recorder, and solution).
using DporRunner = std::function<DporRun(const std::vector<std::uint32_t>& prefix,
                                         const DporOptions& options)>;

enum class DporVerdict {
  kProvedDeadlockFree,  // Reduced tree fully explored; every execution clean.
  kCounterexample,      // A replayable failing prefix was found.
  kBoundExceeded,       // Budget exhausted before either of the above.
};

// Stable strings used in JSON and goldens: "proved_deadlock_free",
// "counterexample", "bound_exceeded".
const char* DporVerdictName(DporVerdict verdict);

struct DporCounterexample {
  // Thread ids of every scheduling decision of the failing run; feeding this back
  // through the cell's runner reproduces the failure exactly.
  std::vector<std::uint32_t> prefix;
  std::string reason;  // "deadlock" | "uncertified-wakeup" | "client-race" | "oracle".
  std::string detail;
};

// One explorable cell: a mechanism's solution under a tiny bounded workload.
struct DporCell {
  Mechanism mechanism = Mechanism::kSemaphore;
  std::string problem;
  std::string display;
  bool seeded_bug = false;  // True for the deliberately broken demonstration cells.
  DporRunner run;
};

struct DporCellResult {
  Mechanism mechanism = Mechanism::kSemaphore;
  std::string problem;
  std::string display;
  bool seeded_bug = false;
  DporVerdict verdict = DporVerdict::kBoundExceeded;

  std::uint64_t executions = 0;   // Guided runs the DPOR explorer performed.
  std::uint64_t redundant = 0;    // Runs whose fallback tail re-entered a sleep set.
  std::uint64_t transitions = 0;  // Total slices across all DPOR runs.
  std::uint64_t max_depth = 0;    // Longest decision sequence seen.

  std::uint64_t naive_executions = 0;
  bool naive_complete = false;    // Naive enumeration finished within its budget.
  double reduction_ratio = 0.0;   // naive/dpor; a lower bound when !naive_complete.

  std::uint64_t certified_wakeups = 0;  // HB-matched notified wakes, all runs.
  std::uint64_t hb_joins = 0;           // HB edges applied, all runs.

  std::string note;  // Degradations (eviction, divergence).
  bool has_counterexample = false;
  DporCounterexample counterexample;
};

// The footnote-2 exploration cells at DPOR-sized bounds: the paper's canonical
// problems under two mechanisms each, plus instrumented shared-counter cells, plus
// the seeded-bug demonstration cells (naive dining philosophers, a stolen-signal
// single-condvar buffer, and an unguarded counter).
std::vector<DporCell> BuildDporSuite();

// Explores one cell to a verdict.
DporCellResult ExploreCell(const DporCell& cell, const DporOptions& options = {});

struct DporSuiteResult {
  std::vector<DporCellResult> cells;  // Same order as the input suite.
  int jobs = 1;
  double wall_seconds = 0.0;
  std::vector<WorkerTelemetry> workers;
};

// Explores every cell, one cell per pool task (runtime/parallel_sweep.h). Results
// are positionally assigned, so the output is identical for any worker count.
DporSuiteResult ExploreDporSuite(const std::vector<DporCell>& suite,
                                 const DporOptions& options = {},
                                 const ParallelOptions& parallel = {});

// What replaying a counterexample prefix reproduced; used by the CLI and tests to
// confirm DPOR findings against the independent anomaly detector.
struct DporReplay {
  bool completed = false;
  bool deadlocked = false;
  bool diverged = false;
  std::uint64_t steps = 0;
  int anomalies = 0;  // Detector findings during the replay (>=1 confirms a deadlock).
  std::string anomaly_report;
  std::string postmortem_cause;
  std::string postmortem;
  std::string oracle;
  HbAnalysis hb;
};

DporReplay ReplayDporCounterexample(const DporCell& cell,
                                    const std::vector<std::uint32_t>& prefix,
                                    const DporOptions& options = {});

}  // namespace syneval

#endif  // SYNEVAL_ANALYSIS_DPOR_H_
