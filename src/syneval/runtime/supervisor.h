// Trial supervisor: deadlines, reaping, crash capture, retries, and quarantine.
//
// Bloom's methodology only pays off at scale — hundreds of seeds × problems ×
// mechanisms × fault plans — and at that scale a single genuinely-hung OsRuntime trial
// (the very deadlocks the suite exists to provoke) or one crashed worker must not
// stall or forfeit the whole sweep. This module hardens the evaluation harness itself
// through one seam, one reaper, one retry, one quarantine rule and one quarantine
// format. Only OsRuntime trials need the wall clock: a DetRuntime trial is bounded by
// its step budget (det_runtime.h) and is a pure function of its seed, so it is never
// reaped or retried — its rows are supervised by the quarantine rule alone.
//
//   * The seam. A supervised trial is a plain seeded trial (TrialReport(seed)). It
//     registers its observe callback from inside its own body through a
//     TrialObserverScope (MakeSupervisableOsTrial: one detector Poll, then the
//     flight-recorder postmortem), so a hung trial can explain itself.
//   * The reaper. Every attempt runs in a fork()ed child process (POSIX). Once the
//     deadline has passed the child observes its trial once and publishes the
//     postmortem into one seqlocked shared-memory slot (so the parent never reads a
//     half-written snapshot from a wedged child); the parent waits a bounded
//     grace for that, then SIGKILLs the child — a reap no trial can refuse.
//     SIGSEGV / SIGABRT / SIGBUS / SIGFPE / SIGILL / std::terminate / escaping
//     exceptions become a structured TrialCrash record in shared memory. Where fork()
//     does not exist an attempt calls the trial in-process with exception capture and
//     no deadline.
//   * The retry. RunSupervisedSeed retries a seed's catastrophic attempts (reaped or
//     crashed) with exponential backoff.
//   * The quarantine rule. SupervisionVerdict::Fold walks a row's seeds in seed order
//     and quarantines the row once quarantine_after of them ended catastrophic,
//     keeping the seeds up to that one, skipping the rest, and keeping the last crash
//     and postmortem for quarantine.json — so a sweep with broken cells still
//     terminates with every healthy cell's outcome bit-identical to a clean run.
//     SuperviseSweep folds each seed as it finishes; the chaos calibration folds its
//     rows' per-seed records (fault/chaos.h), so a resumed sweep recomputes the same
//     verdict from restored records.
//
// The process-wide ActiveTrials() gauge also feeds the OsRuntime watchdog's
// load-adaptive poll threshold (os_runtime.h): each sweep-pool worker registers
// through one ActiveTrialScope, and the stuck-wait threshold scales with how many run
// at once.
//
// docs/RESILIENCE.md covers the supervisor, the sandbox protocol, the checkpoint
// format (runtime/checkpoint.h), and the quarantine semantics.

#ifndef SYNEVAL_RUNTIME_SUPERVISOR_H_
#define SYNEVAL_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "syneval/runtime/explore.h"

namespace syneval {

class AnomalyDetector;
class FlightRecorder;
class OsRuntime;

// ---- Process-wide active-trial gauge ------------------------------------------------

// Number of trials currently executing in this process: one per sweep-pool worker
// (parallel_sweep.h), supervised or not. Consumed by the OsRuntime watchdog's
// load-adaptive threshold. Never returns less than 1: the caller asking is itself
// doing work (a supervised seed run outside a sweep reads 1).
int ActiveTrials();

// RAII registration of one running trial in the ActiveTrials() gauge.
class ActiveTrialScope {
 public:
  ActiveTrialScope();
  ~ActiveTrialScope();
  ActiveTrialScope(const ActiveTrialScope&) = delete;
  ActiveTrialScope& operator=(const ActiveTrialScope&) = delete;
};

// ---- The observe seam ---------------------------------------------------------------

// A live observation of a running (possibly hung) trial, published to the supervisor
// by the trial's observe callback: the flight-recorder postmortem as of now.
struct TrialObservation {
  std::string cause;  // Postmortem::cause ("" when there is nothing to explain yet).
  std::string text;   // Postmortem::ToText().
};

// The observation every trial stack publishes: BuildPostmortem over its recorder and
// detector, with "" text when there is nothing to explain yet.
TrialObservation ObservePostmortem(const FlightRecorder& flight,
                                   const AnomalyDetector& detector);

// The sandbox child's holder of its trial's observe callback (supervisor.cc).
class TrialObserverSlot;

// RAII registration of the calling trial's observe callback with the supervisor. A
// sandbox child installs the one slot it runs its trial with; everywhere else there is
// none and the scope is a no-op — which is what keeps a supervised healthy cell
// bit-identical to an unsupervised sweep of it. Construct it after everything the
// callback captures; destruction waits for an in-flight observe, so the captures stay
// valid for exactly the scope's lifetime.
class TrialObserverScope {
 public:
  explicit TrialObserverScope(std::function<TrialObservation()> observe);
  ~TrialObserverScope();
  TrialObserverScope(const TrialObserverScope&) = delete;
  TrialObserverScope& operator=(const TrialObserverScope&) = delete;

 private:
  TrialObserverSlot* slot_;
};

// ---- Supervision policy and results -------------------------------------------------

struct SupervisorOptions {
  // Wall-clock budget per attempt; past it the child is observed and killed. Zero
  // disables reaping (the trial still gets crash capture and retries).
  std::chrono::milliseconds trial_deadline{2000};
  // Attempts per seed: catastrophic attempts (reaped or crashed) are retried up to
  // max_attempts - 1 times. A trial that merely fails its oracle is a *result*, not a
  // malfunction — it is never retried.
  int max_attempts = 2;
  // Sleep before retry k is retry_backoff × 2^(k-1).
  std::chrono::milliseconds retry_backoff{10};
  // A row is quarantined once this many of its seeds end catastrophic: a
  // SuperviseSweep cell's seeds after their retries, a chaos calibration row's crashed
  // runs (fault-on and fault-off each count once). The seeds up to that one are kept;
  // the rest are skipped.
  int quarantine_after = 2;
  // How often the parent polls its sandbox child (waitpid) for an exit.
  std::chrono::milliseconds sandbox_poll{2};
};

// Structured record of a crashed attempt: a fatal signal, std::terminate or an
// exception that escaped the trial, or a sandbox that could not be set up.
struct TrialCrash {
  bool crashed = false;
  int signal_number = 0;  // 0 when the crash was an exception / std::terminate.
  std::string what;       // "signal 11 (SIGSEGV)", exception message, exit status.
  std::string postmortem_cause;  // Latest complete postmortem harvested from the
  std::string postmortem;        // shared-memory ring ("" when none was published).
};

// Counters a supervised sweep aggregates; rendered as the schema-v4 `supervisor`
// object by the bench reporter.
struct SupervisorStats {
  int reaped = 0;       // Attempts killed at the deadline.
  int crashed = 0;      // Attempts that died (signal, terminate, escaped exception).
  int retried = 0;      // Retry attempts performed.
  int quarantined = 0;  // Rows quarantined.
  SupervisorStats& operator+=(const SupervisorStats& other);
};

// One attempt as the supervisor sees it. For plain seeded trials `report` is the
// attempt's TrialReport (its message synthesized when catastrophic); the chaos
// calibration fills only `report`'s message and postmortem fields, which the
// quarantine rule keeps as a quarantined row's explanation.
struct SupervisedTrialResult {
  TrialReport report;
  bool reaped = false;
  bool crashed = false;
  int attempts = 1;
  TrialCrash crash;  // Populated when crashed.

  // A malfunction of the trial itself (vs. a legitimate oracle failure).
  bool Catastrophic() const { return reaped || crashed; }
};

// A supervised trial: one seed in, one report out (explore.h's trial shape).
using SeededTrial = std::function<TrialReport(std::uint64_t)>;

// Canned OsRuntime trial: per call, builds a fresh AnomalyDetector and a trial-sized
// FlightRecorder, then an OsRuntime with both attached; registers observe (one
// detector Poll, then the postmortem) through a TrialObserverScope; runs `body` (which
// returns the oracle verdict: empty = pass) and folds detector counts and a
// postmortem into the report.
SeededTrial MakeSupervisableOsTrial(
    std::function<std::string(OsRuntime&, std::uint64_t seed)> body);

// The supervision verdict on one row of seeds (a SuperviseSweep cell, a chaos
// calibration row).
struct SupervisionVerdict {
  bool quarantined = false;
  int catastrophic_seeds = 0;
  std::string quarantine_reason;      // "" unless quarantined.
  TrialCrash last_crash;              // Last crashed attempt of a catastrophic seed.
  std::string last_postmortem_cause;  // Last catastrophic seed's postmortem.
  std::string last_postmortem;
  SupervisorStats stats;

  // The one quarantine rule, called once per seed in seed order (a chaos seed: once
  // per run) and never after the row is quarantined. Adds the seed's attempt counts
  // to `stats`; a catastrophic `seed` leaves its crash record and postmortem on the
  // row and, as the options.quarantine_after-th such seed, quarantines it with
  // "<n> catastrophic seed(s) (last: <its report message>)".
  void Fold(const SupervisedTrialResult& seed, const SupervisorStats& attempts,
            const SupervisorOptions& options);
};

// Full per-seed supervision of a plain seeded trial: each attempt runs in a fork()ed
// child killed at the deadline, and a catastrophic attempt is retried until one is
// not or options.max_attempts ran, sleeping retry_backoff × 2^(k-1) before retry k. An
// attempt that merely fails its oracle is a result, never retried. Returns the last
// attempt: a reaped one's report carries the deadline message and, when the trial
// left none, the child's postmortem; a crashed one's carries "crashed: <what>".
// `stats` (nullable) accumulates reaped/crashed/retried.
SupervisedTrialResult RunSupervisedSeed(const SeededTrial& trial, std::uint64_t seed,
                                        const SupervisorOptions& options,
                                        SupervisorStats* stats);

// ---- Cell-level supervision and quarantine ------------------------------------------

// One risky sweep cell: a (problem, mechanism[, fault]) point whose seeds are swept
// under supervision. `id` must be unique within the sweep (it keys quarantine.json).
struct SupervisedCell {
  std::string id;
  SeededTrial trial;
};

struct SupervisedCellResult : SupervisionVerdict {
  std::string id;
  // The reports of the seeds run before quarantine: reports[i] is seed base_seed + i.
  std::uint64_t base_seed = 1;
  std::vector<TrialReport> reports;
  // `reports` folded by the same sweep_internal::AccumulateTrial as every other
  // sweep, so a healthy cell's outcome is bit-identical to an unsupervised sweep of it.
  SweepOutcome outcome;
  int completed_seeds = 0;  // Seeds run before quarantine (== runs).
};

struct SupervisedSweepReport {
  std::vector<SupervisedCellResult> cells;  // In input cell order.
  SupervisorStats totals;

  int QuarantinedCells() const;

  // The non-quarantined cells' reports folded in (cell, seed) order — the "remaining
  // seeds" aggregate, bit-identical to a clean sweep over the same cells.
  SweepOutcome MergedHealthyOutcome() const;

  // quarantine.json: every cell's verdict, with crash records and per-cell
  // postmortems for the quarantined ones.
  std::string QuarantineJson() const;

  // Writes QuarantineJson() atomically (WriteFileAtomically). False on I/O failure.
  bool WriteQuarantineFile(const std::string& path) const;
};

// Sweeps seeds base_seed .. base_seed + num_seeds - 1 over every cell under
// supervision. Each cell is one sweep engine run (parallel_sweep.h) at one job of
// RunSupervisedSeed around its trial, so cells run in input order and seeds in seed
// order; each seed is folded into the cell's SupervisionVerdict as it finishes, and
// once the cell is quarantined its remaining seeds are not run (supervised cells are
// the risky OsRuntime minority, whose trials own real threads already; the
// deterministic bulk belongs in ParallelSweepSchedules).
SupervisedSweepReport SuperviseSweep(const std::vector<SupervisedCell>& cells,
                                     int num_seeds, std::uint64_t base_seed,
                                     const SupervisorOptions& options);

// quarantine.json's envelope, shared by SupervisedSweepReport and the chaos
// calibration table: schema_version, quarantined_cells, the reaped/crashed/retried
// totals, then `cells` (one rendered JSON object each) as the "cells" array.
std::string QuarantineJsonDocument(int quarantined_cells, const SupervisorStats& totals,
                                   const std::vector<std::string>& cells);

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_SUPERVISOR_H_
