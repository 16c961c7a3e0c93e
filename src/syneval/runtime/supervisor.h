// Trial supervisor: deadlines, reaping, crash capture, retries, and quarantine.
//
// Bloom's methodology only pays off at scale — hundreds of seeds × problems ×
// mechanisms × fault plans — and at that scale a single genuinely-hung OsRuntime trial
// (the very deadlocks the suite exists to provoke) or one crashed worker must not
// stall or forfeit the whole sweep. This module hardens the evaluation harness itself
// through one seam, one reaper, one policy and one quarantine format:
//
//   * The seam. A supervised trial is a plain seeded trial (TrialReport(seed)). It
//     registers its abort and observe callbacks from inside its own body through a
//     TrialAbortScope, into the TrialAbortSlot its thread has installed — OS trials
//     (MakeSupervisableOsTrial: AnomalyDetector::SetAborting, then
//     OsRuntime::RequestAbort, so every blocked thread throws TrialAborted and unwinds
//     through RAII guards that no-op behind the Runtime::Aborting() seam) and chaos
//     trials (fault/chaos.h: DetRuntime::RequestAbort) alike.
//   * The reaper. RunWithTrialDeadline runs one attempt with a slot installed; past
//     the deadline its reaper thread captures a live postmortem through the slot's
//     observe and then force-unwinds the trial through its abort.
//   * The sandbox. For cells that cannot be unwound cooperatively, an opt-in
//     fork()-based process sandbox runs the trial in a child process: the child
//     installs a slot, runs the trial, and its heartbeat thread publishes the slot's
//     live postmortems into a shared-memory ring (per-slot seqlock, so the parent can
//     harvest a consistent snapshot from a wedged child); SIGSEGV / SIGABRT / SIGBUS /
//     SIGFPE / SIGILL / std::terminate / escaping exceptions become a structured
//     TrialCrash record in shared memory, and the parent SIGKILLs the child at the
//     deadline — a reap no in-process mechanism can refuse.
//   * The policy. SuperviseSeed retries catastrophic attempts (reaped or crashed) with
//     exponential backoff and quarantines a row whose seeds keep dying — folding the
//     seeds it did complete, skipping the rest, and keeping its last crash and
//     postmortem for quarantine.json — so a sweep with broken cells still terminates
//     with every healthy cell's outcome bit-identical to a clean run. RunSupervisedSeed
//     and SuperviseSweep apply it to seeded trials; the chaos calibration applies it
//     to its rows, folding each attempt into its own outcome type.
//
// The process-wide ActiveTrials() gauge also feeds the OsRuntime watchdog's
// load-adaptive poll threshold (os_runtime.h): trials register through
// ActiveTrialScope, and the stuck-wait threshold scales with how many run at once.
//
// docs/RESILIENCE.md covers the supervisor, the sandbox protocol, the checkpoint
// format (runtime/checkpoint.h), and the quarantine semantics.

#ifndef SYNEVAL_RUNTIME_SUPERVISOR_H_
#define SYNEVAL_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "syneval/runtime/explore.h"

namespace syneval {

class AnomalyDetector;
class FlightRecorder;
class OsRuntime;

// ---- Process-wide active-trial gauge ------------------------------------------------

// Number of trials currently executing in this process (supervised trials and
// parallel-sweep chunks). Consumed by the OsRuntime watchdog's load-adaptive
// threshold. Never returns less than 1: the caller asking is itself doing work.
int ActiveTrials();

// RAII registration of one running trial in the ActiveTrials() gauge.
class ActiveTrialScope {
 public:
  ActiveTrialScope();
  ~ActiveTrialScope();
  ActiveTrialScope(const ActiveTrialScope&) = delete;
  ActiveTrialScope& operator=(const ActiveTrialScope&) = delete;
};

// ---- The abort/observe seam --------------------------------------------------------

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

// A supervised trial is a plain seeded trial. The supervisor reaches it through a
// per-thread slot: every attempt runs with a TrialAbortSlot installed on its thread,
// and the trial registers its abort/observe callbacks into that slot from inside its
// own body, through a TrialAbortScope, once it has built the runtime they act on.
// Unsupervised runs install no slot, making the scope a no-op — which is what keeps a
// supervised healthy cell bit-identical to an unsupervised sweep of it.

// Reaper-facing handle to the (possibly not yet constructed) trial of one attempt.
// Thread-safe; Abort() on an empty slot is remembered and fired on late registration,
// so a reap cannot be lost to a construction race.
class TrialAbortSlot {
 public:
  // Force-unwind the registered trial (OsRuntime trials: detector SetAborting +
  // RequestAbort; DetRuntime trials: RequestAbort()).
  void Abort();
  // Capture a live postmortem of the registered trial ("" fields when nothing is
  // registered or there is nothing to explain yet).
  TrialObservation Observe();
  bool aborted() const;

 private:
  friend class TrialAbortScope;
  void Register(std::function<void()> abort, std::function<TrialObservation()> observe);
  void Unregister();

  mutable std::mutex mu_;
  bool aborted_ = false;
  std::function<void()> abort_;
  std::function<TrialObservation()> observe_;
};

// RAII registration of the calling trial's abort/observe callbacks into the thread's
// installed slot (no-op when none is installed). Construct it after everything the
// callbacks capture; destruction synchronizes with any in-flight reaper call, so the
// captures stay valid for exactly the scope's lifetime.
class TrialAbortScope {
 public:
  TrialAbortScope(std::function<void()> abort, std::function<TrialObservation()> observe);
  ~TrialAbortScope();
  TrialAbortScope(const TrialAbortScope&) = delete;
  TrialAbortScope& operator=(const TrialAbortScope&) = delete;

 private:
  TrialAbortSlot* slot_;
};

struct TrialReapResult {
  bool reaped = false;           // The deadline fired before `fn` returned.
  TrialObservation observation;  // The reaper's pre-abort harvest (sparse).
};

// Runs `fn` on the calling thread with `slot` installed as the thread's abort slot,
// under a wall-clock deadline: a reaper thread observes and then aborts through the
// slot when the deadline expires. deadline <= 0 runs `fn` with the slot installed but
// no reaper. The abort is cooperative — `fn` must eventually return through its
// runtime's abort path (DetRuntime trials always do: the driver regains control at
// every scheduling step).
TrialReapResult RunWithTrialDeadline(TrialAbortSlot& slot,
                                     std::chrono::milliseconds deadline,
                                     const std::function<void()>& fn);

// ---- Supervision policy and results -------------------------------------------------

struct SupervisorOptions {
  // Wall-clock budget per attempt; past it the reaper fires. Zero disables reaping
  // (the trial still gets crash capture and retries).
  std::chrono::milliseconds trial_deadline{2000};
  // Attempts per seed: catastrophic attempts (reaped or crashed) are retried up to
  // max_attempts - 1 times. A trial that merely fails its oracle is a *result*, not a
  // malfunction — it is never retried.
  int max_attempts = 2;
  // Sleep before retry k is retry_backoff × 2^(k-1).
  std::chrono::milliseconds retry_backoff{10};
  // A row (a SuperviseSweep cell, a chaos calibration row) is quarantined once this
  // many of its seeds end catastrophic (after their retries). Quarantining stops
  // sweeping the row; seeds already folded are kept, the rest are skipped.
  int quarantine_after = 2;
  // Run each attempt in a fork()ed child (POSIX only; ignored where unavailable).
  bool sandbox = false;
  // Parent-side waitpid poll period and child-side heartbeat period in sandbox mode.
  std::chrono::milliseconds sandbox_poll{2};
};

// Structured record of a crashed attempt (sandbox: fatal signal or std::terminate;
// in-process: an exception that escaped the trial).
struct TrialCrash {
  bool crashed = false;
  int signal_number = 0;  // 0 when the crash was an exception / std::terminate.
  std::string what;       // "signal 11 (SIGSEGV)", exception message, exit status.
  std::string postmortem_cause;  // Latest complete postmortem harvested from the
  std::string postmortem;        // shared-memory ring (sandbox only).
};

// Counters a supervised sweep aggregates; rendered as the schema-v4 `supervisor`
// object by the bench reporter.
struct SupervisorStats {
  int reaped = 0;       // Attempts force-unwound at the deadline.
  int crashed = 0;      // Attempts that died (signal, terminate, escaped exception).
  int retried = 0;      // Retry attempts performed.
  int quarantined = 0;  // Rows quarantined.
  SupervisorStats& operator+=(const SupervisorStats& other);
};

// One attempt as the supervision policy sees it. For plain seeded trials `report` is
// the attempt's TrialReport (synthesized when catastrophic); other callers fold the
// attempt into their own outcome type and fill only `report`'s postmortem fields,
// which the policy keeps as a quarantined row's explanation.
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

// Canned abortable OsRuntime trial: per call, builds a fresh AnomalyDetector and a
// trial-sized FlightRecorder, then an abortable OsRuntime with both attached; registers
// abort (detector SetAborting, then RequestAbort) and observe (one detector Poll, then
// the postmortem) through a TrialAbortScope; runs `body` (which returns the oracle
// verdict: empty = pass) and folds detector counts and a postmortem into the report.
SeededTrial MakeSupervisableOsTrial(
    std::function<std::string(OsRuntime&, std::uint64_t seed)> body);

// Runs `fn` once on the calling thread as one in-process attempt: a fresh slot is
// installed and reaped at options.trial_deadline (RunWithTrialDeadline), and an
// exception escaping `fn` becomes a crash record. A TrialAborted escaping a reaped
// attempt is its abort path, not a crash. Sets the result's reaped/crashed/crash and
// leaves `report` to the caller's fold; the reaper's pre-abort harvest lands in
// *harvest.
SupervisedTrialResult RunInProcessAttempt(const SupervisorOptions& options,
                                          const std::function<void()>& fn,
                                          TrialObservation* harvest);

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
};

// The verdict while the row is swept, shared by its sweep workers; `mu` guards it.
struct SupervisedRowState : SupervisionVerdict {
  std::mutex mu;
};

// The one retry/quarantine policy, for one seed of a row. Returns nullopt without
// calling `attempt` when the row is already quarantined. Otherwise calls `attempt` —
// which runs one attempt and folds it into the caller's outcome — until it returns a
// non-catastrophic result or options.max_attempts attempts ran, sleeping
// retry_backoff × 2^(k-1) before retry k, and returns the last attempt. Counts
// reaped/crashed/retried into row.stats; a seed whose every attempt was catastrophic
// leaves its crash record and postmortem on the row and quarantines the row once
// options.quarantine_after such seeds accumulated.
std::optional<SupervisedTrialResult> SuperviseSeed(
    SupervisedRowState& row, const SupervisorOptions& options,
    const std::function<SupervisedTrialResult()>& attempt);

// Full per-seed supervision of a plain seeded trial: each attempt runs in-process
// under the deadline (or, with options.sandbox, in a fork()ed child killed at the
// deadline), under the retry policy above. A reaped attempt's report carries the
// deadline message and, when the trial left none, the reaper's postmortem; a crashed
// one's carries "crashed: <what>". `stats` (nullable) accumulates reaped/crashed/
// retried.
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
// supervision, quarantining cells per `options.quarantine_after`; a quarantined cell's
// remaining seeds are not run. Each cell is one sweep engine run (parallel_sweep.h) at
// one job of a SuperviseSeed decorator around its trial, so cells run in input order
// and seeds in seed order (supervised cells are the risky minority — OsRuntime, chaos,
// soak — and their trials own real threads already; the deterministic bulk belongs in
// ParallelSweepSchedules).
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
