#include "syneval/runtime/supervisor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/deadline.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/postmortem.h"

#if defined(__unix__) || defined(__APPLE__)
#define SYNEVAL_SANDBOX_AVAILABLE 1
#include <cerrno>
#include <csignal>
#include <new>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SYNEVAL_SANDBOX_AVAILABLE 0
#endif

namespace syneval {

namespace {

std::atomic<int> g_active_trials{0};

}  // namespace

int ActiveTrials() {
  const int active = g_active_trials.load(std::memory_order_relaxed);
  return active < 1 ? 1 : active;
}

ActiveTrialScope::ActiveTrialScope() {
  g_active_trials.fetch_add(1, std::memory_order_relaxed);
}

ActiveTrialScope::~ActiveTrialScope() {
  g_active_trials.fetch_sub(1, std::memory_order_relaxed);
}

SupervisorStats& SupervisorStats::operator+=(const SupervisorStats& other) {
  reaped += other.reaped;
  crashed += other.crashed;
  retried += other.retried;
  quarantined += other.quarantined;
  return *this;
}

// ---- The observe seam ---------------------------------------------------------------

TrialObservation ObservePostmortem(const FlightRecorder& flight,
                                   const AnomalyDetector& detector) {
  const Postmortem pm = BuildPostmortem(flight, &detector);
  TrialObservation obs;
  obs.cause = pm.cause;
  obs.text = pm.empty() ? std::string() : pm.ToText();
  return obs;
}

// Holds the observe callback the trial registered. The slot mutex is held across the
// callback, so the scope's destructor cannot pull the captures out from under an
// in-flight observe.
class TrialObserverSlot {
 public:
  // A live postmortem of the registered trial ("" fields when nothing is registered
  // or there is nothing to explain yet).
  TrialObservation Observe() {
    std::lock_guard<std::mutex> lock(mu_);
    return observe_ ? observe_() : TrialObservation{};
  }

  void Set(std::function<TrialObservation()> observe) {
    std::lock_guard<std::mutex> lock(mu_);
    observe_ = std::move(observe);
  }

 private:
  std::mutex mu_;
  std::function<TrialObservation()> observe_;
};

namespace {

// The slot of this process's trial: set only in a sandbox child, which runs one trial.
TrialObserverSlot* g_observer_slot = nullptr;

}  // namespace

TrialObserverScope::TrialObserverScope(std::function<TrialObservation()> observe)
    : slot_(g_observer_slot) {
  if (slot_ != nullptr) {
    slot_->Set(std::move(observe));
  }
}

TrialObserverScope::~TrialObserverScope() {
  if (slot_ != nullptr) {
    slot_->Set(nullptr);
  }
}

// ---- Canned OsRuntime trial ---------------------------------------------------------

SeededTrial MakeSupervisableOsTrial(
    std::function<std::string(OsRuntime&, std::uint64_t seed)> body) {
  return [body = std::move(body)](std::uint64_t seed) {
    // Observe()-time Poll threshold: the only Poll caller here is the sandbox child,
    // once, after the deadline, so a low threshold cannot produce steady-state false
    // positives — it just lets the postmortem name waits the deadline already proved
    // suspicious.
    AnomalyDetector::Options detector_options;
    detector_options.stuck_wait_nanos = 10'000'000;  // 10 ms
    // Attachments first, so they outlive the runtime (runtime.h).
    AnomalyDetector detector{detector_options};
    FlightRecorder flight{FlightRecorder::Options::ForTrial()};
    OsRuntime runtime;
    runtime.AttachAnomalyDetector(&detector);
    runtime.AttachFlightRecorder(&flight);
    TrialObserverScope observer_scope([&] {
      // One Poll classifies the currently-parked threads (the trial is presumed hung
      // when this runs), then the flight recorder narrates them.
      detector.Poll(static_cast<std::int64_t>(runtime.NowNanos()));
      return ObservePostmortem(flight, detector);
    });
    TrialReport report;
    report.message = body(runtime, seed);
    report.anomalies = detector.counts();
    report.anomaly_report = detector.Report();
    if (!report.message.empty() || !report.anomalies.Clean()) {
      const TrialObservation pm = ObservePostmortem(flight, detector);
      report.postmortem_cause = pm.cause;
      report.postmortem = pm.text;
    }
    report.flight_evicted = flight.evicted();
    return report;
  };
}

namespace {

// ---- fork() process sandbox ---------------------------------------------------------

#if SYNEVAL_SANDBOX_AVAILABLE

constexpr std::size_t kShmCauseCap = 64;
constexpr std::size_t kShmTextCap = 8192;
constexpr std::size_t kShmWhatCap = 256;
constexpr std::size_t kShmReportCap = 32768;

enum : std::uint32_t { kShmRunning = 0, kShmDone = 1, kShmCrashed = 2 };

// How long the parent waits, past the deadline, for the child to publish its live
// postmortem before it SIGKILLs it. One observe is a detector Poll and a postmortem
// build: microseconds to milliseconds, unless the child is wedged too hard to run it.
constexpr std::chrono::milliseconds kObserveGrace{1000};

// The child's one post-deadline postmortem, guarded by a seqlock (odd while the child
// is writing, 0 until it publishes). The parent takes it only when the sequence reads
// even, non-zero and stable, so a child SIGKILLed mid-write reads as "no postmortem".
struct ShmPostmortem {
  std::atomic<std::uint32_t> seq;
  char cause[kShmCauseCap];
  char text[kShmTextCap];
};

struct ShmBlock {
  std::atomic<std::uint32_t> state;  // kShmRunning / kShmDone / kShmCrashed.
  std::atomic<std::uint32_t> observed;  // 1 once the child's post-deadline observe ran.
  std::int32_t signal_number;
  char what[kShmWhatCap];
  std::uint32_t report_size;
  char report[kShmReportCap];  // EncodeTrialReport payload.
  ShmPostmortem postmortem;
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "sandbox shared-memory protocol needs lock-free atomics");

void ShmCopyString(char* dst, std::size_t cap, const std::string& src) {
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// Crash handlers cannot capture state; the child publishes its block here.
ShmBlock* g_sandbox_block = nullptr;

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal";
  }
}

extern "C" void SandboxCrashHandler(int sig) {
  ShmBlock* block = g_sandbox_block;
  if (block != nullptr) {
    block->signal_number = sig;
    // Async-signal-safe: fixed-size copy plus lock-free atomic store.
    char what[kShmWhatCap];
    std::snprintf(what, sizeof(what), "signal %d (%s)", sig, SignalName(sig));
    std::memcpy(block->what, what, sizeof(what));
    block->state.store(kShmCrashed, std::memory_order_release);
  }
  // Die of the signal itself rather than _exit: an exit with the observer thread
  // still alive would sleep a second under TSan before the parent saw the crash.
  signal(sig, SIG_DFL);
  raise(sig);
}

void SandboxPublishPostmortem(ShmBlock* block, const TrialObservation& observation) {
  if (observation.text.empty()) {
    return;
  }
  ShmPostmortem& pm = block->postmortem;
  pm.seq.store(1, std::memory_order_relaxed);  // Odd: write in progress.
  std::atomic_thread_fence(std::memory_order_release);
  ShmCopyString(pm.cause, kShmCauseCap, observation.cause);
  ShmCopyString(pm.text, kShmTextCap, observation.text);
  pm.seq.store(2, std::memory_order_release);
}

// The published postmortem ("" cause/text when none was published whole).
TrialObservation SandboxHarvestPostmortem(const ShmBlock* block) {
  const ShmPostmortem& pm = block->postmortem;
  const std::uint32_t before = pm.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1u) != 0) {
    return {};
  }
  TrialObservation observation;
  observation.cause = pm.cause;
  observation.text = pm.text;
  std::atomic_thread_fence(std::memory_order_acquire);
  if (pm.seq.load(std::memory_order_relaxed) != before) {
    return {};
  }
  return observation;
}

// Child-side body; never returns. Everything the trial does — constructor included —
// happens after the fork, so a crash anywhere is contained. `deadline` is the
// parent's (null when untimed): past it, an observer thread observes the trial once
// and publishes the postmortem. Observing earlier could change a healthy trial's
// verdict, since the observe's detector Poll counts what it finds into the trial's
// report; past the deadline the attempt is reaped, so no verdict is left to change.
[[noreturn]] void RunSandboxChild(ShmBlock* block, const SeededTrial& trial,
                                  std::uint64_t seed, const Deadline* deadline) {
  g_sandbox_block = block;
  // The crash handler re-raises its signal; an expected crash leaves no core file.
  const struct rlimit no_core {0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  struct sigaction action {};
  action.sa_handler = SandboxCrashHandler;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    sigaction(sig, &action, nullptr);
  }
  // std::terminate (uncaught exception in a trial thread, broken invariant) funnels
  // into SIGABRT via abort(), which the handler above converts; record the nicer
  // label first.
  std::set_terminate([] {
    if (g_sandbox_block != nullptr) {
      ShmCopyString(g_sandbox_block->what, kShmWhatCap, "std::terminate");
    }
    std::abort();
  });

  TrialReport report;
  {
    TrialObserverSlot slot;
    g_observer_slot = &slot;
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::thread observer;
    if (deadline != nullptr) {
      observer = std::thread([&] {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_until(lock, deadline->time_point(), [&] { return finished; })) {
          return;  // The trial finished inside its budget: nothing to observe.
        }
        lock.unlock();
        SandboxPublishPostmortem(block, slot.Observe());
        block->observed.store(1, std::memory_order_release);
      });
    }

    std::string crash;
    try {
      report = trial(seed);
    } catch (const std::exception& e) {
      crash = e.what();
    } catch (...) {
      crash = "unknown exception";
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_all();
    if (observer.joinable()) {
      observer.join();  // Before any exit: TSan's exit waits a second for live threads.
    }
    g_observer_slot = nullptr;
    if (!crash.empty()) {
      ShmCopyString(block->what, kShmWhatCap, crash);
      block->signal_number = 0;
      block->state.store(kShmCrashed, std::memory_order_release);
      _exit(125);
    }
  }

  // Ship the report; shed its biggest fields one by one if it cannot fit.
  std::string payload = EncodeTrialReport(report);
  if (payload.size() >= kShmReportCap) {
    report.postmortem.clear();
    payload = EncodeTrialReport(report);
  }
  if (payload.size() >= kShmReportCap) {
    report.anomaly_report.clear();
    payload = EncodeTrialReport(report);
  }
  if (payload.size() >= kShmReportCap) {
    TrialReport minimal;
    minimal.message = report.message.substr(0, 1024);
    minimal.anomalies = report.anomalies;
    payload = EncodeTrialReport(minimal);
  }
  std::memcpy(block->report, payload.data(), payload.size());
  block->report_size = static_cast<std::uint32_t>(payload.size());
  block->state.store(kShmDone, std::memory_order_release);
  _exit(0);
}

// Polls `child` every `poll` until it exits (true, its status in *status) or until
// `until` (when set) expires or `stop()` holds (false).
bool AwaitChild(pid_t child, int* status, const std::optional<Deadline>& until,
                const std::function<bool()>& stop, std::chrono::milliseconds poll) {
  for (;;) {
    if (waitpid(child, status, WNOHANG) == child) {
      return true;
    }
    if ((until && until->Expired()) || stop()) {
      return false;
    }
    std::this_thread::sleep_for(poll);
  }
}

// Runs one attempt in a fork()ed child. An attempt that cannot get its shared memory
// or its child is a crashed attempt. The harvested postmortem of a killed or crashed
// child lands in *harvest.
void RunSandboxedAttempt(const SeededTrial& trial, std::uint64_t seed,
                         const SupervisorOptions& options, SupervisedTrialResult* result,
                         TrialObservation* harvest) {
  void* mapping = mmap(nullptr, sizeof(ShmBlock), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    result->crashed = true;
    result->crash.what = std::string("sandbox: mmap failed: ") + std::strerror(errno);
    result->crash.crashed = true;
    return;
  }
  ShmBlock* block = new (mapping) ShmBlock();

  std::optional<Deadline> deadline;
  if (options.trial_deadline.count() > 0) {
    deadline = Deadline::After(options.trial_deadline);
  }
  const pid_t child = fork();
  if (child < 0) {
    result->crashed = true;
    result->crash.what = std::string("sandbox: fork failed: ") + std::strerror(errno);
    result->crash.crashed = true;
    munmap(mapping, sizeof(ShmBlock));
    return;
  }
  if (child == 0) {
    RunSandboxChild(block, trial, seed, deadline ? &*deadline : nullptr);  // _exits.
  }

  int status = 0;
  if (!AwaitChild(child, &status, deadline, [] { return false; }, options.sandbox_poll)) {
    // Deadline: the attempt is reaped. The child observes itself once it sees the
    // deadline pass; give it a bounded grace to publish that, then kill it.
    result->reaped = true;
    const bool exited = AwaitChild(
        child, &status, Deadline::After(kObserveGrace),
        [block] { return block->observed.load(std::memory_order_acquire) != 0; },
        options.sandbox_poll);
    if (!exited) {
      kill(child, SIGKILL);
      waitpid(child, &status, 0);
    }
    *harvest = SandboxHarvestPostmortem(block);
  } else {
    const std::uint32_t state = block->state.load(std::memory_order_acquire);
    if (state == kShmDone && block->report_size <= kShmReportCap) {
      if (!DecodeTrialReport(std::string(block->report, block->report_size),
                             &result->report)) {
        result->crashed = true;
        result->crash.what = "sandbox report unreadable";
      }
    } else {
      result->crashed = true;
      if (state == kShmCrashed) {
        result->crash.signal_number = block->signal_number;
        result->crash.what = block->what;
      } else if (WIFSIGNALED(status)) {
        result->crash.signal_number = WTERMSIG(status);
        result->crash.what = std::string("signal ") + std::to_string(WTERMSIG(status)) +
                             " (" + SignalName(WTERMSIG(status)) + ")";
      } else {
        result->crash.what = "exited with status " + std::to_string(WEXITSTATUS(status));
      }
      *harvest = SandboxHarvestPostmortem(block);
      result->crash.postmortem_cause = harvest->cause;
      result->crash.postmortem = harvest->text;
    }
  }
  result->crash.crashed = result->crashed;
  munmap(mapping, sizeof(ShmBlock));
}

#endif  // SYNEVAL_SANDBOX_AVAILABLE

// One attempt of a plain seeded trial — in the fork sandbox where there is one, else
// called in-process with exception capture and no deadline — folded into its report.
SupervisedTrialResult RunSeededAttempt(const SeededTrial& trial, std::uint64_t seed,
                                       const SupervisorOptions& options) {
  SupervisedTrialResult result;
  TrialObservation harvest;
#if SYNEVAL_SANDBOX_AVAILABLE
  RunSandboxedAttempt(trial, seed, options, &result, &harvest);
#else
  try {
    result.report = trial(seed);
  } catch (const std::exception& e) {
    result.crashed = true;
    result.crash.what = e.what();
  } catch (...) {
    result.crashed = true;
    result.crash.what = "unknown exception";
  }
  result.crash.crashed = result.crashed;
#endif
  if (result.reaped) {
    // Whatever the killed trial's oracle said about its half-executed workload is
    // not a verdict; the supervised outcome is "this seed's trial hung".
    result.report.message = "reaped: trial exceeded " +
                            std::to_string(options.trial_deadline.count()) + "ms deadline";
  } else if (result.crashed) {
    result.report.message = "crashed: " + result.crash.what;
  }
  if (result.Catastrophic() && result.report.postmortem.empty()) {
    result.report.postmortem_cause = harvest.cause;
    result.report.postmortem = harvest.text;
  }
  return result;
}

}  // namespace

void SupervisionVerdict::Fold(const SupervisedTrialResult& seed,
                              const SupervisorStats& attempts,
                              const SupervisorOptions& options) {
  stats += attempts;
  if (!seed.Catastrophic()) {
    return;
  }
  ++catastrophic_seeds;
  if (seed.crashed) {
    last_crash = seed.crash;
  }
  if (!seed.report.postmortem.empty()) {
    last_postmortem_cause = seed.report.postmortem_cause;
    last_postmortem = seed.report.postmortem;
  }
  if (!quarantined && catastrophic_seeds >= std::max(1, options.quarantine_after)) {
    quarantined = true;
    ++stats.quarantined;
    quarantine_reason = std::to_string(catastrophic_seeds) +
                        " catastrophic seed(s) (last: " + seed.report.message + ")";
  }
}

SupervisedTrialResult RunSupervisedSeed(const SeededTrial& trial, std::uint64_t seed,
                                        const SupervisorOptions& options,
                                        SupervisorStats* stats) {
  SupervisorStats counts;
  SupervisedTrialResult result;
  const int max_attempts = std::max(1, options.max_attempts);
  for (int n = 1; n <= max_attempts; ++n) {
    if (n > 1) {
      ++counts.retried;
      std::this_thread::sleep_for(options.retry_backoff * (1 << (n - 2)));
    }
    result = RunSeededAttempt(trial, seed, options);
    result.attempts = n;
    counts.reaped += result.reaped ? 1 : 0;
    counts.crashed += result.crashed ? 1 : 0;
    if (!result.Catastrophic()) {
      break;
    }
  }
  if (stats != nullptr) {
    *stats += counts;
  }
  return result;
}

SupervisedSweepReport SuperviseSweep(const std::vector<SupervisedCell>& cells,
                                     int num_seeds, std::uint64_t base_seed,
                                     const SupervisorOptions& options) {
  SupervisedSweepReport report;
  report.cells.reserve(cells.size());
  for (const SupervisedCell& cell : cells) {
    SupervisedCellResult cr;
    cr.id = cell.id;
    cr.base_seed = base_seed;
    // One engine sweep per cell, at one job: seeds run in order on this thread and
    // fold into the verdict as they finish, so once the cell is quarantined every
    // remaining seed yields "not run".
    const std::function<std::optional<TrialReport>(std::uint64_t)> supervised =
        [&](std::uint64_t seed) -> std::optional<TrialReport> {
      if (cr.quarantined) {
        return std::nullopt;
      }
      SupervisorStats attempts;
      SupervisedTrialResult result = RunSupervisedSeed(cell.trial, seed, options, &attempts);
      cr.Fold(result, attempts, options);
      return std::move(result.report);
    };
    SeedSweep<std::optional<TrialReport>> sweep =
        SweepSeeds(num_seeds, base_seed, ParallelOptions{}, supervised);
    for (std::optional<TrialReport>& report : sweep.results) {
      if (report) {
        cr.reports.push_back(std::move(*report));
      }
    }
    // The plain sweeps' fold, so a healthy cell's outcome is bit-identical to an
    // unsupervised sweep of it.
    for (std::size_t i = 0; i < cr.reports.size(); ++i) {
      sweep_internal::AccumulateTrial(cr.reports[i], base_seed + i, cr.outcome);
    }
    cr.completed_seeds = static_cast<int>(cr.reports.size());
    report.totals += cr.stats;
    report.cells.push_back(std::move(cr));
  }
  return report;
}

int SupervisedSweepReport::QuarantinedCells() const {
  int count = 0;
  for (const SupervisedCellResult& cell : cells) {
    count += cell.quarantined ? 1 : 0;
  }
  return count;
}

SweepOutcome SupervisedSweepReport::MergedHealthyOutcome() const {
  SweepOutcome merged;
  for (const SupervisedCellResult& cell : cells) {
    if (cell.quarantined) {
      continue;
    }
    for (std::size_t i = 0; i < cell.reports.size(); ++i) {
      sweep_internal::AccumulateTrial(cell.reports[i], cell.base_seed + i, merged);
    }
  }
  return merged;
}

std::string SupervisedSweepReport::QuarantineJson() const {
  std::vector<std::string> rendered;
  for (const SupervisedCellResult& cell : cells) {
    std::ostringstream out;
    out << "{\"id\": \"" << JsonEscape(cell.id) << "\", \"quarantined\": "
        << (cell.quarantined ? "true" : "false")
        << ", \"completed_seeds\": " << cell.completed_seeds
        << ", \"runs\": " << cell.outcome.runs
        << ", \"failures\": " << cell.outcome.failures
        << ", \"reaped\": " << cell.stats.reaped
        << ", \"crashed\": " << cell.stats.crashed
        << ", \"retried\": " << cell.stats.retried;
    if (cell.quarantined) {
      out << ", \"reason\": \"" << JsonEscape(cell.quarantine_reason) << "\"";
    }
    if (cell.last_crash.crashed) {
      out << ", \"crash\": {\"signal\": " << cell.last_crash.signal_number
          << ", \"what\": \"" << JsonEscape(cell.last_crash.what) << "\"}";
    }
    if (!cell.last_postmortem_cause.empty() || !cell.last_postmortem.empty()) {
      out << ", \"postmortem_cause\": \"" << JsonEscape(cell.last_postmortem_cause)
          << "\", \"postmortem\": \"" << JsonEscape(cell.last_postmortem) << "\"";
    }
    out << "}";
    rendered.push_back(out.str());
  }
  return QuarantineJsonDocument(QuarantinedCells(), totals, rendered);
}

bool SupervisedSweepReport::WriteQuarantineFile(const std::string& path) const {
  return WriteFileAtomically(path, QuarantineJson());
}

std::string QuarantineJsonDocument(int quarantined_cells, const SupervisorStats& totals,
                                   const std::vector<std::string>& cells) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"quarantined_cells\": " << quarantined_cells << ",\n";
  out << "  \"reaped\": " << totals.reaped << ",\n";
  out << "  \"crashed\": " << totals.crashed << ",\n";
  out << "  \"retried\": " << totals.retried << ",\n";
  out << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ") << cells[i];
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace syneval
