// OsRuntime: the Runtime implementation over real preemptive std::thread.
//
// Used by the benchmarks (wall-clock cost of each mechanism) and by stress tests.
// Mutexes wrap std::mutex. Each condition variable is a std::condition_variable
// behind a private gate mutex (WaitGate) plus one waiter count:
//
//   * Wait/WaitFor count the waiter and take the gate while still holding the user
//     mutex, release the user mutex through RtMutex::Unlock(), sleep on the gate, drop
//     it, and re-acquire the user mutex through RtMutex::Lock(). Every detector and
//     flight hook and every lock fault site therefore fires as for any acquisition.
//   * NotifyOne/NotifyAll skip the wake entirely when the count is zero (every
//     uncontended V or region exit). Otherwise they pass through the gate (lock,
//     unlock) and only then notify, so the woken thread never runs into a held lock.
//   * The count is decremented after the user mutex is re-held, on kill-fault unwinds
//     too, and is the waiter count the attachments see for each signal.
//
// The other added machinery is logical thread ids (which the trace layer uses to label
// events) and, when an AnomalyDetector is attached, blocking hooks on the primitives
// plus an optional sampling watchdog thread that periodically calls
// AnomalyDetector::Poll() to flag long-stuck waits in live runs.
//
// An OsRuntime trial cannot be unwound from outside: a blocked thread sits in the OS
// until it is woken. A genuinely deadlocked trial is ended by the supervisor's fork
// sandbox, which SIGKILLs the child process running it (runtime/supervisor.h), so
// Aborting() stays false here.

#ifndef SYNEVAL_RUNTIME_OS_RUNTIME_H_
#define SYNEVAL_RUNTIME_OS_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "syneval/runtime/runtime.h"

namespace syneval {

class OsRuntime : public Runtime {
 public:
  OsRuntime() = default;
  ~OsRuntime() override;

  std::unique_ptr<RtMutex> CreateMutex() override;
  std::unique_ptr<RtCondVar> CreateCondVar() override;
  std::unique_ptr<RtThread> StartThread(std::string name, std::function<void()> body) override;
  void Yield() override;
  std::uint32_t CurrentThreadId() override;
  std::uint64_t NowNanos() override;
  const char* name() const override { return "os"; }

  struct WatchdogOptions {
    // Base sampling period.
    std::chrono::milliseconds period{20};
    // Each cycle sleeps period × U[1 - f, 1 + f] (see JitterPeriod in deadline.h).
    // Without jitter a fixed-period watchdog can phase-lock with periodic behaviour it
    // is meant to observe — in particular the fault layer's fixed-length stalls — and
    // systematically sample the same phase of every stall window. 0 disables jitter.
    double jitter_fraction = 0.2;
    // Seeds the jitter RNG, so a sweep can decorrelate its watchdogs per trial.
    std::uint64_t jitter_seed = 0x5EEDD06;
    // Load-adaptive poll threshold: each cycle the detector's stuck-wait threshold is
    // scaled by the process-wide active-trial count (supervisor.h's ActiveTrials()
    // gauge). Under a fully-loaded parallel sweep every trial runs slower by roughly
    // the oversubscription factor, so a fixed threshold misreads ordinary scheduling
    // delay as starvation; scaling keeps the false-positive rate flat. The effective
    // threshold is exported as gauge "anomaly/effective_stuck_wait_ms".
    bool load_adaptive = true;
  };

  // Starts a background thread that calls anomaly_detector()->Poll(NowNanos()) every
  // (jittered) period. Requires an attached detector; no-op if already started. The
  // watchdog is a *sampler*: it can only flag waits older than the detector's
  // stuck_wait_nanos, so detection latency is period + threshold (unlike DetRuntime's
  // exact diagnosis). The period chosen for each cycle is exported through the metrics
  // registry as gauge "anomaly/watchdog_period_ms".
  void StartAnomalyWatchdog(WatchdogOptions options);
  void StartAnomalyWatchdog(std::chrono::milliseconds period) {
    WatchdogOptions options;
    options.period = period;
    StartAnomalyWatchdog(options);
  }

  // Stops and joins the watchdog thread (also called by the destructor).
  void StopAnomalyWatchdog();

 private:
  std::atomic<std::uint32_t> next_thread_id_{1};

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_OS_RUNTIME_H_
