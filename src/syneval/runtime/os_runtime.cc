#include "syneval/runtime/os_runtime.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <random>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/fault.h"
#include "syneval/fault/injector.h"
#include "syneval/runtime/deadline.h"
#include "syneval/runtime/supervisor.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/telemetry/tracer.h"

namespace syneval {

namespace {

thread_local std::uint32_t g_os_thread_id = 0;
// Its address identifies the calling thread (ids are 0 for every unmanaged thread).
thread_local char g_os_thread_token = 0;

// Consults the runtime's fault injector (if any) at `site`. Returns the decision;
// throws out of the calling primitive when the decision is a kill. Under OsRuntime the
// `steps` stall/delay parameter is interpreted as microseconds of real sleep.
FaultDecision ConsultInjector(OsRuntime* rt, FaultSite site) {
  FaultInjector* injector = rt->fault_injector();
  if (injector == nullptr) {
    return FaultDecision{};
  }
  FaultDecision fault = injector->Decide(site, rt->CurrentThreadId(), rt->NowNanos());
  if (fault && fault.kind == FaultKind::kKillThread) {
    throw ThreadKilledFault{};
  }
  return fault;
}

void SleepSteps(std::uint64_t steps) { std::this_thread::sleep_for(std::chrono::microseconds(steps)); }

// When the sampling watchdog flags fresh anomalies and SYNEVAL_POSTMORTEM_DIR is set,
// drop a postmortem artifact while the hang is still live — the same JSON the bench
// reporter embeds, but captured at detection time instead of after the run unwinds.
// File names carry a process-wide counter so repeated detections never clobber.
void WriteWatchdogPostmortem(OsRuntime* rt, const AnomalyDetector* det) {
  const char* dir = std::getenv("SYNEVAL_POSTMORTEM_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  const FlightRecorder* flight = rt->flight_recorder();
  if (flight == nullptr) {
    return;
  }
  const Postmortem pm = BuildPostmortem(*flight, det);
  if (pm.empty()) {
    return;
  }
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t index = counter.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      std::string(dir) + "/watchdog_" + std::to_string(index) + ".json";
  std::ofstream out(path);
  if (out) {
    out << pm.ToJson() << "\n";
  }
}

// Timestamps for flight-recorder events. Postmortems order events by recording seq,
// not time, so the few-ms resolution of CLOCK_MONOTONIC_COARSE (~5ns per read vs ~26ns
// for the precise clock) loses nothing diagnostic while keeping always-on recording
// inside the perf-baseline envelope.
std::uint64_t FlightNowNanos([[maybe_unused]] OsRuntime* rt) {
#if defined(CLOCK_MONOTONIC_COARSE)
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC_COARSE, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return rt->NowNanos();
#endif
}

class OsMutex : public RtMutex {
 public:
  explicit OsMutex(OsRuntime* rt) : rt_(rt) {}

  void Lock() override {
    if (FaultDecision fault = ConsultInjector(rt_, FaultSite::kLockPre)) {
      if (fault.kind == FaultKind::kDelayLock) {
        SleepSteps(fault.steps);  // Postponed before ever contending.
      }
    }
    AnomalyDetector* det = rt_->anomaly_detector();
    FlightRecorder* flight = rt_->flight_recorder();
    if (det == nullptr && flight == nullptr) {
      LockBlocking();
    } else {
      const std::uint32_t tid = rt_->CurrentThreadId();
      bool contended = false;
      if (!mu_.try_lock()) {
        contended = true;
        if (det != nullptr) {
          det->OnBlock(tid, this);
        }
        if (flight != nullptr) {
          flight->Record(tid, FlightEventType::kBlock, this, FlightNowNanos(rt_));
        }
        LockBlocking();
        if (det != nullptr) {
          det->OnWake(tid, this);
        }
        if (flight != nullptr) {
          flight->Record(tid, FlightEventType::kWake, this, FlightNowNanos(rt_));
        }
      }
      if (det != nullptr) {
        det->OnAcquire(tid, this);
      }
      // Flight-only steady state records just the blocking path: an uncontended
      // acquire on a run with no detector can never become a wait-for edge in a
      // postmortem (only the detector's hang-time hold set is narrated), so skipping
      // it keeps measurement-mode recording within the perf-baseline envelope. With a
      // detector attached — any run that can actually request a postmortem — every
      // acquire is recorded so hold edges keep their "(acquired at seq …)" annotation.
      if (flight != nullptr && (contended || det != nullptr)) {
        flight->Record(tid, FlightEventType::kAcquire, this, FlightNowNanos(rt_));
      }
    }
    if (rt_->abortable()) {
      owner_.store(&g_os_thread_token, std::memory_order_relaxed);
    }
    try {
      if (FaultDecision fault = ConsultInjector(rt_, FaultSite::kLockPost)) {
        if (fault.kind == FaultKind::kStall) {
          SleepSteps(fault.steps);  // Holds the lock doing nothing; peers starve.
        }
      }
    } catch (const ThreadKilledFault&) {
      // A kill after acquisition: physically release the std::mutex so the process
      // stays sound (destroying or abandoning a locked std::mutex is undefined), but
      // skip OnRelease — to the detector and every observer the dead thread holds
      // this lock forever, which is the damage a mid-protocol death models.
      owner_.store(nullptr, std::memory_order_relaxed);
      mu_.unlock();
      throw;
    }
  }

  void Unlock() override {
    if (rt_->abortable()) {
      // An abort unwind can reach the guard of a mutex this thread does not hold: a
      // Wait whose re-acquisition gave up (LockBlocking) throws without it. Releasing
      // then would free a peer's hold, so only the owner releases.
      if (owner_.load(std::memory_order_relaxed) != &g_os_thread_token) {
        assert(rt_->Aborting() && "OsMutex::Unlock by a thread that does not hold it");
        return;
      }
      owner_.store(nullptr, std::memory_order_relaxed);
    }
    if (AnomalyDetector* det = rt_->anomaly_detector()) {
      det->OnRelease(rt_->CurrentThreadId(), this);
      // Releases matter only for runs that can build a postmortem (detector
      // attached); flight-only measurement runs skip them — see Lock().
      if (FlightRecorder* flight = rt_->flight_recorder()) {
        flight->Record(rt_->CurrentThreadId(), FlightEventType::kRelease, this,
                       FlightNowNanos(rt_));
      }
    }
    mu_.unlock();
  }

 private:
  // Blocking acquisition. In abortable mode a try_lock poll loop that throws
  // TrialAborted once RequestAbort() was called — without the lock held. A guard
  // being constructed then never releases what was never acquired, and a guard around
  // a Wait whose re-acquisition threw finds no ownership in Unlock(). The open OnBlock
  // the contended path may have recorded is moot: the supervisor puts the detector into
  // SetAborting() before requesting the abort, and OnThreadFinish discards the
  // thread's wait records when the unwound thread exits.
  void LockBlocking() {
    if (!rt_->abortable()) {
      mu_.lock();
      return;
    }
    while (!mu_.try_lock()) {
      if (rt_->Aborting()) {
        throw TrialAborted{};
      }
      std::this_thread::sleep_for(rt_->abort_poll());
    }
  }

  OsRuntime* rt_;
  std::mutex mu_;
  // Abortable mode only: the holder's g_os_thread_token (see Unlock).
  std::atomic<const char*> owner_{nullptr};
};

class OsCondVar : public RtCondVar {
 public:
  explicit OsCondVar(OsRuntime* rt) : rt_(rt) {
    if (rt_->abortable()) {
      rt_->RegisterAbortWaiter(&gate_);
    }
  }

  ~OsCondVar() override {
    if (rt_->abortable()) {
      rt_->UnregisterAbortWaiter(&gate_);
    }
  }

  void Wait(RtMutex& mutex) override { WaitImpl(mutex, /*timeout_nanos=*/0); }

  bool WaitFor(RtMutex& mutex, std::uint64_t timeout_nanos) override {
    return WaitImpl(mutex, timeout_nanos == 0 ? 1 : timeout_nanos);
  }

  void NotifyOne() override { Notify(FaultSite::kNotifyOne, /*broadcast=*/false); }

  void NotifyAll() override { Notify(FaultSite::kNotifyAll, /*broadcast=*/true); }

 private:
  void Notify(FaultSite site, bool broadcast) {
    if (FaultDecision fault = ConsultInjector(rt_, site)) {
      if (fault.kind == FaultKind::kDropSignal) {
        return;  // The notify vanishes below the mechanism; no waiter ever wakes.
      }
    }
    // No waiter counted: every uncontended V or region exit ends here, without the
    // gate or a futex call.
    if (Signal(broadcast) > 0) {
      gate_.Wake(broadcast);
    }
  }

  // Shared Wait/WaitFor body; timeout_nanos == 0 means untimed. Returns false iff the
  // deadline expired before a notification arrived.
  bool WaitImpl(RtMutex& mutex, std::uint64_t timeout_nanos) {
    if (FaultDecision fault = ConsultInjector(rt_, FaultSite::kWait)) {
      if (fault.kind == FaultKind::kSpuriousWakeup) {
        // Return immediately with the mutex still held: a wakeup no signal caused.
        // Legal per the RtCondVar contract (callers re-check their predicate), and
        // reported as "notified" exactly as a real spurious wakeup would be.
        return true;
      }
    }
    AnomalyDetector* det = rt_->anomaly_detector();
    TelemetryTracer* tracer = rt_->tracer();
    FlightRecorder* flight = rt_->flight_recorder();
    if (det == nullptr && tracer == nullptr && flight == nullptr) {
      return WaitBlocking(mutex, timeout_nanos);
    }
    const std::uint32_t tid = rt_->CurrentThreadId();
    if (det != nullptr) {
      det->OnBlock(tid, this);
    }
    if (flight != nullptr) {
      flight->Record(tid, FlightEventType::kBlock, this, FlightNowNanos(rt_));
    }
    // A TrialAborted out of WaitBlocking needs no cleanup here: the detector is in
    // SetAborting() by then, so the missing OnWake is moot (OnThreadFinish discards
    // the record).
    const bool notified = WaitBlocking(mutex, timeout_nanos);
    if (det != nullptr) {
      det->OnWake(tid, this);
    }
    if (flight != nullptr) {
      // arg = 1 when a notification (or spurious wakeup) caused the return, 0 when the
      // deadline fired — the discriminator the postmortem uses for stuck-waiter stories.
      flight->Record(tid, FlightEventType::kWake, this, FlightNowNanos(rt_),
                     notified ? 1 : 0);
    }
    if (notified && tracer != nullptr) {
      // Timeout wakes draw no flow edge: no signal caused them.
      tracer->OnWake(this, tid, rt_->NowNanos());
    }
    return notified;
  }

  // The gate protocol, shared by the fast and instrumented paths of WaitImpl;
  // timeout_nanos == 0 means untimed. Returns false iff the deadline expired first.
  //
  // The waiter counts itself and takes the gate while still holding the user mutex,
  // then releases the user mutex through RtMutex::Unlock() and sleeps on the gate.
  // A notifier that saw the state change this waiter is about to sleep on took the
  // user mutex after that release, so it sees the count and, passing through the gate
  // before it notifies, cannot notify before the waiter is asleep. On return the gate
  // is dropped first and the user mutex re-acquired through RtMutex::Lock(), so every
  // lock hook and fault site fires exactly as for any other acquisition.
  //
  // Abortable mode needs no poll slices here: RequestAbort() sets the flag and then
  // passes every registered gate before its notify_all, so a waiter that found the
  // flag clear under the gate is asleep before that wake. It then throws TrialAborted
  // with the user mutex re-held, or from RtMutex::Lock() without it when a peer holds
  // the mutex (the caller's guard then releases nothing; see OsMutex::Unlock).
  bool WaitBlocking(RtMutex& mutex, std::uint64_t timeout_nanos) {
    bool notified = true;
    waiters_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> gate(gate_.mu);
      mutex.Unlock();
      if (!(rt_->abortable() && rt_->Aborting())) {
        if (timeout_nanos == 0) {
          gate_.cv.wait(gate);
        } else {
          // One absolute deadline: a spurious wakeup returns rather than re-arms.
          const Deadline deadline = Deadline::AfterNanos(timeout_nanos);
          notified = gate_.cv.wait_until(gate, deadline.time_point()) ==
                     std::cv_status::no_timeout;
        }
      }
    }
    try {
      mutex.Lock();
    } catch (...) {
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    if (rt_->abortable() && rt_->Aborting()) {
      throw TrialAborted{};
    }
    return notified;
  }

  // Reports the notification to the attachments; returns the waiter count it saw.
  int Signal(bool broadcast) {
    const int waiting = waiters_.load(std::memory_order_relaxed);
    AnomalyDetector* det = rt_->anomaly_detector();
    if (det != nullptr) {
      det->OnSignal(rt_->CurrentThreadId(), this, waiting, broadcast);
    }
    if (TelemetryTracer* tracer = rt_->tracer()) {
      tracer->OnSignal(this, rt_->CurrentThreadId(), rt_->NowNanos(), broadcast);
    }
    if (FlightRecorder* flight = rt_->flight_recorder()) {
      // arg = waiters at delivery; a signal with arg 0 hit an empty queue. Empty-queue
      // signals only matter to the lost-wakeup narrative, which only a detector-armed
      // run can ever build — flight-only measurement runs record just the signals
      // that wake someone, mirroring the blocking-path policy in OsMutex::Lock.
      if (det != nullptr || waiting > 0) {
        flight->Record(
            rt_->CurrentThreadId(),
            broadcast ? FlightEventType::kBroadcast : FlightEventType::kSignal, this,
            FlightNowNanos(rt_), static_cast<std::uint64_t>(waiting));
      }
    }
    return waiting;
  }

  OsRuntime* rt_;
  OsRuntime::WaitGate gate_;
  // Threads between counting themselves in WaitBlocking (under the user mutex, before
  // releasing it) and re-acquiring the user mutex after the wait. Exact for a notifier
  // that holds the user mutex or changed the waited-on state under it, which is what
  // makes the zero fast path in Notify safe.
  std::atomic<int> waiters_{0};
};

class OsThread : public RtThread {
 public:
  OsThread(std::uint32_t id, std::function<void()> body) : id_(id) {
    thread_ = std::thread([id, body = std::move(body)]() {
      g_os_thread_id = id;
      body();
    });
  }

  ~OsThread() override {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void Join() override {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::uint32_t id() const override { return id_; }

 private:
  std::uint32_t id_;
  std::thread thread_;
};

}  // namespace

OsRuntime::~OsRuntime() { StopAnomalyWatchdog(); }

void OsRuntime::RequestAbort() {
  aborting_.store(true, std::memory_order_release);
  // Wake every sleeping condvar waiter through its gate, so one that checked the flag
  // before the store is asleep by the time the notify lands. Holding abort_mu_ across
  // the wakes keeps the registered gates alive (unregistration blocks on it).
  std::lock_guard<std::mutex> lock(abort_mu_);
  for (WaitGate* gate : abort_waiters_) {
    gate->Wake(/*all=*/true);
  }
}

void OsRuntime::RegisterAbortWaiter(WaitGate* gate) {
  std::lock_guard<std::mutex> lock(abort_mu_);
  abort_waiters_.insert(gate);
}

void OsRuntime::UnregisterAbortWaiter(WaitGate* gate) {
  std::lock_guard<std::mutex> lock(abort_mu_);
  abort_waiters_.erase(gate);
}

std::unique_ptr<RtMutex> OsRuntime::CreateMutex() {
  auto mutex = std::make_unique<OsMutex>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(mutex.get(), ResourceKind::kLock, "mutex");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(mutex.get(), "mutex");
  }
  return mutex;
}

std::unique_ptr<RtCondVar> OsRuntime::CreateCondVar() {
  auto cv = std::make_unique<OsCondVar>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(cv.get(), ResourceKind::kCondition, "condvar");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(cv.get(), "condvar");
  }
  return cv;
}

std::unique_ptr<RtThread> OsRuntime::StartThread(std::string name, std::function<void()> body) {
  const std::uint32_t id = next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  AnomalyDetector* det = anomaly_detector();
  if (det != nullptr) {
    det->RegisterThread(id, name);
  }
  body = [det, id, body = std::move(body)]() {
    try {
      body();
    } catch (const ThreadKilledFault&) {
      // Killed by an injected kill-thread fault: the thread ends mid-protocol. RAII
      // guards between the injection site and here have already unwound; whatever had
      // no guard stays exactly as the kill left it.
    } catch (const TrialAborted&) {
      // Force-unwound by a supervisor reaper (RequestAbort). Mechanism releases
      // reached from RAII guards during this unwind no-op behind Aborting(), exactly
      // as in DetRuntime's post-deadlock teardown.
    }
    if (det != nullptr) {
      det->OnThreadFinish(id);
    }
  };
  return std::make_unique<OsThread>(id, std::move(body));
}

void OsRuntime::Yield() { std::this_thread::yield(); }

std::uint32_t OsRuntime::CurrentThreadId() { return g_os_thread_id; }

std::uint64_t OsRuntime::NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void OsRuntime::StartAnomalyWatchdog(WatchdogOptions options) {
  AnomalyDetector* det = anomaly_detector();
  if (det == nullptr || watchdog_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = false;
  }
  watchdog_ = std::thread([this, det, options] {
    std::mt19937_64 jitter_rng(options.jitter_seed);
    const auto base_period = std::chrono::duration_cast<std::chrono::nanoseconds>(options.period);
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    while (!watchdog_stop_) {
      // Re-jitter the period every cycle so wakeups cannot phase-lock with any
      // periodic behaviour under observation (injected fixed-length stalls above all).
      const std::chrono::nanoseconds period =
          JitterPeriod(base_period, options.jitter_fraction, jitter_rng);
#if SYNEVAL_TELEMETRY_ENABLED
      if (MetricsRegistry* metrics = this->metrics()) {
        metrics->GetGauge("anomaly/watchdog_period_ms")
            .Set(std::chrono::duration_cast<std::chrono::milliseconds>(period).count());
      }
#endif
      // One absolute deadline per cycle: stray notifies cannot stretch the sleep.
      const Deadline deadline = Deadline::After(period);
      watchdog_cv_.wait_until(lock, deadline.time_point(), [this] { return watchdog_stop_; });
      if (watchdog_stop_) {
        return;
      }
      lock.unlock();
      // Load-adaptive threshold: under a saturated parallel sweep every trial runs
      // slower by roughly the oversubscription factor, so waits that merely queue for
      // CPU would age past a fixed threshold and read as starvation. Rescale from the
      // process-wide active-trial gauge each cycle, before sampling.
      if (options.load_adaptive) {
        det->SetPollThresholdScale(ActiveTrials());
      }
      const std::int64_t now = static_cast<std::int64_t>(NowNanos());
      const int flagged = det->Poll(now);
      if (flagged > 0) {
        WriteWatchdogPostmortem(this, det);
      }
#if SYNEVAL_TELEMETRY_ENABLED
      // Watchdog findings are visible continuously through the registry, not only in
      // anomaly reports: current blocked-thread count, the oldest wait's age, and the
      // running total of detections.
      if (MetricsRegistry* metrics = this->metrics()) {
        const AnomalyDetector::WaitSnapshot snap = det->SnapshotWaits(now);
        metrics->GetGauge("anomaly/blocked_threads").Set(snap.blocked_threads);
        metrics->GetGauge("anomaly/longest_wait_ns").Set(snap.longest_wait_nanos);
        metrics->GetGauge("anomaly/detections_total").Set(det->counts().total());
        // The threshold Poll() actually applied this cycle (base × active trials).
        metrics->GetGauge("anomaly/effective_stuck_wait_ms")
            .Set(det->effective_stuck_wait_nanos() / 1'000'000);
        if (const FlightRecorder* flight = this->flight_recorder()) {
          // Ring evictions to date: non-zero means postmortem windows are truncated.
          metrics->GetGauge("telemetry/flight_evicted")
              .Set(static_cast<std::int64_t>(flight->evicted()));
        }
      }
#endif
      lock.lock();
    }
  });
}

void OsRuntime::StopAnomalyWatchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
}

}  // namespace syneval
