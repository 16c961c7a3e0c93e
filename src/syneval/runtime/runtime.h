// Runtime abstraction: threads, mutexes and condition variables behind one interface.
//
// Every synchronization mechanism in this library (semaphores, monitors, serializers,
// path-expression controllers) is written against `Runtime` rather than std::thread
// directly. That single seam gives us two execution modes:
//
//   * OsRuntime  — real preemptive threads (std::thread); used by the benchmarks to
//                  measure wall-clock cost.
//   * DetRuntime — a deterministic cooperative scheduler that runs exactly one logical
//                  thread at a time and chooses the next runnable thread via a pluggable,
//                  seed-replayable strategy; used by tests and the conformance engine to
//                  search interleavings and to reproduce the paper's behavioural claims
//                  (e.g. the Figure 1 readers-priority anomaly) on demand.
//
// Blocking primitives obtained from a runtime must only be used by threads belonging to
// that runtime (for DetRuntime: threads created through StartThread).

#ifndef SYNEVAL_RUNTIME_RUNTIME_H_
#define SYNEVAL_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace syneval {

class AnomalyDetector;
class FaultInjector;
class FlightRecorder;
class MetricsRegistry;
class TelemetryTracer;
struct MechanismStats;

// A mutual-exclusion lock. Non-recursive. Also satisfies BasicLockable (lowercase
// lock/unlock) so std::lock_guard / std::unique_lock work directly.
class RtMutex {
 public:
  virtual ~RtMutex() = default;

  virtual void Lock() = 0;
  virtual void Unlock() = 0;

  void lock() { Lock(); }      // NOLINT: BasicLockable spelling.
  void unlock() { Unlock(); }  // NOLINT: BasicLockable spelling.
};

// A condition variable bound to a Runtime (not to a particular mutex). Wait() must be
// called with `mutex` held by the calling thread; it atomically releases the mutex,
// blocks until notified, and re-acquires the mutex before returning. Spurious wakeups
// are permitted; callers must use the usual `while (!predicate) Wait(...)` pattern.
class RtCondVar {
 public:
  virtual ~RtCondVar() = default;

  virtual void Wait(RtMutex& mutex) = 0;

  // Deadline-aware Wait: blocks until notified or until `timeout_nanos` of runtime
  // time elapse (Runtime::NowNanos units — wall nanoseconds under OsRuntime; under
  // DetRuntime a virtual-step budget of timeout_nanos / 1000 scheduler steps, so timed
  // waits stay fully deterministic and replayable). Returns true when the return was
  // caused by a notification (or a permitted spurious wakeup), false when the deadline
  // expired first. Either way the mutex is held again on return; callers re-check
  // their predicate exactly as with Wait.
  virtual bool WaitFor(RtMutex& mutex, std::uint64_t timeout_nanos) = 0;

  virtual void NotifyOne() = 0;
  virtual void NotifyAll() = 0;
};

// A joinable thread handle. Join() must be called exactly once before destruction.
class RtThread {
 public:
  virtual ~RtThread() = default;

  virtual void Join() = 0;
  virtual std::uint32_t id() const = 0;
};

// Factory and thread-identity interface shared by both runtimes.
class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual std::unique_ptr<RtMutex> CreateMutex() = 0;
  virtual std::unique_ptr<RtCondVar> CreateCondVar() = 0;

  // Starts a logical thread running `body`. Under OsRuntime the thread starts
  // immediately; under DetRuntime it becomes runnable and executes only while
  // DetRuntime::Run() is driving the schedule.
  virtual std::unique_ptr<RtThread> StartThread(std::string name,
                                                std::function<void()> body) = 0;

  // Cooperative scheduling hint. A preemption point under DetRuntime; a no-op (or
  // std::this_thread::yield) under OsRuntime.
  virtual void Yield() = 0;

  // Logical id of the calling thread: ids assigned by StartThread for managed threads,
  // 0 for the driving/main thread.
  virtual std::uint32_t CurrentThreadId() = 0;

  // Monotonic time. OsRuntime: steady clock nanoseconds. DetRuntime: scheduler step
  // count (a logical clock), which makes time-based assertions replayable.
  virtual std::uint64_t NowNanos() = 0;

  virtual const char* name() const = 0;

  // True while the runtime is unwinding managed threads after an aborted run (see the
  // post-deadlock teardown in DetRuntime::Run). Mechanism release operations reached
  // from RAII destructors during that unwind must be no-ops: the thread may have
  // surrendered ownership inside the wait it was parked in when the abort hit, so the
  // usual "caller owns the resource" preconditions no longer hold. Only DetRuntime
  // ever unwinds a run; an OsRuntime trial that hangs is killed with the process that
  // runs it (the supervisor's fork sandbox), so OsRuntime keeps this default.
  virtual bool Aborting() const { return false; }

  // Lifetime contract of every Attach* below: the runtime keeps a raw pointer, so an
  // attachment must stay alive while the runtime can still call into it — through its
  // primitives, its threads, Run(), or the OsRuntime watchdog. Declaring attachments
  // before the runtime makes them outlive it. A DetRuntime whose managed threads have
  // all finished (Run() returned, after a deadlock teardown too) touches no attachment
  // again, its destructor included; one destroyed with threads still parked calls the
  // detector's SetAborting while it tears them down. ~OsRuntime stops the watchdog,
  // which polls the detector until then.

  // Attaches an anomaly detector (see syneval/anomaly/detector.h). Must be called
  // before any primitives, threads, or mechanisms are created from this runtime so
  // registrations are complete. Both runtimes and all mechanism frameworks consult this
  // and self-instrument.
  void AttachAnomalyDetector(AnomalyDetector* detector) { anomaly_detector_ = detector; }
  AnomalyDetector* anomaly_detector() const { return anomaly_detector_; }

  // Attaches a fault injector (see syneval/fault/injector.h); both runtimes then
  // consult it at every lock/wait/notify site and act on what it decides. Attach
  // before primitives are created and threads start. Defined in runtime.cc (binds the
  // injector to this runtime's telemetry attachments).
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Attaches a metrics registry (see syneval/telemetry/metrics.h). Like the anomaly
  // detector, it must be attached before mechanisms are constructed from this runtime
  // (mechanisms resolve their MechanismStats bundle once, at construction).
  void AttachMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

  // Attaches a tracer; the runtime's condition variables then record signal→wakeup
  // flow edges into it (see syneval/telemetry/tracer.h). Attach before threads start.
  void AttachTracer(TelemetryTracer* tracer) { tracer_ = tracer; }
  TelemetryTracer* tracer() const { return tracer_; }

  // Attaches the always-on flight recorder (telemetry/flight_recorder.h): both
  // runtimes then record compact sync events (block/wake/acquire/release/signal)
  // into its lock-free rings, and the fault injector mirrors fired faults. Unlike the
  // tracer, the recorder is cheap enough to stay attached during steady-state
  // measurement. Attach before primitives are created so their names register.
  void AttachFlightRecorder(FlightRecorder* recorder) { flight_recorder_ = recorder; }
  FlightRecorder* flight_recorder() const { return flight_recorder_; }

 private:
  AnomalyDetector* anomaly_detector_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  TelemetryTracer* tracer_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
};

// RAII lock holder for RtMutex (equivalent to std::lock_guard, kept for symmetry with
// the mechanism code which passes RtMutex by reference).
class RtLock {
 public:
  explicit RtLock(RtMutex& mutex) : mutex_(mutex) { mutex_.Lock(); }
  ~RtLock() { mutex_.Unlock(); }

  RtLock(const RtLock&) = delete;
  RtLock& operator=(const RtLock&) = delete;

 private:
  RtMutex& mutex_;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_RUNTIME_H_
