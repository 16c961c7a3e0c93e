#include "syneval/runtime/det_runtime.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <sstream>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/fault.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/tracer.h"

namespace syneval {

namespace {

// Logical thread states. Kept as plain ints in the header to keep Tcb opaque.
enum TcbState : int {
  kReady = 0,
  kRunning = 1,
  kBlockedMutex = 2,
  kBlockedCond = 3,
  kBlockedJoin = 4,
  kFinished = 5,
};

const char* StateName(int state) {
  switch (state) {
    case kReady:
      return "ready";
    case kRunning:
      return "running";
    case kBlockedMutex:
      return "blocked-on-mutex";
    case kBlockedCond:
      return "blocked-on-condvar";
    case kBlockedJoin:
      return "blocked-on-join";
    case kFinished:
      return "finished";
  }
  return "?";
}

// Identity of the managed thread currently executing on this OS thread (type-erased; the
// Tcb type is private to DetRuntime).
thread_local void* g_current_det_tcb = nullptr;

}  // namespace

struct DetRuntime::Tcb {
  std::uint32_t id = 0;
  std::string name;
  int state = kReady;
  bool token = false;  // Permission to run, granted by the driver.
  std::uint64_t ready_since = 0;
  // Timed condition waits (WaitFor): absolute step at which the driver force-wakes the
  // thread (0 = untimed), and whether the last wake was that deadline rather than a
  // notification. Owned by the waiting thread; the driver only reads wake_deadline and
  // sets timed_out while the thread is parked in kBlockedCond.
  std::uint64_t wake_deadline = 0;
  bool timed_out = false;
  const void* wait_object = nullptr;
  std::string wait_desc;
  std::vector<Tcb*> joiners;
  std::function<void()> body;
  std::thread os_thread;
};

// ---------------------------------------------------------------------------------------
// Primitives. All fields are manipulated under DetRuntime::mu_; since at most one managed
// thread runs at a time, there is no data-level concurrency beyond that lock.

class DetRuntime::DetMutex : public RtMutex {
 public:
  explicit DetMutex(DetRuntime* rt) : rt_(rt) {}

  // Sentinel owner for acquisitions from the unmanaged driver thread while the
  // scheduler is idle (introspection before/after Run()): there is no concurrency
  // then, so acquisition is immediate.
  static Tcb* ExternalOwner() { return reinterpret_cast<Tcb*>(-1); }

  void Lock() override {
    if (g_current_det_tcb == nullptr) {
      // Unmanaged caller (e.g. a test inspecting state after Run()): legal only while
      // the scheduler is idle, where the lock is guaranteed free.
      std::unique_lock<std::mutex> lock(rt_->mu_);
      assert(!rt_->running_ && "DetMutex::Lock from an unmanaged thread during Run()");
      assert(holder_ == nullptr && "DetMutex::Lock: lock leaked by a managed thread");
      holder_ = ExternalOwner();
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    std::unique_lock<std::mutex> lock(rt_->mu_);
    if (rt_->abort_) {
      return;  // Teardown mode: never block, never mutate logical state.
    }
    if (rt_->options_.preempt_before_lock) {
      rt_->SwitchOutLocked(lock, self, kReady, nullptr, "preempt before lock");
    }
    if (FaultDecision fault = rt_->FaultDecisionLocked(self, FaultSite::kLockPre)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Before contending: the thread dies holding nothing extra.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kDelayLock) {
        for (std::uint64_t i = 0; i < fault.steps && !rt_->abort_; ++i) {
          rt_->SwitchOutLocked(lock, self, kReady, nullptr, "fault: delay-lock");
        }
      }
    }
    AnomalyDetector* det = rt_->anomaly_detector();
    FlightRecorder* flight = rt_->flight_recorder();
    while (holder_ != nullptr) {
      waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, this);
      }
      if (flight != nullptr) {
        // mu_ is held at every site in this file: read step_ directly (NowNanos()
        // would self-deadlock), matching the tracer convention below.
        flight->Record(self->id, FlightEventType::kBlock, this, rt_->step_ * 1000);
      }
      rt_->SwitchOutLocked(lock, self, kBlockedMutex, this,
                           "mutex (held by " + holder_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, this);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kWake, this, rt_->step_ * 1000);
      }
    }
    holder_ = self;
    if (det != nullptr) {
      det->OnAcquire(self->id, this);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kAcquire, this, rt_->step_ * 1000);
    }
    if (FaultDecision fault = rt_->FaultDecisionLocked(self, FaultSite::kLockPost)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Mid-protocol death: the thread dies owning this mutex. Lock() throws before
        // any RAII holder is constructed, so nothing ever unlocks it — peers block on
        // a lock whose owner is finished, which is exactly the damage being modelled.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kStall) {
        // Hold the lock for `steps` scheduler steps doing nothing. The staller stays
        // runnable (no deadlock), but every peer needing this lock starves meanwhile.
        for (std::uint64_t i = 0; i < fault.steps && !rt_->abort_; ++i) {
          rt_->SwitchOutLocked(lock, self, kReady, nullptr, "fault: stall in critical section");
        }
      }
    }
  }

  void Unlock() override {
    if (g_current_det_tcb == nullptr) {
      std::unique_lock<std::mutex> lock(rt_->mu_);
      assert(holder_ == ExternalOwner() && "DetMutex::Unlock from an unexpected thread");
      holder_ = nullptr;
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    std::unique_lock<std::mutex> lock(rt_->mu_);
    if (rt_->abort_) {
      return;
    }
    assert(holder_ == self && "DetMutex::Unlock by non-owner");
    holder_ = nullptr;
    if (AnomalyDetector* det = rt_->anomaly_detector()) {
      det->OnRelease(self->id, this);
    }
    if (FlightRecorder* flight = rt_->flight_recorder()) {
      flight->Record(self->id, FlightEventType::kRelease, this, rt_->step_ * 1000);
    }
    for (Tcb* waiter : waiters_) {
      rt_->MakeReadyLocked(waiter);
    }
    waiters_.clear();
  }

  DetRuntime* rt_;
  Tcb* holder_ = nullptr;
  std::vector<Tcb*> waiters_;
};

class DetRuntime::DetCondVar : public RtCondVar {
 public:
  explicit DetCondVar(DetRuntime* rt) : rt_(rt) {}

  void Wait(RtMutex& mutex) override { WaitCommon(mutex, /*timeout_nanos=*/0); }

  bool WaitFor(RtMutex& mutex, std::uint64_t timeout_nanos) override {
    return WaitCommon(mutex, timeout_nanos == 0 ? 1 : timeout_nanos);
  }

  void NotifyOne() override { Notify(/*all=*/false); }
  void NotifyAll() override { Notify(/*all=*/true); }

 private:
  // Shared Wait/WaitFor body. timeout_nanos == 0 means untimed; otherwise the wait is
  // bounded by a virtual-step budget of ceil(timeout_nanos / 1000) scheduler steps
  // (DetRuntime's NowNanos is step_ * 1000). Returns false iff the deadline fired.
  bool WaitCommon(RtMutex& mutex, std::uint64_t timeout_nanos) {
    Tcb* self = rt_->CurrentTcbChecked();
    auto* m = static_cast<DetMutex*>(&mutex);
    std::unique_lock<std::mutex> lock(rt_->mu_);
    if (rt_->abort_) {
      return true;
    }
    assert(m->holder_ == self && "RtCondVar::Wait without holding the mutex");
    AnomalyDetector* det = rt_->anomaly_detector();
    FlightRecorder* flight = rt_->flight_recorder();
    bool spurious = false;
    if (FaultDecision fault = rt_->FaultDecisionLocked(self, FaultSite::kWait)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Thrown before the mutex is surrendered: the thread dies owning it.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kSpuriousWakeup) {
        spurious = true;
      }
    }
    // Atomically release the mutex and join the wait set.
    m->holder_ = nullptr;
    if (det != nullptr) {
      det->OnRelease(self->id, m);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kRelease, m, rt_->step_ * 1000);
    }
    for (Tcb* waiter : m->waiters_) {
      rt_->MakeReadyLocked(waiter);
    }
    m->waiters_.clear();
    bool notified = true;
    if (spurious) {
      // Spurious-wakeup fault: park for one scheduling step and resume without ever
      // joining the wait set — no signal exists and none is consumed, which is what
      // makes the wakeup spurious to detector and telemetry alike.
      rt_->SwitchOutLocked(lock, self, kReady, nullptr, "fault: spurious wakeup");
    } else {
      waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, this);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kBlock, this, rt_->step_ * 1000);
      }
      if (timeout_nanos > 0) {
        const std::uint64_t budget = (timeout_nanos + 999) / 1000;
        self->wake_deadline = rt_->step_ + (budget == 0 ? 1 : budget);
        self->timed_out = false;
      }
      rt_->SwitchOutLocked(lock, self, kBlockedCond, this,
                           timeout_nanos > 0 ? "condvar (timed)" : "condvar");
      if (timeout_nanos > 0) {
        notified = !self->timed_out;
        self->wake_deadline = 0;
        self->timed_out = false;
        if (!notified) {
          // Deadline wake: leave the wait set ourselves (a notification that raced in
          // between the deadline and this cleanup may already have removed us).
          auto it = std::find(waiters_.begin(), waiters_.end(), self);
          if (it != waiters_.end()) {
            waiters_.erase(it);
          }
        }
      }
      if (det != nullptr) {
        det->OnWake(self->id, this);
      }
      if (flight != nullptr) {
        // arg = 1 when the wake was a notification, 0 when the deadline fired.
        flight->Record(self->id, FlightEventType::kWake, this, rt_->step_ * 1000,
                       notified ? 1 : 0);
      }
      if (notified) {
        if (TelemetryTracer* tracer = rt_->tracer()) {
          // rt_->mu_ is held here, so read step_ directly (NowNanos() would
          // self-deadlock). Timeout wakes draw no flow edge: no signal caused them.
          tracer->OnWake(this, self->id, rt_->step_ * 1000);
        }
      }
    }
    // Re-acquire the mutex before returning (possibly blocking again).
    while (m->holder_ != nullptr) {
      m->waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, m);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kBlock, m, rt_->step_ * 1000);
      }
      rt_->SwitchOutLocked(lock, self, kBlockedMutex, m,
                           "mutex reacquire (held by " + m->holder_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, m);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kWake, m, rt_->step_ * 1000);
      }
    }
    m->holder_ = self;
    if (det != nullptr) {
      det->OnAcquire(self->id, m);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kAcquire, m, rt_->step_ * 1000);
    }
    return notified;
  }

  void Notify(bool all) {
    if (g_current_det_tcb == nullptr) {
      // Unmanaged caller while the scheduler is idle: just mark waiters runnable.
      std::unique_lock<std::mutex> lock(rt_->mu_);
      assert(!rt_->running_ && "RtCondVar notify from an unmanaged thread during Run()");
      for (Tcb* waiter : waiters_) {
        rt_->MakeReadyLocked(waiter);
      }
      waiters_.clear();
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    std::unique_lock<std::mutex> lock(rt_->mu_);
    if (rt_->abort_) {
      return;
    }
    if (FaultDecision fault = rt_->FaultDecisionLocked(
            self, all ? FaultSite::kNotifyAll : FaultSite::kNotifyOne)) {
      if (fault.kind == FaultKind::kKillThread) {
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kDropSignal) {
        // The notify vanishes below the mechanism: no waiter wakes and neither the
        // detector's signal accounting nor the tracer's flow edge ever sees it — a
        // ground-truth lost signal the detector must infer from its consequences.
        return;
      }
    }
    if (AnomalyDetector* det = rt_->anomaly_detector()) {
      det->OnSignal(self->id, this, static_cast<int>(waiters_.size()), all);
    }
    if (TelemetryTracer* tracer = rt_->tracer()) {
      // rt_->mu_ is held here, so read step_ directly (NowNanos() would self-deadlock).
      tracer->OnSignal(this, self->id, rt_->step_ * 1000, all);
    }
    if (FlightRecorder* flight = rt_->flight_recorder()) {
      // arg = waiters before delivery: a signal with arg 0 fell on an empty queue —
      // the seed of every lost wakeup the postmortem explains.
      flight->Record(self->id,
                     all ? FlightEventType::kBroadcast : FlightEventType::kSignal, this,
                     rt_->step_ * 1000, waiters_.size());
    }
    if (all) {
      for (Tcb* waiter : waiters_) {
        rt_->MakeReadyLocked(waiter);
      }
      waiters_.clear();
    } else {
      // Deliver to the first waiter still blocked. Entries that already timed out (the
      // driver made them ready but they have not yet run and removed themselves) no
      // longer count as waiters; dropping them here mirrors their own cleanup.
      while (!waiters_.empty()) {
        Tcb* waiter = waiters_.front();
        waiters_.pop_front();
        if (waiter->state == kBlockedCond) {
          rt_->MakeReadyLocked(waiter);
          break;
        }
      }
    }
    if (rt_->options_.preempt_after_notify) {
      rt_->SwitchOutLocked(lock, self, kReady, nullptr, "preempt after notify");
    }
  }

  DetRuntime* rt_;
  std::deque<Tcb*> waiters_;
};

class DetRuntime::DetThread : public RtThread {
 public:
  DetThread(DetRuntime* rt, Tcb* tcb) : rt_(rt), tcb_(tcb) {}

  void Join() override {
    void* raw = g_current_det_tcb;
    if (raw != nullptr) {
      // Join from a managed thread: block until the target finishes.
      Tcb* self = static_cast<Tcb*>(raw);
      std::unique_lock<std::mutex> lock(rt_->mu_);
      if (rt_->abort_ || tcb_->state == kFinished) {
        return;
      }
      tcb_->joiners.push_back(self);
      AnomalyDetector* det = rt_->anomaly_detector();
      if (det != nullptr) {
        det->OnBlock(self->id, tcb_);
      }
      rt_->SwitchOutLocked(lock, self, kBlockedJoin, tcb_, "join(" + tcb_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, tcb_);
      }
    } else {
      // Join from the unmanaged driver thread: only meaningful after Run() returned, at
      // which point every managed thread has finished.
      std::unique_lock<std::mutex> lock(rt_->mu_);
      assert(!rt_->running_ && "DetThread::Join from the driver while Run() is active");
      assert((tcb_->state == kFinished || !rt_->ran_) &&
             "DetThread::Join from the driver before Run()");
    }
  }

  std::uint32_t id() const override { return tcb_->id; }

 private:
  DetRuntime* rt_;
  Tcb* tcb_;
};

// ---------------------------------------------------------------------------------------

DetRuntime::DetRuntime(std::unique_ptr<Schedule> schedule)
    : DetRuntime(std::move(schedule), Options()) {}

DetRuntime::DetRuntime(std::unique_ptr<Schedule> schedule, Options options)
    : schedule_(std::move(schedule)), options_(options) {}

DetRuntime::~DetRuntime() {
  // Threads still parked (Run() never called) are torn down here. When every managed
  // thread already finished, the runtime touches no attachment: a detector or recorder
  // may legitimately die before the runtime once Run() has returned (runtime.h).
  std::unique_lock<std::mutex> lock(mu_);
  const auto all_finished = [&] {
    for (auto& tcb : threads_) {
      if (tcb->state != kFinished) {
        return false;
      }
    }
    return true;
  };
  if (!all_finished()) {
    if (AnomalyDetector* det = anomaly_detector()) {
      det->SetAborting(true);
    }
    abort_ = true;
    for (auto& tcb : threads_) {
      if (tcb->state != kFinished) {
        tcb->token = true;
      }
    }
    cv_.notify_all();
    cv_.wait(lock, all_finished);
  }
  lock.unlock();
  for (auto& tcb : threads_) {
    if (tcb->os_thread.joinable()) {
      tcb->os_thread.join();
    }
  }
}

std::unique_ptr<RtMutex> DetRuntime::CreateMutex() {
  auto mutex = std::make_unique<DetMutex>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(mutex.get(), ResourceKind::kLock, "mutex");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(mutex.get(), "mutex");
  }
  return mutex;
}

std::unique_ptr<RtCondVar> DetRuntime::CreateCondVar() {
  auto cv = std::make_unique<DetCondVar>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(cv.get(), ResourceKind::kCondition, "condvar");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(cv.get(), "condvar");
  }
  return cv;
}

std::unique_ptr<RtThread> DetRuntime::StartThread(std::string name,
                                                  std::function<void()> body) {
  std::unique_lock<std::mutex> lock(mu_);
  auto tcb = std::make_unique<Tcb>();
  Tcb* raw = tcb.get();
  raw->id = static_cast<std::uint32_t>(threads_.size()) + 1;
  raw->name = std::move(name);
  raw->body = std::move(body);
  raw->ready_since = step_;
  if (abort_) {
    raw->state = kFinished;  // Too late to run anything.
  } else {
    raw->state = kReady;
    if (AnomalyDetector* det = anomaly_detector()) {
      // A thread is modelled as a lock held by itself for its lifetime, so Join()
      // participates in the wait-for graph like any other acquisition.
      det->RegisterThread(raw->id, raw->name);
      det->RegisterResource(raw, ResourceKind::kLock, "thread:" + raw->name);
      det->OnAcquire(raw->id, raw);
    }
    raw->os_thread = std::thread([this, raw] {
      g_current_det_tcb = raw;
      bool run_body = false;
      {
        std::unique_lock<std::mutex> thread_lock(mu_);
        cv_.wait(thread_lock, [&] { return raw->token; });
        run_body = !abort_;
      }
      if (run_body) {
        try {
          raw->body();
        } catch (const AbortException&) {
          // Unwound during teardown; fall through to the finished transition.
        } catch (const ThreadKilledFault&) {
          // Killed by an injected kill-thread fault. RAII destructors between the
          // injection site and here have already run (releasing locks they guard);
          // anything acquired without a live guard — notably a DetMutex killed inside
          // its own Lock() — stays held forever, which is the modelled damage.
        }
      }
      {
        std::unique_lock<std::mutex> thread_lock(mu_);
        raw->state = kFinished;
        raw->token = false;
        if (AnomalyDetector* det = anomaly_detector()) {
          det->OnRelease(raw->id, raw);
          det->OnThreadFinish(raw->id);
        }
        for (Tcb* joiner : raw->joiners) {
          MakeReadyLocked(joiner);
        }
        raw->joiners.clear();
        cv_.notify_all();
      }
    });
  }
  threads_.push_back(std::move(tcb));
  return std::make_unique<DetThread>(this, raw);
}

void DetRuntime::Yield() {
  Tcb* self = CurrentTcbChecked();
  std::unique_lock<std::mutex> lock(mu_);
  if (abort_) {
    return;
  }
  SwitchOutLocked(lock, self, kReady, nullptr, "yield");
}

std::uint32_t DetRuntime::CurrentThreadId() {
  void* raw = g_current_det_tcb;
  return raw == nullptr ? 0 : static_cast<Tcb*>(raw)->id;
}

std::uint64_t DetRuntime::NowNanos() {
  std::lock_guard<std::mutex> lock(mu_);
  return step_ * 1000;
}

DetRuntime::RunResult DetRuntime::Run() {
  RunResult result;
  std::unique_lock<std::mutex> lock(mu_);
  assert(!ran_ && "DetRuntime::Run() may be called at most once");
  ran_ = true;
  running_ = true;

  std::vector<Tcb*> ready;
  std::vector<SchedCandidate> candidates;
  while (true) {
    WakeExpiredTimedWaitersLocked();
    ready.clear();
    candidates.clear();
    bool all_finished = true;
    for (auto& tcb : threads_) {
      if (tcb->state == kReady) {
        ready.push_back(tcb.get());
        candidates.push_back(SchedCandidate{tcb->id, tcb->ready_since});
      }
      if (tcb->state != kFinished) {
        all_finished = false;
      }
    }
    if (ready.empty()) {
      if (all_finished) {
        result.completed = true;
        break;
      }
      // Timed waiters are not deadlocked — their deadlines will fire. With nothing
      // else runnable, jump the virtual clock to the earliest deadline (the analogue
      // of an OS sleeping until the next timer) and re-evaluate. If that deadline
      // lies beyond max_steps, the jump lands there and the step-limit check below
      // ends the run on the next iteration.
      std::uint64_t next_deadline = 0;
      for (auto& tcb : threads_) {
        if (tcb->state == kBlockedCond && tcb->wake_deadline != 0 &&
            (next_deadline == 0 || tcb->wake_deadline < next_deadline)) {
          next_deadline = tcb->wake_deadline;
        }
      }
      if (next_deadline > step_) {
        step_ = next_deadline;
        continue;
      }
      result.deadlocked = true;
      result.report = BuildStuckReportLocked("deadlock: no runnable threads");
      if (AnomalyDetector* det = anomaly_detector()) {
        // Exact diagnosis: every thread is parked at a scheduling point, so the
        // wait-for graph is complete and the classification has no false positives.
        det->DiagnoseStuck();
        for (const Anomaly& anomaly : det->anomalies()) {
          result.report += "  " + anomaly.ToString() + "\n";
        }
      }
      break;
    }
    if (step_ >= options_.max_steps) {
      result.step_limit = true;
      result.report = BuildStuckReportLocked("step limit exceeded (possible livelock)");
      if (options_.diagnose_on_step_limit) {
        if (AnomalyDetector* det = anomaly_detector()) {
          // Every *blocked* thread is parked at a scheduling point, so classifying
          // those remains sound; the runnable threads that kept the clock advancing
          // are simply not classified (see Options::diagnose_on_step_limit).
          det->DiagnoseStuck();
          for (const Anomaly& anomaly : det->anomalies()) {
            result.report += "  " + anomaly.ToString() + "\n";
          }
        }
      }
      break;
    }
    ++step_;
    const std::size_t index = schedule_->Pick(candidates, step_);
    Tcb* chosen = ready[index < ready.size() ? index : 0];
    chosen->state = kRunning;
    chosen->token = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return chosen->state != kRunning; });
  }

  if (!result.completed) {
    // Teardown: release every stuck thread with the abort flag so it unwinds. Push the
    // aborting state to the detector first — teardown unwinding (and any faults still
    // firing during it) must not be observed, or kill-during-teardown plans would be
    // double-counted as lost wakeups on top of the diagnosis above. The flight recorder
    // is frozen so the postmortem's event window ends where the schedule stopped.
    if (AnomalyDetector* det = anomaly_detector()) {
      det->SetAborting(true);
    }
    if (FlightRecorder* flight = flight_recorder()) {
      flight->Freeze();
    }
    abort_ = true;
    // Unwind one thread at a time, in creation order: each records its exit events
    // into the trace before the next starts, so a hung run's trace ends the same way
    // on every replay. Indexed, since an unwinding thread may still append a TCB.
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      Tcb* unwinding = threads_[i].get();
      if (unwinding->state == kFinished) {
        continue;
      }
      unwinding->token = true;
      cv_.notify_all();
      cv_.wait(lock, [unwinding] { return unwinding->state == kFinished; });
    }
  }
  running_ = false;
  result.steps = step_;
  lock.unlock();
  for (auto& tcb : threads_) {
    if (tcb->os_thread.joinable()) {
      tcb->os_thread.join();
    }
  }
  return result;
}

bool DetRuntime::Aborting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abort_;
}

void DetRuntime::SwitchOutLocked(std::unique_lock<std::mutex>& lock, Tcb* tcb, int state,
                                 const void* wait_object, std::string wait_desc) {
  if (abort_) {
    throw AbortException{};
  }
  tcb->state = state;
  tcb->token = false;
  tcb->wait_object = wait_object;
  tcb->wait_desc = std::move(wait_desc);
  if (state == kReady) {
    tcb->ready_since = step_;
  }
  cv_.notify_all();
  cv_.wait(lock, [&] { return tcb->token; });
  if (abort_) {
    throw AbortException{};
  }
  // The driver set state to kRunning when granting the token.
  tcb->wait_object = nullptr;
  tcb->wait_desc.clear();
}

FaultDecision DetRuntime::FaultDecisionLocked(Tcb* tcb, FaultSite site) {
  FaultInjector* injector = fault_injector();
  if (injector == nullptr || abort_) {
    return FaultDecision{};
  }
  // mu_ is held: read step_ directly (NowNanos() would self-deadlock). The injector's
  // own mutex is a leaf, strictly after mu_ in the lock order.
  return injector->Decide(site, tcb->id, step_ * 1000);
}

void DetRuntime::WakeExpiredTimedWaitersLocked() {
  for (auto& tcb : threads_) {
    if (tcb->state == kBlockedCond && tcb->wake_deadline != 0 && step_ >= tcb->wake_deadline) {
      // The waiter resumes with timed_out set and removes itself from its condvar's
      // wait set (see DetCondVar::WaitCommon); the driver never touches that deque.
      tcb->timed_out = true;
      tcb->state = kReady;
      tcb->ready_since = step_;
    }
  }
}

void DetRuntime::MakeReadyLocked(Tcb* tcb) {
  if (tcb->state == kBlockedMutex || tcb->state == kBlockedCond || tcb->state == kBlockedJoin) {
    tcb->state = kReady;
    tcb->ready_since = step_;
  }
}

DetRuntime::Tcb* DetRuntime::CurrentTcbChecked() const {
  void* raw = g_current_det_tcb;
  assert(raw != nullptr && "blocking DetRuntime primitive used from an unmanaged thread");
  return static_cast<Tcb*>(raw);
}

std::string DetRuntime::BuildStuckReportLocked(const char* reason) {
  std::ostringstream os;
  os << reason << " after " << step_ << " steps (schedule: " << schedule_->Describe() << ")\n";
  for (auto& tcb : threads_) {
    if (tcb->state == kFinished) {
      continue;
    }
    os << "  t" << tcb->id << " '" << tcb->name << "': " << StateName(tcb->state);
    if (!tcb->wait_desc.empty()) {
      os << " [" << tcb->wait_desc << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace syneval
