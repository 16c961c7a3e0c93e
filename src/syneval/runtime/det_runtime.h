// DetRuntime: a deterministic, cooperatively scheduled Runtime.
//
// Exactly one managed thread executes at any time; at every scheduling point (mutex
// acquire/release, condition wait/notify, explicit Yield) control returns to a driver
// which asks a pluggable Schedule which runnable thread proceeds. Because mechanisms in
// this library synchronize exclusively through Runtime primitives, the set of scheduling
// points covers every synchronization-relevant interleaving, and a (schedule, seed) pair
// fully determines the execution — any behaviour found by schedule search is replayable.
//
// DetRuntime also detects deadlock (no runnable threads while some are blocked) and
// livelock (step-limit exceeded) and reports the wait-for state of every stuck thread.
// Time is counted in scheduling steps, never read from the host: the step budget is
// the only deadline a run has, and both verdicts are exact.
// This is what lets the test suite *exhibit* the nested-monitor-call deadlock of
// [Lister 77] discussed in Sections 2 and 5.2 of the paper, rather than merely assert
// that it would happen.
//
// Usage:
//   DetRuntime rt(std::make_unique<RandomSchedule>(seed));
//   auto t1 = rt.StartThread("producer", [&] { ... });
//   auto t2 = rt.StartThread("consumer", [&] { ... });
//   DetRuntime::RunResult result = rt.Run();   // Drives until completion or deadlock.
//   ASSERT_TRUE(result.completed) << result.report;

#ifndef SYNEVAL_RUNTIME_DET_RUNTIME_H_
#define SYNEVAL_RUNTIME_DET_RUNTIME_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "syneval/fault/injector.h"
#include "syneval/runtime/runtime.h"
#include "syneval/runtime/schedule.h"

namespace syneval {

class DetRuntime : public Runtime {
 public:
  struct Options {
    // Abort the run (reporting step_limit) after this many scheduling steps; guards
    // against livelocks and starvation loops in exploratory tests.
    std::uint64_t max_steps = 2'000'000;
    // Insert a preemption point before every mutex acquisition (more interleavings).
    bool preempt_before_lock = true;
    // Insert a preemption point after notify operations (more interleavings).
    bool preempt_after_notify = true;
    // Run AnomalyDetector::DiagnoseStuck() when the step limit aborts the run, not only
    // on deadlock. At the limit every *blocked* thread is parked at a scheduling point,
    // so classifying those is still sound; the runnable threads that kept the clock
    // advancing (a livelock, or an injected stall burning the budget) are simply not
    // classified. Off by default: an exploratory step limit is usually a test
    // configuration artifact, not an anomaly. The chaos harness turns it on so stall
    // faults — which hang nothing but starve every blocked peer — become detectable.
    bool diagnose_on_step_limit = false;
  };

  struct RunResult {
    bool completed = false;    // All threads ran to completion.
    bool deadlocked = false;   // Some threads remained blocked with none runnable.
    bool step_limit = false;   // Options::max_steps exceeded.
    std::uint64_t steps = 0;   // Scheduling steps taken.
    std::string report;        // Human-readable diagnosis when !completed.
  };

  explicit DetRuntime(std::unique_ptr<Schedule> schedule);
  DetRuntime(std::unique_ptr<Schedule> schedule, Options options);
  ~DetRuntime() override;

  DetRuntime(const DetRuntime&) = delete;
  DetRuntime& operator=(const DetRuntime&) = delete;

  // Runtime interface ------------------------------------------------------------------
  std::unique_ptr<RtMutex> CreateMutex() override;
  std::unique_ptr<RtCondVar> CreateCondVar() override;
  std::unique_ptr<RtThread> StartThread(std::string name, std::function<void()> body) override;
  void Yield() override;
  std::uint32_t CurrentThreadId() override;
  std::uint64_t NowNanos() override;
  const char* name() const override { return "det"; }
  bool Aborting() const override;

  // Drives the schedule until every managed thread finished, deadlock, or step limit.
  // Options::max_steps is the run's only bound: nothing reads the host clock, so the
  // result is a pure function of (schedule, seed, workload) and needs no wall-clock
  // supervision. Must be called from the (unmanaged) thread that constructed the
  // runtime, at most once. Threads may still be started from inside managed threads
  // while running.
  RunResult Run();

 private:
  struct Tcb;
  class DetMutex;
  class DetCondVar;
  class DetThread;

  // Thrown inside managed threads to unwind them during post-deadlock teardown.
  struct AbortException {};

  // Transfers control from the calling managed thread back to the driver, leaving the
  // thread in `state` (kReady for a yield, blocked states otherwise). Called with mu_
  // held; returns with mu_ held once the driver grants the token again.
  void SwitchOutLocked(std::unique_lock<std::mutex>& lock, Tcb* tcb, int state,
                       const void* wait_object, std::string wait_desc);

  // Marks a thread runnable (driver or running peer has mu_ held).
  void MakeReadyLocked(Tcb* tcb);

  // Consults the attached fault injector (if any) at `site` for the calling thread.
  // Called with mu_ held; never fires during teardown.
  FaultDecision FaultDecisionLocked(Tcb* tcb, FaultSite site);

  // Marks every timed waiter whose virtual deadline has passed runnable. Called by the
  // driver with mu_ held.
  void WakeExpiredTimedWaitersLocked();

  // Requires a managed calling thread; returns its Tcb.
  Tcb* CurrentTcbChecked() const;

  std::string BuildStuckReportLocked(const char* reason);

  std::unique_ptr<Schedule> schedule_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Tcb>> threads_;
  std::uint64_t step_ = 0;
  bool running_ = false;
  bool abort_ = false;
  bool ran_ = false;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_DET_RUNTIME_H_
