// Supervised sweep demo + acceptance gate for the trial supervisor
// (runtime/supervisor.h): real OsRuntime cells swept alongside one permanently-hung
// cell and one crashing cell.
//
// Every attempt runs in the supervisor's fork sandbox. The hung cell parks forever on
// a condition variable that is never signalled — its child must be killed at
// --trial-deadline, with a live postmortem harvested first. The crashing cell throws
// on every seed and must surface as a structured TrialCrash. Both must be quarantined
// after SupervisorOptions::quarantine_after catastrophic seeds while the healthy
// bounded-buffer cells complete every seed with clean oracles.
//
// Flags beyond the shared harness set (any other --key=value exits 2):
//   --trial-deadline=<ms>  wall-clock budget per attempt (default 250, must be > 0).
// The shared --quarantine-out=<path> writes the quarantine.json artifact.
//
// Exit status is the acceptance verdict: non-zero when a healthy cell failed or was
// quarantined, or when either misbehaving cell escaped quarantine.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "syneval/problems/oracles.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/supervisor.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"

namespace {

using namespace syneval;

BufferWorkloadParams SmallBufferWorkload() {
  BufferWorkloadParams params;
  params.producers = 2;
  params.consumers = 2;
  params.items_per_producer = 12;
  params.work = 0;
  return params;
}

// Healthy cell: a short real-thread bounded-buffer run checked by its oracle.
template <typename Buffer>
SeededTrial HealthyCell() {
  return MakeSupervisableOsTrial([](OsRuntime& rt, std::uint64_t) {
    TraceRecorder trace;
    Buffer buffer(rt, 5);
    ThreadList threads = SpawnBoundedBufferWorkload(rt, buffer, trace, SmallBufferWorkload());
    JoinAll(threads);
    return CheckBoundedBuffer(trace.Events(), 5);
  });
}

// Hung cell: waits forever on a condvar nobody signals. Only the sandbox's SIGKILL
// can end it.
SeededTrial HungCell() {
  return MakeSupervisableOsTrial([](OsRuntime& rt, std::uint64_t) -> std::string {
    std::unique_ptr<RtMutex> mu = rt.CreateMutex();
    std::unique_ptr<RtCondVar> cv = rt.CreateCondVar();
    std::unique_lock<RtMutex> lock(*mu);
    while (true) {  // Predicate is forever false.
      cv->Wait(*mu);
    }
  });
}

// Crashing cell: the trial body dies on every seed; its child exits abnormally.
SeededTrial CrashCell() {
  return MakeSupervisableOsTrial([](OsRuntime&, std::uint64_t seed) -> std::string {
    throw std::runtime_error("synthetic defect: trial state corrupted at seed " +
                             std::to_string(seed));
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> extras;
  bench::Options options = bench::ParseArgs(argc, argv, "supervised_sweep", &extras);
  bench::Reporter reporter(options);

  SupervisorOptions supervisor;
  supervisor.trial_deadline = std::chrono::milliseconds(250);
  for (const auto& [key, value] : extras) {
    char* end = nullptr;
    const long ms = std::strtol(value.c_str(), &end, 10);
    if (key != "trial-deadline" || value.empty() || *end != '\0' || ms <= 0 ||
        ms > INT_MAX) {
      std::fprintf(stderr,
                   "supervised_sweep: bad flag '--%s=%s' (only --trial-deadline=<ms>, "
                   "ms > 0)\n",
                   key.c_str(), value.c_str());
      return 2;
    }
    supervisor.trial_deadline = std::chrono::milliseconds(ms);
  }

  std::vector<SupervisedCell> cells;
  cells.push_back({"bounded-buffer/semaphore", HealthyCell<SemaphoreBoundedBuffer>()});
  cells.push_back({"bounded-buffer/monitor", HealthyCell<MonitorBoundedBuffer>()});
  cells.push_back({"hung/never-signalled-wait", HungCell()});
  cells.push_back({"crash/synthetic-defect", CrashCell()});

  const int seeds = options.SeedsOr(8);
  std::printf("=== Supervised sweep: %d seed(s)/cell, deadline %lldms ===\n\n", seeds,
              static_cast<long long>(supervisor.trial_deadline.count()));

  bool gate_failed = false;
  const double wall_seconds = bench::TimeSeconds([&] {
    const SupervisedSweepReport report = SuperviseSweep(cells, seeds, 1, supervisor);

    for (const SupervisedCellResult& cell : report.cells) {
      std::printf("%-28s runs=%-3d failures=%-3d reaped=%-2d crashed=%-2d retried=%-2d %s\n",
                  cell.id.c_str(), cell.outcome.runs, cell.outcome.failures,
                  cell.stats.reaped, cell.stats.crashed, cell.stats.retried,
                  cell.quarantined ? ("QUARANTINED: " + cell.quarantine_reason).c_str()
                                   : "ok");
      reporter.Add("supervisor", cell.id, "runs", cell.outcome.runs, "trials");
      reporter.Add("supervisor", cell.id, "failures", cell.outcome.failures, "trials");
      reporter.Add("supervisor", cell.id, "reaped", cell.stats.reaped, "attempts");
      reporter.Add("supervisor", cell.id, "crashed", cell.stats.crashed, "attempts");
      reporter.Add("supervisor", cell.id, "retried", cell.stats.retried, "attempts");
      reporter.Add("supervisor", cell.id, "quarantined", cell.quarantined ? 1 : 0,
                   "bool");

      const bool misbehaving = cell.id.rfind("hung/", 0) == 0 ||
                               cell.id.rfind("crash/", 0) == 0;
      if (misbehaving && !cell.quarantined) {
        std::printf("  GATE: misbehaving cell %s escaped quarantine\n", cell.id.c_str());
        gate_failed = true;
      }
      if (!misbehaving && cell.quarantined) {
        std::printf("  GATE: healthy cell %s was quarantined\n", cell.id.c_str());
        gate_failed = true;
      }
      if (!misbehaving && (cell.outcome.failures != 0 || cell.outcome.runs != seeds)) {
        std::printf("  GATE: healthy cell %s did not complete cleanly (%d/%d, %d failure(s))\n",
                    cell.id.c_str(), cell.outcome.runs, seeds, cell.outcome.failures);
        gate_failed = true;
      }
      if (misbehaving && cell.quarantined && cell.last_postmortem_cause.empty() &&
          cell.last_crash.what.empty() && cell.quarantine_reason.empty()) {
        std::printf("  GATE: quarantined cell %s carries no explanation\n",
                    cell.id.c_str());
        gate_failed = true;
      }
    }

    // The "remaining seeds" aggregate the acceptance criterion compares against a
    // clean run: only the healthy cells, folded in cell order.
    const SweepOutcome healthy = report.MergedHealthyOutcome();
    reporter.Add("supervisor", "", "healthy_runs", healthy.runs, "trials");
    reporter.Add("supervisor", "", "healthy_failures", healthy.failures, "trials");
    reporter.SetSupervisor(report.totals);

    std::printf("\nhealthy cells merged: runs=%d failures=%d; totals: reaped=%d "
                "crashed=%d retried=%d quarantined=%d\n",
                healthy.runs, healthy.failures, report.totals.reaped,
                report.totals.crashed, report.totals.retried,
                report.totals.quarantined);

    if (!options.quarantine_path.empty()) {
      if (report.WriteQuarantineFile(options.quarantine_path)) {
        std::printf("wrote %s\n", options.quarantine_path.c_str());
      } else {
        std::printf("GATE: failed to write %s\n", options.quarantine_path.c_str());
        gate_failed = true;
      }
    }
    reporter.Add("supervisor", "", "gate_failed", gate_failed ? 1 : 0, "bool");
  });
  reporter.SetSweepInfo(1, wall_seconds);

  if (!reporter.Finish()) {
    return 1;
  }
  return gate_failed ? 1 : 0;
}
