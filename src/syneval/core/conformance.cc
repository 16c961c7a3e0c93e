#include "syneval/core/conformance.h"

#include <span>
#include <utility>

#include "syneval/fault/chaos.h"
#include "syneval/problems/oracles.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/solutions/cases.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/trace/recorder.h"

namespace syneval {

namespace {

// One conformance trial of `entry` on the shared trial stack (fault/chaos.h), with the
// default DetRuntime options and trial-sized rings. A detector finding on a run whose
// oracle passed is the trial's failure, so the sweep records the seed; a run that did
// not complete, or drew a finding, carries its postmortem. `replay`, when given, also
// keeps the trace and the structured postmortem.
TrialReport RunConformanceTrial(const CaseEntry& entry, int workload_scale,
                                std::uint64_t seed, ConformanceReplay* replay) {
  TrialReport report;
  if (entry.body == nullptr) {
    report.message = RunFigure1AnomalyScenario(seed);
    return report;
  }
  TrialStack stack(seed, /*plan=*/nullptr, {}, FlightRecorder::Options::ForTrial());
  stack.Run(entry, seed, workload_scale);
  report.anomalies = stack.detector.counts();
  report.anomaly_report = stack.detector.Report("; ");
  report.flight_evicted = stack.flight.evicted();
  if (!stack.result.completed) {
    report.message = "runtime: " + stack.result.report;
  } else {
    report.message = stack.verdict;
    if (report.message.empty() && !report.anomalies.Clean()) {
      report.message = "anomaly: " + report.anomaly_report;
    }
  }
  if (!stack.result.completed || !report.anomalies.Clean()) {
    Postmortem postmortem = BuildPostmortem(stack.flight, &stack.detector);
    report.postmortem_cause = postmortem.cause;
    report.postmortem = postmortem.ToText();
    if (replay != nullptr) {
      replay->postmortem = std::move(postmortem);
    }
  }
  if (replay != nullptr) {
    replay->events = stack.trace.Events();
  }
  return report;
}

}  // namespace

std::vector<ConformanceCase> BuildConformanceSuite(int workload_scale) {
  const std::span<const CaseEntry> catalogue = CaseCatalogue();
  std::vector<ConformanceCase> cases;
  cases.reserve(catalogue.size());
  for (const CaseEntry& entry : catalogue) {
    ConformanceCase& c = cases.emplace_back();
    c.mechanism = entry.mechanism;
    c.problem = entry.problem;
    c.display = entry.display;
    c.expect_violations = entry.expect_violations;
    c.trial = [&entry, workload_scale](std::uint64_t seed) {
      return RunConformanceTrial(entry, workload_scale, seed, nullptr);
    };
    c.replay = [&entry, workload_scale](std::uint64_t seed) {
      ConformanceReplay replay;
      replay.report = RunConformanceTrial(entry, workload_scale, seed, &replay);
      return replay;
    };
  }
  return cases;
}

std::string RunFigure1AnomalyScenario(std::uint64_t seed) {
  DetRuntime rt(MakeRandomSchedule(seed));
  TraceRecorder trace;
  PathExprRwFigure1 rw(rt);
  PathController& controller = rw.controller();
  bool in_write = false;  // Set inside write1's body; read by the other two threads.

  auto writer1 = rt.StartThread("writer1", [&] {
    OpScope scope(trace, rt.CurrentThreadId(), "write");
    rw.Write(
        [&] {
          in_write = true;
          // Hold the write until BOTH writer2 (at openwrite) and the reader (at
          // requestread) are blocked in the controller.
          while (controller.WaitingCount() < 2) {
            rt.Yield();
          }
        },
        &scope);
  });
  auto writer2 = rt.StartThread("writer2", [&] {
    while (!in_write) {
      rt.Yield();
    }
    OpScope scope(trace, rt.CurrentThreadId(), "write");
    rw.Write([] {}, &scope);
  });
  auto reader = rt.StartThread("reader", [&] {
    while (!in_write) {
      rt.Yield();
    }
    // Wait until writer2's requestwrite holds the second path (its cycle counter is 0
    // with no requestread burst active), i.e. writer2 is blocked inside openwrite.
    while (!(controller.CounterValue("p1.S") == 0 && controller.BraceCount("p1.C0") == 0)) {
      rt.Yield();
    }
    OpScope scope(trace, rt.CurrentThreadId(), "read");
    rw.Read([] {}, &scope);
  });

  const DetRuntime::RunResult result = rt.Run();
  if (!result.completed) {
    return "runtime: " + result.report;
  }
  return CheckReadersWriters(trace.Events(), RwPolicy::kReadersPriority);
}

ConformanceReplay ReplayConformanceTrial(const ConformanceCase& conformance_case,
                                         std::uint64_t seed) {
  return conformance_case.replay(seed);
}

ConformanceResult RunConformanceCase(const ConformanceCase& conformance_case, int seeds,
                                     std::uint64_t base_seed,
                                     const ParallelOptions& parallel) {
  ConformanceResult result;
  result.spec = conformance_case;
  result.outcome = SweepSchedules(seeds, conformance_case.trial, base_seed, parallel);
  return result;
}

std::vector<ConformanceResult> RunConformanceSuite(int seeds, int workload_scale,
                                                   const ParallelOptions& parallel) {
  std::vector<ConformanceResult> results;
  for (const ConformanceCase& c : BuildConformanceSuite(workload_scale)) {
    // Under checkpointing every case needs its own key namespace — the per-seed keys
    // only carry (kind, base seed, seed), identical across cases. The scope also pins
    // the workload scale: a resumed sweep at a different scale must miss.
    ParallelOptions scoped = parallel;
    if (scoped.checkpoint != nullptr) {
      scoped.checkpoint_scope += "/conformance/" + c.problem + "/" + c.display +
                                 "/scale" + std::to_string(workload_scale);
    }
    results.push_back(RunConformanceCase(c, seeds, 1, scoped));
  }
  return results;
}

}  // namespace syneval
