// Conformance engine: runs every (mechanism, problem) solution under many
// deterministic schedules and checks the problem oracle on each trace.
//
// This is the machinery behind the paper's behavioural claims: a solution either
// conforms on every explored schedule, or the engine exhibits a seed-replayable
// counterexample. Cases marked `expect_violations` are the paper's own negative
// results — most prominently Figure 1's readers-priority violation (footnote 3).

#ifndef SYNEVAL_CORE_CONFORMANCE_H_
#define SYNEVAL_CORE_CONFORMANCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "syneval/runtime/explore.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/solutions/solution_info.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/trace/event.h"

namespace syneval {

// One conformance trial re-run with full observability retained: the logical trace
// (for Perfetto export) and the structured postmortem (empty() when the trial was
// clean). Sweeps keep only the TrialReport; replay is for --trace exports and the
// postmortem CLI.
struct ConformanceReplay {
  TrialReport report;
  std::vector<Event> events;
  Postmortem postmortem;
};

struct ConformanceCase {
  Mechanism mechanism = Mechanism::kSemaphore;
  std::string problem;
  std::string display;
  // True when the paper predicts this solution violates its oracle on some schedules.
  bool expect_violations = false;
  // Runs one trial under DetRuntime with the given schedule seed; returns a report
  // whose message is empty on success and an oracle/runtime diagnostic on failure,
  // plus the anomaly counts observed by the attached detector.
  std::function<TrialReport(std::uint64_t)> trial;
  // The same run as `trial`, returning the full capture.
  std::function<ConformanceReplay(std::uint64_t)> replay;
};

// The full conformance suite: one case per entry of the case catalogue
// (solutions/cases.h), in its order. `workload_scale` multiplies the per-thread
// operation counts (1 = quick test size).
std::vector<ConformanceCase> BuildConformanceSuite(int workload_scale = 1);

struct ConformanceResult {
  ConformanceCase spec;  // trial is preserved for replay.
  SweepOutcome outcome;
  // Pass criterion: clean when !expect_violations, violating when expect_violations.
  bool AsExpected() const {
    return spec.expect_violations ? outcome.failures > 0 : outcome.failures == 0;
  }
};

// Sweeps one case over `seeds` schedules. `parallel` shards the sweep across a
// work-stealing pool (runtime/parallel_sweep.h); the default runs serially and the
// outcome is bit-identical either way.
ConformanceResult RunConformanceCase(const ConformanceCase& conformance_case, int seeds,
                                     std::uint64_t base_seed = 1,
                                     const ParallelOptions& parallel = {});

// Sweeps the whole suite, each case's seed range parallelized per `parallel`.
std::vector<ConformanceResult> RunConformanceSuite(int seeds, int workload_scale = 1,
                                                   const ParallelOptions& parallel = {});

// Runs the case's replay: its trial at `seed` with the trace and postmortem kept.
ConformanceReplay ReplayConformanceTrial(const ConformanceCase& conformance_case,
                                         std::uint64_t seed);

// Directed reproduction of the paper's footnote-3 anomaly (experiment E1): forces the
// exact interleaving the footnote describes — writer1 writing, writer2 blocked at
// openwrite holding requestwrite, a reader arriving and blocking at requestread — and
// then checks the readers-priority oracle. Deterministic for every schedule seed:
// returns the oracle violation (non-empty) on success of the reproduction.
std::string RunFigure1AnomalyScenario(std::uint64_t seed);

}  // namespace syneval

#endif  // SYNEVAL_CORE_CONFORMANCE_H_
