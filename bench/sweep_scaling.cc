// Sweep-scaling bench: serial vs parallel schedule sweeps over the footnote-2
// problems, with a hard bit-identity assertion between the two.
//
// For each of the six problems this runs the first conformance case of that problem
// through a 200-seed sweep (override with --seeds) twice: once serially (jobs=1) and
// once through the work-stealing pool at --jobs workers. The two outcomes must be
// bit-identical — every count, every failing/anomalous seed in order, every
// first-failure string — or the bench exits 1; CI runs this in the perf-regression
// job, so a fold-determinism regression blocks there even before the dedicated unit
// test is consulted. The JSON carries per-problem wall times and the overall speedup,
// which the perf-regression step summary quotes.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "syneval/core/conformance.h"

namespace {

using syneval::ConformanceCase;
using syneval::ParallelOptions;
using syneval::ParallelSweepResult;
using syneval::SweepOutcome;

// Field-by-field equality; SweepOutcome has no operator== because the sweeps
// themselves never need one.
bool Identical(const SweepOutcome& a, const SweepOutcome& b, std::string* why) {
  auto fail = [why](const std::string& field) {
    *why = "outcome field '" + field + "' differs";
    return false;
  };
  if (a.runs != b.runs) return fail("runs");
  if (a.passes != b.passes) return fail("passes");
  if (a.failures != b.failures) return fail("failures");
  if (a.failing_seeds != b.failing_seeds) return fail("failing_seeds");
  if (a.first_failure != b.first_failure) return fail("first_failure");
  if (a.anomalous_seeds != b.anomalous_seeds) return fail("anomalous_seeds");
  if (a.first_anomaly != b.first_anomaly) return fail("first_anomaly");
  if (a.anomalies.deadlocks != b.anomalies.deadlocks) return fail("anomalies.deadlocks");
  if (a.anomalies.lost_wakeups != b.anomalies.lost_wakeups)
    return fail("anomalies.lost_wakeups");
  if (a.anomalies.stuck_waiters != b.anomalies.stuck_waiters)
    return fail("anomalies.stuck_waiters");
  if (a.anomalies.starvations != b.anomalies.starvations)
    return fail("anomalies.starvations");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace syneval;
  bench::Options options = bench::ParseArgs(argc, argv, "sweep_scaling");
  bench::Reporter reporter(options);

  const int seeds = options.SeedsOr(200);
  const int jobs = ResolveJobs(options.jobs);

  // First conformance case per problem: one representative sweep each for the six
  // footnote-2 problems, in suite order.
  std::vector<ConformanceCase> cases;
  {
    std::map<std::string, bool> taken;
    for (ConformanceCase& c : BuildConformanceSuite()) {
      if (!taken[c.problem]) {
        taken[c.problem] = true;
        cases.push_back(std::move(c));
      }
    }
  }

  std::printf("=== Sweep scaling: %d seeds/problem, serial vs %d workers ===\n\n",
              seeds, jobs);

  ParallelOptions serial;
  serial.jobs = 1;
  ParallelOptions pool;
  pool.jobs = jobs;

  double serial_total = 0;
  double parallel_total = 0;
  std::vector<WorkerTelemetry> workers;
  for (const ConformanceCase& c : cases) {
    const ParallelSweepResult s = ParallelSweepSchedules(seeds, c.trial, 1, serial);
    const ParallelSweepResult p = ParallelSweepSchedules(seeds, c.trial, 1, pool);
    std::string why;
    if (!Identical(s.outcome, p.outcome, &why)) {
      std::fprintf(stderr,
                   "sweep_scaling: SWEEP NOT BIT-IDENTICAL on %s (%s): %s\n",
                   c.problem.c_str(), c.display.c_str(), why.c_str());
      return 1;
    }
    serial_total += s.wall_seconds;
    parallel_total += p.wall_seconds;
    MergeWorkerTelemetry(workers, p.workers);

    const std::string mechanism = MechanismName(c.mechanism);
    reporter.Add(mechanism, c.problem, "failures", s.outcome.failures, "schedules");
    reporter.Add(mechanism, c.problem, "serial_wall_seconds", s.wall_seconds, "s");
    reporter.Add(mechanism, c.problem, "parallel_wall_seconds", p.wall_seconds, "s");
    std::printf("  %-22s serial %.3fs  parallel %.3fs  (%d failures, identical)\n",
                c.problem.c_str(), s.wall_seconds, p.wall_seconds, s.outcome.failures);
  }

  const double speedup = parallel_total > 0 ? serial_total / parallel_total : 0;
  reporter.Add("all", "", "sweep_wall_seconds_serial", serial_total, "s");
  reporter.Add("all", "", "sweep_wall_seconds_parallel", parallel_total, "s");
  reporter.Add("all", "", "speedup", speedup, "x");
  reporter.Add("all", "", "jobs", jobs, "workers");
  reporter.SetSweepInfo(jobs, parallel_total);
  reporter.SetWorkers(workers);

  std::printf("\ntotal: serial %.3fs, parallel %.3fs at %d workers -> %.2fx\n%s",
              serial_total, parallel_total, jobs, speedup,
              reporter.WorkerTable().c_str());
  std::printf("bit-identity: all %zu problems identical serial vs parallel.\n",
              cases.size());
  return reporter.Finish() ? 0 : 1;
}
