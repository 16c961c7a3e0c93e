// The full conformance scorecard: every (mechanism, problem) solution swept over
// deterministic schedules against its oracle, including the paper's predicted
// violations (Figure 1; arbitrary-selection FCFS; weak-semaphore CHP priorities).
//
// Sweeps shard across --jobs workers (runtime/parallel_sweep.h); every row of the
// scorecard — counts, failing seeds, first-failure messages — is bit-identical to the
// serial sweep, so --jobs only changes the wall time reported at the bottom.
//
// --trace=<path> replays the first anomalous trial with the tracer attached and
// exports a Perfetto trace with the postmortem narrative overlaid.

#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "syneval/core/conformance.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/core/scorecard.h"
#include "syneval/telemetry/perfetto.h"
#include "syneval/telemetry/tracer.h"

namespace {

// --trace: replay the first stored postmortem's trial with full capture and export a
// Perfetto trace whose "postmortem" track narrates the reconstructed failure.
void ExportPostmortemTrace(const std::string& path,
                           const std::vector<syneval::ConformanceResult>& results) {
  using namespace syneval;
  for (const ConformanceResult& result : results) {
    if (result.outcome.postmortems.empty()) {
      continue;
    }
    const SeedPostmortem& stored = result.outcome.postmortems.front();
    const ConformanceReplay replay = ReplayConformanceTrial(result.spec, stored.seed);
    TelemetryTracer tracer;
    replay.postmortem.AddToTracer(tracer);
    ChromeTraceOptions trace_options;
    trace_options.process_name = "table_conformance " + result.spec.problem + "/" +
                                 std::string(MechanismName(result.spec.mechanism));
    if (WriteChromeTrace(path, replay.events, &tracer, trace_options)) {
      std::printf("wrote Perfetto trace of %s/%s seed %llu (cause: %s) to %s\n",
                  result.spec.problem.c_str(), MechanismName(result.spec.mechanism),
                  static_cast<unsigned long long>(stored.seed),
                  replay.postmortem.cause.c_str(), path.c_str());
    } else {
      std::printf("failed to write Perfetto trace to %s\n", path.c_str());
    }
    return;
  }
  std::printf("--trace: no anomalous trial to replay (all sweeps clean)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace syneval;
  bench::Options options = bench::ParseArgs(argc, argv, "table_conformance");
  bench::Reporter reporter(options);

  const int seeds = options.SeedsOr(25);
  std::printf("=== Conformance scorecard: solution matrix x schedule sweeps ===\n\n");
  std::printf("(%d deterministic schedules per case)\n\n", seeds);

  // Run each case through the pool directly (rather than RunConformanceSuite) so the
  // per-worker telemetry shards can be merged across cases for the v2 JSON schema.
  const std::unique_ptr<CheckpointStore> store = bench::MakeCheckpointStore(options);
  std::vector<ConformanceResult> results;
  std::vector<WorkerTelemetry> workers;
  int jobs = 1;
  double wall_seconds = 0;
  for (const ConformanceCase& conformance_case : BuildConformanceSuite()) {
    ParallelOptions parallel = options.Parallel();
    if (store != nullptr) {
      parallel.checkpoint = store.get();
      // Per-case key namespace, mirroring RunConformanceSuite's scoping.
      parallel.checkpoint_scope = options.bench + "/" + conformance_case.problem +
                                  "/" + conformance_case.display;
    }
    ParallelSweepResult sweep =
        ParallelSweepSchedules(seeds, conformance_case.trial, /*base_seed=*/1, parallel);
    jobs = sweep.jobs;
    wall_seconds += sweep.wall_seconds;
    MergeWorkerTelemetry(workers, sweep.workers);
    results.push_back(ConformanceResult{conformance_case, std::move(sweep.outcome)});
  }
  if (store != nullptr) {
    // Restored = chunks whose records decoded (the workers' `cached`), not store hits:
    // a hit whose payload fails to decode re-runs its chunk.
    int restored = 0;
    for (const WorkerTelemetry& worker : workers) {
      restored += worker.cached;
    }
    std::printf("resume: %d chunk(s) restored, %d now checkpointed in %s\n", restored,
                store->size(), store->path().c_str());
  }
  std::printf("%s\n", RenderConformanceTable(results).c_str());

  int unexpected = 0;
  for (const ConformanceResult& result : results) {
    const SweepOutcome& o = result.outcome;
    reporter.Add(MechanismName(result.spec.mechanism), result.spec.problem, "runs",
                 o.runs, "schedules");
    reporter.Add(MechanismName(result.spec.mechanism), result.spec.problem, "failures",
                 o.failures, "schedules");
    reporter.Add(MechanismName(result.spec.mechanism), result.spec.problem,
                 "anomalous_seeds", static_cast<double>(o.anomalous_seeds.size()),
                 "schedules");
    reporter.Add(MechanismName(result.spec.mechanism), result.spec.problem,
                 "as_expected", result.AsExpected() ? 1 : 0, "bool");
    // Observability health: total flight-ring evictions over the sweep. Non-zero
    // means some postmortem windows were truncated (tune ring sizing if it grows).
    reporter.Add(MechanismName(result.spec.mechanism), result.spec.problem,
                 "flight_evicted", static_cast<double>(o.flight_evicted), "events");
    // One representative flight-recorder narrative per anomalous case for the v3
    // "postmortem" key (the sweep keeps at most kMaxStoredPostmortems per case).
    if (!o.postmortems.empty()) {
      const SeedPostmortem& pm = o.postmortems.front();
      bench::Reporter::PostmortemEntry entry;
      entry.mechanism = MechanismName(result.spec.mechanism);
      entry.problem = result.spec.problem;
      entry.seed = pm.seed;
      entry.cause = pm.cause;
      entry.text = pm.text;
      reporter.AddPostmortem(std::move(entry));
    }
    if (!result.AsExpected()) {
      ++unexpected;
    }
  }
  reporter.SetSweepInfo(jobs, wall_seconds);
  reporter.SetWorkers(workers);

  std::printf("\n%d/%zu cases behaved as the paper predicts.\n",
              static_cast<int>(results.size()) - unexpected, results.size());
  std::printf("sweep: jobs=%d wall=%.3fs\n%s", jobs, wall_seconds,
              reporter.WorkerTable().c_str());
  if (!options.trace_path.empty()) {
    ExportPostmortemTrace(options.trace_path, results);
  }
  if (!reporter.Finish()) {
    return 1;
  }
  return unexpected == 0 ? 0 : 1;
}
