// Chaos calibration sweep (the fault-injection counterpart of table_conformance):
// every footnote-2 problem × mechanism pair swept under matched fault-on / fault-off
// schedules per fault family (syneval/fault/chaos.h), reporting the anomaly
// detector's calibration — injected-fault recall, false positives on the matched
// clean sweeps, mean steps from injection to detection, and the flight-recorder
// postmortems explaining each flagged run.
//
// Everything runs under DetRuntime, so the table is a pure function of the suite and
// the seed range: CI diffs the --json output against tests/golden/chaos_calibration.json
// and this binary exits non-zero when a calibration gate fails (recall below 100% on
// any lost-signal row with harmful runs — every footnote-2 problem family is gated —
// any false positive anywhere, or a postmortem naming a cause other than the injected
// fault family).
//
// --trace=<path> replays the first flagged trial with the tracer attached and exports
// a Perfetto trace with the postmortem narrative overlaid as a "postmortem" track.
//
// --soak=1 runs the supervised long-soak configuration: seeds default to
// kSoakSeedsPerCase, each row's fold quarantines it once quarantine_after of its runs
// crashed (fault/chaos.h: the seeds after that one are skipped, and the row is reported
// with its gates skipped). With --resume, as for every sweep, each seed is committed
// on its own, so a SIGKILL anywhere loses at most the seeds in flight. Every trial is
// bounded by its DetRuntime step budget, not by a wall-clock deadline, so the rows,
// QUARANTINED lines and --quarantine-out file are identical at any --jobs and across
// --resume; healthy rows equal an unsupervised run's. There is no wall-clock
// supervision to configure.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bench/harness.h"
#include "syneval/fault/chaos.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/telemetry/perfetto.h"
#include "syneval/telemetry/tracer.h"

namespace {

constexpr int kSeedsPerCase = 12;
constexpr int kSoakSeedsPerCase = 24;

// --trace: replay the first stored postmortem's trial with full capture and write a
// Perfetto trace whose "postmortem" track narrates the reconstructed failure.
void ExportPostmortemTrace(const std::string& path,
                           const syneval::ChaosCalibrationTable& table) {
  for (const syneval::ChaosCalibrationRow& row : table.rows) {
    if (row.outcome.postmortems.empty()) {
      continue;
    }
    const syneval::SeedPostmortem& stored = row.outcome.postmortems.front();
    const std::optional<syneval::ChaosReplayResult> replay = syneval::ReplayChaosTrial(
        row.problem, row.mechanism, row.fault, stored.seed, table.base_seed);
    if (!replay.has_value()) {
      std::printf("--trace: could not replay %s/%s %s seed %llu\n", row.problem.c_str(),
                  syneval::MechanismName(row.mechanism), row.fault.c_str(),
                  static_cast<unsigned long long>(stored.seed));
      return;
    }
    syneval::TelemetryTracer tracer;
    replay->postmortem.AddToTracer(tracer);
    syneval::ChromeTraceOptions trace_options;
    trace_options.process_name = "chaos_sweep " + row.problem + "/" +
                                 std::string(syneval::MechanismName(row.mechanism)) +
                                 " " + row.fault;
    if (syneval::WriteChromeTrace(path, replay->events, &tracer, trace_options)) {
      std::printf("wrote Perfetto trace of %s seed %llu (cause: %s) to %s\n",
                  row.fault.c_str(), static_cast<unsigned long long>(stored.seed),
                  replay->postmortem.cause.c_str(), path.c_str());
    } else {
      std::printf("failed to write Perfetto trace to %s\n", path.c_str());
    }
    return;
  }
  std::printf("--trace: no flagged trial to replay (all sweeps clean)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> extras;
  syneval::bench::Options options =
      syneval::bench::ParseArgs(argc, argv, "chaos_sweep", &extras);
  const bool soak = extras.count("soak") != 0 && extras["soak"] != "0";
  extras.erase("soak");
  if (!extras.empty()) {
    std::fprintf(stderr, "chaos_sweep: unknown flag '--%s=...' (only --soak=1)\n",
                 extras.begin()->first.c_str());
    return 2;
  }
  syneval::bench::Reporter reporter(options);

  syneval::ChaosSupervision supervision;
  supervision.enabled = soak;

  // The calibration table is bit-identical at any worker count (one fold in seed order,
  // runtime/parallel_sweep.h), so the golden-file diff is safe under --jobs — and
  // under --resume, which restores already-run seeds from the checkpoint log.
  const std::unique_ptr<syneval::CheckpointStore> store =
      syneval::bench::MakeCheckpointStore(options);
  syneval::ParallelOptions parallel = options.Parallel();
  if (store != nullptr) {
    parallel.checkpoint = store.get();
    parallel.checkpoint_scope = options.bench;  // RunChaosCalibration scopes per row.
  }
  const syneval::ChaosCalibrationTable table = syneval::RunChaosCalibration(
      options.SeedsOr(soak ? kSoakSeedsPerCase : kSeedsPerCase), /*base_seed=*/1,
      /*workload_scale=*/1, parallel, supervision);
  reporter.SetSweepInfo(table.jobs, table.wall_seconds);
  reporter.SetWorkers(table.workers);
  if (supervision.enabled) {
    reporter.SetSupervisor(table.supervisor);
    std::printf("supervisor: reaped=%d crashed=%d retried=%d quarantined=%d\n",
                table.supervisor.reaped, table.supervisor.crashed,
                table.supervisor.retried, table.supervisor.quarantined);
  }
  syneval::bench::ReportResume(store.get(), reporter);
  if (!options.quarantine_path.empty()) {
    if (table.WriteQuarantineFile(options.quarantine_path)) {
      std::printf("wrote %s\n", options.quarantine_path.c_str());
    } else {
      std::fprintf(stderr, "chaos_sweep: cannot write --quarantine-out file '%s'\n",
                   options.quarantine_path.c_str());
      return 1;
    }
  }

  bool gate_failed = false;
  for (const syneval::ChaosCalibrationRow& row : table.rows) {
    const syneval::ChaosSweepOutcome& o = row.outcome;
    const std::string mechanism = syneval::MechanismName(row.mechanism);
    // The fault family is folded into the metric name so the six-field schema stays
    // untouched: "<family>_recall", "<family>_false_positives", ...
    reporter.Add(mechanism, row.problem, row.fault + "_injected_runs", o.injected_runs,
                 "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_harmful", o.harmful, "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_absorbed", o.absorbed, "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_recall", o.Recall(), "fraction");
    reporter.Add(mechanism, row.problem, row.fault + "_false_positives", o.clean_anomalies,
                 "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_steps_to_detection",
                 o.MeanStepsToDetection(), "steps");
    // Postmortem calibration: how many flagged fault-on runs produced a narrative, and
    // how many of those narratives named the injected family as the cause.
    int cause_matched = 0;
    int cause_total = 0;
    for (const auto& [cause, count] : o.postmortem_causes) {
      cause_total += count;
      if (cause == row.fault) {
        cause_matched += count;
      }
    }
    reporter.Add(mechanism, row.problem, row.fault + "_postmortems", o.postmortems_total,
                 "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_cause_matched", cause_matched,
                 "runs");
    reporter.Add(mechanism, row.problem, row.fault + "_flight_evicted",
                 static_cast<double>(o.flight_evicted), "events");

    // One representative narrative per row in the JSON (the full per-seed set stays in
    // memory capped at kMaxStoredPostmortems; one is enough for the CI artifact).
    if (!o.postmortems.empty()) {
      const syneval::SeedPostmortem& pm = o.postmortems.front();
      syneval::bench::Reporter::PostmortemEntry entry;
      entry.mechanism = mechanism;
      entry.problem = row.problem + " [" + row.fault + "]";
      entry.seed = pm.seed;
      entry.cause = pm.cause;
      entry.text = pm.text;
      reporter.AddPostmortem(std::move(entry));
    }

    std::printf("%-18s %-28s %-12s %s\n", row.problem.c_str(), row.display.c_str(),
                row.fault.c_str(), o.Summary().c_str());
    // Quarantined cells (supervised sweeps only): the row carries the seeds folded up
    // to its quarantine, crashed runs counted as hung, so its metrics are partial and
    // calibration gates would misfire. Report the last postmortem and move on; the
    // quarantine file carries the details and CI inspects it separately.
    if (row.quarantined) {
      std::printf("  QUARANTINED: %s\n", row.quarantine_reason.c_str());
      if (!row.last_postmortem_cause.empty()) {
        std::printf("  last postmortem cause: %s\n", row.last_postmortem_cause.c_str());
      }
      continue;
    }
    // Blocking recall gates: lost-signal is the detector's bread-and-butter fault, and
    // the calibration golden shows every harmful one caught across *all* footnote-2
    // problem families in the suite — any regression from 1.00 recall is a detector
    // bug. (Rows with no harmful runs are vacuous and skipped.)
    const bool recall_gated = row.fault == "lost-signal";
    if (recall_gated && o.harmful > 0 && o.Recall() < 1.0) {
      std::printf("  GATE: %s lost-signal recall %.2f < 1.00\n", row.problem.c_str(),
                  o.Recall());
      gate_failed = true;
    }
    if (o.clean_anomalies > 0) {
      std::printf("  GATE: %d false positive(s) on matched fault-off schedules\n",
                  o.clean_anomalies);
      gate_failed = true;
    }
    if (o.clean_failures > 0) {
      std::printf("  GATE: %d fault-off run(s) hung or failed their oracle (suite defect)\n",
                  o.clean_failures);
      gate_failed = true;
    }
    // Postmortem recall gate: every flagged fault-on run must explain itself with the
    // injected family as the named cause (an empty cause means a flagged run yielded
    // no narrative at all).
    if (cause_matched != cause_total) {
      std::printf("  GATE: %d/%d postmortem cause(s) did not name the injected family\n",
                  cause_total - cause_matched, cause_total);
      for (const auto& [cause, count] : o.postmortem_causes) {
        if (cause != row.fault) {
          std::printf("    cause %s: %d run(s)\n",
                      cause.empty() ? "<none>" : cause.c_str(), count);
        }
      }
      gate_failed = true;
    }
  }

  std::printf("\nworst recall over harmful rows: %.2f; total false positives: %d\n",
              table.MinRecall(), table.TotalFalsePositives());
  std::printf("sweep: jobs=%d wall=%.3fs\n%s", table.jobs, table.wall_seconds,
              reporter.WorkerTable().c_str());
  if (!options.trace_path.empty()) {
    ExportPostmortemTrace(options.trace_path, table);
  }
  if (!reporter.Finish()) {
    return 1;
  }
  return gate_failed ? 1 : 0;
}
