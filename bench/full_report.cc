// Generates the complete markdown evaluation report (all of Sections 2-5 of the
// methodology) into evaluation_report.md next to the binary, and echoes the verdict.
//
// --seeds sets the conformance schedules per case (default 15; the nightly deep-sweep
// CI job runs 150) and --jobs shards every sweep inside the report across the
// work-stealing pool — the report text is bit-identical at any worker count.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench/harness.h"
#include "syneval/core/report.h"
#include "syneval/runtime/checkpoint.h"

int main(int argc, char** argv) {
  syneval::bench::Options options =
      syneval::bench::ParseArgs(argc, argv, "full_report");
  syneval::bench::Reporter reporter(options);

  syneval::ReportOptions report_options;
  report_options.conformance_seeds = options.SeedsOr(15);
  report_options.parallel = options.Parallel();
  // --resume: the report's conformance and chaos sweeps checkpoint their seeds (the
  // suite functions scope keys per case/row); a killed run picks up where it left off
  // and the report text stays bit-identical. The DPOR section opts itself out.
  const std::unique_ptr<syneval::CheckpointStore> store =
      syneval::bench::MakeCheckpointStore(options);
  if (store != nullptr) {
    report_options.parallel.checkpoint = store.get();
    report_options.parallel.checkpoint_scope = options.bench;
  }

  std::ostringstream buffer;
  const double wall_seconds = syneval::bench::TimeSeconds(
      [&] { syneval::WriteEvaluationReport(buffer, report_options); });
  const std::string report = buffer.str();

  std::ofstream file("evaluation_report.md");
  file << report;
  file.close();

  reporter.Add("all", "", "report_bytes", static_cast<double>(report.size()), "bytes");
  reporter.Add("all", "", "conformance_seeds", report_options.conformance_seeds,
               "schedules");
  reporter.SetSweepInfo(syneval::ResolveJobs(report_options.parallel.jobs),
                        wall_seconds);

  // Echo the tail — the fault-injection calibration table, the registry-sourced
  // contention telemetry table, and the verdict — so the bench sweep shows the outcome.
  std::size_t tail = report.rfind("## 7. Fault-injection calibration");
  if (tail == std::string::npos) {
    tail = report.rfind("## Verdict");
  }
  std::printf("=== Full evaluation report written to evaluation_report.md (%zu bytes) ===\n\n",
              report.size());
  if (tail != std::string::npos) {
    std::printf("%s\n", report.substr(tail).c_str());
  }
  syneval::bench::ReportResume(store.get(), reporter);
  std::printf("report generated in %.3fs (conformance seeds per case: %d)\n",
              wall_seconds, report_options.conformance_seeds);
  return reporter.Finish() ? 0 : 1;
}
