// Markdown evaluation report: the full Section 2-5 pipeline rendered as one
// self-contained document — what a mechanism designer would attach to a proposal.

#ifndef SYNEVAL_CORE_REPORT_H_
#define SYNEVAL_CORE_REPORT_H_

#include <ostream>
#include <string>

#include "syneval/core/conformance.h"

namespace syneval {

struct ReportOptions {
  int conformance_seeds = 15;  // Schedules per conformance case.
  int workload_scale = 1;
  std::string title = "Synchronization-mechanism evaluation (Bloom 1979 methodology)";
  // Worker pool for the conformance and chaos sweeps (runtime/parallel_sweep.h). The
  // report's tables are bit-identical at any worker count; only wall time changes.
  ParallelOptions parallel;
};

// Runs the whole evaluation (coverage, expressiveness, independence, conformance) and
// writes a markdown report to `out`. The conformance sweep dominates the runtime.
void WriteEvaluationReport(std::ostream& out, const ReportOptions& options = {});

// Writes the static-analysis section: per-solution verdicts from AnalyzeRegistry()
// (model-checker results for path-expression solutions, wait-predicate lint for
// monitor/CCR solutions) side by side with the dynamic evidence in `results`, plus the
// cross-validation both directions of the methodology require — every
// statically-proven-safe solution must be anomaly-free in the conformance sweep, and
// the deliberately-broken crossed-gates counterexample word must replay to a real
// deadlock under DetRuntime confirmed by the anomaly detector. Included in
// WriteEvaluationReport between the conformance and telemetry sections.
void WriteStaticAnalysisSection(std::ostream& out,
                                const std::vector<ConformanceResult>& results);

// Drives a contended bounded-buffer workload against every mechanism's solution over
// OsRuntime with a metrics registry attached, then writes the per-mechanism contention
// profile (wait/hold percentiles, signals, wakeups per admission, max queue depth) as a
// markdown table — the quantities the mechanisms record about themselves. Included in
// WriteEvaluationReport as its own section.
void WriteTelemetryProfileSection(std::ostream& out, int workload_scale = 1);

// Runs the chaos calibration grid (syneval/fault/chaos.h): every footnote-2 problem ×
// mechanism pair swept under matched fault-on / fault-off schedules per fault family,
// rendered as the detector's calibration table — injected-fault recall, false-positive
// rate on the matched clean sweeps, and mean steps from injection to detection.
// Included in WriteEvaluationReport between the static-analysis and DPOR sections.
// `seeds_per_case` trades precision for report runtime (each row costs
// 2 × seeds_per_case deterministic runs). Returns the computed table so later
// sections (the DPOR cross-tab) can reuse it without re-running the grid.
struct ChaosCalibrationTable;
ChaosCalibrationTable WriteChaosCalibrationSection(std::ostream& out,
                                                   int seeds_per_case = 10,
                                                   const ParallelOptions& parallel = {});

// Runs the exhaustive DPOR suite (analysis/dpor.h) and cross-tabulates the three
// verification layers per suite cell: the DPOR verdict (proof / counterexample, with
// the DPOR-vs-naive execution counts), the static path-expression / lint verdict for
// the same (mechanism, problem) where a model exists, and the chaos lost-signal
// recall from `chaos` (pass the table returned by WriteChaosCalibrationSection to
// avoid re-running the grid; nullptr leaves the column unpopulated). Included in
// WriteEvaluationReport between the chaos and telemetry sections.
void WriteDporCrossTabSection(std::ostream& out, const ParallelOptions& parallel = {},
                              const ChaosCalibrationTable* chaos = nullptr);

}  // namespace syneval

#endif  // SYNEVAL_CORE_REPORT_H_
