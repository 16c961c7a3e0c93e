// syneval_analyze: run the static analysis passes over the whole solution registry.
//
// Output: a per-solution verdict table (model-checker verdicts for path-expression
// solutions, wait-predicate lint results for monitor/CCR solutions), plus two
// self-validation demonstrations required before any verdict is trusted:
//
//   1. the CH74 bounded-buffer path expression is *proved* deadlock-free (exhaustive
//      enumeration of its counter-state space), and
//   2. a deliberately-broken crossed-gates path program yields a minimal deadlock
//      counterexample word which is replayed under DetRuntime and confirmed as a real
//      wait-for cycle by the anomaly detector.
//
// Exit status is nonzero if either demonstration fails, so CI catches a checker
// regression even before comparing verdicts against the golden file. With --json the
// verdicts are written in the standard bench schema; the blocking `static-verdicts`
// CI job diffs that JSON against tests/golden/static_verdicts.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "syneval/analysis/catalog.h"
#include "syneval/analysis/model_checker.h"
#include "syneval/analysis/replay.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/registry.h"

namespace {

using syneval::AnalyzeRegistry;
using syneval::BrokenCrossedGatesModel;
using syneval::CheckPathModel;
using syneval::LintFinding;
using syneval::LintSeverity;
using syneval::MechanismName;
using syneval::ModelCheckResult;
using syneval::PathModel;
using syneval::ReplayCounterexample;
using syneval::ReplayResult;
using syneval::SafetyVerdict;
using syneval::SolutionVerdict;

// Seeds for the counterexample replay sweep (self-validation 2). Small: each seed is
// a full DetRuntime replay, and all of them must deadlock identically.
constexpr int kReplaySweepSeeds = 8;

int CountSeverity(const std::vector<LintFinding>& findings, LintSeverity severity) {
  int count = 0;
  for (const LintFinding& finding : findings) {
    count += finding.severity == severity ? 1 : 0;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  const syneval::bench::Options options =
      syneval::bench::ParseArgs(argc, argv, "syneval_analyze");
  syneval::bench::Reporter reporter(options);

  // ---- Per-solution verdicts ---------------------------------------------------------
  const std::vector<SolutionVerdict> verdicts = AnalyzeRegistry();
  std::printf("Static analysis over the solution registry (%zu solutions modelled):\n\n",
              verdicts.size());
  std::printf("  %-18s %-22s %-52s %s\n", "mechanism", "problem", "solution", "verdict");
  for (const SolutionVerdict& verdict : verdicts) {
    std::printf("  %-18s %-22s %-52s %s\n", MechanismName(verdict.mechanism),
                verdict.problem.c_str(), verdict.display_name.c_str(),
                verdict.VerdictString().c_str());
    // Row identity: several solutions can share (mechanism, problem) — e.g. Figure 1
    // and the predicate paths are both rw-readers-priority — so the display name is
    // folded into the metric to keep JSON rows unique.
    const std::string suffix = "/" + verdict.display_name;
    reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                 "static_safe" + suffix, verdict.statically_safe ? 1 : 0, "bool");
    if (verdict.is_path) {
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "static_deadlock_free" + suffix,
                   verdict.model.safety == SafetyVerdict::kDeadlockFree ? 1 : 0, "bool");
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "static_starvable_ops" + suffix,
                   static_cast<double>(verdict.model.starvable_ops.size()), "count");
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "static_unreachable_ops" + suffix,
                   static_cast<double>(verdict.model.unreachable_ops.size()), "count");
    } else {
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "lint_errors" + suffix,
                   CountSeverity(verdict.findings, LintSeverity::kError), "count");
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "lint_warnings" + suffix,
                   CountSeverity(verdict.findings, LintSeverity::kWarning), "count");
      reporter.Add(MechanismName(verdict.mechanism), verdict.problem,
                   "lint_notes" + suffix,
                   CountSeverity(verdict.findings, LintSeverity::kNote), "count");
    }
  }
  reporter.Add("all", "", "solutions_modelled", static_cast<double>(verdicts.size()),
               "count");
  reporter.Add("all", "", "solutions_registered",
               static_cast<double>(syneval::AllSolutionInfos().size()), "count");

  // ---- Self-validation 1: the bounded buffer is proved deadlock-free -----------------
  bool ok = true;
  {
    PathModel model{"CH74 bounded buffer path", syneval::PathBoundedBuffer::Program(3),
                    {}};
    const ModelCheckResult result = CheckPathModel(model);
    const bool proven = result.safety == SafetyVerdict::kDeadlockFree &&
                        result.starvable_ops.empty() && result.unreachable_ops.empty();
    std::printf("\nbounded-buffer proof: %s\n", result.Summary().c_str());
    reporter.Add("path-expression", "bounded-buffer", "selfcheck_proved_safe",
                 proven ? 1 : 0, "bool");
    ok = ok && proven;
  }

  // ---- Self-validation 2: broken program -> counterexample -> replayed deadlock ------
  {
    const PathModel broken = BrokenCrossedGatesModel();
    const ModelCheckResult result = CheckPathModel(broken);
    std::printf("crossed-gates check:  %s\n", result.Summary().c_str());
    const bool found = result.safety == SafetyVerdict::kDeadlockable;
    bool replayed = false;
    int detector_deadlocks = 0;
    int sweep_runs = 0;
    int sweep_passes = 0;
    if (found) {
      const ReplayResult replay = ReplayCounterexample(broken, result.counterexample);
      replayed = replay.deadlocked;
      detector_deadlocks = replay.anomalies.deadlocks;
      std::printf("counterexample replay: %s; detector: %s\n",
                  replay.deadlocked ? "deadlocked under DetRuntime" : "DID NOT deadlock",
                  replay.anomaly_report.empty() ? "(no anomalies)"
                                                : replay.anomaly_report.c_str());
      // Sweep the replay across schedule seeds, sharded over --jobs workers. Every
      // seed must reproduce the deadlock AND be named by the detector; the counts are
      // deterministic (one fold in seed order), so the rows are golden-file safe.
      const syneval::SweepOutcome sweep = syneval::ReplayCounterexampleSweep(
          broken, result.counterexample, kReplaySweepSeeds, /*base_seed=*/1,
          options.Parallel());
      sweep_runs = sweep.runs;
      sweep_passes = sweep.passes;
      std::printf("counterexample replay sweep: %d/%d seeds deadlocked with a named "
                  "cycle%s%s\n",
                  sweep.passes, sweep.runs, sweep.first_failure.empty() ? "" : "; first: ",
                  sweep.first_failure.c_str());
    }
    reporter.Add("path-expression", "crossed-gates", "selfcheck_counterexample_found",
                 found ? 1 : 0, "bool");
    reporter.Add("path-expression", "crossed-gates", "selfcheck_replay_deadlocked",
                 replayed ? 1 : 0, "bool");
    reporter.Add("path-expression", "crossed-gates", "selfcheck_detector_deadlocks",
                 detector_deadlocks, "count");
    reporter.Add("path-expression", "crossed-gates", "selfcheck_replay_sweep_runs",
                 sweep_runs, "schedules");
    reporter.Add("path-expression", "crossed-gates", "selfcheck_replay_sweep_passes",
                 sweep_passes, "schedules");
    ok = ok && found && replayed && detector_deadlocks >= 1 &&
         sweep_runs == kReplaySweepSeeds && sweep_passes == sweep_runs;
  }

  if (!reporter.Finish()) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "syneval_analyze: self-validation FAILED\n");
    return 1;
  }
  std::printf("\nself-validation passed.\n");
  return 0;
}
