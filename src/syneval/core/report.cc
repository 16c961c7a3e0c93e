#include "syneval/core/report.h"

#include <iomanip>
#include <map>

#include "syneval/analysis/catalog.h"
#include "syneval/analysis/dpor.h"
#include "syneval/analysis/model_checker.h"
#include "syneval/analysis/replay.h"
#include "syneval/core/criteria.h"
#include "syneval/core/metrics.h"
#include "syneval/core/problem_catalog.h"
#include "syneval/fault/chaos.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/csp_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/registry.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {

namespace {

// Markdown table row helper.
void Row(std::ostream& out, const std::vector<std::string>& cells) {
  out << "|";
  for (const std::string& cell : cells) {
    out << " " << cell << " |";
  }
  out << "\n";
}

void HeaderRow(std::ostream& out, const std::vector<std::string>& cells) {
  Row(out, cells);
  out << "|";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << "---|";
  }
  out << "\n";
}

std::vector<Mechanism> AllMechanisms() {
  std::vector<Mechanism> mechanisms;
  for (int i = 0; i < kNumMechanisms; ++i) {
    mechanisms.push_back(static_cast<Mechanism>(i));
  }
  return mechanisms;
}

}  // namespace

void WriteEvaluationReport(std::ostream& out, const ReportOptions& options) {
  out << "# " << options.title << "\n\n";
  out << "Generated by `syneval`: every verdict below is backed by code in this "
         "repository and replayable from the printed seeds.\n\n";

  // --- 1. Problem catalog and coverage --------------------------------------------------
  out << "## 1. Test set and information-category coverage (Section 3)\n\n";
  HeaderRow(out, {"problem", "source", "categories exercised"});
  for (const ProblemSpec& spec : ProblemCatalog()) {
    Row(out, {spec.id, spec.source, CategoryMaskToString(spec.CategoryMask())});
  }
  const std::vector<std::string> footnote2 = {"bounded-buffer",      "fcfs-resource",
                                              "rw-readers-priority", "disk-scan",
                                              "alarm-clock",         "one-slot-buffer"};
  const CoverageReport coverage = Coverage(footnote2);
  out << "\nThe paper's footnote-2 set covers "
      << CategoryMaskToString(coverage.covered_mask)
      << (coverage.complete ? " — **complete**" : " — **INCOMPLETE**") << " (redundancy "
      << Redundancy(footnote2) << ").\n\nMinimal covering subsets:\n\n";
  for (const auto& cover : MinimalCovers()) {
    out << "- {";
    for (std::size_t i = 0; i < cover.size(); ++i) {
      out << (i == 0 ? "" : ", ") << cover[i];
    }
    out << "} — redundancy " << Redundancy(cover) << "\n";
  }
  out << "\n";

  // --- 2. Expressive power ---------------------------------------------------------------
  out << "## 2. Expressive power (Section 4.1)\n\n";
  std::vector<std::string> header = {"category"};
  for (Mechanism mechanism : AllMechanisms()) {
    header.push_back(MechanismName(mechanism));
  }
  HeaderRow(out, header);
  for (int c = 0; c < kNumInfoCategories; ++c) {
    const auto category = static_cast<InfoCategory>(c);
    std::vector<std::string> row = {InfoCategoryName(category)};
    for (Mechanism mechanism : AllMechanisms()) {
      row.push_back(SupportName(Expressiveness(mechanism, category).support));
    }
    Row(out, row);
  }
  out << "\n<details><summary>Evidence per cell</summary>\n\n";
  for (const ExpressivenessEntry& entry : ExpressivenessMatrix()) {
    out << "- **" << MechanismName(entry.mechanism) << " / "
        << InfoCategoryName(entry.category) << "** (" << SupportName(entry.support)
        << "): " << entry.evidence << "\n";
  }
  out << "\n</details>\n\n";
  const std::vector<std::string> inconsistencies = CrossCheckExpressiveness();
  out << (inconsistencies.empty()
              ? "Cross-check against solution structure: **consistent**.\n\n"
              : "Cross-check found inconsistencies!\n\n");

  // --- 3. Constraint independence --------------------------------------------------------
  out << "## 3. Constraint independence (Section 4.2)\n\n";
  out << "Similarity of the shared `exclusion` fragment across related problems (1.0 = "
         "identical) and the total modification cost (1.0 = full rewrite):\n\n";
  HeaderRow(out, {"mechanism", "problem A", "problem B", "similarity", "mod cost"});
  for (const IndependenceRow& row :
       IndependenceTable(CanonicalIndependencePairs(), "exclusion")) {
    std::ostringstream sim;
    sim << std::fixed << std::setprecision(2) << row.similarity;
    std::ostringstream cost;
    cost << std::fixed << std::setprecision(2) << row.modification_cost;
    Row(out, {MechanismName(row.mechanism), row.problem_a, row.problem_b, sim.str(),
              cost.str()});
  }
  out << "\n";

  // --- 4. Solution inventory --------------------------------------------------------------
  out << "## 4. Solution inventory (structural metrics)\n\n";
  HeaderRow(out, {"mechanism", "problem", "solution", "direct", "sync procs",
                  "hand-kept vars"});
  for (const SolutionInfo& info : AllSolutionInfos()) {
    Row(out, {MechanismName(info.mechanism), info.problem, info.display_name,
              info.direct ? "yes" : "no", std::to_string(info.sync_procedures),
              std::to_string(info.shared_variables)});
  }
  out << "\n";

  // --- 5. Conformance ----------------------------------------------------------------------
  out << "## 5. Behavioural conformance (Section 5)\n\n";
  out << "Every solution against its oracle, " << options.conformance_seeds
      << " deterministic schedules per case. Cases the paper predicts to violate are "
         "marked `expected: violations`.\n\n";
  const std::vector<ConformanceResult> results = RunConformanceSuite(
      options.conformance_seeds, options.workload_scale, options.parallel);
  HeaderRow(out, {"mechanism", "problem", "solution", "violations", "anomalies",
                  "expected", "verdict"});
  int unexpected = 0;
  for (const ConformanceResult& result : results) {
    std::ostringstream violations;
    violations << result.outcome.failures << "/" << result.outcome.runs;
    if (!result.AsExpected()) {
      ++unexpected;
    }
    Row(out, {MechanismName(result.spec.mechanism), result.spec.problem,
              result.spec.display, violations.str(), result.outcome.anomalies.Summary(),
              result.spec.expect_violations ? "violations" : "clean",
              result.AsExpected() ? "as expected" : "**UNEXPECTED**"});
  }
  out << "\nCounterexamples (first failing seed per violating case):\n\n";
  for (const ConformanceResult& result : results) {
    if (result.outcome.failures > 0) {
      out << "- **" << result.spec.display << "** (seed "
          << (result.outcome.failing_seeds.empty() ? 0
                                                    : result.outcome.failing_seeds.front())
          << "): " << result.outcome.first_failure << "\n";
    }
  }
  out << "\n";

  // --- 6. Static analysis vs dynamic evidence ----------------------------------------------
  WriteStaticAnalysisSection(out, results);

  const ChaosCalibrationTable chaos_table =
      WriteChaosCalibrationSection(out, 10, options.parallel);

  // --- 8. Exhaustive DPOR proofs, cross-tabbed against sections 6-7 ------------------------
  WriteDporCrossTabSection(out, options.parallel, &chaos_table);

  // --- 9. Contention telemetry -------------------------------------------------------------
  WriteTelemetryProfileSection(out, options.workload_scale);

  out << "## Verdict\n\n"
      << (results.size() - static_cast<std::size_t>(unexpected)) << "/" << results.size()
      << " cases behaved as the methodology predicts.\n";
}

void WriteStaticAnalysisSection(std::ostream& out,
                                const std::vector<ConformanceResult>& results) {
  out << "## 6. Static analysis (verdicts before any schedule runs)\n\n";
  out << "Section 5 samples schedules, so it can only ever *exhibit* violations. The "
         "static passes (docs/STATIC_ANALYSIS.md) run before any thread is spawned: "
         "path-expression solutions are model-checked exhaustively over their bounded "
         "counter-state space, monitor/CCR solutions get the wait-predicate lint. Each "
         "static verdict is cross-checked against the dynamic anomaly evidence from the "
         "sweep above: a solution the checker proves safe must be anomaly-free "
         "dynamically.\n\n";

  // Dynamic evidence from the section-5 sweep, grouped by (mechanism, problem). The
  // suite's display strings predate the registry's, so rows are matched on the problem
  // key; where several sweeps share it (Figure 1 vs the predicate paths), the one whose
  // display shares the longest prefix with the verdict's display name wins.
  std::map<std::pair<int, std::string>, std::vector<const ConformanceResult*>> dynamic;
  for (const ConformanceResult& result : results) {
    dynamic[{static_cast<int>(result.spec.mechanism), result.spec.problem}].push_back(
        &result);
  }
  const auto common_prefix = [](const std::string& a, const std::string& b) {
    std::size_t n = 0;
    while (n < a.size() && n < b.size() && a[n] == b[n]) {
      ++n;
    }
    return n;
  };

  const std::vector<SolutionVerdict> verdicts = AnalyzeRegistry();
  HeaderRow(out, {"mechanism", "problem", "solution", "static verdict",
                  "dynamic anomalies", "cross-check"});
  int disagreements = 0;
  for (const SolutionVerdict& verdict : verdicts) {
    const ConformanceResult* sweep = nullptr;
    const auto it =
        dynamic.find({static_cast<int>(verdict.mechanism), verdict.problem});
    if (it != dynamic.end()) {
      std::size_t best = 0;
      for (const ConformanceResult* candidate : it->second) {
        const std::size_t overlap =
            common_prefix(candidate->spec.display, verdict.display_name);
        if (sweep == nullptr || overlap > best) {
          sweep = candidate;
          best = overlap;
        }
      }
    }
    std::string evidence = "(not swept)";
    std::string cross = "—";
    if (sweep != nullptr) {
      std::ostringstream ev;
      ev << sweep->outcome.failures << "/" << sweep->outcome.runs << " violations";
      if (sweep->outcome.anomalies.total() > 0) {
        ev << "; " << sweep->outcome.anomalies.Summary();
      }
      evidence = ev.str();
      if (verdict.statically_safe) {
        const bool agrees =
            sweep->outcome.AnomalyFree() && sweep->outcome.failures == 0;
        cross = agrees ? "proved safe, sweep clean" : "**DISAGREES**";
        disagreements += agrees ? 0 : 1;
      } else {
        cross = "static flags, sweep samples";
      }
    }
    Row(out, {MechanismName(verdict.mechanism), verdict.problem, verdict.display_name,
              verdict.VerdictString(), evidence, cross});
  }
  out << "\n"
      << (disagreements == 0
              ? "Cross-validation: **no disagreements** — every statically-proven-safe "
                "solution is also anomaly-free across the swept schedules.\n\n"
              : "Cross-validation found **" + std::to_string(disagreements) +
                    " disagreement(s)** between static proofs and dynamic evidence — "
                    "either a checker bug or a model that drifted from the code.\n\n");

  // The negative control: a deliberately-broken program must yield a counterexample
  // word, and the word must replay to a real deadlock the anomaly detector names.
  const PathModel broken = BrokenCrossedGatesModel();
  const ModelCheckResult check = CheckPathModel(broken);
  out << "Negative control (crossed gates, deliberately broken): "
      << check.Summary() << "\n\n";
  if (check.safety == SafetyVerdict::kDeadlockable) {
    const ReplayResult replay = ReplayCounterexample(broken, check.counterexample);
    out << "Replaying the counterexample word under `DetRuntime`: "
        << (replay.deadlocked ? "**deadlocked**" : "**did NOT deadlock** (checker bug?)")
        << " after " << replay.steps << " steps; detector: "
        << (replay.anomaly_report.empty() ? "(no anomalies)" : replay.anomaly_report)
        << "\n\n";
  }
}

ChaosCalibrationTable WriteChaosCalibrationSection(std::ostream& out,
                                                   int seeds_per_case,
                                                   const ParallelOptions& parallel) {
  out << "## 7. Fault-injection calibration (detector vs ground truth)\n\n";
  out << "Sections 5-6 measure the solutions; this section measures the *instruments*. "
         "Each footnote-2 problem × mechanism pair is swept twice per fault family over "
         "the same schedule seeds — once with a seed-replayable fault plan injected "
         "through the runtime seam, once untouched — so the anomaly detector's recall "
         "is scored against faults we *know* happened and its false-positive rate "
         "against runs we *know* were clean. `harmful` counts fault-on runs the fault "
         "demonstrably broke (they hung); `absorbed` counts runs whose mechanism "
         "tolerated the injected fault outright.\n\n";
  const ChaosCalibrationTable table =
      RunChaosCalibration(seeds_per_case, 1, 1, parallel);
  HeaderRow(out, {"problem", "mechanism", "fault", "injected", "harmful", "absorbed",
                  "recall", "false pos", "steps to detect"});
  for (const ChaosCalibrationRow& row : table.rows) {
    const ChaosSweepOutcome& o = row.outcome;
    std::ostringstream recall;
    if (o.Recall() < 0.0) {
      recall << "n/a";
    } else {
      recall << std::fixed << std::setprecision(0) << o.Recall() * 100.0 << "%";
    }
    std::ostringstream detect;
    if (o.MeanStepsToDetection() < 0.0) {
      detect << "n/a";
    } else {
      detect << std::fixed << std::setprecision(0) << o.MeanStepsToDetection();
    }
    Row(out, {row.problem, MechanismName(row.mechanism), row.fault,
              std::to_string(o.injected_runs) + "/" + std::to_string(o.runs),
              std::to_string(o.harmful), std::to_string(o.absorbed), recall.str(),
              std::to_string(o.clean_anomalies), detect.str()});
  }
  out << "\nPlans: ";
  bool first = true;
  for (const ChaosFaultFamily& family : CalibrationFaultFamilies()) {
    out << (first ? "" : "; ") << "`" << family.name << "` = `" << family.plan_text << "`";
    first = false;
  }
  out << ". Worst recall over rows with harmful runs: **" << std::fixed
      << std::setprecision(0) << table.MinRecall() * 100.0
      << "%**; total false positives across " << table.rows.size() << " matched clean "
      << "sweeps: **" << table.TotalFalsePositives() << "**.\n\n";
  return table;
}

void WriteDporCrossTabSection(std::ostream& out, const ParallelOptions& parallel,
                              const ChaosCalibrationTable* chaos) {
  out << "## 8. Exhaustive DPOR proofs vs the other two layers\n\n";
  out << "Sections 6-7 argue from models and from sampled schedules; this section runs "
         "the stateless DPOR explorer (docs/STATIC_ANALYSIS.md) over every suite cell "
         "at its bounded workload — *all* synchronization-relevant interleavings, "
         "pruned by sleep sets and source-set backtracking, each execution certified "
         "by the vector-clock happens-before engine. The cross-tab puts the three "
         "verification layers side by side per cell: the DPOR verdict (with the "
         "reduced vs naive execution counts), the static path-expression / lint "
         "verdict for the same solution where a model exists, and the chaos "
         "lost-signal recall from section 7 where that grid covers the pair. "
         "Agreement means the layers corroborate; a seeded-bug cell *should* read "
         "counterexample.\n\n";

  const DporSuiteResult suite = ExploreDporSuite(BuildDporSuite(), {}, parallel);

  // Static verdicts keyed like the section-6 table; several DPOR cells share a
  // (mechanism, problem) with no registry entry (the seeded-bug demos and the
  // instrumented counter cells), which the table marks explicitly.
  const std::vector<SolutionVerdict> verdicts = AnalyzeRegistry();
  const auto static_for = [&](const DporCellResult& cell) -> const SolutionVerdict* {
    for (const SolutionVerdict& verdict : verdicts) {
      if (verdict.mechanism == cell.mechanism && verdict.problem == cell.problem) {
        return &verdict;
      }
    }
    return nullptr;
  };
  const auto recall_for = [&](const DporCellResult& cell) -> std::string {
    if (chaos == nullptr) {
      return "(not run)";
    }
    for (const ChaosCalibrationRow& row : chaos->rows) {
      if (row.mechanism == cell.mechanism && row.problem == cell.problem &&
          row.fault == "lost-signal") {
        const double recall = row.outcome.Recall();
        if (recall < 0.0) {
          return "n/a (absorbed)";
        }
        std::ostringstream text;
        text << std::fixed << std::setprecision(0) << recall * 100.0 << "%";
        return text.str();
      }
    }
    return "(not in grid)";
  };

  HeaderRow(out, {"mechanism", "problem", "cell", "DPOR verdict", "executions",
                  "static verdict", "chaos lost-signal recall", "agreement"});
  int disagreements = 0;
  for (const DporCellResult& cell : suite.cells) {
    std::ostringstream execs;
    execs << cell.executions;
    if (cell.verdict == DporVerdict::kProvedDeadlockFree && cell.naive_executions > 0) {
      execs << " vs " << cell.naive_executions << (cell.naive_complete ? "" : "+")
            << " naive (" << std::fixed << std::setprecision(1) << cell.reduction_ratio
            << (cell.naive_complete ? "x)" : "x+)");
    }
    std::string dpor_verdict = DporVerdictName(cell.verdict);
    if (cell.has_counterexample) {
      dpor_verdict += " (" + cell.counterexample.reason + " @ depth " +
                      std::to_string(cell.counterexample.prefix.size()) + ")";
    }

    const SolutionVerdict* verdict = static_for(cell);
    const std::string static_text =
        verdict == nullptr ? "(no static model)" : verdict->VerdictString();

    // Agreement per cell: a proved cell must not be statically flagged, and a
    // seeded-bug cell must actually yield its counterexample.
    std::string agreement;
    if (cell.seeded_bug) {
      const bool found = cell.verdict == DporVerdict::kCounterexample;
      agreement = found ? "seeded bug found" : "**seeded bug MISSED**";
      disagreements += found ? 0 : 1;
    } else if (cell.verdict == DporVerdict::kProvedDeadlockFree) {
      const bool static_agrees = verdict == nullptr || verdict->statically_safe;
      agreement = static_agrees ? "layers agree" : "**DISAGREES with static**";
      disagreements += static_agrees ? 0 : 1;
    } else {
      agreement = "inconclusive (" +
                  (cell.note.empty() ? std::string("bound") : cell.note) + ")";
    }

    Row(out, {MechanismName(cell.mechanism), cell.problem, cell.display, dpor_verdict,
              execs.str(), static_text, recall_for(cell), agreement});
  }

  std::uint64_t total_dpor = 0;
  std::uint64_t total_certified = 0;
  for (const DporCellResult& cell : suite.cells) {
    total_dpor += cell.executions;
    total_certified += cell.certified_wakeups;
  }
  out << "\nExplored " << total_dpor << " guided executions across "
      << suite.cells.size() << " cells (" << std::fixed << std::setprecision(1)
      << suite.wall_seconds << " s at " << suite.jobs << " worker"
      << (suite.jobs == 1 ? "" : "s") << "); the HB engine certified "
      << total_certified << " wakeups. "
      << (disagreements == 0
              ? "**No disagreements** between the DPOR proofs, the static verdicts, "
                "and the seeded-bug ground truth."
              : "**" + std::to_string(disagreements) +
                    " disagreement(s)** between layers — see the rows above.")
      << "\n\n";
}

void WriteTelemetryProfileSection(std::ostream& out, int workload_scale) {
  out << "## 9. Contention telemetry (self-reported)\n\n";
  MetricsRegistry registry;
  OsRuntime rt;
  rt.AttachMetrics(&registry);
  const int items = 1000 * (workload_scale < 1 ? 1 : workload_scale);

  auto drive = [&rt, items](auto& buffer) {
    TraceRecorder trace;
    BufferWorkloadParams params;
    params.producers = 2;
    params.consumers = 2;
    params.items_per_producer = items;
    params.work = 0;
    ThreadList threads = SpawnBoundedBufferWorkload(rt, buffer, trace, params);
    JoinAll(threads);
  };
  {
    SemaphoreBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }
  {
    MonitorBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }
  {
    PathBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }
  {
    SerializerBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }
  {
    CcrBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }
  {
    CspBoundedBuffer buffer(rt, 8);
    drive(buffer);
  }

  out << "Bounded-buffer workload (capacity 8, 2 producers + 2 consumers, " << items
      << " items each) per mechanism. Every quantity below was recorded by the "
         "mechanism about itself through the metrics registry; `wakeups/adm > 1` "
         "quantifies futile (re-contended) wakeups.\n\n";
  HeaderRow(out, {"mechanism", "admissions", "wait p50 ns", "wait p99 ns", "hold p50 ns",
                  "hold p99 ns", "signals", "wakeups/adm", "max queue"});
  for (const std::string& name : registry.MechanismNames()) {
    const MechanismStats* stats = registry.FindMechanism(name);
    if (stats == nullptr) {
      continue;
    }
    const std::uint64_t admissions = stats->admissions.Value();
    std::ostringstream ratio;
    ratio << std::fixed << std::setprecision(2)
          << (admissions == 0 ? 0.0
                              : static_cast<double>(stats->wakeups.Value()) /
                                    static_cast<double>(admissions));
    Row(out, {name, std::to_string(admissions),
              std::to_string(stats->wait.Percentile(50)),
              std::to_string(stats->wait.Percentile(99)),
              std::to_string(stats->hold.Percentile(50)),
              std::to_string(stats->hold.Percentile(99)),
              std::to_string(stats->signals.Value()), ratio.str(),
              std::to_string(stats->queue_depth.Max())});
  }
  out << "\n";
}

}  // namespace syneval
