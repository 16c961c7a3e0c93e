#include "syneval/fault/chaos.h"

#include <cassert>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "syneval/runtime/checkpoint.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {

namespace {

// Chaos trials run with a reduced step budget: the fault layer's stall plans burn
// scheduler steps on purpose (a stall longer than the budget turns "thread doing
// nothing in a critical section" into a diagnosable hang), so the budget must be far
// above any clean run (scale-1 workloads finish in well under 4k steps) yet small
// enough that a stalled run ends quickly. diagnose_on_step_limit makes the step-limit
// path classify the stalled run's blocked peers.
constexpr std::uint64_t kChaosMaxSteps = 20'000;

DetRuntime::Options ChaosOptions() {
  DetRuntime::Options options;
  options.max_steps = kChaosMaxSteps;
  options.diagnose_on_step_limit = true;
  return options;
}

// Chaos trials keep the trial-sized rings but raise the growth cap: stall and
// lost-signal plans run to the 20k-step budget with every event retained, and the
// busiest ring (the semaphore alarm-clock under lost-signal) peaks well past
// ForTrial()'s 8192-event cap. 65536 keeps flight_evicted at zero across the whole
// calibration grid — asserted by the golden file — at a bounded worst-case cost of a
// few MB per trial, paid only by rings that actually grow.
FlightRecorder::Options ChaosFlightOptions() {
  FlightRecorder::Options options = FlightRecorder::Options::ForTrial();
  options.max_events_per_ring = 65536;
  return options;
}

// Derives the per-trial injector seed: probability triggers then pick different
// injection points on different schedules, while (plan, schedule seed) still fully
// determines the run.
FaultPlan SeededPlan(const FaultPlan& plan, std::uint64_t schedule_seed) {
  FaultPlan seeded = plan;
  seeded.seed = plan.seed ^ (schedule_seed * 0x9E3779B97F4A7C15ULL);
  return seeded;
}

// The chaos fold of one run: injector counts, hang and oracle verdicts, and the
// postmortem of any run that hung, failed its oracle or drew a detector finding.
// `replay`, when given, also keeps the trace and the structured postmortem.
ChaosTrialOutcome RunChaosTrial(const CaseEntry& entry, int workload_scale,
                                std::uint64_t seed, const FaultPlan* plan,
                                ChaosReplayResult* replay) {
  TrialStack stack(seed, plan, ChaosOptions(), ChaosFlightOptions());
  stack.Run(entry, seed, workload_scale);
  const DetRuntime::RunResult& result = stack.result;
  ChaosTrialOutcome out;
  out.completed = result.completed;
  out.hung = result.deadlocked || result.step_limit;
  out.steps = result.steps;
  out.anomalies = stack.detector.counts().total();
  out.flight_evicted = stack.flight.evicted();
  if (stack.injector.has_value()) {
    out.injected = stack.injector->injected_count();
    out.first_injection_step = stack.injector->first_injection_nanos() / 1000;
  }
  if (result.completed) {
    out.oracle_failed = !stack.verdict.empty();
    out.report = stack.verdict;
  } else {
    out.report = result.report;
  }
  if (out.hung || out.oracle_failed || out.anomalies > 0) {
    Postmortem postmortem = BuildPostmortem(stack.flight, &stack.detector);
    out.postmortem_cause = postmortem.cause;
    out.postmortem = postmortem.ToText();
    if (replay != nullptr) {
      replay->postmortem = std::move(postmortem);
    }
  }
  if (replay != nullptr) {
    replay->events = stack.trace.Events();
  }
  return out;
}

// One chaos run as the quarantine rule sees it: a crashed run is a catastrophic seed.
void FoldCrash(const ChaosTrialOutcome& run, const SupervisorOptions& options,
               SupervisionVerdict& verdict) {
  if (!run.crashed) {
    return;
  }
  SupervisedTrialResult result;
  result.crashed = result.crash.crashed = true;
  result.crash.what = run.report;
  result.report.message = run.report;
  result.report.postmortem_cause = run.postmortem_cause;
  result.report.postmortem = run.postmortem;
  SupervisorStats attempts;
  attempts.crashed = 1;
  verdict.Fold(result, attempts, options);
}

// The calibration's cases, in its row order: per problem, two mechanism families that
// are anomaly-clean on fault-off sweeps. Readers priority uses the monitor and the
// serializer, because the semaphore variants violate priority by design under weak
// semaphores (expect_violations in the conformance suite).
constexpr std::pair<Mechanism, const char*> kChaosCases[] = {
    {Mechanism::kSemaphore, "Dijkstra bounded buffer"},
    {Mechanism::kMonitor, "Hoare bounded buffer"},
    {Mechanism::kSemaphore, "One-slot buffer (semaphores)"},
    {Mechanism::kConditionalRegion, "region when has_item flips"},
    {Mechanism::kMonitor, "Readers-priority monitor"},
    {Mechanism::kSerializer, "Readers-priority serializer"},
    {Mechanism::kSemaphore, "Strong semaphore"},
    {Mechanism::kSerializer, "FCFS serializer"},
    {Mechanism::kMonitor, "Hoare dischead"},
    {Mechanism::kSerializer, "SCAN serializer"},
    {Mechanism::kSemaphore, "Private-semaphore alarm clock"},
    {Mechanism::kMonitor, "Hoare alarm clock"},
};

}  // namespace

TrialStack::TrialStack(std::uint64_t seed, const FaultPlan* plan,
                       const DetRuntime::Options& runtime_options,
                       const FlightRecorder::Options& flight_options)
    : flight(flight_options), runtime(MakeRandomSchedule(seed), runtime_options) {
  detector.AttachTrace(&trace);
  trace.SetObserver(&detector);
  trace.SetSecondaryObserver(&flight);
  runtime.AttachAnomalyDetector(&detector);
  runtime.AttachFlightRecorder(&flight);
  if (plan != nullptr) {
    injector.emplace(SeededPlan(*plan, seed));
    runtime.AttachFaultInjector(&*injector);
  }
}

void TrialStack::Run(const CaseEntry& entry, std::uint64_t seed, int workload_scale) {
  oracle = entry.body(runtime, trace, seed, workload_scale);
  result = runtime.Run();
  if (result.completed) {
    verdict = oracle(trace.Events());
  }
}

namespace chaos_internal {

ChaosTrial MakeSupervisedChaosTrial(ChaosTrial inner, const SupervisorOptions&,
                                    std::shared_ptr<SupervisedRowState>) {
  return inner;
}

SweepRun SweepChaosRow(const ChaosTrial& trial, const FaultPlan& plan, int num_seeds,
                       std::uint64_t base_seed, const ParallelOptions& parallel,
                       const ChaosSupervision& supervision, ChaosCalibrationRow& row) {
  SeedSweep<ChaosSeedPair> sweep =
      SweepChaosSeeds(num_seeds, trial, plan, base_seed, parallel);
  // The row's one fold, in seed order. Supervised, it is also the quarantine rule: each
  // crashed run counts once, and the seeds after the one that quarantines the row are
  // skipped.
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    ChaosSeedPair& pair = sweep.results[i];
    if (supervision.enabled) {
      if (row.quarantined) {
        ++row.outcome.skipped;
        continue;
      }
      FoldCrash(pair.on, supervision.options, row);
      FoldCrash(pair.off, supervision.options, row);
    }
    sweep_internal::AccumulateChaosTrial(std::move(pair), base_seed + i, row.outcome);
  }
  return sweep;
}

}  // namespace chaos_internal

std::vector<ChaosCase> BuildChaosSuite(int workload_scale) {
  std::vector<ChaosCase> cases;
  cases.reserve(std::size(kChaosCases));
  for (const auto& [mechanism, display] : kChaosCases) {
    const CaseEntry* entry = FindCase(mechanism, display);
    assert(entry != nullptr && entry->body != nullptr);
    ChaosCase& chaos_case = cases.emplace_back();
    chaos_case.mechanism = mechanism;
    chaos_case.problem = entry->problem;
    chaos_case.display = display;
    chaos_case.trial = [entry, workload_scale](std::uint64_t seed, const FaultPlan* plan) {
      return RunChaosTrial(*entry, workload_scale, seed, plan, nullptr);
    };
    chaos_case.replay = [entry, workload_scale](std::uint64_t seed, const FaultPlan* plan) {
      ChaosReplayResult replay;
      replay.outcome = RunChaosTrial(*entry, workload_scale, seed, plan, &replay);
      return replay;
    };
  }
  return cases;
}

std::vector<ChaosFaultFamily> CalibrationFaultFamilies() {
  return {
      // Up to two seeded-probability signal drops per run. Matching either notify
      // flavour is essential: only semaphore V and Mesa Signal use NotifyOne — every
      // other mechanism family here broadcasts.
      {"lost-signal", "drop-signal:prob=0.25,fires=2"},
      // A stall longer than the chaos step budget: the first critical section entered
      // never ends, so every peer needing that lock starves until the step limit
      // diagnoses them.
      {"stall", "stall:nth=1,steps=30000"},
  };
}

double ChaosCalibrationTable::MinRecall() const {
  double min_recall = 1.0;
  for (const ChaosCalibrationRow& row : rows) {
    const double recall = row.outcome.Recall();
    if (recall >= 0.0 && recall < min_recall) {
      min_recall = recall;
    }
  }
  return min_recall;
}

int ChaosCalibrationTable::TotalFalsePositives() const {
  int total = 0;
  for (const ChaosCalibrationRow& row : rows) {
    total += row.outcome.clean_anomalies;
  }
  return total;
}

int ChaosCalibrationTable::QuarantinedRows() const {
  int count = 0;
  for (const ChaosCalibrationRow& row : rows) {
    count += row.quarantined ? 1 : 0;
  }
  return count;
}

std::string ChaosCalibrationTable::QuarantineJson() const {
  std::vector<std::string> cells;
  for (const ChaosCalibrationRow& row : rows) {
    std::ostringstream out;
    out << "{\"id\": \"" << JsonEscape(row.problem + "/" + row.display + "/" + row.fault)
        << "\", \"quarantined\": " << (row.quarantined ? "true" : "false")
        << ", \"completed_seeds\": " << row.outcome.runs
        << ", \"skipped_seeds\": " << row.outcome.skipped
        << ", \"harmful\": " << row.outcome.harmful
        << ", \"detected_harmful\": " << row.outcome.detected_harmful;
    if (row.quarantined) {
      out << ", \"reason\": \"" << JsonEscape(row.quarantine_reason) << "\"";
    }
    if (!row.last_postmortem_cause.empty() || !row.last_postmortem.empty()) {
      out << ", \"postmortem_cause\": \"" << JsonEscape(row.last_postmortem_cause)
          << "\", \"postmortem\": \"" << JsonEscape(row.last_postmortem) << "\"";
    }
    out << "}";
    cells.push_back(out.str());
  }
  return QuarantineJsonDocument(QuarantinedRows(), supervisor, cells);
}

bool ChaosCalibrationTable::WriteQuarantineFile(const std::string& path) const {
  return WriteFileAtomically(path, QuarantineJson());
}

ChaosCalibrationTable RunChaosCalibration(int seeds_per_case, std::uint64_t base_seed,
                                          int workload_scale,
                                          const ParallelOptions& parallel,
                                          const ChaosSupervision& supervision) {
  const auto grid_start = std::chrono::steady_clock::now();
  ChaosCalibrationTable table;
  table.seeds_per_case = seeds_per_case;
  table.base_seed = base_seed;
  const std::vector<ChaosFaultFamily> families = CalibrationFaultFamilies();
  for (const ChaosCase& chaos_case : BuildChaosSuite(workload_scale)) {
    for (const ChaosFaultFamily& family : families) {
      const FaultPlan plan = MustParseFaultPlan(family.plan_text, /*seed=*/base_seed);
      ChaosCalibrationRow row;
      row.problem = chaos_case.problem;
      row.mechanism = chaos_case.mechanism;
      row.display = chaos_case.display;
      row.fault = family.name;
      row.plan = family.plan_text;
      // Per-row key namespace under checkpointing (see RunConformanceSuite): the
      // chunk keys alone cannot distinguish rows, and the scope pins the scale.
      ParallelOptions scoped = parallel;
      if (scoped.checkpoint != nullptr) {
        scoped.checkpoint_scope += "/chaos/" + chaos_case.problem + "/" +
                                   chaos_case.display + "/" + family.name + "/scale" +
                                   std::to_string(workload_scale);
      }
      const SweepRun sweep = chaos_internal::SweepChaosRow(
          chaos_case.trial, plan, seeds_per_case, base_seed, scoped, supervision, row);
      table.supervisor += row.stats;
      table.jobs = sweep.jobs;
      MergeWorkerTelemetry(table.workers, sweep.workers);
      table.rows.push_back(std::move(row));
    }
  }
  table.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - grid_start).count();
  return table;
}

std::optional<ChaosReplayResult> ReplayChaosTrial(const std::string& problem,
                                                  Mechanism mechanism,
                                                  const std::string& fault_family,
                                                  std::uint64_t seed,
                                                  std::uint64_t base_seed,
                                                  int workload_scale) {
  const ChaosFaultFamily* family = nullptr;
  const std::vector<ChaosFaultFamily> families = CalibrationFaultFamilies();
  for (const ChaosFaultFamily& candidate : families) {
    if (candidate.name == fault_family) {
      family = &candidate;
    }
  }
  if (!fault_family.empty() && family == nullptr) {
    return std::nullopt;
  }
  for (const ChaosCase& chaos_case : BuildChaosSuite(workload_scale)) {
    if (chaos_case.problem != problem || chaos_case.mechanism != mechanism) {
      continue;
    }
    if (family == nullptr) {
      return chaos_case.replay(seed, nullptr);
    }
    const FaultPlan plan = MustParseFaultPlan(family->plan_text, /*seed=*/base_seed);
    return chaos_case.replay(seed, &plan);
  }
  return std::nullopt;
}

}  // namespace syneval
