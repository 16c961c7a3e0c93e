#include "syneval/fault/chaos.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/injector.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/problems/oracles.h"
#include "syneval/problems/virtual_disk.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/trace/recorder.h"

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

// One chaos trial's stack: detector, trace, flight recorder, the injector when a plan
// is given, the runtime, and the supervision seam. The attachments are declared before
// the runtime so they outlive it (runtime.h). Mirrors conformance's TrialProbe with the
// fault seam added.
struct ChaosStack {
  ChaosStack(std::uint64_t seed, const FaultPlan* plan)
      : runtime(MakeRandomSchedule(seed), ChaosOptions()) {
    detector.AttachTrace(&trace);
    trace.SetObserver(&detector);
    trace.SetSecondaryObserver(&flight);
    runtime.AttachAnomalyDetector(&detector);
    runtime.AttachFlightRecorder(&flight);
    if (plan != nullptr) {
      injector.emplace(SeededPlan(*plan, seed));
      runtime.AttachFaultInjector(&*injector);
    }
    // Supervision seam, registered once the stack is wired: the runtime's abort goes
    // to the thread's installed TrialAbortSlot (a no-op on unsupervised runs — see
    // runtime/supervisor.h). The abort path diagnoses and tears down through Run(), so
    // Finish sees a normal aborted result.
    abort_scope.emplace([this] { runtime.RequestAbort(); },
                        [this] { return ObservePostmortem(flight, detector); });
  }

  // Folds the run and the oracle verdict ("" unless the run completed) into the
  // trial's outcome, with the full capture kept for replay.
  ChaosReplayResult Finish(const DetRuntime::RunResult& result,
                           const std::string& oracle_verdict) {
    ChaosReplayResult replay;
    ChaosTrialOutcome& out = replay.outcome;
    out.completed = result.completed;
    // A supervisor-aborted run is a hang for calibration purposes: the reaper only
    // fires past the wall-clock deadline, and routing the reap through the normal
    // result keeps its injector counts and diagnosis in the fold — a reaped genuine
    // hang still counts toward recall instead of vanishing.
    out.hung = result.deadlocked || result.step_limit || result.aborted;
    out.steps = result.steps;
    out.anomalies = detector.counts().total();
    out.flight_evicted = flight.evicted();
    if (injector.has_value()) {
      out.injected = injector->injected_count();
      out.first_injection_step = injector->first_injection_nanos() / 1000;
    }
    if (result.completed) {
      out.oracle_failed = !oracle_verdict.empty();
      out.report = oracle_verdict;
    } else {
      out.report = result.report;
    }
    if (out.hung || out.oracle_failed || out.anomalies > 0) {
      replay.postmortem = BuildPostmortem(flight, &detector);
      out.postmortem_cause = replay.postmortem.cause;
      out.postmortem = replay.postmortem.ToText();
    }
    replay.events = trace.Events();
    return replay;
  }

  AnomalyDetector detector;
  TraceRecorder trace;
  FlightRecorder flight{ChaosFlightOptions()};
  std::optional<FaultInjector> injector;
  DetRuntime runtime;
  std::optional<TrialAbortScope> abort_scope;
};

// Builds a ChaosCase from its rich replay function; the sweep-facing trial is the same
// run with the event capture discarded.
ChaosCase MakeCase(Mechanism mechanism, std::string problem, std::string display,
                   ChaosReplayFn replay) {
  ChaosCase chaos_case;
  chaos_case.mechanism = mechanism;
  chaos_case.problem = std::move(problem);
  chaos_case.display = std::move(display);
  chaos_case.trial = [replay](std::uint64_t seed, const FaultPlan* plan) {
    return replay(seed, plan).outcome;
  };
  chaos_case.replay = std::move(replay);
  return chaos_case;
}

// Generic chaos trial: fresh stack, solution, workload, run, oracle.
template <typename SolutionT>
ChaosReplayFn MakeChaosTrial(
    std::function<std::unique_ptr<SolutionT>(Runtime&)> make,
    std::function<ThreadList(Runtime&, SolutionT&, TraceRecorder&)> spawn,
    std::function<std::string(const std::vector<Event>&)> check) {
  return [make = std::move(make), spawn = std::move(spawn), check = std::move(check)](
             std::uint64_t seed, const FaultPlan* plan) -> ChaosReplayResult {
    ChaosStack stack(seed, plan);
    std::unique_ptr<SolutionT> solution = make(stack.runtime);
    ThreadList threads = spawn(stack.runtime, *solution, stack.trace);
    const DetRuntime::RunResult result = stack.runtime.Run();
    return stack.Finish(result,
                        result.completed ? check(stack.trace.Events()) : std::string());
  };
}

struct ChaosSuiteBuilder {
  int scale = 1;
  std::vector<ChaosCase> cases;

  void AddBoundedBuffer(Mechanism mechanism, const std::string& display,
                        std::function<std::unique_ptr<BoundedBufferIface>(Runtime&)> make,
                        int capacity) {
    BufferWorkloadParams params;
    params.items_per_producer = 4 * scale;
    cases.push_back(MakeCase(
        mechanism, "bounded-buffer", display,
        MakeChaosTrial<BoundedBufferIface>(
            std::move(make),
            [params](Runtime& rt, BoundedBufferIface& buffer, TraceRecorder& trace) {
              return SpawnBoundedBufferWorkload(rt, buffer, trace, params);
            },
            [capacity](const std::vector<Event>& events) {
              return CheckBoundedBuffer(events, capacity);
            })));
  }

  void AddOneSlot(Mechanism mechanism, const std::string& display,
                  std::function<std::unique_ptr<OneSlotBufferIface>(Runtime&)> make) {
    BufferWorkloadParams params;
    params.items_per_producer = 4 * scale;
    cases.push_back(MakeCase(
        mechanism, "one-slot-buffer", display,
        MakeChaosTrial<OneSlotBufferIface>(
            std::move(make),
            [params](Runtime& rt, OneSlotBufferIface& buffer, TraceRecorder& trace) {
              return SpawnOneSlotBufferWorkload(rt, buffer, trace, params);
            },
            [](const std::vector<Event>& events) { return CheckOneSlotBuffer(events); })));
  }

  void AddRw(Mechanism mechanism, const std::string& display,
             std::function<std::unique_ptr<ReadersWritersIface>(Runtime&)> make) {
    RwWorkloadParams params;
    params.ops_per_reader = 3 * scale;
    params.ops_per_writer = 2 * scale;
    cases.push_back(MakeCase(
        mechanism, "rw-readers-priority", display,
        MakeChaosTrial<ReadersWritersIface>(
            std::move(make),
            [params](Runtime& rt, ReadersWritersIface& rw, TraceRecorder& trace) {
              return SpawnReadersWritersWorkload(rt, rw, trace, params);
            },
            [](const std::vector<Event>& events) {
              return CheckReadersWriters(events, RwPolicy::kReadersPriority, 8,
                                         RwStrictness::kStrict);
            })));
  }

  void AddFcfs(Mechanism mechanism, const std::string& display,
               std::function<std::unique_ptr<FcfsResourceIface>(Runtime&)> make) {
    FcfsWorkloadParams params;
    params.ops_per_thread = 3 * scale;
    cases.push_back(MakeCase(
        mechanism, "fcfs-resource", display,
        MakeChaosTrial<FcfsResourceIface>(
            std::move(make),
            [params](Runtime& rt, FcfsResourceIface& resource, TraceRecorder& trace) {
              return SpawnFcfsWorkload(rt, resource, trace, params);
            },
            [](const std::vector<Event>& events) { return CheckFcfsResource(events); })));
  }

  void AddDiskScan(Mechanism mechanism, const std::string& display,
                   std::function<std::unique_ptr<DiskSchedulerIface>(Runtime&)> make) {
    DiskWorkloadParams params;
    params.requests_per_thread = 3 * scale;
    params.tracks = 100;
    ChaosReplayFn replay = [make = std::move(make), params](
                               std::uint64_t seed,
                               const FaultPlan* plan) -> ChaosReplayResult {
      ChaosStack stack(seed, plan);
      VirtualDisk disk(params.tracks, 0);
      std::unique_ptr<DiskSchedulerIface> scheduler = make(stack.runtime);
      DiskWorkloadParams seeded = params;
      seeded.seed = seed;
      ThreadList threads =
          SpawnDiskWorkload(stack.runtime, *scheduler, disk, stack.trace, seeded);
      const DetRuntime::RunResult result = stack.runtime.Run();
      std::string verdict;
      if (result.completed) {
        verdict = disk.violations() != 0 ? "virtual disk observed concurrent access"
                                         : CheckScanDiskSchedule(stack.trace.Events(), 0);
      }
      return stack.Finish(result, verdict);
    };
    cases.push_back(MakeCase(mechanism, "disk-scan", display, std::move(replay)));
  }

  void AddAlarm(Mechanism mechanism, const std::string& display,
                std::function<std::unique_ptr<AlarmClockIface>(Runtime&)> make) {
    AlarmWorkloadParams params;
    params.naps_per_sleeper = 2 * scale;
    cases.push_back(MakeCase(
        mechanism, "alarm-clock", display,
        MakeChaosTrial<AlarmClockIface>(
            std::move(make),
            [params](Runtime& rt, AlarmClockIface& clock, TraceRecorder& trace) {
              return SpawnAlarmClockWorkload(rt, clock, trace, params);
            },
            [](const std::vector<Event>& events) { return CheckAlarmClock(events, 0); })));
  }
};

}  // namespace

// ---- Supervised chaos trials --------------------------------------------------------

namespace chaos_internal {

ChaosTrial MakeSupervisedChaosTrial(ChaosTrial inner, const SupervisorOptions& sup,
                                    std::shared_ptr<SupervisedRowState> state) {
  return [inner = std::move(inner), sup, state = std::move(state)](
             std::uint64_t seed, const FaultPlan* plan) -> ChaosTrialOutcome {
    ChaosTrialOutcome out;
    const std::optional<SupervisedTrialResult> last = SuperviseSeed(*state, sup, [&] {
      out = ChaosTrialOutcome();
      TrialObservation harvest;
      SupervisedTrialResult attempt =
          RunInProcessAttempt(sup, [&] { out = inner(seed, plan); }, &harvest);
      if (attempt.crashed) {
        // Synthesize what the unsupervised sweep's catch block would have folded, so
        // the row's denominators stay in step even on the retry-exhausted path.
        out = ChaosTrialOutcome();
        out.hung = true;
        out.report = "trial aborted: " + attempt.crash.what;
      } else if (attempt.reaped && out.postmortem.empty() && !harvest.text.empty()) {
        // The reaped trial still returned through DetRuntime's abort path, so `out`
        // carries its injector counts, step count, and diagnosis; the reaper's
        // pre-abort harvest only fills in a missing postmortem.
        out.postmortem_cause = harvest.cause;
        out.postmortem = harvest.text;
      }
      attempt.report.postmortem_cause = out.postmortem_cause;
      attempt.report.postmortem = out.postmortem;
      return attempt;
    });
    if (!last) {
      ChaosTrialOutcome skipped;  // Quarantined row: nothing runs, fault-off included.
      skipped.skipped = true;
      return skipped;
    }
    return out;
  };
}

}  // namespace chaos_internal

std::vector<ChaosCase> BuildChaosSuite(int workload_scale) {
  ChaosSuiteBuilder b;
  b.scale = workload_scale;

  b.AddBoundedBuffer(Mechanism::kSemaphore, "Dijkstra bounded buffer",
                     [](Runtime& rt) { return std::make_unique<SemaphoreBoundedBuffer>(rt, 3); },
                     3);
  b.AddBoundedBuffer(Mechanism::kMonitor, "Hoare bounded buffer",
                     [](Runtime& rt) { return std::make_unique<MonitorBoundedBuffer>(rt, 3); },
                     3);

  b.AddOneSlot(Mechanism::kSemaphore, "One-slot buffer (semaphores)",
               [](Runtime& rt) { return std::make_unique<SemaphoreOneSlotBuffer>(rt); });
  b.AddOneSlot(Mechanism::kConditionalRegion, "region when has_item flips",
               [](Runtime& rt) { return std::make_unique<CcrOneSlotBuffer>(rt); });

  // Readers priority: the semaphore variants violate priority by design under weak
  // semaphores (expect_violations in the conformance suite), so the clean monitor and
  // serializer solutions carry the calibration here.
  b.AddRw(Mechanism::kMonitor, "Readers-priority monitor",
          [](Runtime& rt) { return std::make_unique<MonitorRwReadersPriority>(rt); });
  b.AddRw(Mechanism::kSerializer, "Readers-priority serializer",
          [](Runtime& rt) { return std::make_unique<SerializerRwReadersPriority>(rt); });

  b.AddFcfs(Mechanism::kSemaphore, "Strong semaphore",
            [](Runtime& rt) { return std::make_unique<SemaphoreFcfsResource>(rt); });
  b.AddFcfs(Mechanism::kSerializer, "FCFS serializer",
            [](Runtime& rt) { return std::make_unique<SerializerFcfsResource>(rt); });

  b.AddDiskScan(Mechanism::kMonitor, "Hoare dischead",
                [](Runtime& rt) { return std::make_unique<MonitorDiskScheduler>(rt, 0); });
  b.AddDiskScan(Mechanism::kSerializer, "SCAN serializer",
                [](Runtime& rt) { return std::make_unique<SerializerDiskScheduler>(rt, 0); });

  b.AddAlarm(Mechanism::kSemaphore, "Private-semaphore alarm clock",
             [](Runtime& rt) { return std::make_unique<SemaphoreAlarmClock>(rt); });
  b.AddAlarm(Mechanism::kMonitor, "Hoare alarm clock",
             [](Runtime& rt) { return std::make_unique<MonitorAlarmClock>(rt); });

  return b.cases;
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
      ChaosTrial trial = chaos_case.trial;
      std::shared_ptr<chaos_internal::SupervisedRowState> row_state;
      if (supervision.enabled) {
        row_state = std::make_shared<chaos_internal::SupervisedRowState>();
        trial = chaos_internal::MakeSupervisedChaosTrial(chaos_case.trial,
                                                         supervision.options, row_state);
      }
      ParallelChaosResult sweep =
          ParallelSweepChaos(seeds_per_case, trial, plan, base_seed, scoped);
      row.outcome = std::move(sweep.outcome);
      if (row_state != nullptr) {
        std::lock_guard<std::mutex> lock(row_state->mu);
        row.quarantined = row_state->quarantined;
        row.quarantine_reason = row_state->quarantine_reason;
        row.last_postmortem_cause = row_state->last_postmortem_cause;
        row.last_postmortem = row_state->last_postmortem;
        table.supervisor += row_state->stats;
      }
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
