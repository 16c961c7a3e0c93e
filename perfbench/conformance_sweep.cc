// conformance_sweep: BuildConformanceSuite's cases swept serially (jobs = 1) over a
// fixed seed range, [seed, seed + seeds_per_pass), pass after pass.
//
// Every trial goes through RunConformanceCase, the suite's own sweep entry point;
// the benchmark only wraps each case's trial callback in a timer. End to end:
// throughput_per_s is trials per second and latency_p50_ms / latency_p99_ms are
// per-trial wall times.
//
// Traced, a phase probe rebuilds one case per problem from the public parts the
// suite itself uses (DetRuntime, MakeRandomSchedule, detector + trace + flight
// probes, the solution, Spawn*Workload, Check*, BuildPostmortem) and times each
// phase. Its fidelity check compares every probe trial with the suite's case.trial
// on the same seed.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "syneval/anomaly/detector.h"
#include "syneval/core/conformance.h"
#include "syneval/problems/oracles.h"
#include "syneval/problems/virtual_disk.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/solutions/dining_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/smokers_solutions.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/postmortem.h"

namespace perfbench {

namespace {

using namespace syneval;

// Seeds per pass; pass k sweeps [seed + k * kSeedsPerPass, seed + (k + 1) *
// kSeedsPerPass), so a run covers fresh schedules in every pass.
constexpr int kSeedsPerPass = 10;
// A case the paper predicts to violate its oracle must do so on some schedule. When
// the run's own seeds show no violation (the naive dining table deadlocks on roughly
// one schedule in eight), the check sweeps up to this many further seeds.
constexpr int kViolationSearchSeeds = 200;

using TrialFn = std::function<TrialReport(std::uint64_t)>;

struct PassResult {
  std::vector<SweepOutcome> outcomes;  // Per case.
  std::int64_t trials = 0;
  double wall_s = 0;
};

// One pass: every case swept over `seeds` seeds from `base_seed`. `wrap` may decorate
// each case's trial (the per-trial timer); null runs the suite's trials untouched.
// `after_case`, when given, runs after each case (the set-up sampler).
PassResult SweepPass(const std::vector<ConformanceCase>& suite, int seeds,
                     std::uint64_t base_seed,
                     const std::function<TrialFn(const ConformanceCase&)>& wrap,
                     const ParallelOptions& parallel = {},
                     const std::function<void()>& after_case = nullptr) {
  PassResult pass;
  double sampling_s = 0;
  const Clock::time_point start = Clock::now();
  for (const ConformanceCase& suite_case : suite) {
    ConformanceCase swept = suite_case;
    if (wrap) swept.trial = wrap(suite_case);
    ConformanceResult result = RunConformanceCase(swept, seeds, base_seed, parallel);
    pass.trials += result.outcome.runs;
    pass.outcomes.push_back(std::move(result.outcome));
    if (after_case) {
      const Clock::time_point sample_start = Clock::now();
      after_case();
      sampling_s += SecondsSince(sample_start);
    }
  }
  pass.wall_s = SecondsSince(start) - sampling_s;  // The sampler's time is not the sweep's.
  return pass;
}

// Conformance: clean cases fail on no seed, and predicted violations show up. The
// determinism contract: the first pass swept again on a 2-worker pool gives the same
// failing and anomalous seeds for every case.
void CheckSweep(const std::vector<ConformanceCase>& suite, const std::vector<PassResult>& passes,
                std::uint64_t base_seed, int seeds, Result& result) {
  const std::uint64_t swept = static_cast<std::uint64_t>(passes.size()) * seeds;
  std::string violations = "predicted violations (failing seeds of " + std::to_string(swept) + "):";
  for (std::size_t c = 0; c < suite.size(); ++c) {
    int failures = 0;
    for (const PassResult& pass : passes) failures += pass.outcomes[c].failures;
    const std::string name = "conformance_sweep: case '" + suite[c].display + "' (" +
                             suite[c].problem + ")";
    if (!suite[c].expect_violations) {
      result.Check(failures == 0, name + " failed on " + std::to_string(failures) + " seeds");
      continue;
    }
    violations += " " + std::to_string(failures) + " " + suite[c].display + ";";
    if (failures == 0) {
      failures = RunConformanceCase(suite[c], kViolationSearchSeeds, base_seed + swept)
                     .outcome.failures;
    }
    result.Check(failures > 0, name + " never showed its predicted violation");
  }
  result.Note(violations);

  ParallelOptions parallel;
  parallel.jobs = 2;
  const PassResult again = SweepPass(suite, seeds, base_seed, nullptr, parallel);
  for (std::size_t c = 0; c < suite.size(); ++c) {
    const SweepOutcome& a = passes.front().outcomes[c];
    const SweepOutcome& b = again.outcomes[c];
    result.Check(a.runs == b.runs && a.failing_seeds == b.failing_seeds &&
                     a.anomalous_seeds == b.anomalous_seeds &&
                     a.first_failure == b.first_failure,
                 "conformance_sweep: case '" + suite[c].display +
                     "' differs between a serial and a 2-worker sweep of the same seeds");
  }
}

// --- the phase probe ---

struct Phases {
  double det_construct_s = 0;
  double probe_construct_s = 0;
  double solution_construct_s = 0;
  double spawn_s = 0;
  double run_s = 0;
  double oracle_s = 0;
  double report_s = 0;
  double postmortem_s = 0;
  double teardown_s = 0;
  double steps = 0;
  double events = 0;
  int postmortems = 0;
  int trials = 0;
};

// The suite's per-trial probe, assembled from the same parts in the same order.
struct Probe {
  explicit Probe(DetRuntime& runtime) {
    detector.AttachTrace(&trace);
    trace.SetObserver(&detector);
    trace.SetSecondaryObserver(&flight);
    runtime.AttachAnomalyDetector(&detector);
    runtime.AttachFlightRecorder(&flight);
  }
  AnomalyDetector detector;
  TraceRecorder trace;
  FlightRecorder flight{FlightRecorder::Options::ForTrial()};
};

struct ProbeTrial {
  TrialReport report;
  std::vector<Event> events;
};

double Lap(Clock::time_point& mark) {
  const Clock::time_point now = Clock::now();
  const double elapsed = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return elapsed;
}

// One hand-assembled trial with a timer between phases. `make` builds the solution,
// `spawn` starts the workload and `check` is the problem's oracle.
template <typename Solution>
ProbeTrial RunPhased(std::uint64_t seed, Phases& phases,
                     const std::function<std::unique_ptr<Solution>(Runtime&)>& make,
                     const std::function<ThreadList(Runtime&, Solution&, TraceRecorder&,
                                                    std::uint64_t)>& spawn,
                     const std::function<std::string(const std::vector<Event>&)>& check) {
  ProbeTrial out;
  Clock::time_point mark = Clock::now();
  auto runtime = std::make_unique<DetRuntime>(MakeRandomSchedule(seed));
  phases.det_construct_s += Lap(mark);
  auto probe = std::make_unique<Probe>(*runtime);
  phases.probe_construct_s += Lap(mark);
  std::unique_ptr<Solution> solution = make(*runtime);
  phases.solution_construct_s += Lap(mark);
  ThreadList threads = spawn(*runtime, *solution, probe->trace, seed);
  phases.spawn_s += Lap(mark);
  const DetRuntime::RunResult run = runtime->Run();
  phases.run_s += Lap(mark);

  TrialReport& report = out.report;
  report.anomalies = probe->detector.counts();
  report.anomaly_report = probe->detector.Report("; ");
  report.flight_evicted = probe->flight.evicted();
  phases.report_s += Lap(mark);
  if (!run.completed) {
    report.message = "runtime: " + run.report;
  } else {
    report.message = check(probe->trace.Events());
    if (report.message.empty() && !report.anomalies.Clean()) {
      report.message = "anomaly: " + report.anomaly_report;
    }
  }
  phases.oracle_s += Lap(mark);
  if (!run.completed || !report.anomalies.Clean()) {
    Postmortem postmortem = BuildPostmortem(probe->flight, &probe->detector);
    report.postmortem_cause = postmortem.cause;
    report.postmortem = postmortem.ToText();
    phases.postmortem_s += Lap(mark);
    ++phases.postmortems;
  }
  out.events = probe->trace.Events();
  Lap(mark);
  threads.clear();
  solution.reset();
  probe.reset();
  runtime.reset();
  phases.teardown_s += Lap(mark);
  phases.steps += static_cast<double>(run.steps);
  phases.events += static_cast<double>(out.events.size());
  ++phases.trials;
  return out;
}

struct ProbeCase {
  std::string problem;
  std::string display;  // The suite case it mirrors.
  std::function<ProbeTrial(std::uint64_t, Phases&)> run;
};

template <typename Solution>
ProbeCase MakeProbeCase(
    std::string problem, std::string display,
    std::function<std::unique_ptr<Solution>(Runtime&)> make,
    std::function<ThreadList(Runtime&, Solution&, TraceRecorder&, std::uint64_t)> spawn,
    std::function<std::string(const std::vector<Event>&)> check) {
  ProbeCase c;
  c.problem = std::move(problem);
  c.display = std::move(display);
  c.run = [make = std::move(make), spawn = std::move(spawn), check = std::move(check)](
              std::uint64_t seed, Phases& phases) {
    return RunPhased<Solution>(seed, phases, make, spawn, check);
  };
  return c;
}

template <typename T, typename... CtorArgs>
auto Maker(CtorArgs... ctor_args) {
  return [=](Runtime& rt) { return std::make_unique<T>(rt, ctor_args...); };
}

// One case per problem, with the suite's workload parameters at scale 1
// (core/conformance.cc, SuiteBuilder).
std::vector<ProbeCase> BuildProbeCases() {
  RwWorkloadParams rw;
  rw.ops_per_reader = 3;
  rw.ops_per_writer = 2;
  BufferWorkloadParams buffer;
  buffer.items_per_producer = 4;
  auto rw_case = [rw](std::string problem, std::string display,
                      std::function<std::unique_ptr<ReadersWritersIface>(Runtime&)> make,
                      RwPolicy policy) {
    return MakeProbeCase<ReadersWritersIface>(
        std::move(problem), std::move(display), std::move(make),
        [rw](Runtime& rt, ReadersWritersIface& s, TraceRecorder& trace, std::uint64_t) {
          return SpawnReadersWritersWorkload(rt, s, trace, rw);
        },
        [policy](const std::vector<Event>& events) {
          return CheckReadersWriters(events, policy, 8, RwStrictness::kStrict);
        });
  };

  std::vector<ProbeCase> cases;
  cases.push_back(MakeProbeCase<BoundedBufferIface>(
      "bounded-buffer", "Hoare bounded buffer", Maker<MonitorBoundedBuffer>(3),
      [buffer](Runtime& rt, BoundedBufferIface& s, TraceRecorder& trace, std::uint64_t) {
        return SpawnBoundedBufferWorkload(rt, s, trace, buffer);
      },
      [](const std::vector<Event>& events) { return CheckBoundedBuffer(events, 3); }));
  cases.push_back(MakeProbeCase<OneSlotBufferIface>(
      "one-slot-buffer", "One-slot buffer (monitor)", Maker<MonitorOneSlotBuffer>(),
      [buffer](Runtime& rt, OneSlotBufferIface& s, TraceRecorder& trace, std::uint64_t) {
        return SpawnOneSlotBufferWorkload(rt, s, trace, buffer);
      },
      [](const std::vector<Event>& events) { return CheckOneSlotBuffer(events); }));
  cases.push_back(rw_case("rw-readers-priority", "Readers-priority monitor",
                          Maker<MonitorRwReadersPriority>(), RwPolicy::kReadersPriority));
  cases.push_back(rw_case("rw-writers-priority", "Writers-priority monitor",
                          Maker<MonitorRwWritersPriority>(), RwPolicy::kWritersPriority));
  cases.push_back(rw_case("rw-fcfs", "FCFS monitor (two-stage queuing)", Maker<MonitorRwFcfs>(),
                          RwPolicy::kFcfs));
  cases.push_back(rw_case("rw-fair", "Fair monitor (Hoare 1974)", Maker<MonitorRwFair>(),
                          RwPolicy::kFair));
  cases.push_back(MakeProbeCase<FcfsResourceIface>(
      "fcfs-resource", "FCFS monitor", Maker<MonitorFcfsResource>(),
      [](Runtime& rt, FcfsResourceIface& s, TraceRecorder& trace, std::uint64_t) {
        FcfsWorkloadParams params;
        params.ops_per_thread = 3;
        return SpawnFcfsWorkload(rt, s, trace, params);
      },
      [](const std::vector<Event>& events) { return CheckFcfsResource(events); }));
  // The disk cases own a VirtualDisk beside the scheduler, built after the probe.
  struct DiskRig {
    VirtualDisk disk{100, 0};
    std::unique_ptr<DiskSchedulerIface> scheduler;
  };
  for (const bool scan : {true, false}) {
    auto make = scan ? std::function<std::unique_ptr<DiskSchedulerIface>(Runtime&)>(
                           Maker<MonitorDiskScheduler>(0))
                     : std::function<std::unique_ptr<DiskSchedulerIface>(Runtime&)>(
                           Maker<PathDiskFcfs>());
    auto rig_disk = std::make_shared<VirtualDisk*>(nullptr);
    cases.push_back(MakeProbeCase<DiskRig>(
        scan ? "disk-scan" : "disk-fcfs",
        scan ? "Hoare dischead" : "path disk end (FCFS only)",
        [make](Runtime& rt) {
          auto rig = std::make_unique<DiskRig>();
          rig->scheduler = make(rt);
          return rig;
        },
        [rig_disk](Runtime& rt, DiskRig& rig, TraceRecorder& trace, std::uint64_t seed) {
          DiskWorkloadParams params;
          params.requests_per_thread = 3;
          params.tracks = 100;
          params.seed = seed;
          *rig_disk = &rig.disk;
          return SpawnDiskWorkload(rt, *rig.scheduler, rig.disk, trace, params);
        },
        [rig_disk, scan](const std::vector<Event>& events) {
          if ((*rig_disk)->violations() != 0) {
            return std::string("virtual disk observed concurrent access");
          }
          return scan ? CheckScanDiskSchedule(events, 0) : CheckFcfsDiskSchedule(events);
        }));
  }
  cases.push_back(MakeProbeCase<AlarmClockIface>(
      "alarm-clock", "Hoare alarm clock", Maker<MonitorAlarmClock>(),
      [](Runtime& rt, AlarmClockIface& s, TraceRecorder& trace, std::uint64_t) {
        AlarmWorkloadParams params;
        params.naps_per_sleeper = 2;
        return SpawnAlarmClockWorkload(rt, s, trace, params);
      },
      [](const std::vector<Event>& events) { return CheckAlarmClock(events, 0); }));
  // The naive table deadlocks on some schedules, so the probe also times postmortems.
  cases.push_back(MakeProbeCase<DiningTableIface>(
      "dining-philosophers", "Naive forks (predicted deadlock)", Maker<SemaphoreDiningNaive>(5),
      [](Runtime& rt, DiningTableIface& s, TraceRecorder& trace, std::uint64_t) {
        DiningWorkloadParams params;
        params.meals_per_philosopher = 2;
        return SpawnDiningWorkload(rt, s, trace, params);
      },
      [](const std::vector<Event>& events) { return CheckDiningPhilosophers(events, 5); }));
  cases.push_back(MakeProbeCase<SjnAllocatorIface>(
      "sjn-allocator", "Hoare scheduled-wait SJN", Maker<MonitorSjnAllocator>(),
      [](Runtime& rt, SjnAllocatorIface& s, TraceRecorder& trace, std::uint64_t) {
        SjnWorkloadParams params;
        params.requests_per_thread = 2;
        return SpawnSjnWorkload(rt, s, trace, params);
      },
      [](const std::vector<Event>& events) { return CheckSjnAllocator(events); }));
  cases.push_back(MakeProbeCase<SmokersTableIface>(
      "cigarette-smokers", "Monitor smokers", Maker<MonitorSmokers>(),
      [](Runtime& rt, SmokersTableIface& s, TraceRecorder& trace, std::uint64_t seed) {
        SmokersWorkloadParams params;
        params.rounds = 5;
        params.seed = seed;
        return SpawnSmokersWorkload(rt, s, trace, params);
      },
      [](const std::vector<Event>& events) { return CheckSmokers(events); }));
  return cases;
}

bool SameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].op_instance != b[i].op_instance ||
        a[i].thread != b[i].thread || a[i].kind != b[i].kind || a[i].op != b[i].op ||
        a[i].param != b[i].param || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

bool SameReport(const TrialReport& a, const TrialReport& b) {
  return a.message == b.message && a.anomalies.deadlocks == b.anomalies.deadlocks &&
         a.anomalies.lost_wakeups == b.anomalies.lost_wakeups &&
         a.anomalies.stuck_waiters == b.anomalies.stuck_waiters &&
         a.anomalies.starvations == b.anomalies.starvations &&
         a.anomaly_report == b.anomaly_report && a.postmortem_cause == b.postmortem_cause &&
         a.postmortem == b.postmortem && a.flight_evicted == b.flight_evicted;
}

}  // namespace

void RunConformanceSweep(const Args& args, Result& result) {
  const ScopedCpus pin(1);
  SetupSampler setup([] { (void)BuildConformanceSuite(1); });
  setup.Sample(10);
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);

  std::vector<double> trial_ms;
  const auto timed = [&trial_ms](const ConformanceCase& c) -> TrialFn {
    return [&trial_ms, trial = c.trial](std::uint64_t seed) {
      const Clock::time_point start = Clock::now();
      TrialReport report = trial(seed);
      trial_ms.push_back(SecondsSince(start) * 1e3);
      return report;
    };
  };
  std::vector<PassResult> passes;
  std::vector<double> pass_throughputs;
  std::int64_t trials = 0;
  double wall = 0;
  const Usage before = ReadUsage();
  // Whole passes only; another pass starts while it is expected to end in budget.
  do {
    const std::uint64_t base = args.seed + passes.size() * kSeedsPerPass;
    passes.push_back(SweepPass(suite, kSeedsPerPass, base, timed, {}, [&] { setup.Sample(); }));
    trials += passes.back().trials;
    wall += passes.back().wall_s;
    pass_throughputs.push_back(static_cast<double>(passes.back().trials) / passes.back().wall_s);
  } while (wall + passes.back().wall_s <= args.seconds * 1.1);

  const Usage after = ReadUsage();
  SetEndToEnd(result, setup.MedianSeconds(), pass_throughputs, trial_ms);
  result.Note("cpu: user " + std::to_string(after.user_s - before.user_s) + " s + sys " +
              std::to_string(after.sys_s - before.sys_s) + " s in " + std::to_string(wall) +
              " s wall");
  result.Note(std::to_string(passes.size()) + " passes x " + std::to_string(suite.size()) +
              " cases x " + std::to_string(kSeedsPerPass) + " seeds from " +
              std::to_string(args.seed) + ": " + std::to_string(trials) + " trials in " +
              std::to_string(wall) + " s");
  CheckSweep(suite, passes, args.seed, kSeedsPerPass, result);
}

void ProbeTrialPhases(const Args& args, bool home, double seconds, Result& result) {
  const ScopedCpus pin(1);
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  const int seeds = home && !args.smoke ? kSeedsPerPass : 1;

  // Sweep spans: per-trial timers grouped by problem, plus process counters, against
  // the same passes run without them.
  std::map<std::string, std::vector<double>> by_problem;
  const auto timed = [&by_problem](const ConformanceCase& c) -> TrialFn {
    return [&samples = by_problem[c.problem], trial = c.trial](std::uint64_t seed) {
      const Clock::time_point start = Clock::now();
      TrialReport report = trial(seed);
      samples.push_back(SecondsSince(start) * 1e3);
      return report;
    };
  };
  std::vector<double> traced_wall, untraced_wall;
  const Usage before = ReadUsage();
  const Clock::time_point start = Clock::now();
  // Half the budget for the sweep, half for the phase probe.
  do {
    traced_wall.push_back(SweepPass(suite, seeds, args.seed, timed).wall_s);
    if (home) untraced_wall.push_back(SweepPass(suite, seeds, args.seed, nullptr).wall_s);
  } while (home && SecondsSince(start) < seconds / 2);
  const Usage after = ReadUsage();
  const double sweep_wall = SecondsSince(start);
  for (const auto& [problem, samples] : by_problem) {
    result.Set("core.conformance." + problem + ".trial_ms_p50", Median(samples), "ms");
  }
  result.Set("proc.cpu_user_s", after.user_s - before.user_s, "s");
  result.Set("proc.cpu_sys_s", after.sys_s - before.sys_s, "s");
  result.Set("proc.sweep_wall_s", sweep_wall, "s");
  if (home) {
    result.Set("trace_overhead_frac", Median(traced_wall) / Median(untraced_wall) - 1.0,
               "ratio");
  }

  // Phase probe over the same seed range, checked against the suite's own trials.
  const std::vector<ProbeCase> probes = BuildProbeCases();
  std::map<std::string, const ConformanceCase*> by_display;
  for (const ConformanceCase& c : suite) by_display[c.display] = &c;
  Phases phases;
  int mismatches = 0;
  int fidelity_trials = 0;
  double ctx_switches = 0;
  const Clock::time_point probe_start = Clock::now();
  int pass = 0;
  do {
    for (const ProbeCase& probe : probes) {
      const ConformanceCase* suite_case = by_display.at(probe.display);
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(s);
        const Usage before_trial = ReadUsage();
        const ProbeTrial trial = probe.run(seed, phases);
        ctx_switches += ReadUsage().ctx_switches - before_trial.ctx_switches;
        if (pass == 0) {
          // Fidelity: the suite's trial on the same seed gives the same report, and its
          // replay records the same trace, event for event.
          const bool same = SameReport(trial.report, suite_case->trial(seed)) &&
                            SameEvents(trial.events,
                                       ReplayConformanceTrial(*suite_case, seed).events);
          mismatches += same ? 0 : 1;
          ++fidelity_trials;
          if (!same) {
            std::fprintf(stderr, "phase probe differs from suite: %s seed %llu\n",
                         probe.display.c_str(), static_cast<unsigned long long>(seed));
          }
        }
      }
    }
    ++pass;
  } while (home && SecondsSince(probe_start) < seconds / 2);
  // Postmortems are built only for failing trials. When the probe's seeds had none,
  // the naive dining table is run on further seeds until it deadlocks; only the
  // postmortem timing of that search is kept.
  Phases search;
  for (std::uint64_t seed = args.seed + seeds;
       phases.postmortems == 0 && search.postmortems == 0 && seed < args.seed + 200; ++seed) {
    for (const ProbeCase& probe : probes) {
      if (probe.problem == "dining-philosophers") probe.run(seed, search);
    }
  }
  phases.postmortem_s += search.postmortem_s;
  phases.postmortems += search.postmortems;
  result.Check(mismatches == 0, "phase probe: " + std::to_string(mismatches) + " of " +
                                    std::to_string(fidelity_trials) +
                                    " trials differ from the suite's case.trial");
  result.Check(phases.postmortems > 0, "phase probe: no trial built a postmortem");

  const double n = phases.trials;
  result.Set("runtime.det.construct_us", phases.det_construct_s * 1e6 / n, "us");
  result.Set("anomaly.probe_construct_us", phases.probe_construct_s * 1e6 / n, "us");
  result.Set("solutions.construct_us", phases.solution_construct_s * 1e6 / n, "us");
  result.Set("problems.spawn_us", phases.spawn_s * 1e6 / n, "us");
  result.Set("runtime.det.run_ms", phases.run_s * 1e3 / n, "ms");
  result.Set("anomaly.report_us", phases.report_s * 1e6 / n, "us");
  result.Set("problems.oracle_us", phases.oracle_s * 1e6 / n, "us");
  result.Set("telemetry.postmortem_us",
             phases.postmortems == 0 ? 0 : phases.postmortem_s * 1e6 / phases.postmortems,
             "us");
  result.Set("telemetry.postmortem_count", phases.postmortems, "count");
  result.Set("runtime.det.teardown_us", phases.teardown_s * 1e6 / n, "us");
  result.Set("runtime.det.steps", phases.steps / n, "count");
  result.Set("runtime.det.ns_per_step", phases.run_s * 1e9 / phases.steps, "ns");
  result.Set("trace.events", phases.events / n, "count");
  result.Set("proc.ctx_switches_per_step", ctx_switches / phases.steps, "ratio");
  result.Note("phase probe: " + std::to_string(phases.trials) + " trials over " +
              std::to_string(probes.size()) + " problems, " +
              std::to_string(fidelity_trials) + " checked against the suite");
}

}  // namespace perfbench
