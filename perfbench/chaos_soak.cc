// chaos_soak: RunChaosCalibration in the chaos_sweep --soak configuration:
// ChaosSupervision enabled with its default policy, a CheckpointStore journal
// attached with per-seed chunks (chunk_seeds = 1), and jobs = max(1, cores / 2), the
// process pinned to that many CPUs (see ScopedCpus). Unpinned on a 4-vCPU VM, stall
// trials outran the supervisor's 2 s deadline: 9 were reaped and a row quarantined.
//
// Pass k runs the whole calibration grid over seeds [seed + 2k, seed + 2k + 2) with a
// fresh store, so every chunk is folded and journaled, never restored. Two seeds per
// row give each of the two workers a chunk. End to end:
// throughput_per_s is chaos trials (fault-on plus fault-off runs) per second, and
// latency_p50_ms / latency_p99_ms are whole-grid pass times; with a few passes per
// run the p99 is the slowest pass.
//
// Traced, a replica of the grid loop built from the same public parts
// (BuildChaosSuite, CalibrationFaultFamilies, MustParseFaultPlan,
// chaos_internal::MakeSupervisedChaosTrial, ParallelSweepChaos) times every trial
// and reads the pool's worker telemetry; its rows must equal RunChaosCalibration's.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "syneval/fault/chaos.h"
#include "syneval/runtime/checkpoint.h"

namespace perfbench {

namespace {

using namespace syneval;

constexpr int kSeedsPerCase = 2;

int Jobs() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency() / 2));
}

// A checkpoint path in the scratch directory, unique to this process; the store and
// its journal are removed when the pass ends.
class ScratchStore {
 public:
  ScratchStore(const std::string& dir, int index)
      : path_(dir + "/chaos-ckpt-" + std::to_string(getpid()) + "-" + std::to_string(index)) {
    std::filesystem::create_directories(dir);
    Remove();
    store_ = std::make_unique<CheckpointStore>(path_);
    store_->Load();
  }
  ~ScratchStore() {
    store_.reset();
    Remove();
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  CheckpointStore& store() { return *store_; }

 private:
  void Remove() {
    std::error_code ignored;
    for (const char* suffix : {"", ".journal", ".tmp"}) {
      std::filesystem::remove(path_ + suffix, ignored);
    }
  }
  std::string path_;
  std::unique_ptr<CheckpointStore> store_;
};

ParallelOptions SoakParallel(CheckpointStore* store) {
  ParallelOptions parallel;
  parallel.jobs = Jobs();
  parallel.chunk_seeds = 1;
  parallel.checkpoint = store;
  parallel.checkpoint_scope = "perfbench";
  return parallel;
}

ChaosSupervision SoakSupervision() {
  ChaosSupervision supervision;
  supervision.enabled = true;
  return supervision;
}

std::int64_t TrialCount(const std::vector<ChaosCalibrationRow>& rows) {
  std::int64_t trials = 0;
  for (const ChaosCalibrationRow& row : rows) trials += 2 * row.outcome.runs;
  return trials;
}

bool SameOutcome(const ChaosSweepOutcome& a, const ChaosSweepOutcome& b) {
  return a.runs == b.runs && a.skipped == b.skipped && a.injected_runs == b.injected_runs &&
         a.harmful == b.harmful && a.detected_harmful == b.detected_harmful &&
         a.absorbed == b.absorbed && a.corrupted == b.corrupted &&
         a.clean_anomalies == b.clean_anomalies && a.clean_failures == b.clean_failures &&
         a.detection_steps_total == b.detection_steps_total &&
         a.postmortem_causes == b.postmortem_causes;
}

void CheckTable(const ChaosCalibrationTable& table, Result& result) {
  result.Check(table.MinRecall() == 1.0,
               "chaos_soak: recall " + std::to_string(table.MinRecall()) + " < 1");
  result.Check(table.TotalFalsePositives() == 0,
               "chaos_soak: " + std::to_string(table.TotalFalsePositives()) +
                   " false positives");
  result.Check(table.supervisor.reaped == 0 && table.supervisor.crashed == 0 &&
                   table.supervisor.quarantined == 0 && table.QuarantinedRows() == 0,
               "chaos_soak: supervisor reaped " + std::to_string(table.supervisor.reaped) +
                   ", crashed " + std::to_string(table.supervisor.crashed) +
                   ", quarantined " + std::to_string(table.supervisor.quarantined));
}

void CheckSameRows(const std::vector<ChaosCalibrationRow>& a,
                   const std::vector<ChaosCalibrationRow>& b, const std::string& what,
                   Result& result) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].problem == b[i].problem && a[i].display == b[i].display &&
           a[i].fault == b[i].fault && SameOutcome(a[i].outcome, b[i].outcome);
  }
  result.Check(same, "chaos_soak: " + what);
}

// What the traced replica of the grid loop observed.
struct ReplicaPass {
  std::vector<ChaosCalibrationRow> rows;
  std::vector<double> trial_ms;
  double wall_s = 0;
  double worker_busy_s = 0;
  double pool_s = 0;  // Σ jobs × row wall.
  std::int64_t steps = 0;
  std::int64_t injected = 0;
  int steals = 0;
  double trial_s = 0;
  SupervisorStats supervisor;
};

ReplicaPass Replica(std::uint64_t base_seed, int seeds, int max_cases, CheckpointStore* store) {
  ReplicaPass pass;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  const std::vector<ChaosFaultFamily> families = CalibrationFaultFamilies();
  const std::vector<ChaosCase> suite = BuildChaosSuite(1);
  for (std::size_t c = 0; c < suite.size() && static_cast<int>(c) < max_cases; ++c) {
    const ChaosCase& chaos_case = suite[c];
    for (const ChaosFaultFamily& family : families) {
      const FaultPlan plan = MustParseFaultPlan(family.plan_text, base_seed);
      ParallelOptions parallel = SoakParallel(store);
      if (store != nullptr) {
        parallel.checkpoint_scope += "/chaos/" + chaos_case.problem + "/" +
                                     chaos_case.display + "/" + family.name + "/scale1";
      }
      const ChaosTrial inner = chaos_case.trial;
      const ChaosTrial timed = [&, inner](std::uint64_t seed, const FaultPlan* fault_plan) {
        const Clock::time_point trial_start = Clock::now();
        ChaosTrialOutcome outcome = inner(seed, fault_plan);
        const double seconds = SecondsSince(trial_start);
        std::lock_guard<std::mutex> lock(mu);
        pass.trial_ms.push_back(seconds * 1e3);
        pass.trial_s += seconds;
        pass.steps += static_cast<std::int64_t>(outcome.steps);
        pass.injected += outcome.injected;
        return outcome;
      };
      auto state = std::make_shared<chaos_internal::SupervisedRowState>();
      const ChaosTrial supervised = chaos_internal::MakeSupervisedChaosTrial(
          timed, SoakSupervision().options, state);
      const ParallelChaosResult sweep =
          ParallelSweepChaos(seeds, supervised, plan, base_seed, parallel);
      ChaosCalibrationRow row;
      row.problem = chaos_case.problem;
      row.display = chaos_case.display;
      row.fault = family.name;
      row.outcome = sweep.outcome;
      pass.rows.push_back(std::move(row));
      for (const WorkerTelemetry& worker : sweep.workers) {
        pass.worker_busy_s += worker.wall_seconds;
        pass.steals += worker.steals;
      }
      pass.pool_s += sweep.jobs * sweep.wall_seconds;
      std::lock_guard<std::mutex> lock(state->mu);
      pass.supervisor += state->stats;
    }
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

}  // namespace

void RunChaosSoak(const Args& args, Result& result) {
  const ScopedCpus pin(Jobs());
  const int seeds = args.smoke ? 1 : kSeedsPerCase;
  int store_index = 0;
  SetupSampler setup([&] {
    (void)BuildChaosSuite(1);
    for (const ChaosFaultFamily& family : CalibrationFaultFamilies()) {
      (void)MustParseFaultPlan(family.plan_text, args.seed);
    }
    ScratchStore scratch(args.scratch, store_index++);
  });

  std::vector<ChaosCalibrationTable> tables;
  std::vector<double> pass_ms, pass_throughputs;
  std::int64_t trials = 0;
  double wall = 0;
  do {
    // The grid is one call, so set-up is sampled only between passes.
    setup.Sample(25);
    ScratchStore scratch(args.scratch, store_index++);
    const Clock::time_point start = Clock::now();
    const std::uint64_t base = args.seed + tables.size() * seeds;
    tables.push_back(
        RunChaosCalibration(seeds, base, 1, SoakParallel(&scratch.store()), SoakSupervision()));
    const double pass_s = SecondsSince(start);
    pass_ms.push_back(pass_s * 1e3);
    wall += pass_s;
    trials += TrialCount(tables.back().rows);
    pass_throughputs.push_back(static_cast<double>(TrialCount(tables.back().rows)) / pass_s);
  } while (wall + pass_ms.back() / 1e3 <= args.seconds * 1.1);

  setup.Sample(25);
  SetEndToEnd(result, setup.MedianSeconds(), pass_throughputs, pass_ms);
  result.Note(std::to_string(tables.size()) + " grid passes, " +
              std::to_string(tables.front().rows.size()) + " rows x " + std::to_string(seeds) +
              " seeds from " + std::to_string(args.seed) + ", jobs " +
              std::to_string(Jobs()) + ": " + std::to_string(trials) + " trials in " +
              std::to_string(wall) + " s");
  for (const ChaosCalibrationTable& table : tables) CheckTable(table, result);
}

void ProbeChaos(const Args& args, bool home, double seconds, Result& result) {
  const ScopedCpus pin(Jobs());
  // Away from home: one case, one seed.
  const int seeds = home && !args.smoke ? kSeedsPerCase : 1;
  const int max_cases = home ? 1 << 30 : 1;
  int store_index = 1000;

  // Each round: the traced replica with a store, the replica without one (the
  // checkpoint overhead) and, at home, the real grid (the tracing overhead, the
  // supervisor counts, and the replica's fidelity).
  std::vector<double> real_wall, traced_wall, bare_wall;
  ReplicaPass traced;
  SupervisorStats supervisor;
  int appends = 0, compactions = 0;
  const Clock::time_point start = Clock::now();
  do {
    {
      ScratchStore scratch(args.scratch, store_index++);
      traced = Replica(args.seed, seeds, max_cases, &scratch.store());
      appends = scratch.store().appends();
      compactions = scratch.store().compactions();
    }
    traced_wall.push_back(traced.wall_s);
    bare_wall.push_back(Replica(args.seed, seeds, max_cases, nullptr).wall_s);
    if (home) {
      ScratchStore scratch(args.scratch, store_index++);
      const Clock::time_point real_start = Clock::now();
      const ChaosCalibrationTable table = RunChaosCalibration(
          seeds, args.seed, 1, SoakParallel(&scratch.store()), SoakSupervision());
      real_wall.push_back(SecondsSince(real_start));
      CheckTable(table, result);
      CheckSameRows(table.rows, traced.rows, "traced replica rows differ from the grid's",
                    result);
      supervisor = table.supervisor;
    }
  } while (home && SecondsSince(start) < seconds);
  if (!home) supervisor = traced.supervisor;
  result.Set("runtime.supervisor.reaped", supervisor.reaped, "count");
  result.Set("runtime.supervisor.retried", supervisor.retried, "count");
  result.Set("runtime.supervisor.quarantined", supervisor.quarantined, "count");
  result.Check(traced.supervisor.reaped == 0 && traced.supervisor.quarantined == 0,
               "chaos probe: a replica trial was reaped or quarantined");

  result.Set("fault.chaos.trial_ms_p50", Percentile(traced.trial_ms, 50), "ms");
  result.Set("fault.chaos.trial_ms_p99", Percentile(traced.trial_ms, 99), "ms");
  result.Set("fault.injector.injected", static_cast<double>(traced.injected), "count");
  result.Set("fault.chaos.det_ns_per_step",
             traced.trial_s * 1e9 / static_cast<double>(traced.steps), "ns");
  result.Set("runtime.parallel_sweep.busy_frac", traced.worker_busy_s / traced.pool_s, "ratio");
  result.Set("runtime.parallel_sweep.steals", traced.steals, "count");
  result.Set("runtime.checkpoint.appends", appends, "count");
  result.Set("runtime.checkpoint.compactions", compactions, "count");
  result.Set("runtime.checkpoint.overhead_frac", Median(traced_wall) / Median(bare_wall) - 1.0,
             "ratio");
  if (home) {
    result.Set("trace_overhead_frac", Median(traced_wall) / Median(real_wall) - 1.0, "ratio");
  }
  result.Note("chaos probe: " + std::to_string(traced.rows.size()) + " rows, " +
              std::to_string(traced.trial_ms.size()) + " timed trials per pass");
}

}  // namespace perfbench
