// Experiment E7: per-operation overhead of each mechanism (Section 5.2's cost remark:
// serializers "provide more mechanism than do monitors, at more cost").
//
// Harness-timed loops over OsRuntime: an uncontended read and write on each
// readers/writers solution, a deposit+remove pair on each bounded buffer, and the same
// read with 4 contending threads. Absolute numbers are machine-dependent; the ordering
// semaphore < monitor < serializer/path-controller is the reproducible shape.
//
// Each configuration (the uncontended loops, the 4-thread contended loops) runs on its
// own runtime with its own MetricsRegistry, so after the timed loops the bench prints
// one per-mechanism contention profile (wait/hold percentiles, wakeups per admission)
// per configuration, as the mechanisms recorded it about themselves.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "syneval/core/scorecard.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/csp_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"

namespace {

using namespace syneval;

// Constructor adapter for the CSP solution, whose constructor takes a policy.
struct CspRwReadersPriorityBench : CspReadersWriters {
  explicit CspRwReadersPriorityBench(Runtime& rt)
      : CspReadersWriters(rt, CspReadersWriters::Policy::kReadersPriority) {}
};

constexpr int kIters = 20000;

// Median nanoseconds per op of `op` executed kIters times per repetition.
double NsPerOp(const bench::Options& options, const std::function<void()>& op) {
  const bench::RepeatStats stats = bench::Repeat(options, [&] {
    bench::Stopwatch watch;
    for (int i = 0; i < kIters; ++i) {
      op();
    }
    return watch.Seconds();
  });
  return stats.median_seconds * 1e9 / kIters;
}

// Same op driven by 4 runtime threads concurrently (kIters each).
double NsPerOpContended(const bench::Options& options, Runtime& rt,
                        const std::function<void()>& op) {
  const bench::RepeatStats stats = bench::Repeat(options, [&] {
    bench::Stopwatch watch;
    std::vector<std::unique_ptr<RtThread>> threads;
    for (int t = 0; t < 4; ++t) {
      threads.push_back(rt.StartThread("contender", [&] {
        for (int i = 0; i < kIters; ++i) {
          op();
        }
      }));
    }
    for (auto& thread : threads) {
      thread->Join();
    }
    return watch.Seconds();
  });
  // 4 threads x kIters ops; report wall time per op to show the contention cost.
  return stats.median_seconds * 1e9 / (4.0 * kIters);
}

std::string FormatNs(double ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.0f", ns);
  return buffer;
}

void AddRow(std::vector<std::vector<std::string>>& rows, bench::Reporter& reporter,
            const char* op, const char* mechanism, double ns_per_op) {
  rows.push_back({op, mechanism, FormatNs(ns_per_op)});
  reporter.Add(mechanism, op, "ns_per_op", ns_per_op, "ns");
}

// Per-mechanism contention profile straight out of the registry the mechanisms
// recorded into while the loops above drove them.
void PrintRegistryProfile(const MetricsRegistry& registry) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& name : registry.MechanismNames()) {
    const MechanismStats* stats = registry.FindMechanism(name);
    if (stats == nullptr) {
      continue;
    }
    const std::uint64_t admissions = stats->admissions.Value();
    const std::uint64_t wakeups = stats->wakeups.Value();
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2f",
                  admissions == 0 ? 0.0
                                  : static_cast<double>(wakeups) /
                                        static_cast<double>(admissions));
    rows.push_back({name,
                    std::to_string(admissions),
                    std::to_string(stats->wait.Percentile(50)),
                    std::to_string(stats->wait.Percentile(99)),
                    std::to_string(stats->hold.Percentile(50)),
                    std::to_string(stats->hold.Percentile(99)),
                    std::to_string(stats->signals.Value()),
                    ratio,
                    std::to_string(stats->queue_depth.Max())});
  }
  std::printf("%s\n",
              RenderTable({"mechanism", "admissions", "wait p50 ns", "wait p99 ns",
                           "hold p50 ns", "hold p99 ns", "signals", "wakeups/adm",
                           "max queue"},
                          rows)
                  .c_str());
}

// One configuration's runtime with the default instrumentation: its own registry and
// always-on flight recorder, so its profile holds only its own loops. Attachments are
// declared before the runtime so they outlive it.
struct Stack {
  Stack() {
    rt.AttachMetrics(&registry);
    rt.AttachFlightRecorder(&flight);
  }
  MetricsRegistry registry;
  FlightRecorder flight;
  OsRuntime rt;
};

void PrintProfile(const char* configuration, const Stack& stack) {
  std::printf("Per-mechanism contention profile, %s (self-reported via the metrics "
              "registry):\n",
              configuration);
  PrintRegistryProfile(stack.registry);
  std::printf("flight recorder: %llu events recorded, %llu evicted (always on during "
              "the timed loops)\n\n",
              static_cast<unsigned long long>(stack.flight.recorded()),
              static_cast<unsigned long long>(stack.flight.evicted()));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::ParseArgs(argc, argv, "mechanism_overhead");
  bench::Reporter reporter(options);
  std::printf("=== E7: per-operation overhead per mechanism (OsRuntime, %d ops/rep, "
              "%d reps) ===\n\n",
              kIters, options.repeats);

  // The always-on flight recorder IS the benchmarked configuration: the numbers below
  // include its per-event cost, and compare_baseline.py holds them to the same ±25%
  // envelope as the recorder-free baseline — the proof that recording is cheap enough
  // to leave on during steady-state measurement.
  Stack uncontended;
  Runtime& rt = uncontended.rt;

  SemaphoreRwReadersPriority sem_rw(rt);
  MonitorRwReadersPriority mon_rw(rt);
  PathExprRwFigure1 path_rw_fig1(rt);
  PathExprRwPredicates path_rw_pred(rt);
  SerializerRwReadersPriority ser_rw(rt);
  CcrRwReadersPriority ccr_rw(rt);
  CspRwReadersPriorityBench csp_rw(rt);

  std::vector<std::vector<std::string>> rows;

  // Uncontended readers/writers read.
  AddRow(rows, reporter, "read", "semaphore",
         NsPerOp(options, [&] { sem_rw.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "monitor",
         NsPerOp(options, [&] { mon_rw.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "pathexpr_fig1",
         NsPerOp(options, [&] { path_rw_fig1.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "pathexpr_predicates",
         NsPerOp(options, [&] { path_rw_pred.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "serializer",
         NsPerOp(options, [&] { ser_rw.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "cond_region",
         NsPerOp(options, [&] { ccr_rw.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read", "csp_channels",
         NsPerOp(options, [&] { csp_rw.Read([] {}, nullptr); }));

  // Uncontended write.
  AddRow(rows, reporter, "write", "semaphore",
         NsPerOp(options, [&] { sem_rw.Write([] {}, nullptr); }));
  AddRow(rows, reporter, "write", "monitor",
         NsPerOp(options, [&] { mon_rw.Write([] {}, nullptr); }));
  AddRow(rows, reporter, "write", "pathexpr_fig1",
         NsPerOp(options, [&] { path_rw_fig1.Write([] {}, nullptr); }));
  AddRow(rows, reporter, "write", "serializer",
         NsPerOp(options, [&] { ser_rw.Write([] {}, nullptr); }));
  AddRow(rows, reporter, "write", "cond_region",
         NsPerOp(options, [&] { ccr_rw.Write([] {}, nullptr); }));
  AddRow(rows, reporter, "write", "csp_channels",
         NsPerOp(options, [&] { csp_rw.Write([] {}, nullptr); }));

  // Bounded buffer round trip (deposit + remove on a capacity-16 buffer).
  SemaphoreBoundedBuffer sem_buf(rt, 16);
  MonitorBoundedBuffer mon_buf(rt, 16);
  PathBoundedBuffer path_buf(rt, 16);
  SerializerBoundedBuffer ser_buf(rt, 16);
  CcrBoundedBuffer ccr_buf(rt, 16);
  CspBoundedBuffer csp_buf(rt, 16);
  AddRow(rows, reporter, "buffer_round_trip", "semaphore", NsPerOp(options, [&] {
           sem_buf.Deposit(1, nullptr);
           (void)sem_buf.Remove(nullptr);
         }));
  AddRow(rows, reporter, "buffer_round_trip", "monitor", NsPerOp(options, [&] {
           mon_buf.Deposit(1, nullptr);
           (void)mon_buf.Remove(nullptr);
         }));
  AddRow(rows, reporter, "buffer_round_trip", "pathexpr", NsPerOp(options, [&] {
           path_buf.Deposit(1, nullptr);
           (void)path_buf.Remove(nullptr);
         }));
  AddRow(rows, reporter, "buffer_round_trip", "serializer", NsPerOp(options, [&] {
           ser_buf.Deposit(1, nullptr);
           (void)ser_buf.Remove(nullptr);
         }));
  AddRow(rows, reporter, "buffer_round_trip", "cond_region", NsPerOp(options, [&] {
           ccr_buf.Deposit(1, nullptr);
           (void)ccr_buf.Remove(nullptr);
         }));
  AddRow(rows, reporter, "buffer_round_trip", "csp_channels", NsPerOp(options, [&] {
           csp_buf.Deposit(1, nullptr);
           (void)csp_buf.Remove(nullptr);
         }));

  // Contended read: 4 threads hammering the same solution, on a stack of its own.
  Stack contended;
  SemaphoreRwReadersPriority sem_rw_contended(contended.rt);
  MonitorRwReadersPriority mon_rw_contended(contended.rt);
  SerializerRwReadersPriority ser_rw_contended(contended.rt);
  AddRow(rows, reporter, "read_contended4", "semaphore",
         NsPerOpContended(options, contended.rt,
                          [&] { sem_rw_contended.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read_contended4", "monitor",
         NsPerOpContended(options, contended.rt,
                          [&] { mon_rw_contended.Read([] {}, nullptr); }));
  AddRow(rows, reporter, "read_contended4", "serializer",
         NsPerOpContended(options, contended.rt,
                          [&] { ser_rw_contended.Read([] {}, nullptr); }));

  std::printf("%s\n", RenderTable({"op", "mechanism", "ns/op"}, rows).c_str());

  PrintProfile("uncontended loops", uncontended);
  PrintProfile("read_contended4 loops", contended);

  return reporter.Finish() ? 0 : 1;
}
