// Shared pieces of the syneval_perf benchmark binary: arguments, clocks, order
// statistics, correctness accounting, process counters and the result printer.
//
// Every workload fills one Result. syneval_perf prints it twice: a human-readable
// table (every metric with its unit, plus error_rate) and, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed", "metrics"}.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs and a short budget: the self-test smoke run.
  bool smoke = false;
  // Directory for files a run writes (chaos_soak's checkpoint journals).
  std::string scratch = ".bench_build/scratch";
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median of `values` (0 when empty).
double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100] (0 when empty); p = 50 on an even count is
// the mean of the two middle values, as Median.
double Percentile(std::vector<double> values, double p);
// Geometric mean of positive values (0 when empty).
double Geomean(const std::vector<double>& values);

// Times a workload's set-up. One set-up lasts microseconds to a millisecond, and on a
// shared VM the cost of the same call drifts by half from one second to the next, so
// a workload samples it a few times at each of many moments through its run (at case,
// cell or pass boundaries) and reports the median of all samples.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup) : setup_(std::move(setup)) {}
  void Sample(int reps = 1);
  double MedianSeconds() const { return Median(samples_); }

 private:
  std::function<void()> setup_;
  std::vector<double> samples_;
};

// Restricts the calling thread, and every thread it starts while in scope, to `cpus`
// CPUs (the highest-numbered allowed ones); 0 allows every CPU the process may use.
// Restores the previous mask on exit. The serial DetRuntime workloads run on one CPU:
// each scheduling step is a thread handoff, and on a multi-core VM a handoff to
// another core costs a cross-core wakeup whose latency swings several-fold from run
// to run (an unpinned conformance sweep ran at 27-136 trials/s, a pinned one at
// 161-196).
class ScopedCpus {
 public:
  explicit ScopedCpus(int cpus);
  ~ScopedCpus();
  ScopedCpus(const ScopedCpus&) = delete;
  ScopedCpus& operator=(const ScopedCpus&) = delete;

 private:
  std::vector<int> previous_;
};

// Process counters from getrusage(RUSAGE_SELF).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;  // Voluntary + involuntary.
};
Usage ReadUsage();

// Peak resident set of this process image in MB (VmHWM). getrusage's ru_maxrss is
// not used: it survives exec, so it would report the launching Python's peak.
double PeakRssMb();

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // Extra human-readable lines (counts, sizes).

  // Counts one correctness check; a failed check is reported on stderr.
  bool Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  bool correct() const { return attempted > 0 && failed == 0; }
};

// Prints the human table and then the final JSON line.
void PrintResult(const Args& args, const Result& result);

// The four workloads. Each measures for about args.seconds (the set-up before and
// the correctness checks after are not counted), then fills `result`.
void RunOsMix(const Args& args, Result& result);
void RunConformanceSweep(const Args& args, Result& result);
void RunDporProve(const Args& args, Result& result);
void RunChaosSoak(const Args& args, Result& result);

// Per-layer probes for the traced run. A workload's traced run calls its own probe
// with `home` true and most of the time budget, and the other three with `home`
// false at a small fixed size, so every traced run reports every per-layer metric
// from a real measurement. Only the home probe reports trace_overhead_frac.
void ProbeOsLayers(const Args& args, bool home, double seconds, Result& result);
void ProbeTrialPhases(const Args& args, bool home, double seconds, Result& result);
void ProbeDpor(const Args& args, bool home, double seconds, Result& result);
void ProbeChaos(const Args& args, bool home, double seconds, Result& result);

// The end-to-end metrics every workload reports with tracing off; the names are
// listed in BENCHMARK.json's "end_to_end". throughput_per_s is the median of the
// per-pass (per-round) throughputs, so one pass slowed by a noisy neighbour does not
// move it.
void SetEndToEnd(Result& result, double setup_s, const std::vector<double>& pass_throughputs,
                 const std::vector<double>& latencies_ms);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
