// syneval_perf: the benchmark binary. perfbench/run.py builds it and runs
//
//   syneval_perf --workload <os_mix|conformance_sweep|dpor_prove|chaos_soak>
//                --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] [--smoke]
//
// and its last line of standard output is the JSON result. Exit status is 0 when
// the run completed (even if a correctness check failed: "correct" says so), and 2
// on a usage error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"

namespace perfbench {

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) -
      1;
  if (p == 50 && values.size() % 2 == 0) {
    return (values[values.size() / 2 - 1] + values[values.size() / 2]) / 2;
  }
  return values[index];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double value : values) {
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void SetupSampler::Sample(int reps) {
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    setup_();
    samples_.push_back(SecondsSince(start));
  }
}

namespace {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void SetCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  if (!cpus.empty()) sched_setaffinity(0, sizeof set, &set);
}

// The process's CPUs, read once before any thread narrows its own mask.
const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = AllowedCpus();
  return cpus;
}

}  // namespace

ScopedCpus::ScopedCpus(int cpus) : previous_(AllowedCpus()) {
  const std::vector<int>& all = ProcessCpus();
  if (cpus <= 0 || cpus >= static_cast<int>(all.size())) {
    SetCpus(all);
  } else {
    SetCpus(std::vector<int>(all.end() - cpus, all.end()));
  }
}

ScopedCpus::~ScopedCpus() { SetCpus(previous_); }

Usage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

bool Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void SetEndToEnd(Result& result, double setup_s, const std::vector<double>& pass_throughputs,
                 const std::vector<double>& latencies_ms) {
  result.Set("setup_s", setup_s, "s");
  result.Set("throughput_per_s", Median(pass_throughputs), "1/s");
  result.Set("latency_p50_ms", Percentile(latencies_ms, 50), "ms");
  result.Set("latency_p99_ms", Percentile(latencies_ms, 99), "ms");
  result.Note("latency samples: " + std::to_string(latencies_ms.size()) + "; peak RSS " +
              std::to_string(PeakRssMb()) + " MB");
}

void PrintResult(const Args& args, const Result& result) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("  %-48s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("  %-48s %16.6g %s  (%lld failed of %lld checks)\n", "error_rate",
              error_rate, "ratio", static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int PrintUsage() {
  std::fprintf(stderr,
               "usage: syneval_perf --workload <os_mix|conformance_sweep|dpor_prove|"
               "chaos_soak> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return PrintUsage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return PrintUsage();
      args.trace = value == "1";
    } else {
      return PrintUsage();
    }
    if (end != nullptr && *end != '\0') {
      return PrintUsage();
    }
  }
  if (!(args.seconds > 0)) {
    return PrintUsage();
  }

  using Run = void (*)(const perfbench::Args&, perfbench::Result&);
  using Probe = void (*)(const perfbench::Args&, bool, double, perfbench::Result&);
  struct Workload {
    const char* name;
    Run run;
    Probe probe;
  };
  static constexpr Workload kWorkloads[] = {
      {"os_mix", perfbench::RunOsMix, perfbench::ProbeOsLayers},
      {"conformance_sweep", perfbench::RunConformanceSweep, perfbench::ProbeTrialPhases},
      {"dpor_prove", perfbench::RunDporProve, perfbench::ProbeDpor},
      {"chaos_soak", perfbench::RunChaosSoak, perfbench::ProbeChaos},
  };
  const Workload* home = nullptr;
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) home = &workload;
  }
  if (home == nullptr) {
    return PrintUsage();
  }

  perfbench::Result result;
  if (!args.trace) {
    home->run(args, result);
  } else {
    home->probe(args, /*home=*/true, args.seconds, result);
    result.Set("proc.peak_rss_mb", perfbench::PeakRssMb(), "MB");
    for (const Workload& workload : kWorkloads) {
      if (&workload != home) workload.probe(args, /*home=*/false, 0, result);
    }
  }
  perfbench::PrintResult(args, result);
  return 0;
}
