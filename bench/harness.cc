#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "syneval/core/scorecard.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {
namespace bench {

namespace {

void PrintUsage(const std::string& bench_name, std::ostream& os) {
  os << "usage: " << bench_name << " [flags]\n"
     << "  --json=<path>     write machine-readable results (schema_version 5)\n"
     << "  --trace=<path>    write a Perfetto/Chrome trace (when the bench records one)\n"
     << "  --repeats=<n>     measured repetitions per configuration (default 3)\n"
     << "  --warmup=<n>      unrecorded warmup repetitions (default 1)\n"
     << "  --jobs=<n>        sweep workers; 0 = auto via SYNEVAL_JOBS/hardware (default 0)\n"
     << "  --seeds=<n>       schedule seeds per sweep; 0 = bench default (default 0)\n"
     << "  --resume=<path>   checkpoint log: restore swept seeds, append new ones\n"
     << "  --quarantine-out=<path>  write quarantine.json (supervised benches)\n"
     << "  --help            this message\n";
}

// Parses "--name=value"; returns true and sets `value` when `arg` starts with prefix.
bool MatchFlag(const std::string& arg, const std::string& prefix, std::string* value) {
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

// Doubles formatted the way the tables do: fixed, trimmed trailing zeros, so integral
// values print as integers and JSON stays locale-independent.
std::string FormatValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  std::string text(buffer);
  while (!text.empty() && text.back() == '0') {
    text.pop_back();
  }
  if (!text.empty() && text.back() == '.') {
    text.pop_back();
  }
  return text;
}

}  // namespace

Options ParseArgs(int argc, char** argv, const std::string& bench_name) {
  return ParseArgs(argc, argv, bench_name, nullptr);
}

std::unique_ptr<CheckpointStore> MakeCheckpointStore(const Options& options) {
  if (options.resume_path.empty()) {
    return nullptr;
  }
  auto store = std::make_unique<CheckpointStore>(options.resume_path);
  const int loaded = store->Load();
  std::printf("resume: %d checkpointed seed(s) loaded from %s\n", loaded,
              options.resume_path.c_str());
  return store;
}

void ReportResume(const CheckpointStore* store, Reporter& reporter) {
  if (store == nullptr) {
    return;
  }
  std::printf("resume: %d seed(s) restored, %d now checkpointed in %s\n", store->hits(),
              store->size(), store->path().c_str());
  reporter.SetJournal(store->appends(), store->replayed());
}

Options ParseArgs(int argc, char** argv, const std::string& bench_name,
                  std::map<std::string, std::string>* extras) {
  Options options;
  options.bench = bench_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(bench_name, std::cout);
      std::exit(0);
    } else if (MatchFlag(arg, "--json=", &value)) {
      options.json_path = value;
    } else if (MatchFlag(arg, "--trace=", &value)) {
      options.trace_path = value;
    } else if (MatchFlag(arg, "--repeats=", &value)) {
      if (!ParseInt(value, &options.repeats) || options.repeats < 1) {
        std::cerr << bench_name << ": bad --repeats value '" << value << "'\n";
        std::exit(2);
      }
    } else if (MatchFlag(arg, "--warmup=", &value)) {
      if (!ParseInt(value, &options.warmup) || options.warmup < 0) {
        std::cerr << bench_name << ": bad --warmup value '" << value << "'\n";
        std::exit(2);
      }
    } else if (MatchFlag(arg, "--jobs=", &value)) {
      if (!ParseInt(value, &options.jobs) || options.jobs < 0) {
        std::cerr << bench_name << ": bad --jobs value '" << value << "'\n";
        std::exit(2);
      }
    } else if (MatchFlag(arg, "--seeds=", &value)) {
      if (!ParseInt(value, &options.seeds) || options.seeds < 0) {
        std::cerr << bench_name << ": bad --seeds value '" << value << "'\n";
        std::exit(2);
      }
    } else if (MatchFlag(arg, "--resume=", &value)) {
      options.resume_path = value;
    } else if (MatchFlag(arg, "--quarantine-out=", &value)) {
      options.quarantine_path = value;
    } else if (extras != nullptr && arg.rfind("--", 0) == 0 &&
               arg.find('=') != std::string::npos) {
      // Bench-specific flag: "--key=value" with the caller left to validate keys.
      const std::size_t eq = arg.find('=');
      (*extras)[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else {
      std::cerr << bench_name << ": unknown flag '" << arg << "'\n";
      PrintUsage(bench_name, std::cerr);
      std::exit(2);
    }
  }
  return options;
}

RepeatStats Repeat(const Options& options, const std::function<double()>& run) {
  for (int i = 0; i < options.warmup; ++i) {
    (void)run();
  }
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(options.repeats));
  for (int i = 0; i < options.repeats; ++i) {
    samples.push_back(run());
  }
  std::sort(samples.begin(), samples.end());
  RepeatStats stats;
  stats.samples = static_cast<int>(samples.size());
  stats.min_seconds = samples.front();
  stats.max_seconds = samples.back();
  stats.mean_seconds =
      std::accumulate(samples.begin(), samples.end(), 0.0) / static_cast<double>(samples.size());
  // Median as the headline number: robust to the occasional descheduled repetition
  // without needing an explicit outlier-rejection threshold.
  const std::size_t mid = samples.size() / 2;
  stats.median_seconds = (samples.size() % 2 == 1)
                             ? samples[mid]
                             : (samples[mid - 1] + samples[mid]) / 2.0;
  return stats;
}

double TimeSeconds(const std::function<void()>& fn) {
  Stopwatch watch;
  fn();
  return watch.Seconds();
}

Reporter::Reporter(Options options) : options_(std::move(options)) {}

void Reporter::Add(const std::string& mechanism, const std::string& problem,
                   const std::string& metric, double value, const std::string& unit) {
  rows_.push_back(Row{mechanism, problem, metric, value, unit});
}

void Reporter::SetSweepInfo(int jobs, double wall_seconds) {
  have_sweep_info_ = true;
  sweep_jobs_ = jobs;
  sweep_wall_seconds_ = wall_seconds;
}

void Reporter::SetWorkers(std::vector<WorkerTelemetry> workers) {
  workers_ = std::move(workers);
}

void Reporter::SetSupervisor(const SupervisorStats& stats) {
  have_supervisor_ = true;
  supervisor_ = stats;
}

void Reporter::SetJournal(int appends, int replayed) {
  have_journal_ = true;
  journal_appends_ = appends;
  journal_replayed_ = replayed;
}

void Reporter::AddPostmortem(PostmortemEntry entry) {
  postmortems_.push_back(std::move(entry));
}

std::string Reporter::WorkerTable() const {
  if (workers_.empty()) {
    return "";
  }
  std::vector<std::vector<std::string>> rows;
  rows.reserve(workers_.size());
  for (const WorkerTelemetry& w : workers_) {
    rows.push_back({std::to_string(w.worker), std::to_string(w.trials),
                    std::to_string(w.chunks), std::to_string(w.steals),
                    std::to_string(w.cached), FormatValue(w.wall_seconds)});
  }
  return RenderTable({"worker", "trials", "chunks", "steals", "cached", "wall_s"}, rows);
}

std::string Reporter::Table() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(rows_.size());
  for (const Row& row : rows_) {
    rows.push_back({row.mechanism, row.problem, row.metric, FormatValue(row.value), row.unit});
  }
  return RenderTable({"mechanism", "problem", "metric", "value", "unit"}, rows);
}

bool Reporter::Finish() const {
  if (options_.json_path.empty()) {
    return true;
  }
  std::ostringstream out;
  out << "{\"schema_version\":5,\"bench\":\"" << JsonEscape(options_.bench) << "\"";
  // Sweep-pool accounting goes in top-level keys, never in "results": the result rows
  // must stay deterministic for golden-file diffs, and timings are machine-dependent.
  if (have_sweep_info_) {
    out << ",\"jobs\":" << sweep_jobs_ << ",\"wall_seconds\":"
        << FormatValue(sweep_wall_seconds_);
  }
  if (!workers_.empty()) {
    out << ",\"workers\":[";
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const WorkerTelemetry& w = workers_[i];
      if (i != 0) {
        out << ",";
      }
      out << "{\"worker\":" << w.worker << ",\"trials\":" << w.trials
          << ",\"chunks\":" << w.chunks << ",\"steals\":" << w.steals
          << ",\"cached\":" << w.cached
          << ",\"wall_seconds\":" << FormatValue(w.wall_seconds) << "}";
    }
    out << "]";
  }
  if (have_supervisor_) {
    out << ",\"supervisor\":{\"reaped\":" << supervisor_.reaped
        << ",\"crashed\":" << supervisor_.crashed
        << ",\"retried\":" << supervisor_.retried
        << ",\"quarantined\":" << supervisor_.quarantined << "}";
  }
  if (have_journal_) {
    out << ",\"journal\":{\"appends\":" << journal_appends_
        << ",\"replayed\":" << journal_replayed_ << "}";
  }
  if (!postmortems_.empty()) {
    out << ",\"postmortem\":[";
    for (std::size_t i = 0; i < postmortems_.size(); ++i) {
      const PostmortemEntry& pm = postmortems_[i];
      if (i != 0) {
        out << ",";
      }
      out << "{\"mechanism\":\"" << JsonEscape(pm.mechanism) << "\",\"problem\":\""
          << JsonEscape(pm.problem) << "\",\"seed\":" << pm.seed << ",\"cause\":\""
          << JsonEscape(pm.cause) << "\",\"text\":\"" << JsonEscape(pm.text) << "\"";
      if (!pm.detail_json.empty()) {
        out << ",\"detail\":" << pm.detail_json;  // Pre-rendered Postmortem::ToJson().
      }
      out << "}";
    }
    out << "]";
  }
  out << ",\"results\":[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    if (i != 0) {
      out << ",";
    }
    out << "{\"bench\":\"" << JsonEscape(options_.bench) << "\",\"mechanism\":\""
        << JsonEscape(row.mechanism) << "\",\"problem\":\"" << JsonEscape(row.problem)
        << "\",\"metric\":\"" << JsonEscape(row.metric) << "\",\"value\":"
        << FormatValue(row.value) << ",\"unit\":\"" << JsonEscape(row.unit) << "\"}";
  }
  out << "]}\n";
  std::ofstream file(options_.json_path);
  if (!file) {
    std::cerr << options_.bench << ": cannot write --json file '" << options_.json_path
              << "'\n";
    return false;
  }
  file << out.str();
  file.close();
  if (!file) {
    std::cerr << options_.bench << ": error writing --json file '" << options_.json_path
              << "'\n";
    return false;
  }
  std::cout << "wrote " << options_.json_path << "\n";
  return true;
}

}  // namespace bench
}  // namespace syneval
