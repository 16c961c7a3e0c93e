// Shared benchmark harness: one flag parser, one timing loop, one output schema.
//
// Every bench in bench/ links this library instead of hand-rolling steady_clock
// arithmetic. The harness provides:
//
//   * Options / ParseArgs — uniform flags:
//       --json=<path>     write machine-readable results (schema below)
//       --trace=<path>    write a Perfetto/Chrome trace (benches that record one)
//       --repeats=<n>     measured repetitions per configuration (default 3)
//       --warmup=<n>      unrecorded warmup repetitions (default 1)
//       --jobs=<n>        sweep worker count (0 = auto: SYNEVAL_JOBS env, then
//                         hardware_concurrency; sweeps are bit-identical at any n)
//       --seeds=<n>       schedule seeds per sweep (0 = the bench's default count)
//       --resume=<path>   checkpoint log (runtime/checkpoint.h): seeds already
//                         run in a previous (possibly killed) run are restored
//                         instead of re-run; the folded outcome is bit-identical
//                         to an uninterrupted sweep
//       --quarantine-out=<path>  where supervised benches write quarantine.json
//     Unknown flags are rejected with a usage message so CI typos fail loudly.
//
//   * Stopwatch / Repeat — warmup + repeat + outlier handling. Repeat reports the
//     MEDIAN of the measured samples (with min/max/mean alongside): the median is
//     robust against the one-off scheduling hiccups that dominate short multithreaded
//     runs, where a mean would need ad-hoc outlier rejection.
//
//   * Reporter — collects {bench, mechanism, problem, metric, value, unit} rows,
//     renders them as a text table, and writes the stable JSON schema:
//
//       {"schema_version": 5,
//        "bench": "<name>",
//        "jobs": <n>,                  // only when the bench ran a sweep pool
//        "wall_seconds": <x>,          // ditto
//        "workers": [{"worker": 0, "trials": ..., "chunks": ..., "steals": ...,
//                     "cached": ..., "wall_seconds": ...}, ...],  // ditto: per-worker
//        "supervisor": {"reaped": ..., "crashed": ..., "retried": ...,
//                       "quarantined": ...},        // only for supervised benches
//        "journal": {"appends": ...,
//                    "replayed": ...},              // only for --resume benches
//        "postmortem": [{"mechanism": "...", "problem": "...", "seed": <n>,
//                        "cause": "...", "text": "...",
//                        "detail": {...}}, ...],    // only when postmortems occurred
//        "results": [{"bench": "...", "mechanism": "...", "problem": "...",
//                     "metric": "...", "value": <number>, "unit": "..."}, ...]}
//
//     The schema is append-only by contract: consumers (CI's perf-smoke validator,
//     bench/compare_baseline.py, plotting scripts) may rely on these six row fields
//     existing with these names. schema_version 2 added the optional top-level
//     jobs/wall_seconds/workers keys (the "results" rows are unchanged from v1);
//     schema_version 3 added the optional top-level "postmortem" array (flight-recorder
//     narratives of anomalous trials — see src/syneval/telemetry/postmortem.h);
//     schema_version 4 added the optional top-level "supervisor" counters
//     (runtime/supervisor.h) and the "cached" field on worker rows (seeds restored
//     from a --resume checkpoint); schema_version 5 added the optional top-level
//     "journal" counters (runtime/checkpoint.h log telemetry: lines appended, and
//     lines read on Load).
//     The worker telemetry, supervisor counters, journal counters, and postmortems
//     deliberately live OUTSIDE "results" so golden-file diffs over the deterministic
//     rows never see machine-dependent timings or multi-line narratives.

#ifndef SYNEVAL_BENCH_HARNESS_H_
#define SYNEVAL_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "syneval/runtime/parallel_sweep.h"
#include "syneval/runtime/supervisor.h"

namespace syneval {

class CheckpointStore;

namespace bench {

struct Options {
  std::string bench;       // Bench name; set by ParseArgs from its argument.
  std::string json_path;   // --json=<path>; empty = no JSON output.
  std::string trace_path;  // --trace=<path>; empty = no trace output.
  int repeats = 3;         // --repeats=<n>, clamped to >= 1.
  int warmup = 1;          // --warmup=<n>, clamped to >= 0.
  int jobs = 0;            // --jobs=<n>; 0 = auto (see ResolveJobs). Sweep benches
                           // feed this into ParallelOptions; timing benches ignore it.
  int seeds = 0;           // --seeds=<n>; 0 = the bench's built-in seed count.
  std::string resume_path;  // --resume=<path>; empty = no checkpointing.
  std::string quarantine_path;   // --quarantine-out=<path>; empty = don't write.

  // The sweep pool configuration this bench should use (jobs passed through; 0 stays
  // "auto" so SYNEVAL_JOBS and hardware_concurrency apply at resolve time).
  ParallelOptions Parallel() const {
    ParallelOptions parallel;
    parallel.jobs = jobs;
    return parallel;
  }
  int SeedsOr(int fallback) const { return seeds > 0 ? seeds : fallback; }
};

// Builds (and Load()s) the checkpoint store for --resume; nullptr when the flag was
// not given. The bench attaches it via ParallelOptions::checkpoint with the bench
// name as the scope root, and keeps it alive for the duration of its sweeps:
//
//   auto store = MakeCheckpointStore(options);
//   ParallelOptions parallel = options.Parallel();
//   if (store) { parallel.checkpoint = store.get(); parallel.checkpoint_scope = options.bench; }
std::unique_ptr<CheckpointStore> MakeCheckpointStore(const Options& options);

// Parses the uniform flags. On --help or an unknown/malformed flag, prints usage and
// exits (0 for --help, 2 otherwise) — benches have no flags of their own.
Options ParseArgs(int argc, char** argv, const std::string& bench_name);

// As above, but benches with flags of their own pass `extras`: any unknown
// "--key=value" flag lands there (key without the leading "--") instead of being
// rejected. Flags that are not of that shape still print usage and exit 2.
Options ParseArgs(int argc, char** argv, const std::string& bench_name,
                  std::map<std::string, std::string>* extras);

// Minimal steady-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

  std::uint64_t Nanos() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start_)
                                          .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Aggregate of the measured (post-warmup) samples of one configuration.
struct RepeatStats {
  double median_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
  double mean_seconds = 0;
  int samples = 0;
};

// Runs `run` options.warmup times unrecorded, then options.repeats times measured.
// `run` returns the duration of one repetition in seconds (time only the workload:
// construct mechanisms outside the timed section where possible).
RepeatStats Repeat(const Options& options, const std::function<double()>& run);

// Convenience: times `fn` once with a Stopwatch.
double TimeSeconds(const std::function<void()>& fn);

// Collects result rows and writes the stable JSON schema.
class Reporter {
 public:
  explicit Reporter(Options options);

  // One result row. `metric` names the quantity ("throughput", "latency_p99", ...),
  // `unit` its unit ("items/s", "ns", ...); `problem` may be "" for bench-wide rows.
  void Add(const std::string& mechanism, const std::string& problem,
           const std::string& metric, double value, const std::string& unit);

  // Sweep-pool accounting for benches that ran parallel sweeps: emitted as the
  // top-level "jobs"/"wall_seconds"/"workers" keys of the v2 schema (NOT as result
  // rows — see the schema comment above).
  void SetSweepInfo(int jobs, double wall_seconds);
  void SetWorkers(std::vector<WorkerTelemetry> workers);

  // Supervision counters for benches that ran supervised trials: emitted as the
  // top-level "supervisor" object of the v4 schema.
  void SetSupervisor(const SupervisorStats& stats);

  // Checkpoint-log counters for benches that ran with --resume: emitted as the
  // top-level "journal" object of the v5 schema (CheckpointStore::appends() /
  // replayed()).
  void SetJournal(int appends, int replayed);

  // One retained postmortem, emitted under the top-level "postmortem" array of the
  // v3 schema. `detail_json` is an optional pre-rendered JSON object
  // (Postmortem::ToJson()) embedded verbatim as the entry's "detail" key.
  struct PostmortemEntry {
    std::string mechanism;
    std::string problem;
    std::uint64_t seed = 0;
    std::string cause;
    std::string text;
    std::string detail_json;
  };
  void AddPostmortem(PostmortemEntry entry);

  // The per-worker telemetry rendered as an aligned text table ("" when no workers
  // were recorded).
  std::string WorkerTable() const;

  // All rows rendered as an aligned text table (for the human-readable output).
  std::string Table() const;

  // Writes JSON to options.json_path when set (prints the path written). Returns
  // false and prints to stderr when the file cannot be written; true otherwise
  // (including when no --json was requested).
  bool Finish() const;

  const Options& options() const { return options_; }

 private:
  struct Row {
    std::string mechanism;
    std::string problem;
    std::string metric;
    double value;
    std::string unit;
  };

  Options options_;
  std::vector<Row> rows_;
  bool have_sweep_info_ = false;
  int sweep_jobs_ = 0;
  double sweep_wall_seconds_ = 0;
  std::vector<WorkerTelemetry> workers_;
  bool have_supervisor_ = false;
  SupervisorStats supervisor_;
  bool have_journal_ = false;
  int journal_appends_ = 0;
  int journal_replayed_ = 0;
  std::vector<PostmortemEntry> postmortems_;
};

// After the sweeps: prints "resume: N seed(s) restored, M now checkpointed in <path>"
// (N = the store's hits(), which count only records that decoded) and records the
// store's log counters as the reporter's "journal" object. No-op for a null store.
void ReportResume(const CheckpointStore* store, Reporter& reporter);

}  // namespace bench
}  // namespace syneval

#endif  // SYNEVAL_BENCH_HARNESS_H_
