// Parallel sweep engine: the per-seed results of a seed range, computed on a
// work-stealing worker pool and returned in seed order, for one fold after the join.
//
// Every trial in a sweep (runtime/explore.h) is an independent deterministic replay —
// the trial constructs its own DetRuntime, AnomalyDetector, and (for chaos sweeps)
// FaultInjector from nothing but the seed — so a sweep is embarrassingly parallel.
// This engine exploits that without giving up the repository's core invariant that
// every aggregate is a pure function of (suite, seed range):
//
//   * The pool computes results[i] = run(base_seed + i) and nothing else. The seed
//     range is cut into contiguous CHUNKS of seeds, dealt to a fixed-size pool of
//     workers, each of which drains its own queue front-to-back and STEALS from the
//     back of a sibling's queue when it runs dry. Steal order decides only which
//     thread runs a seed; each result lands in its seed's slot. A chunk is only the
//     scheduling grain: nothing outside the pool sees it.
//   * After all workers join, each sweep folds the results ONCE, in seed order
//     (sweep_internal::AccumulateTrial / AccumulateChaosTrial). There is one fold and
//     one order, so the aggregate is the same at any worker count, chunk size, or
//     steal order. tests/parallel_sweep_test.cc enforces this field by field.
//   * At one job the pool starts no thread: the caller, as worker 0, runs the chunks
//     in order, i.e. the seeds in order.
//
// Each worker owns everything it touches while running trials: the trial callback
// builds a fresh DetRuntime + detector per seed, and the engine gives every worker its
// own telemetry shard (WorkerTelemetry: trials, chunks, steals, wall time) that is
// only read after the pool joins. The run callback itself must therefore be safe to
// invoke concurrently from multiple threads — every trial in this repository already
// is, because trials share no state by construction.
//
// With a CheckpointStore (ParallelOptions::checkpoint) and a SeedCodec, every seed
// commits its record to the store under its SeedKey, and a seed already present is
// restored instead of re-run (runtime/checkpoint.h) — under any worker count and any
// chunk size.
//
// docs/PARALLEL_EXPLORATION.md documents the determinism contract and the --jobs
// conventions shared by the benches and CI.

#ifndef SYNEVAL_RUNTIME_PARALLEL_SWEEP_H_
#define SYNEVAL_RUNTIME_PARALLEL_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "syneval/runtime/explore.h"

namespace syneval {

// Resolves a --jobs style request: n > 0 is taken literally; 0 consults SYNEVAL_JOBS
// (a positive decimal int; anything else, including a value past INT_MAX, is ignored)
// and then hardware_concurrency(); anything else degrades to 1. Always returns >= 1.
int ResolveJobs(int jobs);

// One worker's telemetry shard. Written only by its owning worker while the pool runs;
// read after the join.
struct WorkerTelemetry {
  int worker = 0;           // Pool index, 0-based.
  int trials = 0;           // Seeds this worker ran (chaos: seeds, not runs).
  int chunks = 0;           // Chunks this worker took from a queue.
  int steals = 0;           // Chunks taken from another worker's queue.
  int cached = 0;           // Seeds restored from the checkpoint store, not re-run.
  double wall_seconds = 0;  // Wall time from worker start to queue-drained exit.
};

// How one pool run went: what every sweep reports next to its results.
struct SweepRun {
  int jobs = 1;             // Workers actually started (never more than chunks).
  double wall_seconds = 0;  // Whole-sweep wall time (shard + run + join).
  std::vector<WorkerTelemetry> workers;  // One entry per pool worker.
};

// The per-seed results of one pool run: results[i] is run(base_seed + i).
template <typename Result>
struct SeedSweep : SweepRun {
  std::vector<Result> results;
};

// The record codec that lets a sweep checkpoint its seeds. `kind` is SeedKey's sweep
// kind ("sweep", "chaos"). A record that fails to decode makes its seed a cache miss.
template <typename Result>
struct SeedCodec {
  const char* kind;
  std::string (*encode)(const Result&);
  bool (*decode)(const std::string&, Result*);
};

namespace sweep_internal {

// Type-erased view of one SweepSeeds call: run(i) fills slot i from seed
// base_seed + i; encode/decode convert slot i to and from its record (null when the
// sweep does not checkpoint).
struct SeedSlots {
  std::function<void(int)> run;
  const char* kind = nullptr;
  std::function<std::string(int)> encode;
  std::function<bool(int, const std::string&)> decode;
};

void RunSeedPool(int num_seeds, std::uint64_t base_seed, const ParallelOptions& options,
                 const SeedSlots& slots, SweepRun* run);

}  // namespace sweep_internal

// The engine: runs `run` for seeds base_seed .. base_seed + num_seeds - 1 on
// ResolveJobs(options.jobs) workers and returns the results in seed order. With both
// options.checkpoint and `codec`, each seed is committed to and restored from the
// store under SeedKey(options.checkpoint_scope, codec->kind, base_seed, seed); without
// a codec the store is not touched. `run` must not throw: the sweeps' run steps
// (sweep_internal::RunTrial / RunChaosSeed) turn exceptions into results.
template <typename Result>
SeedSweep<Result> SweepSeeds(int num_seeds, std::uint64_t base_seed,
                             const ParallelOptions& options,
                             const std::function<Result(std::uint64_t)>& run,
                             const SeedCodec<Result>* codec = nullptr) {
  SeedSweep<Result> sweep;
  sweep.results.resize(num_seeds > 0 ? static_cast<std::size_t>(num_seeds) : 0);
  std::vector<Result>& results = sweep.results;
  sweep_internal::SeedSlots slots;
  slots.run = [&](int i) {
    results[static_cast<std::size_t>(i)] = run(base_seed + static_cast<std::uint64_t>(i));
  };
  if (codec != nullptr) {
    slots.kind = codec->kind;
    slots.encode = [&](int i) { return codec->encode(results[static_cast<std::size_t>(i)]); };
    slots.decode = [&](int i, const std::string& record) {
      return codec->decode(record, &results[static_cast<std::size_t>(i)]);
    };
  }
  sweep_internal::RunSeedPool(num_seeds, base_seed, options, slots, &sweep);
  return sweep;
}

// A pool run with its seeds folded: the outcome is the same at any worker count,
// chunk size or steal order.
struct ParallelSweepResult : SweepRun {
  SweepOutcome outcome;
};

struct ParallelChaosResult : SweepRun {
  ChaosSweepOutcome outcome;
};

// SweepSchedules(num_seeds, trial, base_seed, options) plus pool telemetry.
ParallelSweepResult ParallelSweepSchedules(
    int num_seeds, const std::function<TrialReport(std::uint64_t)>& trial,
    std::uint64_t base_seed = 1, const ParallelOptions& options = {});

// The chaos sweep's run step on the engine, checkpointed as chaospair2 records: each
// seed's matched fault-on + fault-off pair, run by one worker back to back, returned
// in seed order for the caller's fold (the chaos calibration's fold also decides
// quarantine, fault/chaos.h).
SeedSweep<ChaosSeedPair> SweepChaosSeeds(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& options);

// SweepChaos plus pool telemetry: SweepChaosSeeds, folded with AccumulateChaosTrial.
ParallelChaosResult ParallelSweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed = 1,
    const ParallelOptions& options = {});

// Sums per-worker telemetry shards by worker index (used by callers that run many
// sweeps with one pool configuration and want a single per-worker table, e.g. the
// chaos calibration grid).
void MergeWorkerTelemetry(std::vector<WorkerTelemetry>& into,
                          const std::vector<WorkerTelemetry>& shard);

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_PARALLEL_SWEEP_H_
