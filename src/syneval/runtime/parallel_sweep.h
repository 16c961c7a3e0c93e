// Parallel sweep engine: schedule sweeps sharded across a work-stealing worker pool,
// with a merge step that is bit-identical to the serial sweep.
//
// Every trial in a sweep (runtime/explore.h) is an independent deterministic replay —
// the trial constructs its own DetRuntime, AnomalyDetector, and (for chaos sweeps)
// FaultInjector from nothing but the seed — so a sweep is embarrassingly parallel.
// This engine exploits that without giving up the repository's core invariant that
// every aggregate is a pure function of (suite, seed range):
//
//   * The seed range is cut into contiguous CHUNKS of seeds. Each chunk is folded into
//     a partial outcome using the exact same per-seed accumulation code the serial
//     sweep runs (sweep_internal::AccumulateTrial / AccumulateChaosTrial).
//   * Chunks are distributed over a fixed-size pool of workers, each of which drains
//     its own queue front-to-back and STEALS from the back of a sibling's queue when
//     it runs dry. Steal order affects only which thread computes a chunk, never the
//     chunk's content.
//   * After all workers join, the partial outcomes are merged IN CHUNK ORDER. Because
//     sweep aggregation is associative over contiguous seed ranges (counts add, seed
//     lists concatenate in order, "first failure"/"first anomaly" are the first
//     non-empty in order), the merged result is bit-identical to the serial sweep for
//     the same seed set — regardless of worker count, chunk size, or steal order.
//     tests/parallel_sweep_test.cc enforces this field by field.
//
// Each worker owns everything it touches while running trials: the trial callback
// builds a fresh DetRuntime + detector per seed, and the engine gives every worker its
// own telemetry shard (WorkerTelemetry: trials, chunks, steals, wall time) that is
// only read after the pool joins. The trial callback itself must therefore be safe to
// invoke concurrently from multiple threads — every trial in this repository already
// is, because trials share no state by construction.
//
// docs/PARALLEL_EXPLORATION.md documents the determinism contract and the --jobs
// conventions shared by the benches and CI.

#ifndef SYNEVAL_RUNTIME_PARALLEL_SWEEP_H_
#define SYNEVAL_RUNTIME_PARALLEL_SWEEP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "syneval/runtime/explore.h"

namespace syneval {

class CheckpointStore;

struct ParallelOptions {
  // Worker count. 1 (the default) runs the sweep serially on the calling thread — the
  // exact serial code path, no pool. 0 means auto: the SYNEVAL_JOBS environment
  // variable when set to a positive integer, otherwise hardware_concurrency().
  int jobs = 1;
  // Seeds per stealable chunk. 0 = auto (sized so each worker sees several chunks,
  // keeping the steal queue useful without shredding cache locality). With a
  // checkpoint attached, auto pins a fixed chunk size instead, so the chunk layout —
  // which is part of every checkpoint key — is independent of the worker count and a
  // sweep can resume under a different --jobs.
  int chunk_seeds = 0;

  // Checkpoint/resume (runtime/checkpoint.h). When non-null, every folded chunk is
  // committed to the store under a key derived from (checkpoint_scope, sweep kind,
  // base seed, seed count, chunk layout, chunk index), and chunks already present are
  // restored instead of re-run — so a killed sweep, resumed against the same store,
  // merges bit-identical to an uninterrupted run. `checkpoint_scope` must identify
  // everything that shapes the trial beyond the seed (suite case, workload scale,
  // fault plan); sweep entry points that know that context (conformance, chaos
  // calibration) append it themselves.
  CheckpointStore* checkpoint = nullptr;
  std::string checkpoint_scope;
};

// Resolves a --jobs style request: n > 0 is taken literally; 0 consults SYNEVAL_JOBS
// (a positive decimal int; anything else, including a value past INT_MAX, is ignored)
// and then hardware_concurrency(); anything else degrades to 1. Always returns >= 1.
int ResolveJobs(int jobs);

// One worker's telemetry shard. Written only by its owning worker while the pool runs;
// read by the merge step after the join.
struct WorkerTelemetry {
  int worker = 0;           // Pool index, 0-based.
  int trials = 0;           // Seeds this worker executed (chaos: seeds, not runs).
  int chunks = 0;           // Chunks this worker folded (excludes restored ones).
  int steals = 0;           // Chunks taken from another worker's queue.
  int cached = 0;           // Chunks restored from the checkpoint store, not re-run.
  double wall_seconds = 0;  // Wall time from worker start to queue-drained exit.
};

struct ParallelSweepResult {
  SweepOutcome outcome;     // Bit-identical to the serial sweep of the same seeds.
  int jobs = 1;             // Resolved worker count actually used.
  double wall_seconds = 0;  // Whole-sweep wall time (shard + run + merge).
  std::vector<WorkerTelemetry> workers;  // One entry per pool worker.
};

struct ParallelChaosResult {
  ChaosSweepOutcome outcome;
  int jobs = 1;
  double wall_seconds = 0;
  std::vector<WorkerTelemetry> workers;
};

// Parallel counterpart of SweepSchedules(num_seeds, trial, base_seed): same outcome,
// plus pool telemetry. options.jobs == 1 runs serially inline.
ParallelSweepResult ParallelSweepSchedules(
    int num_seeds, const std::function<TrialReport(std::uint64_t)>& trial,
    std::uint64_t base_seed = 1, const ParallelOptions& options = {});

ParallelSweepResult ParallelSweepSchedules(
    int num_seeds, const std::function<std::string(std::uint64_t)>& trial,
    std::uint64_t base_seed = 1, const ParallelOptions& options = {});

// Parallel counterpart of SweepChaos: each seed still contributes one matched
// fault-on + fault-off pair, executed by the same worker back to back.
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
