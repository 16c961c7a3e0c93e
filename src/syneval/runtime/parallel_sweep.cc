#include "syneval/runtime/parallel_sweep.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "syneval/fault/fault.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/supervisor.h"

namespace syneval {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// A worker's chunk queue. The owner pops from the front (preserving seed locality);
// thieves pop from the back, so owner and thief only contend on the mutex, never on
// the same end's ordering assumptions. Queues are only ever drained — no chunk is
// produced after the pool starts — so an empty scan over all queues terminates a
// worker.
class ChunkQueue {
 public:
  void Push(int chunk) { chunks_.push_back(chunk); }  // Pre-start only; no lock needed.

  bool PopFront(int* chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    if (chunks_.empty()) {
      return false;
    }
    *chunk = chunks_.front();
    chunks_.pop_front();
    return true;
  }

  bool PopBack(int* chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    if (chunks_.empty()) {
      return false;
    }
    *chunk = chunks_.back();
    chunks_.pop_back();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<int> chunks_;
};

// Seeds per chunk: small enough that every worker sees several chunks (so stealing
// can actually balance uneven trial costs), large enough that queue traffic stays
// negligible next to the trials themselves.
int AutoChunkSeeds(int num_seeds, int jobs) {
  const int target_chunks_per_worker = 4;
  const int chunk = num_seeds / (jobs * target_chunks_per_worker);
  return std::clamp(chunk, 1, 64);
}

// Auto chunk size under checkpointing. AutoChunkSeeds depends on the worker count,
// but the chunk layout is part of every checkpoint key — a resumed sweep must cut the
// seed range identically under any --jobs, so the layout is pinned instead.
constexpr int kCheckpointChunkSeeds = 16;

// Generic pool driver shared by the schedule and chaos sweeps. RunSeed accumulates one
// seed into an Outcome chunk; Merge folds a later chunk onto an earlier one. Partial
// outcomes are indexed by chunk and merged in chunk order after the join, which is
// what makes the result independent of worker count and steal order.
template <typename Outcome, typename RunSeed, typename Merge, typename Encode,
          typename Decode>
void RunSweepPool(int num_seeds, std::uint64_t base_seed, const ParallelOptions& options,
                  const char* kind, const RunSeed& run_seed, const Merge& merge,
                  const Encode& encode, const Decode& decode, Outcome* merged,
                  int* jobs_out, double* wall_seconds,
                  std::vector<WorkerTelemetry>* telemetry) {
  const auto sweep_start = std::chrono::steady_clock::now();
  const int jobs = ResolveJobs(options.jobs);
  CheckpointStore* const store = options.checkpoint;
  *jobs_out = jobs;

  if (num_seeds <= 0) {
    *wall_seconds = SecondsSince(sweep_start);
    return;
  }

  // Serial fallback: one job means the caller's thread runs the plain serial loop —
  // no pool, no queues, nothing for TSan to look at. A checkpointed sweep always
  // takes the chunked path (still inline, still threadless at jobs == 1) because the
  // chunk layout is what the store keys on.
  if ((jobs == 1 || num_seeds == 1) && store == nullptr) {
    ActiveTrialScope active;  // Feeds the watchdog's load-adaptive threshold.
    WorkerTelemetry self;
    self.worker = 0;
    for (int i = 0; i < num_seeds; ++i) {
      run_seed(base_seed + static_cast<std::uint64_t>(i), *merged);
      ++self.trials;
    }
    self.chunks = 1;
    self.wall_seconds = SecondsSince(sweep_start);
    telemetry->push_back(self);
    *jobs_out = 1;
    *wall_seconds = self.wall_seconds;
    return;
  }

  const int chunk_seeds = options.chunk_seeds > 0 ? options.chunk_seeds
                          : store != nullptr     ? kCheckpointChunkSeeds
                                                 : AutoChunkSeeds(num_seeds, jobs);
  const int num_chunks = (num_seeds + chunk_seeds - 1) / chunk_seeds;

  // Shard: worker w starts with the w-th contiguous block of chunks, so with no
  // stealing each worker sweeps one contiguous seed range.
  std::vector<ChunkQueue> queues(static_cast<std::size_t>(jobs));
  for (int c = 0; c < num_chunks; ++c) {
    queues[static_cast<std::size_t>(static_cast<long long>(c) * jobs / num_chunks)]
        .Push(c);
  }

  std::vector<Outcome> partials(static_cast<std::size_t>(num_chunks));
  telemetry->assign(static_cast<std::size_t>(jobs), WorkerTelemetry{});

  auto worker_body = [&](int w) {
    // Each pool worker runs one trial at a time, so registering the worker makes
    // ActiveTrials() ≈ the oversubscription factor the watchdog should scale by.
    ActiveTrialScope active;
    const auto worker_start = std::chrono::steady_clock::now();
    WorkerTelemetry& shard = (*telemetry)[static_cast<std::size_t>(w)];
    shard.worker = w;
    for (;;) {
      int chunk = -1;
      bool stolen = false;
      if (!queues[static_cast<std::size_t>(w)].PopFront(&chunk)) {
        // Own queue dry: scan siblings (starting after ourselves, wrapping) and steal
        // from the back of the first non-empty queue.
        for (int v = 1; v < jobs && !stolen; ++v) {
          stolen = queues[static_cast<std::size_t>((w + v) % jobs)].PopBack(&chunk);
        }
        if (!stolen) {
          break;  // Every queue drained; nothing will be produced.
        }
      }
      const int begin = chunk * chunk_seeds;
      const int end = std::min(begin + chunk_seeds, num_seeds);
      std::string key;
      bool restored = false;
      if (store != nullptr) {
        key = ChunkKey(options.checkpoint_scope, kind, base_seed, num_seeds,
                       chunk_seeds, chunk);
        std::string payload;
        Outcome cached;
        // A payload that fails to decode (foreign writer, truncated entry the atomic
        // snapshot should make impossible) is a plain cache miss: re-fold the chunk.
        if (store->Lookup(key, &payload) && decode(payload, &cached)) {
          partials[static_cast<std::size_t>(chunk)] = std::move(cached);
          restored = true;
        }
      }
      if (restored) {
        ++shard.cached;
      } else {
        Outcome part;
        for (int i = begin; i < end; ++i) {
          run_seed(base_seed + static_cast<std::uint64_t>(i), part);
        }
        if (store != nullptr) {
          store->Commit(key, encode(part));
        }
        partials[static_cast<std::size_t>(chunk)] = std::move(part);
        shard.trials += end - begin;
        ++shard.chunks;
      }
      shard.steals += stolen ? 1 : 0;
    }
    shard.wall_seconds = SecondsSince(worker_start);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs - 1));
  for (int w = 1; w < jobs; ++w) {
    pool.emplace_back(worker_body, w);
  }
  worker_body(0);  // The calling thread is worker 0.
  for (std::thread& thread : pool) {
    thread.join();
  }

  // Deterministic merge: chunk order == seed order, regardless of which worker
  // computed which chunk.
  for (Outcome& part : partials) {
    merge(*merged, std::move(part));
  }
  if (store != nullptr) {
    store->Flush();  // Final snapshot: a re-run of this sweep is all cache hits.
  }
  *wall_seconds = SecondsSince(sweep_start);
}

}  // namespace

int ResolveJobs(int jobs) {
  if (jobs > 0) {
    return jobs;
  }
  if (jobs == 0) {
    if (const char* env = std::getenv("SYNEVAL_JOBS"); env != nullptr && *env != '\0') {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(env, &end, 10);
      if (end != env && *end == '\0' && errno != ERANGE && parsed > 0 &&
          parsed <= std::numeric_limits<int>::max()) {
        return static_cast<int>(parsed);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return 1;
}

ParallelSweepResult ParallelSweepSchedules(
    int num_seeds, const std::function<TrialReport(std::uint64_t)>& trial,
    std::uint64_t base_seed, const ParallelOptions& options) {
  ParallelSweepResult result;
  RunSweepPool<SweepOutcome>(
      num_seeds, base_seed, options, "sweep",
      [&trial](std::uint64_t seed, SweepOutcome& outcome) {
        sweep_internal::AccumulateTrial(trial, seed, outcome);
      },
      [](SweepOutcome& into, SweepOutcome&& chunk) {
        sweep_internal::MergeOutcome(into, std::move(chunk));
      },
      [](const SweepOutcome& outcome) { return EncodeOutcome(outcome); },
      [](const std::string& payload, SweepOutcome* out) {
        return DecodeOutcome(payload, out);
      },
      &result.outcome, &result.jobs, &result.wall_seconds, &result.workers);
  return result;
}

ParallelSweepResult ParallelSweepSchedules(
    int num_seeds, const std::function<std::string(std::uint64_t)>& trial,
    std::uint64_t base_seed, const ParallelOptions& options) {
  return ParallelSweepSchedules(
      num_seeds,
      [&trial](std::uint64_t seed) {
        TrialReport report;
        report.message = trial(seed);
        return report;
      },
      base_seed, options);
}

ParallelChaosResult ParallelSweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& options) {
  ParallelChaosResult result;
  RunSweepPool<ChaosSweepOutcome>(
      num_seeds, base_seed, options, "chaos",
      [&trial, &plan](std::uint64_t seed, ChaosSweepOutcome& outcome) {
        sweep_internal::AccumulateChaosTrial(trial, plan, seed, outcome);
      },
      [](ChaosSweepOutcome& into, ChaosSweepOutcome&& chunk) {
        sweep_internal::MergeChaosOutcome(into, std::move(chunk));
      },
      [](const ChaosSweepOutcome& outcome) { return EncodeChaosOutcome(outcome); },
      [](const std::string& payload, ChaosSweepOutcome* out) {
        return DecodeChaosOutcome(payload, out);
      },
      &result.outcome, &result.jobs, &result.wall_seconds, &result.workers);
  return result;
}

void MergeWorkerTelemetry(std::vector<WorkerTelemetry>& into,
                          const std::vector<WorkerTelemetry>& shard) {
  if (into.size() < shard.size()) {
    into.resize(shard.size());
  }
  for (std::size_t w = 0; w < shard.size(); ++w) {
    into[w].worker = static_cast<int>(w);
    into[w].trials += shard[w].trials;
    into[w].chunks += shard[w].chunks;
    into[w].steals += shard[w].steals;
    into[w].cached += shard[w].cached;
    into[w].wall_seconds += shard[w].wall_seconds;
  }
}

}  // namespace syneval
