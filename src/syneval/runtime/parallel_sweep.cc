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

// A chunk's payload: its seeds' records in seed order, joined by ','. Records carry no
// raw ',' (SeedCodec), so the join needs no escaping of its own.
std::string EncodeChunk(const sweep_internal::SeedSlots& slots, int begin, int end) {
  std::string payload;
  for (int i = begin; i < end; ++i) {
    if (i > begin) {
      payload += ',';
    }
    payload += slots.encode(i);
  }
  return payload;
}

// Restores seeds [begin, end) from a chunk payload. False — a cache miss — unless the
// payload holds exactly one decodable record per seed.
bool RestoreChunk(const sweep_internal::SeedSlots& slots, int begin, int end,
                  const std::string& payload) {
  std::size_t pos = 0;
  for (int i = begin; i < end; ++i) {
    // Every record but the last ends at a ','; the last one ends the payload.
    const std::size_t comma = payload.find(',', pos);
    if ((comma == std::string::npos) != (i + 1 == end) ||
        !slots.decode(i, payload.substr(pos, comma - pos))) {
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

// The two sweeps' per-seed records (runtime/checkpoint.h).
constexpr SeedCodec<TrialReport> kTrialCodec{"sweep", EncodeTrialReport,
                                             DecodeTrialReport};
constexpr SeedCodec<ChaosSeedPair> kChaosCodec{"chaos", EncodeChaosSeedPair,
                                               DecodeChaosSeedPair};

}  // namespace

namespace sweep_internal {

void RunSeedPool(int num_seeds, std::uint64_t base_seed, const ParallelOptions& options,
                 const SeedSlots& slots, SweepRun* run) {
  const auto sweep_start = std::chrono::steady_clock::now();
  run->jobs = ResolveJobs(options.jobs);
  if (num_seeds <= 0) {
    run->wall_seconds = SecondsSince(sweep_start);
    return;
  }
  CheckpointStore* const store = slots.kind != nullptr ? options.checkpoint : nullptr;
  const int chunk_seeds = options.chunk_seeds > 0 ? options.chunk_seeds
                          : store != nullptr     ? kCheckpointChunkSeeds
                                                 : AutoChunkSeeds(num_seeds, run->jobs);
  const int num_chunks = (num_seeds + chunk_seeds - 1) / chunk_seeds;
  const int jobs = run->jobs = std::min(run->jobs, num_chunks);

  // Shard: worker w starts with the w-th contiguous block of chunks, so with no
  // stealing each worker sweeps one contiguous seed range (and one worker, all of
  // them in order).
  std::vector<ChunkQueue> queues(static_cast<std::size_t>(jobs));
  for (int c = 0; c < num_chunks; ++c) {
    queues[static_cast<std::size_t>(static_cast<long long>(c) * jobs / num_chunks)]
        .Push(c);
  }
  run->workers.assign(static_cast<std::size_t>(jobs), WorkerTelemetry{});

  auto worker_body = [&](int w) {
    // Each pool worker runs one trial at a time, so registering the worker makes
    // ActiveTrials() ≈ the oversubscription factor the watchdog should scale by. This
    // is the one registration of a running trial: supervised attempts run inside it.
    ActiveTrialScope active;
    const auto worker_start = std::chrono::steady_clock::now();
    WorkerTelemetry& shard = run->workers[static_cast<std::size_t>(w)];
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
      shard.steals += stolen ? 1 : 0;
      const int begin = chunk * chunk_seeds;
      const int end = std::min(begin + chunk_seeds, num_seeds);
      std::string key;
      if (store != nullptr) {
        key = ChunkKey(options.checkpoint_scope, slots.kind, base_seed, num_seeds,
                       chunk_seeds, chunk);
        std::string payload;
        // A payload that fails to decode (foreign writer, an older record version, a
        // truncated entry the atomic snapshot should make impossible) is a plain cache
        // miss: the chunk re-runs, and the store does not count it as a hit.
        if (store->Lookup(key, &payload, [&](const std::string& found) {
              return RestoreChunk(slots, begin, end, found);
            })) {
          ++shard.cached;
          continue;
        }
      }
      for (int i = begin; i < end; ++i) {
        slots.run(i);
      }
      if (store != nullptr) {
        store->Commit(key, EncodeChunk(slots, begin, end));
      }
      shard.trials += end - begin;
      ++shard.chunks;
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
  if (store != nullptr) {
    store->Flush();  // Final snapshot: a re-run of this sweep is all cache hits.
  }
  run->wall_seconds = SecondsSince(sweep_start);
}

}  // namespace sweep_internal

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
  SeedSweep<TrialReport> sweep = SweepSeeds<TrialReport>(
      num_seeds, base_seed, options,
      [&trial](std::uint64_t seed) { return sweep_internal::RunTrial(trial, seed); },
      &kTrialCodec);
  ParallelSweepResult result;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    sweep_internal::AccumulateTrial(std::move(sweep.results[i]), base_seed + i,
                                    result.outcome);
  }
  result.jobs = sweep.jobs;
  result.wall_seconds = sweep.wall_seconds;
  result.workers = std::move(sweep.workers);
  return result;
}

SeedSweep<ChaosSeedPair> SweepChaosSeeds(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& options) {
  return SweepSeeds<ChaosSeedPair>(
      num_seeds, base_seed, options,
      [&trial, &plan](std::uint64_t seed) {
        return sweep_internal::RunChaosSeed(trial, plan, seed);
      },
      &kChaosCodec);
}

ParallelChaosResult ParallelSweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& options) {
  SeedSweep<ChaosSeedPair> sweep = SweepChaosSeeds(num_seeds, trial, plan, base_seed, options);
  ParallelChaosResult result;
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    sweep_internal::AccumulateChaosTrial(std::move(sweep.results[i]), base_seed + i,
                                         result.outcome);
  }
  result.jobs = sweep.jobs;
  result.wall_seconds = sweep.wall_seconds;
  result.workers = std::move(sweep.workers);
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
