// Metrics registry: lock-free-recording counters, gauges and log-bucketed latency
// histograms, named and owned by a MetricsRegistry.
//
// Design constraints (this is on the hot path of every mechanism):
//   * Recording takes no lock: counters are sharded across cache lines and histograms
//     are one relaxed fetch_add on a power-of-two bucket. The registry mutex guards
//     only metric *creation* (name → object), which mechanisms do once at construction.
//   * Reading is wait-free but weakly consistent: a snapshot taken while writers run
//     sees each atomic at some recent value, which is exactly what a sampling exporter
//     needs. Exact totals require writers to have finished (the bench harness joins
//     its workload threads before reporting).
//
// MechanismStats is the standard instrument bundle every synchronization mechanism in
// this repository reports through (wait time, hold time, admissions, signals, wakeups,
// queue depth) — the quantities Bloom's Section 5 argues about qualitatively.

#ifndef SYNEVAL_TELEMETRY_METRICS_H_
#define SYNEVAL_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace syneval {

// Monotonic counter. Adds go to one of kShards cache-line-sized slots chosen per
// thread, so concurrent writers on different cores do not bounce one line.
class Counter {
 public:
  Counter() = default;

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1);
  std::uint64_t Value() const;
  void Reset();

 private:
  static constexpr int kShards = 16;
  // Padded to a cache line rather than alignas(64): separation is what prevents false
  // sharing between shards, and keeping alignof(Counter) == 8 lets containers (the
  // registry's deques) store metric objects without over-aligned allocation.
  struct Shard {
    std::atomic<std::uint64_t> value{0};
    char padding[64 - sizeof(std::atomic<std::uint64_t>)];
  };
  std::array<Shard, kShards> shards_;
};

// Last-write-wins instantaneous value, with a high-water mark.
class Gauge {
 public:
  Gauge() = default;

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t value);
  void Add(std::int64_t delta);
  std::int64_t Value() const;
  std::int64_t Max() const;  // Highest value ever Set/reached; 0 before any write.

 private:
  void RaiseMax(std::int64_t candidate);

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

// Log-bucketed histogram of non-negative 64-bit samples (latencies in nanoseconds).
// Bucket 0 holds the value 0; bucket i (1..64) holds [2^(i-1), 2^i). The last bucket
// therefore covers [2^63, 2^64) — the overflow range; no sample is ever dropped.
// Percentiles are resolved to the bucket upper edge, clamped to the observed min/max,
// so a histogram with one sample reports that sample exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  Histogram() = default;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(std::uint64_t value);

  std::uint64_t Count() const;
  std::uint64_t Sum() const;
  std::uint64_t Min() const;  // 0 when empty.
  std::uint64_t Max() const;  // 0 when empty.
  double Mean() const;        // 0 when empty.

  // p in [0, 100]. Returns 0 when empty. Monotone in p; Percentile(100) == Max().
  std::uint64_t Percentile(double p) const;

  std::vector<std::uint64_t> BucketCounts() const;

  // Bucket index a value falls into, and the (inclusive) value range of a bucket.
  static int BucketFor(std::uint64_t value);
  static std::uint64_t BucketLowerBound(int bucket);
  static std::uint64_t BucketUpperBound(int bucket);

  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  Counter sum_;
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

// The standard per-mechanism instrument bundle. Created (once per mechanism name) via
// MetricsRegistry::ForMechanism; multiple instances of the same mechanism type under
// one registry share a bundle, which is what an overhead table wants.
//
// Conventions (see docs/OBSERVABILITY.md for the per-mechanism mapping):
//   wait        — request→enter: nanoseconds from an operation's arrival at the
//                 mechanism to its admission (entry queues, guarded queues, P()).
//   hold        — enter→exit: nanoseconds of one exclusive tenure (monitor ownership,
//                 serializer possession, region body, semaphore unit, op bracket).
//   admissions  — operations admitted.
//   signals     — explicit wakeup notifications delivered (Signal, V, notify).
//   broadcasts  — broadcast notifications delivered.
//   wakeups     — threads resumed from a mechanism-level block; wakeups / admissions
//                 > 1 quantifies futile (Mesa-style re-contended) wakeups.
//   queue_depth — instantaneous blocked-thread count, with high-water mark.
struct MechanismStats {
  std::string name;
  Histogram wait;
  Histogram hold;
  Counter admissions;
  Counter signals;
  Counter broadcasts;
  Counter wakeups;
  Gauge queue_depth;
};

// Named metric store. Creation is mutex-guarded and idempotent (same name → same
// object, stable address for the registry's lifetime); recording through the returned
// references is lock-free. Snapshot/ToJson may run concurrently with writers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);
  MechanismStats& ForMechanism(const std::string& name);

  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
  };

  // Weakly consistent snapshot of everything registered, names sorted.
  Snapshot TakeSnapshot() const;

  // Registered mechanism bundle names, sorted (bundle metrics also appear in
  // TakeSnapshot under "<mechanism>/<metric>" names).
  std::vector<std::string> MechanismNames() const;
  const MechanismStats* FindMechanism(const std::string& name) const;

  // The whole registry as one JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"p50":..}}}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;  // Guards the maps only; metric objects are append-only.
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::deque<MechanismStats> mechanism_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::map<std::string, MechanismStats*> mechanisms_;
};

// JSON string escaping shared by the telemetry emitters (registry JSON, Chrome trace,
// bench harness output).
std::string JsonEscape(const std::string& text);

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_METRICS_H_
