#include "syneval/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace syneval {

namespace {

// Per-thread shard assignment: consecutive registering threads take consecutive slots,
// which keeps one-thread-per-core workloads on distinct cache lines.
int ThisThreadShard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(slot % 16u);
}

}  // namespace

// ---------------------------------------------------------------------------------------
// Counter

void Counter::Add(std::uint64_t n) {
  shards_[static_cast<std::size_t>(ThisThreadShard() % kShards)].value.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------------------
// Gauge

void Gauge::Set(std::int64_t value) {
  value_.store(value, std::memory_order_relaxed);
  RaiseMax(value);
}

void Gauge::Add(std::int64_t delta) {
  const std::int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  RaiseMax(now);
}

std::int64_t Gauge::Value() const { return value_.load(std::memory_order_relaxed); }

std::int64_t Gauge::Max() const { return max_.load(std::memory_order_relaxed); }

void Gauge::RaiseMax(std::int64_t candidate) {
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !max_.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------------------
// Histogram

int Histogram::BucketFor(std::uint64_t value) {
  return value == 0 ? 0 : std::bit_width(value);
}

std::uint64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return std::uint64_t{1} << (bucket - 1);
}

std::uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  if (bucket >= kBuckets - 1) {
    return UINT64_MAX;
  }
  return (std::uint64_t{1} << bucket) - 1;
}

void Histogram::Record(std::uint64_t value) {
  if (value == 0) {
    // Every uncontended admission records a zero wait. It adds nothing to the sum and
    // can never raise the max, and 0 is the least value, so a plain store is a
    // correct min update whatever other recorders race with it.
    buckets_[0].fetch_add(1, std::memory_order_relaxed);
    if (min_.load(std::memory_order_relaxed) != 0) {
      min_.store(0, std::memory_order_relaxed);
    }
    return;
  }
  buckets_[static_cast<std::size_t>(BucketFor(value))].fetch_add(1,
                                                                 std::memory_order_relaxed);
  sum_.Add(value);
  std::uint64_t seen_min = min_.load(std::memory_order_relaxed);
  while (value < seen_min &&
         !min_.compare_exchange_weak(seen_min, value, std::memory_order_relaxed)) {
  }
  std::uint64_t seen_max = max_.load(std::memory_order_relaxed);
  while (value > seen_max &&
         !max_.compare_exchange_weak(seen_max, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::Sum() const { return sum_.Value(); }

std::uint64_t Histogram::Min() const {
  const std::uint64_t seen = min_.load(std::memory_order_relaxed);
  return seen == UINT64_MAX ? 0 : seen;
}

std::uint64_t Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  const std::uint64_t count = Count();
  return count == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(count);
}

std::uint64_t Histogram::Percentile(double p) const {
  const std::uint64_t count = Count();
  if (count == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the sample whose bucket upper edge we report (1-based, nearest-rank).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(
                                     p / 100.0 * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    seen += buckets_[static_cast<std::size_t>(bucket)].load(std::memory_order_relaxed);
    if (seen >= rank) {
      return std::clamp(BucketUpperBound(bucket), Min(), Max());
    }
  }
  return Max();
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    counts[static_cast<std::size_t>(bucket)] =
        buckets_[static_cast<std::size_t>(bucket)].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.Reset();
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counter_storage_.emplace_back();
    it = counters_.emplace(name, &counter_storage_.back()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauge_storage_.emplace_back();
    it = gauges_.emplace(name, &gauge_storage_.back()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histogram_storage_.emplace_back();
    it = histograms_.emplace(name, &histogram_storage_.back()).first;
  }
  return *it->second;
}

MechanismStats& MetricsRegistry::ForMechanism(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mechanisms_.find(name);
  if (it == mechanisms_.end()) {
    mechanism_storage_.emplace_back();
    MechanismStats& stats = mechanism_storage_.back();
    stats.name = name;
    it = mechanisms_.emplace(name, &stats).first;
    // Expose the bundle's members under flat names so snapshots and JSON see them.
    histograms_.emplace(name + "/wait_ns", &stats.wait);
    histograms_.emplace(name + "/hold_ns", &stats.hold);
    counters_.emplace(name + "/admissions", &stats.admissions);
    counters_.emplace(name + "/signals", &stats.signals);
    counters_.emplace(name + "/broadcasts", &stats.broadcasts);
    counters_.emplace(name + "/wakeups", &stats.wakeups);
    gauges_.emplace(name + "/queue_depth", &stats.queue_depth);
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value(), gauge->Max()});
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->Count(), histogram->Mean(),
                                   histogram->Percentile(50), histogram->Percentile(95),
                                   histogram->Percentile(99), histogram->Max()});
  }
  return snapshot;
}

std::vector<std::string> MetricsRegistry::MechanismNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(mechanisms_.size());
  for (const auto& [name, stats] : mechanisms_) {
    (void)stats;
    names.push_back(name);
  }
  return names;
}

const MechanismStats* MetricsRegistry::FindMechanism(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = mechanisms_.find(name);
  return it == mechanisms_.end() ? nullptr : it->second;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const Snapshot snapshot = TakeSnapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& sample : snapshot.counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(sample.name) + "\":" + std::to_string(sample.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& sample : snapshot.gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(sample.name) + "\":{\"value\":" + std::to_string(sample.value) +
           ",\"max\":" + std::to_string(sample.max) + '}';
  }
  out += "},\"histograms\":{";
  first = true;
  char mean[32];
  for (const auto& sample : snapshot.histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    std::snprintf(mean, sizeof mean, "%.3f", sample.mean);
    out += '"' + JsonEscape(sample.name) + "\":{\"count\":" + std::to_string(sample.count) +
           ",\"mean\":" + mean + ",\"p50\":" + std::to_string(sample.p50) +
           ",\"p95\":" + std::to_string(sample.p95) +
           ",\"p99\":" + std::to_string(sample.p99) +
           ",\"max\":" + std::to_string(sample.max) + '}';
  }
  out += "}}";
  return out;
}

}  // namespace syneval
