// Tests for the telemetry layer: histogram bucketing/percentiles, lock-free counters
// under concurrency, registry dedupe and JSON, the Chrome/Perfetto exporter (golden
// output + structural checks), mechanism self-instrumentation under both runtimes, and
// the OsRuntime watchdog's gauge export.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "syneval/anomaly/detector.h"
#include "syneval/monitor/mesa_monitor.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/runtime/parallel_sweep.h"
#include "syneval/runtime/schedule.h"
#include "syneval/runtime/supervisor.h"
#include "syneval/sync/semaphore.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/perfetto.h"
#include "syneval/telemetry/tracer.h"

namespace syneval {
namespace {

// ---- Histogram --------------------------------------------------------------------------

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SingleSampleIsReportedExactly) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Sum(), 1234u);
  EXPECT_EQ(h.Min(), 1234u);
  EXPECT_EQ(h.Max(), 1234u);
  // The bucket upper edge (2047) must clamp to the observed range.
  EXPECT_EQ(h.Percentile(0), 1234u);
  EXPECT_EQ(h.Percentile(50), 1234u);
  EXPECT_EQ(h.Percentile(99), 1234u);
  EXPECT_EQ(h.Percentile(100), 1234u);
}

TEST(HistogramTest, BucketEdges) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  // Bucket i covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  for (std::uint64_t value : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{4096},
                              std::uint64_t{1} << 40}) {
    const int bucket = Histogram::BucketFor(value);
    EXPECT_GE(value, Histogram::BucketLowerBound(bucket)) << value;
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket)) << value;
  }
}

TEST(HistogramTest, OverflowBucketKeepsExtremeSamples) {
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 64);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(1);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Max(), UINT64_MAX);
  EXPECT_EQ(h.Percentile(100), UINT64_MAX);
  const std::vector<std::uint64_t> buckets = h.BucketCounts();
  EXPECT_EQ(buckets[64], 1u);
  EXPECT_EQ(buckets[1], 1u);
}

TEST(HistogramTest, PercentilesAreMonotoneAndBounded) {
  Histogram h;
  for (int repeat = 0; repeat < 20; ++repeat) {
    for (std::uint64_t value : {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{100},
                                std::uint64_t{1000}, std::uint64_t{10000}}) {
      h.Record(value);
    }
  }
  std::uint64_t previous = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const std::uint64_t value = h.Percentile(p);
    EXPECT_GE(value, previous) << "p" << p;
    EXPECT_GE(value, h.Min()) << "p" << p;
    EXPECT_LE(value, h.Max()) << "p" << p;
    previous = value;
  }
  EXPECT_EQ(h.Percentile(100), h.Max());
}

TEST(HistogramTest, SingleOverflowSampleClampsAllPercentiles) {
  // One sample in the overflow bucket [2^63, 2^64): every percentile — including the
  // p=0 lower edge, whose bucket upper bound is UINT64_MAX — must clamp to the
  // observed min/max rather than report a bucket edge beyond the data.
  Histogram h;
  h.Record(UINT64_MAX - 1);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), UINT64_MAX - 1);
  EXPECT_EQ(h.Max(), UINT64_MAX - 1);
  EXPECT_EQ(h.Percentile(0), UINT64_MAX - 1);
  EXPECT_EQ(h.Percentile(50), UINT64_MAX - 1);
  EXPECT_EQ(h.Percentile(100), UINT64_MAX - 1);
}

TEST(HistogramTest, PercentileEndpointsMatchMinAndMax) {
  Histogram h;
  for (std::uint64_t value = 1; value <= 512; ++value) {
    h.Record(value);
  }
  EXPECT_EQ(h.Percentile(0), h.Min());
  EXPECT_EQ(h.Percentile(100), h.Max());
  // Out-of-range requests clamp rather than index outside the bucket table.
  EXPECT_EQ(h.Percentile(-5), h.Percentile(0));
  EXPECT_EQ(h.Percentile(250), h.Percentile(100));
}

TEST(HistogramTest, ZeroHeavySamplesKeepSumMinMaxAndMedian) {
  // Mostly zeros, as the wait histogram of an uncontended mechanism records.
  Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t value = i % 10 == 3 ? 100 + i : 0;
    h.Record(value);
    sum += value;
  }
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_EQ(h.Sum(), sum);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 100u + 993u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.BucketCounts()[0], 900u);

  // A zero recorded after only non-zero samples still lowers the min.
  Histogram late;
  late.Record(7);
  late.Record(0);
  EXPECT_EQ(late.Min(), 0u);
  EXPECT_EQ(late.Max(), 7u);
  EXPECT_EQ(late.Sum(), 7u);
  EXPECT_EQ(late.Percentile(50), 0u);
}

// ---- MergeWorkerTelemetry ---------------------------------------------------------------

TEST(MergeWorkerTelemetryTest, MergeIntoEmptyCopiesShard) {
  std::vector<WorkerTelemetry> into;
  std::vector<WorkerTelemetry> shard(2);
  shard[0] = WorkerTelemetry{0, 10, 4, 1, 0, 0.5};
  shard[1] = WorkerTelemetry{1, 12, 5, 0, 0, 0.75};
  MergeWorkerTelemetry(into, shard);
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[0].worker, 0);
  EXPECT_EQ(into[0].trials, 10);
  EXPECT_EQ(into[1].chunks, 5);
  EXPECT_DOUBLE_EQ(into[1].wall_seconds, 0.75);
}

TEST(MergeWorkerTelemetryTest, SumsByWorkerIndexAcrossShards) {
  std::vector<WorkerTelemetry> into;
  std::vector<WorkerTelemetry> first(2);
  first[0] = WorkerTelemetry{0, 10, 4, 1, 0, 0.5};
  first[1] = WorkerTelemetry{1, 12, 5, 0, 0, 0.75};
  std::vector<WorkerTelemetry> second(2);
  second[0] = WorkerTelemetry{0, 3, 2, 1, 0, 0.25};
  second[1] = WorkerTelemetry{1, 4, 3, 2, 0, 0.25};
  MergeWorkerTelemetry(into, first);
  MergeWorkerTelemetry(into, second);
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[0].trials, 13);
  EXPECT_EQ(into[0].chunks, 6);
  EXPECT_EQ(into[0].steals, 2);
  EXPECT_EQ(into[1].trials, 16);
  EXPECT_DOUBLE_EQ(into[1].wall_seconds, 1.0);
}

TEST(MergeWorkerTelemetryTest, WiderShardGrowsTheMerged) {
  // A later sweep run with more workers must extend the merged table; the existing
  // rows keep their sums and the new row starts from the shard's values.
  std::vector<WorkerTelemetry> into;
  std::vector<WorkerTelemetry> narrow(1);
  narrow[0] = WorkerTelemetry{0, 5, 5, 0, 0, 1.0};
  std::vector<WorkerTelemetry> wide(3);
  wide[0] = WorkerTelemetry{0, 1, 1, 0, 0, 0.1};
  wide[1] = WorkerTelemetry{1, 2, 2, 1, 0, 0.2};
  wide[2] = WorkerTelemetry{2, 3, 3, 0, 0, 0.3};
  MergeWorkerTelemetry(into, narrow);
  MergeWorkerTelemetry(into, wide);
  ASSERT_EQ(into.size(), 3u);
  EXPECT_EQ(into[0].trials, 6);
  EXPECT_EQ(into[1].trials, 2);
  EXPECT_EQ(into[2].worker, 2);
  EXPECT_EQ(into[2].trials, 3);
  // A narrower shard afterwards leaves the extra rows untouched.
  MergeWorkerTelemetry(into, narrow);
  ASSERT_EQ(into.size(), 3u);
  EXPECT_EQ(into[0].trials, 11);
  EXPECT_EQ(into[2].trials, 3);
}

// ---- Concurrency (exact totals; doubles as the TSan stress when sanitizers are on) ----

TEST(TelemetryConcurrencyTest, CountersAndHistogramsAreExactUnderContention) {
  Counter counter;
  Histogram histogram;
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Add(1);
        histogram.Record(static_cast<std::uint64_t>(i));
        gauge.Set(t);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram.Count(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram.Min(), 0u);
  EXPECT_EQ(histogram.Max(), static_cast<std::uint64_t>(kOpsPerThread - 1));
  EXPECT_GE(gauge.Max(), gauge.Value());
}

TEST(GaugeTest, TracksHighWaterMark) {
  Gauge gauge;
  gauge.Set(3);
  gauge.Set(7);
  gauge.Set(2);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Max(), 7);
  gauge.Add(10);
  EXPECT_EQ(gauge.Value(), 12);
  EXPECT_EQ(gauge.Max(), 12);
}

// ---- Registry ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CreationIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("ops");
  Counter& b = registry.GetCounter("ops");
  EXPECT_EQ(&a, &b);
  MechanismStats& m1 = registry.ForMechanism("monitor");
  MechanismStats& m2 = registry.ForMechanism("monitor");
  EXPECT_EQ(&m1, &m2);
  EXPECT_EQ(m1.name, "monitor");
  // The bundle's members are exposed under flat names in the same registry.
  EXPECT_EQ(&registry.GetHistogram("monitor/wait_ns"), &m1.wait);
  EXPECT_EQ(&registry.GetCounter("monitor/admissions"), &m1.admissions);
  EXPECT_EQ(&registry.GetGauge("monitor/queue_depth"), &m1.queue_depth);
  EXPECT_EQ(registry.MechanismNames(), std::vector<std::string>{"monitor"});
  EXPECT_EQ(registry.FindMechanism("monitor"), &m1);
  EXPECT_EQ(registry.FindMechanism("nope"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotAndJsonCarryRecordedValues) {
  MetricsRegistry registry;
  registry.GetCounter("ops").Add(5);
  registry.GetGauge("depth").Set(3);
  registry.GetHistogram("lat").Record(100);
  MechanismStats& m = registry.ForMechanism("semaphore");
  m.wait.Record(42);

  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  bool saw_ops = false, saw_wait = false;
  for (const auto& sample : snapshot.counters) {
    if (sample.name == "ops") {
      saw_ops = true;
      EXPECT_EQ(sample.value, 5u);
    }
  }
  for (const auto& sample : snapshot.histograms) {
    if (sample.name == "semaphore/wait_ns") {
      saw_wait = true;
      EXPECT_EQ(sample.count, 1u);
      EXPECT_EQ(sample.p50, 42u);
    }
  }
  EXPECT_TRUE(saw_ops);
  EXPECT_TRUE(saw_wait);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"ops\":5"), std::string::npos);
  EXPECT_NE(json.find("\"semaphore/wait_ns\""), std::string::npos);
  // Structural sanity: braces balance (the emitters write no unescaped braces).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string && c == '{') {
      ++depth;
    } else if (!in_string && c == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---- Perfetto / Chrome trace exporter ---------------------------------------------------

std::vector<Event> GoldenEvents() {
  std::vector<Event> events(4);
  events[0].seq = 1;
  events[0].op_instance = 1;
  events[0].thread = 1;
  events[0].kind = EventKind::kRequest;
  events[0].op = "put";
  events[0].param = 5;
  events[0].wall_ns = 1000;
  events[1] = events[0];
  events[1].seq = 2;
  events[1].kind = EventKind::kEnter;
  events[1].wall_ns = 2000;
  events[2] = events[0];
  events[2].seq = 3;
  events[2].kind = EventKind::kExit;
  events[2].value = 7;
  events[2].wall_ns = 3000;
  events[3].seq = 4;
  events[3].thread = 0;
  events[3].kind = EventKind::kMark;
  events[3].op = "tick";
  events[3].wall_ns = 3500;
  return events;
}

TEST(PerfettoExportTest, GoldenOutput) {
  TelemetryTracer tracer;
  int key = 0;
  tracer.OnSignal(&key, 1, 2500, /*broadcast=*/false);
  tracer.OnWake(&key, 2, 2600);

  const std::string golden =
      "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"generator\":\"syneval\"},"
      "\"traceEvents\":[\n"
      "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      "\"syneval\"}},\n"
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":"
      "\"main\"}},\n"
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":"
      "\"t1\"}},\n"
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":"
      "\"t2\"}},\n"
      "  {\"name\":\"wait:put\",\"cat\":\"wait\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":1.000,\"dur\":1.000,\"args\":{\"op_instance\":1,\"request_seq\":1}},\n"
      "  {\"name\":\"put\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2.000,"
      "\"dur\":1.000,\"args\":{\"op_instance\":1,\"enter_seq\":2,\"exit_seq\":3,"
      "\"param\":5,\"value\":7}},\n"
      "  {\"name\":\"signal\",\"cat\":\"sync\",\"ph\":\"s\",\"pid\":1,\"tid\":1,"
      "\"ts\":2.500,\"id\":1},\n"
      "  {\"name\":\"wakeup\",\"cat\":\"sync\",\"ph\":\"f\",\"pid\":1,\"tid\":2,"
      "\"ts\":2.600,\"id\":1,\"bp\":\"e\"},\n"
      "  {\"name\":\"tick\",\"cat\":\"mark\",\"ph\":\"i\",\"pid\":1,\"tid\":0,"
      "\"ts\":3.500,\"s\":\"t\"}\n"
      "]}\n";
  EXPECT_EQ(ExportChromeTrace(GoldenEvents(), &tracer), golden);
}

TEST(PerfettoExportTest, StructuralInvariants) {
  TelemetryTracer tracer;
  int key = 0;
  tracer.OnSignal(&key, 1, 2500, /*broadcast=*/true);
  tracer.OnWake(&key, 2, 2600);
  tracer.OnWake(&key, 3, 2700);  // Broadcast: one flow start, two finishes.
  tracer.AddSpan(4, "hold", "custom", 100, 900);

  ChromeTraceOptions options;
  options.pid = 7;
  options.process_name = "bench \"quoted\"";
  const std::string json = ExportChromeTrace(GoldenEvents(), &tracer, options);

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"broadcast\""), std::string::npos);
  EXPECT_NE(json.find("bench \\\"quoted\\\""), std::string::npos);
  // Both wakeups share the broadcast's flow id: three "id":1 records total.
  std::size_t id_refs = 0;
  for (std::size_t pos = json.find("\"id\":1"); pos != std::string::npos;
       pos = json.find("\"id\":1", pos + 1)) {
    ++id_refs;
  }
  EXPECT_EQ(id_refs, 3u);
  std::size_t flow_ends = 0;
  for (std::size_t pos = json.find("\"ph\":\"f\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"f\"", pos + 1)) {
    ++flow_ends;
  }
  EXPECT_EQ(flow_ends, 2u);
}

TEST(PerfettoExportTest, LogicalTracesFallBackToSeqTimestamps) {
  std::vector<Event> events = GoldenEvents();
  for (Event& event : events) {
    event.wall_ns = 0;  // Pure deterministic trace.
  }
  const std::string json = ExportChromeTrace(events, nullptr);
  // seq * 1000 ns → seq microseconds: the request (seq 1) lands at ts 1.000.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":4.000"), std::string::npos);
}

TEST(PerfettoExportTest, WriteChromeTraceRoundTrips) {
  const std::string path = ::testing::TempDir() + "/syneval_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(path, GoldenEvents(), nullptr));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), ExportChromeTrace(GoldenEvents(), nullptr));
  std::remove(path.c_str());
}

// ---- Mechanism wiring -------------------------------------------------------------------

TEST(MechanismTelemetryTest, SemaphoreReportsWaitHoldAndSignals) {
  MetricsRegistry registry;
  OsRuntime rt;
  rt.AttachMetrics(&registry);
  CountingSemaphore sem(rt, 1);

  constexpr int kOps = 200;
  std::vector<std::unique_ptr<RtThread>> threads;
  for (int t = 0; t < 2; ++t) {
    threads.push_back(rt.StartThread("worker", [&] {
      for (int i = 0; i < kOps; ++i) {
        sem.P();
        sem.V();
      }
    }));
  }
  for (auto& thread : threads) {
    thread->Join();
  }

  const MechanismStats* stats = registry.FindMechanism("semaphore");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->admissions.Value(), 2u * kOps);
  EXPECT_EQ(stats->wait.Count(), 2u * kOps);   // Every admission records a wait sample.
  EXPECT_EQ(stats->signals.Value(), 2u * kOps);  // One V per P.
  EXPECT_EQ(stats->hold.Count(), 2u * kOps);   // Every V retires one unit tenure.
}

TEST(MechanismTelemetryTest, DetRuntimeMonitorRecordsIntoRegistryAndTracer) {
  MetricsRegistry registry;
  TelemetryTracer tracer;
  DetRuntime rt(MakeRandomSchedule(42));
  rt.AttachMetrics(&registry);
  rt.AttachTracer(&tracer);

  MesaMonitor monitor(rt);
  MesaMonitor::Condition nonempty(monitor);
  int available = 0;
  bool consumer_entered = false;  // Det runtime: cooperative, so this flag is race-free.
  auto consumer = rt.StartThread("consumer", [&] {
    MesaRegion region(monitor);
    consumer_entered = true;
    while (available == 0) {
      nonempty.Wait();
    }
    --available;
  });
  auto producer = rt.StartThread("producer", [&] {
    // Ensure the consumer blocks before the signal, so a signal→wakeup flow exists on
    // every schedule: once the flag is up, the consumer either holds the monitor (we
    // queue behind it) or is parked in Wait (we enter and wake it).
    while (!consumer_entered) {
      rt.Yield();
    }
    MesaRegion region(monitor);
    ++available;
    nonempty.Signal();
  });
  const DetRuntime::RunResult result = rt.Run();
  ASSERT_TRUE(result.completed) << result.report;

  const MechanismStats* stats = registry.FindMechanism("mesa_monitor");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->admissions.Value(), 2u);  // Both bodies entered the monitor.
  EXPECT_EQ(stats->signals.Value(), 1u);
  EXPECT_GE(stats->hold.Count(), 2u);
  // The condvar-level signal→wakeup flow was traced by the deterministic runtime.
  bool saw_flow_start = false, saw_flow_end = false;
  for (const TelemetryTracer::Record& record : tracer.Snapshot()) {
    saw_flow_start |= record.type == TelemetryTracer::RecordType::kFlowStart;
    saw_flow_end |= record.type == TelemetryTracer::RecordType::kFlowEnd;
  }
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_end);
}

// ---- Watchdog gauge export --------------------------------------------------------------

TEST(WatchdogTelemetryTest, SnapshotWaitsCountsOpenWaits) {
  AnomalyDetector det;
  det.RegisterThread(1, "waiter");
  int resource = 0;
  det.RegisterResource(&resource, ResourceKind::kCondition, "cond");
  AnomalyDetector::WaitSnapshot snapshot = det.SnapshotWaits(1'000'000);
  EXPECT_EQ(snapshot.blocked_threads, 0);
  det.OnBlock(1, &resource);
  snapshot = det.SnapshotWaits(1'000'000'000'000);
  EXPECT_EQ(snapshot.blocked_threads, 1);
  EXPECT_GE(snapshot.longest_wait_nanos, 0);
  det.OnWake(1, &resource);
  snapshot = det.SnapshotWaits(1'000'000'000'000);
  EXPECT_EQ(snapshot.blocked_threads, 0);
}

TEST(WatchdogTelemetryTest, WatchdogExportsGauges) {
  AnomalyDetector det;
  MetricsRegistry registry;
  OsRuntime rt;
  rt.AttachAnomalyDetector(&det);
  rt.AttachMetrics(&registry);
  CountingSemaphore sem(rt, 0);
  auto waiter = rt.StartThread("blocked", [&] { sem.P(); });
  rt.StartAnomalyWatchdog(std::chrono::milliseconds(10));
  // Wait until the watchdog has observed the blocked P (bounded at ~2s).
  bool observed = false;
  for (int i = 0; i < 400 && !observed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    observed = registry.GetGauge("anomaly/blocked_threads").Max() >= 1;
  }
  sem.V();
  waiter->Join();
  rt.StopAnomalyWatchdog();
  EXPECT_TRUE(observed);
  EXPECT_GE(registry.GetGauge("anomaly/longest_wait_ns").Max(), 0);
}

TEST(WatchdogTelemetryTest, WatchdogExportsLoadAdaptiveThreshold) {
  AnomalyDetector::Options det_options;
  det_options.stuck_wait_nanos = 100'000'000;  // 100ms base threshold.
  AnomalyDetector det(det_options);
  MetricsRegistry registry;
  OsRuntime rt;
  rt.AttachAnomalyDetector(&det);
  rt.AttachMetrics(&registry);

  // Three extra registered trials on top of whatever baseline this process carries:
  // the watchdog must scale the detector's threshold by ActiveTrials() and export the
  // effective value as a gauge.
  ActiveTrialScope one;
  ActiveTrialScope two;
  ActiveTrialScope three;
  const int load = ActiveTrials();
  ASSERT_GE(load, 3);
  rt.StartAnomalyWatchdog(std::chrono::milliseconds(5));
  bool scaled = false;
  for (int i = 0; i < 400 && !scaled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    scaled = registry.GetGauge("anomaly/effective_stuck_wait_ms").Max() >= 100 * load;
  }
  rt.StopAnomalyWatchdog();
  EXPECT_TRUE(scaled) << "effective_stuck_wait_ms gauge max = "
                      << registry.GetGauge("anomaly/effective_stuck_wait_ms").Max();
  EXPECT_GE(det.effective_stuck_wait_nanos(),
            static_cast<std::int64_t>(load) * 100'000'000);
}

}  // namespace
}  // namespace syneval
