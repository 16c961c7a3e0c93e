// Tests for the flight recorder (seqlock snapshot semantics, ring eviction, name
// resolution, the TraceRecorder bridge) and the postmortem builder (cause inference,
// deadlock/lost-wakeup narratives, fault-family mapping, JSON shape, chaos replay).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "syneval/anomaly/detector.h"
#include "syneval/core/conformance.h"
#include "syneval/fault/chaos.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/runtime/schedule.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/postmortem.h"

namespace syneval {
namespace {

// ---- FlightRecorder ---------------------------------------------------------------------

TEST(FlightRecorderTest, RecordsInGlobalSeqOrder) {
  FlightRecorder recorder;
  int a = 0;
  int b = 0;
  recorder.Record(1, FlightEventType::kAcquire, &a, 100);
  recorder.Record(2, FlightEventType::kBlock, &b, 200, 7);
  recorder.Record(1, FlightEventType::kRelease, &a, 300);

  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].thread, 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kAcquire);
  EXPECT_EQ(events[0].resource, &a);
  EXPECT_EQ(events[0].time_nanos, 100u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].arg, 7u);
  EXPECT_EQ(events[2].type, FlightEventType::kRelease);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.evicted(), 0u);
}

TEST(FlightRecorderTest, RingEvictionKeepsTheMostRecentEvents) {
  FlightRecorder::Options options;
  options.rings = 1;
  options.events_per_ring = 8;  // The constructor clamps smaller rings up to 8.
  FlightRecorder recorder(options);
  int resource = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.Record(0, FlightEventType::kAcquire, &resource, i);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.evicted(), 12u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the last eight records, still in seq order.
  EXPECT_EQ(events.front().seq, 13u);
  EXPECT_EQ(events.back().seq, 20u);
}

TEST(FlightRecorderTest, GrowOnEvictRetainsEveryEvent) {
  FlightRecorder::Options options;
  options.rings = 1;
  options.events_per_ring = 8;
  options.grow_on_evict = true;
  options.max_events_per_ring = 1024;
  FlightRecorder recorder(options);
  int resource = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    recorder.Record(0, FlightEventType::kAcquire, &resource, i);
  }
  EXPECT_EQ(recorder.recorded(), 500u);
  EXPECT_EQ(recorder.evicted(), 0u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 500u);
  // Growth preserved the oldest events (a fixed ring would have kept only the tail).
  EXPECT_EQ(events.front().seq, 1u);
  EXPECT_EQ(events.back().seq, 500u);
}

TEST(FlightRecorderTest, GrowthStopsAtTheCapAndEvictsBeyondIt) {
  FlightRecorder::Options options;
  options.rings = 1;
  options.events_per_ring = 8;
  options.grow_on_evict = true;
  options.max_events_per_ring = 32;
  FlightRecorder recorder(options);
  int resource = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    recorder.Record(0, FlightEventType::kAcquire, &resource, i);
  }
  EXPECT_EQ(recorder.recorded(), 100u);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  // Retained + evicted always accounts for every record, and retention is capped.
  EXPECT_EQ(events.size() + recorder.evicted(), 100u);
  EXPECT_LE(events.size(), 32u);
  EXPECT_GT(recorder.evicted(), 0u);
  // Snapshot stays globally seq-ordered across the segment chain, newest included.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events.back().seq, 100u);
}

TEST(FlightRecorderTest, ClearAfterGrowthResetsTheChain) {
  FlightRecorder::Options options;
  options.rings = 1;
  options.events_per_ring = 8;
  options.grow_on_evict = true;
  options.max_events_per_ring = 256;
  FlightRecorder recorder(options);
  int resource = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    recorder.Record(0, FlightEventType::kAcquire, &resource, i);
  }
  recorder.Clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.evicted(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.Record(0, FlightEventType::kRelease, &resource, 1);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, ForWorkloadSizesRingsToTheLoad) {
  const FlightRecorder::Options mid = FlightRecorder::Options::ForWorkload(6, 100);
  EXPECT_EQ(mid.rings, 8);             // Next power of two >= 6 threads.
  EXPECT_EQ(mid.events_per_ring, 128);  // Next power of two >= 100 events.
  EXPECT_TRUE(mid.grow_on_evict);
  EXPECT_GE(mid.max_events_per_ring, mid.events_per_ring);

  const FlightRecorder::Options tiny = FlightRecorder::Options::ForWorkload(0, 0);
  EXPECT_EQ(tiny.rings, 1);
  EXPECT_EQ(tiny.events_per_ring, 8);

  const FlightRecorder::Options huge =
      FlightRecorder::Options::ForWorkload(100000, 1 << 30);
  EXPECT_LE(huge.rings, 512);
  EXPECT_LE(huge.events_per_ring, 8192);
}

TEST(FlightRecorderTest, ForTrialGrowsInsteadOfEvicting) {
  // The per-trial default starts small but must absorb a busy single-ring trial
  // without dropping its earliest events (they anchor postmortem narratives).
  FlightRecorder recorder(FlightRecorder::Options::ForTrial());
  int resource = 0;
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    recorder.Record(0, FlightEventType::kAcquire, &resource, i);
  }
  EXPECT_EQ(recorder.evicted(), 0u);
  EXPECT_EQ(recorder.Snapshot().size(), 2000u);
}

TEST(FlightRecorderTest, ArgSaturatesAtTwentyFourBits) {
  FlightRecorder recorder;
  int resource = 0;
  recorder.Record(3, FlightEventType::kSignal, &resource, 1, (1u << 24) - 1);
  recorder.Record(3, FlightEventType::kSignal, &resource, 2, (1ull << 40));
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].arg, (1u << 24) - 1);
  EXPECT_EQ(events[1].arg, (1u << 24) - 1);  // Saturated, not truncated.
}

TEST(FlightRecorderTest, NamesDedupeAndFallBack) {
  FlightRecorder recorder;
  int a = 0;
  int b = 0;
  int unnamed = 0;
  EXPECT_EQ(recorder.RegisterName(&a, "mutex"), "mutex");
  EXPECT_EQ(recorder.RegisterName(&b, "mutex"), "mutex#2");
  EXPECT_EQ(recorder.NameOf(&a), "mutex");
  EXPECT_EQ(recorder.NameOf(&b), "mutex#2");
  EXPECT_EQ(recorder.NameOf(nullptr), "-");
  EXPECT_EQ(recorder.NameOf(&unnamed).rfind("0x", 0), 0u);

  const void* label = recorder.InternLabel("deposit");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(recorder.NameOf(label), "deposit");
  // Interning is stable: the same label resolves to the same key.
  EXPECT_EQ(recorder.InternLabel("deposit"), label);
}

TEST(FlightRecorderTest, ClearResetsRingsAndCounters) {
  FlightRecorder recorder;
  int resource = 0;
  recorder.Record(0, FlightEventType::kAcquire, &resource, 1);
  recorder.Clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.evicted(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, SnapshotIsSafeWhileWritersAreGrowing) {
  // Same shape as the fixed-ring concurrency smoke below, but with grow-on-evict so
  // the snapshot races against GrowOrWrap publishing new segments. Under the TSan CI
  // config this is the proof that segment hand-off is properly synchronized.
  FlightRecorder::Options options;
  options.rings = 2;
  options.events_per_ring = 8;
  options.grow_on_evict = true;
  options.max_events_per_ring = 4096;
  FlightRecorder recorder(options);
  int resource = 0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&recorder, &resource, &stop, w] {
      std::uint64_t i = 0;
      do {
        ++i;
        recorder.Record(static_cast<std::uint32_t>(w), FlightEventType::kAcquire,
                        &resource, i, i);
      } while (i < 1000 || !stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 100; ++i) {
    const std::vector<FlightEvent> events = recorder.Snapshot();
    std::uint64_t previous = 0;
    for (const FlightEvent& event : events) {
      EXPECT_GT(event.seq, previous);
      previous = event.seq;
      EXPECT_EQ(event.type, FlightEventType::kAcquire);
      EXPECT_EQ(event.resource, &resource);
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
  // Quiescent accounting: every record is either retained in some segment or counted
  // as evicted past the cap.
  EXPECT_EQ(recorder.Snapshot().size() + recorder.evicted(), recorder.recorded());
}

TEST(FlightRecorderTest, SnapshotIsSafeWhileWritersAreRecording) {
  // Concurrency smoke (the TSan proof-in-anger when sanitizers are on): writers hammer
  // a deliberately tiny ring while a reader snapshots; every snapshot must be
  // seq-ordered and contain no torn slot (a torn slot would decode to garbage types).
  FlightRecorder::Options options;
  options.rings = 2;
  options.events_per_ring = 8;
  FlightRecorder recorder(options);
  int resource = 0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&recorder, &resource, &stop, w] {
      // Record a floor of events even if `stop` flips before this thread is scheduled,
      // so the reader below always races against live writes.
      std::uint64_t i = 0;
      do {
        ++i;
        recorder.Record(static_cast<std::uint32_t>(w), FlightEventType::kAcquire,
                        &resource, i, i);
      } while (i < 1000 || !stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 200; ++i) {
    const std::vector<FlightEvent> events = recorder.Snapshot();
    std::uint64_t previous = 0;
    for (const FlightEvent& event : events) {
      EXPECT_GT(event.seq, previous);
      previous = event.seq;
      EXPECT_EQ(event.type, FlightEventType::kAcquire);
      EXPECT_EQ(event.resource, &resource);
      EXPECT_LT(event.thread, 4u);
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_GT(recorder.recorded(), 0u);
}

// ---- FaultCauseFamily -------------------------------------------------------------------

TEST(FaultCauseFamilyTest, MapsLabelsToCalibrationFamilies) {
  EXPECT_EQ(FaultCauseFamily("drop-signal"), "lost-signal");
  EXPECT_EQ(FaultCauseFamily("drop-notify"), "lost-signal");
  EXPECT_EQ(FaultCauseFamily("drop-broadcast"), "lost-signal");
  EXPECT_EQ(FaultCauseFamily("stall"), "stall");
  EXPECT_EQ(FaultCauseFamily("delay-lock"), "stall");
  // The injector's mirror labels carry a "fault." prefix.
  EXPECT_EQ(FaultCauseFamily("fault.drop-signal"), "lost-signal");
  EXPECT_EQ(FaultCauseFamily("fault.stall"), "stall");
  // Unknown families name themselves.
  EXPECT_EQ(FaultCauseFamily("kill-thread"), "kill-thread");
}

// ---- BuildPostmortem --------------------------------------------------------------------

TEST(PostmortemTest, EmptyRecorderAndNoDetectorYieldsEmptyPostmortem) {
  FlightRecorder recorder;
  const Postmortem pm = BuildPostmortem(recorder, nullptr);
  EXPECT_TRUE(pm.empty());
  EXPECT_EQ(pm.cause, "");
}

TEST(PostmortemTest, InjectedFaultIsTheCauseByGroundTruth) {
  FlightRecorder recorder;
  int condvar = 0;
  recorder.Record(1, FlightEventType::kSignal, &condvar, 100, 0);
  recorder.Record(1, FlightEventType::kFaultFired,
                  recorder.InternLabel("fault.drop-signal"), 150, 2);
  recorder.Record(2, FlightEventType::kBlock, &condvar, 200);
  const Postmortem pm = BuildPostmortem(recorder, nullptr);
  EXPECT_EQ(pm.cause, "lost-signal");
  EXPECT_FALSE(pm.empty());
  bool fault_in_narrative = false;
  for (const std::string& line : pm.narrative) {
    if (line.find("fault.drop-signal") != std::string::npos) {
      fault_in_narrative = true;
    }
  }
  EXPECT_TRUE(fault_in_narrative) << pm.ToText();
}

TEST(PostmortemTest, DeadlockNarrativeNamesHoldWaitEdges) {
  // The ABBA deadlock: each thread holds one mutex and blocks on the other. The
  // postmortem must classify the cause as deadlock and reconstruct both hold/wait
  // edges with the acquisition events.
  // Attachments first, so they outlive the runtime (runtime.h).
  AnomalyDetector detector;
  FlightRecorder recorder;
  DetRuntime runtime(MakeRandomSchedule(11));
  runtime.AttachAnomalyDetector(&detector);
  runtime.AttachFlightRecorder(&recorder);

  auto lock_a = runtime.CreateMutex();
  auto lock_b = runtime.CreateMutex();
  std::atomic<bool> a_held{false};
  std::atomic<bool> b_held{false};
  auto t1 = runtime.StartThread("first", [&] {
    lock_a->Lock();
    a_held.store(true);
    while (!b_held.load()) {
      runtime.Yield();
    }
    lock_b->Lock();
    lock_b->Unlock();
    lock_a->Unlock();
  });
  auto t2 = runtime.StartThread("second", [&] {
    lock_b->Lock();
    b_held.store(true);
    while (!a_held.load()) {
      runtime.Yield();
    }
    lock_a->Lock();
    lock_a->Unlock();
    lock_b->Unlock();
  });
  const DetRuntime::RunResult result = runtime.Run();
  ASSERT_TRUE(result.deadlocked);

  const Postmortem pm = BuildPostmortem(recorder, &detector);
  EXPECT_EQ(pm.cause, "deadlock");
  int hold_wait_edges = 0;
  for (const std::string& line : pm.narrative) {
    if (line.find("holds") != std::string::npos &&
        line.find("blocked on") != std::string::npos &&
        line.find("acquired at seq") != std::string::npos) {
      ++hold_wait_edges;
    }
  }
  EXPECT_GE(hold_wait_edges, 2) << pm.ToText();
  EXPECT_FALSE(pm.window.empty());
  EXPECT_NE(pm.summary.find("deadlock"), std::string::npos);
}

TEST(PostmortemTest, ToJsonCarriesCauseNarrativeAndEvents) {
  FlightRecorder recorder;
  int condvar = 0;
  recorder.Record(1, FlightEventType::kFaultFired,
                  recorder.InternLabel("fault.stall"), 100, 4);
  recorder.Record(2, FlightEventType::kBlock, &condvar, 200);
  const Postmortem pm = BuildPostmortem(recorder, nullptr);
  const std::string json = pm.ToJson();
  EXPECT_NE(json.find("\"cause\":\"stall\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"narrative\":["), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"events_recorded\":2"), std::string::npos);
}

// ---- Replay integration -----------------------------------------------------------------

TEST(PostmortemTest, ChaosLostSignalReplayNamesTheInjectedFamily) {
  // Monitor bounded buffer under drop-signal, the calibration's headline row: every
  // harmful seed must postmortem to "lost-signal" (the recall gate in chaos_sweep
  // asserts this over the whole sweep; one deterministic seed is enough here).
  const std::optional<ChaosReplayResult> replay =
      ReplayChaosTrial("bounded-buffer", Mechanism::kMonitor, "lost-signal",
                       /*seed=*/1);
  ASSERT_TRUE(replay.has_value());
  ASSERT_TRUE(replay->outcome.hung || replay->outcome.anomalies > 0);
  EXPECT_EQ(replay->postmortem.cause, "lost-signal") << replay->postmortem.ToText();
  EXPECT_EQ(replay->outcome.postmortem_cause, "lost-signal");
  EXPECT_FALSE(replay->events.empty());
}

// A hung run is a function of its schedule too. Seed 6 of the readers-priority
// monitor under lost-signal hangs with two readers still inside; teardown unwinds its
// threads one at a time in creation order, so every replay ends its trace with the
// same exit events in the same order.
TEST(PostmortemTest, HungChaosReplayTraceIsIdenticalOnEveryReplay) {
  const std::optional<ChaosReplayResult> first =
      ReplayChaosTrial("rw-readers-priority", Mechanism::kMonitor, "lost-signal",
                       /*seed=*/6);
  ASSERT_TRUE(first.has_value());
  ASSERT_FALSE(first->outcome.completed);
  ASSERT_FALSE(first->events.empty());
  for (int replay = 0; replay < 20; ++replay) {
    SCOPED_TRACE("replay " + std::to_string(replay));
    const std::optional<ChaosReplayResult> again =
        ReplayChaosTrial("rw-readers-priority", Mechanism::kMonitor, "lost-signal", 6);
    ASSERT_TRUE(again.has_value());
    ASSERT_EQ(again->events.size(), first->events.size());
    for (std::size_t i = 0; i < first->events.size(); ++i) {
      const Event& a = first->events[i];
      const Event& b = again->events[i];
      EXPECT_EQ(a.seq, b.seq) << i;
      EXPECT_EQ(a.thread, b.thread) << i;
      EXPECT_EQ(a.kind, b.kind) << i;
      EXPECT_EQ(a.op, b.op) << i;
      EXPECT_EQ(a.op_instance, b.op_instance) << i;
      EXPECT_EQ(a.param, b.param) << i;
      EXPECT_EQ(a.value, b.value) << i;
    }
  }
}

TEST(PostmortemTest, CleanConformanceTrialHasNoPostmortem) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite();
  const ConformanceCase* clean = nullptr;
  for (const ConformanceCase& conformance_case : suite) {
    if (conformance_case.problem == "bounded-buffer" &&
        conformance_case.mechanism == Mechanism::kMonitor) {
      clean = &conformance_case;
      break;
    }
  }
  ASSERT_NE(clean, nullptr);
  const ConformanceReplay replay = ReplayConformanceTrial(*clean, /*seed=*/1);
  EXPECT_TRUE(replay.report.Passed()) << replay.report.message;
  EXPECT_TRUE(replay.postmortem.empty());
  EXPECT_TRUE(replay.report.postmortem.empty());
  EXPECT_FALSE(replay.events.empty());  // The capture still carries the clean trace.
}

}  // namespace
}  // namespace syneval
