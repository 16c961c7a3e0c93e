// Checkpoint store + codecs (runtime/checkpoint.h): lossless round-trips, snapshot
// load/flush behavior, malformed-line tolerance, and the headline guarantee — a sweep
// resumed from a checkpoint merges bit-identical to an uninterrupted run, including
// after a SIGKILL mid-sweep (fork-based test, POSIX and non-sanitized builds only).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/fault/fault.h"
#include "syneval/runtime/checkpoint.h"
#include "syneval/runtime/parallel_sweep.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define SYNEVAL_HAVE_FORK 1
#endif

// Fork-based kill tests do not mix with sanitizer runtimes (TSan/ASan both dislike
// being forked mid-flight and the child dying by SIGKILL).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SYNEVAL_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SYNEVAL_SANITIZED 1
#endif
#endif

namespace syneval {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

// ---- Escaping -------------------------------------------------------------------------

TEST(CheckpointEscapeTest, RoundTripsStructureCharacters) {
  const std::string nasty = "a\tb\nc;d=e,f\\g\t\t\n\n;;==,,\\\\ plain";
  const std::string escaped = CheckpointEscape(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find(';'), std::string::npos);
  EXPECT_EQ(escaped.find('='), std::string::npos);
  EXPECT_EQ(escaped.find(','), std::string::npos);
  EXPECT_EQ(CheckpointUnescape(escaped), nasty);
  EXPECT_EQ(CheckpointUnescape(CheckpointEscape("")), "");
}

// ---- Codecs ---------------------------------------------------------------------------

SweepOutcome FullOutcome() {
  SweepOutcome o;
  o.runs = 7;
  o.passes = 4;
  o.failures = 3;
  o.failing_seeds = {2, 5, 6};
  o.first_failure = "seed 2: item=7 expected;newline\nand tab\tend";
  o.anomalies.deadlocks = 1;
  o.anomalies.lost_wakeups = 2;
  o.anomalies.stuck_waiters = 3;
  o.anomalies.starvations = 4;
  o.anomalous_seeds = {2, 6};
  o.first_anomaly = "seed 2: deadlock = wait-for cycle";
  o.postmortems.push_back({2, "deadlock", "postmortem: deadlock\n  seq=1 t1 block\n"});
  o.postmortems.push_back({6, "lost-signal", "narrative with = and ; and \\"});
  o.postmortems_total = 3;
  o.flight_evicted = 99;
  return o;
}

TEST(CheckpointCodecTest, SweepOutcomeRoundTripsEveryField) {
  const SweepOutcome o = FullOutcome();
  SweepOutcome back;
  ASSERT_TRUE(DecodeOutcome(EncodeOutcome(o), &back));
  EXPECT_EQ(back.runs, o.runs);
  EXPECT_EQ(back.passes, o.passes);
  EXPECT_EQ(back.failures, o.failures);
  EXPECT_EQ(back.failing_seeds, o.failing_seeds);
  EXPECT_EQ(back.first_failure, o.first_failure);
  EXPECT_EQ(back.anomalies.deadlocks, o.anomalies.deadlocks);
  EXPECT_EQ(back.anomalies.lost_wakeups, o.anomalies.lost_wakeups);
  EXPECT_EQ(back.anomalies.stuck_waiters, o.anomalies.stuck_waiters);
  EXPECT_EQ(back.anomalies.starvations, o.anomalies.starvations);
  EXPECT_EQ(back.anomalous_seeds, o.anomalous_seeds);
  EXPECT_EQ(back.first_anomaly, o.first_anomaly);
  ASSERT_EQ(back.postmortems.size(), o.postmortems.size());
  for (std::size_t i = 0; i < o.postmortems.size(); ++i) {
    EXPECT_EQ(back.postmortems[i].seed, o.postmortems[i].seed);
    EXPECT_EQ(back.postmortems[i].cause, o.postmortems[i].cause);
    EXPECT_EQ(back.postmortems[i].text, o.postmortems[i].text);
  }
  EXPECT_EQ(back.postmortems_total, o.postmortems_total);
  EXPECT_EQ(back.flight_evicted, o.flight_evicted);
}

TEST(CheckpointCodecTest, EmptyOutcomeRoundTrips) {
  SweepOutcome back;
  back.runs = 42;  // Must be overwritten.
  ASSERT_TRUE(DecodeOutcome(EncodeOutcome(SweepOutcome{}), &back));
  EXPECT_EQ(back.runs, 0);
  EXPECT_TRUE(back.failing_seeds.empty());
  EXPECT_TRUE(back.postmortems.empty());
}

TEST(CheckpointCodecTest, ChaosOutcomeRoundTripsEveryField) {
  ChaosSweepOutcome o;
  o.runs = 9;
  o.skipped = 3;
  o.injected_runs = 8;
  o.harmful = 5;
  o.detected_harmful = 4;
  o.absorbed = 2;
  o.corrupted = 1;
  o.clean_anomalies = 1;
  o.clean_failures = 2;
  o.detection_steps_total = 1234567890123ULL;
  o.missed_seeds = {3};
  o.fp_seeds = {1, 9};
  o.postmortems.push_back({4, "lost-signal", "text;with=structure,chars\\\n"});
  o.postmortems_total = 6;
  o.postmortem_causes = {{"lost-signal", 4}, {"dead=lock;odd", 2}};
  o.flight_evicted = 17;
  ChaosSweepOutcome back;
  ASSERT_TRUE(DecodeChaosOutcome(EncodeChaosOutcome(o), &back));
  EXPECT_EQ(back.runs, o.runs);
  EXPECT_EQ(back.skipped, o.skipped);
  EXPECT_EQ(back.injected_runs, o.injected_runs);
  EXPECT_EQ(back.harmful, o.harmful);
  EXPECT_EQ(back.detected_harmful, o.detected_harmful);
  EXPECT_EQ(back.absorbed, o.absorbed);
  EXPECT_EQ(back.corrupted, o.corrupted);
  EXPECT_EQ(back.clean_anomalies, o.clean_anomalies);
  EXPECT_EQ(back.clean_failures, o.clean_failures);
  EXPECT_EQ(back.detection_steps_total, o.detection_steps_total);
  EXPECT_EQ(back.missed_seeds, o.missed_seeds);
  EXPECT_EQ(back.fp_seeds, o.fp_seeds);
  ASSERT_EQ(back.postmortems.size(), 1u);
  EXPECT_EQ(back.postmortems[0].text, o.postmortems[0].text);
  EXPECT_EQ(back.postmortems_total, o.postmortems_total);
  EXPECT_EQ(back.postmortem_causes, o.postmortem_causes);
  EXPECT_EQ(back.flight_evicted, o.flight_evicted);
}

TEST(CheckpointCodecTest, TrialReportRoundTrips) {
  TrialReport r;
  r.message = "oracle: consumed 3 != produced 4\twith tab";
  r.anomalies.stuck_waiters = 2;
  r.anomaly_report = "[stuck-waiter @7] t1 stuck";
  r.postmortem_cause = "stuck-waiter";
  r.postmortem = "line1\nline2; k=v\n";
  r.flight_evicted = 5;
  TrialReport back;
  ASSERT_TRUE(DecodeTrialReport(EncodeTrialReport(r), &back));
  EXPECT_EQ(back.message, r.message);
  EXPECT_EQ(back.anomalies.stuck_waiters, 2);
  EXPECT_EQ(back.anomaly_report, r.anomaly_report);
  EXPECT_EQ(back.postmortem_cause, r.postmortem_cause);
  EXPECT_EQ(back.postmortem, r.postmortem);
  EXPECT_EQ(back.flight_evicted, 5u);
}

TEST(CheckpointCodecTest, MalformedPayloadsAreRejected) {
  SweepOutcome out;
  out.runs = 7;
  EXPECT_FALSE(DecodeOutcome("", &out));
  EXPECT_FALSE(DecodeOutcome("not a record at all", &out));
  EXPECT_EQ(out.runs, 7);  // Left untouched on failure.
  // Kind confusion: a sweep payload never decodes as a chaos outcome or vice versa.
  ChaosSweepOutcome chaos;
  EXPECT_FALSE(DecodeChaosOutcome(EncodeOutcome(FullOutcome()), &chaos));
  SweepOutcome sweep;
  EXPECT_FALSE(DecodeOutcome(EncodeChaosOutcome(ChaosSweepOutcome{}), &sweep));
  TrialReport report;
  EXPECT_FALSE(DecodeTrialReport("v=sweep1", &report));
}

TEST(CheckpointCodecTest, ExtremeValuesRoundTripLosslessly) {
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHighBit = std::uint64_t{1} << 63;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr int kMinInt = std::numeric_limits<int>::min();

  SweepOutcome sweep = FullOutcome();
  sweep.runs = kMaxInt;
  sweep.failures = kMinInt;
  sweep.anomalies.deadlocks = kMaxInt;
  sweep.anomalies.starvations = kMinInt;
  sweep.failing_seeds = {0, kHighBit, kMaxU64};
  sweep.postmortems.push_back({kMaxU64, "deadlock", "text"});
  sweep.flight_evicted = kHighBit;
  SweepOutcome sweep_back;
  ASSERT_TRUE(DecodeOutcome(EncodeOutcome(sweep), &sweep_back));
  EXPECT_EQ(sweep_back.runs, kMaxInt);
  EXPECT_EQ(sweep_back.failures, kMinInt);
  EXPECT_EQ(sweep_back.anomalies.deadlocks, kMaxInt);
  EXPECT_EQ(sweep_back.anomalies.starvations, kMinInt);
  EXPECT_EQ(sweep_back.failing_seeds, sweep.failing_seeds);
  ASSERT_EQ(sweep_back.postmortems.size(), sweep.postmortems.size());
  EXPECT_EQ(sweep_back.postmortems.back().seed, kMaxU64);
  EXPECT_EQ(sweep_back.flight_evicted, kHighBit);

  ChaosSweepOutcome chaos;
  chaos.runs = kMaxInt;
  chaos.harmful = kMinInt;
  chaos.detection_steps_total = kMaxU64;
  chaos.missed_seeds = {kMaxU64};
  chaos.fp_seeds = {kHighBit};
  chaos.postmortems.push_back({kMaxU64, "lost-signal", "text"});
  chaos.postmortem_causes = {{"lost-signal", kMaxInt}};
  chaos.flight_evicted = kHighBit;
  ChaosSweepOutcome chaos_back;
  ASSERT_TRUE(DecodeChaosOutcome(EncodeChaosOutcome(chaos), &chaos_back));
  EXPECT_EQ(chaos_back.runs, kMaxInt);
  EXPECT_EQ(chaos_back.harmful, kMinInt);
  EXPECT_EQ(chaos_back.detection_steps_total, kMaxU64);
  EXPECT_EQ(chaos_back.missed_seeds, chaos.missed_seeds);
  EXPECT_EQ(chaos_back.fp_seeds, chaos.fp_seeds);
  ASSERT_EQ(chaos_back.postmortems.size(), 1u);
  EXPECT_EQ(chaos_back.postmortems[0].seed, kMaxU64);
  EXPECT_EQ(chaos_back.postmortem_causes, chaos.postmortem_causes);
  EXPECT_EQ(chaos_back.flight_evicted, kHighBit);

  TrialReport report;
  report.anomalies.lost_wakeups = kMaxInt;
  report.anomalies.stuck_waiters = kMinInt;
  report.flight_evicted = kMaxU64;
  TrialReport report_back;
  ASSERT_TRUE(DecodeTrialReport(EncodeTrialReport(report), &report_back));
  EXPECT_EQ(report_back.anomalies.lost_wakeups, kMaxInt);
  EXPECT_EQ(report_back.anomalies.stuck_waiters, kMinInt);
  EXPECT_EQ(report_back.flight_evicted, kMaxU64);
}

// Replaces the one `field` of an encoded record ("key=value") with `replacement`.
std::string ReplaceField(std::string payload, const std::string& field,
                         const std::string& replacement) {
  const std::size_t at = payload.find(field);
  EXPECT_NE(at, std::string::npos) << field << " not in " << payload;
  return at == std::string::npos ? payload : payload.replace(at, field.size(), replacement);
}

TEST(CheckpointCodecTest, OutOfRangeNumbersAreRejected) {
  const std::string report = EncodeTrialReport(TrialReport{});
  TrialReport out;
  ASSERT_TRUE(DecodeTrialReport(report, &out));
  // An int field past INT_MAX would narrow (2^32 + 1 -> 1); past LLONG_MAX it would
  // saturate.
  EXPECT_FALSE(DecodeTrialReport(ReplaceField(report, "a.dl=0", "a.dl=4294967297"), &out));
  EXPECT_FALSE(DecodeTrialReport(ReplaceField(report, "a.dl=0", "a.dl=-2147483649"), &out));
  EXPECT_FALSE(
      DecodeTrialReport(ReplaceField(report, "a.dl=0", "a.dl=99999999999999999999"), &out));
  // A u64 field past 2^64 - 1 would saturate; a sign would wrap.
  EXPECT_FALSE(
      DecodeTrialReport(ReplaceField(report, "fev=0", "fev=18446744073709551616"), &out));
  EXPECT_FALSE(DecodeTrialReport(ReplaceField(report, "fev=0", "fev=-1"), &out));
  EXPECT_FALSE(DecodeTrialReport(ReplaceField(report, "fev=0", "fev=+1"), &out));
  EXPECT_FALSE(DecodeTrialReport(ReplaceField(report, "fev=0", "fev= 1"), &out));

  SweepOutcome sweep;
  sweep.failing_seeds = {5};
  const std::string encoded = EncodeOutcome(sweep);
  SweepOutcome sweep_out;
  ASSERT_TRUE(DecodeOutcome(encoded, &sweep_out));
  EXPECT_FALSE(DecodeOutcome(ReplaceField(encoded, "fseeds=5", "fseeds=-5"), &sweep_out));
  EXPECT_FALSE(DecodeOutcome(
      ReplaceField(encoded, "fseeds=5", "fseeds=18446744073709551616"), &sweep_out));
}

TEST(CheckpointCodecTest, ChunkKeyEmbedsEveryLayoutParameter) {
  const std::string base = ChunkKey("scope/a", "sweep", 1, 100, 16, 0);
  EXPECT_NE(base, ChunkKey("scope/b", "sweep", 1, 100, 16, 0));
  EXPECT_NE(base, ChunkKey("scope/a", "chaos", 1, 100, 16, 0));
  EXPECT_NE(base, ChunkKey("scope/a", "sweep", 2, 100, 16, 0));
  EXPECT_NE(base, ChunkKey("scope/a", "sweep", 1, 101, 16, 0));
  EXPECT_NE(base, ChunkKey("scope/a", "sweep", 1, 100, 8, 0));
  EXPECT_NE(base, ChunkKey("scope/a", "sweep", 1, 100, 16, 1));
  // Scope strings with structure characters cannot forge another key.
  EXPECT_NE(ChunkKey("a\tsweep", "x", 1, 1, 1, 0), ChunkKey("a", "sweep\tx", 1, 1, 1, 0));
}

// ---- Store ----------------------------------------------------------------------------

TEST(CheckpointStoreTest, CommitFlushLoadRoundTrips) {
  const std::string path = TempPath("store_roundtrip.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    EXPECT_EQ(store.Load(), 0);  // Missing file: empty store, no error.
    store.Commit("key-a", "payload-a");
    store.Commit("key b with spaces", "payload\twith\nstructure;=,\\chars");
    ASSERT_TRUE(store.Flush());
    EXPECT_EQ(store.size(), 2);
  }
  CheckpointStore reloaded(path);
  EXPECT_EQ(reloaded.Load(), 2);
  std::string payload;
  ASSERT_TRUE(reloaded.Lookup("key b with spaces", &payload));
  EXPECT_EQ(payload, "payload\twith\nstructure;=,\\chars");
  EXPECT_FALSE(reloaded.Lookup("absent", &payload));
  EXPECT_EQ(reloaded.hits(), 1);
  RemoveStore(path);
}

TEST(CheckpointStoreTest, MalformedLinesAreSkippedOnLoad) {
  const std::string path = TempPath("store_corrupt.ckpt");
  {
    std::ofstream f(path);
    f << "syneval-checkpoint v1\n";
    f << CheckpointEscape("good-key") << "\t" << CheckpointEscape("good-payload") << "\n";
    f << "no-tab-on-this-line\n";
    f << "\ttab-but-empty-key\n";
    f << CheckpointEscape("truncated");  // No newline, no payload: dropped.
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 1);  // Only the well-formed line survives.
  std::string payload;
  EXPECT_TRUE(store.Lookup("good-key", &payload));
  EXPECT_EQ(payload, "good-payload");
  RemoveStore(path);
}

TEST(CheckpointStoreTest, WrongHeaderLoadsNothing) {
  const std::string path = TempPath("store_header.ckpt");
  {
    std::ofstream f(path);
    f << "some-other-format v9\nkey\tpayload\n";
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 0);
  RemoveStore(path);
}

TEST(CheckpointStoreTest, FlushIsAtomicReplacement) {
  const std::string path = TempPath("store_atomic.ckpt");
  CheckpointStore store(path);
  store.Commit("k", "v1");
  ASSERT_TRUE(store.Flush());
  store.Commit("k", "v2");
  ASSERT_TRUE(store.Flush());
  // No .tmp litter left behind and the snapshot holds the latest value.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  CheckpointStore reloaded(path);
  EXPECT_EQ(reloaded.Load(), 1);
  std::string payload;
  ASSERT_TRUE(reloaded.Lookup("k", &payload));
  EXPECT_EQ(payload, "v2");
  RemoveStore(path);
}

// ---- Write-ahead journal --------------------------------------------------------------

TEST(CheckpointJournalTest, CommitsAreDurableWithoutFlush) {
  const std::string path = TempPath("journal_durable.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    store.Commit("a", "1");
    store.Commit("b", "2");
    store.Commit("a", "3");  // Later entries win on replay.
    EXPECT_EQ(store.appends(), 3);
    EXPECT_EQ(store.compactions(), 0);  // Default flush_every is 64: no compaction yet.
    // No Flush(): the snapshot was never written...
    std::ifstream snapshot(path);
    EXPECT_FALSE(snapshot.good());
  }
  // ...yet every commit survives, replayed from the journal alone. Load() reports
  // distinct entries; replayed() counts journal lines (the shadowed "a" is a third).
  CheckpointStore reloaded(path);
  EXPECT_EQ(reloaded.Load(), 2);
  EXPECT_EQ(reloaded.replayed(), 3);
  std::string payload;
  ASSERT_TRUE(reloaded.Lookup("a", &payload));
  EXPECT_EQ(payload, "3");
  ASSERT_TRUE(reloaded.Lookup("b", &payload));
  EXPECT_EQ(payload, "2");
  RemoveStore(path);
}

TEST(CheckpointJournalTest, AutomaticCompactionTruncatesJournal) {
  const std::string path = TempPath("journal_compact.ckpt");
  RemoveStore(path);
  CheckpointStore store(path);
  store.SetFlushEvery(2);
  store.Commit("a", "1");
  EXPECT_EQ(store.compactions(), 0);
  store.Commit("b", "2");  // Second append: compaction fires.
  EXPECT_EQ(store.compactions(), 1);
  // The snapshot now holds both entries and the journal is back to header-only.
  {
    std::ifstream journal(store.journal_path());
    std::string header, extra;
    ASSERT_TRUE(std::getline(journal, header));
    EXPECT_EQ(header, "syneval-journal v1");
    EXPECT_FALSE(std::getline(journal, extra));
  }
  CheckpointStore reloaded(path);
  EXPECT_EQ(reloaded.Load(), 2);
  EXPECT_EQ(reloaded.replayed(), 0);  // Everything came from the snapshot.
  // Appends after a compaction land in the (reopened) journal again.
  store.Commit("c", "3");
  CheckpointStore again(path);
  EXPECT_EQ(again.Load(), 3);
  EXPECT_EQ(again.replayed(), 1);
  RemoveStore(path);
}

TEST(CheckpointJournalTest, TornFinalAppendIsACacheMiss) {
  const std::string path = TempPath("journal_torn.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    store.Commit("a", "1");
    store.Commit("b", "2");
  }
  // Simulate SIGKILL mid-append: chop bytes off the journal so the final line has no
  // terminating newline.
  {
    std::ifstream in(path + ".journal", std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_GT(data.size(), 3u);
    ASSERT_EQ(data.back(), '\n');
    std::ofstream out(path + ".journal", std::ios::binary | std::ios::trunc);
    out << data.substr(0, data.size() - 3);
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 1);  // The torn append degraded to a cache miss.
  std::string payload;
  EXPECT_TRUE(store.Lookup("a", &payload));
  EXPECT_FALSE(store.Lookup("b", &payload));
  RemoveStore(path);
}

TEST(CheckpointJournalTest, MalformedJournalLinesAreCacheMisses) {
  const std::string path = TempPath("journal_malformed.ckpt");
  RemoveStore(path);
  {
    std::ofstream f(path + ".journal");
    f << "syneval-journal v1\n";
    f << CheckpointEscape("good") << "\t" << CheckpointEscape("payload") << "\n";
    f << "no-tab-on-this-line\n";
    f << "\tempty-key\n";
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 1);
  std::string payload;
  EXPECT_TRUE(store.Lookup("good", &payload));
  EXPECT_EQ(payload, "payload");
  RemoveStore(path);
}

TEST(CheckpointJournalTest, ForeignJournalHeaderLoadsNothing) {
  const std::string path = TempPath("journal_header.ckpt");
  RemoveStore(path);
  {
    std::ofstream f(path + ".journal");
    f << "some-other-journal v9\nkey\tpayload\n";
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 0);
  RemoveStore(path);
}

TEST(CheckpointJournalTest, JournalReplaysOverSnapshot) {
  const std::string path = TempPath("journal_over.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    store.Commit("k", "old");
    store.Commit("only-snapshot", "s");
    ASSERT_TRUE(store.Flush());   // Snapshot holds both; journal truncated.
    store.Commit("k", "new");     // Journal entry shadows the snapshot's value.
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 2);  // Distinct entries; the replayed "k" shadows, not adds.
  EXPECT_EQ(store.replayed(), 1);
  std::string payload;
  ASSERT_TRUE(store.Lookup("k", &payload));
  EXPECT_EQ(payload, "new");
  ASSERT_TRUE(store.Lookup("only-snapshot", &payload));
  EXPECT_EQ(payload, "s");
  RemoveStore(path);
}

// ---- Resume bit-identity --------------------------------------------------------------

TrialReport SyntheticTrial(std::uint64_t seed) {
  TrialReport r;
  if (seed % 3 == 0) {
    r.message = "seed " + std::to_string(seed) + " failed";
  }
  if (seed % 5 == 0) {
    r.anomalies.deadlocks = 1;
    r.anomaly_report = "synthetic deadlock at seed " + std::to_string(seed);
    r.postmortem_cause = "deadlock";
    r.postmortem = "postmortem for seed " + std::to_string(seed) + "\n";
  }
  r.flight_evicted = seed % 2;
  return r;
}

void ExpectOutcomesIdentical(const SweepOutcome& a, const SweepOutcome& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failing_seeds, b.failing_seeds);
  EXPECT_EQ(a.first_failure, b.first_failure);
  EXPECT_EQ(a.anomalies.deadlocks, b.anomalies.deadlocks);
  EXPECT_EQ(a.anomalous_seeds, b.anomalous_seeds);
  EXPECT_EQ(a.first_anomaly, b.first_anomaly);
  ASSERT_EQ(a.postmortems.size(), b.postmortems.size());
  for (std::size_t i = 0; i < a.postmortems.size(); ++i) {
    EXPECT_EQ(a.postmortems[i].seed, b.postmortems[i].seed);
    EXPECT_EQ(a.postmortems[i].text, b.postmortems[i].text);
  }
  EXPECT_EQ(a.postmortems_total, b.postmortems_total);
  EXPECT_EQ(a.flight_evicted, b.flight_evicted);
}

TEST(CheckpointResumeTest, ResumedSweepMergesBitIdentical) {
  const std::string path = TempPath("resume_sweep.ckpt");
  RemoveStore(path);
  const int kSeeds = 100;

  const SweepOutcome clean = SweepSchedules(kSeeds, SyntheticTrial, 1);

  // First run: checkpoint everything.
  {
    CheckpointStore store(path);
    store.Load();
    ParallelOptions options;
    options.jobs = 4;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/resume";
    const SweepOutcome first = SweepSchedules(kSeeds, SyntheticTrial, 1, options);
    ExpectOutcomesIdentical(first, clean);
    EXPECT_GT(store.size(), 0);
  }

  // Resume under a different worker count: every chunk restores, nothing re-runs.
  {
    CheckpointStore store(path);
    EXPECT_GT(store.Load(), 0);
    int live_trials = 0;
    ParallelOptions options;
    options.jobs = 2;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/resume";
    const SweepOutcome resumed = SweepSchedules(
        kSeeds,
        std::function<TrialReport(std::uint64_t)>([&](std::uint64_t seed) {
          ++live_trials;  // Benign: counted only to prove nothing re-ran.
          return SyntheticTrial(seed);
        }),
        1, options);
    ExpectOutcomesIdentical(resumed, clean);
    EXPECT_EQ(live_trials, 0);
    EXPECT_EQ(store.hits(), store.size());
  }

  // A different scope is a different sweep: nothing restores.
  {
    CheckpointStore store(path);
    store.Load();
    ParallelOptions options;
    options.jobs = 2;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/other-scope";
    const SweepOutcome other = SweepSchedules(kSeeds, SyntheticTrial, 1, options);
    ExpectOutcomesIdentical(other, clean);
    EXPECT_EQ(store.hits(), 0);
  }
  RemoveStore(path);
}

ChaosTrialOutcome SyntheticChaosTrial(std::uint64_t seed, const FaultPlan* plan) {
  ChaosTrialOutcome out;
  out.steps = 100 + seed;
  if (plan == nullptr) {
    out.completed = true;
    return out;
  }
  out.injected = 1;
  out.first_injection_step = 10;
  if (seed % 4 == 0) {
    out.hung = true;
    out.anomalies = 1;
    out.report = "hung at seed " + std::to_string(seed);
    out.postmortem_cause = "lost-signal";
    out.postmortem = "chaos postmortem seed " + std::to_string(seed) + "\n";
  } else {
    out.completed = true;
  }
  return out;
}

TEST(CheckpointResumeTest, ResumedChaosSweepMergesBitIdentical) {
  const std::string path = TempPath("resume_chaos.ckpt");
  RemoveStore(path);
  const int kSeeds = 60;
  const FaultPlan plan;  // Unused by the synthetic trial beyond its nullness.

  const ChaosSweepOutcome clean = SweepChaos(kSeeds, SyntheticChaosTrial, plan, 1);
  {
    CheckpointStore store(path);
    ParallelOptions options;
    options.jobs = 3;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/chaos";
    const ChaosSweepOutcome first =
        SweepChaos(kSeeds, SyntheticChaosTrial, plan, 1, options);
    EXPECT_EQ(first.runs, clean.runs);
    EXPECT_GT(store.size(), 0);
  }
  {
    CheckpointStore store(path);
    EXPECT_GT(store.Load(), 0);
    ParallelOptions options;
    options.jobs = 5;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/chaos";
    const ChaosSweepOutcome resumed =
        SweepChaos(kSeeds, SyntheticChaosTrial, plan, 1, options);
    EXPECT_EQ(store.hits(), store.size());
    EXPECT_EQ(resumed.runs, clean.runs);
    EXPECT_EQ(resumed.injected_runs, clean.injected_runs);
    EXPECT_EQ(resumed.harmful, clean.harmful);
    EXPECT_EQ(resumed.detected_harmful, clean.detected_harmful);
    EXPECT_EQ(resumed.absorbed, clean.absorbed);
    EXPECT_EQ(resumed.clean_anomalies, clean.clean_anomalies);
    EXPECT_EQ(resumed.detection_steps_total, clean.detection_steps_total);
    EXPECT_EQ(resumed.missed_seeds, clean.missed_seeds);
    EXPECT_EQ(resumed.fp_seeds, clean.fp_seeds);
    ASSERT_EQ(resumed.postmortems.size(), clean.postmortems.size());
    for (std::size_t i = 0; i < clean.postmortems.size(); ++i) {
      EXPECT_EQ(resumed.postmortems[i].text, clean.postmortems[i].text);
    }
    EXPECT_EQ(resumed.postmortem_causes, clean.postmortem_causes);
    EXPECT_EQ(resumed.flight_evicted, clean.flight_evicted);
  }
  RemoveStore(path);
}

#if defined(SYNEVAL_HAVE_FORK) && !defined(SYNEVAL_SANITIZED)
// The acceptance-criterion shape: SIGKILL a sweep mid-flight, resume against the same
// checkpoint file, and the merged outcome is bit-identical to the uninterrupted run.
TEST(CheckpointResumeTest, SigkilledSweepResumesBitIdentical) {
  const std::string path = TempPath("resume_sigkill.ckpt");
  RemoveStore(path);
  const int kSeeds = 200;
  const SweepOutcome clean = SweepSchedules(kSeeds, SyntheticTrial, 1);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: sweep slowly, checkpointing every chunk, until the parent kills us.
    CheckpointStore store(path);
    ParallelOptions options;
    options.jobs = 2;
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/sigkill";
    (void)SweepSchedules(
        kSeeds,
        std::function<TrialReport(std::uint64_t)>([](std::uint64_t seed) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return SyntheticTrial(seed);
        }),
        1, options);
    _exit(0);  // Finished before the kill: the resume below restores everything.
  }

  // Parent: wait for the journal to carry at least one committed chunk (the journal,
  // not the snapshot — commits are journal appends, and the first compaction may be
  // many chunks away), then SIGKILL the child mid-sweep.
  for (int i = 0; i < 2000; ++i) {
    std::ifstream f(path + ".journal");
    std::string line;
    int lines = 0;
    while (std::getline(f, line)) {
      ++lines;
    }
    if (lines >= 2) {  // Header + one entry.
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  CheckpointStore store(path);
  const int restored = store.Load();
  ParallelOptions options;
  options.jobs = 2;
  options.checkpoint = &store;
  options.checkpoint_scope = "checkpoint_test/sigkill";
  const SweepOutcome resumed = SweepSchedules(kSeeds, SyntheticTrial, 1, options);
  ExpectOutcomesIdentical(resumed, clean);
  // Everything the child durably committed before the kill restored as cache hits
  // (the torn tail, if the kill landed mid-append, became a cache miss, not garbage).
  EXPECT_EQ(store.hits(), restored);
  RemoveStore(path);
}

// SIGKILL aimed at the compaction window: with SetFlushEvery(1) every commit runs the
// full append → snapshot-rename → journal-truncate sequence, so a kill at a random
// moment lands inside compaction with high probability. Whatever window it hits, the
// store must recover to a state where resume is bit-identical.
TEST(CheckpointResumeTest, SigkilledMidCompactionRecovers) {
  const std::string path = TempPath("resume_kill_compact.ckpt");
  RemoveStore(path);
  const int kSeeds = 120;
  const SweepOutcome clean = SweepSchedules(kSeeds, SyntheticTrial, 1);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    CheckpointStore store(path);
    store.SetFlushEvery(1);  // Compaction on every commit: maximize the crash window.
    ParallelOptions options;
    options.jobs = 2;
    options.chunk_seeds = 1;  // One commit per seed: many compactions to aim at.
    options.checkpoint = &store;
    options.checkpoint_scope = "checkpoint_test/kill-compact";
    (void)SweepSchedules(
        kSeeds,
        std::function<TrialReport(std::uint64_t)>([](std::uint64_t seed) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return SyntheticTrial(seed);
        }),
        1, options);
    _exit(0);
  }

  // Let a few dozen compactions happen, then kill without looking: the kill lands at
  // an arbitrary point of the append/rename/truncate cycle.
  for (int i = 0; i < 2000; ++i) {
    std::ifstream f(path);
    if (f.good()) {
      break;  // At least one compaction has landed.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  CheckpointStore store(path);
  store.SetFlushEvery(1);
  const int restored = store.Load();
  EXPECT_GT(restored, 0);  // The pre-kill snapshot survived whatever window was hit.
  ParallelOptions options;
  options.jobs = 2;
  options.chunk_seeds = 1;
  options.checkpoint = &store;
  options.checkpoint_scope = "checkpoint_test/kill-compact";
  const SweepOutcome resumed = SweepSchedules(kSeeds, SyntheticTrial, 1, options);
  ExpectOutcomesIdentical(resumed, clean);
  RemoveStore(path);
}
#endif  // SYNEVAL_HAVE_FORK && !SYNEVAL_SANITIZED

}  // namespace
}  // namespace syneval
