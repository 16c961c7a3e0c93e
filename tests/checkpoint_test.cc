// Checkpoint store + codecs (runtime/checkpoint.h): lossless round-trips, log load
// behavior, torn-tail and malformed-line tolerance, and the headline guarantee — a
// sweep resumed from a checkpoint merges bit-identical to an uninterrupted run,
// including after a SIGKILL mid-sweep (fork-based test, POSIX and non-sanitized builds
// only).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
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

void RemoveStore(const std::string& path) { std::remove(path.c_str()); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

// ---- Escaping -------------------------------------------------------------------------

TEST(CheckpointEscapeTest, RoundTripsStructureCharacters) {
  const std::string nasty = "a\tb\nc;d=e,f\\g\t\t\n\n;;==,,\\\\ plain\r";
  const std::string escaped = CheckpointEscape(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(escaped.find(';'), std::string::npos);
  EXPECT_EQ(escaped.find('='), std::string::npos);
  EXPECT_EQ(CheckpointUnescape(escaped), nasty);
  EXPECT_EQ(CheckpointUnescape(CheckpointEscape("")), "");
}

// ---- Codecs ---------------------------------------------------------------------------

// Replaces the one `field` of an encoded record ("key=value") with `replacement`.
std::string ReplaceField(std::string payload, const std::string& field,
                         const std::string& replacement) {
  const std::size_t at = payload.find(field);
  EXPECT_NE(at, std::string::npos) << field << " not in " << payload;
  return at == std::string::npos ? payload : payload.replace(at, field.size(), replacement);
}

TrialReport FullReport() {
  TrialReport r;
  r.message = "oracle: consumed 3 != produced 4\twith tab;item=7\nand newline";
  r.anomalies.deadlocks = 1;
  r.anomalies.lost_wakeups = 2;
  r.anomalies.stuck_waiters = 3;
  r.anomalies.starvations = 4;
  r.anomaly_report = "[stuck-waiter @7] t1 stuck, t2 = blocked";
  r.postmortem_cause = "stuck-waiter";
  r.postmortem = "line1\nline2; k=v\n narrative with , and \\";
  r.flight_evicted = 5;
  return r;
}

void ExpectSameReport(const TrialReport& a, const TrialReport& b) {
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.anomalies.deadlocks, b.anomalies.deadlocks);
  EXPECT_EQ(a.anomalies.lost_wakeups, b.anomalies.lost_wakeups);
  EXPECT_EQ(a.anomalies.stuck_waiters, b.anomalies.stuck_waiters);
  EXPECT_EQ(a.anomalies.starvations, b.anomalies.starvations);
  EXPECT_EQ(a.anomaly_report, b.anomaly_report);
  EXPECT_EQ(a.postmortem_cause, b.postmortem_cause);
  EXPECT_EQ(a.postmortem, b.postmortem);
  EXPECT_EQ(a.flight_evicted, b.flight_evicted);
}

ChaosTrialOutcome FullChaosRun(bool fault_on) {
  ChaosTrialOutcome run;
  run.completed = !fault_on;
  run.hung = fault_on;
  run.crashed = fault_on;
  run.oracle_failed = !fault_on;
  run.injected = fault_on ? 3 : 0;
  run.first_injection_step = fault_on ? 1234567890123ULL : 0;
  run.steps = 9876543210ULL;
  run.anomalies = 2;
  run.report = "hung: t1 waits on t2;t2=blocked,\tforever\n";
  run.postmortem_cause = fault_on ? "lost-signal" : "dead=lock;odd";
  run.postmortem = "text;with=structure,chars\\\n";
  run.flight_evicted = 17;
  return run;
}

void ExpectSameRun(const ChaosTrialOutcome& a, const ChaosTrialOutcome& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.oracle_failed, b.oracle_failed);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.first_injection_step, b.first_injection_step);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.anomalies, b.anomalies);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.postmortem_cause, b.postmortem_cause);
  EXPECT_EQ(a.postmortem, b.postmortem);
  EXPECT_EQ(a.flight_evicted, b.flight_evicted);
}

TEST(CheckpointCodecTest, TrialReportRoundTripsEveryField) {
  const TrialReport r = FullReport();
  const std::string record = EncodeTrialReport(r);
  TrialReport back;
  ASSERT_TRUE(DecodeTrialReport(record, &back));
  ExpectSameReport(back, r);
}

TEST(CheckpointCodecTest, EmptyRecordsRoundTrip) {
  TrialReport back = FullReport();  // Every field must be overwritten.
  ASSERT_TRUE(DecodeTrialReport(EncodeTrialReport(TrialReport{}), &back));
  ExpectSameReport(back, TrialReport{});

  ChaosSeedPair pair_back;
  pair_back.on = FullChaosRun(true);
  pair_back.off = FullChaosRun(false);
  ASSERT_TRUE(DecodeChaosSeedPair(EncodeChaosSeedPair(ChaosSeedPair{}), &pair_back));
  ExpectSameRun(pair_back.on, ChaosTrialOutcome{});
  ExpectSameRun(pair_back.off, ChaosTrialOutcome{});
}

TEST(CheckpointCodecTest, ChaosSeedPairRoundTripsEveryField) {
  ChaosSeedPair pair;
  pair.on = FullChaosRun(true);
  pair.off = FullChaosRun(false);
  const std::string record = EncodeChaosSeedPair(pair);
  ChaosSeedPair back;
  ASSERT_TRUE(DecodeChaosSeedPair(record, &back));
  ExpectSameRun(back.on, pair.on);
  ExpectSameRun(back.off, pair.off);

  // A crashed fault-off run: the bit the quarantine rule folds survives on its own.
  ChaosSeedPair crashed;
  crashed.off.crashed = true;
  ASSERT_TRUE(DecodeChaosSeedPair(EncodeChaosSeedPair(crashed), &back));
  EXPECT_TRUE(back.off.crashed);
  ExpectSameRun(back.on, ChaosTrialOutcome{});
}

TEST(CheckpointCodecTest, MalformedRecordsAreRejected) {
  TrialReport report;
  report.message = "untouched";
  EXPECT_FALSE(DecodeTrialReport("", &report));
  EXPECT_FALSE(DecodeTrialReport("not a record at all", &report));
  EXPECT_FALSE(DecodeTrialReport("v=trial1", &report));  // Every field is required.
  EXPECT_EQ(report.message, "untouched");  // Left untouched on failure.
  ChaosSeedPair pair;
  pair.on.steps = 7;
  EXPECT_FALSE(DecodeChaosSeedPair("", &pair));
  EXPECT_FALSE(DecodeChaosSeedPair("v=chaospair2", &pair));
  EXPECT_EQ(pair.on.steps, 7u);
  // Kind confusion: a trial record never decodes as a chaos pair or vice versa.
  EXPECT_FALSE(DecodeChaosSeedPair(EncodeTrialReport(FullReport()), &pair));
  EXPECT_FALSE(DecodeTrialReport(EncodeChaosSeedPair(ChaosSeedPair{}), &report));
  // A bool is "0" or "1", nothing else.
  const std::string record = EncodeChaosSeedPair(ChaosSeedPair{});
  for (const char* bad : {"on.hung=2", "on.hung=", "on.hung=true", "on.hung=-1"}) {
    EXPECT_FALSE(DecodeChaosSeedPair(ReplaceField(record, "on.hung=0", bad), &pair)) << bad;
  }
}

// A record under another version tag — an older writer's per-chunk aggregate, or a
// future record layout — is a cache miss, never misread.
TEST(CheckpointCodecTest, WrongVersionTagIsRejected) {
  TrialReport report;
  const std::string trial = EncodeTrialReport(FullReport());
  ASSERT_TRUE(DecodeTrialReport(trial, &report));
  for (const char* tag : {"v=trial2", "v=sweep1", "v=", "v=chaospair2"}) {
    EXPECT_FALSE(DecodeTrialReport(ReplaceField(trial, "v=trial1", tag), &report)) << tag;
  }
  ChaosSeedPair pair;
  const std::string chaos = EncodeChaosSeedPair(ChaosSeedPair{});
  ASSERT_TRUE(DecodeChaosSeedPair(chaos, &pair));
  for (const char* tag : {"v=chaospair1", "v=chaospair3", "v=chaos2", "v=chaos1",
                          "v=trial1"}) {
    EXPECT_FALSE(DecodeChaosSeedPair(ReplaceField(chaos, "v=chaospair2", tag), &pair))
        << tag;
  }
}

TEST(CheckpointCodecTest, ExtremeValuesRoundTripLosslessly) {
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHighBit = std::uint64_t{1} << 63;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr int kMinInt = std::numeric_limits<int>::min();

  TrialReport report;
  report.anomalies.deadlocks = kMaxInt;
  report.anomalies.lost_wakeups = kMaxInt;
  report.anomalies.stuck_waiters = kMinInt;
  report.anomalies.starvations = kMinInt;
  report.flight_evicted = kMaxU64;
  TrialReport report_back;
  ASSERT_TRUE(DecodeTrialReport(EncodeTrialReport(report), &report_back));
  ExpectSameReport(report_back, report);

  ChaosSeedPair pair;
  pair.on.injected = kMaxInt;
  pair.on.anomalies = kMinInt;
  pair.on.first_injection_step = kHighBit;
  pair.on.steps = kMaxU64;
  pair.on.flight_evicted = kMaxU64;
  pair.off.injected = kMinInt;
  pair.off.anomalies = kMaxInt;
  pair.off.first_injection_step = kMaxU64;
  pair.off.steps = kHighBit;
  pair.off.flight_evicted = kHighBit;
  ChaosSeedPair pair_back;
  ASSERT_TRUE(DecodeChaosSeedPair(EncodeChaosSeedPair(pair), &pair_back));
  ExpectSameRun(pair_back.on, pair.on);
  ExpectSameRun(pair_back.off, pair.off);
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

  const std::string chaos = EncodeChaosSeedPair(ChaosSeedPair{});
  ChaosSeedPair pair;
  ASSERT_TRUE(DecodeChaosSeedPair(chaos, &pair));
  EXPECT_FALSE(
      DecodeChaosSeedPair(ReplaceField(chaos, "on.inj=0", "on.inj=4294967297"), &pair));
  EXPECT_FALSE(
      DecodeChaosSeedPair(ReplaceField(chaos, "off.anom=0", "off.anom=-2147483649"), &pair));
  EXPECT_FALSE(DecodeChaosSeedPair(
      ReplaceField(chaos, "on.steps=0", "on.steps=18446744073709551616"), &pair));
  EXPECT_FALSE(
      DecodeChaosSeedPair(ReplaceField(chaos, "off.first=0", "off.first=-5"), &pair));
  EXPECT_FALSE(DecodeChaosSeedPair(ReplaceField(chaos, "off.fev=0", "off.fev=+1"), &pair));
}

TEST(CheckpointCodecTest, SeedKeySeparatesScopeKindBaseAndSeed) {
  const std::string base = SeedKey("scope/a", "sweep", 1, 5);
  EXPECT_NE(base, SeedKey("scope/b", "sweep", 1, 5));
  EXPECT_NE(base, SeedKey("scope/a", "chaos", 1, 5));
  EXPECT_NE(base, SeedKey("scope/a", "sweep", 2, 5));
  EXPECT_NE(base, SeedKey("scope/a", "sweep", 1, 6));
  // Scope strings with structure characters cannot forge another key.
  EXPECT_NE(SeedKey("a\tsweep", "x", 1, 1), SeedKey("a", "sweep\tx", 1, 1));
  EXPECT_NE(SeedKey("s|b1|s2", "sweep", 1, 1), SeedKey("s", "sweep", 1, 2));
}

// ---- Store ----------------------------------------------------------------------------

TEST(CheckpointStoreTest, CommitLoadRoundTrips) {
  const std::string path = TempPath("store_roundtrip.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    EXPECT_EQ(store.Load(), 0);  // Missing file: empty store, no error.
    store.Commit("key-a", "payload-a");
    store.Commit("key b with spaces", "payload\twith\nstructure;=,\\chars");
    EXPECT_EQ(store.size(), 2);
    EXPECT_EQ(store.appends(), 2);
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

// Every commit is one flushed line of the log: it survives the store with nothing
// else written, and a later line for the same key wins on load.
TEST(CheckpointStoreTest, CommitsAreDurableAndLaterLinesWin) {
  const std::string path = TempPath("store_durable.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    store.Commit("a", "1");
    store.Commit("b", "2");
    store.Commit("a", "3");
    EXPECT_EQ(store.appends(), 3);
    // No leftover second file: the log is the only one.
    EXPECT_FALSE(std::ifstream(path + ".journal").good());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  }
  EXPECT_EQ(ReadFile(path).substr(0, 19), "syneval-journal v2\n");
  // Load() reports distinct entries; replayed() counts lines (the shadowed "a" too).
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

TEST(CheckpointStoreTest, MalformedLinesAreSkippedOnLoad) {
  const std::string path = TempPath("store_corrupt.ckpt");
  WriteFile(path, "syneval-journal v2\n" + CheckpointEscape("good-key") + "\t" +
                      CheckpointEscape("good-payload") + "\n" +
                      "no-tab-on-this-line\n"
                      "\ttab-but-empty-key\n" +
                      CheckpointEscape("truncated"));  // No newline: a torn tail.
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 1);  // Only the well-formed line survives.
  std::string payload;
  EXPECT_TRUE(store.Lookup("good-key", &payload));
  EXPECT_EQ(payload, "good-payload");
  RemoveStore(path);
}

// A file whose first line is not the v2 header — a foreign file, or an older writer's
// snapshot or chunk journal — loads nothing and is restarted as an empty v2 log. An
// older writer's leftover "<path>.journal" is never read.
TEST(CheckpointStoreTest, ForeignHeaderRestartsTheLog) {
  const std::string path = TempPath("store_header.ckpt");
  for (const char* header :
       {"some-other-format v9", "syneval-checkpoint v1", "syneval-journal v1", ""}) {
    SCOPED_TRACE(header);
    WriteFile(path, std::string(header) + "\nkey\tpayload\n");
    WriteFile(path + ".journal", "syneval-journal v2\nkey\tpayload\n");
    {
      CheckpointStore store(path);
      EXPECT_EQ(store.Load(), 0);
      EXPECT_EQ(ReadFile(path), "");
      store.Commit("fresh", "record");
    }
    EXPECT_EQ(ReadFile(path), "syneval-journal v2\nfresh\trecord\n");
    std::remove((path + ".journal").c_str());
  }
  RemoveStore(path);
}

// SIGKILL mid-append leaves a final line with no terminating newline: a cache miss.
TEST(CheckpointStoreTest, TornFinalAppendIsACacheMiss) {
  const std::string path = TempPath("store_torn.ckpt");
  RemoveStore(path);
  {
    CheckpointStore store(path);
    store.Commit("a", "1");
    store.Commit("b", "2");
  }
  const std::string data = ReadFile(path);
  ASSERT_GT(data.size(), 3u);
  ASSERT_EQ(data.back(), '\n');
  WriteFile(path, data.substr(0, data.size() - 3));
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 1);  // The torn append degraded to a cache miss.
  std::string payload;
  EXPECT_TRUE(store.Lookup("a", &payload));
  EXPECT_FALSE(store.Lookup("b", &payload));
  RemoveStore(path);
}

// The torn tail is cut before the next append: otherwise the next commit is glued onto
// the torn line, and the merged line restores the torn seed's key with the next seed's
// record while the next seed is lost.
TEST(CheckpointStoreTest, AppendAfterTornTailStartsItsOwnLine) {
  const std::string path = TempPath("store_torn_append.ckpt");
  RemoveStore(path);
  TrialReport s1 = FullReport();
  TrialReport s2 = FullReport();
  s2.postmortem = std::string(64, 'B');
  TrialReport s3 = FullReport();
  s3.anomalies.deadlocks = 333;
  s3.postmortem = std::string(64, 'C');
  {
    CheckpointStore store(path);
    store.Commit("s1", EncodeTrialReport(s1));
    store.Commit("s2", EncodeTrialReport(s2));
  }
  const std::string data = ReadFile(path);
  const std::size_t torn = data.find("BBBB");  // Inside s2's postmortem.
  ASSERT_NE(torn, std::string::npos);
  WriteFile(path, data.substr(0, torn + 2));
  {
    CheckpointStore store(path);
    EXPECT_EQ(store.Load(), 1);
    store.Commit("s3", EncodeTrialReport(s3));
  }
  CheckpointStore store(path);
  EXPECT_EQ(store.Load(), 2);
  std::string payload;
  EXPECT_FALSE(store.Lookup("s2", &payload));
  ASSERT_TRUE(store.Lookup("s3", &payload));
  TrialReport back;
  ASSERT_TRUE(DecodeTrialReport(payload, &back));
  ExpectSameReport(back, s3);
  ASSERT_TRUE(store.Lookup("s1", &payload));
  ASSERT_TRUE(DecodeTrialReport(payload, &back));
  ExpectSameReport(back, s1);
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

  // Resume under a different worker count: every seed restores, nothing re-runs.
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

// A record under another version tag — an older writer's per-chunk aggregate
// ("sweep1") under a seed's key — is a cache miss that re-runs that seed alone and
// overwrites it.
TEST(CheckpointResumeTest, ForeignRecordsAreCacheMisses) {
  const std::string path = TempPath("resume_foreign.ckpt");
  RemoveStore(path);
  const std::string scope = "checkpoint_test/foreign";
  const int kSeeds = 40;
  const SweepOutcome clean = SweepSchedules(kSeeds, SyntheticTrial, 1);
  CheckpointStore store(path);
  ParallelOptions options;
  options.jobs = 2;
  options.checkpoint = &store;
  options.checkpoint_scope = scope;
  std::atomic<int> live_trials{0};
  const std::function<TrialReport(std::uint64_t)> counted = [&](std::uint64_t seed) {
    ++live_trials;
    return SyntheticTrial(seed);
  };

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    store.Commit(SeedKey(scope, "sweep", 1, seed), "v=sweep1;runs=16;passes=16;failures=0");
  }
  ExpectOutcomesIdentical(SweepSchedules(kSeeds, counted, 1, options), clean);
  EXPECT_EQ(live_trials.load(), kSeeds);  // Every seed re-ran.
  EXPECT_EQ(store.hits(), 0);

  // Replace three seeds' records with a chaos pair: only those three re-run.
  for (const std::uint64_t seed : {1, 17, 40}) {
    store.Commit(SeedKey(scope, "sweep", 1, seed), EncodeChaosSeedPair(ChaosSeedPair{}));
  }
  live_trials = 0;
  ExpectOutcomesIdentical(SweepSchedules(kSeeds, counted, 1, options), clean);
  EXPECT_EQ(live_trials.load(), 3);

  live_trials = 0;
  ExpectOutcomesIdentical(SweepSchedules(kSeeds, counted, 1, options), clean);
  EXPECT_EQ(live_trials.load(), 0);
  RemoveStore(path);
}

// hits() counts only restores the engine accepted: a seed whose record fails to
// decode re-runs and is not a hit.
TEST(CheckpointResumeTest, UndecodablePayloadIsNotAHit) {
  const std::string path = TempPath("resume_undecodable.ckpt");
  RemoveStore(path);
  const std::string scope = "checkpoint_test/undecodable";
  const int kSeeds = 40;
  const SweepOutcome clean = SweepSchedules(kSeeds, SyntheticTrial, 1);
  ParallelOptions options;
  options.jobs = 2;
  options.checkpoint_scope = scope;
  {
    CheckpointStore store(path);
    options.checkpoint = &store;
    ExpectOutcomesIdentical(SweepSchedules(kSeeds, SyntheticTrial, 1, options), clean);
    store.Commit(SeedKey(scope, "sweep", 1, 7), "v=trial1;garbage");
  }
  CheckpointStore store(path);
  ASSERT_EQ(store.Load(), kSeeds);
  options.checkpoint = &store;
  std::atomic<int> live_trials{0};
  const SweepOutcome resumed = SweepSchedules(
      kSeeds,
      std::function<TrialReport(std::uint64_t)>([&](std::uint64_t seed) {
        ++live_trials;
        return SyntheticTrial(seed);
      }),
      1, options);
  ExpectOutcomesIdentical(resumed, clean);
  EXPECT_EQ(live_trials.load(), 1);  // Only the undecodable seed re-ran.
  EXPECT_EQ(store.hits(), kSeeds - 1);
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
    // Child: sweep slowly, checkpointing every seed, until the parent kills us.
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

  // Parent: wait for the log to carry at least one committed seed, then SIGKILL the
  // child mid-sweep.
  for (int i = 0; i < 2000; ++i) {
    std::ifstream f(path);
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

#endif  // SYNEVAL_HAVE_FORK && !SYNEVAL_SANITIZED

}  // namespace
}  // namespace syneval
