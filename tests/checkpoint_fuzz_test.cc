// Deterministic fuzzer for the checkpoint log loader and the two per-seed record
// codecs (runtime/checkpoint.h). No external engine: one fixed-seed std::mt19937_64
// drives every mutation, so any failure reproduces exactly from the test alone. The
// logs are built from real "trial1" and "chaospair2" records whose strings hold every
// character the escaping has to carry.
//
//   * Crash model — the failure the store is built to survive: a SIGKILL cuts the log
//     at an arbitrary byte. Every cut offset of a small log is tried; more commits are
//     appended, the log is cut again and reloaded, and every key must restore exactly
//     its own record or miss.
//   * Arbitrary bytes — bit flips, insertions, deletions and duplicated lines in the
//     log, and the same mutations applied to bare records. Load plus decode must not
//     crash; the ASan/UBSan CI cells run this file like every other test. A record
//     that still decodes must re-encode to a record that decodes to the same value.
//
// The whole file runs in well under 2 s in a RelWithDebInfo build.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "syneval/runtime/checkpoint.h"

namespace syneval {
namespace {

// Every character CheckpointEscape rewrites, plus the record and line separators and
// a few bytes outside ASCII.
const std::string kNasty = "\\ \n \r \t ; = , | \\n \\t \\\\ \xff\x01 end";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

std::string TrialRecord(int i) {
  TrialReport report;
  report.message = "seed " + std::to_string(i) + kNasty;
  report.anomalies.deadlocks = i;
  report.anomalies.starvations = -i;
  report.anomaly_report = kNasty + std::to_string(i);
  report.postmortem_cause = "deadlock";
  report.postmortem = std::string(static_cast<std::size_t>(8 * i), 'P') + kNasty;
  report.flight_evicted = 1000u + static_cast<std::uint64_t>(i);
  return EncodeTrialReport(report);
}

std::string ChaosRecord(int i) {
  ChaosSeedPair pair;
  pair.on.hung = true;
  pair.on.crashed = i % 2 == 0;
  pair.on.injected = i;
  pair.on.first_injection_step = 7;
  pair.on.steps = 300u + static_cast<std::uint64_t>(i);
  pair.on.report = kNasty;
  pair.on.postmortem_cause = "lost-signal";
  pair.on.postmortem = kNasty + std::string(static_cast<std::size_t>(4 * i), 'C');
  pair.off.completed = true;
  pair.off.steps = 200;
  return EncodeChaosSeedPair(pair);
}

// SeedKey → record for seeds 0 .. n-1, alternating the two codecs.
std::map<std::string, std::string> Records(int n) {
  std::map<std::string, std::string> records;
  for (int i = 0; i < n; ++i) {
    records[SeedKey("fuzz" + kNasty, i % 2 == 0 ? "sweep" : "chaos", 1,
                    static_cast<std::uint64_t>(i))] =
        i % 2 == 0 ? TrialRecord(i) : ChaosRecord(i);
  }
  return records;
}

// Decodes `record` with both codecs; whatever decodes must survive a re-encode.
void DecodeBoth(const std::string& record) {
  TrialReport report;
  if (DecodeTrialReport(record, &report)) {
    const std::string again = EncodeTrialReport(report);
    TrialReport back;
    ASSERT_TRUE(DecodeTrialReport(again, &back));
    EXPECT_EQ(EncodeTrialReport(back), again);
  }
  ChaosSeedPair pair;
  if (DecodeChaosSeedPair(record, &pair)) {
    const std::string again = EncodeChaosSeedPair(pair);
    ChaosSeedPair back;
    ASSERT_TRUE(DecodeChaosSeedPair(again, &back));
    EXPECT_EQ(EncodeChaosSeedPair(back), again);
  }
}

// Bytes the mutator prefers: the structure characters, which are where parsers break.
char InterestingByte(std::mt19937_64& rng) {
  static const char kBytes[] = {'\n', '\t', '\\', ';', '=', ',', '|', 'n', 't', '0', '\0'};
  if (rng() % 2 == 0) {
    return kBytes[rng() % sizeof(kBytes)];
  }
  return static_cast<char>(rng() % 256);
}

void Mutate(std::string& data, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 6);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = data.empty() ? 0 : rng() % (data.size() + 1);
    switch (rng() % 5) {
      case 0:  // Bit flip.
        if (at < data.size()) {
          data[at] = static_cast<char>(data[at] ^ (1 << (rng() % 8)));
        }
        break;
      case 1:  // Insertion.
        data.insert(at, 1, InterestingByte(rng));
        break;
      case 2:  // Deletion of a short run.
        if (at < data.size()) {
          data.erase(at, 1 + rng() % 16);
        }
        break;
      case 3: {  // Duplicate the line around `at` after itself.
        const std::size_t begin = data.rfind('\n', at == 0 ? 0 : at - 1);
        const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
        std::size_t end = data.find('\n', start);
        end = end == std::string::npos ? data.size() : end + 1;
        data.insert(end, data.substr(start, end - start));
        break;
      }
      default:  // Truncation.
        data.resize(at);
        break;
    }
  }
}

TEST(CheckpointFuzzTest, CrashCutsRestoreExactlyOrMiss) {
  const std::string path = testing::TempDir() + "/checkpoint_fuzz_crash.ckpt";
  std::mt19937_64 rng(20261019);
  const std::map<std::string, std::string> all = Records(6);
  std::vector<std::pair<std::string, std::string>> first(all.begin(), all.end());
  const auto later = first.begin() + 3;
  std::vector<std::pair<std::string, std::string>> second(later, first.end());
  first.erase(later, first.end());

  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    for (const auto& [key, record] : first) {
      store.Commit(key, record);
    }
  }
  const std::string log = ReadFile(path);
  int restored = 0;
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    WriteFile(path, log.substr(0, cut));
    {
      CheckpointStore store(path);
      store.Load();
      for (const auto& [key, record] : second) {
        store.Commit(key, record);
      }
      store.Commit(first.front().first, first.front().second);  // A re-run seed.
    }
    const std::string grown = ReadFile(path);
    WriteFile(path, grown.substr(0, rng() % (grown.size() + 1)));
    CheckpointStore store(path);
    store.Load();
    for (const auto& [key, record] : all) {
      std::string payload;
      if (store.Lookup(key, &payload)) {
        ASSERT_EQ(payload, record) << "cut at " << cut;
        ++restored;
      }
    }
  }
  // The model is not vacuous: most cuts leave records to restore.
  EXPECT_GT(restored, static_cast<int>(log.size()));
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, ArbitraryLogBytesNeverCrashLoadOrDecode) {
  const std::string path = testing::TempDir() + "/checkpoint_fuzz_bytes.ckpt";
  std::mt19937_64 rng(7);
  const std::map<std::string, std::string> all = Records(4);
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    for (const auto& [key, record] : all) {
      store.Commit(key, record);
    }
  }
  const std::string log = ReadFile(path);
  for (int round = 0; round < 1500; ++round) {
    std::string data = log;
    Mutate(data, rng);
    WriteFile(path, data);
    CheckpointStore store(path);
    const int loaded = store.Load();
    ASSERT_GE(loaded, 0);
    for (const auto& entry : all) {
      std::string payload;
      if (store.Lookup(entry.first, &payload)) {
        DecodeBoth(payload);
      }
    }
    // The loader cut the file back to what it read: a commit now reloads intact.
    store.Commit("after", "record");
    CheckpointStore reloaded(path);
    reloaded.Load();
    std::string payload;
    ASSERT_TRUE(reloaded.Lookup("after", &payload)) << "round " << round;
    EXPECT_EQ(payload, "record");
  }
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, ArbitraryRecordBytesNeverCrashDecode) {
  std::mt19937_64 rng(11);
  const std::map<std::string, std::string> all = Records(4);
  for (int round = 0; round < 20000; ++round) {
    auto it = all.begin();
    std::advance(it, static_cast<long>(rng() % all.size()));
    std::string record = it->second;
    Mutate(record, rng);
    DecodeBoth(record);
  }
}

}  // namespace
}  // namespace syneval
