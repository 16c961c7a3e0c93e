// The solution-matrix conformance sweep: every (mechanism, problem) solution is run
// under a set of deterministic schedules and checked against its oracle. Cases the
// paper predicts to violate their oracle (Figure 1; arbitrary-selection FCFS) must
// violate it; everything else must be clean.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "syneval/core/conformance.h"
#include "syneval/fault/chaos.h"
#include "syneval/solutions/cases.h"
#include "syneval/solutions/registry.h"

namespace syneval {
namespace {

constexpr int kSeeds = 12;

class ConformanceTest : public ::testing::TestWithParam<std::size_t> {};

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// CI sets SYNEVAL_POSTMORTEM_DIR so that an unexpected failure leaves its postmortems
// behind as JSON artifacts (one file per stored postmortem, named for exact replay via
// bench/syneval_postmortem) in addition to the assertion message. No-op locally.
void WritePostmortemArtifacts(std::size_t case_index, const ConformanceCase& spec,
                              const SweepOutcome& outcome) {
  const char* dir = std::getenv("SYNEVAL_POSTMORTEM_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  for (const SeedPostmortem& pm : outcome.postmortems) {
    const std::string path = std::string(dir) + "/conformance_case" +
                             std::to_string(case_index) + "_seed" +
                             std::to_string(pm.seed) + ".json";
    std::ofstream out(path);
    if (!out) {
      continue;
    }
    out << "{\"display\":\"" << JsonEscape(spec.display) << "\",\"problem\":\""
        << JsonEscape(spec.problem) << "\",\"mechanism\":\""
        << MechanismName(spec.mechanism) << "\",\"seed\":" << pm.seed
        << ",\"cause\":\"" << JsonEscape(pm.cause) << "\",\"text\":\""
        << JsonEscape(pm.text) << "\"}\n";
  }
}

TEST_P(ConformanceTest, SolutionBehavesAsPredicted) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(/*workload_scale=*/1);
  ASSERT_LT(GetParam(), suite.size());
  const ConformanceCase& conformance_case = suite[GetParam()];
  const ConformanceResult result = RunConformanceCase(conformance_case, kSeeds);
  if (conformance_case.expect_violations) {
    EXPECT_GT(result.outcome.failures, 0)
        << conformance_case.display << ": the paper predicts violations, none observed in "
        << kSeeds << " schedules";
  } else {
    // On an unexpected failure the sweep's stored flight-recorder postmortems are the
    // fastest route to a diagnosis; each carries the seed for exact replay via
    // bench/syneval_postmortem.
    if (result.outcome.failures != 0) {
      WritePostmortemArtifacts(GetParam(), conformance_case, result.outcome);
    }
    EXPECT_EQ(result.outcome.failures, 0)
        << conformance_case.display << ": " << result.outcome.Summary()
        << result.outcome.PostmortemDump();
  }
  // Ring autotuning: the grow-on-evict trial recorder (Options::ForTrial) must retain
  // every event of a default conformance sweep — an eviction here means a postmortem
  // window was silently truncated and the sizing heuristics need retuning.
  EXPECT_EQ(result.outcome.flight_evicted, 0u)
      << conformance_case.display << ": flight-ring evictions truncated postmortems";
}

std::string CaseName(const ::testing::TestParamInfo<std::size_t>& info) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  std::string name = std::string(MechanismName(suite[info.index].mechanism)) + "_" +
                     suite[info.index].problem;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  // Distinguish multiple cases of the same cell (e.g. two pathexpr readers-priority).
  name += "_" + std::to_string(info.index);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSolutions, ConformanceTest,
                         ::testing::Range<std::size_t>(0, BuildConformanceSuite(1).size()),
                         CaseName);

TEST(ConformanceSuiteTest, CoversEveryRegisteredMechanismProblemPair) {
  // Every solution in the registry should be exercised by at least one conformance case
  // (rw-fair and rw-fcfs are monitor/serializer-only, matching the registry).
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  int matched = 0;
  for (const SolutionInfo& info : AllSolutionInfos()) {
    for (const ConformanceCase& c : suite) {
      if (c.mechanism == info.mechanism && c.problem == info.problem) {
        ++matched;
        break;
      }
    }
  }
  // Semaphore rw-fcfs/rw-fair are intentionally absent from the registry; all present
  // registry entries must be covered.
  EXPECT_EQ(matched, static_cast<int>(AllSolutionInfos().size()));
}

TEST(CaseCatalogueTest, EveryEntryIsFoundByItsName) {
  const std::span<const CaseEntry> catalogue = CaseCatalogue();
  EXPECT_EQ(catalogue.size(), BuildConformanceSuite(1).size());
  for (const CaseEntry& entry : catalogue) {
    EXPECT_EQ(FindCase(entry.mechanism, entry.display), &entry)
        << entry.display << ": (mechanism, display) must be unique in the catalogue";
  }
  EXPECT_EQ(FindCase(Mechanism::kMonitor, "no such solution"), nullptr);
}

// The catalogue's invariant for the chaos calibration: every chaos case is a
// conformance case, and its fault-off run is that case's conformance trial — the same
// trace, event for event, and the same verdict — under the chaos step budget and ring
// cap.
TEST(CaseCatalogueTest, ChaosFaultOffRunsAreTheirConformanceTrials) {
  const std::vector<ConformanceCase> suite = BuildConformanceSuite(1);
  for (const ChaosCase& chaos_case : BuildChaosSuite(1)) {
    const ConformanceCase* match = nullptr;
    for (const ConformanceCase& c : suite) {
      if (c.mechanism == chaos_case.mechanism && c.problem == chaos_case.problem &&
          c.display == chaos_case.display) {
        match = &c;
      }
    }
    ASSERT_NE(match, nullptr) << chaos_case.display << " is not a conformance case";
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(chaos_case.display + " seed " + std::to_string(seed));
      const ChaosReplayResult chaos = chaos_case.replay(seed, /*plan=*/nullptr);
      const ConformanceReplay conformance = ReplayConformanceTrial(*match, seed);
      ASSERT_EQ(chaos.events.size(), conformance.events.size());
      for (std::size_t i = 0; i < chaos.events.size(); ++i) {
        const Event& a = chaos.events[i];
        const Event& b = conformance.events[i];
        ASSERT_TRUE(a.seq == b.seq && a.thread == b.thread && a.kind == b.kind &&
                    a.op == b.op && a.op_instance == b.op_instance && a.param == b.param &&
                    a.value == b.value)
            << "event " << i << ": chaos " << a.ToString() << " vs conformance "
            << b.ToString();
      }
      const bool chaos_passed = chaos.outcome.completed && !chaos.outcome.oracle_failed &&
                                chaos.outcome.anomalies == 0;
      EXPECT_EQ(chaos_passed, conformance.report.Passed()) << conformance.report.message;
    }
  }
}

}  // namespace
}  // namespace syneval
