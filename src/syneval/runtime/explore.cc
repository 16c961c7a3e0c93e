#include "syneval/runtime/explore.h"

#include <exception>
#include <iomanip>
#include <sstream>
#include <utility>

#include "syneval/fault/fault.h"
#include "syneval/runtime/parallel_sweep.h"

namespace syneval {

std::string SweepOutcome::Summary() const {
  std::ostringstream os;
  os << passes << "/" << runs << " schedules passed";
  if (failures > 0) {
    os << "; " << failures << " failed (first failing seed";
    if (!failing_seeds.empty()) {
      os << " " << failing_seeds.front();
    }
    os << ": " << first_failure << ")";
  }
  if (anomalies.total() > 0) {
    os << "; anomalies: " << anomalies.Summary();
    if (!first_anomaly.empty()) {
      os << " (first: " << first_anomaly << ")";
    }
  }
  return os.str();
}

std::string SweepOutcome::PostmortemDump() const {
  if (postmortems.empty()) {
    return "";
  }
  std::ostringstream os;
  os << "\n--- postmortems (" << postmortems_total << " total, " << postmortems.size()
     << " stored) ---";
  for (const SeedPostmortem& pm : postmortems) {
    os << "\nseed " << pm.seed << " [" << pm.cause << "]:\n" << pm.text;
  }
  return os.str();
}

namespace sweep_internal {

TrialReport RunTrial(const std::function<TrialReport(std::uint64_t)>& trial,
                     std::uint64_t seed) {
  // An aborting trial (an exception escaping the workload) must not desynchronize the
  // rate denominators: the seed still counts as a run and the abort as a failure, so
  // FailureRate() and AnomalyRate() stay fractions of the same `runs` total no matter
  // where in the sweep the abort happens.
  TrialReport report;
  try {
    report = trial(seed);
  } catch (const std::exception& error) {
    report.message = std::string("trial aborted: ") + error.what();
  } catch (...) {
    report.message = "trial aborted: unknown exception";
  }
  return report;
}

void AccumulateTrial(TrialReport report, std::uint64_t seed, SweepOutcome& outcome) {
  ++outcome.runs;
  if (report.Passed()) {
    ++outcome.passes;
  } else {
    ++outcome.failures;
    outcome.failing_seeds.push_back(seed);
    if (outcome.first_failure.empty()) {
      outcome.first_failure = std::move(report.message);
    }
  }
  if (!report.anomalies.Clean()) {
    outcome.anomalies += report.anomalies;
    outcome.anomalous_seeds.push_back(seed);
    if (outcome.first_anomaly.empty()) {
      std::ostringstream os;
      os << "seed " << seed << ": "
         << (report.anomaly_report.empty() ? report.anomalies.Summary()
                                           : report.anomaly_report);
      outcome.first_anomaly = os.str();
    }
  }
  if (!report.postmortem.empty()) {
    ++outcome.postmortems_total;
    if (static_cast<int>(outcome.postmortems.size()) < kMaxStoredPostmortems) {
      outcome.postmortems.push_back(
          SeedPostmortem{seed, report.postmortem_cause, std::move(report.postmortem)});
    }
  }
  outcome.flight_evicted += report.flight_evicted;
}

namespace {

// One chaos run with the run step's exception catch: a trial that throws is a crashed,
// hung run, keeping `runs` a common denominator.
ChaosTrialOutcome RunChaosTrial(
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    std::uint64_t seed, const FaultPlan* plan) {
  ChaosTrialOutcome out;
  try {
    out = trial(seed, plan);
  } catch (const std::exception& error) {
    out.report = std::string("trial aborted: ") + error.what();
    out.crashed = out.hung = true;
  } catch (...) {
    out.report = "trial aborted: unknown exception";
    out.crashed = out.hung = true;
  }
  return out;
}

}  // namespace

ChaosSeedPair RunChaosSeed(
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t seed) {
  ChaosSeedPair pair;
  pair.on = RunChaosTrial(trial, seed, &plan);
  pair.off = RunChaosTrial(trial, seed, nullptr);
  return pair;
}

void AccumulateChaosTrial(ChaosSeedPair pair, std::uint64_t seed,
                          ChaosSweepOutcome& outcome) {
  ChaosTrialOutcome& on = pair.on;
  // Fault-on run: measure recall over faults that actually fired and did harm.
  ++outcome.runs;
  if (!on.postmortem.empty()) {
    ++outcome.postmortems_total;
    if (static_cast<int>(outcome.postmortems.size()) < kMaxStoredPostmortems) {
      outcome.postmortems.push_back(
          SeedPostmortem{seed, on.postmortem_cause, std::move(on.postmortem)});
    }
  }
  if (on.anomalies > 0) {
    // Per-cause histogram over flagged fault-on runs: the recall gate requires every
    // cause named here to match the injected family (an empty-string key means a trial
    // was flagged yet produced no postmortem — also a gate failure).
    ++outcome.postmortem_causes[on.postmortem_cause];
  }
  if (on.injected > 0) {
    ++outcome.injected_runs;
    if (on.hung) {
      ++outcome.harmful;
      if (on.anomalies > 0) {
        ++outcome.detected_harmful;
        outcome.detection_steps_total +=
            on.steps > on.first_injection_step ? on.steps - on.first_injection_step : 0;
      } else {
        outcome.missed_seeds.push_back(seed);
      }
    } else if (on.oracle_failed) {
      ++outcome.corrupted;
    } else if (on.completed) {
      ++outcome.absorbed;
    }
  }

  // Matched fault-off run: the same schedule seed with no injector attached. Any
  // detector finding here is a false positive by construction.
  const ChaosTrialOutcome& off = pair.off;
  if (off.anomalies > 0) {
    ++outcome.clean_anomalies;
    outcome.fp_seeds.push_back(seed);
  }
  if (off.hung || off.oracle_failed) {
    ++outcome.clean_failures;
  }
  outcome.flight_evicted += on.flight_evicted + off.flight_evicted;
}

}  // namespace sweep_internal

SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<std::string(std::uint64_t)>& trial,
                            std::uint64_t base_seed, const ParallelOptions& parallel) {
  return SweepSchedules(
      num_seeds,
      [&trial](std::uint64_t seed) {
        TrialReport report;
        report.message = trial(seed);
        return report;
      },
      base_seed, parallel);
}

SweepOutcome SweepSchedules(int num_seeds,
                            const std::function<TrialReport(std::uint64_t)>& trial,
                            std::uint64_t base_seed, const ParallelOptions& parallel) {
  return ParallelSweepSchedules(num_seeds, trial, base_seed, parallel).outcome;
}

std::string ChaosSweepOutcome::Summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << injected_runs << "/" << runs << " fault-on runs injected; harmful " << harmful
     << ", detected " << detected_harmful;
  if (harmful > 0) {
    os << " (recall " << Recall() << ")";
  }
  os << "; absorbed " << absorbed;
  if (corrupted > 0) {
    os << "; corrupted " << corrupted;
  }
  os << "; fault-off anomalies " << clean_anomalies << "/" << runs;
  if (clean_failures > 0) {
    os << "; fault-off failures " << clean_failures;
  }
  if (detected_harmful > 0) {
    os << "; mean steps to detection " << MeanStepsToDetection();
  }
  if (skipped > 0) {
    os << "; skipped " << skipped << " (quarantine)";
  }
  return os.str();
}

ChaosSweepOutcome SweepChaos(
    int num_seeds,
    const std::function<ChaosTrialOutcome(std::uint64_t, const FaultPlan*)>& trial,
    const FaultPlan& plan, std::uint64_t base_seed, const ParallelOptions& parallel) {
  return ParallelSweepChaos(num_seeds, trial, plan, base_seed, parallel).outcome;
}

}  // namespace syneval
