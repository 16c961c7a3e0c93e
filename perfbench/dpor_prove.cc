// dpor_prove: ExploreCell on a fixed subset of BuildDporSuite(), pass after pass.
//
// The subset is the five proofs and three seeded bugs named in kSubset: one pass
// takes about 7 s on a 4-core machine, so a 20 s run holds several. The two
// readers-priority cells (about three quarters of the full suite's ~250 s) and the
// three monitor cells that take 4-10 s each are left out. Keeping the seeded bugs
// measures counterexample search and replay too.
// DPOR is exhaustive and deterministic: the seed only shuffles the order in which a
// pass visits the cells.
//
// End to end: throughput_per_s is cell verdicts per second (median over passes), and
// latency_p50_ms / latency_p99_ms are over the 8 cells' median verdict times (the
// time until every cell of a pass has its verdict is printed as verdict_wall_s). A
// change that needs fewer executions per verdict therefore never reads as a
// regression.
//
// Correctness: every verdict and DPOR (and naive-baseline) execution count equals
// its row in tests/golden/dpor_verdicts.json, which is only read, and every
// counterexample replays to the failure it claims.

#include <algorithm>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "syneval/analysis/dpor.h"

namespace perfbench {

namespace {

using namespace syneval;

constexpr const char* kGoldenPath = "tests/golden/dpor_verdicts.json";

constexpr const char* kSubset[] = {
    "Semaphore one-slot buffer",
    "CCR one-slot buffer",
    "FIFO-semaphore FCFS resource",
    "Serializer FCFS resource",
    "Ordered-fork dining (2 seats)",
    "Naive dining (seeded deadlock)",
    "Single-condvar buffer (seeded stolen signal)",
    "Unguarded counter (seeded race)",
};

// The subset in suite order; `small` keeps only the cells that take well under a
// second (the smoke run, and the probe away from home).
std::vector<DporCell> BuildSubset(bool small) {
  std::vector<DporCell> subset;
  for (DporCell& cell : BuildDporSuite()) {
    const bool listed = std::find(std::begin(kSubset), std::end(kSubset), cell.display) !=
                        std::end(kSubset);
    const bool quick = cell.display == "CCR one-slot buffer" ||
                       cell.display == "Ordered-fork dining (2 seats)" ||
                       cell.display == "Naive dining (seeded deadlock)" ||
                       cell.display == "Unguarded counter (seeded race)";
    if (listed && (!small || quick)) subset.push_back(std::move(cell));
  }
  return subset;
}

// "metric" → value rows of the golden's harness JSON, e.g.
// "dpor_executions/Monitor dining (2 seats)" → 3111.
std::map<std::string, double> ReadGolden(Result& result) {
  std::map<std::string, double> rows;
  std::ifstream in(kGoldenPath);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::string metric_key = "\"metric\":\"";
  const std::string value_key = "\",\"value\":";
  for (std::size_t at = json.find(metric_key); at != std::string::npos;
       at = json.find(metric_key, at + 1)) {
    const std::size_t name_start = at + metric_key.size();
    const std::size_t name_end = json.find(value_key, name_start);
    if (name_end == std::string::npos) break;
    rows[json.substr(name_start, name_end - name_start)] =
        std::strtod(json.c_str() + name_end + value_key.size(), nullptr);
  }
  result.Check(!rows.empty(), std::string("dpor_prove: cannot read ") + kGoldenPath);
  return rows;
}

bool ReplayConfirms(const std::string& reason, const DporReplay& replay) {
  if (replay.diverged) return false;
  if (reason == "deadlock") return replay.deadlocked && replay.anomalies >= 1;
  if (reason == "client-race") return !replay.hb.races.empty();
  if (reason == "uncertified-wakeup") return !replay.hb.uncertified.empty();
  if (reason == "oracle") return !replay.oracle.empty();
  return false;
}

// Compares one cell's verdict with the golden rows and replays its counterexample.
void CheckCell(const DporCell& cell, const DporCellResult& verdict,
               const std::map<std::string, double>& golden, Result& result) {
  const auto expect = [&](const std::string& metric, double actual) {
    const auto it = golden.find(metric + "/" + cell.display);
    result.Check(it != golden.end() && it->second == actual,
                 "dpor_prove: " + cell.display + " " + metric + " = " +
                     std::to_string(actual) + ", golden " +
                     (it == golden.end() ? std::string("missing")
                                         : std::to_string(it->second)));
  };
  expect("dpor_proved", verdict.verdict == DporVerdict::kProvedDeadlockFree ? 1 : 0);
  expect("dpor_counterexample", verdict.verdict == DporVerdict::kCounterexample ? 1 : 0);
  expect("dpor_executions", static_cast<double>(verdict.executions));
  if (!cell.seeded_bug) {
    expect("dpor_naive_executions", static_cast<double>(verdict.naive_executions));
  }
  if (verdict.has_counterexample) {
    const DporReplay replay = ReplayDporCounterexample(cell, verdict.counterexample.prefix);
    result.Check(ReplayConfirms(verdict.counterexample.reason, replay),
                 "dpor_prove: counterexample of " + cell.display + " does not replay");
  }
}

struct PassStats {
  double wall_s = 0;
  std::vector<double> cell_ms;           // In subset order.
  std::vector<DporCellResult> verdicts;  // In subset order.
};

// One pass over the subset in a seed-shuffled order; `wrap` may decorate each cell's
// runner (the traced variant), and `after_cell`, when given, runs after each cell
// outside the timed span (the set-up sampler).
PassStats Pass(const std::vector<DporCell>& subset, std::mt19937_64& rng,
               const std::function<DporCell(const DporCell&)>& wrap,
               const std::function<void()>& after_cell = nullptr) {
  std::vector<std::size_t> order(subset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  PassStats pass;
  pass.verdicts.resize(subset.size());
  pass.cell_ms.resize(subset.size());
  for (std::size_t index : order) {
    const Clock::time_point cell_start = Clock::now();
    pass.verdicts[index] = ExploreCell(wrap ? wrap(subset[index]) : subset[index]);
    pass.cell_ms[index] = SecondsSince(cell_start) * 1e3;
    pass.wall_s += pass.cell_ms[index] / 1e3;
    if (after_cell) after_cell();
  }
  return pass;
}

void CheckPass(const std::vector<DporCell>& subset, const PassStats& pass,
               const std::map<std::string, double>& golden, Result& result) {
  for (std::size_t i = 0; i < subset.size(); ++i) {
    CheckCell(subset[i], pass.verdicts[i], golden, result);
  }
}

}  // namespace

void RunDporProve(const Args& args, Result& result) {
  const ScopedCpus pin(1);
  SetupSampler setup([&] {
    Result scratch;
    (void)ReadGolden(scratch);
    (void)BuildSubset(args.smoke);
  });
  setup.Sample(10);
  const std::map<std::string, double> golden = ReadGolden(result);
  const std::vector<DporCell> subset = BuildSubset(args.smoke);
  std::mt19937_64 rng(args.seed);

  std::vector<PassStats> passes;
  std::vector<double> walls, pass_throughputs;
  double wall = 0;
  do {
    passes.push_back(Pass(subset, rng, nullptr, [&] { setup.Sample(3); }));
    walls.push_back(passes.back().wall_s);
    wall += passes.back().wall_s;
    pass_throughputs.push_back(static_cast<double>(subset.size()) / passes.back().wall_s);
  } while (wall + passes.back().wall_s <= args.seconds * 1.1);

  // Latency over the cells' median verdict times: the cells differ up to 10^4-fold, so
  // pooled samples would put the median in the gap between two cells.
  std::vector<double> cell_median_ms;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    std::vector<double> samples;
    for (const PassStats& pass : passes) samples.push_back(pass.cell_ms[i]);
    cell_median_ms.push_back(Median(samples));
  }
  SetEndToEnd(result, setup.MedianSeconds(), pass_throughputs, cell_median_ms);
  std::string pass_walls;
  for (double pass_wall : walls) pass_walls += " " + std::to_string(pass_wall);
  result.Note(std::to_string(passes.size()) + " passes over " + std::to_string(subset.size()) +
              " cells; verdict_wall_s median " + std::to_string(Median(walls)) + " s; passes:" +
              pass_walls);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    result.Note("cell " + subset[i].display + ": " +
                std::to_string(passes.front().verdicts[i].executions) + " executions, " +
                std::to_string(passes.front().cell_ms[i]) + " ms");
  }
  // Verdicts are checked once: every pass explores the same trees.
  CheckPass(subset, passes.front(), golden, result);
}

void ProbeDpor(const Args& args, bool home, double seconds, Result& result) {
  const ScopedCpus pin(1);
  const std::map<std::string, double> golden = ReadGolden(result);
  // Away from home, the smallest proof and the three seeded bugs.
  const std::vector<DporCell> subset = BuildSubset(args.smoke || !home);
  std::mt19937_64 rng(args.seed);

  // Runner spans: every guided execution (DPOR and naive baseline) is timed.
  double runner_s = 0;
  std::uint64_t runner_calls = 0;
  const auto wrap = [&](const DporCell& cell) {
    DporCell wrapped = cell;
    wrapped.run = [&, inner = cell.run](const std::vector<std::uint32_t>& prefix,
                                         const DporOptions& options) {
      const Clock::time_point start = Clock::now();
      DporRun run = inner(prefix, options);
      runner_s += SecondsSince(start);
      ++runner_calls;
      return run;
    };
    return wrapped;
  };

  std::vector<double> traced_wall, untraced_wall;
  PassStats traced;
  const Clock::time_point start = Clock::now();
  int passes = 0;
  double traced_total = 0;
  double ctx_switches = 0;
  do {
    const Usage before = ReadUsage();
    traced = Pass(subset, rng, wrap);
    ctx_switches += ReadUsage().ctx_switches - before.ctx_switches;
    traced_wall.push_back(traced.wall_s);
    traced_total += traced.wall_s;
    ++passes;
    if (home) untraced_wall.push_back(Pass(subset, rng, nullptr).wall_s);
  } while (home && SecondsSince(start) < seconds);
  CheckPass(subset, traced, golden, result);

  std::uint64_t executions = 0, naive = 0, transitions = 0, joins = 0, redundant = 0;
  for (const DporCellResult& verdict : traced.verdicts) {
    executions += verdict.executions;
    naive += verdict.naive_executions;
    transitions += verdict.transitions;
    joins += verdict.hb_joins;
    redundant += verdict.redundant;
  }
  result.Set("analysis.dpor.executions", static_cast<double>(executions), "count");
  result.Set("analysis.dpor.naive_executions", static_cast<double>(naive), "count");
  result.Set("analysis.dpor.transitions", static_cast<double>(transitions), "count");
  result.Set("analysis.hb.joins", static_cast<double>(joins), "count");
  result.Set("analysis.dpor.redundant_frac",
             static_cast<double>(redundant) / static_cast<double>(executions), "ratio");
  result.Set("analysis.dpor.runner_us_per_exec",
             runner_s * 1e6 / static_cast<double>(runner_calls), "us");
  result.Set("analysis.dpor.explorer_self_s", (traced_total - runner_s) / passes, "s");
  result.Set("proc.ctx_switches_per_exec", ctx_switches / static_cast<double>(runner_calls),
             "ratio");
  if (home) {
    result.Set("trace_overhead_frac", Median(traced_wall) / Median(untraced_wall) - 1.0,
               "ratio");
  }
  result.Note("dpor probe: " + std::to_string(passes) + " traced passes over " +
              std::to_string(subset.size()) + " cells, " + std::to_string(runner_calls) +
              " guided executions");
}

}  // namespace perfbench
