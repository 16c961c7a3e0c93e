#include "syneval/analysis/dpor.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/det_runtime.h"
#include "syneval/solutions/cases.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/dining_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/sync/semaphore.h"
#include "syneval/telemetry/postmortem.h"
#include "syneval/trace/recorder.h"

namespace syneval {

const char* DporVerdictName(DporVerdict verdict) {
  switch (verdict) {
    case DporVerdict::kProvedDeadlockFree:
      return "proved_deadlock_free";
    case DporVerdict::kCounterexample:
      return "counterexample";
    case DporVerdict::kBoundExceeded:
      return "bound_exceeded";
  }
  return "unknown";
}

namespace {

// Constructs the cell's solution and workload on the given runtime (a case body,
// solutions/cases.h). The returned oracle owns everything that must outlive the run
// and is checked on completed runs only.
using TrialBody = std::function<CaseOracle(DetRuntime&, TraceRecorder&)>;

DporRunner MakeRunner(TrialBody body) {
  return [body = std::move(body)](const std::vector<std::uint32_t>& prefix,
                                  const DporOptions& options) {
    DetRuntime::Options rt_options;
    rt_options.max_steps = options.max_steps;
    auto schedule = std::make_unique<GuidedSchedule>(prefix);
    GuidedSchedule* guided = schedule.get();
    DetRuntime runtime(std::move(schedule), rt_options);
    AnomalyDetector detector;
    runtime.AttachAnomalyDetector(&detector);
    // Sized so tiny DPOR workloads never evict (eviction would hole the footprints;
    // the explorer degrades to bound_exceeded if it ever happens).
    FlightRecorder::Options flight_options;
    flight_options.rings = 8;
    flight_options.events_per_ring = 2048;
    FlightRecorder flight(flight_options);
    runtime.AttachFlightRecorder(&flight);
    // Deliberately NOT bridged into the flight recorder: op-label trace events would
    // only add spurious footprint dependences.
    TraceRecorder trace;
    const CaseOracle oracle = body(runtime, trace);
    const DetRuntime::RunResult result = runtime.Run();

    DporRun run;
    run.decisions = guided->decisions();
    run.diverged = guided->diverged();
    run.events = flight.Snapshot();
    run.evicted = flight.evicted();
    run.completed = result.completed;
    run.deadlocked = result.deadlocked;
    run.step_limit = result.step_limit;
    run.steps = result.steps;
    run.report = result.report;
    run.anomalies = detector.counts().total();
    run.anomaly_report = detector.Report();
    if (result.completed && oracle) {
      run.oracle = oracle(trace.Events());
    }
    run.hb = AnalyzeHappensBefore(run.events, &flight);
    if (!result.completed) {
      const Postmortem postmortem = BuildPostmortem(flight, &detector);
      run.postmortem_cause = postmortem.cause;
      run.postmortem = postmortem.ToText();
    }
    return run;
  };
}

// ---------------------------------------------------------------------------------
// Seeded-bug primitives.
// ---------------------------------------------------------------------------------

// A deliberately broken bounded buffer: producers and consumers share ONE condition
// variable and signal with NotifyOne. The waits are proper while-loops, so the bug
// is not a missing retest: a consumer's NotifyOne after freeing a slot can be
// delivered to another consumer queued ahead of the blocked producer; the woken
// consumer finds the buffer empty and re-waits, the signal is consumed, and the
// system deadlocks with free space and items still to deposit — a stolen signal.
class StolenSignalBuffer : public BoundedBufferIface {
 public:
  StolenSignalBuffer(Runtime& runtime, int capacity)
      : capacity_(capacity), mu_(runtime.CreateMutex()), cv_(runtime.CreateCondVar()) {
    if (AnomalyDetector* det = runtime.anomaly_detector()) {
      const std::string name =
          det->RegisterResource(this, ResourceKind::kLock, "StolenSignalBuffer");
      det->RegisterResource(mu_.get(), ResourceKind::kLock, name + ".mu");
      det->RegisterResource(cv_.get(), ResourceKind::kCondition, name + ".cv");
    }
    if (FlightRecorder* flight = runtime.flight_recorder()) {
      const std::string name = flight->RegisterName(this, "StolenSignalBuffer");
      flight->RegisterName(mu_.get(), name + ".mu");
      flight->RegisterName(cv_.get(), name + ".cv");
    }
  }

  void Deposit(std::int64_t item, OpScope* scope) override {
    if (scope != nullptr) {
      scope->Arrived();
    }
    RtLock lock(*mu_);
    while (static_cast<int>(items_.size()) >= capacity_) {
      cv_->Wait(*mu_);
    }
    if (scope != nullptr) {
      scope->Entered();
    }
    items_.push_back(item);
    if (scope != nullptr) {
      scope->Exited();
    }
    cv_->NotifyOne();
  }

  std::int64_t Remove(OpScope* scope) override {
    if (scope != nullptr) {
      scope->Arrived();
    }
    RtLock lock(*mu_);
    while (items_.empty()) {
      cv_->Wait(*mu_);
    }
    if (scope != nullptr) {
      scope->Entered();
    }
    const std::int64_t item = items_.front();
    items_.pop_front();
    if (scope != nullptr) {
      scope->Exited(item);
    }
    cv_->NotifyOne();
    return item;
  }

  int capacity() const override { return capacity_; }

 private:
  const int capacity_;
  std::unique_ptr<RtMutex> mu_;
  std::unique_ptr<RtCondVar> cv_;
  std::deque<std::int64_t> items_;
};

// ---------------------------------------------------------------------------------
// The exploration tree.
// ---------------------------------------------------------------------------------

// Resources in footprints are identified by their first-appearance index in the
// run's flight-event stream, NOT by pointer. Pointers are only unique within one
// run: every guided execution allocates a fresh runtime and solution, so comparing
// a footprint captured in an earlier sibling run against the current run's by
// address would compare unrelated heap layouts (and drift with allocator state,
// making exploration nondeterministic). First-appearance indices are reproducible:
// replaying the same decision prefix replays the same event stream, so two runs
// sharing a prefix assign identical ids to every resource the prefix touches —
// exactly the cross-run comparisons sleep-set inheritance needs.
using ResourceId = std::uint32_t;

// One scheduling decision of a run, annotated for partial-order reasoning: the
// footprint is the set of resources the chosen thread's slice touched, and the
// transition clock `vc` encodes happens-before between slices (slice i happens
// before slice j iff vc_j[thread_i] >= thread_index_i).
struct Slice {
  std::uint32_t thread = 0;
  std::uint32_t thread_index = 0;  // 1-based count of this thread's slices so far.
  std::vector<ResourceId> footprint;  // Sorted, deduplicated.
  VectorClock vc;
};

bool FootprintsIntersect(const std::vector<ResourceId>& a,
                         const std::vector<ResourceId>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

// Groups flight events by scheduler step (DetRuntime stamps time_nanos = step*1000
// and a slice runs entirely at the step of the decision that granted it), then
// threads per-object clocks through the slices. Joining the clock of every object
// in the footprint captures all conservative dependence edges, including
// write-after-read chains, because the object clock always holds the last
// toucher's full clock.
std::vector<Slice> BuildSlices(const DporRun& run) {
  // Canonicalize resource pointers to first-appearance ids (see ResourceId above).
  // run.events is already in global recording-seq order.
  std::map<const void*, ResourceId> canonical;
  std::map<std::uint64_t, std::vector<ResourceId>> by_step;
  for (const FlightEvent& event : run.events) {
    const auto [it, inserted] = canonical.emplace(
        event.resource, static_cast<ResourceId>(canonical.size()));
    by_step[event.time_nanos / 1000].push_back(it->second);
  }
  std::vector<Slice> slices;
  slices.reserve(run.decisions.size());
  std::map<std::uint32_t, std::uint32_t> slice_count;
  std::map<ResourceId, VectorClock> object_clock;
  std::map<std::uint32_t, VectorClock> thread_clock;
  for (const GuidedSchedule::Decision& decision : run.decisions) {
    Slice slice;
    slice.thread = decision.chosen;
    slice.thread_index = ++slice_count[decision.chosen];
    auto it = by_step.find(decision.step);
    if (it != by_step.end()) {
      std::sort(it->second.begin(), it->second.end());
      it->second.erase(std::unique(it->second.begin(), it->second.end()),
                       it->second.end());
      slice.footprint = it->second;
    }
    VectorClock vc = thread_clock[slice.thread];
    for (const ResourceId object : slice.footprint) {
      vc.Join(object_clock[object]);
    }
    vc.Set(slice.thread, slice.thread_index);
    for (const ResourceId object : slice.footprint) {
      object_clock[object] = vc;
    }
    thread_clock[slice.thread] = vc;
    slice.vc = std::move(vc);
    slices.push_back(std::move(slice));
  }
  return slices;
}

// slices[i] happens-before slices[j]; call with i < j only.
bool SliceHb(const std::vector<Slice>& slices, std::size_t i, std::size_t j) {
  return slices[j].vc.Get(slices[i].thread) >= slices[i].thread_index;
}

// One node of the exploration tree: the state reached by the decision prefix above
// it. `backtrack` accumulates the source-set obligations discovered by race
// analysis; `explored` records finished choices with the footprint their first
// slice had (any sibling exploration starts from this same state, so the footprint
// is choice-invariant); `sleep` is the inherited sleep set — choices proved covered
// by an earlier sibling of an ancestor, skipped unless a dependent slice wakes them.
struct Node {
  std::vector<std::uint32_t> enabled;
  std::uint32_t chosen = 0;
  std::vector<ResourceId> footprint;  // Footprint of `chosen`'s slice, current run.
  std::set<std::uint32_t> backtrack;
  std::map<std::uint32_t, std::vector<ResourceId>> explored;
  std::map<std::uint32_t, std::vector<ResourceId>> sleep;
};

struct ExploreStats {
  std::uint64_t executions = 0;
  std::uint64_t redundant = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t certified_wakeups = 0;
  std::uint64_t hb_joins = 0;
  bool exhausted = false;  // Tree fully explored within the budget.
  std::string note;        // Degradation reason when neither exhausted nor failed.
  bool has_counterexample = false;
  DporCounterexample counterexample;
};

// Stateless exploration driver shared by the DPOR explorer (`reduced`) and the
// naive enumerator (backtrack = every enabled thread, no sleep sets, no race
// analysis). Returns on the first counterexample, on a degradation, on budget
// exhaustion, or with `exhausted` set once the (reduced) tree is fully visited.
ExploreStats Explore(const DporCell& cell, const DporOptions& options, bool reduced,
                     std::uint64_t budget) {
  ExploreStats stats;
  std::vector<Node> stack;
  std::vector<std::uint32_t> prefix;
  while (true) {
    if (stats.executions >= budget) {
      return stats;
    }
    const DporRun run = cell.run(prefix, options);
    ++stats.executions;

    if (run.diverged) {
      stats.note = "guided replay diverged from the recorded prefix";
      return stats;
    }
    if (run.evicted > 0) {
      stats.note = "flight recorder evicted events; footprints incomplete";
      return stats;
    }
    stats.transitions += run.decisions.size();
    stats.max_depth = std::max<std::uint64_t>(stats.max_depth, run.decisions.size());
    stats.certified_wakeups += run.hb.certified_wakeups;
    stats.hb_joins += run.hb.joins;

    // Judge the execution.
    std::string reason;
    std::string detail;
    if (run.deadlocked) {
      reason = "deadlock";
      detail = run.report;
    } else if (run.step_limit) {
      stats.note = "per-execution step budget exhausted";
      return stats;
    } else if (!run.hb.uncertified.empty()) {
      reason = "uncertified-wakeup";
      detail = run.hb.uncertified.front().detail;
    } else if (!run.hb.races.empty()) {
      reason = "client-race";
      detail = run.hb.races.front().detail;
    } else if (!run.oracle.empty()) {
      reason = "oracle";
      detail = run.oracle;
    }
    if (!reason.empty()) {
      stats.has_counterexample = true;
      stats.counterexample.reason = reason;
      stats.counterexample.detail = detail;
      stats.counterexample.prefix.clear();
      for (const GuidedSchedule::Decision& decision : run.decisions) {
        stats.counterexample.prefix.push_back(decision.chosen);
      }
      return stats;
    }

    const std::vector<Slice> slices = BuildSlices(run);
    const std::size_t depth = slices.size();

    // Retain the prefix nodes (deterministic replay makes them identical runs
    // apart), refreshing the footprint of the one whose choice changed.
    for (std::size_t d = 0; d < stack.size() && d < depth; ++d) {
      stack[d].footprint = slices[d].footprint;
    }
    bool redundant = false;
    for (std::size_t d = stack.size(); d < depth; ++d) {
      Node node;
      node.enabled = run.decisions[d].candidates;
      node.chosen = run.decisions[d].chosen;
      node.footprint = slices[d].footprint;
      node.backtrack.insert(node.chosen);
      if (!reduced) {
        for (const std::uint32_t thread : node.enabled) {
          node.backtrack.insert(thread);
        }
      } else if (d > 0) {
        // Sleep inheritance: a sibling-covered choice stays asleep while only
        // slices independent of it execute (its own next transition is unchanged,
        // so re-running it would revisit a covered trace).
        const Node& parent = stack[d - 1];
        auto inherit = [&node, &parent](
                           const std::map<std::uint32_t, std::vector<ResourceId>>&
                               source) {
          for (const auto& [thread, footprint] : source) {
            if (!FootprintsIntersect(footprint, parent.footprint)) {
              node.sleep[thread] = footprint;
            }
          }
        };
        inherit(parent.sleep);
        inherit(parent.explored);
      }
      if (reduced && node.sleep.count(node.chosen) != 0) {
        // The beyond-prefix fallback scheduler cannot consult sleep sets, so a run
        // can wander into a covered trace; it is counted, and its race analysis
        // below is still sound (it only adds backtrack obligations).
        redundant = true;
      }
      stack.push_back(std::move(node));
    }
    if (redundant) {
      ++stats.redundant;
    }

    if (reduced) {
      // Race analysis: for every reversible race (dependent slices of different
      // threads, adjacent in happens-before), plant a backtrack obligation at the
      // state before the first slice, choosing from the initials of the suffix
      // that is not ordered after it (source-set DPOR).
      for (std::size_t j = 0; j < depth; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
          if (slices[i].thread == slices[j].thread ||
              !FootprintsIntersect(slices[i].footprint, slices[j].footprint)) {
            continue;
          }
          bool immediate = true;
          for (std::size_t k = i + 1; k < j && immediate; ++k) {
            if (SliceHb(slices, i, k) && SliceHb(slices, k, j)) {
              immediate = false;
            }
          }
          if (!immediate) {
            continue;
          }
          // v = the slices between i and j not happens-after i, then j itself.
          std::vector<std::size_t> v;
          for (std::size_t k = i + 1; k < j; ++k) {
            if (!SliceHb(slices, i, k)) {
              v.push_back(k);
            }
          }
          v.push_back(j);
          // Initials of v: threads whose first slice in v has no happens-before
          // predecessor within v; each could run first at the state before i.
          std::set<std::uint32_t> initials;
          for (std::size_t x = 0; x < v.size(); ++x) {
            bool has_pred = false;
            for (std::size_t y = 0; y < x && !has_pred; ++y) {
              has_pred = SliceHb(slices, v[y], v[x]);
            }
            if (!has_pred) {
              initials.insert(slices[v[x]].thread);
            }
          }
          Node& node = stack[i];
          bool covered = false;
          for (const std::uint32_t thread : initials) {
            if (node.backtrack.count(thread) != 0) {
              covered = true;
              break;
            }
          }
          if (covered || initials.empty()) {
            continue;
          }
          const std::uint32_t preferred = slices[j].thread;
          const std::uint32_t add =
              initials.count(preferred) != 0 ? preferred : *initials.begin();
          if (std::find(node.enabled.begin(), node.enabled.end(), add) !=
              node.enabled.end()) {
            node.backtrack.insert(add);
          } else {
            // An initial the footprints could not prove enabled here (a dependence
            // edge invisible to the flight recorder, e.g. thread spawn): fall back
            // to a full persistent set at this node. Conservative, never unsound.
            for (const std::uint32_t thread : node.enabled) {
              node.backtrack.insert(thread);
            }
          }
        }
      }
    }

    // Advance: finish the deepest run, then backtrack to the deepest node with an
    // unexplored, non-sleeping obligation and re-run with its choice swapped in.
    bool advanced = false;
    while (!stack.empty()) {
      Node& node = stack.back();
      node.explored[node.chosen] = node.footprint;
      bool found = false;
      std::uint32_t next = 0;
      for (const std::uint32_t thread : node.backtrack) {
        if (node.explored.count(thread) == 0 && node.sleep.count(thread) == 0) {
          next = thread;
          found = true;
          break;
        }
      }
      if (found) {
        node.chosen = next;
        prefix.clear();
        prefix.reserve(stack.size());
        for (const Node& n : stack) {
          prefix.push_back(n.chosen);
        }
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) {
      stats.exhausted = true;
      return stats;
    }
  }
}

// ---------------------------------------------------------------------------------
// The cell catalog.
// ---------------------------------------------------------------------------------

void AddCell(std::vector<DporCell>& suite, Mechanism mechanism, std::string problem,
             std::string display, bool seeded_bug, TrialBody body) {
  DporCell cell;
  cell.mechanism = mechanism;
  cell.problem = std::move(problem);
  cell.display = std::move(display);
  cell.seeded_bug = seeded_bug;
  cell.run = MakeRunner(std::move(body));
  suite.push_back(std::move(cell));
}

// Workload bounds are deliberately tiny: DPOR is exhaustive, so the number of
// Mazurkiewicz traces — not seeds — is the budget. Each cell keeps at least two
// client threads per role so the interesting contention exists at all.
BufferWorkloadParams DporBufferParams() {
  BufferWorkloadParams params;
  params.producers = 1;
  params.consumers = 1;
  params.items_per_producer = 2;
  params.work = 1;
  return params;
}

RwWorkloadParams DporRwParams() {
  RwWorkloadParams params;
  // One reader, one writer. Adding a second reader makes the tree intractable
  // (> 500k Mazurkiewicz traces measured even with zero in-section work): every RW op
  // is TWO monitor regions (entry protocol + exit protocol), so three threads contend
  // on one mutex with four critical sections apiece — the combinatorial wall. Two
  // reader ops against one writer op still drives every wait/signal path of the
  // priority protocol; reader *concurrency* is covered by the randomized sweeps.
  params.readers = 1;
  params.writers = 1;
  params.ops_per_reader = 2;
  params.ops_per_writer = 1;
  params.read_work = 0;
  params.write_work = 0;
  params.think_work = 0;
  return params;
}

FcfsWorkloadParams DporFcfsParams(int ops_per_thread) {
  FcfsWorkloadParams params;
  params.threads = 2;
  params.ops_per_thread = ops_per_thread;
  params.hold_work = 1;
  params.think_work = 0;
  return params;
}

DiskWorkloadParams DporDiskParams() {
  DiskWorkloadParams params;
  params.requesters = 2;
  params.requests_per_thread = 1;
  params.tracks = 8;
  params.hold_work = 1;
  params.think_work = 0;
  return params;
}

DiningWorkloadParams DporDiningParams() {
  DiningWorkloadParams params;
  params.meals_per_philosopher = 1;
  params.eat_work = 1;
  params.think_work = 0;
  return params;
}

// Two threads incrementing an instrumented SharedCell, optionally under a binary
// semaphore. The guarded variant proves race-freedom through the HB engine's lock
// edges; the unguarded variant is the seeded client-race demonstration.
TrialBody CounterBody(bool guarded) {
  return [guarded](DetRuntime& runtime, TraceRecorder& trace) -> CaseOracle {
    (void)trace;
    constexpr int kThreads = 2;
    constexpr int kIncrementsPerThread = 2;
    auto counter = std::make_shared<SharedCell<std::int64_t>>(runtime, "counter");
    auto guard = guarded
                     ? std::make_shared<BinarySemaphore>(runtime, /*initially_open=*/true)
                     : nullptr;
    auto threads = std::make_shared<ThreadList>();
    for (int t = 0; t < kThreads; ++t) {
      threads->push_back(
          runtime.StartThread("inc" + std::to_string(t), [&runtime, counter, guard] {
            for (int i = 0; i < kIncrementsPerThread; ++i) {
              if (guard != nullptr) {
                guard->P();
              }
              const std::int64_t value = counter->Load();
              SpinWork(runtime, 1);
              counter->Store(value + 1);
              if (guard != nullptr) {
                guard->V();
              }
            }
          }));
    }
    return [counter, guard, threads](const std::vector<Event>&) {
      return counter->Peek() == kThreads * kIncrementsPerThread
                 ? std::string()
                 : std::string("lost update: counter != ") +
                       std::to_string(kThreads * kIncrementsPerThread);
    };
  };
}

// 1 producer x 2 items, 2 consumers x 1 item, capacity 1: the smallest shape where a
// consumer's wake-signal can be stolen by the other consumer while the producer is the
// thread that needed it.
CaseOracle StolenSignalBody(DetRuntime& runtime, TraceRecorder& trace) {
  BufferWorkloadParams params;
  params.producers = 1;
  params.consumers = 2;
  params.items_per_producer = 2;
  params.work = 0;
  return BoundedBufferCase<StolenSignalBuffer>(runtime, trace, params, 1);
}

}  // namespace

std::vector<DporCell> BuildDporSuite() {
  std::vector<DporCell> suite;
  AddCell(suite, Mechanism::kSemaphore, "bounded-buffer",
          "Split-semaphore bounded buffer (cap 1)", false,
          [](DetRuntime& rt, TraceRecorder& trace) {
            return BoundedBufferCase<SemaphoreBoundedBuffer>(rt, trace, DporBufferParams(), 1);
          });
  AddCell(suite, Mechanism::kMonitor, "bounded-buffer", "Monitor bounded buffer (cap 1)",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return BoundedBufferCase<MonitorBoundedBuffer>(rt, trace, DporBufferParams(), 1);
          });
  AddCell(suite, Mechanism::kSemaphore, "one-slot-buffer", "Semaphore one-slot buffer",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return OneSlotCase<SemaphoreOneSlotBuffer>(rt, trace, DporBufferParams());
          });
  AddCell(suite, Mechanism::kConditionalRegion, "one-slot-buffer", "CCR one-slot buffer",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return OneSlotCase<CcrOneSlotBuffer>(rt, trace, DporBufferParams());
          });
  AddCell(suite, Mechanism::kMonitor, "rw-readers-priority", "Monitor readers-priority",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return ReadersWritersCase<MonitorRwReadersPriority>(
                rt, trace, DporRwParams(), RwPolicy::kReadersPriority, RwStrictness::kStrict);
          });
  AddCell(suite, Mechanism::kSerializer, "rw-readers-priority",
          "Serializer readers-priority", false, [](DetRuntime& rt, TraceRecorder& trace) {
            return ReadersWritersCase<SerializerRwReadersPriority>(
                rt, trace, DporRwParams(), RwPolicy::kReadersPriority, RwStrictness::kStrict);
          });
  AddCell(suite, Mechanism::kSemaphore, "fcfs-resource", "FIFO-semaphore FCFS resource",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return FcfsCase<SemaphoreFcfsResource>(rt, trace, DporFcfsParams(2));
          });
  // The serializer's internal queue events make its tree an order of magnitude
  // bigger per op; one op per thread keeps it exhaustively provable.
  AddCell(suite, Mechanism::kSerializer, "fcfs-resource", "Serializer FCFS resource",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return FcfsCase<SerializerFcfsResource>(rt, trace, DporFcfsParams(1));
          });
  AddCell(suite, Mechanism::kMonitor, "disk-scan", "Monitor SCAN disk scheduler", false,
          [](DetRuntime& rt, TraceRecorder& trace) {
            return DiskCase<MonitorDiskScheduler>(rt, trace, DporDiskParams(), /*scan=*/true);
          });
  AddCell(suite, Mechanism::kSerializer, "disk-scan", "Serializer SCAN disk scheduler",
          false, [](DetRuntime& rt, TraceRecorder& trace) {
            return DiskCase<SerializerDiskScheduler>(rt, trace, DporDiskParams(),
                                                     /*scan=*/true);
          });
  AddCell(suite, Mechanism::kSemaphore, "dining", "Ordered-fork dining (2 seats)", false,
          [](DetRuntime& rt, TraceRecorder& trace) {
            return DiningCase<SemaphoreDiningOrdered>(rt, trace, DporDiningParams(), 2);
          });
  AddCell(suite, Mechanism::kMonitor, "dining", "Monitor dining (2 seats)", false,
          [](DetRuntime& rt, TraceRecorder& trace) {
            return DiningCase<MonitorDining>(rt, trace, DporDiningParams(), 2);
          });
  AddCell(suite, Mechanism::kSemaphore, "shared-counter", "Semaphore-guarded counter",
          false, CounterBody(/*guarded=*/true));

  // Seeded-bug demonstration cells: DPOR must find a counterexample for each.
  AddCell(suite, Mechanism::kSemaphore, "dining", "Naive dining (seeded deadlock)", true,
          [](DetRuntime& rt, TraceRecorder& trace) {
            return DiningCase<SemaphoreDiningNaive>(rt, trace, DporDiningParams(), 2);
          });
  AddCell(suite, Mechanism::kMonitor, "bounded-buffer",
          "Single-condvar buffer (seeded stolen signal)", true, StolenSignalBody);
  AddCell(suite, Mechanism::kSemaphore, "shared-counter",
          "Unguarded counter (seeded race)", true, CounterBody(/*guarded=*/false));
  return suite;
}

DporCellResult ExploreCell(const DporCell& cell, const DporOptions& options) {
  DporCellResult result;
  result.mechanism = cell.mechanism;
  result.problem = cell.problem;
  result.display = cell.display;
  result.seeded_bug = cell.seeded_bug;
  const ExploreStats stats =
      Explore(cell, options, /*reduced=*/true, options.max_executions);
  result.executions = stats.executions;
  result.redundant = stats.redundant;
  result.transitions = stats.transitions;
  result.max_depth = stats.max_depth;
  result.certified_wakeups = stats.certified_wakeups;
  result.hb_joins = stats.hb_joins;
  if (stats.has_counterexample) {
    result.verdict = DporVerdict::kCounterexample;
    result.has_counterexample = true;
    result.counterexample = stats.counterexample;
  } else if (stats.exhausted) {
    result.verdict = DporVerdict::kProvedDeadlockFree;
    if (options.run_naive_baseline) {
      // Budget the baseline so the ratio is meaningful even when DPOR needed more
      // runs than the default naive cap.
      const std::uint64_t naive_budget = std::max<std::uint64_t>(
          options.naive_max_executions, 2 * result.executions + 1);
      const ExploreStats naive = Explore(cell, options, /*reduced=*/false, naive_budget);
      result.naive_executions = naive.executions;
      result.naive_complete = naive.exhausted;
      if (result.executions > 0) {
        result.reduction_ratio =
            static_cast<double>(naive.executions) / static_cast<double>(result.executions);
      }
    }
  } else {
    result.verdict = DporVerdict::kBoundExceeded;
    result.note = stats.note.empty() ? "execution budget exhausted" : stats.note;
  }
  return result;
}

DporSuiteResult ExploreDporSuite(const std::vector<DporCell>& suite,
                                 const DporOptions& options,
                                 const ParallelOptions& parallel) {
  // One pool task per cell (seed i + 1 explores cell i); the engine returns the cell
  // results in suite order for any worker count. No codec: cells never checkpoint.
  SeedSweep<DporCellResult> sweep = SweepSeeds<DporCellResult>(
      static_cast<int>(suite.size()), /*base_seed=*/1, parallel,
      [&suite, &options](std::uint64_t seed) {
        return ExploreCell(suite[static_cast<std::size_t>(seed - 1)], options);
      });
  DporSuiteResult result;
  result.cells = std::move(sweep.results);
  result.jobs = sweep.jobs;
  result.wall_seconds = sweep.wall_seconds;
  result.workers = std::move(sweep.workers);
  return result;
}

DporReplay ReplayDporCounterexample(const DporCell& cell,
                                    const std::vector<std::uint32_t>& prefix,
                                    const DporOptions& options) {
  const DporRun run = cell.run(prefix, options);
  DporReplay replay;
  replay.completed = run.completed;
  replay.deadlocked = run.deadlocked;
  replay.diverged = run.diverged;
  replay.steps = run.steps;
  replay.anomalies = run.anomalies;
  replay.anomaly_report = run.anomaly_report;
  replay.postmortem_cause = run.postmortem_cause;
  replay.postmortem = run.postmortem;
  replay.oracle = run.oracle;
  replay.hb = run.hb;
  return replay;
}

}  // namespace syneval
