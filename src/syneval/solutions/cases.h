// The case catalogue: Bloom's footnote-2 test problems, applied the same way to every
// mechanism.
//
// One body per problem builds the solution under test on a runtime, spawns the
// problem's workload against it, and returns the oracle that judges the recorded trace.
// One table lists every (mechanism, problem) solution the conformance suite sweeps, at
// the conformance workload sizes. The chaos calibration picks its cases from that
// table by name, and the DPOR suite calls the same bodies with its own, smaller
// workloads and constructor arguments.
//
// Adding a solution to the evaluation is one table row (cases.cc); adding a problem is
// one body here plus its rows.

#ifndef SYNEVAL_SOLUTIONS_CASES_H_
#define SYNEVAL_SOLUTIONS_CASES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "syneval/problems/oracles.h"
#include "syneval/problems/virtual_disk.h"
#include "syneval/problems/workloads.h"
#include "syneval/runtime/runtime.h"
#include "syneval/solutions/solution_info.h"
#include "syneval/trace/event.h"
#include "syneval/trace/recorder.h"

namespace syneval {

// A problem instance built on a runtime: the oracle over the finished run's trace, ""
// when the run conforms. It owns the solution, the workload's threads and any
// auxiliary state, so it must outlive the run.
using CaseOracle = std::function<std::string(const std::vector<Event>& events)>;

namespace case_internal {

// What a built case keeps alive; the threads go before the solution they use.
template <typename Solution>
struct Instance {
  std::unique_ptr<Solution> solution;
  ThreadList threads;
};

// Completes a body. A server-process solution (one with Shutdown(): the CSP servers)
// also gets a terminator thread that joins the clients and then stops the server, so
// the run can complete.
template <typename Solution, typename Check>
CaseOracle Finish(Runtime& runtime, std::unique_ptr<Solution> solution, ThreadList threads,
                  Check check) {
  if constexpr (requires(Solution& server) { server.Shutdown(); }) {
    std::vector<RtThread*> clients;
    for (const auto& thread : threads) {
      clients.push_back(thread.get());
    }
    threads.push_back(runtime.StartThread("terminator", [server = solution.get(), clients] {
      for (RtThread* client : clients) {
        client->Join();
      }
      server->Shutdown();
    }));
  }
  auto instance = std::make_shared<Instance<Solution>>(
      Instance<Solution>{std::move(solution), std::move(threads)});
  return [instance, check](const std::vector<Event>& events) { return check(events); };
}

}  // namespace case_internal

// ---- One body per footnote-2 problem -----------------------------------------------
// Each builds Solution(runtime, ctor args...), spawns the problem's workload with
// `params`, recording into `trace`, and returns the problem's oracle.

template <typename Solution>
CaseOracle BoundedBufferCase(Runtime& runtime, TraceRecorder& trace,
                             const BufferWorkloadParams& params, int capacity) {
  auto buffer = std::make_unique<Solution>(runtime, capacity);
  ThreadList threads = SpawnBoundedBufferWorkload(runtime, *buffer, trace, params);
  return case_internal::Finish(runtime, std::move(buffer), std::move(threads),
                               [capacity](const std::vector<Event>& events) {
                                 return CheckBoundedBuffer(events, capacity);
                               });
}

template <typename Solution>
CaseOracle OneSlotCase(Runtime& runtime, TraceRecorder& trace,
                       const BufferWorkloadParams& params) {
  auto buffer = std::make_unique<Solution>(runtime);
  ThreadList threads = SpawnOneSlotBufferWorkload(runtime, *buffer, trace, params);
  return case_internal::Finish(runtime, std::move(buffer), std::move(threads),
                               CheckOneSlotBuffer);
}

template <typename Solution, typename... CtorArgs>
CaseOracle ReadersWritersCase(Runtime& runtime, TraceRecorder& trace,
                              const RwWorkloadParams& params, RwPolicy policy,
                              RwStrictness strictness, CtorArgs... ctor_args) {
  auto rw = std::make_unique<Solution>(runtime, ctor_args...);
  ThreadList threads = SpawnReadersWritersWorkload(runtime, *rw, trace, params);
  return case_internal::Finish(runtime, std::move(rw), std::move(threads),
                               [policy, strictness](const std::vector<Event>& events) {
                                 return CheckReadersWriters(events, policy, 8, strictness);
                               });
}

template <typename Solution, typename... CtorArgs>
CaseOracle FcfsCase(Runtime& runtime, TraceRecorder& trace, const FcfsWorkloadParams& params,
                    CtorArgs... ctor_args) {
  auto resource = std::make_unique<Solution>(runtime, ctor_args...);
  ThreadList threads = SpawnFcfsWorkload(runtime, *resource, trace, params);
  return case_internal::Finish(runtime, std::move(resource), std::move(threads),
                               CheckFcfsResource);
}

// The head starts at track 0. `scan` picks the SCAN oracle, else the FCFS one; either
// way a concurrent access seen by the virtual disk fails the run.
template <typename Solution>
CaseOracle DiskCase(Runtime& runtime, TraceRecorder& trace, const DiskWorkloadParams& params,
                    bool scan) {
  auto scheduler = std::make_unique<Solution>(runtime);
  auto disk = std::make_shared<VirtualDisk>(params.tracks, 0);
  ThreadList threads = SpawnDiskWorkload(runtime, *scheduler, *disk, trace, params);
  return case_internal::Finish(runtime, std::move(scheduler), std::move(threads),
                               [disk, scan](const std::vector<Event>& events) {
                                 if (disk->violations() != 0) {
                                   return std::string("virtual disk observed concurrent access");
                                 }
                                 return scan ? CheckScanDiskSchedule(events, 0)
                                             : CheckFcfsDiskSchedule(events);
                               });
}

template <typename Solution>
CaseOracle AlarmClockCase(Runtime& runtime, TraceRecorder& trace,
                          const AlarmWorkloadParams& params) {
  auto clock = std::make_unique<Solution>(runtime);
  ThreadList threads = SpawnAlarmClockWorkload(runtime, *clock, trace, params);
  return case_internal::Finish(runtime, std::move(clock), std::move(threads),
                               [](const std::vector<Event>& events) {
                                 return CheckAlarmClock(events, 0);
                               });
}

template <typename Solution>
CaseOracle SjnCase(Runtime& runtime, TraceRecorder& trace, const SjnWorkloadParams& params) {
  auto allocator = std::make_unique<Solution>(runtime);
  ThreadList threads = SpawnSjnWorkload(runtime, *allocator, trace, params);
  return case_internal::Finish(runtime, std::move(allocator), std::move(threads),
                               CheckSjnAllocator);
}

template <typename Solution>
CaseOracle SmokersCase(Runtime& runtime, TraceRecorder& trace,
                       const SmokersWorkloadParams& params) {
  auto table = std::make_unique<Solution>(runtime);
  ThreadList threads = SpawnSmokersWorkload(runtime, *table, trace, params);
  return case_internal::Finish(runtime, std::move(table), std::move(threads), CheckSmokers);
}

template <typename Solution>
CaseOracle DiningCase(Runtime& runtime, TraceRecorder& trace,
                      const DiningWorkloadParams& params, int seats) {
  auto table = std::make_unique<Solution>(runtime, seats);
  ThreadList threads = SpawnDiningWorkload(runtime, *table, trace, params);
  return case_internal::Finish(runtime, std::move(table), std::move(threads),
                               [seats](const std::vector<Event>& events) {
                                 return CheckDiningPhilosophers(events, seats);
                               });
}

// ---- The conformance table ---------------------------------------------------------

// Builds one catalogue case at the conformance workload sizes: the quick-test
// operation counts times `workload_scale`. Only the disk and smokers workloads take
// the schedule seed; every other workload keeps its default seed.
using CaseBody = CaseOracle (*)(Runtime& runtime, TraceRecorder& trace, std::uint64_t seed,
                                int workload_scale);

struct CaseEntry {
  Mechanism mechanism;
  const char* problem;  // Canonical problem id ("bounded-buffer", ...).
  const char* display;  // Human-readable solution name, unique per mechanism.
  // True when the paper predicts this solution violates its oracle on some schedules.
  bool expect_violations;
  // Null only for Figure 1, a directed scenario that forces the footnote-3
  // interleaving itself (core/conformance.h, RunFigure1AnomalyScenario).
  CaseBody body;
};

// Every conformance case, in suite order.
std::span<const CaseEntry> CaseCatalogue();

// The entry for (mechanism, display); nullptr when the table has none.
const CaseEntry* FindCase(Mechanism mechanism, std::string_view display);

}  // namespace syneval

#endif  // SYNEVAL_SOLUTIONS_CASES_H_
