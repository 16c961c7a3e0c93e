// os_mix: a closed loop of mechanism operations on OsRuntime.
//
// Each solution gets its own OsRuntime and instrumentation stack, so the metrics
// registry it reports into is scoped to that solution and its admission count can be
// checked exactly. The default stack is the one E7 measures: metrics registry plus
// flight recorder. One round issues a batch of every uncontended op (read, write,
// buffer round trip) in a seed-shuffled order, then a contended read phase on the
// semaphore, monitor and serializer solutions with one client thread per core.
//
// The uncontended ops run on one CPU (see ScopedCpus; the CSP servers' handoffs stay
// on that core) and the contended phase on every CPU.
//
// End to end: throughput_per_s is the median over rounds of 1e9 / (geometric mean of
// the round's per-op ns), so every op class weighs the same whatever its absolute
// cost; latency_p50_ms / latency_p99_ms are over the 19 op classes' median per-op
// latencies (the p99 is the slowest class, a CSP round trip). The contended phase is checked and printed but is not an end-to-end metric:
// with one client per core on a shared VM its latency spread by 59% (p50) and 207%
// (p99) between runs, far beyond any bound; it is reported per layer instead.
//
// Traced, the same code builds the instrumentation ladder: raw std primitives, bare
// OsRuntime, then one attachment at a time (metrics, flight recorder, anomaly
// detector, fault injector with an empty plan, tracer).

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "syneval/anomaly/detector.h"
#include "syneval/fault/fault.h"
#include "syneval/fault/injector.h"
#include "syneval/runtime/os_runtime.h"
#include "syneval/solutions/ccr_solutions.h"
#include "syneval/solutions/csp_solutions.h"
#include "syneval/solutions/monitor_solutions.h"
#include "syneval/solutions/pathexpr_solutions.h"
#include "syneval/solutions/semaphore_solutions.h"
#include "syneval/solutions/serializer_solutions.h"
#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/tracer.h"

namespace perfbench {

namespace {

using namespace syneval;

constexpr int kBufferCapacity = 16;

// Attachment levels of the ladder, cumulative.
enum Level : int {
  kBare = 0,
  kMetrics = 1,
  kFlight = 2,  // The default stack (E7's configuration).
  kDetector = 3,
  kInjector = 4,
  kTracer = 5,
};
constexpr const char* kRungNames[] = {"", "telemetry.metrics", "telemetry.flight_recorder",
                                      "anomaly.detector", "fault.injector",
                                      "telemetry.tracer"};

// One runtime with the attachments of `level`. Attachments are declared before the
// runtime so they outlive it.
struct Stack {
  explicit Stack(int level) {
    if (level >= kMetrics) rt.AttachMetrics(&registry);
    if (level >= kFlight) rt.AttachFlightRecorder(&flight);
    if (level >= kDetector) rt.AttachAnomalyDetector(&detector);
    if (level >= kInjector) rt.AttachFaultInjector(&injector);
    if (level >= kTracer) rt.AttachTracer(&tracer);
  }
  MetricsRegistry registry;
  FlightRecorder flight;
  AnomalyDetector detector;
  FaultInjector injector{FaultPlan{}};
  TelemetryTracer tracer;
  OsRuntime rt;
};

// One solution on its own stack. The solution is declared after the stack so it is
// destroyed first (CSP servers join before their runtime goes).
struct Cell {
  std::string prefix;  // "<module>.<solution>"
  std::unique_ptr<Stack> stack;
  std::unique_ptr<ReadersWritersIface> rw;
  std::unique_ptr<BoundedBufferIface> buffer;
};

struct Op {
  std::string name;  // "<module>.<solution>.<op>"
  int cell = 0;
  bool is_read = false;
  int batch_divisor = 1;  // Batch = MixShape::batch / batch_divisor.
};

struct CspRwReadersPriority : CspReadersWriters {
  explicit CspRwReadersPriority(Runtime& rt)
      : CspReadersWriters(rt, CspReadersWriters::Policy::kReadersPriority) {}
};

template <typename T>
std::unique_ptr<ReadersWritersIface> MakeRw(Runtime& rt) {
  return std::make_unique<T>(rt);
}
template <typename T>
std::unique_ptr<BoundedBufferIface> MakeBuffer(Runtime& rt) {
  return std::make_unique<T>(rt, kBufferCapacity);
}

struct CellSpec {
  const char* prefix;
  std::unique_ptr<ReadersWritersIface> (*rw)(Runtime&);
  std::unique_ptr<BoundedBufferIface> (*buffer)(Runtime&);
  bool write = true;
  // CSP ops are thread handoffs to a server, ~50x a local op: smaller batches keep
  // every op's batch near the same duration, so a round stays short.
  int batch_divisor = 1;
};

// The E7 op set: seven readers/writers solutions and six bounded buffers.
const std::vector<CellSpec>& CellSpecs() {
  static const std::vector<CellSpec> specs = {
      {"sync.semaphore", MakeRw<SemaphoreRwReadersPriority>, nullptr},
      {"monitor.hoare", MakeRw<MonitorRwReadersPriority>, nullptr},
      {"pathexpr.fig1", MakeRw<PathExprRwFigure1>, nullptr},
      {"pathexpr.predicates", MakeRw<PathExprRwPredicates>, nullptr, false},
      {"serializer.ah79", MakeRw<SerializerRwReadersPriority>, nullptr},
      {"ccr.region", MakeRw<CcrRwReadersPriority>, nullptr},
      {"channel.csp", MakeRw<CspRwReadersPriority>, nullptr, true, 20},
      {"sync.semaphore", nullptr, MakeBuffer<SemaphoreBoundedBuffer>},
      {"monitor.hoare", nullptr, MakeBuffer<MonitorBoundedBuffer>},
      {"pathexpr.ch74", nullptr, MakeBuffer<PathBoundedBuffer>},
      {"serializer.ah79", nullptr, MakeBuffer<SerializerBoundedBuffer>},
      {"ccr.region", nullptr, MakeBuffer<CcrBoundedBuffer>},
      {"channel.csp", nullptr, MakeBuffer<CspBoundedBuffer>, true, 20},
  };
  return specs;
}

// Contended reads run on these cells (index into CellSpecs) under these names.
constexpr int kContendedCells[] = {0, 1, 4};
constexpr const char* kContendedModules[] = {"sync", "monitor", "serializer"};
constexpr const char* kContendedMechanisms[] = {"semaphore", "hoare_monitor", "serializer"};

Cell BuildCell(const CellSpec& spec, int level) {
  Cell cell;
  cell.prefix = spec.prefix;
  cell.stack = std::make_unique<Stack>(level);
  if (spec.rw != nullptr) cell.rw = spec.rw(cell.stack->rt);
  if (spec.buffer != nullptr) cell.buffer = spec.buffer(cell.stack->rt);
  return cell;
}

std::vector<Cell> BuildCells(int level) {
  std::vector<Cell> cells;
  for (const CellSpec& spec : CellSpecs()) {
    cells.push_back(BuildCell(spec, level));
  }
  return cells;
}

std::vector<Op> BuildOps() {
  std::vector<Op> ops;
  const std::vector<CellSpec>& specs = CellSpecs();
  for (int i = 0; i < static_cast<int>(specs.size()); ++i) {
    const std::string prefix = specs[i].prefix;
    const int divisor = specs[i].batch_divisor;
    if (specs[i].rw != nullptr) {
      ops.push_back({prefix + ".read", i, true, divisor});
      if (specs[i].write) ops.push_back({prefix + ".write", i, false, divisor});
    } else {
      ops.push_back({prefix + ".buffer_round_trip", i, false, divisor});
    }
  }
  return ops;
}

// Runs `op` `n` times. Returns the number of buffer round trips that did not return
// the value they deposited (0 for reads and writes).
int RunOp(Cell& cell, const Op& op, int n, std::int64_t value_base) {
  int mismatches = 0;
  if (cell.buffer != nullptr) {
    for (int i = 0; i < n; ++i) {
      const std::int64_t value = value_base + i;
      cell.buffer->Deposit(value, nullptr);
      mismatches += cell.buffer->Remove(nullptr) != value ? 1 : 0;
    }
  } else if (op.is_read) {
    for (int i = 0; i < n; ++i) cell.rw->Read([] {}, nullptr);
  } else {
    for (int i = 0; i < n; ++i) cell.rw->Write([] {}, nullptr);
  }
  return mismatches;
}

std::uint64_t TotalAdmissions(const MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const std::string& name : registry.MechanismNames()) {
    if (const MechanismStats* stats = registry.FindMechanism(name)) {
      total += stats->admissions.Value();
    }
  }
  return total;
}

// Admissions one op adds to its solution's registry (`per_op`), and the admissions
// that building and tearing the solution down adds once (`fixed`), found by issuing
// the op once and three times on fresh cells.
struct AdmissionModel {
  std::int64_t per_op = 0;
  std::int64_t fixed = 0;
};

AdmissionModel CalibrateAdmissions(const Op& op) {
  std::int64_t counts[2] = {0, 0};
  const int sizes[2] = {1, 3};
  for (int k = 0; k < 2; ++k) {
    Cell cell = BuildCell(CellSpecs()[op.cell], kFlight);
    RunOp(cell, op, sizes[k], 0);
    cell.rw.reset();
    cell.buffer.reset();
    counts[k] = static_cast<std::int64_t>(TotalAdmissions(cell.stack->registry));
  }
  AdmissionModel model;
  model.per_op = (counts[1] - counts[0]) / 2;
  model.fixed = counts[0] - model.per_op;
  return model;
}

// Contended read: `threads` runtime threads each issue `reads` reads. Returns the
// wall seconds of the phase.
double ContendedReads(Cell& cell, int threads, int reads) {
  const Clock::time_point start = Clock::now();
  std::vector<std::unique_ptr<RtThread>> clients;
  for (int t = 0; t < threads; ++t) {
    clients.push_back(cell.stack->rt.StartThread("client", [&cell, reads] {
      for (int i = 0; i < reads; ++i) cell.rw->Read([] {}, nullptr);
    }));
  }
  for (auto& client : clients) client->Join();
  return SecondsSince(start);
}

int ClientThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 8u));
}

// Fresh default-stack cells for the contended phase, in kContendedCells order. They
// are kept apart from the uncontended cells because how many admissions a read costs
// depends on overlap under contention (a semaphore reader that finds another reader
// inside skips the writers' semaphore), while uncontended it is a constant.
std::vector<Cell> BuildContendedCells() {
  std::vector<Cell> cells;
  for (int index : kContendedCells) cells.push_back(BuildCell(CellSpecs()[index], kFlight));
  return cells;
}

// The measured mix: per round, every op once as a timed batch (seed-shuffled order),
// then, when `contended` is given, the contended phase on its cells.
struct MixRun {
  std::vector<std::vector<double>> op_ns;         // [op] → per-round ns/op samples.
  std::vector<std::int64_t> op_count;             // [op] → ops issued.
  std::vector<std::vector<double>> contended_ns;  // [contended cell] → ns/op per round.
  std::int64_t contended_reads = 0;               // Per contended cell.
  int mismatches = 0;
  int rounds = 0;
};

struct MixShape {
  int batch = 2000;            // Uncontended ops per op per round.
  int contended_reads = 200;   // Reads per client thread per contended cell per round.
  bool per_op_spans = false;   // Time every op on its own (the traced variant).
};

void RunMix(std::vector<Cell>& cells, std::vector<Cell>* contended, const std::vector<Op>& ops,
            const MixShape& shape, std::mt19937_64& rng, double seconds, int max_rounds,
            MixRun& run) {
  run.op_ns.resize(ops.size());
  run.op_count.resize(ops.size(), 0);
  run.contended_ns.resize(std::size(kContendedCells));
  std::vector<int> order(ops.size());
  for (int i = 0; i < static_cast<int>(order.size()); ++i) order[i] = i;
  const int threads = ClientThreads();
  const Clock::time_point start = Clock::now();
  while (run.rounds < max_rounds && (run.rounds == 0 || SecondsSince(start) < seconds)) {
    std::shuffle(order.begin(), order.end(), rng);
    for (int index : order) {
      const Op& op = ops[index];
      Cell& cell = cells[op.cell];
      const std::int64_t base = static_cast<std::int64_t>(rng() >> 16);
      const int batch = std::max(1, shape.batch / op.batch_divisor);
      double elapsed = 0;
      if (shape.per_op_spans) {
        for (int i = 0; i < batch; ++i) {
          const Clock::time_point t0 = Clock::now();
          run.mismatches += RunOp(cell, op, 1, base + i);
          elapsed += SecondsSince(t0);
        }
      } else {
        const Clock::time_point t0 = Clock::now();
        run.mismatches += RunOp(cell, op, batch, base);
        elapsed = SecondsSince(t0);
      }
      run.op_ns[index].push_back(elapsed * 1e9 / batch);
      run.op_count[index] += batch;
    }
    if (contended != nullptr) {
      const ScopedCpus all(0);
      for (std::size_t c = 0; c < contended->size(); ++c) {
        const double wall = ContendedReads((*contended)[c], threads, shape.contended_reads);
        run.contended_ns[c].push_back(wall * 1e9 / (threads * shape.contended_reads));
      }
      run.contended_reads += static_cast<std::int64_t>(threads) * shape.contended_reads;
    }
    ++run.rounds;
  }
}

double GeomeanOfMedians(const std::vector<std::vector<double>>& samples) {
  std::vector<double> medians;
  for (const auto& per_op : samples) medians.push_back(Median(per_op));
  return Geomean(medians);
}

// Checks the end-of-run invariants of a mix on default-stack cells: every round trip
// returned its value; every uncontended solution's registry admitted exactly the ops
// issued (times the op's constant admissions, see AdmissionModel); and every
// contended read was admitted at least once and at most as often as uncontended.
void CheckMix(std::vector<Cell>& cells, std::vector<Cell>& contended, const std::vector<Op>& ops,
              const MixRun& run, Result& result) {
  std::int64_t round_trips = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (cells[ops[i].cell].buffer != nullptr) round_trips += run.op_count[i];
  }
  result.Check(run.mismatches == 0,
               "os_mix: " + std::to_string(run.mismatches) + " of " +
                   std::to_string(round_trips) +
                   " buffer round trips returned another value than deposited");

  std::vector<std::int64_t> expected(cells.size(), 0);
  std::vector<std::int64_t> fixed(cells.size(), -1);
  std::vector<AdmissionModel> read_model(cells.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const AdmissionModel model = CalibrateAdmissions(ops[i]);
    const int c = ops[i].cell;
    result.Check(model.per_op >= 1 && (fixed[c] < 0 || fixed[c] == model.fixed),
                 "os_mix: admission model of " + ops[i].name + " is inconsistent");
    fixed[c] = model.fixed;
    expected[c] += model.per_op * run.op_count[i];
    if (ops[i].is_read) read_model[c] = model;
  }
  const auto admitted = [](Cell& cell) {
    cell.rw.reset();
    cell.buffer.reset();
    return static_cast<std::int64_t>(TotalAdmissions(cell.stack->registry));
  };
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::int64_t actual = admitted(cells[c]);
    result.Check(actual == expected[c] + fixed[c],
                 "os_mix: " + cells[c].prefix + " registry admitted " +
                     std::to_string(actual) + ", expected " +
                     std::to_string(expected[c] + fixed[c]));
  }
  for (std::size_t c = 0; c < contended.size(); ++c) {
    const AdmissionModel& model = read_model[kContendedCells[c]];
    const std::int64_t reads = admitted(contended[c]) - model.fixed;
    result.Check(reads >= run.contended_reads && reads <= model.per_op * run.contended_reads,
                 "os_mix: contended " + contended[c].prefix + " admitted " +
                     std::to_string(reads) + " for " + std::to_string(run.contended_reads) +
                     " reads");
  }
}

// --- the ladder's bottom rungs: raw std primitives and bare RtMutex/RtCondVar ---

template <typename Mutex>
double MutexRoundTripNs(Mutex& mutex, int n) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < n; ++i) {
    mutex.lock();
    mutex.unlock();
  }
  return SecondsSince(start) * 1e9 / n;
}

// Ping-pong between two threads over one mutex and condition variable: each
// handoff is one signal and one wait. Returns ns per handoff.
double StdSignalWaitNs(int round_trips) {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  const Clock::time_point start = Clock::now();
  std::thread partner([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < round_trips; ++i) {
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < round_trips; ++i) {
      turn = 1;
      cv.notify_one();
      cv.wait(lock, [&] { return turn == 0; });
    }
  }
  partner.join();
  return SecondsSince(start) * 1e9 / (2.0 * round_trips);
}

double RuntimeSignalWaitNs(Runtime& rt, int round_trips) {
  std::unique_ptr<RtMutex> mu = rt.CreateMutex();
  std::unique_ptr<RtCondVar> cv = rt.CreateCondVar();
  int turn = 0;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<RtThread> partner = rt.StartThread("partner", [&] {
    RtLock lock(*mu);
    for (int i = 0; i < round_trips; ++i) {
      while (turn != 1) cv->Wait(*mu);
      turn = 0;
      cv->NotifyOne();
    }
  });
  {
    RtLock lock(*mu);
    for (int i = 0; i < round_trips; ++i) {
      turn = 1;
      cv->NotifyOne();
      while (turn != 0) cv->Wait(*mu);
    }
  }
  partner->Join();
  return SecondsSince(start) * 1e9 / (2.0 * round_trips);
}

struct ProbeShape {
  int batch;
  int contended_reads;
  int rounds;
  int mutex_iters;
  int signal_round_trips;
};
constexpr int kContendedProbeReps = 5;

}  // namespace

void RunOsMix(const Args& args, Result& result) {
  const ScopedCpus pin(1);
  const std::vector<Op> ops = BuildOps();
  // Sampled before and after the loop only: rebuilding 16 stacks, CSP server threads
  // included, between rounds disturbed the rounds after it (throughput spread 2.6% ->
  // 12%).
  SetupSampler setup([] {
    (void)BuildCells(kFlight);
    (void)BuildContendedCells();
  });
  setup.Sample(50);
  std::vector<Cell> cells = BuildCells(kFlight);
  std::vector<Cell> contended = BuildContendedCells();
  std::mt19937_64 rng(args.seed);
  MixShape shape;
  if (args.smoke) shape = {200, 200, false};

  const Clock::time_point start = Clock::now();
  MixRun run;
  RunMix(cells, &contended, ops, shape, rng, args.seconds, 1 << 30, run);
  const double wall = SecondsSince(start);
  setup.Sample(51);

  const double geomean_ns = GeomeanOfMedians(run.op_ns);
  std::vector<double> round_throughputs;
  for (int r = 0; r < run.rounds; ++r) {
    std::vector<double> round_ns;
    for (const auto& per_op : run.op_ns) round_ns.push_back(per_op[r]);
    round_throughputs.push_back(1e9 / Geomean(round_ns));
  }
  std::vector<double> class_latency_ms;
  for (const auto& per_op : run.op_ns) class_latency_ms.push_back(Median(per_op) * 1e-6);
  SetEndToEnd(result, setup.MedianSeconds(), round_throughputs, class_latency_ms);
  result.Note("rounds: " + std::to_string(run.rounds) + " in " + std::to_string(wall) +
              " s; uncontended geomean " + std::to_string(geomean_ns) + " ns/op over " +
              std::to_string(ops.size()) + " ops; " + std::to_string(ClientThreads()) +
              " client threads in the contended phase");
  std::vector<double> contended_ns;
  for (const auto& per_cell : run.contended_ns) contended_ns.push_back(Median(per_cell));
  result.Note("contended reads: geomean " + std::to_string(Geomean(contended_ns)) +
              " ns/op wall, i.e. " + std::to_string(1e9 / Geomean(contended_ns)) + " ops/s");
  CheckMix(cells, contended, ops, run, result);
}

void ProbeOsLayers(const Args& args, bool home, double seconds, Result& result) {
  const ScopedCpus pin(1);
  const ProbeShape shape = home && !args.smoke ? ProbeShape{1000, 1000, 1 << 30, 200000, 5000}
                                               : ProbeShape{200, 200, 2, 20000, 500};
  const std::vector<Op> ops = BuildOps();
  std::mt19937_64 rng(args.seed ^ 0x1add3e);

  // Floor rungs.
  std::vector<double> std_mutex, std_signal, os_mutex, os_signal;
  // Ladder rungs: one cell set per attachment level, measured in interleaved rounds
  // so slow drift of the machine lands on every rung alike.
  std::vector<std::vector<Cell>> ladder;
  for (int level = kBare; level <= kTracer; ++level) ladder.push_back(BuildCells(level));
  std::vector<MixRun> runs(ladder.size());
  MixRun spans;  // Default stack with a span around every op, for the tracing cost.
  const MixShape ladder_shape{shape.batch, 0, false};
  const MixShape span_shape{shape.batch, 0, true};
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  while (rounds < shape.rounds && (rounds == 0 || SecondsSince(start) < seconds)) {
    std::mutex mu;
    std_mutex.push_back(MutexRoundTripNs(mu, shape.mutex_iters));
    std_signal.push_back(StdSignalWaitNs(shape.signal_round_trips));
    OsRuntime bare;
    std::unique_ptr<RtMutex> rt_mu = bare.CreateMutex();
    os_mutex.push_back(MutexRoundTripNs(*rt_mu, shape.mutex_iters));
    os_signal.push_back(RuntimeSignalWaitNs(bare, shape.signal_round_trips));
    for (std::size_t level = 0; level < ladder.size(); ++level) {
      RunMix(ladder[level], nullptr, ops, ladder_shape, rng, 0, runs[level].rounds + 1,
             runs[level]);
      for (Cell& cell : ladder[level]) cell.stack->tracer.Clear();
    }
    RunMix(ladder[kFlight], nullptr, ops, span_shape, rng, 0, spans.rounds + 1, spans);
    ++rounds;
  }
  result.Set("std.mutex_roundtrip_ns", Median(std_mutex), "ns");
  result.Set("std.signal_wait_ns", Median(std_signal), "ns");
  result.Set("runtime.os.mutex_roundtrip_ns", Median(os_mutex), "ns");
  result.Set("runtime.os.signal_wait_ns", Median(os_signal), "ns");
  for (int level = kMetrics; level <= kTracer; ++level) {
    result.Set(std::string(kRungNames[level]) + ".delta_ns",
               GeomeanOfMedians(runs[level].op_ns) - GeomeanOfMedians(runs[level - 1].op_ns),
               "ns");
  }
  result.Set("runtime.os.op_set_geomean_ns", GeomeanOfMedians(runs[kBare].op_ns), "ns");

  // Mechanism rows: the default stack.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    result.Set(ops[i].name + "_ns", Median(runs[kFlight].op_ns[i]), "ns");
  }
  std::uint64_t recorded = 0, evicted = 0;
  for (Cell& cell : ladder[kFlight]) {
    recorded += cell.stack->flight.recorded();
    evicted += cell.stack->flight.evicted();
  }
  result.Set("telemetry.flight_recorder.evicted_frac",
             recorded == 0 ? 0.0 : static_cast<double>(evicted) / static_cast<double>(recorded),
             "ratio");

  // Contended reads on fresh default-stack cells, so the registry counters are this
  // phase's alone.
  const ScopedCpus all(0);
  const int threads = ClientThreads();
  for (std::size_t c = 0; c < std::size(kContendedCells); ++c) {
    Cell cell = BuildCell(CellSpecs()[kContendedCells[c]], kFlight);
    std::vector<double> per_op;
    for (int r = 0; r < kContendedProbeReps; ++r) {
      per_op.push_back(ContendedReads(cell, threads, shape.contended_reads) * 1e9 /
                       (threads * shape.contended_reads));
    }
    const MechanismStats* stats = cell.stack->registry.FindMechanism(kContendedMechanisms[c]);
    const double admissions = stats == nullptr ? 0 : static_cast<double>(stats->admissions.Value());
    const double wakeups = stats == nullptr ? 0 : static_cast<double>(stats->wakeups.Value());
    const std::string module = kContendedModules[c];
    result.Set(module + ".read_contended_ns", Median(per_op), "ns");
    result.Set(module + ".wakeups_per_admission", admissions == 0 ? 0 : wakeups / admissions,
               "ratio");
  }

  if (home) {
    result.Set("trace_overhead_frac",
               GeomeanOfMedians(spans.op_ns) / GeomeanOfMedians(runs[kFlight].op_ns) - 1.0,
               "ratio");
  }
  result.Note("os ladder: " + std::to_string(rounds) + " interleaved rounds of " +
              std::to_string(ops.size()) + " ops x " + std::to_string(shape.batch));
  result.Check(spans.mismatches == 0 &&
                   std::all_of(runs.begin(), runs.end(),
                               [](const MixRun& r) { return r.mismatches == 0; }),
               "os ladder: a buffer round trip returned another value than deposited");
}

}  // namespace perfbench
