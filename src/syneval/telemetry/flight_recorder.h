// FlightRecorder: always-on, fixed-capacity, lock-free rings of compact sync events.
//
// The tracer (tracer.h) and the trace recorder (trace/recorder.h) both take a mutex per
// record, so the docs warn against attaching them during steady-state measurement —
// which means the run that actually exhibits a deadlock or lost wakeup usually has no
// timeline to explain it from. The flight recorder closes that gap: both runtimes (and
// the fault injector, and mechanisms with implicit signalling) record every
// synchronization state change into per-thread ring buffers cheap enough to leave on
// while measuring. When an anomaly fires, postmortem.h snapshots the rings and
// reconstructs a causal narrative from the last events before the run got stuck.
//
// Recording cost and memory model:
//   * One relaxed fetch_add on a global sequence counter (its own cache line), one
//     relaxed fetch_add on the recording thread's ring cursor, and five relaxed/release
//     stores into the slot. No locks, no allocation, no branches on the hot path.
//   * Every slot field is a std::atomic, written relaxed with the slot's sequence
//     number published last with release order (a per-slot seqlock). Snapshot() reads
//     the sequence with acquire before and relaxed after the fields; a slot whose
//     sequence changed mid-read (a writer lapped the reader) is discarded rather than
//     returned torn. Concurrent snapshots are therefore TSan-clean and weakly
//     consistent — exactly what a postmortem of an already-stuck run needs.
//   * Rings are selected by thread id modulo the ring count. Two threads that collide
//     share a ring safely (the cursor is atomic); they merely share its capacity.
//
// Resources are recorded as raw pointers. Cold paths (primitive construction, op-label
// interning) may register display names through RegisterName/InternLabel, which take a
// mutex — never the recording path.
//
// The recorder attaches through the Runtime telemetry seam
// (Runtime::AttachFlightRecorder); like the metrics/tracer sites, every instrumentation
// site is one null check on the attachment when no recorder is attached.

#ifndef SYNEVAL_TELEMETRY_FLIGHT_RECORDER_H_
#define SYNEVAL_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "syneval/trace/recorder.h"

namespace syneval {

// Compact event vocabulary. kOpRequest/kOpEnter/kOpExit arrive through the
// TraceRecorder bridge (OnTraceEvent); the rest are recorded directly by runtimes,
// mechanisms, and the fault injector.
enum class FlightEventType : std::uint8_t {
  kOpRequest = 0,   // Operation became visible to its mechanism (resource = op label).
  kOpEnter = 1,     // Operation admitted.
  kOpExit = 2,      // Operation released the resource.
  kBlock = 3,       // Thread parked on resource (mutex / condvar / queue).
  kWake = 4,        // Thread resumed from its wait on resource.
  kAcquire = 5,     // Thread now holds resource.
  kRelease = 6,     // Thread released resource.
  kSignal = 7,      // Notify delivered on resource (arg = waiters before delivery).
  kBroadcast = 8,   // NotifyAll delivered on resource (arg = waiters before delivery).
  kFaultFired = 9,  // Injected fault fired (arg = FaultKind; resource = site label).
  kGuardRetest = 10,  // CCR exit-time guard re-test (arg = 1 when satisfied/admitted).
  // Client problem-state accesses (resource = the client cell, e.g. a SharedCell<T>
  // from analysis/hb.h). Recorded by instrumented workloads so the happens-before
  // engine can flag unordered conflicting accesses as races; never recorded by
  // mechanisms or runtimes themselves.
  kClientLoad = 11,
  kClientStore = 12,
};

// Short name: "op-request", "block", "signal", "fault", ...
const char* FlightEventTypeName(FlightEventType type);

// One decoded event, as returned by Snapshot(). `seq` is the global recording order
// across all rings (1-based); `time_nanos` is the recorder's clock at the site
// (scheduler steps × 1000 under DetRuntime, wall nanoseconds under OsRuntime).
struct FlightEvent {
  std::uint64_t seq = 0;
  std::uint64_t time_nanos = 0;
  std::uint32_t thread = 0;
  FlightEventType type = FlightEventType::kBlock;
  const void* resource = nullptr;
  std::uint64_t arg = 0;
};

class FlightRecorder : public TraceObserver {
 public:
  struct Options {
    // Number of per-thread rings. Threads hash in by id; more rings = less sharing.
    int rings = 32;
    // Initial events per ring; older events are evicted ring-locally (or the ring
    // grows, below).
    int events_per_ring = 256;

    // Grow-on-evict: instead of overwriting its oldest event, a full ring chains a
    // new segment of double its capacity (retired segments stay readable), until the
    // ring's total capacity reaches max_events_per_ring — only then does it start
    // evicting. Growth is a cold path (mutex + allocation) taken at most
    // O(log(max/initial)) times per ring per trial; the recording fast path is
    // unchanged. Off by default: steady-state benchmark recorders prefer a fixed
    // footprint to an allocation mid-measurement.
    bool grow_on_evict = false;
    // Total capacity ceiling per ring once growth is enabled (approximate: the last
    // segment is clamped to the remaining headroom, floored at 8 slots).
    int max_events_per_ring = 8192;

    // Right-sized for one DetRuntime trial: a handful of threads and a bounded-step
    // run. Sweeps build a recorder per seed, and construction zeroes every slot, so
    // the default 32×256 rings would cost more to allocate than to fill. Growth is
    // on — a trial that turns out chatty (deep fault plans, soak bodies) keeps its
    // full window instead of truncating the postmortem.
    static Options ForTrial() {
      Options options{8, 128};
      options.grow_on_evict = true;
      return options;
    }

    // Sized from the workload's shape: at least one ring per expected thread
    // (rounded up to a power of two, so the id-modulo hash spreads evenly) and the
    // initial segment sized for the expected per-thread event volume, with growth
    // enabled as the escape hatch for the tail of trials that outrun the estimate.
    static Options ForWorkload(int threads, int expected_events_per_thread);
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(const Options& options);
  ~FlightRecorder() override;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hot path: records one event. Lock-free, wait-free apart from the two relaxed
  // fetch_adds; safe from any thread concurrently with Snapshot(). Defined inline —
  // at mechanism fast-path call sites the call overhead would otherwise rival the
  // recording itself.
  void Record(std::uint32_t thread, FlightEventType type, const void* resource,
              std::uint64_t time_nanos, std::uint64_t arg = 0) {
    if (frozen_.load(std::memory_order_relaxed)) {
      return;
    }
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    Ring& ring = rings_[thread % rings_.size()];
    Segment* seg = ring.seg.load(std::memory_order_acquire);
    std::uint64_t cursor = seg->cursor.fetch_add(1, std::memory_order_relaxed);
    if (cursor >= static_cast<std::uint64_t>(seg->capacity)) {
      // Cold path: grow the ring (if enabled and under the cap) or count an eviction
      // and wrap onto the oldest slot.
      seg = GrowOrWrap(ring, seg, &cursor);
    }
    Slot& slot = seg->slots[cursor % static_cast<std::uint64_t>(seg->capacity)];
    // Per-slot seqlock: invalidate, fill relaxed, publish the sequence with release.
    // A concurrent Snapshot() that observes a mid-write slot sees either seq == 0 or a
    // sequence that changes across its field reads, and discards the slot.
    slot.seq.store(0, std::memory_order_relaxed);
    slot.time.store(time_nanos, std::memory_order_relaxed);
    slot.meta.store(PackMeta(thread, type, arg), std::memory_order_relaxed);
    slot.resource.store(resource, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_release);
  }

  // TraceObserver bridge: forwards kRequest/kEnter/kExit op events from an attached
  // TraceRecorder (TraceRecorder::SetSecondaryObserver) as kOpRequest/kOpEnter/kOpExit
  // flight events whose resource is the interned op label. Takes the interning mutex —
  // op events already pay a mutex in the recorder itself, so this path is never the
  // steady-state bottleneck.
  void OnTraceEvent(const Event& event) override;

  // Cold path: associates a display name with a resource pointer (called at primitive
  // construction). Names are de-duplicated per base ("mutex", "mutex#2", ...) exactly
  // like AnomalyDetector::RegisterResource; re-registering a pointer renames it.
  // Returns the unique name assigned.
  std::string RegisterName(const void* resource, const std::string& base);

  // Interns `label` and returns a stable pointer key that NameOf resolves back to it
  // (used for op names and fault-site labels).
  const void* InternLabel(std::string_view label);

  // Resolves a resource pointer registered via RegisterName/InternLabel; falls back to
  // "0x<hex>" for unregistered pointers and "-" for null.
  std::string NameOf(const void* resource) const;

  // Merged view of all rings, ordered by global seq. Safe concurrently with writers:
  // slots overwritten mid-read are skipped, so the result is a weakly consistent
  // window ending at (or slightly before) the most recent events.
  std::vector<FlightEvent> Snapshot() const;

  // Stops recording: every subsequent Record() is dropped (until Clear()). The runtime
  // freezes the recorder when it starts tearing down an aborted or deadlocked trial —
  // the diagnosis is already made, and the unwind replays block/exit events in
  // whatever order the OS schedules the unwinding threads, which would put a
  // nondeterministic tail on an otherwise schedule-determined event window.
  void Freeze() { frozen_.store(true, std::memory_order_relaxed); }
  bool frozen() const { return frozen_.load(std::memory_order_relaxed); }

  // Events recorded since construction/Clear (including ones since evicted).
  std::uint64_t recorded() const { return seq_.load(std::memory_order_relaxed); }

  // Events no longer retained: recorded() minus the live slots (ring eviction).
  std::uint64_t evicted() const;

  // Resets all rings and counters. Callers must ensure no writers are active.
  void Clear();

  const Options& options() const { return options_; }

 private:
  // meta layout: bits 0..31 thread, 32..39 type, 40..63 arg (saturated to 24 bits).
  static constexpr std::uint64_t kArgMax = (1ull << 24) - 1;
  static std::uint64_t PackMeta(std::uint32_t thread, FlightEventType type,
                                std::uint64_t arg) {
    return static_cast<std::uint64_t>(thread) |
           (static_cast<std::uint64_t>(type) << 32) |
           ((arg < kArgMax ? arg : kArgMax) << 40);
  }

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = empty; published last (release).
    std::atomic<std::uint64_t> time{0};
    std::atomic<std::uint64_t> meta{0};  // thread | type << 32 | arg << 40.
    std::atomic<const void*> resource{nullptr};
  };

  // One fixed-capacity block of slots. A ring is a chain of segments: `seg` points at
  // the segment currently being written; `prev` links retired (full) segments, which
  // stay allocated and readable until Clear()/destruction so Snapshot() keeps their
  // events and writers that raced a growth can still wrap-write them safely.
  struct Segment {
    explicit Segment(int cap)
        : capacity(cap), slots(std::make_unique<Slot[]>(static_cast<std::size_t>(cap))) {}
    const int capacity;
    std::unique_ptr<Slot[]> slots;
    Segment* prev = nullptr;  // Older retired segment (owned; freed on Clear/dtor).
    alignas(64) std::atomic<std::uint64_t> cursor{0};
  };

  struct Ring {
    std::atomic<Segment*> seg{nullptr};  // Current (newest) segment.
    alignas(64) std::atomic<std::uint64_t> evicted{0};  // Overwritten events.
  };

  // Cold path for a full segment: under grow_mu_, either chains a doubled segment
  // (updating *cursor to a fresh slot in it) or — at the capacity cap, or with growth
  // disabled — counts one eviction and returns the segment for a wrap-write.
  Segment* GrowOrWrap(Ring& ring, Segment* seg, std::uint64_t* cursor);

  void FreeChain(Segment* seg);

  Options options_;
  std::vector<Ring> rings_;
  std::mutex grow_mu_;
  std::atomic<bool> frozen_{false};
  alignas(64) std::atomic<std::uint64_t> seq_{0};

  mutable std::mutex names_mu_;
  std::map<const void*, std::string> names_;
  std::map<std::string, int> name_counts_;
  std::map<std::string, const void*, std::less<>> labels_;
  std::deque<std::string> label_storage_;  // Stable addresses for interned labels.
};

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_FLIGHT_RECORDER_H_
