// TelemetryTracer: wall-clock spans, instants, and signal→wakeup flow edges.
//
// The tracer is the timeline companion of the metrics registry: where the registry
// aggregates (histograms, counters), the tracer keeps individual records so the
// Perfetto exporter can lay them out per thread and draw flow arrows from each signal
// to the wakeup(s) it caused — the visual form of the lost-wakeup/convoy analysis the
// anomaly detector does symbolically.
//
// Runtimes feed flows from their condition-variable wrappers (OnSignal at notify,
// OnWake at resumption); benches and tests may add spans and instants directly.
// Recording takes a mutex — the tracer is attached only when a trace is actually being
// captured, never during steady-state measurement.

#ifndef SYNEVAL_TELEMETRY_TRACER_H_
#define SYNEVAL_TELEMETRY_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace syneval {

class TelemetryTracer {
 public:
  enum class RecordType : std::uint8_t {
    kSpan = 0,       // Complete duration event (Chrome ph "X").
    kInstant = 1,    // Point event (ph "i").
    kFlowStart = 2,  // Signal delivered (ph "s").
    kFlowEnd = 3,    // Waiter resumed by that signal (ph "f").
  };

  struct Record {
    RecordType type = RecordType::kInstant;
    std::uint32_t thread = 0;
    std::string name;
    std::string category;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;   // Spans only.
    std::uint64_t flow_id = 0;  // Flow records only.
  };

  TelemetryTracer() = default;

  TelemetryTracer(const TelemetryTracer&) = delete;
  TelemetryTracer& operator=(const TelemetryTracer&) = delete;

  void AddSpan(std::uint32_t thread, std::string name, std::string category,
               std::uint64_t start_ns, std::uint64_t end_ns);
  void AddInstant(std::uint32_t thread, std::string name, std::string category,
                  std::uint64_t ns);

  // A notify on the condition/queue identified by `key` was delivered by `thread`.
  // Starts a flow; subsequent OnWake calls with the same key close against it (a
  // broadcast fans one flow out to several wakeups).
  void OnSignal(const void* key, std::uint32_t thread, std::uint64_t ns, bool broadcast);

  // `thread` resumed from a wait on `key`. No-op if no signal was seen on `key` yet
  // (e.g. a spurious or pre-attachment wakeup).
  void OnWake(const void* key, std::uint32_t thread, std::uint64_t ns);

  std::vector<Record> Snapshot() const;
  std::size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::map<const void*, std::uint64_t> pending_flow_;  // key → open flow id.
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_TRACER_H_
