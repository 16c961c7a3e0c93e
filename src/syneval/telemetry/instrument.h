// Instrumentation glue between mechanisms and the telemetry layer.
//
// Every mechanism resolves its MechanismStats bundle once at construction and then
// calls these helpers at its admission/release points. All helpers are null-tolerant:
// with no registry attached they cost one predictable branch and read no clock.
//
// Timestamp convention: MechanismStats histograms are recorded in Runtime::NowNanos
// units — wall nanoseconds under OsRuntime, logical steps × 1000 under DetRuntime
// (replayable "latencies" in scheduling steps).

#ifndef SYNEVAL_TELEMETRY_INSTRUMENT_H_
#define SYNEVAL_TELEMETRY_INSTRUMENT_H_

#include <cstdint>

#include "syneval/runtime/runtime.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {

// The bundle for `name`, or null when no registry is attached.
inline MechanismStats* MechanismTelemetry(Runtime& runtime, const char* name) {
  if (MetricsRegistry* metrics = runtime.metrics()) {
    return &metrics->ForMechanism(name);
  }
  return nullptr;
}

// Timestamp for a later TelemetryElapsed; 0 (and no clock read) when not instrumented.
inline std::uint64_t TelemetryNow(const MechanismStats* stats, Runtime& runtime) {
  return stats != nullptr ? runtime.NowNanos() : 0;
}

// now - start, saturated at 0 (defensive: DetRuntime logical time never goes
// backwards, but OS steady clocks on some platforms have been seen to).
inline std::uint64_t TelemetryElapsed(std::uint64_t start, std::uint64_t now) {
  return now > start ? now - start : 0;
}

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_INSTRUMENT_H_
