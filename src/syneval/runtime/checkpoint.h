// Checkpoint store: crash-safe persistence of swept seeds, so a killed sweep resumes
// and folds bit-identical to an uninterrupted run.
//
// The parallel sweep engine (runtime/parallel_sweep.h) computes one result per seed
// and each sweep folds those results once, in seed order; a sweep aggregate is
// therefore a pure function of its per-seed results. A seed's record is the natural
// checkpoint unit — immutable once computed and keyed by everything that determined
// it (caller scope, sweep kind, base seed, seed). This module extends that
// determinism across process lifetimes:
//
//   * CheckpointStore is one append-only log at <path>; the key→record map it serves
//     is a projection of that log. Every Commit() appends one flushed
//     "<key>\t<record>" line — durable immediately, so a SIGKILL at ANY point loses at
//     most the one append it interrupted. Nothing is ever rewritten: a record never
//     changes once written, so the log holds every entry exactly as committed.
//   * Load() reads the log (later lines win) and then truncates it to the end of its
//     last complete line, so a torn final append (no terminating newline) is a cache
//     miss and the next append starts a line of its own. A malformed line is skipped;
//     a file whose first line is not the header is restarted as an empty log.
//   * The per-seed record codecs — EncodeTrialReport ("trial1", one schedule-sweep
//     seed) and EncodeChaosSeedPair ("chaospair2", one chaos seed's fault-on and
//     fault-off runs, crash bits included) — are LOSSLESS over every field, so a
//     restored seed folds exactly like a re-run one and a resumed sweep's outcome
//     (a chaos row's quarantine verdict included), and hence the bench JSON rendered
//     from it, is byte-identical to the clean run.
//
// Format (docs/RESILIENCE.md): a header line "syneval-journal v2", then one
// "<key>\t<record>" line per committed seed, in append order. Keys and records are
// escaped so they contain no tab or newline. Records are "k=v;k=v" with the same
// escaping. Logs of older writers (the "syneval-checkpoint v1" snapshot, the
// "syneval-journal v1" chunk journal) fail the header check and are restarted empty;
// records of older writers ("chaospair1", the per-chunk "sweep1" / "chaos2"
// aggregates) fail to decode and are re-run as cache misses. No external
// serialization library — the runtime layer sits below syneval_core, so it cannot use
// the scorecard JSON helpers.
//
// Staleness: the store deliberately does NOT hash the binary. Keys embed the caller's
// scope string (suite, case, workload scale, fault plan), which callers must extend
// whenever the trial's meaning changes; delete the file when in doubt. CI nightly jobs
// start from an empty workspace, so resume there only ever sees same-binary logs.

#ifndef SYNEVAL_RUNTIME_CHECKPOINT_H_
#define SYNEVAL_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "syneval/runtime/explore.h"

namespace syneval {

// Writes `contents` to "<path>.tmp", then renames it over `path`: a reader sees the old
// file or the new one, never a torn one. False (and no temp file left) on I/O failure.
// The one writer behind both quarantine.json files.
bool WriteFileAtomically(const std::string& path, const std::string& contents);

// Escapes/unescapes a string so it contains none of the record structure characters
// ('\t', '\n', '\r', ';', '=', '\\'). Unescape(Escape(s)) == s for every s.
std::string CheckpointEscape(std::string_view s);
std::string CheckpointUnescape(std::string_view s);

// Lossless per-seed record codecs. Decode returns false, leaving *out untouched, when
// the record is malformed, out of range, or from an incompatible writer (another
// version tag); the engine treats that as a cache miss and re-runs the seed.
//
// TrialReport ("trial1"): one schedule-sweep seed. Shared with the supervisor's
// process sandbox (supervisor.h): the child serializes its report into shared memory
// with this.
std::string EncodeTrialReport(const TrialReport& report);
bool DecodeTrialReport(const std::string& payload, TrialReport* out);
// ChaosSeedPair ("chaospair2"): one chaos-sweep seed's fault-on and fault-off runs.
std::string EncodeChaosSeedPair(const ChaosSeedPair& pair);
bool DecodeChaosSeedPair(const std::string& payload, ChaosSeedPair* out);

// Key for one seed of one sweep. `scope` identifies the caller (bench name, suite
// case, workload scale, fault plan — everything that shapes the trial beyond the
// seed); `kind` is the sweep flavor ("sweep" / "chaos"). The base seed stays in the
// key because a chaos row's fault plan is parsed with it. Neither the seed count nor
// the chunk layout is part of the key, so a sweep resumes under any --jobs and chunk
// size, and a deeper rerun restores the seeds it shares with a shallower one.
std::string SeedKey(std::string_view scope, std::string_view kind, std::uint64_t base_seed,
                    std::uint64_t seed);

// Thread-safe key→record store persisted as one append-only log. One store is
// typically shared by every sweep of a bench invocation (each sweep contributing its
// own scope-disambiguated keys).
class CheckpointStore {
 public:
  // Does not touch the filesystem; call Load() to read an existing log.
  explicit CheckpointStore(std::string path);
  // Every commit is already durable in the log; the destructor only closes it.
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  // Reads the log (later lines win; the complete-line count lands in replayed()),
  // then truncates it to the end of its last complete line — or, when its first line
  // is not the header, to nothing — so every later append starts a line of its own.
  // Returns the number of distinct entries loaded (0 when the file is missing, empty
  // or foreign). Malformed lines are skipped. Call it once, before the first Commit()
  // and before the store is shared with workers.
  int Load();

  // Fills *payload when `key` is present. Returns true — and counts the lookup in
  // hits() — only when `accept` (if given) also takes the payload: the sweep engine
  // passes its record decode, so a record that fails to decode is a miss.
  bool Lookup(const std::string& key, std::string* payload,
              const std::function<bool(const std::string&)>& accept = {}) const;

  // Inserts or replaces `key` and appends it to the log, flushed per append, so the
  // commit survives SIGKILL immediately. Safe from concurrent workers.
  void Commit(const std::string& key, std::string payload);

  const std::string& path() const { return path_; }
  int size() const;
  // Successful Lookup() calls — i.e. seeds a resumed sweep restored, not re-ran.
  int hits() const;
  // Log telemetry, rendered as the schema-v5 "journal" object by the bench reporter:
  // lines appended this run, and complete lines Load() read.
  int appends() const;
  int replayed() const;
  // Always 0: the log is never compacted. Kept for perfbench/chaos_soak.cc.
  int compactions() const { return 0; }

 private:
  const std::string path_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> entries_;
  std::ofstream log_;  // Lazily opened in append mode by the first Commit().
  int appends_ = 0;
  int replayed_ = 0;
  mutable int hits_ = 0;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_CHECKPOINT_H_
