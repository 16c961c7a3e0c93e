// Checkpoint store: crash-safe persistence of swept chunks, so a killed sweep resumes
// and folds bit-identical to an uninterrupted run.
//
// The parallel sweep engine (runtime/parallel_sweep.h) computes one result per seed
// and each sweep folds those results once, in seed order; a sweep aggregate is
// therefore a pure function of its per-seed results. A chunk's per-seed records are
// the natural checkpoint unit — immutable once computed and keyed by everything that
// determined them (caller scope, sweep kind, base seed, seed count, chunk layout,
// chunk index). This module extends that determinism across process lifetimes:
//
//   * CheckpointStore maps chunk keys to encoded chunk payloads and persists them as
//     a snapshot + write-ahead journal pair. Every Commit() appends one flushed
//     "<key>\t<payload>" line to "<path>.journal" — durable immediately, so a SIGKILL
//     at ANY point loses at most the one append it interrupted — and every
//     flush_every()-th append COMPACTS: the full map is rewritten as a fresh snapshot
//     with the existing atomic write-temp-then-rename, then the journal is truncated.
//     Load() reads the snapshot and replays the journal over it (later entries win).
//     A torn final append (no terminating newline), a malformed journal line, or a
//     crash anywhere inside compaction all degrade to cache misses: the snapshot is
//     always a complete parseable file, and journal entries that survived a
//     mid-compaction crash merely replay as idempotent duplicates.
//   * The per-seed record codecs — EncodeTrialReport ("trial1", one schedule-sweep
//     seed) and EncodeChaosSeedPair ("chaospair2", one chaos seed's fault-on and
//     fault-off runs, crash bits included) — are LOSSLESS over every field, so a
//     restored chunk folds exactly like a re-run one and a resumed sweep's outcome
//     (a chaos row's quarantine verdict included), and hence the bench JSON rendered
//     from it, is byte-identical to the clean run. A chunk's payload is its seeds'
//     records, in seed order, joined by ','.
//
// Format (docs/RESILIENCE.md): the snapshot is a header line "syneval-checkpoint v1",
// then one "<key>\t<payload>" line per chunk; the journal is a header line
// "syneval-journal v1", then the same line format in append order. Keys and payloads
// are escaped so they contain no tab or newline; unparseable lines are skipped on
// load (a truncated or corrupted entry costs a re-run of that chunk, nothing more).
// Records are "k=v;k=v" with the same escaping (so no record holds a raw ',').
// Payloads of older writers (the "sweep1" / "chaos2" per-chunk aggregates, and
// "chaospair1" records, which carried a skip bit where chaospair2 carries the crash
// bit) fail to decode and are re-run as cache misses. No external serialization
// library — the runtime layer sits below syneval_core, so it cannot use the
// scorecard JSON helpers.
//
// Staleness: the store deliberately does NOT hash the binary. Keys embed the caller's
// scope string (suite, case, workload scale, fault plan), which callers must extend
// whenever the trial's meaning changes; delete the file when in doubt. CI nightly jobs
// start from an empty workspace, so resume there only ever sees same-binary snapshots.

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
// The one writer behind checkpoint snapshots and both quarantine.json files.
bool WriteFileAtomically(const std::string& path, const std::string& contents);

// Escapes/unescapes a string so it contains none of the record structure characters
// ('\t', '\n', ';', '=', ',', '\\'). Unescape(Escape(s)) == s for every s.
std::string CheckpointEscape(std::string_view s);
std::string CheckpointUnescape(std::string_view s);

// Lossless per-seed record codecs. Decode returns false, leaving *out untouched, when
// the record is malformed, out of range, or from an incompatible writer (another
// version tag); the engine treats that as a cache miss and re-runs the chunk.
//
// TrialReport ("trial1"): one schedule-sweep seed. Shared with the supervisor's
// process sandbox (supervisor.h): the child serializes its report into shared memory
// with this.
std::string EncodeTrialReport(const TrialReport& report);
bool DecodeTrialReport(const std::string& payload, TrialReport* out);
// ChaosSeedPair ("chaospair2"): one chaos-sweep seed's fault-on and fault-off runs.
std::string EncodeChaosSeedPair(const ChaosSeedPair& pair);
bool DecodeChaosSeedPair(const std::string& payload, ChaosSeedPair* out);

// Key for one chunk of one sweep. `scope` identifies the caller (bench name, suite
// case, workload scale, fault plan — everything that shapes the trial beyond the
// seed); `kind` is the sweep flavor ("sweep" / "chaos"). The chunk layout parameters
// are part of the key so a file written under one layout can never satisfy another.
std::string ChunkKey(std::string_view scope, std::string_view kind,
                     std::uint64_t base_seed, int num_seeds, int chunk_seeds,
                     int chunk_index);

// Thread-safe key→payload store with write-ahead-journal persistence and periodic
// snapshot compaction. One store is typically shared by every sweep of a bench
// invocation (each sweep contributing its own scope-disambiguated keys).
class CheckpointStore {
 public:
  // Does not touch the filesystem; call Load() to read an existing snapshot+journal.
  explicit CheckpointStore(std::string path);
  // Every commit is already durable in the journal; the destructor only closes it.
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  // Reads the snapshot file if present, then replays "<path>.journal" over it (later
  // entries win; the replayed-line count lands in replayed()). Returns the number of
  // distinct entries loaded (0 when both files are missing or empty). Malformed or
  // torn lines are skipped, duplicate keys keep the last occurrence. May be called
  // once, before the store is shared with workers.
  int Load();

  // Fills *payload when `key` is present. Returns true — and counts the lookup in
  // hits() — only when `accept` (if given) also takes the payload: the sweep engine
  // passes its chunk decode, so a payload that fails to decode is a miss.
  bool Lookup(const std::string& key, std::string* payload,
              const std::function<bool(const std::string&)>& accept = {}) const;

  // Inserts or replaces `key`, appending it to the write-ahead journal (flushed per
  // append, so the commit survives SIGKILL immediately); every flush_every()-th
  // append triggers compaction. Safe from concurrent workers.
  void Commit(const std::string& key, std::string payload);

  // Compaction: atomically rewrites the snapshot from the full map (write
  // "<path>.tmp", then rename over `path`), then truncates the journal. Returns
  // false on I/O failure; the previous snapshot (and the journal) are left intact.
  bool Flush();

  // Appends between automatic compactions (default 64 — the journal stays short
  // without paying a whole-map rewrite per commit; SetFlushEvery(1) restores the
  // old snapshot-per-commit behavior).
  void SetFlushEvery(int n);

  const std::string& path() const { return path_; }
  std::string journal_path() const { return path_ + ".journal"; }
  int size() const;
  // Successful Lookup() calls — i.e. chunks a resumed sweep restored, not re-ran.
  int hits() const;
  // Journal telemetry, rendered as the schema-v5 "journal" object by the bench
  // reporter: appends written this run, compactions performed, and journal entries
  // Load() replayed over the snapshot.
  int appends() const;
  int compactions() const;
  int replayed() const;

 private:
  bool CompactLocked();
  bool AppendJournalLocked(const std::string& key, const std::string& payload);
  int ReplayJournalLocked();

  const std::string path_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> entries_;
  std::ofstream journal_;  // Lazily opened in append mode; closed by compaction.
  int flush_every_ = 64;   // Appends between automatic compactions.
  int pending_ = 0;        // Appends since the last compaction.
  int appends_ = 0;
  int compactions_ = 0;
  int replayed_ = 0;
  mutable int hits_ = 0;
};

}  // namespace syneval

#endif  // SYNEVAL_RUNTIME_CHECKPOINT_H_
