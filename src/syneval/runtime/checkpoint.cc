#include "syneval/runtime/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

namespace syneval {

namespace {

// Field-record helpers. A record is "k=v;k=v;..." where every key and value has been
// through CheckpointEscape, so splitting on ';' and the first '=' is unambiguous.

class RecordWriter {
 public:
  void Put(std::string_view key, std::string_view value) {
    if (!out_.empty()) {
      out_ += ';';
    }
    out_ += CheckpointEscape(key);
    out_ += '=';
    out_ += CheckpointEscape(value);
  }
  void PutInt(std::string_view key, long long value) { Put(key, std::to_string(value)); }
  void PutU64(std::string_view key, std::uint64_t value) {
    Put(key, std::to_string(value));
  }
  void PutBool(std::string_view key, bool value) { Put(key, value ? "1" : "0"); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class RecordReader {
 public:
  explicit RecordReader(const std::string& payload) {
    std::size_t pos = 0;
    while (pos <= payload.size()) {
      std::size_t end = payload.find(';', pos);
      if (end == std::string::npos) {
        end = payload.size();
      }
      const std::string_view field(payload.data() + pos, end - pos);
      const std::size_t eq = field.find('=');
      if (eq != std::string_view::npos) {
        fields_[CheckpointUnescape(field.substr(0, eq))] =
            CheckpointUnescape(field.substr(eq + 1));
      }
      pos = end + 1;
    }
  }

  bool Get(const std::string& key, std::string* value) const {
    const auto it = fields_.find(key);
    if (it == fields_.end()) {
      return false;
    }
    *value = it->second;
    return true;
  }
  // Out-of-range and malformed numbers are rejected rather than saturated or
  // narrowed, so the entry decodes as a miss instead of as a different value.
  bool GetInt(const std::string& key, int* value) const {
    const auto it = fields_.find(key);
    if (it == fields_.end()) {
      return false;
    }
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        parsed < std::numeric_limits<int>::min() || parsed > std::numeric_limits<int>::max()) {
      return false;
    }
    *value = static_cast<int>(parsed);
    return true;
  }
  bool GetU64(const std::string& key, std::uint64_t* value) const {
    const auto it = fields_.find(key);
    return it != fields_.end() && ParseU64(it->second, value);
  }
  bool GetBool(const std::string& key, bool* value) const {
    const auto it = fields_.find(key);
    if (it == fields_.end() || (it->second != "0" && it->second != "1")) {
      return false;
    }
    *value = it->second == "1";
    return true;
  }

 private:
  // Decimal digits only: strtoull would accept a sign (and wrap "-1" to 2^64 - 1) or
  // leading space.
  static bool ParseU64(const std::string& text, std::uint64_t* value) {
    if (text.empty() || text[0] < '0' || text[0] > '9') {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE) {
      return false;
    }
    *value = static_cast<std::uint64_t>(parsed);
    return true;
  }

  std::map<std::string, std::string> fields_;
};

void PutAnomalies(RecordWriter& w, const AnomalyCounts& counts) {
  w.PutInt("a.dl", counts.deadlocks);
  w.PutInt("a.lw", counts.lost_wakeups);
  w.PutInt("a.sw", counts.stuck_waiters);
  w.PutInt("a.st", counts.starvations);
}

bool GetAnomalies(const RecordReader& r, AnomalyCounts* counts) {
  return r.GetInt("a.dl", &counts->deadlocks) &&
         r.GetInt("a.lw", &counts->lost_wakeups) &&
         r.GetInt("a.sw", &counts->stuck_waiters) &&
         r.GetInt("a.st", &counts->starvations);
}

// One chaos run's fields, each key prefixed ("on." / "off.").
void PutChaosRun(RecordWriter& w, const std::string& prefix, const ChaosTrialOutcome& run) {
  w.PutBool(prefix + "done", run.completed);
  w.PutBool(prefix + "hung", run.hung);
  w.PutBool(prefix + "crash", run.crashed);
  w.PutBool(prefix + "ofail", run.oracle_failed);
  w.PutInt(prefix + "inj", run.injected);
  w.PutU64(prefix + "first", run.first_injection_step);
  w.PutU64(prefix + "steps", run.steps);
  w.PutInt(prefix + "anom", run.anomalies);
  w.Put(prefix + "report", run.report);
  w.Put(prefix + "pmcause", run.postmortem_cause);
  w.Put(prefix + "pm", run.postmortem);
  w.PutU64(prefix + "fev", run.flight_evicted);
}

bool GetChaosRun(const RecordReader& r, const std::string& prefix, ChaosTrialOutcome* run) {
  return r.GetBool(prefix + "done", &run->completed) &&
         r.GetBool(prefix + "hung", &run->hung) &&
         r.GetBool(prefix + "crash", &run->crashed) &&
         r.GetBool(prefix + "ofail", &run->oracle_failed) &&
         r.GetInt(prefix + "inj", &run->injected) &&
         r.GetU64(prefix + "first", &run->first_injection_step) &&
         r.GetU64(prefix + "steps", &run->steps) &&
         r.GetInt(prefix + "anom", &run->anomalies) &&
         r.Get(prefix + "report", &run->report) &&
         r.Get(prefix + "pmcause", &run->postmortem_cause) &&
         r.Get(prefix + "pm", &run->postmortem) &&
         r.GetU64(prefix + "fev", &run->flight_evicted);
}

}  // namespace

bool WriteFileAtomically(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string CheckpointEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case ';': out += "\\s"; break;
      case '=': out += "\\e"; break;
      case ',': out += "\\c"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string CheckpointUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 's': out += ';'; break;
      case 'e': out += '='; break;
      case 'c': out += ','; break;
      default: out += s[i]; break;  // Unknown escape: keep the literal character.
    }
  }
  return out;
}

std::string EncodeTrialReport(const TrialReport& report) {
  RecordWriter w;
  w.Put("v", "trial1");
  w.Put("msg", report.message);
  PutAnomalies(w, report.anomalies);
  w.Put("areport", report.anomaly_report);
  w.Put("pmcause", report.postmortem_cause);
  w.Put("pm", report.postmortem);
  w.PutU64("fev", report.flight_evicted);
  return w.Take();
}

bool DecodeTrialReport(const std::string& payload, TrialReport* out) {
  const RecordReader r(payload);
  std::string version;
  if (!r.Get("v", &version) || version != "trial1") {
    return false;
  }
  TrialReport decoded;
  if (!r.Get("msg", &decoded.message) || !GetAnomalies(r, &decoded.anomalies) ||
      !r.Get("areport", &decoded.anomaly_report) ||
      !r.Get("pmcause", &decoded.postmortem_cause) ||
      !r.Get("pm", &decoded.postmortem) || !r.GetU64("fev", &decoded.flight_evicted)) {
    return false;
  }
  *out = std::move(decoded);
  return true;
}

std::string EncodeChaosSeedPair(const ChaosSeedPair& pair) {
  RecordWriter w;
  w.Put("v", "chaospair2");
  PutChaosRun(w, "on.", pair.on);
  PutChaosRun(w, "off.", pair.off);
  return w.Take();
}

bool DecodeChaosSeedPair(const std::string& payload, ChaosSeedPair* out) {
  const RecordReader r(payload);
  std::string version;
  ChaosSeedPair decoded;
  if (!r.Get("v", &version) || version != "chaospair2" ||
      !GetChaosRun(r, "on.", &decoded.on) || !GetChaosRun(r, "off.", &decoded.off)) {
    return false;
  }
  *out = std::move(decoded);
  return true;
}

std::string ChunkKey(std::string_view scope, std::string_view kind,
                     std::uint64_t base_seed, int num_seeds, int chunk_seeds,
                     int chunk_index) {
  std::string key = CheckpointEscape(scope);
  key += '|';
  key += kind;
  key += "|b";
  key += std::to_string(base_seed);
  key += "|n";
  key += std::to_string(num_seeds);
  key += "|c";
  key += std::to_string(chunk_seeds);
  key += "|k";
  key += std::to_string(chunk_index);
  return key;
}

CheckpointStore::CheckpointStore(std::string path) : path_(std::move(path)) {}

CheckpointStore::~CheckpointStore() {
  // Every commit is already durable in the journal (write-ahead, flushed per
  // append); there is nothing pending to save.
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_.is_open()) {
    journal_.close();
  }
}

int CheckpointStore::Load() {
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::ifstream in(path_);
    if (in) {
      std::string line;
      if (std::getline(in, line) && line == "syneval-checkpoint v1") {
        while (std::getline(in, line)) {
          const std::size_t tab = line.find('\t');
          if (tab == std::string::npos || tab == 0) {
            continue;  // Malformed line: skip; the chunk just gets re-run.
          }
          entries_[CheckpointUnescape(std::string_view(line).substr(0, tab))] =
              CheckpointUnescape(std::string_view(line).substr(tab + 1));
        }
      }
      // Missing/foreign header: treat the snapshot as empty rather than misread it.
    }
  }
  // The journal replays OVER the snapshot: entries appended after the last
  // compaction, or re-appended during a crashed compaction (idempotent duplicates).
  // replayed_ counts lines replayed; the return value is distinct entries, so
  // duplicates (same key in snapshot and journal) are not double-counted.
  replayed_ = ReplayJournalLocked();
  return static_cast<int>(entries_.size());
}

int CheckpointStore::ReplayJournalLocked() {
  std::ifstream in(journal_path(), std::ios::binary);
  if (!in) {
    return 0;
  }
  // Whole-file read so the torn-tail check is exact: std::getline cannot tell a
  // complete final line from one cut short by SIGKILL mid-append.
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t nl = data.find('\n');
  if (nl == std::string::npos ||
      std::string_view(data).substr(0, nl) != "syneval-journal v1") {
    return 0;  // Missing/foreign/torn header: treat the journal as empty.
  }
  std::size_t pos = nl + 1;
  int replayed = 0;
  while (pos < data.size()) {
    nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      break;  // Torn final append (no terminating newline): a cache miss, no more.
    }
    const std::string_view line = std::string_view(data).substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos || tab == 0) {
      continue;  // Malformed line: skip; the chunk just gets re-run.
    }
    entries_[CheckpointUnescape(line.substr(0, tab))] =
        CheckpointUnescape(line.substr(tab + 1));
    ++replayed;
  }
  return replayed;
}

bool CheckpointStore::Lookup(const std::string& key, std::string* payload,
                             const std::function<bool(const std::string&)>& accept) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      return false;
    }
    *payload = it->second;
  }
  // The caller's decode runs outside the lock; a payload it rejects is a miss.
  if (accept && !accept(*payload)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++hits_;
  return true;
}

void CheckpointStore::Commit(const std::string& key, std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendJournalLocked(key, payload);
  entries_[key] = std::move(payload);
  ++appends_;
  if (++pending_ >= flush_every_) {
    CompactLocked();
  }
}

bool CheckpointStore::AppendJournalLocked(const std::string& key,
                                          const std::string& payload) {
  if (!journal_.is_open()) {
    journal_.clear();
    journal_.open(journal_path(), std::ios::app);
    if (!journal_) {
      return false;
    }
    if (journal_.tellp() == std::ofstream::pos_type(0)) {
      journal_ << "syneval-journal v1\n";
    }
  }
  journal_ << CheckpointEscape(key) << '\t' << CheckpointEscape(payload) << '\n';
  // Flushed per append: the write-ahead property is what makes a SIGKILL anywhere
  // lose at most the append it interrupted (the torn tail Load() discards).
  journal_.flush();
  return static_cast<bool>(journal_);
}

bool CheckpointStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

bool CheckpointStore::CompactLocked() {
  std::string snapshot = "syneval-checkpoint v1\n";
  for (const auto& [key, payload] : entries_) {
    snapshot += CheckpointEscape(key) + '\t' + CheckpointEscape(payload) + '\n';
  }
  if (!WriteFileAtomically(path_, snapshot)) {
    return false;
  }
  // Only after the snapshot rename landed is the journal redundant. A crash between
  // the rename and this truncation leaves its entries to replay as idempotent
  // duplicates over the fresh snapshot — never a loss.
  if (journal_.is_open()) {
    journal_.close();
  }
  {
    std::ofstream truncated(journal_path(), std::ios::trunc);
    truncated << "syneval-journal v1\n";
    truncated.flush();
  }
  pending_ = 0;
  ++compactions_;
  return true;
}

void CheckpointStore::SetFlushEvery(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_every_ = n < 1 ? 1 : n;
}

int CheckpointStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

int CheckpointStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int CheckpointStore::appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

int CheckpointStore::compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

int CheckpointStore::replayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayed_;
}

}  // namespace syneval
