// Shared machinery of the CleanDB benchmark driver: timing, statistics,
// process probes, session-counter deltas, order-insensitive result
// fingerprints, bench-side spans, and the result line.
//
// Everything here observes CleanDB from outside, through its public API
// only (RegisterTable, Prepare, ExecuteInto, the mutation calls,
// ExportMetricsText, partition_cache().stats()).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cleaning/prepared_query.h"
#include "storage/dataset.h"

namespace perfbench {

using cleanm::Dataset;
using cleanm::Status;
using cleanm::Value;

// ---- Command line ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for generated inputs and the trace file.
  std::string workdir = ".bench_build/perfbench/work";
};

// ---- Time ----

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for empty input.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

// ---- Process probes ----

struct Rusage {
  double user_ms = 0;
  double sys_ms = 0;
  double ctx_switches = 0;  ///< voluntary + involuntary
  double minor_faults = 0;
  Rusage operator-(const Rusage& o) const;
  Rusage& operator+=(const Rusage& o);
};
/// getrusage(RUSAGE_SELF): every thread of the process.
Rusage ProcessRusage();
/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Current `Threads:` count from /proc/self/status (0 if unreadable).
int ThreadCount();

/// Samples ThreadCount() every millisecond on a background thread until
/// Stop(); peak() is the highest count seen, excluding the sampler itself.
/// The sampler's own CPU time and context switches are recorded so they can
/// be taken out of the process-wide getrusage deltas (see Exclude).
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  void Stop();
  int peak() const;
  /// Removes the sampler's share of `window_s` seconds of its lifetime from
  /// `*usage` (its usage is spread evenly over its lifetime). Call after Stop.
  void Exclude(double window_s, Rusage* usage) const;

 private:
  struct State;
  State* state_;
};

// ---- Session counters ----

/// ExportMetricsText() parsed into name → value (`cleandb_` prefix and
/// `_total` suffix stripped).
std::map<std::string, double> ParseMetricsText(const std::string& text);

/// Counter movement between two ParseMetricsText snapshots (gauges keep the
/// later value).
std::map<std::string, double> CounterDelta(const std::map<std::string, double>& before,
                                           const std::map<std::string, double>& after);

// ---- Result fingerprints ----

/// Hash of a Value's canonical form: struct fields sorted by name, list
/// elements sorted — equal results hash equal regardless of the merge order
/// that built an aggregated collection. `memo` caches nested lists/structs
/// by identity (violations of one group share their partition list), so it
/// must not outlive the values hashed through it.
using HashMemo = std::unordered_map<const void*, uint64_t>;
uint64_t CanonicalHash(const Value& v, HashMemo* memo);

/// Order-insensitive multiset fingerprint: a sum of per-element hashes plus
/// a count, so sets can be added and subtracted (previous − retracted + new).
struct Fingerprint {
  uint64_t sum = 0;
  uint64_t count = 0;
  /// With `identity_only`, a violation struct's FD value aggregates
  /// (`vals`, `vals_<n>`) are left out — see RecordingSink::Digest::identity.
  void Add(const std::string& op_name, const Value& v, bool identity_only, HashMemo* memo);
  Fingerprint& operator+=(const Fingerprint& o);
  Fingerprint& operator-=(const Fingerprint& o);
  bool operator==(const Fingerprint& o) const { return sum == o.sum && count == o.count; }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

/// Cell-by-cell equality of schema and rows, in order.
bool SameDataset(const Dataset& a, const Dataset& b);

/// Writes `d` as CSV under `path` and reads it back through storage/'s
/// ReadCsv, checking the loaded table equals the generated one.
Status WriteCsvChecked(const Dataset& d, const std::string& path);

// ---- Bench-side spans ----

/// One bench-side span around a public call (or an op). `op` is the op
/// index (-1 in setup); `parent` the enclosing span id (-1 for roots).
struct Span {
  const char* name;
  int64_t op;
  int parent;
  int64_t start_ns;
  int64_t end_ns = 0;
};

/// In-memory span store, written out as Chrome trace_event JSON at the end
/// of a traced run. Thread-safe; a null recorder (untraced run) records
/// nothing, so call sites stay identical across both modes.
class SpanRecorder {
 public:
  int Begin(const char* name, int64_t op, int parent);
  void End(int id);
  /// Self time (duration minus direct children) of every span named
  /// `name`, in ms, one entry per span: over the timed ops (op ≥ 0), or
  /// over setup (op < 0) when `setup`.
  std::vector<double> SelfMs(const std::string& name, bool setup = false) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; no-op when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t op, int parent)
      : rec_(rec), id_(rec ? rec->Begin(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

// ---- The streaming sink every op executes into ----

/// Records what one ExecuteInto streamed, cheaply: violations are kept as
/// (op, Value) references and fingerprinted after the op's timer stops.
/// When a recorder is set, each callback is its own "sink" span under
/// `parent_span`.
class RecordingSink : public cleanm::ViolationSink {
 public:
  enum Kind { kPersist = 0, kNew = 1, kRetracted = 2 };

  /// Clears the per-execution state and sets the tracing context.
  void Reset(SpanRecorder* rec, int64_t op, int parent_span);

  Status OnOpBegin(const std::string& op_name) override;
  Status OnViolation(const std::string& op_name, const Value& v) override;
  Status OnViolationNew(const std::string& op_name, const Value& v) override;
  Status OnViolationRetracted(const std::string& op_name, const Value& v) override;
  Status OnOpEnd(const cleanm::OpSummary& summary) override;
  Status OnDirtyEntity(const Value& entity,
                       const std::vector<std::string>& violated_ops) override;

  /// Fingerprints of what the last execution streamed, in one pass.
  struct Digest {
    /// Per Kind.
    std::array<Fingerprint, 3> by_kind;
    /// kPersist + kNew: the full current violation set.
    Fingerprint current;
    /// The current set projected onto violation identity: every field but
    /// the FD value aggregates. Their names depend on the plan form — a
    /// Nest coalesced across several FDs carries `vals`, `vals_1`, … of
    /// every FD sharing it, while the standalone plan carries only its own
    /// `vals` — so this is the form that compares across unify on and off.
    Fingerprint identity;
  };
  Digest Fingerprints() const;
  size_t count(Kind kind) const { return counts_[kind]; }
  size_t dirty_entities() const { return dirty_entities_; }
  /// Seconds per cleaning-operation family ("FD", "DEDUP", "CLUSTER BY";
  /// numbered repeats such as FD_2 fold into their family), from OnOpEnd.
  const std::map<std::string, double>& op_seconds() const { return op_seconds_; }

 private:
  struct Entry {
    Kind kind;
    std::string op_name;
    Value value;
  };
  Status Record(Kind kind, const std::string& op_name, const Value& v);

  SpanRecorder* rec_ = nullptr;
  int64_t op_ = -1;
  int parent_ = -1;
  std::vector<Entry> entries_;
  size_t counts_[3] = {0, 0, 0};
  size_t dirty_entities_ = 0;
  std::map<std::string, double> op_seconds_;
};

// ---- Result line ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The single JSON object the driver prints as its last stdout line.
  std::string ToJson() const;
};

/// printf-style progress line on stderr.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Logs a failed op or check to stderr and marks the run incorrect.
void Fail(Report* report, const std::string& what);

}  // namespace perfbench
