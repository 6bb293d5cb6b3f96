// The three benchmark workloads. Each drives one CleanDB session through
// its public API, checks every op's output, and returns the raw
// measurements that main.cc turns into the reported metrics.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "physical/partition_cache.h"

namespace perfbench {

/// Raw measurements of one run. Times in ms unless named otherwise.
struct RunData {
  /// Wall time of each setup repetition, in seconds.
  std::vector<double> setup_s;
  /// ReadCsv time of each setup repetition (all inputs).
  std::vector<double> load_ms;
  /// Cold bootstrap execution and the first re-validation after it, per
  /// setup repetition (mutate_revalidate only).
  std::vector<double> bootstrap_ms;
  std::vector<double> first_incremental_ms;

  /// Per timed op, in op order (drivers' ops interleaved by index).
  std::vector<double> latency_ms;
  /// Parallel to latency_ms: the op ran with bench spans (traced runs only).
  std::vector<bool> traced;
  /// Timed wall time across all drivers, in seconds.
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Peak RSS read right after the timed ops, before the post-run checks.
  double peak_rss_mb = 0;

  // Movement over the timed ops.
  Rusage rusage;
  uint64_t rusage_ops = 0;  ///< ops `rusage` covers
  std::map<std::string, double> counters;  ///< ExportMetricsText deltas
  cleanm::PartitionCache::Stats cache;
  /// Executions that followed a mutation (the incremental path's candidates).
  uint64_t reexecutions = 0;
  size_t violations = 0;  ///< violations streamed (persisting + new)
  size_t retracted = 0;
  size_t added = 0;  ///< OnViolationNew
  std::map<std::string, double> op_seconds;  ///< OpSummary::seconds by family
  int threads_peak = 0;                      ///< traced runs only

  /// Bench-side spans (traced runs only).
  std::unique_ptr<SpanRecorder> spans;
};

RunData RunFuzzyClean(const Args& args, Report* report);
RunData RunMutateRevalidate(const Args& args, Report* report);
RunData RunMicrobatchConcurrent(const Args& args, Report* report);

// ---- Shared helpers (workloads.cc) ----

/// Number of timed ops for a run of `seconds` at the workload's nominal
/// rate: fixed by the arguments, so two builds compared on the same
/// arguments do identical work however fast they are.
size_t OpsFor(double seconds, double nominal_ops_per_s);

/// True when op `i` of a traced run carries bench spans (every other op,
/// so trace.overhead compares traced and untraced ops of one run).
inline bool TracedOp(const Args& args, size_t i) { return args.trace && i % 2 == 1; }

/// Sizes of a generated customer batch. Batches follow datagen's customer
/// model (address groups sharing a phone prefix and nationkey, injected FD
/// violations, duplicates that edit name and phone but keep the address),
/// but with the structure fixed: `base_rows` customers spread evenly over
/// base_rows/5 addresses, exactly `violators` FD violations, and
/// `dup_customers` customers repeated `copies` times each.
struct BatchShape {
  size_t base_rows;
  size_t violators;
  size_t dup_customers;
  size_t copies;
};

/// One batch of `shape`. The seed picks names, phone numbers, which
/// customers violate or repeat, the noise, and the row order — never the
/// sizes or the group structure, so an op's cost does not swing with the
/// seed.
Dataset MakeBatch(const BatchShape& shape, uint64_t seed);

/// The clean names of MakeBatch(shape, seed): its customers before the
/// duplicates' noise.
std::vector<std::string> CleanNames(const BatchShape& shape, uint64_t seed);

/// The 8-FD prepared query of mutate_revalidate and microbatch_concurrent,
/// over `table`.
std::string EightFdQuery(const std::string& table);

/// Prepares `text`: in traced form as ParseCleanM + PrepareQuery under
/// "parse" and "prepare" spans (so parse time shows on its own), else as
/// one Prepare call.
cleanm::Result<cleanm::PreparedQuery> PrepareTraced(cleanm::CleanDB& db,
                                                    const std::string& text,
                                                    SpanRecorder* rec, int64_t op,
                                                    int parent);

/// Reference violation sets of one input, from two fresh single-driver
/// sessions: the default (unified) plan forms give the exact fingerprint,
/// the standalone forms (unify_operations=false) the identity fingerprint.
struct Reference {
  Fingerprint exact;
  Fingerprint identity;
  size_t dirty_entities = 0;
};
cleanm::Result<Reference> ComputeReference(
    const std::string& query, const std::vector<std::pair<std::string, Dataset>>& tables);

/// Why `sink`'s last execution does not match `ref` (empty when it does).
std::string Mismatch(const RecordingSink& sink, const Reference& ref);

/// Process probes around one single-driver op. Untraced ops add their
/// getrusage delta to the run's; traced ops run a ThreadSampler instead,
/// whose own wakeups would otherwise pollute those deltas.
class OpProbe {
 public:
  OpProbe(bool traced, RunData* data);
  /// Call once the op's latency is recorded.
  void Finish();

 private:
  RunData* data_;
  std::unique_ptr<ThreadSampler> sampler_;
  Rusage start_;
};

/// Snapshot of the session state the timed-section deltas are taken from.
struct SessionProbe {
  Rusage rusage;
  std::map<std::string, double> counters;
  cleanm::PartitionCache::Stats cache;
  static SessionProbe Take(cleanm::CleanDB& db);
  /// Stores the movement since `*this` into `data` (rusage only when
  /// `with_rusage`; single-driver workloads sum OpProbe deltas instead).
  void DeltaInto(cleanm::CleanDB& db, RunData* data, bool with_rusage) const;
};

}  // namespace perfbench
