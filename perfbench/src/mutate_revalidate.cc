// mutate_revalidate: a long-lived session over a large, mostly clean
// customer table. The 8-FD query is prepared once; each op applies one
// seeded mutation of ~0.1% of the table and re-validates with ExecuteInto,
// which the incremental delta path serves.
//
// Mutations come in rounds of three ops: append round r's rows (most are
// fresh customers, a tenth are copies of existing customers with a bumped
// nationkey that land in existing groups and break several FDs), update
// the fresh rows of round r by custkey, then delete round r−1's rows. The
// table size stays constant.
#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/random.h"
#include "storage/csv.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr BatchShape kShape = {/*base_rows=*/60000, /*violators=*/300,
                               /*dup_customers=*/600, /*copies=*/2};
constexpr double kNominalOpsPerS = 12;
constexpr int kSetupRepetitions = 3;
constexpr size_t kCheckpoints = 1;  // seeded, plus the last op

enum class Mutation { kAppend, kUpdate, kDelete };

/// The seeded mutation script over the base table. Round 0's append ends
/// setup; timed op i belongs to round i / 3 + 1.
class Script {
 public:
  Script(const Dataset& base, uint64_t seed)
      : delta_rows_(std::max<size_t>(3, base.num_rows() / 1000)),
        violating_(std::max<size_t>(1, delta_rows_ / 10)),
        seed_(seed),
        base_(base) {}

  static Mutation KindOf(size_t op) { return static_cast<Mutation>(op % 3); }
  static size_t RoundOf(size_t op) { return op / 3 + 1; }

  /// Rows round r appends. Custkeys are fresh, so rounds delete cleanly.
  std::vector<cleanm::Row> Append(size_t r) const {
    cleanm::Rng rng(seed_ * 7919 + r);
    std::vector<cleanm::Row> rows;
    rows.reserve(delta_rows_);
    for (size_t i = 0; i < delta_rows_; i++) {
      const int64_t key = Key(r, i);
      if (i < violating_) {
        cleanm::Row row = base_.row(rng.Uniform(base_.num_rows()));
        row[0] = Value(key);
        row[4] = Value(row[4].AsInt() + 100 + static_cast<int64_t>(r % 7));
        rows.push_back(std::move(row));
      } else {
        const std::string tag = std::to_string(key);
        rows.push_back({Value(key), Value("fresh customer " + tag),
                        Value("fresh lane " + tag), Value("9" + tag.substr(tag.size() - 2) + "-" + tag),
                        Value(static_cast<int64_t>(key % 25))});
      }
    }
    return rows;
  }

  /// Custkeys round r's update touches (its fresh rows) and the nationkey
  /// it sets.
  std::unordered_set<int64_t> UpdateKeys(size_t r) const {
    std::unordered_set<int64_t> keys;
    for (size_t i = violating_; i < delta_rows_; i++) keys.insert(Key(r, i));
    return keys;
  }
  static Value UpdateValue(size_t r) { return Value(static_cast<int64_t>(1000 + r)); }

  /// Custkeys round r's delete removes: every row round r−1 appended.
  std::unordered_set<int64_t> DeleteKeys(size_t r) const {
    std::unordered_set<int64_t> keys;
    for (size_t i = 0; i < delta_rows_; i++) keys.insert(Key(r - 1, i));
    return keys;
  }

  size_t Expected(Mutation m) const {
    return m == Mutation::kUpdate ? delta_rows_ - violating_ : delta_rows_;
  }

  /// Applies op `op` (or round 0's append for op == -1) to a plain mirror
  /// of the table, the way CleanDB's mutation calls define it.
  void ApplyToMirror(int64_t op, Dataset* mirror) const {
    if (op < 0) {
      for (auto& row : Append(0)) mirror->Append(std::move(row));
      return;
    }
    const auto i = static_cast<size_t>(op);
    const size_t r = RoundOf(i);
    auto& rows = mirror->mutable_rows();
    switch (KindOf(i)) {
      case Mutation::kAppend:
        for (auto& row : Append(r)) mirror->Append(std::move(row));
        break;
      case Mutation::kUpdate: {
        const auto keys = UpdateKeys(r);
        for (auto& row : rows) {
          if (keys.count(row[0].AsInt())) row[4] = UpdateValue(r);
        }
        break;
      }
      case Mutation::kDelete: {
        const auto keys = DeleteKeys(r);
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&](const cleanm::Row& row) {
                                    return keys.count(row[0].AsInt()) != 0;
                                  }),
                   rows.end());
        break;
      }
    }
  }

 private:
  int64_t Key(size_t r, size_t i) const {
    return static_cast<int64_t>(1000000000ull + r * delta_rows_ + i);
  }

  size_t delta_rows_;
  size_t violating_;
  uint64_t seed_;
  const Dataset& base_;
};

/// The delta_incremental shape — 1% duplicated customers, 0.5% FD
/// violations — with unique names (datagen's small name pool would
/// otherwise flood the name-keyed FDs with violations unrelated to the
/// mutations).
Dataset MakeBase(uint64_t seed) {
  Dataset d = MakeBatch(kShape, seed);
  size_t i = 0;
  for (auto& row : d.mutable_rows()) {
    row[1] = Value(row[1].AsString() + " #" + std::to_string(i++));
  }
  return d;
}

/// Full violation set of a cold execution of `query` over `table`.
cleanm::Result<Fingerprint> ColdFingerprint(Dataset table, const std::string& query) {
  cleanm::CleanDB cold;
  cold.RegisterTable("customer", std::move(table));
  auto pq = cold.Prepare(query);
  if (!pq.ok()) return pq.status();
  RecordingSink sink;
  sink.Reset(nullptr, -1, -1);
  CLEANM_RETURN_NOT_OK(pq.value().ExecuteInto(sink));
  return sink.Fingerprints().current;
}

/// Runs one mutation through the public API.
cleanm::Result<cleanm::CleanDB::MutationResult> Mutate(cleanm::CleanDB& db,
                                                       const Script& script, size_t op,
                                                       std::vector<cleanm::Row> rows) {
  const size_t r = Script::RoundOf(op);
  switch (Script::KindOf(op)) {
    case Mutation::kAppend:
      return db.AppendRows("customer", std::move(rows));
    case Mutation::kUpdate: {
      const auto keys = script.UpdateKeys(r);
      cleanm::ValueStruct sets;
      sets.emplace_back("nationkey", Script::UpdateValue(r));
      return db.UpdateRows(
          "customer",
          [&](const cleanm::Schema&, const cleanm::Row& row) {
            return keys.count(row[0].AsInt()) != 0;
          },
          sets);
    }
    case Mutation::kDelete: {
      const auto keys = script.DeleteKeys(r);
      return db.DeleteRows("customer", [&](const cleanm::Schema&, const cleanm::Row& row) {
        return keys.count(row[0].AsInt()) != 0;
      });
    }
  }
  return cleanm::Status::Internal("unknown mutation");
}

const char* SpanName(Mutation m) {
  switch (m) {
    case Mutation::kAppend: return "append";
    case Mutation::kUpdate: return "update";
    case Mutation::kDelete: return "delete";
  }
  return "mutate";
}

}  // namespace

RunData RunMutateRevalidate(const Args& args, Report* report) {
  RunData data;
  if (args.trace) data.spans = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = data.spans.get();
  const std::string query = EightFdQuery("customer");
  const std::string base_path = args.workdir + "/customer.csv";
  // The generated table stays in memory as the script's source of copied
  // customers and the start of the replay the checkpoints compare against.
  const Dataset base = MakeBase(args.seed);
  {
    const Status st = WriteCsvChecked(base, base_path);
    if (!st.ok()) {
      Fail(report, st.ToString());
      return data;
    }
  }
  const Script script(base, args.seed);

  // Setup, repeated: load, register, prepare, bootstrap, then round 0's
  // append and the first re-validation. The last repetition serves the run.
  std::unique_ptr<cleanm::CleanDB> db;
  std::unique_ptr<cleanm::PreparedQuery> pq;
  Fingerprint previous;  // the violation set after the last execution
  for (int rep = 0; rep < kSetupRepetitions; rep++) {
    pq.reset();
    db.reset();
    const int64_t t0 = NowNs();
    db = std::make_unique<cleanm::CleanDB>();
    Dataset loaded;
    {
      ScopedSpan load(rec, "load", -1, -1);
      loaded = cleanm::ReadCsv(base_path).ValueOrDie();
    }
    data.load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    {
      ScopedSpan reg(rec, "register", -1, -1);
      db->RegisterTable("customer", std::move(loaded));
    }
    auto prepared = PrepareTraced(*db, query, rec, -1, -1);
    if (!prepared.ok()) {
      Fail(report, "mutate_revalidate prepare: " + prepared.status().ToString());
      return data;
    }
    pq = std::make_unique<cleanm::PreparedQuery>(std::move(prepared.value()));
    RecordingSink sink;
    Status st;
    const int64_t t_boot = NowNs();
    {
      ScopedSpan exec(rec, "execute", -1, -1);
      sink.Reset(rec, -1, exec.id());
      st = pq->ExecuteInto(sink);
    }
    data.bootstrap_ms.push_back(static_cast<double>(NowNs() - t_boot) / 1e6);
    std::vector<cleanm::Row> rows = script.Append(0);
    if (st.ok()) {
      ScopedSpan append(rec, "append", -1, -1);
      st = db->AppendRows("customer", std::move(rows)).status();
    }
    const int64_t t_inc = NowNs();
    if (st.ok()) {
      ScopedSpan exec(rec, "execute", -1, -1);
      sink.Reset(rec, -1, exec.id());
      st = pq->ExecuteInto(sink);
    }
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      Fail(report, "mutate_revalidate setup: " + st.ToString());
      return data;
    }
    data.first_incremental_ms.push_back(static_cast<double>(t1 - t_inc) / 1e6);
    data.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    previous = sink.Fingerprints().current;
  }

  Log("mutate_revalidate: setup %.3f s (median of %d): bootstrap %.0f ms, first re-validation "
      "%.0f ms",
      Median(data.setup_s), kSetupRepetitions, Median(data.bootstrap_ms),
      Median(data.first_incremental_ms));
  const size_t ops = OpsFor(args.seconds, kNominalOpsPerS);
  // Seeded checkpoints (outside the timer) plus the last op.
  std::map<size_t, Fingerprint> checkpoints;
  {
    cleanm::Rng rng(args.seed * 31 + 7);
    for (size_t c = 0; c < kCheckpoints && ops > 1; c++) checkpoints[rng.Uniform(ops - 1)];
    checkpoints[ops - 1];
  }

  RecordingSink sink;
  const SessionProbe probe = SessionProbe::Take(*db);
  std::set<size_t> failed_ops;
  for (size_t i = 0; i < ops; i++) {
    const Mutation kind = Script::KindOf(i);
    std::vector<cleanm::Row> rows;  // built before the timer
    if (kind == Mutation::kAppend) rows = script.Append(Script::RoundOf(i));
    SpanRecorder* op_rec = TracedOp(args, i) ? rec : nullptr;
    const auto op = static_cast<int64_t>(i);
    OpProbe op_probe(op_rec != nullptr, &data);
    const int64_t t0 = NowNs();
    Status st;
    size_t affected = 0;
    {
      ScopedSpan op_span(op_rec, "op", op, -1);
      cleanm::Result<cleanm::CleanDB::MutationResult> mutated = [&] {
        ScopedSpan m(op_rec, SpanName(kind), op, op_span.id());
        return Mutate(*db, script, i, std::move(rows));
      }();
      st = mutated.status();
      if (st.ok()) {
        affected = mutated.value().rows_affected;
        ScopedSpan exec(op_rec, "execute", op, op_span.id());
        sink.Reset(op_rec, op, exec.id());
        st = pq->ExecuteInto(sink);
      }
    }
    data.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    op_probe.Finish();
    data.traced.push_back(op_rec != nullptr);
    data.attempted++;
    data.reexecutions++;

    // The stream is a diff: previous − retracted must be what persisted,
    // and persisted + new is the new violation set.
    const RecordingSink::Digest digest = sink.Fingerprints();
    Fingerprint kept = previous;
    kept -= digest.by_kind[RecordingSink::kRetracted];
    const Fingerprint& current = digest.current;
    std::string problem;
    if (!st.ok()) {
      problem = st.ToString();
    } else if (affected != script.Expected(kind)) {
      problem = "mutation touched " + std::to_string(affected) + " rows, expected " +
                std::to_string(script.Expected(kind));
    } else if (kept != digest.by_kind[RecordingSink::kPersist]) {
      problem = "previous violations minus retractions differ from the persisting ones";
    }
    if (!problem.empty()) {
      failed_ops.insert(i);
      Fail(report, "mutate_revalidate op " + std::to_string(i) + ": " + problem);
    }
    previous = current;
    if (checkpoints.count(i)) checkpoints[i] = current;
    data.violations += current.count;
    data.retracted += sink.count(RecordingSink::kRetracted);
    data.added += sink.count(RecordingSink::kNew);
    for (const auto& [family, s] : sink.op_seconds()) data.op_seconds[family] += s;
  }
  // One driver: the timed wall is the op timers' sum (the output checks
  // between ops run outside it).
  for (double ms : data.latency_ms) data.wall_s += ms / 1e3;
  data.peak_rss_mb = PeakRssMb();
  probe.DeltaInto(*db, &data, /*with_rusage=*/false);
  Log("mutate_revalidate: %zu ops in %.2f s", ops, data.wall_s);

  // Checkpoints: replay the script on a plain mirror of the base table and
  // compare a cold execution over it with the session's violation set.
  pq.reset();
  db.reset();
  Dataset mirror = base;
  script.ApplyToMirror(-1, &mirror);
  size_t replayed = 0;
  for (const auto& [op, expected] : checkpoints) {
    for (; replayed <= op; replayed++) {
      script.ApplyToMirror(static_cast<int64_t>(replayed), &mirror);
    }
    auto cold = ColdFingerprint(mirror, query);
    if (!cold.ok() || cold.value() != expected) {
      failed_ops.insert(op);
      Fail(report, "mutate_revalidate op " + std::to_string(op) + ": " +
                       (cold.ok() ? "violations differ from a cold execution"
                                  : cold.status().ToString()));
    }
  }
  data.failed = failed_ops.size();
  Log("mutate_revalidate: %zu checkpoints compared with cold executions", checkpoints.size());
  return data;
}

}  // namespace perfbench
