// fuzzy_clean: the README's motivating query — an FD, a token-filtering
// DEDUP and a dictionary CLUSTER BY in one plan — run cold on each new
// customer batch. One driver; each op is RegisterTable of the next batch
// from a seeded pool (a new major generation, so every scan and Nest runs
// cold) followed by Prepare + ExecuteInto.
#include <set>

#include "storage/csv.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kQuery = R"(
  SELECT * FROM customer c, dictionary d
  FD(c.address, prefix(c.phone))
  DEDUP(token filtering, LD, 0.8, c.address)
  CLUSTER BY(token filtering, LD, 0.8, c.name)
)";

constexpr size_t kPoolBatches = 15;  // odd: traced/untraced ops cover every batch
constexpr BatchShape kShape = {/*base_rows=*/36, /*violators=*/2, /*dup_customers=*/4,
                               /*copies=*/3};
constexpr double kNominalOpsPerS = 12;
constexpr int kSetupRepetitions = 5;
constexpr size_t kWarmupBatches = 3;

uint64_t BatchSeed(uint64_t seed, size_t k) { return seed * 1000 + k; }

/// The clean names of every batch of the pool.
Dataset MakeDictionary(uint64_t seed) {
  std::set<std::string> names;
  for (size_t k = 0; k < kPoolBatches; k++) {
    for (auto& n : CleanNames(kShape, BatchSeed(seed, k))) names.insert(std::move(n));
  }
  Dataset dict(cleanm::Schema{{"name", cleanm::ValueType::kString}});
  for (const auto& n : names) dict.Append({Value(n)});
  return dict;
}

}  // namespace

RunData RunFuzzyClean(const Args& args, Report* report) {
  RunData data;
  if (args.trace) data.spans = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = data.spans.get();

  // Inputs: generated from the seed, written to CSV, loaded back in setup.
  const std::string dict_path = args.workdir + "/dictionary.csv";
  std::vector<std::string> batch_paths;
  {
    const Status st = WriteCsvChecked(MakeDictionary(args.seed), dict_path);
    if (!st.ok()) Fail(report, st.ToString());
    for (size_t k = 0; k < kPoolBatches; k++) {
      batch_paths.push_back(args.workdir + "/customer_" + std::to_string(k) + ".csv");
      const Status bst = WriteCsvChecked(
          MakeBatch(kShape, BatchSeed(args.seed, k)), batch_paths.back());
      if (!bst.ok()) Fail(report, bst.ToString());
    }
  }
  if (!report->correct) return data;

  // Setup, repeated: load every input, register the dictionary, prepare,
  // and run warm-up executions over the first batches. The last
  // repetition's session serves the run.
  std::unique_ptr<cleanm::CleanDB> db;
  std::vector<Dataset> pool;
  for (int rep = 0; rep < kSetupRepetitions; rep++) {
    db.reset();
    pool.clear();
    const int64_t t0 = NowNs();
    db = std::make_unique<cleanm::CleanDB>();
    Dataset dict;
    {
      ScopedSpan load(rec, "load", -1, -1);
      dict = cleanm::ReadCsv(dict_path).ValueOrDie();
      for (const auto& path : batch_paths) pool.push_back(cleanm::ReadCsv(path).ValueOrDie());
    }
    data.load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    {
      ScopedSpan reg(rec, "register", -1, -1);
      db->RegisterTable("dictionary", std::move(dict));
    }
    Status st;
    for (size_t k = 0; k < kWarmupBatches && st.ok(); k++) {
      {
        ScopedSpan reg(rec, "register", -1, -1);
        db->RegisterTable("customer", pool[k]);
      }
      auto pq = PrepareTraced(*db, kQuery, rec, -1, -1);
      st = pq.status();
      if (pq.ok()) {
        RecordingSink warm;
        ScopedSpan exec(rec, "execute", -1, -1);
        warm.Reset(rec, -1, exec.id());
        st = pq.value().ExecuteInto(warm);
      }
    }
    if (!st.ok()) {
      Fail(report, "fuzzy_clean warm-up execution: " + st.ToString());
      return data;
    }
    data.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // References: each batch on fresh single-driver sessions.
  std::vector<Reference> expected;
  {
    const Dataset dict = cleanm::ReadCsv(dict_path).ValueOrDie();
    for (size_t k = 0; k < kPoolBatches; k++) {
      auto ref = ComputeReference(kQuery, {{"dictionary", dict}, {"customer", pool[k]}});
      if (!ref.ok()) {
        Fail(report, "fuzzy_clean reference: " + ref.status().ToString());
        return data;
      }
      expected.push_back(ref.value());
    }
  }
  Log("fuzzy_clean: setup %.3f s (median of %d), references ready", Median(data.setup_s),
      kSetupRepetitions);

  const size_t ops = OpsFor(args.seconds, kNominalOpsPerS);
  RecordingSink sink;
  const SessionProbe probe = SessionProbe::Take(*db);
  for (size_t i = 0; i < ops; i++) {
    const size_t k = i % kPoolBatches;
    Dataset batch = pool[k];  // the copy is not part of the op
    SpanRecorder* op_rec = TracedOp(args, i) ? rec : nullptr;
    const auto op = static_cast<int64_t>(i);
    OpProbe op_probe(op_rec != nullptr, &data);
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan op_span(op_rec, "op", op, -1);
      {
        ScopedSpan reg(op_rec, "register", op, op_span.id());
        db->RegisterTable("customer", std::move(batch));
      }
      auto pq = PrepareTraced(*db, kQuery, op_rec, op, op_span.id());
      if (pq.ok()) {
        ScopedSpan exec(op_rec, "execute", op, op_span.id());
        sink.Reset(op_rec, op, exec.id());
        st = pq.value().ExecuteInto(sink);
      } else {
        st = pq.status();
      }
    }
    data.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    op_probe.Finish();
    data.traced.push_back(op_rec != nullptr);
    data.attempted++;

    const std::string problem = st.ok() ? Mismatch(sink, expected[k]) : st.ToString();
    if (!problem.empty()) {
      data.failed++;
      Fail(report, "fuzzy_clean op " + std::to_string(i) + " (batch " + std::to_string(k) +
                       "): " + problem);
    }
    data.violations += sink.count(RecordingSink::kPersist) + sink.count(RecordingSink::kNew);
    for (const auto& [family, s] : sink.op_seconds()) data.op_seconds[family] += s;
  }
  // One driver: the timed wall is the op timers' sum (the output checks
  // between ops run outside it).
  for (double ms : data.latency_ms) data.wall_s += ms / 1e3;
  data.peak_rss_mb = PeakRssMb();
  probe.DeltaInto(*db, &data, /*with_rusage=*/false);
  Log("fuzzy_clean: %zu ops in %.2f s", ops, data.wall_s);
  return data;
}

}  // namespace perfbench
