// microbatch_concurrent: four driver threads share one CleanDB. Driver i
// owns table customer<i> and an 8-FD query prepared over it; each op
// registers the next batch from a seeded pool as a new major generation of
// that table and runs ExecuteInto. Per-operator dispatch, table-lock and
// partition-cache churn dominate; the incremental path is never taken.
#include <atomic>
#include <thread>

#include "storage/csv.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kDrivers = 4;
constexpr size_t kPoolBatches = 9;  // odd: traced/untraced ops cover every batch
constexpr BatchShape kShape = {/*base_rows=*/400, /*violators=*/20, /*dup_customers=*/40,
                               /*copies=*/4};
constexpr double kNominalOpsPerS = 90;
constexpr int kSetupRepetitions = 5;

uint64_t BatchSeed(uint64_t seed, size_t k) { return seed * 1000 + 500 + k; }

std::string TableOf(size_t driver) { return "customer" + std::to_string(driver); }

/// Batch of driver `d`'s `j`-th op: drivers walk the pool in lockstep
/// offsets, so concurrent ops work on different batches.
size_t BatchOf(size_t d, size_t j) { return (j * kDrivers + d) % kPoolBatches; }

struct DriverResult {
  std::vector<double> latency_ms;
  std::vector<bool> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t violations = 0;
  std::map<std::string, double> op_seconds;
  int64_t check_ns = 0;  ///< time spent checking outputs inside the loop
  int64_t end_ns = 0;
};

}  // namespace

RunData RunMicrobatchConcurrent(const Args& args, Report* report) {
  RunData data;
  if (args.trace) data.spans = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = data.spans.get();

  std::vector<std::string> batch_paths;
  for (size_t k = 0; k < kPoolBatches; k++) {
    batch_paths.push_back(args.workdir + "/customer_" + std::to_string(k) + ".csv");
    const Status st = WriteCsvChecked(
        MakeBatch(kShape, BatchSeed(args.seed, k)), batch_paths.back());
    if (!st.ok()) {
      Fail(report, st.ToString());
      return data;
    }
  }

  // Setup, repeated: load the pool, register every driver's table, prepare
  // every driver's query, and run one warm-up execution per driver.
  std::unique_ptr<cleanm::CleanDB> db;
  std::vector<cleanm::PreparedQuery> queries;
  std::vector<Dataset> pool;
  for (int rep = 0; rep < kSetupRepetitions; rep++) {
    queries.clear();
    db.reset();
    pool.clear();
    const int64_t t0 = NowNs();
    db = std::make_unique<cleanm::CleanDB>();
    {
      ScopedSpan load(rec, "load", -1, -1);
      for (const auto& path : batch_paths) pool.push_back(cleanm::ReadCsv(path).ValueOrDie());
    }
    data.load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    for (size_t d = 0; d < kDrivers; d++) {
      {
        ScopedSpan reg(rec, "register", -1, -1);
        db->RegisterTable(TableOf(d), pool[d % kPoolBatches]);
      }
      auto pq = PrepareTraced(*db, EightFdQuery(TableOf(d)), rec, -1, -1);
      Status st = pq.status();
      if (pq.ok()) {
        RecordingSink warm;
        ScopedSpan exec(rec, "execute", -1, -1);
        warm.Reset(rec, -1, exec.id());
        st = pq.value().ExecuteInto(warm);
        queries.push_back(std::move(pq.value()));
      }
      if (!st.ok()) {
        Fail(report, "microbatch_concurrent warm-up: " + st.ToString());
        return data;
      }
    }
    data.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // References: each batch on fresh single-driver sessions. Concurrent
  // ops must match them.
  std::vector<Reference> expected;
  for (size_t k = 0; k < kPoolBatches; k++) {
    auto ref = ComputeReference(EightFdQuery("customer"), {{"customer", pool[k]}});
    if (!ref.ok()) {
      Fail(report, "microbatch_concurrent reference: " + ref.status().ToString());
      return data;
    }
    expected.push_back(ref.value());
  }
  Log("microbatch_concurrent: setup %.3f s (median of %d), references ready",
      Median(data.setup_s), kSetupRepetitions);

  const size_t ops_per_driver =
      std::max<size_t>(1, OpsFor(args.seconds, kNominalOpsPerS) / kDrivers);
  std::vector<DriverResult> results(kDrivers);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  auto driver = [&](size_t d) {
    DriverResult& out = results[d];
    RecordingSink sink;
    ready++;
    while (!go.load()) std::this_thread::yield();
    for (size_t j = 0; j < ops_per_driver; j++) {
      const size_t k = BatchOf(d, j);
      Dataset batch = pool[k];  // the copy is not part of the op
      SpanRecorder* op_rec = TracedOp(args, j) ? rec : nullptr;
      const auto op = static_cast<int64_t>(j * kDrivers + d);
      const int64_t t0 = NowNs();
      Status st;
      try {  // nothing may escape a driver thread: an exception fails the op
        ScopedSpan op_span(op_rec, "op", op, -1);
        {
          ScopedSpan reg(op_rec, "register", op, op_span.id());
          db->RegisterTable(TableOf(d), std::move(batch));
        }
        ScopedSpan exec(op_rec, "execute", op, op_span.id());
        sink.Reset(op_rec, op, exec.id());
        st = queries[d].ExecuteInto(sink);
      } catch (const std::exception& e) {
        st = Status::Internal(std::string("exception: ") + e.what());
      }
      out.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      out.traced.push_back(op_rec != nullptr);
      out.attempted++;
      // Fingerprinting is cheap next to the op (memoized hashes of a few
      // hundred violations), so it stays inline in the closed loop.
      const int64_t check_start = NowNs();
      const std::string problem = st.ok() ? Mismatch(sink, expected[k]) : st.ToString();
      out.check_ns += NowNs() - check_start;
      if (!problem.empty()) {
        out.failed++;
        Log("FAILED: microbatch_concurrent driver %zu op %zu: %s", d, j, problem.c_str());
      }
      out.violations += sink.count(RecordingSink::kPersist) + sink.count(RecordingSink::kNew);
      for (const auto& [family, s] : sink.op_seconds()) out.op_seconds[family] += s;
    }
    out.end_ns = NowNs();
  };

  std::unique_ptr<ThreadSampler> sampler;
  if (args.trace) sampler = std::make_unique<ThreadSampler>();
  std::vector<std::thread> threads;
  for (size_t d = 0; d < kDrivers; d++) threads.emplace_back(driver, d);
  while (ready.load() < kDrivers) std::this_thread::yield();
  const SessionProbe probe = SessionProbe::Take(*db);
  const int64_t run_start = NowNs();
  go.store(true);
  for (auto& t : threads) t.join();
  int64_t run_end = run_start;
  for (const auto& r : results) run_end = std::max(run_end, r.end_ns);
  data.wall_s = static_cast<double>(run_end - run_start) / 1e9;
  data.peak_rss_mb = PeakRssMb();

  // Pool the drivers' ops in global op order (op j of driver d is j·4 + d).
  for (size_t j = 0; j < ops_per_driver; j++) {
    for (size_t d = 0; d < kDrivers; d++) {
      data.latency_ms.push_back(results[d].latency_ms[j]);
      data.traced.push_back(results[d].traced[j]);
    }
  }
  for (const auto& r : results) {
    data.attempted += r.attempted;
    data.failed += r.failed;
    data.violations += r.violations;
    for (const auto& [family, s] : r.op_seconds) data.op_seconds[family] += s;
  }
  probe.DeltaInto(*db, &data, /*with_rusage=*/true);
  if (sampler) {
    sampler->Stop();
    sampler->Exclude(data.wall_s, &data.rusage);
    data.threads_peak = sampler->peak();
  }
  if (data.failed > 0) report->correct = false;
  int64_t check_ns = 0;
  for (const auto& r : results) check_ns += r.check_ns;
  Log("microbatch_concurrent: %zu ops by %zu drivers in %.2f s (output checks: %.2f driver-s)",
      static_cast<size_t>(data.attempted), kDrivers, data.wall_s,
      static_cast<double>(check_ns) / 1e9);
  return data;
}

}  // namespace perfbench
