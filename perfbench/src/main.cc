// CleanDB benchmark driver: runs one workload in this process and prints
// its result as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload <fuzzy_clean|mutate_revalidate|microbatch_concurrent>
//                    --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// with bench-side spans on every other op and reports the per-layer
// metrics instead. Logs go to stderr.
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void EndToEnd(const RunData& d, Report* r) {
  r->Add("setup_s", Median(d.setup_s), "s");
  r->Add("ops_per_s", Ratio(static_cast<double>(d.attempted), d.wall_s), "ops/s");
  r->Add("latency_p50_ms", Quantile(d.latency_ms, 0.5), "ms");
  r->Add("latency_p90_ms", Quantile(d.latency_ms, 0.9), "ms");
  r->Add("peak_rss_mb", d.peak_rss_mb, "MiB");
}

void PerLayer(const RunData& d, Report* r) {
  const SpanRecorder& spans = *d.spans;
  const auto ops = static_cast<double>(d.attempted);
  size_t traced_ops = 0;
  std::vector<double> traced, untraced;
  for (size_t i = 0; i < d.latency_ms.size(); i++) {
    (d.traced[i] ? traced : untraced).push_back(d.latency_ms[i]);
    traced_ops += d.traced[i] ? 1 : 0;
  }
  // Median self time per call over the timed ops; parse/prepare fall back
  // to the setup calls on workloads that prepare only in setup.
  auto per_call = [&](const char* name, bool setup_fallback) {
    auto v = spans.SelfMs(name);
    if (v.empty() && setup_fallback) v = spans.SelfMs(name, /*setup=*/true);
    return Median(v);
  };
  auto counter = [&](const char* name) {
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : it->second;
  };
  auto op_family_ms = [&](const char* family) {
    const auto it = d.op_seconds.find(family);
    return it == d.op_seconds.end() ? 0.0 : it->second * 1e3 / ops;
  };
  const size_t tenth = std::max<size_t>(1, d.latency_ms.size() / 10);
  const std::vector<double> first(d.latency_ms.begin(), d.latency_ms.begin() + tenth);
  const std::vector<double> last(d.latency_ms.end() - tenth, d.latency_ms.end());

  r->Add("storage.load_ms", Median(d.load_ms), "ms");
  r->Add("language.parse_ms", per_call("parse", true), "ms");
  r->Add("cleaning.prepare_ms", per_call("prepare", true), "ms");
  r->Add("cleaning.register_ms", per_call("register", false), "ms");
  r->Add("cleaning.execute_ms", per_call("execute", false), "ms");
  r->Add("cleaning.sink_ms", Ratio(Sum(spans.SelfMs("sink")), static_cast<double>(traced_ops)),
         "ms");
  r->Add("cleaning.op.FD_ms", op_family_ms("FD"), "ms");
  r->Add("cleaning.op.DEDUP_ms", op_family_ms("DEDUP"), "ms");
  r->Add("cleaning.op.CLUSTER_BY_ms", op_family_ms("CLUSTER BY"), "ms");
  r->Add("cleaning.append_ms", per_call("append", false), "ms");
  r->Add("cleaning.update_ms", per_call("update", false), "ms");
  r->Add("cleaning.delete_ms", per_call("delete", false), "ms");
  r->Add("cleaning.bootstrap_ms", Median(d.bootstrap_ms), "ms");
  r->Add("cleaning.first_incremental_ms", Median(d.first_incremental_ms), "ms");
  r->Add("cleaning.latency_drift", Ratio(Median(last), Median(first)), "ratio");
  r->Add("cleaning.violations_per_op", Ratio(static_cast<double>(d.violations), ops), "count");
  r->Add("cleaning.retracted_per_op", Ratio(static_cast<double>(d.retracted), ops), "count");
  r->Add("cleaning.new_per_op", Ratio(static_cast<double>(d.added), ops), "count");
  r->Add("cleaning.delta_rows_processed", Ratio(counter("delta_rows_processed"), ops), "rows");
  r->Add("cleaning.groups_remerged", Ratio(counter("groups_remerged"), ops), "count");
  r->Add("cleaning.incremental_ratio",
         Ratio(counter("incremental_executions"), static_cast<double>(d.reexecutions)), "ratio");
  r->Add("engine.rows_shuffled", Ratio(counter("rows_shuffled"), ops), "rows");
  r->Add("engine.bytes_shuffled", Ratio(counter("bytes_shuffled"), ops), "bytes");
  r->Add("engine.shuffle_batches", Ratio(counter("shuffle_batches"), ops), "count");
  r->Add("engine.network_model_ms",
         Ratio(counter("bytes_shuffled") * cleanm::CleanDBOptions{}.shuffle_ns_per_byte / 1e6,
               ops),
         "ms");
  r->Add("engine.rows_scanned", Ratio(counter("rows_scanned"), ops), "rows");
  r->Add("engine.groups_built", Ratio(counter("groups_built"), ops), "count");
  r->Add("engine.morsels_processed", Ratio(counter("morsels_processed"), ops), "count");
  r->Add("engine.peak_bytes_materialized", counter("peak_bytes_materialized") / (1 << 20),
         "MiB");
  r->Add("engine.tasks_failed", counter("tasks_failed"), "count");
  r->Add("engine.threads_peak", d.threads_peak, "count");
  const auto& c = d.cache;
  r->Add("physical.scan_hit_ratio",
         Ratio(static_cast<double>(c.scan_hits), static_cast<double>(c.scan_hits + c.scan_misses)),
         "ratio");
  r->Add("physical.nest_hit_ratio",
         Ratio(static_cast<double>(c.nest_hits), static_cast<double>(c.nest_hits + c.nest_misses)),
         "ratio");
  r->Add("physical.evictions", static_cast<double>(c.evictions), "count");
  r->Add("physical.resident_mb", static_cast<double>(c.resident_bytes) / (1 << 20), "MiB");
  const auto probed = static_cast<double>(d.rusage_ops);
  r->Add("process.user_cpu_ms_per_op", Ratio(d.rusage.user_ms, probed), "ms");
  r->Add("process.sys_cpu_ms_per_op", Ratio(d.rusage.sys_ms, probed), "ms");
  r->Add("process.ctx_switches_per_op", Ratio(d.rusage.ctx_switches, probed), "count");
  r->Add("process.minor_faults_per_op", Ratio(d.rusage.minor_faults, probed), "count");
  r->Add("trace.overhead", Ratio(Median(traced), Median(untraced)), "ratio");
  r->Add("error_rate", Ratio(static_cast<double>(d.failed), ops), "ratio");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n",
                 argv[0]);
    return 2;
  }
  RunData (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "fuzzy_clean") run = RunFuzzyClean;
  if (args.workload == "mutate_revalidate") run = RunMutateRevalidate;
  if (args.workload == "microbatch_concurrent") run = RunMicrobatchConcurrent;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  args.workdir += "/" + args.workload;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(), ec.message().c_str());
    return 2;
  }

  Report report;
  RunData data = run(args, &report);
  report.attempted = data.attempted;
  report.failed = data.failed;
  if (data.attempted == 0 || data.latency_ms.empty()) {
    std::fprintf(stderr, "%s: no op completed\n", args.workload.c_str());
    return 1;
  }
  if (args.trace) {
    PerLayer(data, &report);
    const std::string path = args.workdir + "/trace.json";  // the latest traced run
    const Status st = data.spans->WriteChromeTrace(path);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  } else {
    EndToEnd(data, &report);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
