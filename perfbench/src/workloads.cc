#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/random.h"
#include "datagen/generators.h"
#include "language/parser.h"

namespace perfbench {

size_t OpsFor(double seconds, double nominal_ops_per_s) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds * nominal_ops_per_s)));
}

namespace {

const char* kStreets[] = {"avenue de cour",   "limmatquai",   "high street",
                          "rue du rhone",     "bergstrasse",  "corso italia",
                          "quai wilson",      "dorfstrasse",  "park lane",
                          "chemin du lac"};

/// Seeded names and phone suffixes: datagen's customers, without
/// duplicates or violations (its address structure is replaced below).
Dataset SeededCustomers(const BatchShape& shape, uint64_t seed) {
  cleanm::datagen::CustomerOptions o;
  o.base_rows = shape.base_rows;
  o.duplicate_fraction = 0;
  o.fd_violation_fraction = 0;
  o.seed = seed;
  return cleanm::datagen::MakeCustomer(o);
}

template <typename T>
void Shuffle(std::vector<T>* v, cleanm::Rng* rng) {
  for (size_t i = v->size(); i > 1; i--) std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
}

}  // namespace

Dataset MakeBatch(const BatchShape& shape, uint64_t seed) {
  const Dataset people = SeededCustomers(shape, seed);
  cleanm::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // A seeded permutation picks the violators, then the repeated customers.
  std::vector<size_t> order(shape.base_rows);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, &rng);
  std::vector<bool> violates(shape.base_rows, false);
  for (size_t i = 0; i < shape.violators; i++) violates[order[i]] = true;

  const size_t groups = std::max<size_t>(1, shape.base_rows / 5);
  std::vector<cleanm::Row> rows;
  for (size_t i = 0; i < shape.base_rows; i++) {
    cleanm::Row row = people.row(i);
    const size_t group = i % groups;
    const size_t region = violates[i] ? group + 1 : group;
    char prefix[8];
    std::snprintf(prefix, sizeof(prefix), "%03zu", region % 1000);
    row[0] = Value(static_cast<int64_t>(i));
    row[2] = Value(std::string(kStreets[group % 10]) + " " + std::to_string(group / 10 + 1));
    row[3] = Value(prefix + row[3].AsString().substr(3));
    row[4] = Value(static_cast<int64_t>(region % 25));
    rows.push_back(std::move(row));
  }
  auto next_key = static_cast<int64_t>(shape.base_rows);
  for (size_t d = 0; d < shape.dup_customers; d++) {
    const cleanm::Row original = rows[order[(shape.violators + d) % shape.base_rows]];
    for (size_t c = 0; c < shape.copies; c++) {
      cleanm::Row dup = original;
      dup[0] = Value(next_key++);
      dup[1] = Value(cleanm::datagen::AddNoise(dup[1].AsString(), 0.1, &rng));
      dup[3] = Value(cleanm::datagen::AddNoise(dup[3].AsString(), 0.1, &rng));
      rows.push_back(std::move(dup));
    }
  }
  Shuffle(&rows, &rng);
  return Dataset(people.schema(), std::move(rows));
}

std::vector<std::string> CleanNames(const BatchShape& shape, uint64_t seed) {
  const Dataset people = SeededCustomers(shape, seed);
  std::vector<std::string> names;
  for (const auto& row : people.rows()) names.push_back(row[1].AsString());
  return names;
}

std::string EightFdQuery(const std::string& table) {
  return "SELECT * FROM " + table + R"( c
  FD(c.address, c.nationkey)
  FD(c.address, prefix(c.phone))
  FD(c.name, c.nationkey)
  FD(c.phone, c.nationkey)
  FD(c.name, c.address)
  FD(c.phone, c.address)
  FD(c.name, c.phone)
  FD(c.custkey, c.nationkey)
)";
}

cleanm::Result<cleanm::PreparedQuery> PrepareTraced(cleanm::CleanDB& db,
                                                    const std::string& text,
                                                    SpanRecorder* rec, int64_t op,
                                                    int parent) {
  if (rec == nullptr) return db.Prepare(text);
  cleanm::Result<cleanm::CleanMQuery> parsed = [&] {
    ScopedSpan span(rec, "parse", op, parent);
    return cleanm::ParseCleanM(text);
  }();
  if (!parsed.ok()) return parsed.status();
  ScopedSpan span(rec, "prepare", op, parent);
  return db.PrepareQuery(parsed.value());
}

cleanm::Result<Reference> ComputeReference(
    const std::string& query, const std::vector<std::pair<std::string, Dataset>>& tables) {
  Reference ref;
  for (const bool unify : {true, false}) {
    cleanm::CleanDBOptions opts;
    opts.unify_operations = unify;
    cleanm::CleanDB db(opts);
    for (const auto& [name, table] : tables) db.RegisterTable(name, table);
    auto pq = db.Prepare(query);
    if (!pq.ok()) return pq.status();
    RecordingSink sink;
    CLEANM_RETURN_NOT_OK(pq.value().ExecuteInto(sink));
    const RecordingSink::Digest digest = sink.Fingerprints();
    if (unify) {
      ref.exact = digest.current;
      ref.dirty_entities = sink.dirty_entities();
    } else {
      ref.identity = digest.identity;
    }
  }
  return ref;
}

std::string Mismatch(const RecordingSink& sink, const Reference& ref) {
  const RecordingSink::Digest digest = sink.Fingerprints();
  if (digest.identity != ref.identity) {
    return "violations differ from the standalone-plan reference";
  }
  if (digest.current != ref.exact) return "violations differ from the single-driver reference";
  if (sink.dirty_entities() != ref.dirty_entities) {
    return "dirty entities differ from the single-driver reference";
  }
  return "";
}

OpProbe::OpProbe(bool traced, RunData* data) : data_(data) {
  if (traced) {
    sampler_ = std::make_unique<ThreadSampler>();
  } else {
    start_ = ProcessRusage();
  }
}

void OpProbe::Finish() {
  if (sampler_) {
    sampler_->Stop();
    data_->threads_peak = std::max(data_->threads_peak, sampler_->peak());
  } else {
    data_->rusage += ProcessRusage() - start_;
    data_->rusage_ops++;
  }
}

SessionProbe SessionProbe::Take(cleanm::CleanDB& db) {
  return {ProcessRusage(), ParseMetricsText(db.ExportMetricsText()),
          db.partition_cache().stats()};
}

void SessionProbe::DeltaInto(cleanm::CleanDB& db, RunData* data, bool with_rusage) const {
  if (with_rusage) {
    data->rusage = ProcessRusage() - rusage;
    data->rusage_ops = data->attempted;
  }
  data->counters = CounterDelta(counters, ParseMetricsText(db.ExportMetricsText()));
  data->cache = db.partition_cache().stats().Since(cache);
}

}  // namespace perfbench
