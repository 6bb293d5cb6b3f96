#include "support/fixtures.h"

#include <algorithm>
#include <sstream>

#include "algebra/algebra_eval.h"
#include "monoid/expr.h"

namespace cleanm::testsupport {

CleanDBOptions FastCleanDBOptions(size_t nodes) {
  CleanDBOptions opts;
  opts.num_nodes = nodes;
  opts.shuffle_ns_per_byte = 0;
  return opts;
}

engine::ClusterOptions FastClusterOptions(size_t nodes) {
  engine::ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.shuffle_ns_per_byte = 0;
  return opts;
}

Dataset MakeCustomers() {
  Dataset d(Schema{{"name", ValueType::kString},
                   {"address", ValueType::kString},
                   {"phone", ValueType::kString},
                   {"nationkey", ValueType::kInt}});
  d.Append({Value("alice"), Value("rue de lausanne 1"), Value("021-555-0001"), Value(int64_t{1})});
  d.Append({Value("bob"), Value("rue de lausanne 1"), Value("022-555-0002"), Value(int64_t{1})});
  d.Append({Value("carol"), Value("bahnhofstrasse 3"), Value("044-555-0003"), Value(int64_t{2})});
  d.Append({Value("alicia"), Value("rue de lausanne 1"), Value("021-555-0004"), Value(int64_t{3})});
  return d;
}

Dataset MakePublications() {
  Dataset d(Schema{{"title", ValueType::kString}, {"authors", ValueType::kList}});
  d.Append({Value("p1"), Value(ValueList{Value("ann"), Value("bob")})});
  d.Append({Value("p2"), Value(ValueList{Value("ann")})});
  d.Append({Value("p3"), Value(ValueList{})});
  return d;
}

Dataset MakeFlatDataset() {
  Dataset d(Schema{{"id", ValueType::kInt},
                   {"name", ValueType::kString},
                   {"score", ValueType::kDouble}});
  d.Append({Value(int64_t{1}), Value("alice"), Value(0.5)});
  d.Append({Value(int64_t{2}), Value("bob,jr"), Value(1.25)});
  d.Append({Value(int64_t{3}), Value("carol \"cc\""), Value(-3.0)});
  d.Append({Value(int64_t{4}), Value::Null(), Value(0.0)});
  return d;
}

Dataset RandomFlatDataset(Rng* rng, size_t rows) {
  Dataset d(Schema{{"i", ValueType::kInt},
                   {"f", ValueType::kDouble},
                   {"s", ValueType::kString}});
  for (size_t r = 0; r < rows; r++) {
    Row row;
    row.push_back(rng->Chance(0.1) ? Value::Null()
                                   : Value(rng->UniformRange(-1000, 1000)));
    row.push_back(rng->Chance(0.1)
                      ? Value::Null()
                      : Value(static_cast<double>(rng->UniformRange(-500, 500)) / 8.0));
    if (rng->Chance(0.1)) {
      row.push_back(Value::Null());
    } else {
      std::string s;
      const size_t len = rng->Uniform(12);
      for (size_t c = 0; c < len; c++) {
        // Include the characters that stress the format escapers.
        const char* alphabet = "abc,\"\n\t\\{}<>&";
        s += alphabet[rng->Uniform(13)];
      }
      row.push_back(Value(std::move(s)));
    }
    d.Append(std::move(row));
  }
  return d;
}

std::vector<Row> IntRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; i++) rows.push_back({Value(int64_t{i})});
  return rows;
}

AlgOpPtr CustomerFdPlan() {
  GroupSpec group;
  group.algo = FilteringAlgo::kExactKey;
  group.term = FieldAccess(Var("c"), "address");
  return NestOp(Scan("customer", "c"), group,
                {{"vals", "set", Call("prefix", {FieldAccess(Var("c"), "phone")})},
                 {"partition", "bag", Var("c")}},
                Binary(BinaryOp::kGt, Call("count", {Var("vals")}), ConstInt(1)));
}

Value DatasetToRecords(const Dataset& dataset) {
  ValueList list;
  for (const auto& row : dataset.rows()) {
    list.push_back(RowToRecord(dataset.schema(), row));
  }
  return Value(std::move(list));
}

bool DatasetsEqual(const Dataset& a, const Dataset& b) {
  if (a.num_rows() != b.num_rows()) return false;
  if (a.schema().num_fields() != b.schema().num_fields()) return false;
  for (size_t r = 0; r < a.num_rows(); r++) {
    for (size_t c = 0; c < a.schema().num_fields(); c++) {
      if (!a.row(r)[c].Equals(b.row(r)[c])) return false;
    }
  }
  return true;
}

std::string CanonicalString(const Value& v) {
  if (v.type() == ValueType::kStruct) {
    std::vector<std::pair<std::string, std::string>> fields;
    for (const auto& [name, field] : v.AsStruct()) {
      fields.emplace_back(name, CanonicalString(field));
    }
    std::sort(fields.begin(), fields.end());
    std::string out = "{";
    for (const auto& [name, repr] : fields) out += name + ":" + repr + ",";
    return out + "}";
  }
  if (v.type() == ValueType::kList) {
    std::vector<std::string> elems;
    for (const auto& e : v.AsList()) elems.push_back(CanonicalString(e));
    std::sort(elems.begin(), elems.end());
    std::string out = "[";
    for (const auto& e : elems) out += e + ",";
    return out + "]";
  }
  return v.ToString();
}

std::vector<std::string> CanonicalSet(const ValueList& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const auto& v : values) out.push_back(CanonicalString(v));
  std::sort(out.begin(), out.end());
  return out;
}

MetricsSnapshot Snapshot(const QueryMetrics& metrics) { return metrics.Snapshot(); }

::testing::AssertionResult ShuffledNonzero(const MetricsSnapshot& m) {
  if (m.rows_shuffled > 0 && m.bytes_shuffled > 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "expected nonzero shuffle traffic, got {" << m.ToString() << "}";
}

::testing::AssertionResult SnapshotsEqual(const MetricsSnapshot& a,
                                          const MetricsSnapshot& b) {
  if (a == b) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "metrics differ: {" << a.ToString()
                                       << "} vs {" << b.ToString() << "}";
}

void TempDirTest::SetUp() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  // Parameterized suites are named "Prefix/Suite": flatten to one level so
  // TearDown's remove_all leaves no orphan parent directory.
  std::string name = info ? info->test_suite_name() : "test";
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  dir_ = std::filesystem::temp_directory_path() / ("cleanm_" + name);
  std::filesystem::create_directories(dir_);
}

void TempDirTest::TearDown() { std::filesystem::remove_all(dir_); }

std::string TempDirTest::Path(const std::string& name) const {
  return (dir_ / name).string();
}

}  // namespace cleanm::testsupport
