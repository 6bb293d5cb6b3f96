// End-to-end pipeline tests: drive the full stack — CleanM text → parser →
// monoid comprehensions (normalization) → nested algebra (translation +
// rewriting) → physical plans → virtual-cluster execution — and cross-check
// the engine's answers against the single-threaded reference algebra
// evaluator on every scenario (dedup, term validation, denial constraints,
// FD checks). Shuffle-traffic metrics must be nonzero (the plans really
// repartition) and stable run to run (execution is deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/algebra_eval.h"
#include "algebra/rewriter.h"
#include "algebra/translate.h"
#include "cleaning/cleandb.h"
#include "cleaning/plan_builder.h"
#include "cleaning/prepared_query.h"
#include "cleaning/select_builder.h"
#include "cluster/filtering.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "monoid/eval.h"
#include "monoid/normalize.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::CanonicalString;
using testsupport::DatasetToRecords;
using testsupport::FastCleanDBOptions;
using testsupport::FastClusterOptions;
using testsupport::MetricsSnapshot;
using testsupport::ShuffledNonzero;
using testsupport::Snapshot;
using testsupport::SnapshotsEqual;

// ---- Cross-evaluator comparison helpers ----

std::multiset<std::string> CanonicalTuples(const Value& list_value) {
  std::multiset<std::string> tuples;
  for (const auto& t : list_value.AsList()) tuples.insert(CanonicalString(t));
  return tuples;
}

/// Runs `plan` on a fresh virtual cluster and checks the collected tuples
/// equal the reference evaluator's, as canonical multisets. Returns the
/// engine result and, via `metrics`, the run's traffic snapshot.
Value RunEngineAgainstReference(const AlgOpPtr& plan, const Catalog& catalog,
                                MetricsSnapshot* metrics = nullptr,
                                size_t nodes = 4) {
  auto reference = EvalPlan(plan, catalog).ValueOrDie();
  engine::Cluster cluster(FastClusterOptions(nodes));
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  auto engine_result = exec.RunToValue(plan).ValueOrDie();
  EXPECT_EQ(CanonicalTuples(engine_result), CanonicalTuples(reference));
  if (metrics) *metrics = Snapshot(cluster.metrics());
  return engine_result;
}

// ---- Scenario 1: deduplication ----

Dataset DedupCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 250;
  copts.duplicate_fraction = 0.1;
  copts.max_duplicates = 4;
  copts.fd_violation_fraction = 0;
  return datagen::MakeCustomer(copts);
}

TEST(E2EDedupTest, ParsedQueryMatchesReferenceEvaluator) {
  const char* query_text =
      "SELECT * FROM customer c DEDUP(exact, LD, 0.8, c.address)";
  auto query = ParseCleanM(query_text).ValueOrDie();
  ASSERT_EQ(query.dedups.size(), 1u);

  auto customers = DedupCustomers();
  Catalog catalog{{{"customer", &customers}}};
  auto cp = BuildDedupPlan("customer", "c", query.dedups[0], FilteringOptions{})
                .ValueOrDie();

  // The rewriter must leave the violation set unchanged.
  RewriteStats stats;
  auto rewritten = RewritePlan(cp.plan, &stats);

  MetricsSnapshot first, second;
  auto violations = RunEngineAgainstReference(rewritten, catalog, &first);
  EXPECT_GT(violations.AsList().size(), 0u);  // datagen injected duplicates
  EXPECT_EQ(CanonicalTuples(violations),
            CanonicalTuples(EvalPlan(cp.plan, catalog).ValueOrDie()));

  // Every reported pair is two distinct records sharing the blocking key.
  for (const auto& pair : violations.AsList()) {
    const Value p1 = pair.GetField("p1").ValueOrDie();
    const Value p2 = pair.GetField("p2").ValueOrDie();
    EXPECT_FALSE(p1.Equals(p2));
    EXPECT_TRUE(p1.GetField("address").ValueOrDie().Equals(
        p2.GetField("address").ValueOrDie()));
  }

  // Traffic: grouping by address repartitions rows, and a second identical
  // run moves exactly the same traffic.
  EXPECT_TRUE(ShuffledNonzero(first));
  (void)RunEngineAgainstReference(rewritten, catalog, &second);
  EXPECT_TRUE(SnapshotsEqual(first, second));

  // Full-stack cross-check: CleanDB::Execute on the same query text reports
  // the same number of duplicate pairs.
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", customers);
  auto result = db.Execute(query_text).ValueOrDie();
  ASSERT_EQ(result.ops.size(), 1u);
  EXPECT_EQ(result.ops[0].violations.size(), violations.AsList().size());
  EXPECT_GT(result.metrics.rows_shuffled, 0u);
}

// ---- Scenario 2: term validation ----

/// Author corpus: every clean dictionary name occurs verbatim, and every
/// third name also occurs with character noise (the dirty occurrences).
void MakeAuthorCorpus(Dataset* data, Dataset* dict, size_t* dirty_count) {
  *dict = datagen::MakeAuthorDictionary(60);
  Dataset corpus(Schema{{"author", ValueType::kString}});
  Rng rng(7);
  size_t dirty = 0;
  for (size_t i = 0; i < dict->num_rows(); i++) {
    const std::string clean = dict->row(i)[0].AsString();
    corpus.Append({Value(clean)});
    if (i % 3 == 0) {
      corpus.Append({Value(datagen::AddNoise(clean, 0.15, &rng))});
      dirty++;
    }
  }
  *data = std::move(corpus);
  *dirty_count = dirty;
}

TEST(E2ETermValidationTest, ParsedQueryMatchesReferenceEvaluator) {
  const char* query_text = R"(
    SELECT * FROM authors a, dictionary d
    CLUSTER BY(tf, LD, 0.8, a.author)
  )";
  auto query = ParseCleanM(query_text).ValueOrDie();
  ASSERT_EQ(query.cluster_bys.size(), 1u);
  ASSERT_EQ(query.from[1].table, "dictionary");

  Dataset data, dict;
  size_t dirty_count = 0;
  MakeAuthorCorpus(&data, &dict, &dirty_count);
  Catalog catalog{{{"authors", &data}, {"dictionary", &dict}}};

  auto cp = BuildTermValidationPlan("authors", "a", "dictionary", "d", "name",
                                    query.cluster_bys[0], FilteringOptions{})
                .ValueOrDie();

  MetricsSnapshot first, second;
  auto violations = RunEngineAgainstReference(cp.plan, catalog, &first);
  EXPECT_TRUE(ShuffledNonzero(first));
  (void)RunEngineAgainstReference(cp.plan, catalog, &second);
  EXPECT_TRUE(SnapshotsEqual(first, second));

  // The plan flags similar-but-not-identical (term, dictionary) couples;
  // noised variants must be among the flagged terms.
  EXPECT_GT(violations.AsList().size(), 0u);
  for (const auto& v : violations.AsList()) {
    const Value term = v.GetField("term").ValueOrDie();
    const Value suggestion = v.GetField("suggestion").ValueOrDie();
    EXPECT_FALSE(term.Equals(suggestion));
  }
}

TEST(E2ETermValidationTest, CleanDBSuggestsExactlyTheInjectedRepairs) {
  // Deterministic three-name corpus: CleanDB's ValidateTerms pre-filters
  // verbatim dictionary hits, so exactly the misspelling is flagged.
  CleanDB db(FastCleanDBOptions());
  Dataset data(Schema{{"name", ValueType::kString}});
  data.Append({Value("jonathan smith")});
  data.Append({Value("jonathan smyth")});
  data.Append({Value("mary jones")});
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value("jonathan smith")});
  dict.Append({Value("mary jones")});
  db.RegisterTable("data", data);
  db.RegisterTable("dict", dict);

  auto cb_query = ParseCleanM(
                      "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)")
                      .ValueOrDie();
  auto result =
      db.ValidateTerms("data", "c", "dict", "name", cb_query.cluster_bys[0])
          .ValueOrDie();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].GetField("term").ValueOrDie().AsString(),
            "jonathan smyth");
  EXPECT_EQ(result.violations[0].GetField("suggestion").ValueOrDie().AsString(),
            "jonathan smith");
}

// ---- Scenario 3: denial constraints ----

TEST(E2EDenialConstraintTest, ThetaSelfJoinMatchesReferenceAcrossAlgorithms) {
  datagen::LineitemOptions lopts;
  lopts.rows = 300;
  lopts.noise_fraction = 0.1;
  auto lineitem = datagen::MakeLineitem(lopts);
  Catalog catalog{{{"lineitem", &lineitem}}};

  // Rule ψ parsed from CleanM expression text.
  auto pred = ParseCleanMExpr(
                  "t1.price < t2.price AND t1.discount > t2.discount")
                  .ValueOrDie();
  auto plan = SelectOp(
      JoinOp(Scan("lineitem", "t1"), Scan("lineitem", "t2"), CloneExpr(pred)),
      ParseCleanMExpr("t1.price < 905").ValueOrDie());

  // The rewriter pushes the one-sided prefilter below the theta join.
  RewriteStats stats;
  auto rewritten = RewritePlan(plan, &stats);
  EXPECT_GE(stats.selects_pushed, 1);

  auto reference = EvalPlan(rewritten, catalog).ValueOrDie();
  ASSERT_GT(reference.AsList().size(), 0u);

  for (auto algo : {engine::ThetaJoinAlgo::kCartesian, engine::ThetaJoinAlgo::kMinMax,
                    engine::ThetaJoinAlgo::kMatrix}) {
    engine::Cluster cluster(FastClusterOptions());
    PhysicalOptions popts;
    popts.theta_algo = algo;
    PartitionCache cache;
    Executor exec{&cluster, &catalog, popts, &cache};
    auto engine_result = exec.RunToValue(rewritten).ValueOrDie();
    EXPECT_EQ(CanonicalTuples(engine_result), CanonicalTuples(reference))
        << engine::ThetaJoinAlgoName(algo);
    EXPECT_GT(cluster.metrics().comparisons.load(), 0u)
        << engine::ThetaJoinAlgoName(algo);
  }

  // Full-stack: CleanDB's programmatic DC API agrees on the violation count.
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", lineitem);
  auto result = db.CheckDenialConstraint(
                      "lineitem", CloneExpr(pred),
                      ParseCleanMExpr("t1.price < 905").ValueOrDie())
                    .ValueOrDie();
  EXPECT_EQ(result.violations.size(), reference.AsList().size());
}

// ---- Scenario 4: FD check through the monoid layer ----

TEST(E2EFdTest, ComprehensionNormalizationAndPlanAgree) {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  auto customers = datagen::MakeCustomer(copts);
  Catalog catalog{{{"customer", &customers}}};

  auto query = ParseCleanM(
                   "SELECT * FROM customer c FD(c.address, prefix(c.phone))")
                   .ValueOrDie();
  ASSERT_EQ(query.fds.size(), 1u);

  // Monoid layer: the Section-4.4 comprehension yields one element per
  // violating *record*; normalization must preserve that bag.
  auto comp = FdComprehension("customer", "c", query.fds[0]);
  Env env{{"customer", DatasetToRecords(customers)}};
  auto interpreted = EvalExpr(comp, env).ValueOrDie();
  auto normalized_result = EvalExpr(Normalize(comp), env).ValueOrDie();
  ASSERT_GT(interpreted.AsList().size(), 0u);
  EXPECT_EQ(CanonicalString(interpreted), CanonicalString(normalized_result));

  // Algebra + engine: the Nest plan yields one tuple per violating *group*;
  // its partitions cover exactly the comprehension's violating records.
  auto cp = BuildFdPlan("customer", "c", query.fds[0]).ValueOrDie();
  MetricsSnapshot metrics;
  auto groups = RunEngineAgainstReference(cp.plan, catalog, &metrics);
  EXPECT_TRUE(ShuffledNonzero(metrics));
  size_t records_in_groups = 0;
  for (const auto& g : groups.AsList()) {
    records_in_groups += g.GetField("partition").ValueOrDie().AsList().size();
  }
  EXPECT_EQ(records_in_groups, interpreted.AsList().size());
}

// ---- Scenario 5: plain SELECT through parse → monoid → algebra → engine ----

TEST(E2ESelectTest, ParsedSelectAgreesAcrossInterpreterReferenceAndEngine) {
  auto customers = testsupport::MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};

  auto query =
      ParseCleanM("SELECT c.name FROM customer c WHERE c.nationkey = 1")
          .ValueOrDie();
  ASSERT_NE(query.where, nullptr);

  // Assemble the query's monoid comprehension from the parsed pieces.
  auto comp = Comprehension(
      "bag", CloneExpr(query.select_list[0].expr),
      {Generator(query.from[0].alias, Var(query.from[0].table)),
       Predicate(CloneExpr(query.where))});

  Env env{{"customer", DatasetToRecords(customers)}};
  auto interpreted = EvalExpr(comp, env).ValueOrDie();
  ASSERT_EQ(interpreted.AsList().size(), 2u);  // alice and bob

  auto plan = TranslateComprehension(Normalize(comp)).ValueOrDie();
  auto rewritten = RewritePlan(plan);
  auto reference = EvalPlan(rewritten, catalog).ValueOrDie();
  EXPECT_EQ(CanonicalString(reference), CanonicalString(interpreted));

  engine::Cluster cluster(FastClusterOptions());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  auto engine_result = exec.RunToValue(rewritten).ValueOrDie();
  EXPECT_EQ(CanonicalString(engine_result), CanonicalString(interpreted));
}

// ---- Scenario 6: the unified multi-clause query, metrics stability ----

TEST(E2EUnifiedQueryTest, CoalescedExecutionIsStableAndShuffles) {
  const char* query_text = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";
  datagen::CustomerOptions copts;
  copts.base_rows = 400;
  copts.duplicate_fraction = 0.05;
  copts.max_duplicates = 4;
  auto customers = datagen::MakeCustomer(copts);

  auto run_once = [&]() {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("customer", customers);
    return db.Execute(query_text).ValueOrDie();
  };
  auto first = run_once();
  auto second = run_once();

  // All three clauses share the grouping on address.
  EXPECT_EQ(first.nests_coalesced, 2);
  ASSERT_EQ(first.ops.size(), 3u);
  EXPECT_GT(first.dirty_entities.size(), 0u);

  // Nonzero, run-to-run stable shuffle traffic and identical violations.
  EXPECT_GT(first.metrics.rows_shuffled, 0u);
  EXPECT_GT(first.metrics.bytes_shuffled, 0u);
  EXPECT_TRUE(SnapshotsEqual(first.metrics, second.metrics));
  for (size_t i = 0; i < first.ops.size(); i++) {
    EXPECT_EQ(first.ops[i].violations.size(), second.ops[i].violations.size());
  }
  EXPECT_EQ(first.dirty_entities.size(), second.dirty_entities.size());
}

// ---- Scenario 7: user GROUP BY / HAVING through the full pipeline ----
//
// Parser → select_builder (monoid normalization + aggregate extraction) →
// Nest/Reduce algebra → physical compile → clustered engine, cross-checked
// against the reference algebra evaluator.

/// Lineitem-style rows with known group structure: 3 orders; order 1 has 3
/// lines (prices 10, 20, 30), order 2 has 2 (prices 5, 5), order 3 has 1
/// (price 100).
Dataset GroupedLineitems() {
  Dataset d(Schema{{"orderkey", ValueType::kInt},
                   {"linenumber", ValueType::kInt},
                   {"price", ValueType::kDouble}});
  d.Append({Value(int64_t{1}), Value(int64_t{1}), Value(10.0)});
  d.Append({Value(int64_t{1}), Value(int64_t{2}), Value(20.0)});
  d.Append({Value(int64_t{1}), Value(int64_t{3}), Value(30.0)});
  d.Append({Value(int64_t{2}), Value(int64_t{1}), Value(5.0)});
  d.Append({Value(int64_t{2}), Value(int64_t{2}), Value(5.0)});
  d.Append({Value(int64_t{3}), Value(int64_t{1}), Value(100.0)});
  return d;
}

/// Prepares + executes `query_text` on the engine and cross-checks the
/// SELECT op's rows against the reference evaluator running the same
/// lowered plan. Returns the engine rows.
ValueList RunSelectAgainstReference(const std::string& query_text,
                                    const Dataset& data,
                                    const std::string& table = "lineitem") {
  auto query = ParseCleanM(query_text).ValueOrDie();
  auto sp = BuildSelectPlan(query, nullptr).ValueOrDie();
  Catalog catalog{{{table, &data}}};
  auto reference = EvalPlan(sp.plan.plan, catalog).ValueOrDie();

  CleanDB db(FastCleanDBOptions());
  db.RegisterTable(table, data);
  auto result = db.Execute(query_text).ValueOrDie();
  EXPECT_EQ(result.ops.size(), 1u);
  EXPECT_EQ(result.ops.back().op_name, "SELECT");
  EXPECT_EQ(CanonicalTuples(Value(result.ops.back().violations)),
            CanonicalTuples(reference));
  return result.ops.back().violations;
}

TEST(E2EGroupByTest, SingleKeyGroupingWithAggregates) {
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n, sum(l.price) AS total, "
      "avg(l.price) AS mean, max(l.price) AS top "
      "FROM lineitem l GROUP BY l.orderkey",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    const int64_t k = row.GetField("k").ValueOrDie().AsInt();
    const int64_t n = row.GetField("n").ValueOrDie().AsInt();
    const double total = row.GetField("total").ValueOrDie().ToDouble();
    const double mean = row.GetField("mean").ValueOrDie().AsDouble();
    if (k == 1) {
      EXPECT_EQ(n, 3);
      EXPECT_DOUBLE_EQ(total, 60.0);
      EXPECT_DOUBLE_EQ(mean, 20.0);
      EXPECT_DOUBLE_EQ(row.GetField("top").ValueOrDie().AsDouble(), 30.0);
    }
    if (k == 2) {
      EXPECT_EQ(n, 2);
      EXPECT_DOUBLE_EQ(total, 10.0);
    }
    if (k == 3) {
      EXPECT_EQ(n, 1);
    }
  }
}

TEST(E2EGroupByTest, MultiKeyGrouping) {
  // (orderkey, linenumber) is a key of this table: every group is a
  // singleton, and both key components project back out of the group key.
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS ok, l.linenumber AS ln, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey, l.linenumber",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.GetField("n").ValueOrDie().AsInt(), 1);
    EXPECT_GE(row.GetField("ok").ValueOrDie().AsInt(), 1);
    EXPECT_GE(row.GetField("ln").ValueOrDie().AsInt(), 1);
  }
}

TEST(E2EGroupByTest, HavingOverAliasedAggregate) {
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey HAVING n >= 2",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 2u);  // orders 1 and 2
  for (const auto& row : rows) {
    EXPECT_NE(row.GetField("k").ValueOrDie().AsInt(), 3);
  }
}

TEST(E2EGroupByTest, HavingCanFilterEveryGroupAndWhereCanEmptyTheInput) {
  // No group reaches count 10 → empty result, not an error.
  auto none = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey HAVING n > 10",
      GroupedLineitems());
  EXPECT_EQ(none.size(), 0u);

  // WHERE excludes every row → no groups at all (the empty-group edge:
  // groups never materialize with zero members).
  auto empty_input = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l WHERE l.price > 1000 GROUP BY l.orderkey",
      GroupedLineitems());
  EXPECT_EQ(empty_input.size(), 0u);
}

TEST(E2EGroupByTest, HavingWithoutGroupByIsTypeError) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", GroupedLineitems());
  auto prepared =
      db.Prepare("SELECT l.orderkey FROM lineitem l HAVING count(l) > 1");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kTypeError);
  EXPECT_NE(prepared.status().message().find("GROUP BY"), std::string::npos);
}

TEST(E2EGroupByTest, BareColumnOutsideAggregateIsTypeError) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", GroupedLineitems());
  auto prepared = db.Prepare(
      "SELECT l.price FROM lineitem l GROUP BY l.orderkey");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kTypeError);
}

TEST(E2EGroupByTest, GroupByPlanSurvivesRewriterAndMatchesReference) {
  // The full optimizer path: select_builder output through RewritePlan,
  // engine vs reference on the rewritten form.
  auto query = ParseCleanM(
                   "SELECT l.orderkey AS k, sum(l.price) AS total "
                   "FROM lineitem l WHERE l.linenumber >= 1 "
                   "GROUP BY l.orderkey HAVING total > 9")
                   .ValueOrDie();
  auto sp = BuildSelectPlan(query, nullptr).ValueOrDie();
  auto rewritten = RewritePlan(sp.plan.plan);

  auto data = GroupedLineitems();
  Catalog catalog{{{"lineitem", &data}}};
  auto reference = EvalPlan(sp.plan.plan, catalog).ValueOrDie();

  engine::Cluster cluster(FastClusterOptions());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  auto engine_result = exec.RunToValue(rewritten).ValueOrDie();
  EXPECT_EQ(CanonicalTuples(engine_result), CanonicalTuples(reference));
  EXPECT_EQ(engine_result.AsList().size(), 3u);  // 60, 10, 100 all > 9
}

// ---- Scenario 8: operator-level pipelining (morsel-driven execution) ----
//
// Morsel boundaries must be observationally invisible: the same violation
// tuples, in the same order, per operation, at any morsel size — while
// really streaming (morsels metered) — and the same violations as the
// reference evaluator. These are the equivalence guarantees the bench gate
// (bench_unified_cleaning --check) enforces at scale.

Dataset PipelineCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 6;
  copts.fd_violation_fraction = 0.08;
  return datagen::MakeCustomer(copts);
}

/// Morsel sizes every equivalence test sweeps: a degenerate 1-row morsel, a
/// prime size that straddles every partition, and the 4096 default.
constexpr size_t kMorselSweep[] = {1, 7, 4096};

/// Violations of every operation rendered in emission order — the
/// bit-exact comparison key (no canonicalization: order and structure both
/// count).
std::vector<std::string> RenderedViolations(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& op : result.ops) {
    for (const auto& v : op.violations) {
      out.push_back(op.op_name + "|" + v.ToString());
    }
  }
  return out;
}

std::vector<std::string> RenderedDirtyEntities(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& [entity, ops] : result.dirty_entities) {
    std::string line = entity.ToString() + "|";
    for (const auto& op : ops) line += op + ",";
    out.push_back(std::move(line));
  }
  return out;
}

/// The standalone cleaning plans the session builds for `query_text`
/// (FD / DEDUP / CLUSTER BY clauses, session filtering defaults), named
/// FD, FD_2, ... as the session names them.
std::vector<CleaningPlan> StandalonePlans(const std::string& query_text) {
  const CleanMQuery query = ParseCleanM(query_text).ValueOrDie();
  const TableRef& base = query.from[0];
  FilteringOptions fopts = FastCleanDBOptions().filtering;
  std::vector<CleaningPlan> plans;
  for (const auto& fd : query.fds) {
    plans.push_back(BuildFdPlan(base.table, base.alias, fd).ValueOrDie());
  }
  for (const auto& dedup : query.dedups) {
    fopts.algo = dedup.op;
    plans.push_back(
        BuildDedupPlan(base.table, base.alias, dedup, fopts).ValueOrDie());
  }
  for (const auto& cb : query.cluster_bys) {
    fopts.algo = cb.op;
    const TableRef& dict = query.from[1];
    plans.push_back(BuildTermValidationPlan(base.table, base.alias, dict.table,
                                            dict.alias, cb.term->name, cb, fopts)
                        .ValueOrDie());
  }
  std::map<std::string, int> seen;
  for (auto& cp : plans) {
    const int n = ++seen[cp.op_name];
    if (n > 1) cp.op_name += "_" + std::to_string(n);
  }
  return plans;
}

/// Order-free rendering of one violation of `cp`: the whole tuple. Under a
/// grouping monoid each pair is emitted once, by its owner group, so even
/// the group fields (`key`, `partition`, ...) are deterministic.
std::string CanonicalViolation(const CleaningPlan& cp, const Value& v) {
  return cp.op_name + "|" + CanonicalString(v);
}

/// The reference evaluator's violations: each standalone plan evaluated
/// by algebra_eval and deduplicated like the session's sink.
std::multiset<std::string> ReferenceViolations(const std::vector<CleaningPlan>& plans,
                                               const Catalog& catalog) {
  std::multiset<std::string> out;
  for (const auto& cp : plans) {
    const Value result = EvalPlan(cp.plan, catalog).ValueOrDie();
    EXPECT_TRUE(ForEachDedupedViolation(result, cp, [&](const Value& v) {
                  out.insert(CanonicalViolation(cp, v));
                  return Status::OK();
                }).ok());
  }
  return out;
}

/// A session result in the same order-free rendering.
std::multiset<std::string> CanonicalViolations(const QueryResult& result,
                                               const std::vector<CleaningPlan>& plans) {
  std::multiset<std::string> out;
  for (const auto& op : result.ops) {
    const auto cp = std::find_if(plans.begin(), plans.end(), [&](const CleaningPlan& p) {
      return p.op_name == op.op_name;
    });
    if (cp == plans.end()) {
      ADD_FAILURE() << "no standalone plan for operation " << op.op_name;
      continue;
    }
    for (const auto& v : op.violations) out.insert(CanonicalViolation(*cp, v));
  }
  return out;
}

/// One cold execution on a fresh session at the given morsel size.
QueryResult ExecuteAtMorselSize(const Dataset& data, const std::string& query,
                                size_t morsel_rows) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", data);
  auto prepared = db.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions opts;
  opts.morsel_rows = morsel_rows;
  return prepared.value().Execute(opts).ValueOrDie();
}

TEST(E2EMorselPipelineTest, FdAndDedupBitIdenticalAcrossMorselSizes) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, LD, 0.8, c.address)
  )";
  const Dataset data = PipelineCustomers();
  const QueryResult baseline = ExecuteAtMorselSize(data, query, 4096);
  const auto baseline_violations = RenderedViolations(baseline);
  const auto baseline_entities = RenderedDirtyEntities(baseline);
  ASSERT_GT(baseline_violations.size(), 0u);
  const Catalog catalog{{{"customer", &data}}};
  const auto plans = StandalonePlans(query);
  EXPECT_EQ(CanonicalViolations(baseline, plans), ReferenceViolations(plans, catalog));

  // Morsel boundaries must never change results.
  for (size_t morsel_rows : kMorselSweep) {
    const QueryResult piped = ExecuteAtMorselSize(data, query, morsel_rows);
    EXPECT_EQ(RenderedViolations(piped), baseline_violations)
        << "violations diverged at morsel_rows=" << morsel_rows;
    EXPECT_EQ(RenderedDirtyEntities(piped), baseline_entities)
        << "dirty entities diverged at morsel_rows=" << morsel_rows;
    EXPECT_GT(piped.metrics.morsels_processed, 0u);
  }
}

TEST(E2EMorselPipelineTest, TermValidationBitIdenticalAcrossMorselSizes) {
  // Data and dictionary share the column name so the CLUSTER BY clause
  // binds both sides.
  Dataset dict = datagen::MakeAuthorDictionary(40);
  Dataset data(Schema{{"name", ValueType::kString}});
  Rng rng(11);
  for (size_t i = 0; i < dict.num_rows(); i++) {
    const std::string clean = dict.row(i)[0].AsString();
    data.Append({Value(clean)});
    if (i % 3 == 0) data.Append({Value(datagen::AddNoise(clean, 0.15, &rng))});
  }
  Dataset named_dict(Schema{{"name", ValueType::kString}});
  for (const auto& row : dict.rows()) named_dict.Append(row);

  const char* query = "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)";
  auto run = [&](size_t morsel_rows) {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("data", data);
    db.RegisterTable("dict", named_dict);
    auto prepared = db.Prepare(query);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions opts;
    opts.morsel_rows = morsel_rows;
    return prepared.value().Execute(opts).ValueOrDie();
  };
  const QueryResult baseline = run(4096);
  const auto baseline_violations = RenderedViolations(baseline);
  ASSERT_GT(baseline_violations.size(), 0u);  // the noised variants are flagged
  const Catalog catalog{{{"data", &data}, {"dict", &named_dict}}};
  const auto plans = StandalonePlans(query);
  EXPECT_EQ(CanonicalViolations(baseline, plans), ReferenceViolations(plans, catalog));
  for (size_t morsel_rows : kMorselSweep) {
    EXPECT_EQ(RenderedViolations(run(morsel_rows)), baseline_violations)
        << "term validation diverged at morsel_rows=" << morsel_rows;
  }
}

/// Node counts the similarity-invariance tests sweep.
constexpr size_t kNodeSweep[] = {1, 2, 4, 8};

using TableList = std::vector<std::pair<std::string, const Dataset*>>;

/// One cold execution of `query` on a fresh `nodes`-node session at the
/// given morsel size.
QueryResult ExecuteOn(const TableList& tables, const std::string& query, size_t nodes,
                      size_t morsel_rows) {
  CleanDB db(FastCleanDBOptions(nodes));
  for (const auto& [name, table] : tables) db.RegisterTable(name, *table);
  auto prepared = db.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions opts;
  opts.morsel_rows = morsel_rows;
  return prepared.value().Execute(opts).ValueOrDie();
}

/// Under a grouping monoid a pair sits in several groups and only its
/// owner group emits it, so the full violation tuples (group fields
/// included) and the verification count must not depend on the node
/// count or the morsel size, and must equal the reference evaluator's.
void ExpectSimilarityInvariant(const TableList& tables, const std::string& query) {
  std::map<std::string, const Dataset*> bound;
  for (const auto& [name, table] : tables) bound[name] = table;
  const Catalog catalog{bound};
  const auto plans = StandalonePlans(query);
  const auto reference = ReferenceViolations(plans, catalog);
  ASSERT_FALSE(reference.empty());
  uint64_t comparisons = 0;
  for (size_t nodes : kNodeSweep) {
    const QueryResult baseline = ExecuteOn(tables, query, nodes, 4096);
    EXPECT_EQ(CanonicalViolations(baseline, plans), reference) << "nodes=" << nodes;
    if (nodes == kNodeSweep[0]) comparisons = baseline.metrics.comparisons;
    EXPECT_GT(baseline.metrics.comparisons, 0u);
    EXPECT_EQ(baseline.metrics.comparisons, comparisons) << "nodes=" << nodes;
    const auto rendered = RenderedViolations(baseline);
    for (size_t morsel_rows : kMorselSweep) {
      const QueryResult piped = ExecuteOn(tables, query, nodes, morsel_rows);
      EXPECT_EQ(RenderedViolations(piped), rendered)
          << "nodes=" << nodes << " morsel_rows=" << morsel_rows;
      EXPECT_EQ(piped.metrics.comparisons, comparisons)
          << "nodes=" << nodes << " morsel_rows=" << morsel_rows;
    }
  }
}

TEST(E2EMorselPipelineTest, TokenFilteringDedupInvariantAcrossNodesAndMorsels) {
  datagen::CustomerOptions copts;
  copts.base_rows = 40;
  copts.duplicate_fraction = 0.2;
  copts.max_duplicates = 3;
  copts.fd_violation_fraction = 0;
  const Dataset data = datagen::MakeCustomer(copts);
  ExpectSimilarityInvariant(
      {{"customer", &data}},
      "SELECT * FROM customer c DEDUP(token filtering, LD, 0.8, c.address)");
}

TEST(E2EMorselPipelineTest, TokenFilteringTermValidationInvariantAcrossNodesAndMorsels) {
  const Dataset names = datagen::MakeAuthorDictionary(40);
  Dataset dict(Schema{{"name", ValueType::kString}});
  for (const auto& row : names.rows()) dict.Append(row);
  Dataset data(Schema{{"name", ValueType::kString}});
  Rng rng(3);
  for (size_t i = 0; i < dict.num_rows(); i++) {
    const std::string clean = dict.row(i)[0].AsString();
    data.Append({Value(clean)});
    if (i % 2 == 0) data.Append({Value(datagen::AddNoise(clean, 0.15, &rng))});
  }
  ExpectSimilarityInvariant({{"data", &data}, {"dict", &dict}},
                            "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)");
}

/// (term, suggestion) couples of a CLUSTER BY result.
std::set<std::pair<std::string, std::string>> TermSuggestions(const ValueList& violations) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& v : violations) {
    out.emplace(v.GetField("term").ValueOrDie().AsString(),
                v.GetField("suggestion").ValueOrDie().AsString());
  }
  return out;
}

TEST(E2ETermValidationTest, ClusterByTextAndValidateTermsAgreeOnEveryKeying) {
  // Dictionary words that are similar to other dictionary words (a noised
  // twin of every fourth name), and a data column holding every dictionary
  // word verbatim plus noised misspellings. A dictionary word is clean, so
  // it is never a `term`, even where a similar dictionary word exists.
  const Dataset names = datagen::MakeAuthorDictionary(40);
  Dataset dict(Schema{{"name", ValueType::kString}});
  Dataset data(Schema{{"name", ValueType::kString}});
  Rng rng(11);
  for (size_t i = 0; i < names.num_rows(); i++) {
    const Value clean = names.row(i)[0];
    dict.Append({clean});
    data.Append({clean});
    if (i % 4 == 0) dict.Append({Value(clean.AsString() + "s")});
    if (i % 3 == 0) data.Append({Value(datagen::AddNoise(clean.AsString(), 0.15, &rng))});
  }
  std::set<std::string> dictionary;
  for (const auto& row : dict.rows()) dictionary.insert(row[0].AsString());

  const FilteringOptions defaults = FastCleanDBOptions().filtering;
  for (const char* algo : {"tf", "kmeans", "exact"}) {
    const std::string query =
        std::string("SELECT * FROM data c, dict d CLUSTER BY(") + algo + ", LD, 0.8, c.name)";
    const ClusterByClause cb = ParseCleanM(query).ValueOrDie().cluster_bys[0];

    // The reference evaluator over the session's plan (same k-means centers).
    CleanDB sampler(FastCleanDBOptions());
    sampler.RegisterTable("dict", dict);
    FilteringOptions fopts = defaults;
    fopts.algo = cb.op;
    const auto cp = BuildTermValidationPlan(
                        "data", "c", "dict", "d", "name", cb, fopts,
                        cb.op == FilteringAlgo::kKMeans
                            ? sampler.SampleCenters("dict", "name", fopts.k)
                            : std::vector<std::string>{})
                        .ValueOrDie();
    const Catalog catalog{{{"data", &data}, {"dict", &dict}}};
    ValueList reference;
    ASSERT_TRUE(ForEachDedupedViolation(EvalPlan(cp.plan, catalog).ValueOrDie(), cp,
                                        [&](const Value& v) {
                                          reference.push_back(v);
                                          return Status::OK();
                                        })
                    .ok());
    const auto expected = TermSuggestions(reference);
    for (const auto& [term, suggestion] : expected) {
      EXPECT_FALSE(dictionary.count(term)) << algo << ": " << term;
      EXPECT_TRUE(dictionary.count(suggestion)) << algo << ": " << suggestion;
    }
    if (cb.op == FilteringAlgo::kExactKey) {
      EXPECT_TRUE(expected.empty());  // a term's only group partner is its twin
    } else {
      EXPECT_FALSE(expected.empty()) << algo;
    }

    for (size_t nodes : {size_t{1}, size_t{4}}) {
      const QueryResult text = ExecuteOn({{"data", &data}, {"dict", &dict}}, query, nodes, 4096);
      ASSERT_EQ(text.ops.size(), 1u);
      EXPECT_EQ(TermSuggestions(text.ops[0].violations), expected)
          << algo << " nodes=" << nodes;

      CleanDB db(FastCleanDBOptions(nodes));
      db.RegisterTable("data", data);
      db.RegisterTable("dict", dict);
      const OpResult op = db.ValidateTerms("data", "c", "dict", "name", cb).ValueOrDie();
      EXPECT_EQ(TermSuggestions(op.violations), expected) << algo << " nodes=" << nodes;
    }
  }
}

TEST(E2ETermValidationTest, ValidateTermsChecksItsInputs) {
  CleanDB db(FastCleanDBOptions());
  Dataset names(Schema{{"name", ValueType::kString}});
  names.Append({Value("mary jones")});
  db.RegisterTable("data", names);
  db.RegisterTable("dict", names);
  ClusterByClause cb;
  cb.term = ParseCleanMExpr("c.name").ValueOrDie();
  auto code = [&](const std::string& data_table, const std::string& dict_table,
                  const std::string& dict_attr) {
    return db.ValidateTerms(data_table, "c", dict_table, dict_attr, cb).status().code();
  };
  EXPECT_EQ(code("data", "dict", "name"), StatusCode::kOk);
  EXPECT_EQ(code("missing", "dict", "name"), StatusCode::kKeyError);
  EXPECT_EQ(code("data", "missing", "name"), StatusCode::kKeyError);
  EXPECT_EQ(code("data", "dict", "missing"), StatusCode::kKeyError);
  cb.term = ParseCleanMExpr("c.surname").ValueOrDie();
  EXPECT_EQ(code("data", "dict", "name"), StatusCode::kKeyError);
  cb.term = ParseCleanMExpr("upper(c.name)").ValueOrDie();
  EXPECT_EQ(code("data", "dict", "name"), StatusCode::kInvalidArgument);
}

// ---- Pair verification counter ----
//
// The similarity stage verifies each distinct candidate pair once, so its
// `comparisons` equal the distinct pairs the filtering monoid makes
// candidates — counted here straight from BuildGroups.

/// 48 rows shaped like the fuzzy-clean benchmark batch: 36 customers over
/// 7 addresses that all end in " 1" (so one q-gram group holds every row),
/// then 4 of them repeated 3 times with a noised name.
Dataset FuzzyCleanBatch() {
  static const char* kStreets[] = {"Main St", "Oak Ave", "Pine Rd", "Elm St",
                                   "Lake Dr", "Hill Rd", "Park Ave"};
  const Dataset names = datagen::MakeAuthorDictionary(36);
  Dataset batch(Schema{{"custkey", ValueType::kInt},
                       {"name", ValueType::kString},
                       {"address", ValueType::kString},
                       {"nationkey", ValueType::kInt}});
  for (size_t i = 0; i < 36; i++) {
    batch.Append({Value(static_cast<int64_t>(i)), names.row(i)[0],
                  Value(std::string(kStreets[i % 7]) + " 1"),
                  Value(static_cast<int64_t>(i % 7))});
  }
  Rng rng(9);
  for (size_t d = 0; d < 4; d++) {
    for (size_t c = 0; c < 3; c++) {
      Row dup = batch.row(d * 5);
      dup[0] = Value(static_cast<int64_t>(batch.num_rows()));
      dup[1] = Value(datagen::AddNoise(dup[1].AsString(), 0.1, &rng));
      batch.Append(std::move(dup));
    }
  }
  return batch;
}

std::vector<std::string> Column(const Dataset& t, size_t column) {
  std::vector<std::string> out;
  for (const auto& row : t.rows()) out.push_back(row[column].AsString());
  return out;
}

TEST(E2EPairsCounterTest, DedupVerifiesEachDistinctCandidatePairOnce) {
  const Dataset batch = FuzzyCleanBatch();
  ASSERT_EQ(batch.num_rows(), 48u);
  FilteringOptions fopts = FastCleanDBOptions().filtering;
  fopts.algo = FilteringAlgo::kTokenFiltering;
  std::set<std::pair<uint32_t, uint32_t>> candidates;  // every custkey differs
  for (const auto& [key, members] : BuildGroups(Column(batch, 2), fopts)) {
    for (uint32_t a : members) {
      for (uint32_t b : members) {
        if (a < b) candidates.emplace(a, b);
      }
    }
  }
  EXPECT_EQ(candidates.size(), 48u * 47u / 2u);  // all share the " 1" group

  for (size_t nodes : {size_t{1}, size_t{4}}) {
    const QueryResult result =
        ExecuteOn({{"customer", &batch}},
                  "SELECT * FROM customer c DEDUP(token filtering, LD, 0.8, c.address)",
                  nodes, 4096);
    EXPECT_EQ(result.metrics.comparisons, candidates.size()) << "nodes=" << nodes;
  }
}

TEST(E2EPairsCounterTest, TermValidationVerifiesEachDistinctCandidatePairOnce) {
  const Dataset batch = FuzzyCleanBatch();
  const Dataset names = datagen::MakeAuthorDictionary(60);
  Dataset dict(Schema{{"name", ValueType::kString}});
  for (const auto& row : names.rows()) dict.Append(row);
  FilteringOptions fopts = FastCleanDBOptions().filtering;
  fopts.algo = FilteringAlgo::kTokenFiltering;
  const std::vector<std::string> dict_terms = Column(dict, 0);
  // A term found verbatim in the dictionary is clean: it makes no pair.
  const std::set<std::string> dictionary(dict_terms.begin(), dict_terms.end());
  std::vector<std::string> terms;
  for (auto& term : Column(batch, 1)) {
    if (!dictionary.count(term)) terms.push_back(std::move(term));
  }
  ASSERT_FALSE(terms.empty());
  ASSERT_LT(terms.size(), batch.num_rows());  // the batch holds dictionary words
  const auto data_groups = BuildGroups(terms, fopts);
  std::set<std::pair<std::string, std::string>> candidates;
  for (const auto& [key, dict_members] : BuildGroups(dict_terms, fopts)) {
    auto it = data_groups.find(key);
    if (it == data_groups.end()) continue;
    for (uint32_t t : it->second) {
      for (uint32_t d : dict_members) candidates.emplace(terms[t], dict_terms[d]);
    }
  }
  ASSERT_FALSE(candidates.empty());

  for (size_t nodes : {size_t{1}, size_t{4}}) {
    const QueryResult result =
        ExecuteOn({{"customer", &batch}, {"dictionary", &dict}},
                  "SELECT * FROM customer c, dictionary d "
                  "CLUSTER BY(token filtering, LD, 0.8, c.name)",
                  nodes, 4096);
    EXPECT_EQ(result.metrics.comparisons, candidates.size()) << "nodes=" << nodes;
  }
}

TEST(E2EMorselPipelineTest, JoinOverNestsSurvivesTinyCacheBudget) {
  // Term validation joins two Nest outputs. Under a byte budget small
  // enough that admitting the second Nest's output evicts the first's,
  // the pipelined join must not stream from the evicted entry (regression
  // test: borrowed cache pointers are detached before the other side may
  // mutate the cache).
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value("jonathan smith")});
  dict.Append({Value("mary jones")});
  Dataset data(Schema{{"name", ValueType::kString}});
  data.Append({Value("jonathan smyth")});
  data.Append({Value("mary jones")});
  data.Append({Value("jonathan smith")});

  const char* query = "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)";
  auto run = [&](size_t cache_bytes) {
    CleanDBOptions opts = FastCleanDBOptions();
    opts.partition_cache_bytes = cache_bytes;
    CleanDB db(opts);
    db.RegisterTable("data", data);
    db.RegisterTable("dict", dict);
    auto prepared = db.Prepare(query);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions eo;
    eo.morsel_rows = 1;
    return prepared.value().Execute(eo).ValueOrDie();
  };
  const auto unbounded = RenderedViolations(run(0));
  ASSERT_GT(unbounded.size(), 0u);
  EXPECT_EQ(RenderedViolations(run(1)), unbounded);  // evicts every Put
}

TEST(E2EMorselPipelineTest, DenialConstraintBitIdenticalAcrossMorselSizes) {
  const Dataset data = PipelineCustomers();
  const char* rule =
      "t1.address = t2.address AND t1.custkey < t2.custkey "
      "AND t1.nationkey <> t2.nationkey";
  auto run = [&](size_t morsel_rows) {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("customer", data);
    auto prepared =
        db.PrepareDenialConstraint("customer", ParseCleanMExpr(rule).ValueOrDie());
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions opts;
    opts.morsel_rows = morsel_rows;
    return prepared.value().Execute(opts).ValueOrDie();
  };
  const QueryResult baseline = run(4096);
  const auto baseline_violations = RenderedViolations(baseline);
  ASSERT_GT(baseline_violations.size(), 0u);
  CleaningPlan dc;
  dc.op_name = "DC";
  dc.plan = JoinOp(Scan("customer", "t1"), Scan("customer", "t2"),
                   ParseCleanMExpr(rule).ValueOrDie());
  dc.entity_vars = {"t1", "t2"};
  const Catalog catalog{{{"customer", &data}}};
  EXPECT_EQ(CanonicalViolations(baseline, {dc}), ReferenceViolations({dc}, catalog));
  for (size_t morsel_rows : kMorselSweep) {
    EXPECT_EQ(RenderedViolations(run(morsel_rows)), baseline_violations)
        << "denial constraint diverged at morsel_rows=" << morsel_rows;
  }
}

TEST(E2EMorselPipelineTest, SinkAbortsMidMorselAndStopsTheStream) {
  class AbortingSink : public ViolationSink {
   public:
    Status OnViolation(const std::string&, const Value&) override {
      seen++;
      if (seen >= 3) return Status::IOError("sink full after 3 violations");
      return Status::OK();
    }
    Status OnDirtyEntity(const Value&, const std::vector<std::string>&) override {
      ADD_FAILURE() << "aborted execution must not reach the entity join";
      return Status::OK();
    }
    int seen = 0;
  };

  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", PipelineCustomers());
  auto prepared = db.Prepare("SELECT * FROM customer c DEDUP(exact, c.address)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // morsel_rows = 7 with the abort on the 3rd violation: the sink dies in
  // the middle of a morsel, and the pipeline must stop there — not finish
  // the morsel, not finish the operator.
  AbortingSink sink;
  ExecOptions opts;
  opts.morsel_rows = 7;
  auto status = prepared.value().ExecuteInto(sink, opts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(sink.seen, 3);
}

TEST(E2EMorselPipelineTest, MetricsMonotonicity) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    DEDUP(exact, LD, 0.8, c.address)
  )";
  const Dataset data = PipelineCustomers();
  const QueryResult fine = ExecuteAtMorselSize(data, query, 7);
  const QueryResult coarse = ExecuteAtMorselSize(data, query, 4096);

  // Execution always streams, and finer morsels mean strictly more of them.
  EXPECT_GT(coarse.metrics.morsels_processed, 0u);
  EXPECT_GT(fine.metrics.morsels_processed, coarse.metrics.morsels_processed);

  // Peak transient memory: nonzero (real work happened), and finer morsels
  // never hold more in flight.
  EXPECT_GT(fine.metrics.peak_bytes_materialized, 0u);
  EXPECT_LE(fine.metrics.peak_bytes_materialized,
            coarse.metrics.peak_bytes_materialized);

  // Identical work otherwise: the shuffle/scan/group counters agree across
  // morsel sizes (only the pipelining counters may differ).
  auto without_pipelining_counters = [](MetricsSnapshot m) {
    m.peak_bytes_materialized = 0;
    m.morsels_processed = 0;
    return m;
  };
  EXPECT_TRUE(SnapshotsEqual(without_pipelining_counters(fine.metrics),
                             without_pipelining_counters(coarse.metrics)));
}

}  // namespace
}  // namespace cleanm
