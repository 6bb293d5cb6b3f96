// Physical planner/executor: lowers algebra plans onto the virtual cluster
// (paper Section 6, Table 2).
//
// Operator mapping (Table 2 of the paper, Spark column → engine column):
//   Select      → filter stage of a morsel pipeline
//   Unnest      → flatMap stage of a morsel pipeline
//   Project     → per-tuple field mapping stage of a morsel pipeline
//   Pairs       → per-group similarity stage of a morsel pipeline (each
//                 candidate pair verified once, in its owner group)
//   Reduce      → morsel-fed per-node fold + driver-side monoid merge
//   Nest        → aggregate-by-key under the configured strategy: CleanDB
//                 uses local pre-aggregation (aggregateByKey →
//                 mapPartitions); the baselines use sort-/hash-shuffles
//   Equi join   → engine::HashEquiJoin
//   Theta join  → engine::ThetaJoin under the configured algorithm
//                 (CleanDB: statistics-aware matrix partitioning)
//   Outer join  → engine::HashLeftOuterJoin
//
// The executor also implements the two sharing mechanisms enabled by the
// algebra rewriter — shared scans (each table parallelized once, Figure 1's
// DAG) and shared Nests (a coalesced Nest node executes once and feeds
// every consumer) — by reading and writing the session-owned
// PartitionCache, so the sharing extends across executions: any later plan
// holding a structurally equal Nest over the same table generations reuses
// its output, whether it comes from the same PreparedQuery or not.
#pragma once

#include <map>
#include <string>

#include "algebra/algebra.h"
#include "algebra/algebra_eval.h"  // Catalog, CollectVars
#include "engine/aggregate.h"
#include "engine/cluster.h"
#include "engine/join.h"
#include "physical/compile.h"
#include "physical/partition_cache.h"

namespace cleanm {

class SpillContext;

/// Terminal continuation of a compiled transform chain: consumes each
/// produced tuple.
using TupleSink = std::function<void(Value, engine::Partition*)>;

/// True for the row-wise operators a pipeline segment fuses into one per-row
/// expansion: Select, Unnest, OuterUnnest, Project, Pairs.
bool IsTransform(AlgKind kind);

/// The first operator at or under `plan` that is not a transform: the
/// source (breaker or scan) a pipeline segment streams from.
const AlgOpPtr& TransformSource(const AlgOpPtr& plan);

/// Compiles the transforms from `plan` down to TransformSource(plan) into
/// one per-row expansion over the source's physical rows. Select filters;
/// Unnest expands with the padding/branching of the reference evaluator (a
/// null or empty collection pads Null only under OuterUnnest, a non-list
/// scalar behaves as a singleton); Project rebuilds the tuple from its
/// columns; Pairs expands a group tuple into its owned similar pairs.
/// `terminal` consumes each produced tuple (default: append it as a
/// physical row). This is the only definition of the transforms' per-row
/// semantics: the executor's segments and the incremental validator both
/// run it.
Result<engine::MorselExpand> CompileTransforms(const AlgOpPtr& plan,
                                               const CompileEnv& env,
                                               TupleSink terminal = nullptr);

/// Compiles a Pairs operator whose input tuples have `layout` into a stage
/// feeding `inner`: each group tuple expands into the member pairs it owns
/// and finds similar, each verification charged to `env.metrics`'
/// `comparisons` (pairs.cc).
Result<TupleSink> CompilePairs(const AlgOp& op, const TupleLayout& layout,
                               const CompileEnv& env, TupleSink inner);

/// Knobs distinguishing CleanDB from the baseline systems.
struct PhysicalOptions {
  engine::AggregateStrategy aggregate_strategy =
      engine::AggregateStrategy::kLocalCombine;
  engine::ThetaJoinAlgo theta_algo = engine::ThetaJoinAlgo::kMatrix;
};

/// \brief Execution state: cluster, catalog, options, session cache.
///
/// The cache outlives the executor (a session runs many executors over its
/// lifetime); an executor is cheap and constructed per execution.
struct Executor {
  Executor(engine::Cluster* cluster_in, const Catalog* catalog_in,
           PhysicalOptions options_in, PartitionCache* cache_in,
           const FunctionRegistry* functions_in = nullptr)
      : cluster(cluster_in),
        catalog(catalog_in),
        options(options_in),
        functions(functions_in ? functions_in : catalog_in->functions),
        cache(cache_in) {}

  engine::Cluster* cluster = nullptr;
  const Catalog* catalog = nullptr;
  PhysicalOptions options;
  /// Session function registry (may be null): registered scalars resolve
  /// inside compiled expressions, registered aggregates supply Nest/Reduce
  /// monoids whose partial accumulators merge across worker nodes like the
  /// built-ins. Defaults to the catalog's registry.
  const FunctionRegistry* functions = nullptr;
  /// Session-owned partition cache (required): scans and wrapped scans are
  /// looked up and published here keyed by table generation, Nest outputs
  /// keyed by plan structure.
  PartitionCache* cache = nullptr;
  /// Nest outputs built while rows were quarantined: incomplete, so they
  /// stay out of the session cache and serve only this execution's other
  /// consumers of the same Nest.
  std::map<const AlgOp*, engine::Partitioned> local_nests;
  /// Per-execution poison-row quarantine (null = off). When set, pipeline
  /// segments route a row whose compiled expression or UDF throws into the
  /// sink (recorded with source label, node, and row ordinal) and skip it
  /// instead of failing the execution; past the sink's cap the execution
  /// aborts.
  engine::QuarantineSink* quarantine = nullptr;
  /// Per-execution spill context (null = breakers never spill). When set
  /// and over budget, Nest partials and hash-join build sides go to the
  /// spill file and are re-read for the merge/probe phase.
  SpillContext* spill = nullptr;

  /// Compile context for this execution: registered functions + the
  /// cluster's metrics (udf_calls accounting).
  CompileEnv Env() const { return {functions, &cluster->metrics()}; }

  // ---- Execution (operator-level streaming; pipeline.cc) ----
  //
  // The plan decomposes into MorselSource → Transform* chains: Select /
  // Unnest / Project stages stream fixed-size morsels from a resident
  // source (a cached scan, a Nest output, a Join output) without
  // materializing any intermediate operator output; pipeline *breakers*
  // sit only at Nest / Reduce / shuffle (join) boundaries, and a Nest
  // consumes its own input morsel-wise (engine::MorselAggregator), so the
  // keyed expansion is never materialized either. Per-node row order, fold
  // order, and node-major delivery do not depend on the morsel size, so
  // results are bit-identical at any morsel_rows.

  /// Streams the plan's output tuples (layout CollectVars(plan)) to
  /// `consume` in node-major order, `morsel_rows` rows at a time. A non-OK
  /// status from `consume` aborts the execution early and is returned.
  /// The root must not be a Reduce (use RunToValue).
  Status RunPipelined(const AlgOpPtr& plan, size_t morsel_rows,
                      const std::function<Status(size_t node, engine::Partition&&)>&
                          consume);

  /// Executes a full plan; Reduce roots fold morsel-fed per-node partials
  /// to a single Value, other roots collect their streamed tuples into a
  /// list Value (same convention as the reference evaluator).
  Result<Value> RunToValue(const AlgOpPtr& plan,
                           size_t morsel_rows = engine::MorselSpec().morsel_rows);

  // ---- Internals shared by planner.cc and pipeline.cc ----

  /// A compiled pipeline segment: the resident source partitioning plus the
  /// composed row-wise transform chain above it. Owned (breaker-output)
  /// storage is charged to the peak_bytes_materialized gauge for the
  /// segment's lifetime.
  struct PipelineSegment {
    PipelineSegment() = default;
    PipelineSegment(PipelineSegment&& o) noexcept { *this = std::move(o); }
    PipelineSegment& operator=(PipelineSegment&& o) noexcept {
      ReleaseNow();
      borrowed = std::move(o.borrowed);
      owned = std::move(o.owned);
      owned_bytes = o.owned_bytes;
      gauge = o.gauge;
      expand = std::move(o.expand);
      identity = o.identity;
      o.borrowed = nullptr;
      o.owned_bytes = 0;
      o.gauge = nullptr;
      return *this;
    }
    PipelineSegment(const PipelineSegment&) = delete;
    PipelineSegment& operator=(const PipelineSegment&) = delete;
    ~PipelineSegment() { ReleaseNow(); }

    void ReleaseNow() {
      if (gauge && owned_bytes) {
        gauge->ReleaseMaterialized(owned_bytes);
        owned_bytes = 0;
      }
    }
    const engine::Partitioned& data() const {
      return borrowed ? *borrowed : owned;
    }

    /// Pinned cache-resident source: the pin keeps the partitioning alive
    /// even if a concurrent execution's eviction or RegisterTable
    /// invalidation drops it from the cache mid-stream.
    PartitionPin borrowed;
    engine::Partitioned owned;     ///< breaker output owned by the segment
    uint64_t owned_bytes = 0;      ///< `owned`'s charge on the gauge
    QueryMetrics* gauge = nullptr;
    engine::MorselExpand expand;   ///< source row → output tuples
    bool identity = false;         ///< no transforms: source rows pass through
  };

  /// A Nest stage compiled to physical form: the keyed expansion feeding
  /// the aggregation (tuple-level, so the pipelined path fuses it as a
  /// chain terminal without re-wrapping rows), and the monoid
  /// AggregateSpec.
  struct CompiledNest {
    std::function<void(const Value& tuple, engine::Partition*)> expand;
    engine::AggregateSpec spec;
  };

  /// The {var: record} wrapped scan, resolved through (and pinned in) the
  /// session cache (a miss may patch an earlier generation forward through
  /// the delta log).
  Result<PartitionPin> WrappedScan(const AlgOp& scan);

  /// Executes a join node over already-resolved inputs.
  Result<engine::Partitioned> ExecJoin(const AlgOpPtr& plan,
                                       const engine::Partitioned& left,
                                       const engine::Partitioned& right);

  /// Compiles a Nest node's grouping expansion + aggregation spec.
  Result<CompiledNest> CompileNestStage(const AlgOpPtr& plan);

  /// Decomposes `plan` into a pipeline segment (pipeline.cc). A custom
  /// `terminal` fuses the consumer into the chain — breakers use it to
  /// fold expansions without an intermediate per-row buffer.
  Result<PipelineSegment> BuildSegment(const AlgOpPtr& plan, size_t morsel_rows,
                                       TupleSink terminal = nullptr);

  /// The Nest breaker on the pipelined path: cache lookup, else morsel-fed
  /// aggregation over the input segment; the result is resident (a pinned
  /// session-cache entry or local_nests), never copied out.
  Result<PartitionPin> PipelinedNest(const AlgOpPtr& plan, size_t morsel_rows);
};

/// Every table scanned under `plan`, with the catalog's current generation
/// — the dependency set recorded on cached Nest outputs (and the tables an
/// execution's admission charge covers).
void CollectScanDeps(const AlgOpPtr& plan, const Catalog& catalog,
                     std::vector<std::pair<std::string, uint64_t>>* deps);

}  // namespace cleanm
