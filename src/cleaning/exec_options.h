// Per-execution overrides for PreparedQuery::Execute.
//
// A CleanDB session freezes its defaults at construction (CleanDBOptions).
// ExecOptions carries the per-call deltas that do not touch the shared
// cluster or buffer pool: every field defaults to "inherit the session
// value". The cluster itself — node count, simulated interconnect, fault
// injection — and the out-of-core storage — buffer-pool budget, spill
// directory, page size — are configured once per session; an execution
// that needs different ones runs on a session built with them.
//
// Re-executions after mutations take the incremental delta path whenever
// it applies; a cold run re-registers the table.
//
// The fields shared with CleanDBOptions are generated from
// CLEANM_SESSION_KNOBS (cleaning/session_knobs.h) so the session default,
// the per-call optional, and the resolution below can never drift apart:
//
//   unify_operations — run the Nest-coalesced (unified) plan forms vs. the
//     standalone per-operation plans (the Figure-5 ablation, per call).
//   morsel_rows — rows per morsel of the operator-level pipelines below
//     the sink (morsel-driven chains with breakers at Nest/Reduce/shuffle
//     boundaries), clamped to ≥ 1. Violation sets are bit-identical at any
//     size (CI-gated).
//   profile — record operator-level tracing spans and attach a
//     QueryProfile to the QueryResult (CI-gated ≤ 2% overhead when off).
//   trace_path — when profiling, additionally write the spans as
//     Chrome/Perfetto trace_event JSON to this path (empty = no file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "cleaning/session_knobs.h"

namespace cleanm {

struct ExecOptions {
  // Shared session knobs: empty optional = inherit the session default.
#define CLEANM_X(type, name, default_value) std::optional<type> name;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X

  /// Admission-control charge for this execution, in logical bytes —
  /// overrides the default estimate (the summed ByteSize of every table the
  /// plans scan, the same RowByteSize accounting the
  /// peak_bytes_materialized gauge uses). Counted against
  /// CleanDBOptions::max_inflight_bytes; ignored when the session has no
  /// in-flight budget.
  std::optional<uint64_t> admission_bytes;

  /// Wall-clock budget for this execution. When it elapses the execution
  /// unwinds at the next epoch/morsel boundary (or mid network sleep) and
  /// returns kDeadlineExceeded with all workers joined.
  std::optional<uint64_t> deadline_ns;

  /// Poison rows tolerated: a row whose compiled expression or UDF throws
  /// is recorded in QueryResult::quarantined and skipped instead of
  /// aborting. Past the cap the execution fails. Unset/0 = quarantine off
  /// (a throwing row fails the execution with kInternal).
  std::optional<size_t> max_quarantined_rows;
};

/// The shared knobs of one execution after per-call overrides were applied
/// over the session defaults — the single place ExecutePrepared reads them
/// from (instead of a value_or chain at every use site).
struct ResolvedExecOptions {
#define CLEANM_X(type, name, default_value) type name = default_value;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X
};

/// Resolves the shared knobs: each ExecOptions field that is set overrides
/// the session default. Templated over the session-options type only to
/// avoid an include cycle with cleandb.h; the session type must carry one
/// plain field per CLEANM_SESSION_KNOBS entry (CleanDBOptions does, by
/// construction — its fields are generated from the same list).
template <typename SessionOptions>
ResolvedExecOptions ResolveExecOptions(const ExecOptions& opts,
                                       const SessionOptions& session) {
  ResolvedExecOptions out;
#define CLEANM_X(type, name, default_value) \
  out.name = opts.name.has_value() ? *opts.name : session.name;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X
  return out;
}

}  // namespace cleanm
