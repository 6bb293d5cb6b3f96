// Desugaring of CleanM cleaning clauses into algebra plans (paper
// Section 4.4 semantics, Section 5 plans).
//
// Each clause lowers to the canonical comprehension template of Section 4.4
// and from there to a nested-relational-algebra plan:
//
//   FD(lhs, rhs)      groups := for(c <- T) yield filter(lhs)
//                     for(g <- groups, count(distinct rhs) > 1) yield bag g
//                     → Nest[exact lhs; vals=set(rhs), partition=bag(c);
//                            having count(vals) > 1]
//
//   DEDUP(op, m, θ, attrs)
//                     groups := for(c <- T) yield filter(attrs, op)
//                     for(g, p1 <- g.partition, p2 <- g.partition,
//                         similar(m, p1, p2, θ)) yield bag (p1, p2)
//                     → Nest[op attrs; partition=bag(c); |partition|>1]
//                       → Pairs[p1, p2 <- partition, p1 < p2,
//                               similar(m, to_string(c), θ), owner op(attrs)]
//
//   CLUSTER BY(op, m, θ, term)   (dictionary = second FROM table)
//                     → Nest over data terms ⋈(key) Nest over dictionary
//                       → Pairs[term <- terms × suggestion <- dict_terms,
//                               term ∉ dict_terms, similar(m, term, θ),
//                               owner op(term)]
//
// Pairs (algebra.h) verifies each candidate pair once, in its owner group:
// under a grouping monoid a pair shares several groups, and only the one
// the owner rule picks emits it, carrying that group's key and members.
// In CLUSTER BY a term found verbatim in the dictionary pairs with
// nothing: it meets its dictionary twin in every group it sits in, so the
// rule equals pre-filtering the data against the dictionary.
// CleanDB::ValidateTerms runs this same plan.
//
// The builders return plain algebra plans; CoalesceNests + the physical
// executor provide the Figure-1 work sharing when a query carries several
// clauses.
#pragma once

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"
#include "language/ast.h"

namespace cleanm {

/// One cleaning operation lowered to algebra, plus bookkeeping for the
/// unified-result outer join.
struct CleaningPlan {
  std::string op_name;   ///< "FD", "DEDUP", "CLUSTER BY" (+index if several)
  AlgOpPtr plan;         ///< violation-producing plan
  /// Variables of `plan`'s output holding violating source records:
  /// FD → the partition bag; DEDUP → the two pair members; CLUSTER BY → the
  /// offending term (not a record).
  std::vector<std::string> entity_vars;
};

/// Combines multiple attribute expressions into one grouping term:
/// a single expression stays as is; several become concat(a, '|', b, ...).
ExprPtr CombineAttrs(const std::vector<ExprPtr>& attrs);

/// FD plan over `table` bound as `var`.
Result<CleaningPlan> BuildFdPlan(const std::string& table, const std::string& var,
                                 const FdClause& fd);

/// DEDUP plan. `options` supplies the q/k/delta defaults for the chosen
/// filtering algorithm; kmeans centers are sampled by the caller (CleanDB)
/// and passed through `centers`.
Result<CleaningPlan> BuildDedupPlan(const std::string& table, const std::string& var,
                                    const DedupClause& dedup,
                                    const FilteringOptions& options,
                                    std::vector<std::string> centers = {});

/// CLUSTER BY (term validation) plan over data table + dictionary table.
Result<CleaningPlan> BuildTermValidationPlan(
    const std::string& data_table, const std::string& data_var,
    const std::string& dict_table, const std::string& dict_var,
    const std::string& dict_attr, const ClusterByClause& cb,
    const FilteringOptions& options, std::vector<std::string> centers = {});

/// The canonical comprehension for an FD clause (Section 4.4), for EXPLAIN
/// output and the semantics tests.
ExprPtr FdComprehension(const std::string& table, const std::string& var,
                        const FdClause& fd);

/// \brief Streaming-capable entity-projection dedup: one entity projection
/// can surface more than once (a DEDUP partition holding two identical
/// records yields the same (p1, p2) twice), and only its first occurrence
/// must reach the sink.
///
/// The seen-set persists across calls, so morsel boundaries cannot change
/// which violations are emitted. ViolationReport (cleaning/violation_sink.h)
/// applies it per operation on both the engine path and the incremental
/// path.
class ViolationDeduper {
 public:
  explicit ViolationDeduper(const CleaningPlan& cp) : cp_(&cp) {}

  /// True when `v` is the first occurrence of its entity projection (or
  /// projects onto no entity var at all) and should be emitted.
  bool ShouldEmit(const Value& v);

 private:
  const CleaningPlan* cp_;
  std::unordered_set<uint64_t> seen_;
};

/// Walks a cleaning plan's output (a list Value of tuples), deduplicated
/// on the operation's entity projection via ViolationDeduper. Calls `emit`
/// for each kept violation; a non-OK status from `emit` stops the walk and
/// is returned. For callers holding a whole plan output (e.g. a reference
/// evaluator result) that need the sink's dedup semantics.
Status ForEachDedupedViolation(const Value& plan_output, const CleaningPlan& cp,
                               const std::function<Status(const Value&)>& emit);

}  // namespace cleanm
