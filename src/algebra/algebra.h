// Nested relational algebra (paper Section 5, Table 1).
//
// The second abstraction level: normalized monoid comprehensions translate
// into this algebra, whose operators resemble relational ones but handle
// nested data and monoid-typed aggregation explicitly:
//
//   Scan            base collection, binds a tuple variable
//   Select   σp     filter
//   Join     ⋈p     inner join (hash form when an equi-key pair is present,
//                   theta form otherwise)
//   OuterJoin ⟕p    left outer join (null-extends unmatched left tuples)
//   Unnest   μ      iterates a nested collection field, binding its elements
//   OuterUnnest μ̄   like Unnest but keeps tuples with empty collections
//   Project  π      renames and drops tuple fields (the coalescing rewrite
//                   uses it to give each consumer of a shared Nest its own
//                   output fields back)
//   Reduce   Δ⊕/e   folds e over the input with monoid ⊕ (the final output)
//   Nest     Γ⊕/e/f groups by f and folds one or more aggregations per
//                   group; `having` filters groups. The grouping key can be
//                   an exact expression or a *grouping monoid* (token
//                   filtering / k-means), in which case one tuple may join
//                   several groups — the algebra-level form of the pruning
//                   monoids of Section 4.3.
//   Pairs           the similarity stage of DEDUP / CLUSTER BY: one group
//                   tuple in, its similar member pairs out. Under a
//                   grouping monoid a pair sits in every group its members
//                   share; only its *owner group* verifies and emits it
//                   (PairSpec, PairOwnerRank), so each candidate pair is
//                   checked once.
//
// Tuples at this level are variable environments: a Value struct mapping
// each bound variable to its record. tests/algebra_test.cc checks the
// driver-side evaluator (algebra_eval.h) against the comprehension
// interpreter.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/filtering.h"
#include "monoid/expr.h"

namespace cleanm {

enum class AlgKind {
  kScan,
  kSelect,
  kJoin,
  kOuterJoin,
  kUnnest,
  kOuterUnnest,
  kReduce,
  kNest,
  kProject,
  kPairs,
};

const char* AlgKindName(AlgKind kind);

/// How a Nest derives group keys from a tuple.
struct GroupSpec {
  /// Key derivation: exact expression value, or a grouping monoid.
  FilteringAlgo algo = FilteringAlgo::kExactKey;
  /// The term the key derives from (e.g. c.address).
  ExprPtr term;
  /// Token filtering parameter.
  size_t q = 2;
  /// K-means parameters; `centers` is filled by the planner (sampled from a
  /// dictionary or the data) before evaluation.
  size_t k = 10;
  double delta = 1.0;
  std::vector<std::string> centers;
};

/// Calls `emit` with each group key a grouping term's value falls into
/// under `group` — the one definition of the keying, shared by the Nest
/// (both evaluators) and the Pairs owner rule. Exact grouping yields the
/// value itself; token filtering its distinct q-grams, in order; k-means
/// the centers it is assigned to. A non-string value under a grouping
/// monoid is a TypeError (the physical Nest skips such a row) and k-means
/// without sampled centers an InvalidArgument; either emits no key.
Status ForEachGroupKey(const GroupSpec& group, const Value& term,
                       const std::function<void(Value key)>& emit);

/// How a Pairs operator forms, owns and verifies the candidate pairs of
/// one group tuple.
struct PairSpec {
  /// Member collections of the group tuple and the variables a pair binds
  /// them to. `ordered` pairs one collection with itself (`right` names
  /// the same one), each left < right pair once (DEDUP). Otherwise it
  /// pairs two collections (CLUSTER BY: terms × dictionary terms), and a
  /// left member with an equal (Compare == 0) right member pairs with
  /// nothing: a term found verbatim in the dictionary is clean. Equal
  /// values derive equal keys under every keying, so such a term meets
  /// its twin in every group it sits in, and the rule drops it everywhere.
  ExprPtr left, right;
  std::string left_var, right_var;
  bool ordered = true;
  /// The variable `text` and `keys.term` bind a member of either side to.
  std::string member;
  /// Member → the string the metric compares. A null text compares as
  /// "" and any other non-string text matches nothing (the reference
  /// evaluator reports it as a TypeError), as `similar`'s arguments do.
  ExprPtr text;
  SimilarityMetric metric = SimilarityMetric::kLevenshtein;
  double theta = 0;
  /// The upstream Nest's key derivation, re-applied to a pair's members by
  /// the owner rule, and the group-tuple field holding this group's key.
  GroupSpec keys;
  std::string key_name = "key";
};

/// The owner rule. A pair is verified and emitted only in its owner group:
/// among the keys both members share, the one of least PairOwnerRank (ties
/// broken by key order). The rank hashes the key under a per-pair seed,
/// so a key every member shares (a gram common to all rows) owns only a
/// share of its pairs instead of all of them.
inline uint64_t PairSeed(uint64_t left_hash, uint64_t right_hash) {
  return HashCombine(left_hash, right_hash);
}
inline uint64_t PairOwnerRank(uint64_t pair_seed, uint64_t key_hash) {
  return HashCombine(pair_seed, key_hash);
}

/// One aggregation computed by a Nest: fold `expr` over the group members
/// with `monoid`, exposing the result as field `name`.
struct NestAgg {
  std::string name;
  std::string monoid;
  ExprPtr expr;
};

/// One output field of a Project: `name` takes the value of the input
/// tuple's field `from`.
struct ProjectColumn {
  std::string name;
  std::string from;
};

struct AlgOp;
using AlgOpPtr = std::shared_ptr<AlgOp>;

/// \brief One algebra operator. Tagged union, like Expr.
struct AlgOp {
  AlgKind kind;

  // kScan
  std::string table;  ///< name resolved against a Catalog at execution time
  std::string var;    ///< tuple variable the scan binds

  AlgOpPtr input;  ///< unary input / join left
  AlgOpPtr right;  ///< join right

  ExprPtr pred;  ///< kSelect / join predicate (may be null for cross)

  /// Optional equi-join keys: when both are set the join executes as a
  /// hash join on left_key = right_key with `pred` as residual filter.
  ExprPtr left_key, right_key;

  // kUnnest / kOuterUnnest
  ExprPtr path;          ///< collection-valued expression to iterate
  std::string path_var;  ///< variable bound to each element

  // kReduce
  std::string monoid;
  ExprPtr head;

  // kNest
  GroupSpec group;
  std::vector<NestAgg> aggs;
  ExprPtr having;               ///< over {key, <agg names>}; may be null
  std::string key_name = "key";

  // kProject: the output tuple's fields, in order.
  std::vector<ProjectColumn> columns;

  // kPairs
  PairSpec pairs;

  /// One-line rendering of this operator alone, e.g. `Select[p]`.
  std::string Headline() const;
  /// The whole plan tree, one Headline per line, children indented.
  std::string ToString() const;
};

AlgOpPtr Scan(std::string table, std::string var);
AlgOpPtr SelectOp(AlgOpPtr input, ExprPtr pred);
AlgOpPtr JoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr pred);
AlgOpPtr EquiJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key,
                    ExprPtr residual_pred = nullptr);
AlgOpPtr OuterJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key);
AlgOpPtr UnnestOp(AlgOpPtr input, ExprPtr path, std::string path_var, bool outer = false);
AlgOpPtr ReduceOp(AlgOpPtr input, std::string monoid, ExprPtr head);
AlgOpPtr NestOp(AlgOpPtr input, GroupSpec group, std::vector<NestAgg> aggs,
                ExprPtr having = nullptr, std::string key_name = "key");
AlgOpPtr ProjectOp(AlgOpPtr input, std::vector<ProjectColumn> columns);
AlgOpPtr PairsOp(AlgOpPtr input, PairSpec pairs);

/// A Project's semantics, shared by every evaluator: the struct
/// {c.name: tuple.c.from} over `columns` in order (a missing input field
/// projects to null).
Value ProjectTuple(const Value& tuple, const std::vector<ProjectColumn>& columns);

/// Structural equality of two key derivations.
bool SameGroupSpec(const GroupSpec& a, const GroupSpec& b);

/// Deep structural equality of plans (used by the rewriter to detect
/// shareable sub-plans).
bool AlgEquals(const AlgOpPtr& a, const AlgOpPtr& b);

/// Deep copy.
AlgOpPtr AlgClone(const AlgOpPtr& op);

}  // namespace cleanm
