#include "cleaning/plan_builder.h"

#include <unordered_set>

#include "common/hash.h"

namespace cleanm {

bool ViolationDeduper::ShouldEmit(const Value& v) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  bool projected = false;
  for (const auto& var : cp_->entity_vars) {
    auto field = v.GetField(var);
    if (field.ok()) {
      h = HashCombine(h, field.value().Hash());
      projected = true;
    }
  }
  return !projected || seen_.insert(h).second;
}

Status ForEachDedupedViolation(const Value& plan_output, const CleaningPlan& cp,
                               const std::function<Status(const Value&)>& emit) {
  ViolationDeduper dedup(cp);
  for (const auto& v : plan_output.AsList()) {
    if (!dedup.ShouldEmit(v)) continue;  // duplicate projection
    CLEANM_RETURN_NOT_OK(emit(v));
  }
  return Status::OK();
}

ExprPtr CombineAttrs(const std::vector<ExprPtr>& attrs) {
  CLEANM_CHECK(!attrs.empty());
  if (attrs.size() == 1) return attrs[0];
  std::vector<ExprPtr> args;
  for (size_t i = 0; i < attrs.size(); i++) {
    if (i) args.push_back(ConstString("|"));
    args.push_back(attrs[i]);
  }
  return Call("concat", std::move(args));
}

namespace {

GroupSpec MakeGroupSpec(FilteringAlgo algo, ExprPtr term,
                        const FilteringOptions& options,
                        std::vector<std::string> centers) {
  GroupSpec group;
  group.algo = algo;
  group.term = std::move(term);
  group.q = options.q;
  group.k = options.k;
  group.delta = options.delta;
  group.centers = std::move(centers);
  return group;
}

}  // namespace

Result<CleaningPlan> BuildFdPlan(const std::string& table, const std::string& var,
                                 const FdClause& fd) {
  if (fd.lhs.empty() || fd.rhs.empty()) {
    return Status::InvalidArgument("FD requires LHS and RHS attributes");
  }
  GroupSpec group;
  group.algo = FilteringAlgo::kExactKey;
  group.term = CombineAttrs(fd.lhs);

  std::vector<NestAgg> aggs;
  aggs.push_back({"vals", "set", CombineAttrs(fd.rhs)});
  aggs.push_back({"partition", "bag", Var(var)});
  // Violation: the LHS group maps to more than one distinct RHS value.
  ExprPtr having = Binary(BinaryOp::kGt, Call("count", {Var("vals")}), ConstInt(1));

  CleaningPlan out;
  out.op_name = "FD";
  out.plan = NestOp(Scan(table, var), std::move(group), std::move(aggs),
                    std::move(having));
  out.entity_vars = {"partition"};
  return out;
}

Result<CleaningPlan> BuildDedupPlan(const std::string& table, const std::string& var,
                                    const DedupClause& dedup,
                                    const FilteringOptions& options,
                                    std::vector<std::string> centers) {
  if (dedup.attributes.empty()) {
    return Status::InvalidArgument("DEDUP requires at least one attribute");
  }
  ExprPtr term = CombineAttrs(dedup.attributes);
  GroupSpec group = MakeGroupSpec(dedup.op, term, options, std::move(centers));

  std::vector<NestAgg> aggs;
  aggs.push_back({"partition", "bag", Var(var)});
  ExprPtr having =
      Binary(BinaryOp::kGt, Call("count", {Var("partition")}), ConstInt(1));
  AlgOpPtr nest = NestOp(Scan(table, var), std::move(group), std::move(aggs),
                         std::move(having));

  // Pairwise comparison within each group: each p1 < p2 pair of the
  // partition once, in its owner group, by the similarity of the records'
  // text.
  PairSpec pairs;
  pairs.left = Var("partition");
  pairs.right = Var("partition");
  pairs.left_var = "p1";
  pairs.right_var = "p2";
  pairs.ordered = true;
  pairs.member = var;
  pairs.text = Call("to_string", {Var(var)});
  pairs.metric = dedup.metric;
  pairs.theta = dedup.theta;
  pairs.keys = nest->group;
  CleaningPlan out;
  out.op_name = "DEDUP";
  out.plan = PairsOp(std::move(nest), std::move(pairs));
  out.entity_vars = {"p1", "p2"};
  return out;
}

Result<CleaningPlan> BuildTermValidationPlan(
    const std::string& data_table, const std::string& data_var,
    const std::string& dict_table, const std::string& dict_var,
    const std::string& dict_attr, const ClusterByClause& cb,
    const FilteringOptions& options, std::vector<std::string> centers) {
  if (!cb.term) return Status::InvalidArgument("CLUSTER BY requires a term");

  // dataGroup := for(c <- data) yield filter(c.term, algo)
  GroupSpec data_group = MakeGroupSpec(cb.op, cb.term, options, centers);
  AlgOpPtr data_nest = NestOp(Scan(data_table, data_var), data_group,
                              {{"terms", "set", cb.term}}, nullptr, "key");

  // dictGroup := for(d <- dict) yield filter(d.attr, algo)
  ExprPtr dict_term = FieldAccess(Var(dict_var), dict_attr);
  GroupSpec dict_group = MakeGroupSpec(cb.op, dict_term, options, std::move(centers));
  AlgOpPtr dict_nest = NestOp(Scan(dict_table, dict_var), dict_group,
                              {{"dict_terms", "set", dict_term}}, nullptr, "dkey");

  // Compare only clusters with the same grouping key (Section 4.4).
  AlgOpPtr joined = EquiJoinOp(data_nest, dict_nest, Var("key"), Var("dkey"));
  // A violation couples a dirty term with a similar dictionary term; a
  // term found verbatim in the dictionary is clean and pairs with nothing
  // (PairSpec's two-collection mode). Both sides' keys derive from the
  // term value itself.
  PairSpec pairs;
  pairs.left = Var("terms");
  pairs.right = Var("dict_terms");
  pairs.left_var = "term";
  pairs.right_var = "suggestion";
  pairs.ordered = false;
  pairs.member = "term";
  pairs.text = Var("term");
  pairs.metric = cb.metric;
  pairs.theta = cb.theta;
  pairs.keys = data_group;
  pairs.keys.term = Var("term");
  CleaningPlan out;
  out.op_name = "CLUSTER BY";
  out.plan = PairsOp(std::move(joined), std::move(pairs));
  out.entity_vars = {"term", "suggestion"};
  return out;
}

ExprPtr FdComprehension(const std::string& table, const std::string& var,
                        const FdClause& fd) {
  // groups := for(c <- T) yield filter(lhs); violations: count(rhs set) > 1.
  // Rendered as a single nested comprehension over the exact-group monoid's
  // entries — the printable Section 4.4 form.
  auto inner = Comprehension(
      "set", Substitute(CombineAttrs(fd.rhs), var, Var(var + "2")),
      {Generator(var + "2", Var(table)),
       Predicate(Binary(BinaryOp::kEq,
                        Substitute(CombineAttrs(fd.lhs), var, Var(var + "2")),
                        CombineAttrs(fd.lhs)))});
  return Comprehension(
      "bag", Var(var),
      {Generator(var, Var(table)),
       Predicate(Binary(BinaryOp::kGt, Call("count", {inner}), ConstInt(1)))});
}

}  // namespace cleanm
