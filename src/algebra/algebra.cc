#include "algebra/algebra.h"

#include <algorithm>
#include <sstream>

namespace cleanm {

const char* AlgKindName(AlgKind kind) {
  switch (kind) {
    case AlgKind::kScan: return "Scan";
    case AlgKind::kSelect: return "Select";
    case AlgKind::kJoin: return "Join";
    case AlgKind::kOuterJoin: return "OuterJoin";
    case AlgKind::kUnnest: return "Unnest";
    case AlgKind::kOuterUnnest: return "OuterUnnest";
    case AlgKind::kReduce: return "Reduce";
    case AlgKind::kNest: return "Nest";
    case AlgKind::kProject: return "Project";
    case AlgKind::kPairs: return "Pairs";
  }
  return "?";
}

Status ForEachGroupKey(const GroupSpec& group, const Value& term,
                       const std::function<void(Value key)>& emit) {
  if (group.algo == FilteringAlgo::kExactKey) {
    emit(term);
    return Status::OK();
  }
  if (term.type() != ValueType::kString) {
    return Status::TypeError(group.algo == FilteringAlgo::kTokenFiltering
                                 ? "token filtering requires a string term"
                                 : "k-means grouping requires a string term");
  }
  if (group.algo == FilteringAlgo::kTokenFiltering) {
    std::vector<std::string_view> grams = QGramViews(term.AsString(), group.q);
    std::sort(grams.begin(), grams.end());
    grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
    for (const auto g : grams) emit(Value(std::string(g)));
    return Status::OK();
  }
  if (group.centers.empty()) {
    return Status::InvalidArgument(
        "k-means grouping without sampled centers; the planner must fill "
        "GroupSpec::centers first");
  }
  SinglePassKMeans km(group.centers.size(), group.delta, /*seed=*/0);
  for (const auto& a : km.Assign({term.AsString()}, group.centers)) emit(Value(a.key));
  return Status::OK();
}

namespace {
AlgOpPtr Make(AlgKind kind) {
  auto op = std::make_shared<AlgOp>();
  op->kind = kind;
  return op;
}

const char* AlgoName(FilteringAlgo algo) {
  switch (algo) {
    case FilteringAlgo::kTokenFiltering: return "tf";
    case FilteringAlgo::kKMeans: return "kmeans";
    case FilteringAlgo::kExactKey: return "exact";
  }
  return "?";
}

void Print(const AlgOpPtr& op, int indent, std::ostringstream& os) {
  for (int i = 0; i < indent; i++) os << "  ";
  if (!op) {
    os << "<null>\n";
    return;
  }
  os << op->Headline() << '\n';
  if (op->input) Print(op->input, indent + 1, os);
  if (op->right) Print(op->right, indent + 1, os);
}
}  // namespace

std::string AlgOp::Headline() const {
  std::ostringstream os;
  os << AlgKindName(kind);
  switch (kind) {
    case AlgKind::kScan:
      os << '(' << table << " as " << var << ')';
      break;
    case AlgKind::kSelect:
      os << '[' << pred->ToString() << ']';
      break;
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin:
      os << '[';
      if (left_key) {
        os << left_key->ToString() << " = " << right_key->ToString();
        if (pred) os << " && " << pred->ToString();
      } else if (pred) {
        os << pred->ToString();
      } else {
        os << "true";
      }
      os << ']';
      break;
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest:
      os << '[' << path_var << " <- " << path->ToString() << ']';
      break;
    case AlgKind::kReduce:
      os << '[' << monoid << " / " << head->ToString() << ']';
      break;
    case AlgKind::kNest:
      os << "[by " << AlgoName(group.algo) << '(' << group.term->ToString() << ')';
      for (const auto& agg : aggs) {
        os << ", " << agg.name << "=" << agg.monoid << '(' << agg.expr->ToString()
           << ')';
      }
      if (having) os << ", having " << having->ToString();
      os << ']';
      break;
    case AlgKind::kPairs:
      os << '[' << pairs.left_var << ", " << pairs.right_var << " <- ";
      if (pairs.ordered) {
        os << pairs.left->ToString() << ", " << pairs.left_var << " < "
           << pairs.right_var;
      } else {
        os << pairs.left->ToString() << " x " << pairs.right->ToString() << ", "
           << pairs.left_var << " != " << pairs.right_var;
      }
      os << ", similar(" << SimilarityMetricName(pairs.metric) << ", "
         << pairs.text->ToString() << ", " << pairs.theta << "), owner "
         << AlgoName(pairs.keys.algo) << '(' << pairs.keys.term->ToString()
         << ") of " << pairs.key_name << ']';
      break;
    case AlgKind::kProject:
      os << '[';
      for (size_t i = 0; i < columns.size(); i++) {
        if (i) os << ", ";
        os << columns[i].name << "=" << columns[i].from;
      }
      os << ']';
      break;
  }
  return os.str();
}

std::string AlgOp::ToString() const {
  std::ostringstream os;
  AlgOpPtr self(const_cast<AlgOp*>(this), [](AlgOp*) {});
  Print(self, 0, os);
  return os.str();
}

AlgOpPtr Scan(std::string table, std::string var) {
  auto op = Make(AlgKind::kScan);
  op->table = std::move(table);
  op->var = std::move(var);
  return op;
}

AlgOpPtr SelectOp(AlgOpPtr input, ExprPtr pred) {
  auto op = Make(AlgKind::kSelect);
  op->input = std::move(input);
  op->pred = std::move(pred);
  return op;
}

AlgOpPtr JoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr pred) {
  auto op = Make(AlgKind::kJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->pred = std::move(pred);
  return op;
}

AlgOpPtr EquiJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key,
                    ExprPtr residual_pred) {
  auto op = Make(AlgKind::kJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  op->pred = std::move(residual_pred);
  return op;
}

AlgOpPtr OuterJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key) {
  auto op = Make(AlgKind::kOuterJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  return op;
}

AlgOpPtr UnnestOp(AlgOpPtr input, ExprPtr path, std::string path_var, bool outer) {
  auto op = Make(outer ? AlgKind::kOuterUnnest : AlgKind::kUnnest);
  op->input = std::move(input);
  op->path = std::move(path);
  op->path_var = std::move(path_var);
  return op;
}

AlgOpPtr ReduceOp(AlgOpPtr input, std::string monoid, ExprPtr head) {
  auto op = Make(AlgKind::kReduce);
  op->input = std::move(input);
  op->monoid = std::move(monoid);
  op->head = std::move(head);
  return op;
}

AlgOpPtr NestOp(AlgOpPtr input, GroupSpec group, std::vector<NestAgg> aggs,
                ExprPtr having, std::string key_name) {
  auto op = Make(AlgKind::kNest);
  op->input = std::move(input);
  op->group = std::move(group);
  op->aggs = std::move(aggs);
  op->having = std::move(having);
  op->key_name = std::move(key_name);
  return op;
}

AlgOpPtr ProjectOp(AlgOpPtr input, std::vector<ProjectColumn> columns) {
  auto op = Make(AlgKind::kProject);
  op->input = std::move(input);
  op->columns = std::move(columns);
  return op;
}

AlgOpPtr PairsOp(AlgOpPtr input, PairSpec pairs) {
  auto op = Make(AlgKind::kPairs);
  op->input = std::move(input);
  op->pairs = std::move(pairs);
  return op;
}

Value ProjectTuple(const Value& tuple, const std::vector<ProjectColumn>& columns) {
  ValueStruct out;
  out.reserve(columns.size());
  for (const auto& c : columns) {
    auto field = tuple.GetField(c.from);
    out.emplace_back(c.name, field.ok() ? field.MoveValue() : Value::Null());
  }
  return Value(std::move(out));
}

bool SameGroupSpec(const GroupSpec& a, const GroupSpec& b) {
  return a.algo == b.algo && ExprEquals(a.term, b.term) && a.q == b.q &&
         a.k == b.k && a.delta == b.delta && a.centers == b.centers;
}

bool AlgEquals(const AlgOpPtr& a, const AlgOpPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  if (a->table != b->table || a->var != b->var) return false;
  if (!ExprEquals(a->pred, b->pred)) return false;
  if (!ExprEquals(a->left_key, b->left_key)) return false;
  if (!ExprEquals(a->right_key, b->right_key)) return false;
  if (!ExprEquals(a->path, b->path) || a->path_var != b->path_var) return false;
  if (a->monoid != b->monoid || !ExprEquals(a->head, b->head)) return false;
  if (!SameGroupSpec(a->group, b->group)) return false;
  const PairSpec& pa = a->pairs;
  const PairSpec& pb = b->pairs;
  if (!ExprEquals(pa.left, pb.left) || !ExprEquals(pa.right, pb.right) ||
      pa.left_var != pb.left_var || pa.right_var != pb.right_var ||
      pa.ordered != pb.ordered || pa.member != pb.member ||
      !ExprEquals(pa.text, pb.text) || pa.metric != pb.metric ||
      pa.theta != pb.theta || !SameGroupSpec(pa.keys, pb.keys) ||
      pa.key_name != pb.key_name) {
    return false;
  }
  if (a->aggs.size() != b->aggs.size()) return false;
  for (size_t i = 0; i < a->aggs.size(); i++) {
    if (a->aggs[i].name != b->aggs[i].name || a->aggs[i].monoid != b->aggs[i].monoid ||
        !ExprEquals(a->aggs[i].expr, b->aggs[i].expr)) {
      return false;
    }
  }
  if (!ExprEquals(a->having, b->having) || a->key_name != b->key_name) return false;
  if (a->columns.size() != b->columns.size()) return false;
  for (size_t i = 0; i < a->columns.size(); i++) {
    if (a->columns[i].name != b->columns[i].name ||
        a->columns[i].from != b->columns[i].from) {
      return false;
    }
  }
  return AlgEquals(a->input, b->input) && AlgEquals(a->right, b->right);
}

AlgOpPtr AlgClone(const AlgOpPtr& op) {
  if (!op) return nullptr;
  auto c = std::make_shared<AlgOp>(*op);
  c->input = AlgClone(op->input);
  c->right = AlgClone(op->right);
  c->pred = CloneExpr(op->pred);
  c->left_key = CloneExpr(op->left_key);
  c->right_key = CloneExpr(op->right_key);
  c->path = CloneExpr(op->path);
  c->head = CloneExpr(op->head);
  c->group.term = CloneExpr(op->group.term);
  c->having = CloneExpr(op->having);
  for (auto& agg : c->aggs) agg.expr = CloneExpr(agg.expr);
  c->pairs.left = CloneExpr(op->pairs.left);
  c->pairs.right = CloneExpr(op->pairs.right);
  c->pairs.text = CloneExpr(op->pairs.text);
  c->pairs.keys.term = CloneExpr(op->pairs.keys.term);
  return c;
}

}  // namespace cleanm
