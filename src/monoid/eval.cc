#include "monoid/eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "text/similarity.h"

namespace cleanm {

Result<const Monoid*> EvalContext::FindMonoid(const std::string& name) const {
  auto it = extra_monoids.find(name);
  if (it != extra_monoids.end()) return it->second.get();
  return LookupMonoid(name);
}

namespace {

Result<Value> EvalBinary(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
      if (l.type() == ValueType::kString && r.type() == ValueType::kString) {
        return Value(l.AsString() + r.AsString());
      }
      [[fallthrough]];
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::TypeError("arithmetic on non-numeric values");
      }
      const double a = l.ToDouble(), b = r.ToDouble();
      double result = 0;
      switch (op) {
        case BinaryOp::kAdd: result = a + b; break;
        case BinaryOp::kSub: result = a - b; break;
        case BinaryOp::kMul: result = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          result = a / b;
          break;
        default: break;
      }
      if (l.type() == ValueType::kInt && r.type() == ValueType::kInt &&
          op != BinaryOp::kDiv) {
        return Value(static_cast<int64_t>(result));
      }
      return Value(result);
    }
    case BinaryOp::kEq: return Value(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value(l.Compare(r) != 0);
    case BinaryOp::kLt: return Value(l.Compare(r) < 0);
    case BinaryOp::kLe: return Value(l.Compare(r) <= 0);
    case BinaryOp::kGt: return Value(l.Compare(r) > 0);
    case BinaryOp::kGe: return Value(l.Compare(r) >= 0);
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) {
        return Status::TypeError("boolean operator on non-boolean values");
      }
      return Value(op == BinaryOp::kAnd ? (l.AsBool() && r.AsBool())
                                        : (l.AsBool() || r.AsBool()));
    }
  }
  return Status::Internal("unhandled binary op");
}

/// Recursive comprehension loop: processes qualifiers[qi..] under env,
/// folding head values into *acc.
Status RunComprehension(const ComprehensionExpr& comp, size_t qi, Env env,
                        const EvalContext& ctx, const Monoid* monoid, Value* acc) {
  if (qi == comp.qualifiers.size()) {
    auto head = EvalExpr(comp.head, env, ctx);
    if (!head.ok()) return head.status();
    *acc = monoid->Accumulate(std::move(*acc), head.value());
    return Status::OK();
  }
  const Qualifier& q = comp.qualifiers[qi];
  switch (q.kind) {
    case Qualifier::Kind::kGenerator: {
      auto source = EvalExpr(q.expr, env, ctx);
      if (!source.ok()) return source.status();
      if (source.value().is_null()) return Status::OK();  // empty source
      if (source.value().type() != ValueType::kList) {
        return Status::TypeError("generator source is not a collection: " +
                                 q.expr->ToString());
      }
      for (const auto& element : source.value().AsList()) {
        Env inner = env;
        inner[q.var] = element;
        CLEANM_RETURN_NOT_OK(
            RunComprehension(comp, qi + 1, std::move(inner), ctx, monoid, acc));
      }
      return Status::OK();
    }
    case Qualifier::Kind::kPredicate: {
      auto pred = EvalExpr(q.expr, env, ctx);
      if (!pred.ok()) return pred.status();
      if (pred.value().type() != ValueType::kBool) {
        return Status::TypeError("predicate did not evaluate to bool: " +
                                 q.expr->ToString());
      }
      if (!pred.value().AsBool()) return Status::OK();
      return RunComprehension(comp, qi + 1, std::move(env), ctx, monoid, acc);
    }
    case Qualifier::Kind::kBinding: {
      auto bound = EvalExpr(q.expr, env, ctx);
      if (!bound.ok()) return bound.status();
      env[q.var] = bound.MoveValue();
      return RunComprehension(comp, qi + 1, std::move(env), ctx, monoid, acc);
    }
  }
  return Status::Internal("unhandled qualifier kind");
}

}  // namespace

Result<Value> EvalExpr(const ExprPtr& e, const Env& env, const EvalContext& ctx) {
  if (!e) return Status::Internal("null expression");
  switch (e->kind) {
    case ExprKind::kConst: return e->literal;
    case ExprKind::kVar: {
      auto it = env.find(e->name);
      if (it == env.end()) return Status::KeyError("unbound variable '" + e->name + "'");
      return it->second;
    }
    case ExprKind::kField: {
      CLEANM_ASSIGN_OR_RETURN(Value base, EvalExpr(e->child, env, ctx));
      return base.GetField(e->name);
    }
    case ExprKind::kBinary: {
      // Short-circuit boolean operators.
      if (e->bin_op == BinaryOp::kAnd || e->bin_op == BinaryOp::kOr) {
        CLEANM_ASSIGN_OR_RETURN(Value l, EvalExpr(e->lhs, env, ctx));
        if (l.type() != ValueType::kBool) {
          return Status::TypeError("boolean operator on non-boolean value");
        }
        if (e->bin_op == BinaryOp::kAnd && !l.AsBool()) return Value(false);
        if (e->bin_op == BinaryOp::kOr && l.AsBool()) return Value(true);
        return EvalExpr(e->rhs, env, ctx);
      }
      CLEANM_ASSIGN_OR_RETURN(Value l, EvalExpr(e->lhs, env, ctx));
      CLEANM_ASSIGN_OR_RETURN(Value r, EvalExpr(e->rhs, env, ctx));
      return EvalBinary(e->bin_op, l, r);
    }
    case ExprKind::kUnary: {
      CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(e->child, env, ctx));
      if (e->un_op == UnaryOp::kNot) {
        if (v.type() != ValueType::kBool) return Status::TypeError("not on non-bool");
        return Value(!v.AsBool());
      }
      if (!v.is_numeric()) return Status::TypeError("negation of non-numeric");
      if (v.type() == ValueType::kInt) return Value(-v.AsInt());
      return Value(-v.AsDouble());
    }
    case ExprKind::kIf: {
      CLEANM_ASSIGN_OR_RETURN(Value c, EvalExpr(e->cond, env, ctx));
      if (c.type() != ValueType::kBool) return Status::TypeError("if condition not bool");
      return EvalExpr(c.AsBool() ? e->then_e : e->else_e, env, ctx);
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(e->args.size());
      for (const auto& a : e->args) {
        CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(a, env, ctx));
        args.push_back(std::move(v));
      }
      auto r = EvalBuiltin(e->name, args);
      if (!r.ok() && r.status().code() == StatusCode::kKeyError &&
          ctx.call_fallback) {
        return ctx.call_fallback(e->name, args);
      }
      return r;
    }
    case ExprKind::kRecord: {
      ValueStruct fields;
      for (size_t i = 0; i < e->field_names.size(); i++) {
        CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(e->field_values[i], env, ctx));
        fields.emplace_back(e->field_names[i], std::move(v));
      }
      return Value(std::move(fields));
    }
    case ExprKind::kComprehension: {
      CLEANM_ASSIGN_OR_RETURN(const Monoid* monoid, ctx.FindMonoid(e->comp.monoid));
      Value acc = monoid->zero();
      CLEANM_RETURN_NOT_OK(RunComprehension(e->comp, 0, env, ctx, monoid, &acc));
      return acc;
    }
  }
  return Status::Internal("unhandled expression kind");
}

namespace {

Status Arity(const std::string& name, const std::vector<Value>& args, size_t n) {
  if (args.size() != n) {
    return Status::InvalidArgument(name + " expects " + std::to_string(n) +
                                   " argument(s), got " + std::to_string(args.size()));
  }
  return Status::OK();
}

Result<std::string> StringArg(const std::string& fn, const Value& v) {
  if (v.is_null()) return std::string();
  if (v.type() != ValueType::kString) {
    return Status::TypeError(fn + ": expected string, got " +
                             std::string(ValueTypeName(v.type())));
  }
  return v.AsString();
}

/// Extracts the date component at `index` from "YYYY-MM-DD".
Result<Value> DatePart(const std::string& fn, const std::vector<Value>& args,
                       int index) {
  CLEANM_RETURN_NOT_OK(Arity(fn, args, 1));
  CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(fn, args[0]));
  int part = 0;
  size_t pos = 0;
  for (int i = 0; i <= index; i++) {
    const size_t dash = s.find('-', pos);
    const std::string piece =
        (dash == std::string::npos) ? s.substr(pos) : s.substr(pos, dash - pos);
    if (piece.empty()) return Status::InvalidArgument(fn + ": bad date '" + s + "'");
    if (i == index) {
      part = std::atoi(piece.c_str());
      break;
    }
    if (dash == std::string::npos) {
      return Status::InvalidArgument(fn + ": bad date '" + s + "'");
    }
    pos = dash + 1;
  }
  return Value(static_cast<int64_t>(part));
}

}  // namespace

Result<Value> EvalBuiltin(const std::string& name, const std::vector<Value>& args) {
  if (name == "prefix") {
    // prefix(phone): the region prefix — everything before the first '-',
    // or the first three characters when there is no separator.
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    const size_t dash = s.find('-');
    return Value(dash != std::string::npos ? s.substr(0, dash) : s.substr(0, 3));
  }
  if (name == "lower" || name == "upper") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    std::transform(s.begin(), s.end(), s.begin(), [&](unsigned char c) {
      return name == "lower" ? std::tolower(c) : std::toupper(c);
    });
    return Value(std::move(s));
  }
  if (name == "trim") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    const size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return Value(std::string());
    const size_t e = s.find_last_not_of(" \t\r\n");
    return Value(s.substr(b, e - b + 1));
  }
  if (name == "substr") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 3));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    const auto start = static_cast<size_t>(std::max<int64_t>(0, args[1].AsInt()));
    const auto len = static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()));
    if (start >= s.size()) return Value(std::string());
    return Value(s.substr(start, len));
  }
  if (name == "length") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() == ValueType::kList) {
      return Value(static_cast<int64_t>(args[0].AsList().size()));
    }
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    return Value(static_cast<int64_t>(s.size()));
  }
  if (name == "contains") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    CLEANM_ASSIGN_OR_RETURN(std::string sub, StringArg(name, args[1]));
    return Value(s.find(sub) != std::string::npos);
  }
  if (name == "concat") {
    std::string out;
    for (const auto& a : args) {
      out += a.is_null() ? "" : (a.type() == ValueType::kString ? a.AsString() : a.ToString());
    }
    return Value(std::move(out));
  }
  if (name == "split") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    CLEANM_ASSIGN_OR_RETURN(std::string delim, StringArg(name, args[1]));
    ValueList parts;
    if (delim.empty()) return Status::InvalidArgument("split: empty delimiter");
    size_t pos = 0;
    while (true) {
      const size_t next = s.find(delim, pos);
      if (next == std::string::npos) {
        parts.push_back(Value(s.substr(pos)));
        break;
      }
      parts.push_back(Value(s.substr(pos, next - pos)));
      pos = next + delim.size();
    }
    return Value(std::move(parts));
  }
  if (name == "tokens") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    const auto q = static_cast<size_t>(args[1].AsInt());
    ValueList grams;
    for (auto& g : QGrams(s, q)) grams.push_back(Value(std::move(g)));
    return Value(std::move(grams));
  }
  if (name == "levenshtein") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    CLEANM_ASSIGN_OR_RETURN(std::string a, StringArg(name, args[0]));
    CLEANM_ASSIGN_OR_RETURN(std::string b, StringArg(name, args[1]));
    return Value(static_cast<int64_t>(LevenshteinDistance(a, b)));
  }
  if (name == "similarity") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 3));
    CLEANM_ASSIGN_OR_RETURN(std::string metric_name, StringArg(name, args[0]));
    SimilarityMetric metric;
    if (!ParseSimilarityMetric(metric_name, &metric)) {
      return Status::InvalidArgument("unknown similarity metric '" + metric_name + "'");
    }
    CLEANM_ASSIGN_OR_RETURN(std::string a, StringArg(name, args[1]));
    CLEANM_ASSIGN_OR_RETURN(std::string b, StringArg(name, args[2]));
    return Value(StringSimilarity(metric, a, b));
  }
  if (name == "similar") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 4));
    CLEANM_ASSIGN_OR_RETURN(std::string metric_name, StringArg(name, args[0]));
    SimilarityMetric metric;
    if (!ParseSimilarityMetric(metric_name, &metric)) {
      return Status::InvalidArgument("unknown similarity metric '" + metric_name + "'");
    }
    CLEANM_ASSIGN_OR_RETURN(std::string a, StringArg(name, args[1]));
    CLEANM_ASSIGN_OR_RETURN(std::string b, StringArg(name, args[2]));
    return Value(StringSimilarAtLeast(metric, a, b, args[3].ToDouble()));
  }
  if (name == "year") return DatePart(name, args, 0);
  if (name == "month") return DatePart(name, args, 1);
  if (name == "day") return DatePart(name, args, 2);
  if (name == "abs") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() == ValueType::kInt) return Value(std::abs(args[0].AsInt()));
    if (args[0].type() == ValueType::kDouble) return Value(std::fabs(args[0].AsDouble()));
    return Status::TypeError("abs: non-numeric argument");
  }
  if (name == "to_string") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    return Value(args[0].ToString());
  }
  if (name == "to_int") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() == ValueType::kInt) return args[0];
    if (args[0].type() == ValueType::kDouble) {
      return Value(static_cast<int64_t>(args[0].AsDouble()));
    }
    CLEANM_ASSIGN_OR_RETURN(std::string s, StringArg(name, args[0]));
    return Value(static_cast<int64_t>(std::strtoll(s.c_str(), nullptr, 10)));
  }
  if (name == "distinct") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() != ValueType::kList) return Status::TypeError("distinct: not a list");
    ValueList out;
    for (const auto& v : args[0].AsList()) {
      bool found = false;
      for (const auto& existing : out) {
        if (existing.Equals(v)) {
          found = true;
          break;
        }
      }
      if (!found) out.push_back(v);
    }
    return Value(std::move(out));
  }
  if (name == "count") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() != ValueType::kList) return Status::TypeError("count: not a list");
    return Value(static_cast<int64_t>(args[0].AsList().size()));
  }
  if (name == "avg") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    if (args[0].type() != ValueType::kList) return Status::TypeError("avg: not a list");
    const auto& list = args[0].AsList();
    if (list.empty()) return Value::Null();
    double sum = 0;
    size_t n = 0;
    for (const auto& v : list) {
      if (v.is_null()) continue;
      if (!v.is_numeric()) return Status::TypeError("avg: non-numeric element");
      sum += v.ToDouble();
      n++;
    }
    if (n == 0) return Value::Null();
    return Value(sum / static_cast<double>(n));
  }
  if (name == "bag_concat") {
    // ⊕ of the bag/list monoids in expression form (used by if-splitting).
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    if (args[0].type() != ValueType::kList || args[1].type() != ValueType::kList) {
      return Status::TypeError("bag_concat: both arguments must be collections");
    }
    ValueList out = args[0].AsList();
    const auto& other = args[1].AsList();
    out.insert(out.end(), other.begin(), other.end());
    return Value(std::move(out));
  }
  if (name == "set_union") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 2));
    if (args[0].type() != ValueType::kList || args[1].type() != ValueType::kList) {
      return Status::TypeError("set_union: both arguments must be collections");
    }
    ValueList out = args[0].AsList();
    for (const auto& v : args[1].AsList()) {
      bool found = false;
      for (const auto& existing : out) {
        if (existing.Equals(v)) {
          found = true;
          break;
        }
      }
      if (!found) out.push_back(v);
    }
    return Value(std::move(out));
  }
  if (name == "is_null") {
    CLEANM_RETURN_NOT_OK(Arity(name, args, 1));
    return Value(args[0].is_null());
  }
  return Status::KeyError("unknown builtin function '" + name + "'");
}

namespace {

/// (name, arity) of every builtin; -1 = variadic. Must stay in sync with
/// EvalBuiltin above (the registry test probes each entry through both).
struct BuiltinSig {
  const char* name;
  int arity;
};
constexpr BuiltinSig kBuiltins[] = {
    {"prefix", 1},     {"lower", 1},      {"upper", 1},      {"trim", 1},
    {"substr", 3},     {"length", 1},     {"contains", 2},   {"concat", -1},
    {"split", 2},      {"tokens", 2},     {"levenshtein", 2}, {"similarity", 3},
    {"similar", 4},    {"year", 1},       {"month", 1},      {"day", 1},
    {"abs", 1},        {"to_string", 1},  {"to_int", 1},     {"distinct", 1},
    {"count", 1},      {"avg", 1},        {"bag_concat", 2}, {"set_union", 2},
    {"is_null", 1},
};

}  // namespace

bool IsBuiltinFunction(const std::string& name) {
  for (const auto& sig : kBuiltins) {
    if (name == sig.name) return true;
  }
  return false;
}

Result<int> BuiltinFunctionArity(const std::string& name) {
  for (const auto& sig : kBuiltins) {
    if (name == sig.name) return sig.arity;
  }
  return Status::KeyError("unknown builtin function '" + name + "'");
}

}  // namespace cleanm
