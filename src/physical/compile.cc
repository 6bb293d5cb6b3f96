#include "physical/compile.h"

#include <algorithm>

#include "monoid/eval.h"
#include "text/similarity.h"

namespace cleanm {

namespace {

Value NullV() { return Value::Null(); }

/// Numeric/boolean binary with null propagation.
Value ApplyBinary(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq: return Value(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value(l.Compare(r) != 0);
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return NullV();
      const int c = l.Compare(r);
      switch (op) {
        case BinaryOp::kLt: return Value(c < 0);
        case BinaryOp::kLe: return Value(c <= 0);
        case BinaryOp::kGt: return Value(c > 0);
        default: return Value(c >= 0);
      }
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) return NullV();
      return Value(op == BinaryOp::kAnd ? (l.AsBool() && r.AsBool())
                                        : (l.AsBool() || r.AsBool()));
    }
    case BinaryOp::kAdd:
      if (l.type() == ValueType::kString && r.type() == ValueType::kString) {
        return Value(l.AsString() + r.AsString());
      }
      [[fallthrough]];
    default: {
      if (!l.is_numeric() || !r.is_numeric()) return NullV();
      const double a = l.ToDouble(), b = r.ToDouble();
      double result;
      switch (op) {
        case BinaryOp::kAdd: result = a + b; break;
        case BinaryOp::kSub: result = a - b; break;
        case BinaryOp::kMul: result = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) return NullV();
          result = a / b;
          break;
        default: return NullV();
      }
      if (l.type() == ValueType::kInt && r.type() == ValueType::kInt &&
          op != BinaryOp::kDiv) {
        return Value(static_cast<int64_t>(result));
      }
      return Value(result);
    }
  }
}

}  // namespace

Result<CompiledExpr> CompileExpr(const ExprPtr& e, const TupleLayout& layout,
                                 const CompileEnv& env) {
  if (!e) return Status::Internal("compiling null expression");
  switch (e->kind) {
    case ExprKind::kConst: {
      Value v = e->literal;
      return CompiledExpr([v](const Value&) { return v; });
    }
    case ExprKind::kVar: {
      const auto it = std::find(layout.begin(), layout.end(), e->name);
      if (it == layout.end()) {
        return Status::KeyError("variable '" + e->name + "' not in tuple layout");
      }
      const size_t index = static_cast<size_t>(it - layout.begin());
      const std::string name = e->name;
      return CompiledExpr([index, name](const Value& tuple) {
        const auto& fields = tuple.AsStruct();
        // Fast path: positional access per the plan layout; fall back to a
        // name scan if the tuple shape diverges (defensive, not expected).
        if (index < fields.size() && fields[index].first == name) {
          return fields[index].second;
        }
        for (const auto& [fname, fval] : fields) {
          if (fname == name) return fval;
        }
        return Value::Null();
      });
    }
    case ExprKind::kField: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr child, CompileExpr(e->child, layout, env));
      std::string field = e->name;
      return CompiledExpr([child, field](const Value& tuple) {
        const Value base = child(tuple);
        if (base.type() != ValueType::kStruct) return Value::Null();
        for (const auto& [name, v] : base.AsStruct()) {
          if (name == field) return v;
        }
        return Value::Null();
      });
    }
    case ExprKind::kBinary: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr lhs, CompileExpr(e->lhs, layout, env));
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr rhs, CompileExpr(e->rhs, layout, env));
      const BinaryOp op = e->bin_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        // Short-circuit.
        const bool is_and = op == BinaryOp::kAnd;
        return CompiledExpr([lhs, rhs, is_and](const Value& tuple) {
          const Value l = lhs(tuple);
          if (l.type() != ValueType::kBool) return Value::Null();
          if (is_and && !l.AsBool()) return Value(false);
          if (!is_and && l.AsBool()) return Value(true);
          return rhs(tuple);
        });
      }
      return CompiledExpr([lhs, rhs, op](const Value& tuple) {
        return ApplyBinary(op, lhs(tuple), rhs(tuple));
      });
    }
    case ExprKind::kUnary: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr child, CompileExpr(e->child, layout, env));
      const UnaryOp op = e->un_op;
      return CompiledExpr([child, op](const Value& tuple) {
        const Value v = child(tuple);
        if (op == UnaryOp::kNot) {
          if (v.type() != ValueType::kBool) return Value::Null();
          return Value(!v.AsBool());
        }
        if (v.type() == ValueType::kInt) return Value(-v.AsInt());
        if (v.type() == ValueType::kDouble) return Value(-v.AsDouble());
        return Value::Null();
      });
    }
    case ExprKind::kIf: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr cond, CompileExpr(e->cond, layout, env));
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr then_e, CompileExpr(e->then_e, layout, env));
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr else_e, CompileExpr(e->else_e, layout, env));
      return CompiledExpr([cond, then_e, else_e](const Value& tuple) {
        const Value c = cond(tuple);
        if (c.type() != ValueType::kBool) return Value::Null();
        return c.AsBool() ? then_e(tuple) : else_e(tuple);
      });
    }
    case ExprKind::kCall: {
      std::vector<CompiledExpr> args;
      for (const auto& a : e->args) {
        CLEANM_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(a, layout, env));
        args.push_back(std::move(c));
      }
      const std::string fn = e->name;
      // Registered user functions (scalar + repair) resolve here; builtin
      // names can never collide with them (registration rejects shadows).
      // Registered-function errors null-propagate like builtin errors, and
      // each invocation charges one udf_calls tick.
      if (env.functions != nullptr) {
        if (const ScalarFunction* user = env.functions->FindScalar(fn)) {
          const UserFn body = user->fn;
          QueryMetrics* metrics = env.metrics;
          return CompiledExpr([body, args, metrics](const Value& tuple) {
            std::vector<Value> vals;
            vals.reserve(args.size());
            for (const auto& a : args) vals.push_back(a(tuple));
            if (metrics) metrics->udf_calls++;
            auto r = body(vals);
            return r.ok() ? r.MoveValue() : Value::Null();
          });
        }
      }
      // Validate the function name at compile time with a dummy invocation
      // guard: unknown builtins must fail at plan time, not per row.
      {
        std::vector<Value> probe;  // arity checks happen at runtime
        auto r = EvalBuiltin(fn, probe);
        if (!r.ok() && r.status().code() == StatusCode::kKeyError) {
          return Status::KeyError("unknown builtin function '" + fn + "'");
        }
      }
      // Likewise a constant metric name the similarity builtins refuse: a
      // bad query, as in the reference evaluator, not null on every row.
      if ((fn == "similarity" || fn == "similar") && !e->args.empty() &&
          e->args[0]->kind == ExprKind::kConst &&
          e->args[0]->literal.type() == ValueType::kString) {
        const std::string& metric_name = e->args[0]->literal.AsString();
        SimilarityMetric metric;
        if (!ParseSimilarityMetric(metric_name, &metric)) {
          return Status::InvalidArgument("unknown similarity metric '" +
                                         metric_name + "'");
        }
      }
      return CompiledExpr([fn, args](const Value& tuple) {
        std::vector<Value> vals;
        vals.reserve(args.size());
        for (const auto& a : args) vals.push_back(a(tuple));
        auto r = EvalBuiltin(fn, vals);
        return r.ok() ? r.MoveValue() : Value::Null();
      });
    }
    case ExprKind::kRecord: {
      std::vector<CompiledExpr> values;
      for (const auto& v : e->field_values) {
        CLEANM_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(v, layout, env));
        values.push_back(std::move(c));
      }
      const std::vector<std::string> names = e->field_names;
      return CompiledExpr([names, values](const Value& tuple) {
        ValueStruct fields;
        fields.reserve(names.size());
        for (size_t i = 0; i < names.size(); i++) {
          fields.emplace_back(names[i], values[i](tuple));
        }
        return Value(std::move(fields));
      });
    }
    case ExprKind::kComprehension:
      return Status::NotImplemented(
          "nested comprehension reached the physical compiler; normalize and "
          "translate it to algebra first");
  }
  return Status::Internal("unhandled expression kind");
}

Result<std::function<bool(const Value&)>> CompilePredicate(const ExprPtr& e,
                                                           const TupleLayout& layout,
                                                           const CompileEnv& env) {
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr compiled, CompileExpr(e, layout, env));
  return std::function<bool(const Value&)>([compiled](const Value& tuple) {
    const Value v = compiled(tuple);
    return v.type() == ValueType::kBool && v.AsBool();
  });
}

}  // namespace cleanm
