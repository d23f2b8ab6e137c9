#include "engine/eval.h"

#include <cmath>

#include "common/string_util.h"
#include "engine/executor.h"

namespace apuama::engine {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

int Relation::FindSlot(const std::string& qualifier,
                       const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnBinding& cb = columns[i];
    if (!EqualsIgnoreCase(cb.name, name)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(cb.qualifier, qualifier)) {
      continue;
    }
    if (found >= 0) return -2;  // ambiguous
    found = static_cast<int>(i);
  }
  return found;
}

int ColumnResolver::Resolve(const sql::Expr& e) {
  auto it = cache_.find(&e);
  if (it != cache_.end()) return it->second;
  const int slot = rel_->FindSlot(e.table_qualifier, e.column_name);
  cache_[&e] = slot;
  return slot;
}

bool ComparisonHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNotEq:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLtEq:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:  // kGtEq
      return c >= 0;
  }
}

int Truthiness(const Value& v) {
  if (v.is_null()) return -1;
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return v.int_val() != 0 ? 1 : 0;
    case ValueType::kDouble:
      return v.double_val() != 0 ? 1 : 0;
    case ValueType::kString:
      return !v.str_val().empty() ? 1 : 0;
    default:
      return -1;
  }
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer match with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Result<Value> EvalColumnRef(const Expr& e, const EvalContext& ctx) {
  for (const EvalScope* s = ctx.scope; s != nullptr; s = s->outer) {
    const int slot = s->resolver->Resolve(e);
    if (slot >= 0) return (*s->row)[static_cast<size_t>(slot)];
  }
  return Status::BindError(
      "unresolved column " +
      (e.table_qualifier.empty() ? e.column_name
                                 : e.table_qualifier + "." + e.column_name));
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // date +/- int => date shifted by days.
  if (a.type() == ValueType::kDate && b.type() == ValueType::kInt64 &&
      (op == BinaryOp::kAdd || op == BinaryOp::kSub)) {
    int64_t d = op == BinaryOp::kAdd ? a.date_val() + b.int_val()
                                     : a.date_val() - b.int_val();
    return Value::Date(d);
  }
  const bool both_int =
      a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
  APUAMA_ASSIGN_OR_RETURN(double da, a.AsDouble());
  APUAMA_ASSIGN_OR_RETURN(double db, b.AsDouble());
  switch (op) {
    case BinaryOp::kAdd:
      return both_int ? Value::Int(a.int_val() + b.int_val())
                      : Value::Double(da + db);
    case BinaryOp::kSub:
      return both_int ? Value::Int(a.int_val() - b.int_val())
                      : Value::Double(da - db);
    case BinaryOp::kMul:
      return both_int ? Value::Int(a.int_val() * b.int_val())
                      : Value::Double(da * db);
    case BinaryOp::kDiv:
      if (db == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(da / db);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Value BoolValue(int truth) {
  if (truth < 0) return Value::Null();
  return Value::Int(truth);
}

}  // namespace

Result<Value> Eval(const Expr& e, const EvalContext& ctx) {
  if (ctx.cpu_ops != nullptr) ++*ctx.cpu_ops;
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef:
      return EvalColumnRef(e, ctx);
    case ExprKind::kUnary: {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], ctx));
      if (e.unary_op == UnaryOp::kNegate) {
        if (v.is_null()) return Value::Null();
        if (v.type() == ValueType::kInt64) return Value::Int(-v.int_val());
        APUAMA_ASSIGN_OR_RETURN(double d, v.AsDouble());
        return Value::Double(-d);
      }
      // NOT: Kleene negation.
      int t = Truthiness(v);
      if (t < 0) return Value::Null();
      return Value::Int(t == 0 ? 1 : 0);
    }
    case ExprKind::kBinary: {
      const BinaryOp op = e.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        APUAMA_ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], ctx));
        int ta = Truthiness(a);
        // Short-circuit where three-valued logic allows.
        if (op == BinaryOp::kAnd && ta == 0) return Value::Int(0);
        if (op == BinaryOp::kOr && ta == 1) return Value::Int(1);
        APUAMA_ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], ctx));
        int tb = Truthiness(b);
        if (op == BinaryOp::kAnd) {
          if (tb == 0) return Value::Int(0);
          if (ta == 1 && tb == 1) return Value::Int(1);
          return Value::Null();
        }
        if (tb == 1) return Value::Int(1);
        if (ta == 0 && tb == 0) return Value::Int(0);
        return Value::Null();
      }
      APUAMA_ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], ctx));
      APUAMA_ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], ctx));
      if (sql::IsComparison(op)) {
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Int(ComparisonHolds(op, a.Compare(b)) ? 1 : 0);
      }
      return EvalArithmetic(op, a, b);
    }
    case ExprKind::kBetween: {
      APUAMA_ASSIGN_OR_RETURN(Value x, Eval(*e.children[0], ctx));
      APUAMA_ASSIGN_OR_RETURN(Value lo, Eval(*e.children[1], ctx));
      APUAMA_ASSIGN_OR_RETURN(Value hi, Eval(*e.children[2], ctx));
      if (x.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = x.Compare(lo) >= 0 && x.Compare(hi) <= 0;
      return BoolValue((in != e.negated) ? 1 : 0);
    }
    case ExprKind::kInList: {
      APUAMA_ASSIGN_OR_RETURN(Value x, Eval(*e.children[0], ctx));
      if (x.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        APUAMA_ASSIGN_OR_RETURN(Value item, Eval(*e.children[i], ctx));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (x.Compare(item) == 0) return Value::Int(e.negated ? 0 : 1);
      }
      if (saw_null) return Value::Null();
      return Value::Int(e.negated ? 1 : 0);
    }
    case ExprKind::kInSubquery: {
      if (ctx.executor == nullptr) {
        return Status::Unsupported("IN subquery requires an executor");
      }
      APUAMA_ASSIGN_OR_RETURN(Value x, Eval(*e.children[0], ctx));
      if (x.is_null()) return Value::Null();
      APUAMA_ASSIGN_OR_RETURN(
          bool found, ctx.executor->SubqueryContains(*e.subquery, x,
                                                     ctx.scope));
      return Value::Int((found != e.negated) ? 1 : 0);
    }
    case ExprKind::kExists: {
      if (ctx.executor == nullptr) {
        return Status::Unsupported("EXISTS requires an executor");
      }
      APUAMA_ASSIGN_OR_RETURN(
          bool found, ctx.executor->SubqueryExists(*e.subquery, ctx.scope));
      return Value::Int((found != e.negated) ? 1 : 0);
    }
    case ExprKind::kLike: {
      APUAMA_ASSIGN_OR_RETURN(Value x, Eval(*e.children[0], ctx));
      if (x.is_null()) return Value::Null();
      if (x.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE requires a string operand");
      }
      bool m = LikeMatch(x.str_val(), e.like_pattern);
      return Value::Int((m != e.negated) ? 1 : 0);
    }
    case ExprKind::kIsNull: {
      APUAMA_ASSIGN_OR_RETURN(Value x, Eval(*e.children[0], ctx));
      bool isnull = x.is_null();
      return Value::Int((isnull != e.negated) ? 1 : 0);
    }
    case ExprKind::kCase: {
      for (size_t i = 0; i + 1 < e.children.size(); i += 2) {
        APUAMA_ASSIGN_OR_RETURN(Value cond, Eval(*e.children[i], ctx));
        if (Truthiness(cond) == 1) return Eval(*e.children[i + 1], ctx);
      }
      if (e.case_else) return Eval(*e.case_else, ctx);
      return Value::Null();
    }
    case ExprKind::kFuncCall: {
      if (sql::IsAggregateFunction(e.func_name)) {
        if (ctx.agg_values != nullptr) {
          auto it = ctx.agg_values->find(&e);
          if (it != ctx.agg_values->end()) return it->second;
        }
        return Status::BindError("aggregate " + e.func_name +
                                 " used outside aggregation context");
      }
      return Status::Unsupported("unknown function " + e.func_name);
    }
    case ExprKind::kScalarSubquery: {
      if (ctx.executor == nullptr) {
        return Status::Unsupported("scalar subquery requires an executor");
      }
      return ctx.executor->ScalarSubqueryValue(*e.subquery, ctx.scope);
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a value expression");
    case ExprKind::kInterval:
      return Status::InvalidArgument(
          "interval literal outside date arithmetic");
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace apuama::engine
