#include "engine/vectorized.h"

#include <algorithm>
#include <cstddef>

namespace apuama::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

// Integer arithmetic through unsigned casts: two's-complement wrap is
// defined behavior and produces the same bits the row path does for
// every input that does not overflow (and deterministic, UB-free bits
// when one does).
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// Value::Compare for two numeric-family lanes: both integral compares
// as int64, anything touching a double compares as double.
int CompareLane(const VecData& a, const VecData& b, size_t k) {
  if (a.type != ValueType::kDouble && b.type != ValueType::kDouble) {
    const int64_t x = a.i64[k], y = b.i64[k];
    return x < y ? -1 : x > y ? 1 : 0;
  }
  const double x = a.DoubleAt(k), y = b.DoubleAt(k);
  return x < y ? -1 : x > y ? 1 : 0;
}

// Resolves `e` to a dictionary-encoded string column of the chunk.
const storage::ColumnVector* DictColumn(const Expr& e,
                                        const Relation& header,
                                        const storage::ColumnarTable& chunk,
                                        int* slot) {
  if (e.kind != ExprKind::kColumnRef) return nullptr;
  const int s = header.FindSlot(e.table_qualifier, e.column_name);
  if (s < 0 || static_cast<size_t>(s) >= chunk.cols.size()) return nullptr;
  const storage::ColumnVector& col = chunk.cols[static_cast<size_t>(s)];
  if (!col.dict_encoded) return nullptr;
  *slot = s;
  return &col;
}

bool IsStringLit(const Expr& e) {
  return e.kind == ExprKind::kLiteral &&
         e.literal.type() == ValueType::kString;
}

// `lit op col` == `col MirrorCmp(op) lit`.
BinaryOp MirrorCmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLtEq:
      return BinaryOp::kGtEq;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGtEq:
      return BinaryOp::kLtEq;
    default:  // kEq / kNotEq are symmetric
      return op;
  }
}

// Code interval [lo, hi) such that `dict[c] op s` holds exactly for
// codes in the interval (the dictionary is sorted in Value::Compare
// order). kNotEq keeps the equality interval and flips the pass
// sense via *negated.
void DictCmpRange(const std::vector<std::string>& dict, BinaryOp op,
                  const std::string& s, int32_t* lo, int32_t* hi,
                  bool* negated) {
  const int32_t n = static_cast<int32_t>(dict.size());
  const int32_t lb = static_cast<int32_t>(
      std::lower_bound(dict.begin(), dict.end(), s) - dict.begin());
  const int32_t ub = static_cast<int32_t>(
      std::upper_bound(dict.begin(), dict.end(), s) - dict.begin());
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
      *lo = lb;
      *hi = ub;  // ub == lb when `s` is absent: empty interval
      *negated = op == BinaryOp::kNotEq;
      return;
    case BinaryOp::kLt:
      *lo = 0;
      *hi = lb;
      return;
    case BinaryOp::kLtEq:
      *lo = 0;
      *hi = ub;
      return;
    case BinaryOp::kGt:
      *lo = ub;
      *hi = n;
      return;
    default:  // kGtEq
      *lo = lb;
      *hi = n;
      return;
  }
}

// String predicates over a dictionary-encoded column: =, !=, <, <=,
// >, >= and BETWEEN against string literals, IN / NOT IN over
// literal lists. Returns nullptr when the shape does not translate
// (the caller falls back to the generic compile and then to row-wise
// eval).
std::unique_ptr<VecPredicate> CompileDictPredicate(
    const Expr& e, const Relation& header,
    const storage::ColumnarTable& chunk) {
  if (e.kind == ExprKind::kBinary && sql::IsComparison(e.binary_op) &&
      e.children.size() == 2) {
    int slot = -1;
    const storage::ColumnVector* col =
        DictColumn(*e.children[0], header, chunk, &slot);
    const Expr* lit = e.children[1].get();
    BinaryOp op = e.binary_op;
    if (col == nullptr) {
      col = DictColumn(*e.children[1], header, chunk, &slot);
      lit = e.children[0].get();
      op = MirrorCmp(op);
    }
    if (col == nullptr || !IsStringLit(*lit)) return nullptr;
    auto out = std::make_unique<VecPredicate>();
    out->kind = VecPredicate::Kind::kDictRange;
    out->dict_slot = slot;
    DictCmpRange(col->dict, op, lit->literal.str_val(), &out->dict_lo,
                 &out->dict_hi, &out->negated);
    return out;
  }
  if (e.kind == ExprKind::kBetween && e.children.size() == 3) {
    int slot = -1;
    const storage::ColumnVector* col =
        DictColumn(*e.children[0], header, chunk, &slot);
    if (col == nullptr || !IsStringLit(*e.children[1]) ||
        !IsStringLit(*e.children[2])) {
      return nullptr;
    }
    auto out = std::make_unique<VecPredicate>();
    out->kind = VecPredicate::Kind::kDictRange;
    out->dict_slot = slot;
    out->negated = e.negated;
    out->dict_lo = static_cast<int32_t>(
        std::lower_bound(col->dict.begin(), col->dict.end(),
                         e.children[1]->literal.str_val()) -
        col->dict.begin());
    out->dict_hi = static_cast<int32_t>(
        std::upper_bound(col->dict.begin(), col->dict.end(),
                         e.children[2]->literal.str_val()) -
        col->dict.begin());
    // lo > hi (bounds inverted) must pass nothing, not wrap: clamp.
    if (out->dict_hi < out->dict_lo) out->dict_hi = out->dict_lo;
    return out;
  }
  if (e.kind == ExprKind::kInList && !e.children.empty()) {
    int slot = -1;
    const storage::ColumnVector* col =
        DictColumn(*e.children[0], header, chunk, &slot);
    if (col == nullptr) return nullptr;
    std::vector<int32_t> codes;
    bool null_item = false;
    for (size_t i = 1; i < e.children.size(); ++i) {
      const Expr& item = *e.children[i];
      if (item.kind != ExprKind::kLiteral) return nullptr;
      if (item.literal.is_null()) {
        // x IN (..., NULL, ...): the NULL item can only turn FALSE
        // into NULL — both drop the row, so it is ignorable for IN.
        // For NOT IN it makes the predicate never-TRUE.
        null_item = true;
        continue;
      }
      if (item.literal.type() != ValueType::kString) {
        // A non-string literal never compares equal to a string
        // (Value::Compare ranks types), so it cannot match: drop it.
        continue;
      }
      const std::string& s = item.literal.str_val();
      auto it = std::lower_bound(col->dict.begin(), col->dict.end(), s);
      if (it != col->dict.end() && *it == s) {
        codes.push_back(static_cast<int32_t>(it - col->dict.begin()));
      }
      // Absent from the dictionary: no row can match; ignorable for
      // both IN and NOT IN.
    }
    auto out = std::make_unique<VecPredicate>();
    out->dict_slot = slot;
    if (e.negated && null_item) {
      // NOT IN with a NULL item is never TRUE: every row is FALSE
      // (matched) or NULL (unmatched, via the NULL compare) — encode
      // as the empty non-negated interval, which passes nothing.
      out->kind = VecPredicate::Kind::kDictRange;
      out->dict_lo = 0;
      out->dict_hi = 0;
      out->negated = false;
      return out;
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    out->kind = VecPredicate::Kind::kDictIn;
    out->dict_codes = std::move(codes);
    out->negated = e.negated;
    return out;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<VecExpr> CompileVecExpr(const Expr& e,
                                        const Relation& header,
                                        const storage::ColumnarTable& chunk) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const int slot = header.FindSlot(e.table_qualifier, e.column_name);
      if (slot < 0 || static_cast<size_t>(slot) >= chunk.cols.size()) {
        return nullptr;
      }
      const storage::ColumnVector& col =
          chunk.cols[static_cast<size_t>(slot)];
      if (!col.materialized) return nullptr;
      auto out = std::make_unique<VecExpr>();
      out->kind = VecExpr::Kind::kCol;
      out->type = col.type;
      out->slot = slot;
      return out;
    }
    case ExprKind::kLiteral: {
      auto out = std::make_unique<VecExpr>();
      out->kind = VecExpr::Kind::kLit;
      switch (e.literal.type()) {
        case ValueType::kInt64:
          out->type = ValueType::kInt64;
          out->lit_i = e.literal.int_val();
          return out;
        case ValueType::kDate:
          out->type = ValueType::kDate;
          out->lit_i = e.literal.date_val();
          return out;
        case ValueType::kDouble:
          out->type = ValueType::kDouble;
          out->lit_d = e.literal.double_val();
          return out;
        case ValueType::kNull:
          // Every lane is NULL; the nominal type never reaches a
          // non-null computation.
          out->type = ValueType::kInt64;
          out->lit_null = true;
          return out;
        default:
          return nullptr;  // strings stay row-wise
      }
    }
    case ExprKind::kUnary: {
      if (e.unary_op != sql::UnaryOp::kNegate || e.children.size() != 1) {
        return nullptr;
      }
      auto a = CompileVecExpr(*e.children[0], header, chunk);
      if (a == nullptr) return nullptr;
      auto out = std::make_unique<VecExpr>();
      out->kind = VecExpr::Kind::kNeg;
      out->type = a->type == ValueType::kInt64 ? ValueType::kInt64
                                               : ValueType::kDouble;
      out->a = std::move(a);
      return out;
    }
    case ExprKind::kBinary: {
      const BinaryOp op = e.binary_op;
      if (op != BinaryOp::kAdd && op != BinaryOp::kSub &&
          op != BinaryOp::kMul && op != BinaryOp::kDiv) {
        return nullptr;
      }
      if (e.children.size() != 2) return nullptr;
      auto a = CompileVecExpr(*e.children[0], header, chunk);
      auto b = CompileVecExpr(*e.children[1], header, chunk);
      if (a == nullptr || b == nullptr) return nullptr;
      auto out = std::make_unique<VecExpr>();
      out->kind = VecExpr::Kind::kArith;
      out->op = op;
      // EvalArithmetic's type lattice, decided once: materialized
      // columns are type-homogeneous over non-null values, so the
      // per-row decision the row path makes is the same for every
      // lane.
      out->date_shift = a->type == ValueType::kDate &&
                        b->type == ValueType::kInt64 &&
                        (op == BinaryOp::kAdd || op == BinaryOp::kSub);
      out->both_int = !out->date_shift && op != BinaryOp::kDiv &&
                      a->type == ValueType::kInt64 &&
                      b->type == ValueType::kInt64;
      out->type = out->date_shift ? ValueType::kDate
                  : out->both_int ? ValueType::kInt64
                                  : ValueType::kDouble;
      out->a = std::move(a);
      out->b = std::move(b);
      return out;
    }
    default:
      return nullptr;
  }
}

std::unique_ptr<VecPredicate> CompileVecPredicate(
    const Expr& e, const Relation& header,
    const storage::ColumnarTable& chunk) {
  if (auto dict = CompileDictPredicate(e, header, chunk)) return dict;
  if (e.kind == ExprKind::kBinary && sql::IsComparison(e.binary_op)) {
    if (e.children.size() != 2) return nullptr;
    auto a = CompileVecExpr(*e.children[0], header, chunk);
    auto b = CompileVecExpr(*e.children[1], header, chunk);
    if (a == nullptr || b == nullptr) return nullptr;
    auto out = std::make_unique<VecPredicate>();
    out->kind = VecPredicate::Kind::kCmp;
    out->op = e.binary_op;
    out->a = std::move(a);
    out->b = std::move(b);
    return out;
  }
  if (e.kind == ExprKind::kBetween) {
    if (e.children.size() != 3) return nullptr;
    auto a = CompileVecExpr(*e.children[0], header, chunk);
    auto b = CompileVecExpr(*e.children[1], header, chunk);
    auto c = CompileVecExpr(*e.children[2], header, chunk);
    if (a == nullptr || b == nullptr || c == nullptr) return nullptr;
    auto out = std::make_unique<VecPredicate>();
    out->kind = VecPredicate::Kind::kBetween;
    out->negated = e.negated;
    out->a = std::move(a);
    out->b = std::move(b);
    out->c = std::move(c);
    return out;
  }
  return nullptr;
}

Status EvalVec(const VecExpr& e, const storage::ColumnarTable& chunk,
               const std::vector<uint32_t>& sel, VecData* out,
               uint64_t* cpu, uint64_t* vec_rows) {
  const size_t n = sel.size();
  *cpu += VecOps(n);
  *vec_rows += n;
  out->type = e.type;
  out->has_nulls = false;
  out->nulls.clear();
  out->i64.clear();
  out->f64.clear();
  switch (e.kind) {
    case VecExpr::Kind::kCol: {
      const storage::ColumnVector& col =
          chunk.cols[static_cast<size_t>(e.slot)];
      if (col.type == ValueType::kDouble) {
        out->f64.resize(n);
        for (size_t k = 0; k < n; ++k) out->f64[k] = col.f64[sel[k]];
      } else {
        out->i64.resize(n);
        for (size_t k = 0; k < n; ++k) out->i64[k] = col.i64[sel[k]];
      }
      if (col.has_nulls) {
        out->has_nulls = true;
        out->nulls.resize(n);
        for (size_t k = 0; k < n; ++k) out->nulls[k] = col.nulls[sel[k]];
      }
      return Status::OK();
    }
    case VecExpr::Kind::kLit: {
      if (e.type == ValueType::kDouble) {
        out->f64.assign(n, e.lit_d);
      } else {
        out->i64.assign(n, e.lit_i);
      }
      if (e.lit_null) {
        out->has_nulls = true;
        out->nulls.assign(n, 1);
      }
      return Status::OK();
    }
    case VecExpr::Kind::kNeg: {
      VecData va;
      APUAMA_RETURN_NOT_OK(EvalVec(*e.a, chunk, sel, &va, cpu, vec_rows));
      out->has_nulls = va.has_nulls;
      out->nulls = va.nulls;
      if (e.type == ValueType::kInt64) {
        out->i64.resize(n);
        for (size_t k = 0; k < n; ++k) {
          out->i64[k] = WrapSub(0, va.i64[k]);
        }
      } else {
        out->f64.resize(n);
        for (size_t k = 0; k < n; ++k) out->f64[k] = -va.DoubleAt(k);
      }
      return Status::OK();
    }
    case VecExpr::Kind::kArith: {
      VecData va, vb;
      APUAMA_RETURN_NOT_OK(EvalVec(*e.a, chunk, sel, &va, cpu, vec_rows));
      APUAMA_RETURN_NOT_OK(EvalVec(*e.b, chunk, sel, &vb, cpu, vec_rows));
      if (va.has_nulls || vb.has_nulls) {
        out->has_nulls = true;
        out->nulls.resize(n);
        for (size_t k = 0; k < n; ++k) {
          out->nulls[k] = va.IsNull(k) || vb.IsNull(k) ? 1 : 0;
        }
      }
      if (e.date_shift || e.both_int) {
        out->i64.resize(n);
        switch (e.op) {
          case BinaryOp::kAdd:
            for (size_t k = 0; k < n; ++k) {
              out->i64[k] = WrapAdd(va.i64[k], vb.i64[k]);
            }
            break;
          case BinaryOp::kSub:
            for (size_t k = 0; k < n; ++k) {
              out->i64[k] = WrapSub(va.i64[k], vb.i64[k]);
            }
            break;
          default:  // kMul (kDiv never takes the integer lane)
            for (size_t k = 0; k < n; ++k) {
              out->i64[k] = WrapMul(va.i64[k], vb.i64[k]);
            }
            break;
        }
        return Status::OK();
      }
      out->f64.resize(n);
      switch (e.op) {
        case BinaryOp::kAdd:
          for (size_t k = 0; k < n; ++k) {
            out->f64[k] = va.DoubleAt(k) + vb.DoubleAt(k);
          }
          break;
        case BinaryOp::kSub:
          for (size_t k = 0; k < n; ++k) {
            out->f64[k] = va.DoubleAt(k) - vb.DoubleAt(k);
          }
          break;
        case BinaryOp::kMul:
          for (size_t k = 0; k < n; ++k) {
            out->f64[k] = va.DoubleAt(k) * vb.DoubleAt(k);
          }
          break;
        default: {  // kDiv
          for (size_t k = 0; k < n; ++k) {
            if (out->IsNull(k)) continue;  // NULL propagates before the check
            const double db = vb.DoubleAt(k);
            if (db == 0) {
              return Status::InvalidArgument("division by zero");
            }
            out->f64[k] = va.DoubleAt(k) / db;
          }
          break;
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable vec expr kind");
}

Status FilterVec(const VecPredicate& p, const storage::ColumnarTable& chunk,
                 std::vector<uint32_t>* sel, uint64_t* cpu,
                 uint64_t* vec_rows, uint64_t* dict_hits) {
  const size_t n = sel->size();
  if (p.kind == VecPredicate::Kind::kDictRange ||
      p.kind == VecPredicate::Kind::kDictIn) {
    // Code-space kernel: one integer compare (or sorted-set probe)
    // per selected row, straight off the code array. One dictionary
    // lookup already happened at compile time.
    const storage::ColumnVector& col =
        chunk.cols[static_cast<size_t>(p.dict_slot)];
    *cpu += VecOps(n);
    *vec_rows += n;
    if (dict_hits != nullptr) *dict_hits += n;
    std::vector<uint32_t> keep;
    keep.reserve(n);
    if (p.kind == VecPredicate::Kind::kDictRange) {
      for (size_t k = 0; k < n; ++k) {
        const uint32_t pos = (*sel)[k];
        if (col.IsNull(pos)) continue;  // NULL drops, three-valued WHERE
        const int32_t c = col.codes[pos];
        if ((p.dict_lo <= c && c < p.dict_hi) != p.negated) {
          keep.push_back(pos);
        }
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        const uint32_t pos = (*sel)[k];
        if (col.IsNull(pos)) continue;
        const bool in = std::binary_search(p.dict_codes.begin(),
                                           p.dict_codes.end(),
                                           col.codes[pos]);
        if (in != p.negated) keep.push_back(pos);
      }
    }
    *sel = std::move(keep);
    return Status::OK();
  }
  VecData va, vb, vc;
  APUAMA_RETURN_NOT_OK(EvalVec(*p.a, chunk, *sel, &va, cpu, vec_rows));
  APUAMA_RETURN_NOT_OK(EvalVec(*p.b, chunk, *sel, &vb, cpu, vec_rows));
  std::vector<uint32_t> keep;
  keep.reserve(n);
  if (p.kind == VecPredicate::Kind::kCmp) {
    *cpu += VecOps(n);
    *vec_rows += n;
    for (size_t k = 0; k < n; ++k) {
      if (va.IsNull(k) || vb.IsNull(k)) continue;
      if (ComparisonHolds(p.op, CompareLane(va, vb, k))) {
        keep.push_back((*sel)[k]);
      }
    }
  } else {
    APUAMA_RETURN_NOT_OK(EvalVec(*p.c, chunk, *sel, &vc, cpu, vec_rows));
    *cpu += 2 * VecOps(n);
    *vec_rows += n;
    for (size_t k = 0; k < n; ++k) {
      if (va.IsNull(k) || vb.IsNull(k) || vc.IsNull(k)) continue;
      const bool in =
          CompareLane(va, vb, k) >= 0 && CompareLane(va, vc, k) <= 0;
      if (in != p.negated) keep.push_back((*sel)[k]);
    }
  }
  *sel = std::move(keep);
  return Status::OK();
}

}  // namespace apuama::engine
