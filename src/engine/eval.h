// Interpretive expression evaluation over intermediate relations.
//
// A Relation is a materialized set of rows whose slots are described by
// qualified column bindings. Evaluation resolves column references
// against a chain of scopes (inner-to-outer, for correlated
// subqueries), with per-expression slot memoization so name resolution
// costs are paid once per plan stage, not once per row.
//
// SQL three-valued logic: comparisons with NULL yield NULL; AND/OR
// follow Kleene logic; WHERE keeps rows only when the predicate is
// true (not NULL).
#ifndef APUAMA_ENGINE_EVAL_H_
#define APUAMA_ENGINE_EVAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace apuama::engine {

/// One output slot of an intermediate relation.
struct ColumnBinding {
  std::string qualifier;  // table alias/name this slot came from ("" = computed)
  std::string name;       // column name (lower-cased)
};

/// Materialized intermediate relation.
struct Relation {
  std::vector<ColumnBinding> columns;
  std::vector<Row> rows;

  int FindSlot(const std::string& qualifier, const std::string& name) const;
};

class Executor;  // forward; needed for correlated-subquery fallback

/// Resolves column refs against one relation, memoizing slots by
/// expression node identity. One resolver per plan stage.
class ColumnResolver {
 public:
  explicit ColumnResolver(const Relation* rel) : rel_(rel) {}

  /// Slot for a column-ref expression; negative when the name does
  /// not resolve in this relation or resolves ambiguously (the caller
  /// may try an outer scope). Never allocates an error: a correlated
  /// reference misses the inner scope once per row.
  int Resolve(const sql::Expr& e);

  const Relation* relation() const { return rel_; }

 private:
  const Relation* rel_;
  std::unordered_map<const sql::Expr*, int> cache_;
};

/// A lexical scope: a resolver plus the current row, chained outward.
struct EvalScope {
  ColumnResolver* resolver = nullptr;
  const Row* row = nullptr;
  const EvalScope* outer = nullptr;
};

/// Evaluation environment.
struct EvalContext {
  const EvalScope* scope = nullptr;
  /// Computed aggregate values keyed by AST node (aggregate-stage
  /// evaluation only).
  const std::unordered_map<const sql::Expr*, Value>* agg_values = nullptr;
  /// Executor used to run correlated EXISTS/IN subqueries that the
  /// planner could not decorrelate. Null ⇒ such predicates error.
  Executor* executor = nullptr;
  /// CPU accounting: incremented per expression node visited.
  uint64_t* cpu_ops = nullptr;
};

/// Evaluates `e` in `ctx`. Type errors surface as Status.
Result<Value> Eval(const sql::Expr& e, const EvalContext& ctx);

/// Interprets a value as a SQL condition: 1 = true, 0 = false,
/// -1 = unknown (NULL).
int Truthiness(const Value& v);

/// Whether comparison `op` (IsComparison) holds for a three-way
/// compare result `c` (<0, 0, >0).
bool ComparisonHolds(sql::BinaryOp op, int c);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace apuama::engine

#endif  // APUAMA_ENGINE_EVAL_H_
