// Result Composer (paper Fig. 1(b)): merges SVP partial results.
//
// The paper runs a composition query over the partial results in an
// embedded in-memory DBMS (HSQLDB). Here the partial rows of one query
// are buffered into a single engine::Relation as node futures complete,
// and the composition SELECT (over the `partials` table) runs on the
// executor's own aggregate / projection tail
// (engine::Executor::ExecuteOverRelation): re-aggregation, HAVING,
// DISTINCT, global ORDER BY, OFFSET and LIMIT keep the engine's
// semantics by construction, with no table build and no SQL
// round-trip.
//
// Every composition is per-query state, so N concurrent queries
// compose on N cores with no shared lock.
#ifndef APUAMA_APUAMA_RESULT_COMPOSER_H_
#define APUAMA_APUAMA_RESULT_COMPOSER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/eval.h"
#include "engine/query_result.h"
#include "sql/ast.h"

namespace apuama {

struct CompositionStats {
  uint64_t partial_rows = 0;       // rows buffered from all nodes
  uint64_t output_rows = 0;
  engine::ExecStats compose_exec;  // cost of the composition statement
};

/// Per-query streaming composition: partials are fed in as node
/// futures complete, and their rows append to one buffered relation.
/// Not thread-safe — the engine serializes Add under its per-query
/// collection path.
class StreamingComposition {
 public:
  /// `composition` is the composition SELECT over the partials table
  /// (SvpPlan::merge_program()). When it is null, `composition_sql`
  /// is parsed and constant-folded at Finish instead.
  StreamingComposition(std::shared_ptr<const sql::SelectStmt> composition,
                       std::string composition_sql);

  /// Accepts one node's partial result. The first partial fixes the
  /// column layout; a later one with another column count is
  /// InvalidArgument.
  Status Add(engine::QueryResult partial);

  /// Runs the composition over every buffered row and returns the
  /// final result with the combined per-node ExecStats plus the
  /// composition's cpu_ops. `stats` (may be null) receives the
  /// composition's own figures. Call once, after every Add.
  Result<engine::QueryResult> Finish(CompositionStats* stats);

  /// Wall time spent buffering and composing so far, in microseconds.
  uint64_t compose_micros() const { return compose_micros_; }

 private:
  Result<engine::QueryResult> Compose(engine::ExecStats* exec_stats);

  std::shared_ptr<const sql::SelectStmt> composition_;
  std::string composition_sql_;
  bool has_layout_ = false;      // set by the first Add
  engine::Relation partials_;    // every partial row, in arrival order
  engine::ExecStats combined_;   // accumulated per-node stats
  uint64_t compose_micros_ = 0;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_RESULT_COMPOSER_H_
