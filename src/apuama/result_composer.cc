#include "apuama/result_composer.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "engine/executor.h"
#include "sql/analyzer.h"
#include "sql/parser.h"

namespace apuama {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

StreamingComposition::StreamingComposition(
    std::shared_ptr<const sql::SelectStmt> composition,
    std::string composition_sql)
    : composition_(std::move(composition)),
      composition_sql_(std::move(composition_sql)) {}

Status StreamingComposition::Add(engine::QueryResult partial) {
  const auto t0 = std::chrono::steady_clock::now();
  combined_ += partial.stats;
  const auto& names = partial.column_names;
  if (!has_layout_) {
    has_layout_ = true;
    for (const std::string& name : names) {
      partials_.columns.push_back(engine::ColumnBinding{"", name});
    }
  } else if (names.size() != partials_.columns.size()) {
    return Status::InvalidArgument("partial results disagree on column count");
  }
  partials_.rows.insert(partials_.rows.end(),
                        std::make_move_iterator(partial.rows.begin()),
                        std::make_move_iterator(partial.rows.end()));
  compose_micros_ += MicrosSince(t0);
  return Status::OK();
}

Result<engine::QueryResult> StreamingComposition::Compose(
    engine::ExecStats* exec_stats) {
  if (!has_layout_) {
    return Status::InvalidArgument("no partial results to compose");
  }
  if (composition_ == nullptr) {
    APUAMA_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> parsed,
                            sql::ParseSelect(composition_sql_));
    sql::FoldConstants(parsed.get());
    composition_ = std::move(parsed);
  }
  return engine::Executor::ExecuteOverRelation(
      *composition_, std::move(partials_), exec_stats);
}

Result<engine::QueryResult> StreamingComposition::Finish(
    CompositionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t partial_rows = partials_.rows.size();
  engine::ExecStats exec_stats;
  Result<engine::QueryResult> result = Compose(&exec_stats);
  compose_micros_ += MicrosSince(t0);
  if (!result.ok()) return result;
  if (stats != nullptr) {
    stats->partial_rows = partial_rows;
    stats->output_rows = result->rows.size();
    stats->compose_exec = exec_stats;
  }
  engine::ExecStats out = combined_;
  out.cpu_ops += exec_stats.cpu_ops;
  out.tuples_output = result->rows.size();
  result->stats = out;
  return result;
}

}  // namespace apuama
