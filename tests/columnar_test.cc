// Columnar vectorized execution: agreement with the reference
// iterator, bit-identity across thread counts, adaptive-merge
// strategy selection, chunk invalidation after writes, and removed
// knobs.
//
// The core contract: every morsel-eligible aggregate returns results
// BIT-IDENTICAL at every exec_threads setting, equal (up to float
// association) to Database::ExecuteReference. Where exact bits
// matter, the shared morsel scan is the oracle: it folds rows through
// AggUpdate one at a time over the same morsels, and the vectorized
// kernels preserve those value semantics exactly — int->double
// promotion order, NULL handling, min/max tie rules, NaN comparisons
// — so the two agree with no floating-point tolerance.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace apuama {
namespace {

const std::vector<int>& ReadSet() {
  static const std::vector<int> qs = {1, 3, 4, 5, 6, 10, 12, 14, 17, 18, 19, 21};
  return qs;
}

const tpch::TpchData& DataAtSf(double sf) {
  static std::map<double, const tpch::TpchData*>* cache =
      new std::map<double, const tpch::TpchData*>();
  auto it = cache->find(sf);
  if (it == cache->end()) {
    it = cache->emplace(sf, new tpch::TpchData(
                                tpch::DbgenOptions{.scale_factor = sf}))
             .first;
  }
  return *it->second;
}

void Set(engine::Database* db, const std::string& knob,
         const std::string& value) {
  auto r = db->Execute("set " + knob + " = " + value);
  ASSERT_TRUE(r.ok()) << knob << "=" << value << ": "
                      << r.status().ToString();
}

// Runs `sql` as a two-statement shared-scan batch: the row-at-a-time
// accumulation over the same morsels, bit-identical to solo execution
// by contract.
engine::QueryResult SharedScanResult(engine::Database* db,
                                     const std::string& sql) {
  Set(db, "share_scans", "on");
  engine::Database::SharedExecResult batch =
      db->ExecuteSharedSelects({sql, sql});
  Set(db, "share_scans", "off");
  EXPECT_TRUE(batch.shared) << sql;
  EXPECT_TRUE(batch.results[0].ok())
      << sql << ": " << batch.results[0].status().ToString();
  return batch.results[0].ok() ? std::move(*batch.results[0])
                               : engine::QueryResult{};
}

// Acceptance criterion: over the TPC-H read set at two scale factors
// the pipelines equal the reference iterator and are bit-identical at
// thread counts 1 / 2 / 8.
TEST(ColumnarTest, ReadSetBitIdenticalToRowPath) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : ReadSet()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      SCOPED_TRACE("sf=" + std::to_string(sf) + " Q" + std::to_string(q));
      testutil::ExpectPipelineMatchesReference(&db, *sql);
    }
  }
}

// Q1/Q6-style scans actually run vectorized kernels (they would be
// silently meaningless bit-identity tests otherwise): vectorized row
// counters light up, and stay zero on the reference iterator.
TEST(ColumnarTest, VectorizedCountersLightUpOnTheColumnarPath) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());
  for (int q : {1, 6}) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto on = db.Execute(*sql);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    EXPECT_GT(on->stats.vectorized_rows, 0u) << "Q" << q;
    EXPECT_GT(on->stats.merge_central + on->stats.merge_partitioned +
                  on->stats.merge_radix,
              0u)
        << "Q" << q;
    auto ref = db.ExecuteReference(*sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref->stats.vectorized_rows, 0u) << "Q" << q;
    EXPECT_EQ(ref->stats.columnar_chunks_built, 0u) << "Q" << q;
    EXPECT_EQ(ref->stats.MergeStrategyCode(), 0) << "Q" << q;
  }
}

// The dictionary kernels and the vectorized probe must actually
// engage (otherwise the bit-identity sweeps silently test nothing):
// dict_hits lights up on a string predicate, probe_vectorized_rows on
// a morsel join, and both stay zero on the reference iterator.
TEST(ColumnarTest, DictAndProbeCountersLightUp) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());

  // String predicate over lineitem: compiled to a dict-code compare.
  const std::string scan_sql =
      "select count(*), sum(l_quantity) from lineitem "
      "where l_returnflag = 'R'";
  auto on = db.Execute(scan_sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(on->stats.dict_hits, 0u);

  // Q3's driver is lineitem probing orders/customer: the whole morsel
  // probe side should run through the vectorized kernel.
  auto q3 = tpch::QuerySql(3);
  ASSERT_TRUE(q3.ok());
  auto join_on = db.Execute(*q3);
  ASSERT_TRUE(join_on.ok()) << join_on.status().ToString();
  EXPECT_GT(join_on->stats.probe_vectorized_rows, 0u);

  auto row = db.ExecuteReference(scan_sql);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->stats.dict_hits, 0u);
  testutil::ExpectResultsEqual(*row, *on);
  auto join_row = db.ExecuteReference(*q3);
  ASSERT_TRUE(join_row.ok());
  EXPECT_EQ(join_row->stats.probe_vectorized_rows, 0u);
  testutil::ExpectResultsEqual(*join_row, *join_on);
}

engine::Database* MakeGroupedDb(int rows, int groups) {
  auto* db =
      new engine::Database(engine::DatabaseOptions{.buffer_pool_pages = 0});
  EXPECT_TRUE(db->Execute("create table t (k int, g int, v double)").ok());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(db->Execute("insert into t values (" + std::to_string(i) +
                            ", " + std::to_string(i % groups) + ", " +
                            std::to_string(i) + ".25)")
                    .ok());
  }
  return db;
}

// The merge strategy follows observed partial-group cardinality: few
// groups fold centrally, a few hundred partition, morsels that are
// mostly distinct go radix — at every thread count.
TEST(ColumnarTest, AutoStrategyTracksGroupCardinality) {
  const std::vector<std::pair<int, int>> cases = {
      {10, 1}, {400, 2}, {2000, 3}};  // {groups, MergeStrategyCode}
  for (const auto& [groups, code] : cases) {
    std::unique_ptr<engine::Database> db(MakeGroupedDb(4000, groups));
    for (int threads : {1, 4}) {
      SCOPED_TRACE("groups=" + std::to_string(groups) +
                   " threads=" + std::to_string(threads));
      Set(db.get(), "exec_threads", std::to_string(threads));
      auto r = db->Execute("select g, sum(v) from t group by g");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->stats.MergeStrategyCode(), code);
    }
  }
}

// Each merge strategy, forced by the group cardinality of its input,
// is bit-identical across thread counts and equals the reference
// iterator: the strategy changes scheduling and accounting only,
// never result bits.
TEST(ColumnarTest, ForcedMergeStrategiesAreBitIdentical) {
  const std::string sql =
      "select g, count(*), sum(v), avg(v), min(v), max(v) from t "
      "group by g order by g";
  const std::vector<std::pair<int, int>> cases = {
      {10, 1}, {400, 2}, {2000, 3}};  // {groups, MergeStrategyCode}
  for (const auto& [groups, code] : cases) {
    std::unique_ptr<engine::Database> db(MakeGroupedDb(6000, groups));
    SCOPED_TRACE("groups=" + std::to_string(groups));
    engine::QueryResult r =
        testutil::ExpectPipelineMatchesReference(db.get(), sql, {1, 4});
    EXPECT_EQ(r.stats.MergeStrategyCode(), code);
  }
}

// Chunks build lazily on the first columnar scan and rebuild (never
// serve stale data) after any write moves the table's write epoch.
TEST(ColumnarTest, ChunkInvalidationAfterWrites) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", " + std::to_string(i) + ")")
                    .ok());
  }
  auto r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunks_built, 1u);
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950);

  // Cached chunk: a second read builds nothing.
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunks_built, 0u);
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);

  // Insert invalidates; the next scan rebuilds and sees the new row.
  ASSERT_TRUE(db.Execute("insert into t values (100, 1000)").ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 5950);
  EXPECT_EQ(r->rows[0][1].int_val(), 101);

  // Update and delete invalidate too.
  ASSERT_TRUE(db.Execute("update t set v = 0 where k = 100").ok());
  r = db.Execute("select sum(v) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950);
  ASSERT_TRUE(db.Execute("delete from t where k < 50").ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950 - 1225);
  EXPECT_EQ(r->rows[0][1].int_val(), 51);
}

// Int->double promotion parity. A sum over an int column stays an
// int64 (wide-accumulator lane); mixing int-typed values into a double
// column makes AggUpdate promote mid-stream, and the columnar pipeline
// must produce the same type and bits as the shared scan's row-at-a-
// time accumulation — it does so by refusing to materialize such
// columns and falling back to row-wise accumulation for them.
TEST(ColumnarTest, PromotionParityAndIntSums) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table p (k int, i int, d double)").ok());
  for (int r = 0; r < 2000; ++r) {
    // d receives an int literal on even rows (the validator accepts
    // int-typed values in double columns) and a real double on odd.
    std::string dv = (r % 2 == 0) ? std::to_string(r)
                                  : std::to_string(r) + ".5";
    ASSERT_TRUE(db.Execute("insert into p values (" + std::to_string(r) +
                           ", " + std::to_string(r * 1000003) + ", " + dv +
                           ")")
                    .ok());
  }
  const std::vector<std::string> queries = {
      "select sum(i), avg(i), min(i), max(i) from p",
      "select sum(d), avg(d) from p",
      "select k, sum(d) from p group by k order by sum(d) desc limit 7",
      "select sum(i + d), avg(i * 2) from p where i > 1000",
  };
  for (const std::string& sql : queries) {
    engine::QueryResult row = SharedScanResult(&db, sql);
    auto col = db.Execute(sql);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    SCOPED_TRACE(sql);
    testutil::ExpectResultsIdentical(row, *col);
  }
  // Type check, not just printed bits: an all-int sum is an Int.
  auto r = db.Execute("select sum(i) from p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kInt64);
  r = db.Execute("select avg(i) from p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kDouble);
}

// A division by zero on a selected row fails the statement, whether
// the argument runs through a kernel or row-wise.
TEST(ColumnarTest, DivisionByZeroFailsTheStatement) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table z (a int, b int)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("insert into z values (" + std::to_string(i) +
                           ", " + std::to_string(i % 3) + ")")
                    .ok());
  }
  EXPECT_FALSE(db.Execute("select sum(a / b) from z").ok());
  EXPECT_FALSE(db.Execute("select b, sum(a / b) from z group by b").ok());
  EXPECT_FALSE(db.Execute("select count(*) from z where a / b > 1").ok());
  EXPECT_TRUE(db.Execute("select sum(a / b) from z where b <> 0").ok());
}

// The pipeline choices have no switches left: the removed knobs are
// unknown settings, not silently accepted no-ops.
TEST(ColumnarTest, KnobValidationAndDefaults) {
  engine::Database db;
  for (const char* knob : {"columnar_exec", "columnar_join", "morsel_exec",
                           "merge_strategy"}) {
    auto r = db.Execute(std::string("set ") + knob + " = off");
    ASSERT_FALSE(r.ok()) << knob;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << knob;
    EXPECT_NE(r.status().message().find("unknown setting"),
              std::string::npos)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace apuama
