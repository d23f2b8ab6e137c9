// Morsel-driven intra-node parallel execution: determinism and
// accounting.
//
// The core contract under test: for any thread count (including 1),
// an eligible aggregate produces BIT-IDENTICAL results, because the
// morsel decomposition and the partial-merge order depend only on
// table contents, never on scheduling. This covers both the
// single-table pipeline and the morsel-parallel join pipeline.
// Both must agree with the sequential reference iterator
// (Database::ExecuteReference), which queries neither covers
// (subqueries) take anyway.
#include <gtest/gtest.h>

#include <map>
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
  // One generation per scale factor for the whole binary.
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

void SetThreads(engine::Database* db, int n) {
  auto r = db->Execute("set exec_threads = " + std::to_string(n));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// Acceptance criterion: parallel execution is bit-identical to
// sequential (thread count 1) for the full TPC-H read set, at every
// scale factor we test and thread counts 1 / 2 / 8.
TEST(ParallelDeterminismTest, ReadSetBitIdenticalAcrossThreadCounts) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : ReadSet()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      SetThreads(&db, 1);
      auto base = db.Execute(*sql);
      ASSERT_TRUE(base.ok()) << "Q" << q << ": " << base.status().ToString();
      for (int threads : {2, 8}) {
        SetThreads(&db, threads);
        auto par = db.Execute(*sql);
        ASSERT_TRUE(par.ok())
            << "Q" << q << " @" << threads << ": " << par.status().ToString();
        SCOPED_TRACE("sf=" + std::to_string(sf) + " Q" + std::to_string(q) +
                     " threads=" + std::to_string(threads));
        testutil::ExpectResultsIdentical(*base, *par);
      }
    }
  }
}

// The morsel pipelines must agree with the sequential reference
// iterator up to floating-point association — the two sum doubles in
// different orders, so exact bits may differ, but values must match
// within standard tolerance — and stay bit-identical across thread
// counts while doing so.
TEST(ParallelDeterminismTest, MorselMatchesSequentialPipeline) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  for (int q : ReadSet()) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    SCOPED_TRACE("Q" + std::to_string(q));
    testutil::ExpectPipelineMatchesReference(&db, *sql);
  }
}

// Index and clustered-range access paths feed the same morsel
// pipeline; spot-check both with a small hand-built table. Secondary-
// index scans run the pipeline over the position list with every step
// row-wise, and must build no column chunk: the index queries run
// first, so the full scan after them is the table's first chunk build.
TEST(ParallelDeterminismTest, IndexAndRangePathsBitIdentical) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table t (k int, g int, v double, "
                         "primary key (k))")
                  .ok());
  ASSERT_TRUE(db.Execute("create index t_g on t (g)").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", " + std::to_string(i % 37) + ", " +
                           std::to_string(i) + ".25)")
                    .ok());
  }
  struct Case {
    std::string sql;
    bool by_index;
  };
  const std::vector<Case> cases = {
      // Secondary-index path on g: grouped, global, residual filter,
      // expression key and argument.
      {"select g, sum(v), count(*) from t where g = 5 group by g", true},
      {"select count(*), sum(v), avg(v), min(k), max(v) from t "
       "where g between 3 and 6",
       true},
      {"select k - g, count(*), sum(v * 2) from t "
       "where g = 11 and v > 900.0 group by k - g order by k - g",
       true},
      // Full scan with grouped aggregation.
      {"select g, sum(v), avg(v), min(v), max(v) from t group by g order by g",
       false},
      // Global aggregate with a selective filter.
      {"select count(*), sum(v) from t where v < 100.0", false},
  };
  bool chunk_built = false;
  for (const Case& c : cases) {
    // Index-order scans win only with sequential scans disabled: the
    // matching rows touch nearly every page.
    ASSERT_TRUE(db.Execute(std::string("set enable_seqscan = ") +
                           (c.by_index ? "off" : "on"))
                    .ok());
    auto ref = db.ExecuteReference(c.sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_FALSE(ref->rows.empty()) << c.sql;
    EXPECT_FALSE(ref->rows[0].back().is_null()) << c.sql;  // rows matched
    SetThreads(&db, 1);
    auto base = db.Execute(c.sql);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    SCOPED_TRACE(c.sql);
    EXPECT_GT(base->stats.morsels, 0u);
    EXPECT_EQ(base->stats.used_index_scan, c.by_index);
    EXPECT_EQ(base->stats.used_seq_scan, !c.by_index);
    if (c.by_index) {
      EXPECT_EQ(base->stats.columnar_chunks_built, 0u);
    } else if (!chunk_built) {
      EXPECT_EQ(base->stats.columnar_chunks_built, 1u);
      chunk_built = true;
    }
    testutil::ExpectResultsEqual(*ref, *base);
    for (int threads : {2, 8}) {
      SetThreads(&db, threads);
      auto par = db.Execute(c.sql);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *par);
      EXPECT_EQ(par->stats.columnar_chunks_built, 0u);
    }
  }
}

// A secondary index reaches heap rows through their clustered-key
// tuples. Without a clustered key every tuple is empty, and with a
// repeated one a tuple names a run of rows: either way one index
// entry stands for many rows, and the index path must return all of
// them, exactly as the sequential scan and the reference iterator do.
TEST(ParallelDeterminismTest, IndexWithoutUniqueClusteredKeyFindsEveryRow) {
  for (const std::string key : {"", ", primary key (k)"}) {
    SCOPED_TRACE(key.empty() ? "no clustered key" : "repeated clustered key");
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(
        db.Execute("create table t (k int, g int, v double" + key + ")")
            .ok());
    ASSERT_TRUE(db.Execute("create index t_g on t (g)").ok());
    for (int i = 0; i < 600; ++i) {  // k repeats 6 times
      ASSERT_TRUE(db.Execute("insert into t values (" +
                             std::to_string(i % 100) + ", " +
                             std::to_string(i % 37) + ", " +
                             std::to_string(i) + ".25)")
                      .ok());
    }
    for (const std::string sql :
         {"select k, g, v from t where g = 7 order by v",
          "select g, count(*), sum(v), min(k) from t"
          " where g between 3 and 5 group by g order by g"}) {
      SCOPED_TRACE(sql);
      ASSERT_TRUE(db.Execute("set enable_seqscan = on").ok());
      auto seq = db.Execute(sql);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_TRUE(seq->stats.used_seq_scan);
      ASSERT_GE(seq->rows.size(), 3u);
      ASSERT_TRUE(db.Execute("set enable_seqscan = off").ok());
      auto ref = db.ExecuteReference(sql);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      auto idx = db.Execute(sql);
      ASSERT_TRUE(idx.ok()) << idx.status().ToString();
      EXPECT_TRUE(idx->stats.used_index_scan);
      EXPECT_FALSE(idx->stats.used_seq_scan);
      testutil::ExpectResultsEqual(*seq, *ref);
      testutil::ExpectResultsEqual(*seq, *idx);
    }
  }
}

// Eligible aggregates report morsel counters; ineligible ones (cross
// joins) and the reference iterator report none.
TEST(ParallelExecStatsTest, MorselCountersTrackEligibility) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  SetThreads(&db, 4);

  auto q1 = db.Execute(*tpch::QuerySql(1));  // single-table aggregate
  ASSERT_TRUE(q1.ok());
  EXPECT_GT(q1->stats.morsels, 0u);
  EXPECT_GT(q1->stats.cpu_ops_parallel, 0u);
  EXPECT_GE(q1->stats.cpu_ops, q1->stats.cpu_ops_parallel);
  EXPECT_GT(q1->stats.exec_threads, 1u);

  auto q3 = db.Execute(*tpch::QuerySql(3));  // 3-way join: morsel join
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3->stats.morsels, 0u);
  EXPECT_GT(q3->stats.cpu_ops_parallel, 0u);
  EXPECT_GT(q3->stats.join_build_rows, 0u);
  EXPECT_GT(q3->stats.join_probe_rows, 0u);

  // A cross join has no equality predicate to build on: the join
  // planner falls back to the sequential chain without leaving any
  // morsel accounting behind.
  auto cross = db.Execute("select count(*) from nation, region");
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->stats.morsels, 0u);
  EXPECT_EQ(cross->stats.cpu_ops_parallel, 0u);
  EXPECT_EQ(cross->stats.join_build_rows, 0u);

  auto q1_ref = db.ExecuteReference(*tpch::QuerySql(1));
  ASSERT_TRUE(q1_ref.ok());
  EXPECT_EQ(q1_ref->stats.morsels, 0u);
  testutil::ExpectResultsEqual(*q1_ref, *q1);
}

// Page accounting must not depend on the thread count: the
// coordinator touches pages in scan order before fan-out.
TEST(ParallelExecStatsTest, PageTrafficIndependentOfThreads) {
  uint64_t expect_disk = 0, expect_cache = 0;
  for (int threads : {1, 2, 8}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 64});
    ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
    SetThreads(&db, threads);
    auto warm = db.Execute(*tpch::QuerySql(6));
    ASSERT_TRUE(warm.ok());
    auto r = db.Execute(*tpch::QuerySql(6));
    ASSERT_TRUE(r.ok());
    // Second run against a freshly warmed 64-page pool: the hit/miss
    // split is a pure function of scan order, so it must match the
    // sequential (threads=1) iteration's numbers.
    if (threads == 1) {
      expect_disk = r->stats.pages_disk;
      expect_cache = r->stats.pages_cache;
    } else {
      EXPECT_EQ(r->stats.pages_disk, expect_disk) << "threads=" << threads;
      EXPECT_EQ(r->stats.pages_cache, expect_cache) << "threads=" << threads;
    }
  }
}

TEST(ParallelSettingsTest, ExecThreadsValidation) {
  engine::Database db;
  EXPECT_TRUE(db.Execute("set exec_threads = 4").ok());
  EXPECT_EQ(db.settings()->exec_threads, 4);
  EXPECT_FALSE(db.Execute("set exec_threads = 0").ok());
  EXPECT_FALSE(db.Execute("set exec_threads = 999").ok());
  EXPECT_FALSE(db.Execute("set exec_threads = abc").ok());
  EXPECT_EQ(db.settings()->exec_threads, 4);  // unchanged on error
}

}  // namespace
}  // namespace apuama
