// Morsel-parallel partitioned hash joins: determinism, reference
// agreement, semi-join filter pushdown, and accounting.
//
// The contracts under test:
//  * join-eligible TPC-H queries (Q3/Q5/Q10) are BIT-IDENTICAL at
//    every `exec_threads`, because partition assignment, build
//    insertion order, and partial folding depend only on table
//    contents, never on scheduling;
//  * the morsel join pipeline agrees with the sequential reference
//    chain (Database::ExecuteReference) up to float association,
//    whether the driver is a full scan or an index position list;
//  * join order is chosen from table contents, so permuting the
//    FROM list cannot change the result bits;
//  * the build chain takes key-unique, then selective stages first,
//    so a many-to-many join cannot multiply every later stage's
//    probes;
//  * the semi-join filter prunes probe rows, never results;
//  * cross joins fall back to the sequential chain, and the capped
//    reservation hint keeps huge cross products allocation-safe.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace apuama {
namespace {

const std::vector<int>& JoinQueries() {
  static const std::vector<int> qs = {3, 5, 10};
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

void Set(engine::Database* db, const std::string& stmt) {
  auto r = db->Execute("set " + stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
}

// Acceptance criterion: the join pipeline is bit-identical to its own
// single-threaded execution for Q3/Q5/Q10 at thread counts 1 / 2 / 8
// and two scale factors.
TEST(JoinParallelTest, JoinQueriesBitIdenticalAcrossThreadCounts) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : JoinQueries()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      Set(&db, "exec_threads = 1");
      auto base = db.Execute(*sql);
      ASSERT_TRUE(base.ok()) << "Q" << q << ": " << base.status().ToString();
      EXPECT_GT(base->stats.join_build_rows, 0u) << "Q" << q;
      for (int threads : {2, 8}) {
        Set(&db, "exec_threads = " + std::to_string(threads));
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

// The partitioned-hash-join pipeline must agree with the sequential
// reference chain: same rows, same order, values equal within
// float-association tolerance.
TEST(JoinParallelTest, MorselJoinMatchesLegacyChain) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  for (int q : JoinQueries()) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    engine::QueryResult morsel =
        testutil::ExpectPipelineMatchesReference(&db, *sql);
    EXPECT_GT(morsel.stats.join_build_rows, 0u) << "Q" << q;
  }
}

// A driver scanned through a secondary index streams the morsels of
// its position list through the same driver loop, with every conjunct
// and key row-wise, and builds no column chunk for the driver (the
// dimension side is scanned and built row-wise in any case).
TEST(JoinParallelTest, IndexDriverMatchesReference) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  Set(&db, "enable_seqscan = off");
  ASSERT_TRUE(db.Execute("create table f (k int, g int, v double, "
                         "primary key (k))")
                  .ok());
  ASSERT_TRUE(db.Execute("create index f_g on f (g)").ok());
  ASSERT_TRUE(db.Execute("create table d (id int, tag int)").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Execute("insert into f values (" + std::to_string(i) +
                           ", " + std::to_string(i % 37) + ", " +
                           std::to_string(i) + ".25)")
                    .ok());
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Execute("insert into d values (" +
                           std::to_string(i % 20) + ", " +
                           std::to_string(i % 7) + ")")
                    .ok());
  }
  const std::vector<std::string> queries = {
      "select tag, count(*), sum(v) from f, d"
      " where g between 2 and 9 and g = id group by tag order by tag",
      "select count(*), sum(v), max(tag) from f, d"
      " where g = 5 and g + 1 = id and v > 700.0",
  };
  for (const std::string& sql : queries) {
    engine::QueryResult r =
        testutil::ExpectPipelineMatchesReference(&db, sql);
    SCOPED_TRACE(sql);
    ASSERT_FALSE(r.rows.empty());
    EXPECT_FALSE(r.rows[0][1].is_null());  // sum(v) over matched rows
    EXPECT_TRUE(r.stats.used_index_scan);
    EXPECT_GT(r.stats.join_build_rows, 0u);
    EXPECT_GT(r.stats.join_probe_rows, 0u);
    EXPECT_EQ(r.stats.probe_vectorized_rows, 0u);
    EXPECT_EQ(r.stats.columnar_chunks_built, 0u);
  }
}

// Driver selection and build-chain order are functions of table
// contents (row counts, survivor counts, clustered keys, binding
// names) — never of the FROM list's textual order. Permutations of
// the same query must be bit-identical at every thread count.
TEST(JoinParallelTest, FromListPermutationsBitIdentical) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  const std::string nations =
      "select n_name, count(*) as cnt,"
      " sum(s_acctbal) as bal"
      " from @"
      " where s_nationkey = n_nationkey"
      " and n_regionkey = r_regionkey"
      " group by n_name order by n_name";
  const std::string q5_from =
      "customer, orders, lineitem, supplier, nation, region";
  std::string q5 = *tpch::QuerySql(5);
  const size_t at = q5.find(q5_from);
  ASSERT_NE(at, std::string::npos);
  q5.replace(at, q5_from.size(), "@");
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      cases = {
          {nations,
           {"supplier, nation, region", "region, nation, supplier",
            "nation, region, supplier"}},
          {q5,
           {q5_from, "region, nation, supplier, lineitem, orders, customer",
            "lineitem, region, customer, nation, orders, supplier",
            "supplier, customer, region, orders, nation, lineitem"}},
      };
  for (const auto& [shape, froms] : cases) {
    auto with_from = [&](const std::string& from) {
      std::string sql = shape;
      sql.replace(sql.find('@'), 1, from);
      return sql;
    };
    for (int threads : {1, 4}) {
      Set(&db, "exec_threads = " + std::to_string(threads));
      auto base = db.Execute(with_from(froms[0]));
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_GT(base->stats.join_build_rows, 0u);
      EXPECT_FALSE(base->rows.empty());
      for (size_t i = 1; i < froms.size(); ++i) {
        auto perm = db.Execute(with_from(froms[i]));
        ASSERT_TRUE(perm.ok()) << perm.status().ToString();
        SCOPED_TRACE(froms[i] + " threads=" + std::to_string(threads));
        testutil::ExpectResultsIdentical(*base, *perm);
        EXPECT_EQ(base->stats.cpu_ops, perm->stats.cpu_ops);
        EXPECT_EQ(base->stats.join_probe_rows, perm->stats.join_probe_rows);
      }
    }
  }
}

// The chain takes key-unique stages first, then the most selective
// ones. On TPC-H Q5 that keeps every probe stage from fanning out
// through the many-to-many c_nationkey = s_nationkey join, so the
// whole chain probes fewer rows than the driver holds; and on every
// paper join query the pipeline does no more work than the reference
// iterator's greedy chain while returning the same answer.
TEST(JoinParallelTest, ChainOrderProbesUniqueAndSelectiveStagesFirst) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  auto lineitems = db.Execute("select count(*) from lineitem");
  ASSERT_TRUE(lineitems.ok());
  for (int q : {3, 5, 10, 12, 14}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    const std::string sql = *tpch::QuerySql(q);
    engine::QueryResult got =
        testutil::ExpectPipelineMatchesReference(&db, sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_GT(got.stats.join_build_rows, 0u);
    EXPECT_LE(got.stats.cpu_ops, ref->stats.cpu_ops);
    if (q == 5) {
      EXPECT_LE(got.stats.join_probe_rows,
                static_cast<uint64_t>(lineitems->rows[0][0].int_val()));
    }
  }
}

// A fact table joins a filtered dimension on its primary key and an
// unfiltered dimension on a many-to-many key. The unique dimension is
// the larger table, so raw size alone would probe the fan-out first
// (every fact row times 10 group rows, before the filter bites); the
// chain must probe the unique, selective stage first so that only
// its survivors reach the fan-out.
TEST(JoinParallelTest, UniqueSelectiveStageProbedBeforeFanOut) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table fact (k int, a int, b int, "
                         "v double, primary key (k))")
                  .ok());
  ASSERT_TRUE(db.Execute("create table uniq (id int, flag int, "
                         "primary key (id))")
                  .ok());
  ASSERT_TRUE(db.Execute("create table grp (g int, w int)").ok());
  constexpr int kFacts = 2000;
  constexpr int kUniq = 500;
  for (int i = 0; i < kFacts; ++i) {
    ASSERT_TRUE(db.Execute("insert into fact values (" + std::to_string(i) +
                           ", " + std::to_string(i % kUniq) + ", " +
                           std::to_string(i % 4) + ", " +
                           std::to_string(i) + ".5)")
                    .ok());
  }
  for (int i = 0; i < kUniq; ++i) {  // flag = 1 keeps 1 row in 10
    ASSERT_TRUE(db.Execute("insert into uniq values (" + std::to_string(i) +
                           ", " + std::to_string(i % 10 == 0 ? 1 : 0) + ")")
                    .ok());
  }
  for (int i = 0; i < 40; ++i) {  // 10 rows per group value 0..3
    ASSERT_TRUE(db.Execute("insert into grp values (" +
                           std::to_string(i % 4) + ", " + std::to_string(i) +
                           ")")
                    .ok());
  }
  const std::string sql =
      "select count(*), sum(v), sum(w) from fact, grp, uniq"
      " where b = g and a = id and flag = 1";
  engine::QueryResult r = testutil::ExpectPipelineMatchesReference(&db, sql);
  ASSERT_EQ(r.rows.size(), 1u);
  // 1 fact row in 10 survives uniq and meets 10 grp rows.
  EXPECT_EQ(r.rows[0][0].int_val(), kFacts / 10 * 10);
  // uniq first: at most every fact row probes it, then exactly its
  // kFacts / 10 survivors probe grp. grp first would probe grp with
  // every fact row and uniq with each of their 10 matches.
  EXPECT_LE(r.stats.join_probe_rows, uint64_t{kFacts + kFacts / 10});
}

// Semi-join filter pushdown is a pure pruning optimization: with a
// selective build side the filter must actually skip probe rows, and
// the result still equals the reference chain, which has no filter.
TEST(JoinParallelTest, SemiJoinFilterPrunesWithoutChangingResults) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  auto sql = tpch::QuerySql(3);  // c_mktsegment cuts customer to ~1/5
  ASSERT_TRUE(sql.ok());

  auto filtered = db.Execute(*sql);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_GT(filtered->stats.filter_skipped_rows, 0u);
  EXPECT_GT(filtered->stats.join_probe_rows, 0u);

  auto ref = db.ExecuteReference(*sql);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->stats.filter_skipped_rows, 0u);
  testutil::ExpectResultsEqual(*ref, *filtered);
}

// Every join counter must land where it belongs: build rows from the
// build sides, probe rows from surviving driver rows, and nothing at
// all on the reference chain.
TEST(JoinParallelTest, JoinCountersTrackPipeline) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  auto q3 = db.Execute(*tpch::QuerySql(3));
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3->stats.join_build_rows, 0u);
  EXPECT_GT(q3->stats.join_probe_rows, 0u);
  EXPECT_GT(q3->stats.morsels, 0u);
  EXPECT_GT(q3->stats.cpu_ops_parallel, 0u);
  EXPECT_GE(q3->stats.cpu_ops, q3->stats.cpu_ops_parallel);

  auto off = db.ExecuteReference(*tpch::QuerySql(3));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->stats.join_build_rows, 0u);
  EXPECT_EQ(off->stats.join_probe_rows, 0u);
  EXPECT_EQ(off->stats.filter_skipped_rows, 0u);
}

// Cross joins (no equality predicate) fall back to the sequential
// chain and still produce correct results; the reservation hint caps
// the up-front allocation rather than reserving |L|x|R| rows.
TEST(JoinParallelTest, CrossJoinFallbackCorrect) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  // 25 nations x 5 regions x 10 suppliers-ish: a real cross product.
  engine::QueryResult r = testutil::ExpectPipelineMatchesReference(
      &db, "select count(*) from nation, region, supplier");
  ASSERT_EQ(r.rows.size(), 1u);
  auto nations = db.Execute("select count(*) from nation");
  auto regions = db.Execute("select count(*) from region");
  auto suppliers = db.Execute("select count(*) from supplier");
  ASSERT_TRUE(nations.ok() && regions.ok() && suppliers.ok());
  const int64_t expect = nations->rows[0][0].int_val() *
                         regions->rows[0][0].int_val() *
                         suppliers->rows[0][0].int_val();
  EXPECT_EQ(r.rows[0][0].int_val(), expect);
  EXPECT_EQ(r.stats.join_build_rows, 0u);
}

// The reservation hint itself: exact product below the cap, capped
// (not overflowed) above it, zero when either side is empty.
TEST(JoinParallelTest, JoinReserveHintCapsAndNeverOverflows) {
  using engine::JoinReserveHint;
  constexpr size_t kCap = size_t{1} << 20;
  EXPECT_EQ(JoinReserveHint(0, 5), 0u);
  EXPECT_EQ(JoinReserveHint(5, 0), 0u);
  EXPECT_EQ(JoinReserveHint(100, 200), 20000u);
  EXPECT_EQ(JoinReserveHint(1024, 1024), kCap);
  EXPECT_EQ(JoinReserveHint(size_t{1} << 19, size_t{1} << 19), kCap);
  EXPECT_EQ(JoinReserveHint(SIZE_MAX, SIZE_MAX), kCap);
  EXPECT_EQ(JoinReserveHint(SIZE_MAX, 2), kCap);
}

// The join pipeline and its semi-join filter have no off switch.
TEST(JoinParallelTest, SettingsValidation) {
  engine::Database db;
  for (const char* knob : {"join_parallel", "join_filter"}) {
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
