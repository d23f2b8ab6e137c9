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
//  * EXISTS / NOT EXISTS / IN (subquery) conjuncts run as semi and
//    anti stages of the same chain, with the legacy iterator's NULL
//    semantics, while the shapes a stage cannot take still answer
//    through the legacy iterator;
//  * cross joins fall back to the sequential chain, and the capped
//    reservation hint keeps huge cross products allocation-safe.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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

// Outer table o, subquery table i and dimension d for the semi/anti
// stage tests, as plain rows so a test can compute answers by brute
// force. Both correlation keys carry NULLs, i repeats every key many
// times, and the default 3000 outer rows span several morsels.
struct SubqueryData {
  std::vector<Row> o;  // id, k, k2, s, g, v
  std::vector<Row> i;  // k, k2, s, flag
  std::vector<Row> d;  // id, x
};

SubqueryData MakeSubqueryData(int outer_rows = 3000) {
  SubqueryData data;
  for (int r = 0; r < outer_rows; ++r) {
    data.o.push_back({Value::Int(r),
                      r % 7 == 0 ? Value::Null() : Value::Int(r % 41),
                      Value::Int(r % 3), Value::Int(r % 5), Value::Int(r % 12),
                      Value::Double(r * 0.25)});
  }
  for (int r = 0; r < 2000; ++r) {
    data.i.push_back({r % 11 == 0 ? Value::Null() : Value::Int(r % 29),
                      Value::Int(r % 4),
                      r % 13 == 0 ? Value::Null() : Value::Int(r % 6),
                      Value::Int(r % 2)});
  }
  for (int r = 0; r < 12; ++r) {
    data.d.push_back(
        {Value::Int(r), r == 5 ? Value::Null() : Value::Int(r * 3)});
  }
  return data;
}

void LoadSubqueryData(engine::Database* db, const SubqueryData& data) {
  ASSERT_TRUE(db->Execute("create table o (id int, k int, k2 int, s int, "
                          "g int, v double)")
                  .ok());
  ASSERT_TRUE(
      db->Execute("create table i (k int, k2 int, s int, flag int)").ok());
  ASSERT_TRUE(db->Execute("create table d (id int, x int)").ok());
  for (const auto& [name, rows] :
       {std::pair<const char*, const std::vector<Row>*>{"o", &data.o},
        {"i", &data.i},
        {"d", &data.d}}) {
    auto t = db->catalog()->GetTable(name);
    ASSERT_TRUE(t.ok()) << name;
    ASSERT_TRUE((*t)->BulkLoad(*rows).ok()) << name;
  }
}

// Each decorrelatable EXISTS / NOT EXISTS / IN shape runs on the
// morsel join as a semi or anti stage: NULL correlation keys (a semi
// stage drops the outer row, an anti stage keeps it), duplicate build
// keys, residuals reading both sides, a two-column correlation, IN,
// stages correlated to a build table rather than the driver, a probe
// key that does not compile, and a residual that fails (division by
// zero at o.g = 1) on driver rows the inner join with d drops. Every
// answer equals the reference iterator and is bit-identical at
// exec_threads 1 / 2 / 8.
TEST(JoinParallelTest, SemiAndAntiStagesMatchReference) {
  const SubqueryData data = MakeSubqueryData();
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  LoadSubqueryData(&db, data);
  const std::vector<std::string> queries = {
      "select count(*), sum(v) from o"
      " where exists (select * from i where i.k = o.k)",
      "select g, count(*), sum(v) from o"
      " where not exists (select * from i where i.k = o.k)"
      " group by g order by g",
      "select count(*), sum(v) from o"
      " where exists (select * from i where i.k = o.k and i.s <> o.s)",
      "select g, count(*) from o where not exists (select * from i"
      " where o.k = i.k and i.s <> o.s and i.flag = 1)"
      " group by g order by g",
      "select count(*), max(v) from o"
      " where exists (select * from i where i.k = o.k and i.k2 = o.k2)",
      "select g, count(*), sum(v) from o"
      " where k in (select k from i where flag = 0) group by g order by g",
      "select count(*), sum(o.v) from o, d where o.g = d.id"
      " and exists (select * from i where i.k = d.x)"
      " and not exists (select * from i i2 where i2.k = o.k"
      " and i2.k2 = d.id)",
      "select count(*) from o where not exists (select * from i"
      " where i.k = case when o.s > 1 then o.k end)",
      "select count(*), sum(o.v) from o, d where o.g = d.x"
      " and exists (select * from i where i.k = o.k"
      " and i.k / (o.g - 1) >= 0)",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    engine::QueryResult r = testutil::ExpectPipelineMatchesReference(&db, sql);
    EXPECT_GT(r.stats.morsels, 0u);
    EXPECT_GT(r.stats.join_build_rows, 0u);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref->stats.join_build_rows, 0u);
  }

  // EXISTS and NOT EXISTS partition the outer rows: a NULL key lands
  // on the NOT EXISTS side, never on both or neither.
  auto semi = db.Execute(
      "select count(*) from o where exists (select * from i where i.k = o.k)");
  auto anti = db.Execute(
      "select count(*) from o"
      " where not exists (select * from i where i.k = o.k)");
  ASSERT_TRUE(semi.ok() && anti.ok());
  EXPECT_EQ(semi->rows[0][0].int_val() + anti->rows[0][0].int_val(),
            static_cast<int64_t>(data.o.size()));
  EXPECT_GT(anti->rows[0][0].int_val(),
            static_cast<int64_t>(data.o.size() / 7));

  // The other way round: an inner-stage residual that fails (division
  // by zero) only on rows the semi stage would drop fails the
  // statement on the pipeline as it does on the reference.
  const std::string failing =
      "select count(*) from o, d where o.g = d.x"
      " and d.id / (case when o.k < 29 then 1 else 0 end) >= 0"
      " and exists (select * from i where i.k = o.k)";
  auto ref_fail = db.ExecuteReference(failing);
  ASSERT_FALSE(ref_fail.ok());
  for (int t : {1, 2, 8}) {
    ASSERT_TRUE(db.Execute("set exec_threads = " + std::to_string(t)).ok());
    auto got = db.Execute(failing);
    ASSERT_FALSE(got.ok()) << "threads=" << t;
    EXPECT_EQ(got.status().ToString(), ref_fail.status().ToString());
  }
}

// Shapes a semi/anti stage cannot take keep answering through the
// legacy iterator: an aggregating (grouped HAVING) EXISTS, an EXISTS
// with an OFFSET, NOT IN, a nested EXISTS and a two-table subquery.
// The join pipeline builds nothing for them, and each answer equals a
// brute-force count over the generated rows (fewer outer rows: per-row
// correlated evaluation is slow).
TEST(JoinParallelTest, SubqueryShapesOutsideTheStagesFallBack) {
  const SubqueryData data = MakeSubqueryData(/*outer_rows=*/500);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  LoadSubqueryData(&db, data);
  auto eq = [](const Value& a, const Value& b) {
    return !a.is_null() && !b.is_null() && a.Compare(b) == 0;
  };
  auto count_outer = [&](const std::function<bool(const Row&)>& keep) {
    int64_t n = 0;
    for (const Row& o : data.o) n += keep(o) ? 1 : 0;
    return n;
  };
  // o.k matches an i row whose s equals some d.x.
  auto matches_i_in_d = [&](const Row& o) {
    for (const Row& i : data.i) {
      if (!eq(i[0], o[1])) continue;
      for (const Row& d : data.d) {
        if (eq(d[1], i[2])) return true;
      }
    }
    return false;
  };
  // o.k matches more than 62 i rows.
  const int64_t many = count_outer([&](const Row& o) {
    int64_t n = 0;
    for (const Row& i : data.i) n += eq(i[0], o[1]) ? 1 : 0;
    return n > 62;
  });
  const int64_t not_in = count_outer([&](const Row& o) {
    if (o[1].is_null()) return false;
    for (const Row& i : data.i) {
      if (i[3].int_val() == 1 && eq(i[0], o[1])) return false;
    }
    return true;
  });
  const int64_t nested = count_outer(matches_i_in_d);
  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"select count(*) from o where exists (select k from i"
       " where i.k = o.k group by k having count(*) > 62)",
       many},
      {"select count(*) from o where exists (select * from i"
       " where i.k = o.k offset 62)",
       many},
      {"select count(*) from o where k not in (select k from i"
       " where k is not null and flag = 1)",
       not_in},
      {"select count(*) from o where exists (select * from i"
       " where i.k = o.k and exists (select * from d where d.x = i.s))",
       nested},
      {"select count(*) from o where exists (select * from i, d"
       " where i.k = o.k and d.x = i.s)",
       nested},
  };
  for (const auto& [sql, expect] : cases) {
    SCOPED_TRACE(sql);
    engine::QueryResult r = testutil::ExpectPipelineMatchesReference(&db, sql);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_val(), expect);
    EXPECT_EQ(r.stats.join_build_rows, 0u);
  }
  // The brute-force answers are neither empty nor everything, so each
  // case tells kept rows from dropped ones.
  for (int64_t n : {many, not_in, nested}) {
    EXPECT_GT(n, 0);
    EXPECT_LT(n, static_cast<int64_t>(data.o.size()));
  }
}

// Q4 (EXISTS) and Q21 (EXISTS + NOT EXISTS) take the morsel join; Q17
// (correlated scalar subquery) and Q18 (IN over a grouped HAVING)
// still answer through the legacy iterator.
TEST(JoinParallelTest, PaperSubqueryQueriesTakeThePipeline) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  for (int q : {4, 21, 17, 18}) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    SCOPED_TRACE("Q" + std::to_string(q));
    engine::QueryResult r = testutil::ExpectPipelineMatchesReference(&db, *sql);
    if (q == 4 || q == 21) {
      EXPECT_GT(r.stats.join_build_rows, 0u);
      EXPECT_GT(r.stats.join_probe_rows, 0u);
    } else {
      EXPECT_EQ(r.stats.join_build_rows, 0u);
    }
  }
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
