// Result composition: the single composer (StreamingComposition over
// the executor's aggregate / projection tail) on hand-built partials,
// its input validation, SVP/AVP equivalence for plain and DISTINCT
// compositions, streaming composition under heavy client concurrency,
// and the plan cache.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/plan_cache.h"
#include "apuama/result_composer.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "engine/executor.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

constexpr double kTestSf = 0.002;

const tpch::TpchData& SharedData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = kTestSf});
  return *data;
}

engine::QueryResult MakePartial(std::vector<std::string> names,
                                std::vector<Row> rows) {
  engine::QueryResult r;
  r.column_names = std::move(names);
  r.rows = std::move(rows);
  return r;
}

// Feeds `partials` in order to one composition of `sql` (parsed from
// text, as a caller without a rewritten plan does) and finishes it.
Result<engine::QueryResult> Compose(
    std::vector<engine::QueryResult> partials, const std::string& sql,
    CompositionStats* stats = nullptr) {
  StreamingComposition sink(nullptr, sql);
  for (auto& p : partials) APUAMA_RETURN_NOT_OK(sink.Add(std::move(p)));
  return sink.Finish(stats);
}

void ExpectRows(const engine::QueryResult& r, const std::vector<Row>& rows) {
  engine::QueryResult expected;
  expected.column_names = r.column_names;
  expected.rows = rows;
  testutil::ExpectResultsIdentical(expected, r);
}

TEST(ComposeTest, EmptyPartialsRejected) {
  auto r = Compose({}, "select sum(a0) from partials");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ComposeTest, ColumnCountMismatchRejected) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a"}, {}));
  partials.push_back(MakePartial({"a", "b"}, {}));
  auto r = Compose(std::move(partials), "select a from partials");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ComposeTest, GroupedSumAcrossPartials) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Str("A"), Value::Int(10)}, {Value::Str("B"), Value::Int(5)}}));
  partials.push_back(
      MakePartial({"g0", "a0"}, {{Value::Str("A"), Value::Int(7)}}));
  CompositionStats stats;
  auto r = Compose(
      std::move(partials),
      "select g0, sum(a0) as total from partials group by g0 order by g0",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"g0", "total"}));
  ExpectRows(*r, {{Value::Str("A"), Value::Int(17)},
                  {Value::Str("B"), Value::Int(5)}});
  EXPECT_EQ(stats.partial_rows, 3u);
  EXPECT_EQ(stats.output_rows, 2u);
  EXPECT_GT(stats.compose_exec.cpu_ops, 0u);
  // The composition's own work is charged into the result.
  EXPECT_EQ(r->stats.cpu_ops, stats.compose_exec.cpu_ops);
}

// A node whose key range matched nothing returns one all-NULL row for
// an ungrouped aggregate; the composition must skip the NULLs, and an
// all-NULL column overall must stay NULL.
TEST(ComposeTest, AllNullPartialsYieldNull) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Null(), Value::Null()}}));
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Int(7), Value::Null()}}));
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Null(), Value::Null()}}));
  auto r = Compose(std::move(partials),
                   "select sum(a0) as s, min(a1) as m from partials");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Int(7), Value::Null()}});
}

// An all-NULL first partial must not decide how a later partial's
// values are read.
TEST(ComposeTest, AllNullFirstPartialComposes) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0", "g0"},
                                 {{Value::Null(), Value::Null()}}));
  partials.push_back(MakePartial(
      {"a0", "g0"}, {{Value::Double(1.5), Value::Str("x")}}));
  auto r = Compose(std::move(partials),
                   "select sum(a0), min(g0) from partials");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Double(1.5), Value::Str("x")}});
}

// AVG arrives split into sum+count partial columns with the rewriter's
// CASE-guarded quotient; the merged quotient must equal the true mean
// and guard against zero-count groups.
TEST(ComposeTest, AvgRecombination) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0s", "a0c"},
      {{Value::Str("x"), Value::Double(10.0), Value::Int(4)},
       {Value::Str("y"), Value::Null(), Value::Int(0)}}));
  partials.push_back(MakePartial(
      {"g0", "a0s", "a0c"},
      {{Value::Str("x"), Value::Double(2.0), Value::Int(2)},
       {Value::Str("y"), Value::Null(), Value::Int(0)}}));
  auto r = Compose(std::move(partials),
                   "select g0, case when sum(a0c) = 0 then null "
                   "else sum(a0s) / sum(a0c) end as a from partials "
                   "group by g0 order by g0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Str("x"), Value::Double(2.0)},  // 12 / 6
                  {Value::Str("y"), Value::Null()}});     // zero count
}

// Global ORDER BY (desc, with ties broken by the group key), OFFSET
// and LIMIT applied after the merge.
TEST(ComposeTest, OrderByLimitOffset) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Int(1), Value::Int(5)}, {Value::Int(2), Value::Int(9)}}));
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Int(3), Value::Int(9)}, {Value::Int(4), Value::Int(1)},
       {Value::Int(1), Value::Int(4)}}));
  auto r = Compose(std::move(partials),
                   "select g0, sum(a0) as s from partials group by g0 "
                   "order by s desc, g0 limit 2 offset 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sums: g0=1 -> 9, 2 -> 9, 3 -> 9, 4 -> 1. Desc by s then g0 asc:
  // (1,9),(2,9),(3,9),(4,1); offset 1 limit 2 -> (2,9),(3,9).
  ExpectRows(*r, {{Value::Int(2), Value::Int(9)},
                  {Value::Int(3), Value::Int(9)}});
}

// Integer sums must stay integers until a double appears anywhere in
// the column (the executor's promotion rule).
TEST(ComposeTest, IntegerSumsStayIntegers) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(
      MakePartial({"a0", "a1"}, {{Value::Int(3), Value::Int(3)}}));
  partials.push_back(
      MakePartial({"a0", "a1"}, {{Value::Int(4), Value::Double(0.5)}}));
  auto r = Compose(std::move(partials),
                   "select sum(a0) as s, sum(a1) as t from partials");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Int(7), Value::Double(3.5)}});
}

// One node's sum stayed integral, another's went double: both fold.
TEST(ComposeTest, MixedIntAndDoubleSum) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0"}, {{Value::Int(2)}}));
  partials.push_back(MakePartial({"a0"}, {{Value::Double(0.5)}}));
  auto r = Compose(std::move(partials), "select sum(a0) from partials");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Double(2.5)}});
}

// A plain row union keeps every value as the nodes produced it, so a
// column mixing numbers, strings and dates composes as it would on a
// single node.
TEST(ComposeTest, MixedTypeColumnsCompose) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"p0", "p1"}, {{Value::Int(1), Value::Int(7)},
                     {Value::Int(3), Value::Str("x")}}));
  partials.push_back(MakePartial(
      {"p0", "p1"}, {{Value::Int(2), Value::Str("oops")},
                     {Value::Int(4), Value::Date(10)}}));
  auto r = Compose(std::move(partials),
                   "select p0 as k, p1 as v from partials order by k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRows(*r, {{Value::Int(1), Value::Int(7)},
                  {Value::Int(2), Value::Str("oops")},
                  {Value::Int(3), Value::Str("x")},
                  {Value::Int(4), Value::Date(10)}});
}

// HAVING, DISTINCT, plain row unions and non-decomposable merge
// functions run on the same executor tail as re-aggregations.
TEST(ComposeTest, HavingDistinctRowUnionAndCountDistinct) {
  auto partials = [] {
    std::vector<engine::QueryResult> p;
    p.push_back(MakePartial(
        {"g0", "a0"},
        {{Value::Int(1), Value::Int(5)}, {Value::Int(2), Value::Int(1)}}));
    p.push_back(MakePartial({"g0", "a0"}, {{Value::Int(1), Value::Int(2)}}));
    return p;
  };
  struct Case {
    std::string sql;
    std::vector<Row> rows;
  };
  const std::vector<Case> cases = {
      // HAVING: global filter over merged aggregates.
      {"select g0, sum(a0) as s from partials group by g0 "
       "having sum(a0) > 3",
       {{Value::Int(1), Value::Int(7)}}},
      // DISTINCT keeps first occurrences in arrival order.
      {"select distinct g0 from partials", {{Value::Int(1)}, {Value::Int(2)}}},
      // Plain row union (no aggregates at all).
      {"select g0, a0 from partials order by g0, a0",
       {{Value::Int(1), Value::Int(2)},
        {Value::Int(1), Value::Int(5)},
        {Value::Int(2), Value::Int(1)}}},
      // Non-decomposable merge function.
      {"select count(distinct g0) from partials", {{Value::Int(2)}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    auto r = Compose(partials(), c.sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectRows(*r, c.rows);
  }
}

// The relation entry point skips FROM and WHERE execution, so what
// they would have done is refused instead of silently ignored.
TEST(ComposeTest, StatementsTheTailCannotRunAreRejected) {
  for (const std::string sql : {
           "select g0 from partials where g0 > 1",
           "select g0 from partials, other",
           "select g0 from partials where exists (select 1 from other)",
           "select (select max(x) from other) from partials",
       }) {
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    engine::Relation rel;
    rel.columns.push_back(engine::ColumnBinding{"", "g0"});
    rel.rows.push_back({Value::Int(1)});
    engine::ExecStats stats;
    auto r = engine::Executor::ExecuteOverRelation(**stmt, std::move(rel),
                                                   &stats);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    // The composer surfaces the same refusal.
    auto c = Compose({MakePartial({"g0"}, {{Value::Int(1)}})}, sql);
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  }
}

// Plain and DISTINCT compositions through the real SVP and AVP paths:
// a column holding both numbers and strings, and DISTINCT with and
// without a global ORDER BY, equal the single-node answer.
TEST(CompositionEquivalenceTest, MixedTypeAndDistinctCompositions) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));

  struct Case {
    std::string sql;
    bool ordered;  // a total global order: results compare row by row
  };
  const std::vector<Case> cases = {
      {"select l_orderkey as k, l_linenumber as n, "
       "case when l_quantity > 25 then 'big' else 0 end as c "
       "from lineitem where l_orderkey < 200 order by k, n",
       true},
      {"select distinct l_shipmode as m from lineitem order by m", true},
      {"select distinct l_returnflag, l_linestatus from lineitem", false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    auto expected = reference.Execute(c.sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->rows.empty());
    auto parsed = sql::ParseSelect(c.sql);
    ASSERT_TRUE(parsed.ok());
    auto svp = engine.ExecuteSvp(**parsed);
    ASSERT_TRUE(svp.ok()) << "SVP: " << svp.status().ToString();
    auto avp = engine.ExecuteAvp(**parsed);
    ASSERT_TRUE(avp.ok()) << "AVP: " << avp.status().ToString();
    if (c.ordered) {
      testutil::ExpectResultsIdentical(*expected, *svp);
      testutil::ExpectResultsIdentical(*expected, *avp);
    } else {
      // AVP chunks land in completion order, so without ORDER BY only
      // the row set is defined.
      EXPECT_EQ(expected->column_names, svp->column_names);
      EXPECT_EQ(expected->column_names, avp->column_names);
      testutil::ExpectResultsEqual(*expected, *svp, /*ignore_order=*/true);
      testutil::ExpectResultsEqual(*expected, *avp, /*ignore_order=*/true);
    }
  }
  EXPECT_EQ(engine.stats().svp_queries, 2 * cases.size());
}

// Composition time accumulates in microseconds: one sub-millisecond
// SVP composition must already register.
TEST(CompositionEquivalenceTest, ComposeTimeAccumulatesMicroseconds) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  auto r = engine.ExecuteRead(0, *tpch::QuerySql(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(engine.stats().svp_queries, 1u);
  EXPECT_GT(engine.stats().compose_us_total, 0u);
  const std::string rendered = engine.stats().ToString();
  EXPECT_NE(rendered.find("compose_us="), std::string::npos) << rendered;
}

// Every composition the SVP rewriter emits for the paper's TPC-H set
// (and the extended set) carries its statement on the plan and
// composes to the single-node answer.
TEST(FastPathCoverageTest, AllTpchCompositionsUseFastPath) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));

  std::vector<int> all = tpch::PaperQueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) all.push_back(q);
  uint64_t expected_svp = 0;
  for (int q : all) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto parsed = sql::ParseSelect(*sql);
    ASSERT_TRUE(parsed.ok());
    auto plan = SvpRewriter(engine.data_catalog()).Rewrite(**parsed);
    if (!plan.ok()) continue;  // non-rewritable never composes
    EXPECT_NE(plan->merge_program(), nullptr) << plan->composition_sql();
    auto expected = reference.Execute(*sql);
    ASSERT_TRUE(expected.ok());
    auto actual = engine.ExecuteRead(0, *sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
    ++expected_svp;
  }
  EXPECT_GT(expected_svp, 0u);
  EXPECT_EQ(engine.stats().svp_queries, expected_svp);
}

// Many clients hammering SVP aggregates while a writer churns the
// fact tables: every result must be internally consistent, the final
// state must match a single node, and every read must have composed
// through the per-query streaming composition. This is the schedule
// that deadlocked/serialized on the old global composer lock (run
// under TSan in CI).
TEST(ConcurrentCompositionTest, EightClientsWithUpdates) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/1000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());

  // Grouped + ungrouped aggregate mix, all SVP-rewritable.
  const std::vector<std::string> reads = {
      *tpch::QuerySql(1), *tpch::QuerySql(6),
      "select l_shipmode, count(*) as n, sum(l_quantity) as q "
      "from lineitem group by l_shipmode order by l_shipmode",
      "select max(l_extendedprice), min(l_shipdate) from lineitem",
  };
  constexpr int kClients = 8;
  constexpr int kItersPerClient = 6;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kItersPerClient; ++i) {
        const auto& sql = reads[static_cast<size_t>(c + i) % reads.size()];
        auto r = controller.Execute(sql);
        if (!r.ok() || r->rows.empty()) bad.fetch_add(1);
      }
    });
  }
  auto stream =
      tpch::MakeRefreshStream(SharedData().max_orderkey() + 1, 10, 7);
  std::thread updater([&] {
    for (const auto& stmt : stream) {
      if (!controller.Execute(stmt.sql).ok()) bad.fetch_add(1);
    }
  });
  for (auto& t : clients) t.join();
  updater.join();
  ASSERT_EQ(bad.load(), 0);

  // Insert-then-delete restored the data: every read query now equals
  // the untouched single-node reference.
  EXPECT_TRUE(engine.ReplicasConsistent());
  for (const auto& sql : reads) {
    SCOPED_TRACE(sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok());
    auto actual = controller.Execute(sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
  }
  // Every read above is SVP-rewritable and composed.
  EXPECT_GT(engine.stats().svp_queries,
            static_cast<uint64_t>(kClients * kItersPerClient) - 1);
}

TEST(PlanCacheTest, NormalizeSqlCollapsesCaseAndWhitespace) {
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT  *\n FROM\tT "),
            "select * from t");
  EXPECT_EQ(PlanCache::NormalizeSql("a"), "a");
  EXPECT_EQ(PlanCache::NormalizeSql("  "), "");
}

// Literal content is part of the plan: queries differing only inside
// a quoted literal must produce different keys, or the second query
// would silently replay the first one's cached plan.
TEST(PlanCacheTest, NormalizeSqlPreservesStringLiterals) {
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT * FROM t WHERE x = 'ABC'"),
            "select * from t where x = 'ABC'");
  EXPECT_NE(PlanCache::NormalizeSql("select 'ABC'"),
            PlanCache::NormalizeSql("select 'abc'"));
  EXPECT_NE(PlanCache::NormalizeSql("select 'a  b'"),
            PlanCache::NormalizeSql("select 'a b'"));
  // Doubled delimiter stays inside the literal; normalization resumes
  // after the closing quote.
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT 'It''S  X'  AS  A"),
            "select 'It''S  X' as a");
  // Double-quoted identifiers are preserved verbatim too.
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT \"Col  A\" FROM T"),
            "select \"Col  A\" from t");
}

// An insert carrying a catalog version the cache is not tracking is
// dropped: it must neither wipe entries built at the current version
// nor regress the cache's version.
TEST(PlanCacheTest, StaleVersionInsertDropped) {
  PlanCache cache(/*capacity=*/4);
  auto entry = std::make_shared<const PlanCache::Entry>();
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);  // advances cache to v2
  cache.Insert("a", 2, entry);
  cache.Insert("b", 1, entry);  // stale reader racing a catalog bump
  EXPECT_EQ(cache.Lookup("b", 2), nullptr);  // stale entry not stored
  EXPECT_NE(cache.Lookup("a", 2), nullptr);  // current entry survives
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LruEvictionAndVersionInvalidation) {
  PlanCache cache(/*capacity=*/2);
  auto entry = std::make_shared<const PlanCache::Entry>();
  // Only Lookup advances the cache's catalog version; engine flow is
  // always Lookup-miss-then-Insert at the version Lookup saw.
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  cache.Insert("a", 1, entry);
  cache.Insert("b", 1, entry);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // refreshes "a"
  cache.Insert("c", 1, entry);               // evicts LRU "b"
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  // A catalog version change drops everything.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// The cache's own hit/miss counters: every Lookup is exactly one hit
// or one miss (version-invalidated lookups count as misses), and the
// counters only ever grow.
TEST(PlanCacheTest, HitMissCountersTrackLookups) {
  PlanCache cache(/*capacity=*/2);
  auto entry = std::make_shared<const PlanCache::Entry>();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);  // cold miss
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("a", 1, entry);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);  // map miss
  EXPECT_EQ(cache.misses(), 2u);
  // Catalog bump: the entry is gone, and the lookup is a miss.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

// End to end: repeat submissions hit the cache, a Data Catalog domain
// update invalidates it, and the replayed plan stays correct across
// the domain change.
TEST(PlanCacheTest, EngineReusesAndInvalidatesPlans) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/1000));
  const std::string sql = *tpch::QuerySql(6);
  auto first = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);
  EXPECT_EQ(engine.stats().plan_cache_hits, 0u);
  // Reformatted resubmission hits via normalization.
  auto second = engine.ExecuteRead(1, "  " + sql + "\n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.stats().plan_cache_hits, 1u);
  testutil::ExpectResultsEqual(*first, *second);

  // Domain refresh bumps the catalog version: next submission must
  // re-rewrite (a cached plan would use stale intervals).
  uint64_t v = engine.data_catalog()->version();
  const auto& space = engine.data_catalog()->spaces()[0];
  ASSERT_TRUE(engine.mutable_data_catalog()
                  ->UpdateDomain(space.name, space.min_value,
                                 space.max_value + 500)
                  .ok());
  EXPECT_GT(engine.data_catalog()->version(), v);
  auto third = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(engine.stats().plan_cache_misses, 2u);
  testutil::ExpectResultsEqual(*first, *third);
}

// Passthrough and non-rewritable outcomes are cached too (the miss
// costs a parse; the repeat should not).
TEST(PlanCacheTest, CachesNonSvpOutcomes) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string dim = "select count(*) from nation";
  const std::string distinct =
      "select count(distinct l_suppkey) from lineitem";
  ASSERT_TRUE(engine.ExecuteRead(0, dim).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, dim).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, distinct).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, distinct).ok());
  EXPECT_EQ(engine.stats().plan_cache_misses, 2u);
  EXPECT_EQ(engine.stats().plan_cache_hits, 2u);
  EXPECT_EQ(engine.stats().non_rewritable, 2u);
  // Cache-level counters agree with the engine's, and the one-line
  // stats rendering exposes them for operators.
  EXPECT_EQ(engine.plan_cache().hits(), 2u);
  EXPECT_EQ(engine.plan_cache().misses(), 2u);
  const std::string rendered = engine.stats().ToString();
  EXPECT_NE(rendered.find("plan_cache_hits=2"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("plan_cache_misses=2"), std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace apuama
