// Property-based tests: randomized sweeps over the core invariants.
//
//  * Value::Compare is a total order (reflexive/antisymmetric/
//    transitive) over randomly generated values.
//  * LikeMatch agrees with a simple reference backtracking matcher.
//  * SVP intervals partition the domain exactly, for random domains
//    and node counts.
//  * Randomly generated aggregate queries return identical results
//    through Apuama SVP and through a single node (the paper's
//    correctness property, beyond the 8 fixed TPC-H queries).
//  * Composer re-aggregation equals direct aggregation of the union
//    of random partials.
#include <gtest/gtest.h>

#include "apuama/apuama_engine.h"
#include "apuama/result_composer.h"
#include "cjdbc/connection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "engine/eval.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

// ---------------------------------------------------------------------------
// Value ordering laws
// ---------------------------------------------------------------------------

Value RandomValue(Rng* rng) {
  switch (rng->Uniform(0, 4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(rng->Uniform(-1000, 1000));
    case 2:
      return Value::Double(rng->UniformDouble(-100, 100));
    case 3:
      return Value::Str(rng->NextString(rng->Uniform(0, 6)));
    default:
      return Value::Date(rng->Uniform(0, 20000));
  }
}

TEST(ValueOrderProperty, TotalOrderLaws) {
  Rng rng(101);
  std::vector<Value> vals;
  for (int i = 0; i < 60; ++i) vals.push_back(RandomValue(&rng));
  for (const Value& a : vals) {
    EXPECT_EQ(a.Compare(a), 0);  // reflexive
    for (const Value& b : vals) {
      // antisymmetric
      EXPECT_EQ(a.Compare(b) < 0, b.Compare(a) > 0);
      EXPECT_EQ(a.Compare(b) == 0, b.Compare(a) == 0);
      for (const Value& c : vals) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(ValueOrderProperty, HashAgreesWithEquality) {
  Rng rng(102);
  for (int i = 0; i < 500; ++i) {
    Value a = RandomValue(&rng);
    Value b = RandomValue(&rng);
    if (a.Compare(b) == 0) {
      EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// LIKE matcher vs reference
// ---------------------------------------------------------------------------

bool RefLike(const std::string& t, const std::string& p, size_t ti = 0,
             size_t pi = 0) {
  if (pi == p.size()) return ti == t.size();
  if (p[pi] == '%') {
    for (size_t k = ti; k <= t.size(); ++k) {
      if (RefLike(t, p, k, pi + 1)) return true;
    }
    return false;
  }
  if (ti == t.size()) return false;
  if (p[pi] == '_' || p[pi] == t[ti]) return RefLike(t, p, ti + 1, pi + 1);
  return false;
}

TEST(LikeProperty, AgreesWithReference) {
  Rng rng(103);
  const char alphabet[] = "ab%_";
  for (int i = 0; i < 3000; ++i) {
    std::string text, pattern;
    int tl = static_cast<int>(rng.Uniform(0, 6));
    int pl = static_cast<int>(rng.Uniform(0, 6));
    for (int k = 0; k < tl; ++k) {
      text += static_cast<char>('a' + rng.Uniform(0, 1));
    }
    for (int k = 0; k < pl; ++k) {
      pattern += alphabet[rng.Uniform(0, 3)];
    }
    EXPECT_EQ(engine::LikeMatch(text, pattern), RefLike(text, pattern))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

// ---------------------------------------------------------------------------
// Interval coverage
// ---------------------------------------------------------------------------

class IntervalProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalProperty, PartitionExactlyCoversDomain) {
  const int nodes = GetParam();
  Rng rng(200 + static_cast<uint64_t>(nodes));
  for (int trial = 0; trial < 25; ++trial) {
    int64_t min = rng.Uniform(-50, 1000);
    int64_t max = min + rng.Uniform(0, 100000);
    DataCatalog cat;
    VirtualPartitionSpace space;
    space.name = "k";
    space.members.push_back({"t", "k"});
    space.min_value = min;
    space.max_value = max;
    ASSERT_TRUE(cat.RegisterSpace(std::move(space)).ok());
    SvpRewriter rw(&cat);
    // Need a table 't' only for rewriting metadata, not execution.
    auto sel = sql::ParseSelect("select sum(v) from t");
    auto plan = rw.Rewrite(**sel);
    ASSERT_TRUE(plan.ok());
    auto ivs = plan->MakeIntervals(nodes);
    ASSERT_EQ(ivs.size(), static_cast<size_t>(nodes));
    EXPECT_EQ(ivs.front().first, min);
    EXPECT_EQ(ivs.back().second, max + 1);
    int64_t total = 0;
    for (size_t i = 0; i < ivs.size(); ++i) {
      EXPECT_LT(ivs[i].first, ivs[i].second);
      if (i > 0) {
        EXPECT_EQ(ivs[i].first, ivs[i - 1].second);
      }
      total += ivs[i].second - ivs[i].first;
    }
    EXPECT_EQ(total, max - min + 1);
    // Balanced: sizes differ by at most one.
    int64_t lo_size = (max - min + 1) / nodes;
    for (const auto& [a, b] : ivs) {
      EXPECT_GE(b - a, lo_size);
      EXPECT_LE(b - a, lo_size + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, IntervalProperty,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 32, 100));

// ---------------------------------------------------------------------------
// Random query equivalence: Apuama SVP == single node
// ---------------------------------------------------------------------------

std::string RandomAggQuery(Rng* rng) {
  // Aggregates over lineitem (optionally joined with orders), with
  // random predicates and grouping.
  static const char* kAggs[] = {
      "sum(l_quantity)", "count(*)", "avg(l_extendedprice)",
      "min(l_shipdate)", "max(l_quantity)", "sum(l_extendedprice * "
      "(1 - l_discount))", "count(l_returnflag)"};
  static const char* kGroups[] = {"l_returnflag", "l_linestatus",
                                  "l_shipmode"};
  static const char* kPreds[] = {
      "l_quantity < 30",
      "l_discount between 0.02 and 0.08",
      "l_shipdate >= date '1994-06-01'",
      "l_returnflag = 'N'",
      "l_shipmode in ('MAIL', 'AIR', 'SHIP')",
      "l_extendedprice > 500.0",
      "l_orderkey < 2500",
      "l_commitdate < l_receiptdate",
  };
  bool join = rng->Bernoulli(0.35);
  bool grouped = rng->Bernoulli(0.6);
  std::string group = kGroups[rng->Uniform(0, 2)];
  std::string sql = "select ";
  if (grouped) sql += group + ", ";
  int naggs = static_cast<int>(rng->Uniform(1, 3));
  for (int i = 0; i < naggs; ++i) {
    if (i > 0) sql += ", ";
    sql += std::string(kAggs[rng->Uniform(0, 6)]) +
           " as agg" + std::to_string(i);
  }
  sql += " from lineitem";
  if (join) sql += ", orders";
  sql += " where ";
  if (join) sql += "l_orderkey = o_orderkey and ";
  int npreds = static_cast<int>(rng->Uniform(1, 3));
  for (int i = 0; i < npreds; ++i) {
    if (i > 0) sql += " and ";
    sql += kPreds[rng->Uniform(0, 7)];
  }
  if (grouped) {
    sql += " group by " + group + " order by " + group;
  }
  return sql;
}

class RandomQueryEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryEquivalence, SvpMatchesSingleNode) {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = 0.001});
  static engine::Database* reference = [] {
    auto* db = new engine::Database(
        engine::DatabaseOptions{.buffer_pool_pages = 0});
    EXPECT_TRUE(data->LoadInto(db).ok());
    return db;
  }();
  static cjdbc::ReplicaSet* replicas = [] {
    auto* r = new cjdbc::ReplicaSet(
        3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
    EXPECT_TRUE(data->LoadIntoReplicas(r).ok());
    return r;
  }();
  static ApuamaEngine* engine =
      new ApuamaEngine(replicas, tpch::MakeTpchCatalog(*data));

  Rng rng(9000 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 5; ++i) {
    std::string sql = RandomAggQuery(&rng);
    SCOPED_TRACE(sql);
    auto expected = reference->Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto parsed = sql::ParseSelect(sql);
    auto actual = engine->ExecuteSvp(**parsed);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, /*ignore_order=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryEquivalence,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Composer algebra: re-aggregating partials == aggregating the union
// ---------------------------------------------------------------------------

class ComposerAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(ComposerAlgebra, MergeEqualsDirectAggregation) {
  Rng rng(500 + static_cast<uint64_t>(GetParam()));
  const int nodes = static_cast<int>(rng.Uniform(2, 8));
  const int groups = static_cast<int>(rng.Uniform(1, 6));

  // Build a ground-truth table and split its rows randomly into
  // "per-node" subsets; each node pre-aggregates its subset, the
  // composer merges; compare with direct aggregation.
  engine::Database truth(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(
      truth.Execute("create table t (g bigint, v double, w bigint)").ok());
  std::vector<std::string> node_inserts(static_cast<size_t>(nodes));
  for (int i = 0; i < 300; ++i) {
    std::string row = StrFormat(
        "(%lld, %s, %lld)",
        static_cast<long long>(rng.Uniform(0, groups - 1)),
        FormatDouble(rng.UniformDouble(-10, 10), 4).c_str(),
        static_cast<long long>(rng.Uniform(0, 100)));
    ASSERT_TRUE(truth.Execute("insert into t values " + row).ok());
    size_t node = static_cast<size_t>(rng.Uniform(0, nodes - 1));
    if (!node_inserts[node].empty()) node_inserts[node] += ", ";
    node_inserts[node] += row;
  }

  // Per-node partial aggregation.
  const char* partial_select =
      "select g as g0, sum(v) as a0, count(*) as a1, sum(v) as a2s, "
      "count(v) as a2c, min(w) as a3, max(w) as a4 from t group by g";
  std::vector<engine::QueryResult> partials;
  for (int n = 0; n < nodes; ++n) {
    engine::Database node_db(
        engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(
        node_db.Execute("create table t (g bigint, v double, w bigint)")
            .ok());
    if (!node_inserts[static_cast<size_t>(n)].empty()) {
      ASSERT_TRUE(node_db
                      .Execute("insert into t values " +
                               node_inserts[static_cast<size_t>(n)])
                      .ok());
    }
    auto r = node_db.Execute(partial_select);
    ASSERT_TRUE(r.ok());
    partials.push_back(std::move(r).value());
  }
  StreamingComposition sink(
      nullptr,
      "select g0, sum(a0) as s, sum(a1) as c, "
      "case when sum(a2c) = 0 then null else sum(a2s) / sum(a2c) end as av, "
      "min(a3) as mn, max(a4) as mx from partials group by g0 order by g0");
  for (auto& p : partials) ASSERT_TRUE(sink.Add(std::move(p)).ok());
  auto merged = sink.Finish(nullptr);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  auto direct = truth.Execute(
      "select g, sum(v), count(*), avg(v), min(w), max(w) from t "
      "group by g order by g");
  ASSERT_TRUE(direct.ok());
  testutil::ExpectResultsEqual(*direct, *merged, false, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposerAlgebra, ::testing::Range(0, 8));

}  // namespace
}  // namespace apuama
